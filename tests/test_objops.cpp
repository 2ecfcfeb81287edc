// Direct unit tests of objops (string/array/hash primitives) and the
// class registry (method lookup, ivar shape tables — the §4.4 cache-guard
// machinery).
#include <gtest/gtest.h>

#include "vm/class_registry.hpp"
#include "vm/heap.hpp"
#include "vm/objops.hpp"
#include "vm/symbol.hpp"

namespace gilfree::vm {
namespace {

class NullHost : public Host {
 public:
  u64 host_load(const u64* p, bool) override { return *p; }
  void host_store(u64* p, u64 v, bool) override { *p = v; }
  void charge(Cycles) override {}
  void require_nontx() override {}
  void full_gc() override { FAIL() << "unexpected GC in objops test"; }
  u32 current_tid() override { return 0; }
  Value spawn_thread(Value, std::vector<Value>) override {
    return Value::nil();
  }
  bool thread_finished(u32) override { return true; }
  void write_stdout(std::string_view) override {}
  u64 random_u64() override { return 0; }
  void record_result(std::string_view, double) override {}
  Cycles now_cycles() override { return 0; }
};

struct Fixture : public ::testing::Test {
  Fixture() : heap(make_config()) {}
  static HeapConfig make_config() {
    HeapConfig c;
    c.initial_slots = 20'000;
    c.max_threads = 2;
    return c;
  }
  NullHost host;
  Heap heap;
};

using ObjOps = Fixture;

TEST_F(ObjOps, StringRoundTripAndHashEquality) {
  const Value a = heap.new_string(host, "hello world, this spans >8 bytes");
  const Value b = heap.new_string(host, "hello world, this spans >8 bytes");
  const Value c = heap.new_string(host, "hello world, this spans >8 bytesX");
  EXPECT_EQ(objops::string_to_cpp(host, a.obj()),
            "hello world, this spans >8 bytes");
  EXPECT_TRUE(objops::string_eq(host, a.obj(), b.obj()));
  EXPECT_FALSE(objops::string_eq(host, a.obj(), c.obj()));
  EXPECT_EQ(objops::string_hash(host, a.obj()),
            objops::string_hash(host, b.obj()));
  EXPECT_NE(objops::string_hash(host, a.obj()),
            objops::string_hash(host, c.obj()));
}

TEST_F(ObjOps, StringAppendAcrossWordBoundaries) {
  const Value s = heap.new_string(host, "abc");
  for (int i = 0; i < 10; ++i) {
    const Value piece = heap.new_string(host, std::to_string(i) + "xy");
    objops::string_append(host, heap, s.obj(), piece.obj());
  }
  std::string expected = "abc";
  for (int i = 0; i < 10; ++i) expected += std::to_string(i) + "xy";
  EXPECT_EQ(objops::string_to_cpp(host, s.obj()), expected);
  EXPECT_EQ(objops::string_len(host, s.obj()),
            static_cast<i64>(expected.size()));
}

TEST_F(ObjOps, StringIndexAndSliceEdgeCases) {
  const Value s = heap.new_string(host, "GET /index.html HTTP/1.1");
  const Value space = heap.new_string(host, " ");
  EXPECT_EQ(objops::string_index(host, s.obj(), space.obj(), 0), 3);
  EXPECT_EQ(objops::string_index(host, s.obj(), space.obj(), 4), 15);
  EXPECT_EQ(objops::string_index(host, s.obj(), space.obj(), 100), -1);
  const Value path = objops::string_slice(host, heap, s.obj(), 4, 11);
  EXPECT_EQ(objops::string_to_cpp(host, path.obj()), "/index.html");
  EXPECT_TRUE(objops::string_slice(host, heap, s.obj(), 999, 1).is_nil());
  const Value neg = objops::string_slice(host, heap, s.obj(), -3, 3);
  EXPECT_EQ(objops::string_to_cpp(host, neg.obj()), "1.1");
}

TEST_F(ObjOps, ArraySetGrowsAndNilFills) {
  const Value a = heap.new_array(host, 2);
  objops::array_set(host, heap, a.obj(), 0, Value::fixnum(1));
  objops::array_set(host, heap, a.obj(), 10, Value::fixnum(2));
  EXPECT_EQ(objops::array_len(host, a.obj()), 11);
  EXPECT_TRUE(objops::array_get(host, a.obj(), 5).is_nil());
  EXPECT_EQ(objops::array_get(host, a.obj(), 10).fixnum_val(), 2);
  EXPECT_EQ(objops::array_get(host, a.obj(), -1).fixnum_val(), 2);
  EXPECT_TRUE(objops::array_get(host, a.obj(), 999).is_nil());
  // Pop back down.
  EXPECT_EQ(objops::array_pop(host, a.obj()).fixnum_val(), 2);
  EXPECT_EQ(objops::array_len(host, a.obj()), 10);
}

TEST_F(ObjOps, HashRehashPreservesAllEntries) {
  const Value h = heap.new_hash(host);
  for (i64 i = 0; i < 500; ++i) {
    objops::hash_set(host, heap, h.obj(), Value::fixnum(i * 7919),
                     Value::fixnum(i));
  }
  EXPECT_EQ(objops::hash_size(host, h.obj()), 500);
  for (i64 i = 0; i < 500; ++i) {
    const Value v = objops::hash_get(host, h.obj(), Value::fixnum(i * 7919));
    ASSERT_TRUE(v.is_fixnum());
    EXPECT_EQ(v.fixnum_val(), i);
  }
  EXPECT_TRUE(
      objops::hash_get(host, h.obj(), Value::fixnum(-1)).is_nil());
}

TEST_F(ObjOps, HashStringKeysCompareByContent) {
  const Value h = heap.new_hash(host);
  const Value k1 = heap.new_string(host, "content-key");
  const Value k2 = heap.new_string(host, "content-key");  // distinct object
  objops::hash_set(host, heap, h.obj(), k1, Value::fixnum(10));
  objops::hash_set(host, heap, h.obj(), k2, Value::fixnum(20));
  EXPECT_EQ(objops::hash_size(host, h.obj()), 1) << "same content, one entry";
  EXPECT_EQ(objops::hash_get(host, h.obj(), k1).fixnum_val(), 20);
}

TEST_F(ObjOps, ValueEqNumericCrossType) {
  const Value f2 = heap.new_float(host, 2.0);
  EXPECT_TRUE(objops::value_eq(host, Value::fixnum(2), f2));
  EXPECT_TRUE(objops::value_eq(host, f2, Value::fixnum(2)));
  EXPECT_FALSE(objops::value_eq(host, Value::fixnum(3), f2));
  // Equal int and float hash identically (hash/eq contract).
  EXPECT_EQ(objops::value_hash(host, Value::fixnum(2)),
            objops::value_hash(host, f2));
}

TEST_F(ObjOps, InspectRendersStructures) {
  const Value arr = heap.new_array(host, 4);
  objops::array_push(host, heap, arr.obj(), Value::fixnum(1));
  objops::array_push(host, heap, arr.obj(), Value::nil());
  objops::array_push(host, heap, arr.obj(), heap.new_string(host, "s"));
  EXPECT_EQ(objops::value_inspect_direct(arr), "[1, nil, s]");
  EXPECT_EQ(objops::value_inspect_direct(Value::true_v()), "true");
}

struct RegistryFixture : public Fixture {
  RegistryFixture() : registry(&symbols) {}
  SymbolTable symbols;
  ClassRegistry registry;
};

using Registry = RegistryFixture;

TEST_F(Registry, MethodLookupWalksSuperclassChain) {
  const ClassId animal =
      registry.define_class(symbols.intern("Animal"), kClassObject);
  const ClassId bird = registry.define_class(symbols.intern("Bird"), animal);
  MethodInfo m;
  m.name = symbols.intern("legs");
  m.kind = MethodInfo::Kind::kBytecode;
  m.iseq = 7;
  const i32 idx = registry.define_method(animal, m);
  EXPECT_EQ(registry.lookup(bird, m.name), idx);
  EXPECT_EQ(registry.lookup(animal, m.name), idx);
  EXPECT_EQ(registry.lookup(kClassObject, m.name), -1);
  // Overriding in the subclass shadows.
  m.iseq = 9;
  const i32 idx2 = registry.define_method(bird, m);
  EXPECT_EQ(registry.lookup(bird, m.name), idx2);
  EXPECT_EQ(registry.lookup(animal, m.name), idx);
}

TEST_F(Registry, IvarShapeTablesShareUntilDivergence) {
  // §4.4 (d): a subclass defined after its parent's shape exists shares the
  // parent's ivar table (same table id → inline-cache hits across classes)
  // until it adds its own ivar.
  const ClassId base =
      registry.define_class(symbols.intern("Base"), kClassObject);
  const SymbolId x = symbols.intern("x");
  EXPECT_EQ(registry.ivar_index(base, x, true), 0u);

  const ClassId sub = registry.define_class(symbols.intern("Sub"), base);
  EXPECT_EQ(registry.ivar_table_id(sub), registry.ivar_table_id(base));
  EXPECT_EQ(registry.ivar_index(sub, x, false), 0u) << "shared shape";

  // Sub adds a new ivar: clone-on-write, new table id, entries inherited.
  const SymbolId y = symbols.intern("y");
  EXPECT_EQ(registry.ivar_index(sub, y, true), 1u);
  EXPECT_NE(registry.ivar_table_id(sub), registry.ivar_table_id(base));
  EXPECT_EQ(registry.ivar_index(base, y, false), ClassRegistry::kNoIvar);
  EXPECT_EQ(registry.ivar_index(sub, x, false), 0u) << "inherited entry kept";
}

TEST_F(Registry, IvarTablesArePerClassLikeCRuby) {
  // A subclass defined *before* the parent assigns any ivar gets its own
  // index space (CRuby's iv_index_tbl is per-class, created lazily); ivar
  // resolution always goes through the receiver's class, so inherited
  // initialize methods still work.
  const ClassId base2 =
      registry.define_class(symbols.intern("Base2"), kClassObject);
  const ClassId sub2 = registry.define_class(symbols.intern("Sub2"), base2);
  const SymbolId x = symbols.intern("x2");
  EXPECT_EQ(registry.ivar_index(base2, x, true), 0u);
  // Sub2 shares Object's (empty) table, not Base2's grown one.
  EXPECT_EQ(registry.ivar_index(sub2, x, false), ClassRegistry::kNoIvar);
  // Setting @x2 on a Sub2 instance creates it in Sub2's own table.
  EXPECT_EQ(registry.ivar_index(sub2, x, true), 0u);
}

TEST_F(Registry, ClassOfImmediates) {
  NullHost h;
  EXPECT_EQ(registry.class_of(h, Value::fixnum(3)), kClassInteger);
  EXPECT_EQ(registry.class_of(h, Value::nil()), kClassNil);
  EXPECT_EQ(registry.class_of(h, Value::true_v()), kClassTrue);
  EXPECT_EQ(registry.class_of(h, Value::symbol(1)), kClassSymbol);
}

TEST_F(Registry, ReopeningAClassKeepsIdentity) {
  const ClassId a =
      registry.define_class(symbols.intern("Reopened"), kClassObject);
  const ClassId b =
      registry.define_class(symbols.intern("Reopened"), kClassObject);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace gilfree::vm
