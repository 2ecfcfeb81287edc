// The per-transaction store buffer of the HTM model (zEC12's Gathering
// Store Cache): buffered 8-byte stores in first-store order, with an
// open-addressing index from host address to entry for read-own-writes.
//
// Commit drains entries() in program order. clear() touches only the index
// slots the entries occupy, so an empty or small log costs nothing to reset
// no matter how large an earlier transaction grew the index.
#pragma once

#include <vector>

#include "common/types.hpp"

namespace gilfree::htm {

class RedoLog {
 public:
  struct Entry {
    u64* addr = nullptr;
    u64 value = 0;
    u32 slot = 0;  ///< Index slot holding this entry (for clear()).
  };

  /// The buffered value for `addr`, or nullptr if never stored.
  const u64* find(const u64* addr) const {
    if (index_.empty()) return nullptr;
    for (u32 s = home(addr);; s = (s + 1) & mask()) {
      const u32 e = index_[s];
      if (e == 0) return nullptr;
      if (entries_[e - 1].addr == addr) return &entries_[e - 1].value;
    }
  }

  /// Buffers `value` for `addr`, replacing an earlier store to it in place
  /// (the entry keeps its first-store position).
  void put(u64* addr, u64 value) {
    if ((entries_.size() + 1) * 2 > index_.size()) grow();
    u32 s = home(addr);
    for (;; s = (s + 1) & mask()) {
      const u32 e = index_[s];
      if (e == 0) break;
      if (entries_[e - 1].addr == addr) {
        entries_[e - 1].value = value;
        return;
      }
    }
    entries_.push_back(Entry{addr, value, s});
    index_[s] = static_cast<u32>(entries_.size());
  }

  void clear() {
    for (const Entry& e : entries_) index_[e.slot] = 0;
    entries_.clear();
  }

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  u32 mask() const { return static_cast<u32>(index_.size() - 1); }
  u32 home(const u64* addr) const {
    const u64 h = (reinterpret_cast<std::uintptr_t>(addr) >> 3) *
                  0x9e3779b97f4a7c15ULL;
    return static_cast<u32>(h >> 32) & mask();
  }

  void grow() {
    index_.assign(index_.empty() ? 64 : index_.size() * 2, 0);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      u32 s = home(entries_[i].addr);
      while (index_[s] != 0) s = (s + 1) & mask();
      index_[s] = static_cast<u32>(i + 1);
      entries_[i].slot = s;
    }
  }

  std::vector<Entry> entries_;
  std::vector<u32> index_;  ///< Power-of-two; 0 = empty, else entry + 1.
};

}  // namespace gilfree::htm
