#include "vm/host.hpp"

#include <stdexcept>

namespace gilfree::vm {

i64 Host::accept_request() {
  throw std::runtime_error("no HTTP server attached to this engine");
}

std::string Host::take_request_payload(i64) {
  throw std::runtime_error("no HTTP server attached to this engine");
}

void Host::respond(i64, std::string_view) {
  throw std::runtime_error("no HTTP server attached to this engine");
}

bool Host::server_shutdown() { return true; }

void Host::internal_allocator_lock(Cycles) {}

void Host::minor_gc() { full_gc(); }

void Host::collect_gc_roots(GcRootSet&) {}

bool Host::in_speculation() { return false; }

void Host::host_store_run(u64* p, const u64* values, u32 n) {
  for (u32 i = 0; i < n; ++i) host_store(p + i, values[i], true);
}

void Host::mem_store_run(u64* p, const u64* values, u32 n) {
  if (fast.htm != nullptr) {
    for (u32 i = 0; i < n; ++i) tx_mem_store(p + i, values[i], true);
    return;
  }
  host_store_run(p, values, n);
}

u64 Host::tx_mem_load(const u64* p, bool shared) {
  charge_fast(fast.mem_access_cost);
  return fast.htm->tx_load(fast.cpu, p, shared);
}

void Host::tx_mem_store(u64* p, u64 v, bool shared) {
  charge_fast(fast.mem_access_cost);
  fast.htm->tx_store(fast.cpu, p, v, shared);
}

}  // namespace gilfree::vm
