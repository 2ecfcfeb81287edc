// Resident-memory probe for the zero-on-demand tests: slabs mapped as zero
// pages must cost resident memory only once touched.
#pragma once

#include <unistd.h>

#include <cstdio>

#include "common/types.hpp"

namespace gilfree::testutil {

/// This process's resident set in bytes (/proc/self/statm); 0 if unreadable.
inline u64 resident_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  const int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  return n == 2 ? u64{resident} * static_cast<u64>(::sysconf(_SC_PAGESIZE))
                : 0;
}

}  // namespace gilfree::testutil
