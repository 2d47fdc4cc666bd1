// Allocation-counting harness for bench/test builds.
//
// Linking `ips_alloc_hook` into a binary replaces the global operator
// new/delete with counting wrappers (still backed by malloc/free). Production
// targets never link it, so the serving binaries pay nothing. The counters
// answer one question precisely: "how many heap allocations did this thread
// perform between two points?" — which is what the zero-steady-state-
// allocation gates in bench_micro and query_scratch_test assert on.
//
// Thread-local counting keeps the hot assertion race-free under TSan without
// atomics on every allocation; a relaxed global total is kept as well for
// whole-process reporting.
#pragma once

#include <cstdint>

namespace ips {

// Allocations performed by the calling thread since it started. Monotonic.
std::uint64_t ThreadAllocCount();

// Process-wide allocation count (relaxed; approximate ordering only).
std::uint64_t GlobalAllocCount();

// True when the counting operator new/delete replacement is present.
bool AllocHookInstalled();

}  // namespace ips
