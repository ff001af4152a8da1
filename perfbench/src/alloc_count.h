// Heap allocations made on the runtime's threads (flick-poller, flick-wrk-*),
// counted by a replacement global operator new linked into the benchmark
// binary. Counting is off until Enable(true); when off the replacement costs
// one relaxed load per allocation.
#ifndef PERFBENCH_ALLOC_COUNT_H_
#define PERFBENCH_ALLOC_COUNT_H_

#include <cstdint>

namespace perfbench::alloc {

void Enable(bool on);
// Never count the calling thread (the generator's).
void ExcludeThisThread();

struct Counts {
  uint64_t allocs = 0;
  uint64_t bytes = 0;
};
Counts Read();

}  // namespace perfbench::alloc

#endif  // PERFBENCH_ALLOC_COUNT_H_
