// Seeded randomness and the one clock every timestamp in the benchmark uses.
#ifndef PERFBENCH_RNG_H_
#define PERFBENCH_RNG_H_

#include <time.h>

#include <cmath>
#include <cstdint>

namespace perfbench {

// splitmix64: tiny, seedable, identical on every platform (unlike the
// distributions of <random>, whose outputs are implementation-defined).
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  // Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Exponential gap with the given mean.
  double Exponential(double mean) { return -mean * std::log1p(-Uniform()); }

 private:
  uint64_t state_;
};

// CLOCK_MONOTONIC nanoseconds: the generator, the tracing decorator and the
// stage attribution all compare timestamps taken with this clock.
inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1'000'000'000ull + static_cast<uint64_t>(ts.tv_nsec);
}

}  // namespace perfbench

#endif  // PERFBENCH_RNG_H_
