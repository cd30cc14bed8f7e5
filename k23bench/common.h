// Helpers shared by the benchmark's programs: clocks, a seeded generator,
// the seeded inputs every workload derives from --seed, percentiles, and
// the in-memory span buffer of traced runs (written out once, at the end).
#pragma once

#include <time.h>
#include <x86intrin.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace k23bench {

inline uint64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// splitmix64: tiny, seedable, identical on every host.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }

 private:
  uint64_t state_;
};

// The value stored under key `index` for a given seed: 16-48 printable
// bytes. Client, driver and checks all recompute it from the seed.
inline std::string seeded_value(uint64_t seed, uint64_t index,
                                uint64_t version = 0) {
  Rng rng(seed * 1000003ull + index * 7919ull + version * 104729ull + 1);
  const size_t length = 16 + rng.below(33);
  std::string value(length, 'a');
  for (auto& c : value) c = static_cast<char>('a' + rng.below(26));
  return value;
}

// q in [0,1]; reorders `samples`.
inline uint64_t percentile(std::vector<uint64_t>& samples, double q) {
  if (samples.empty()) return 0;
  size_t k = static_cast<size_t>(q * static_cast<double>(samples.size()));
  if (k >= samples.size()) k = samples.size() - 1;
  std::nth_element(samples.begin(), samples.begin() + k, samples.end());
  return samples[k];
}

// One span per operation: [start, end) in CLOCK_MONOTONIC ns, tagged with
// the operation's id. Kept in memory; write() runs after the measurement.
struct Span {
  uint64_t id;
  uint64_t start_ns;
  uint64_t end_ns;
};

inline bool write_spans(const std::string& path, const char* name,
                        const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f, "%s %llu %llu %llu\n", name,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

// Time-stamp counter, for timing inside an interposed process without
// adding clock syscalls to its call mix (k23_run scrubs the vDSO).
inline uint64_t ticks() { return __rdtsc(); }

}  // namespace k23bench
