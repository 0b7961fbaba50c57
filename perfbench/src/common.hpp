// Shared plumbing of the benchmark program: seeded generator, clocks,
// order statistics, host counters read from /proc, and the result record
// every workload fills.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// splitmix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// Derives an independent stream for one purpose from the run seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Median of `values` (0 when empty).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in [0, 1] (0 when empty).
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// Peak resident set of process `pid` (0 = this process), MB, from VmHWM.
[[nodiscard]] double peak_rss_mb(int pid = 0);

/// Aggregate CPU jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();

/// Share of host CPU time stolen by the hypervisor between two samples.
[[nodiscard]] double steal_fraction(const CpuTimes& before,
                                    const CpuTimes& after);

/// user + system CPU time of every thread of `pid`, microseconds, in
/// thread-id order.
[[nodiscard]] std::vector<std::pair<int, double>> thread_cpu_us(int pid);

/// One pass over a workload's ops.  `op_ms` holds every op's time, timed
/// around the program calls only; `busy_s` is their sum.
struct PassResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> op_ms;
  double busy_s = 0.0;
  /// Wall time of the part of the pass the tracer instruments.
  double section_s = 0.0;
  double model_dram_mb = 0.0;
  double model_mcycles = 0.0;
  double peak_rss_mb = 0.0;
  /// Per-layer figures that are not span times (counts and ratios).
  std::map<std::string, double> counters;
  std::vector<std::string> errors;  ///< first few failure messages

  void fail(const std::string& message);
};

/// Run settings shared by every workload.
struct RunConfig {
  std::uint64_t seed = 1;
  int seconds = 20;
  std::string workdir;  ///< scratch directory inside the checkout
  std::string daemon;   ///< rainbowd binary
  bool trace_run = false;  ///< --trace 1: per-layer figures are wanted
};

}  // namespace perfbench
