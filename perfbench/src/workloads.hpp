// The benchmark's three workloads.  Each builds its inputs from the run
// seed, runs a fixed number of ops on one busy thread of program work, and
// checks every op's outputs; a failed check counts as a failed op.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace perfbench {

/// kFull is the workload as measured; kSample is a small fixed slice of it
/// that other workloads' traced runs add, so every layer metric is
/// measured in every traced run.
enum class Scale { kFull, kSample };

/// Called by run() at kCheckpoints evenly spaced, quiescent points of a
/// pass (no request in flight, no op half done); untimed.  Untraced runs
/// time set-ups there, so the set-up samples span the whole run.
using Checkpoint = std::function<void()>;
constexpr std::size_t kCheckpoints = 8;

/// True when op count `done` of `total` is one of the kCheckpoints evenly
/// spaced points (the last is the end of the pass).
[[nodiscard]] inline bool at_checkpoint(std::size_t done, std::size_t total) {
  for (std::size_t j = 1; j <= kCheckpoints; ++j) {
    if (done == (j * total + kCheckpoints - 1) / kCheckpoints) {
      return true;
    }
  }
  return false;
}

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the seeded inputs and the reference outputs the checks
  /// compare against (serve also starts and warms the daemon).  Called
  /// before every pass; untraced runs also time it on a second instance
  /// at each checkpoint.
  virtual void setup(Tracer& tracer) = 0;

  /// Releases what setup() started; safe to call more than once.
  virtual void teardown() {}

  /// One pass over the ops; calls `checkpoint` as at_checkpoint() says.
  /// `section_s` of an untraced and a traced pass gives the tracing
  /// overhead.
  virtual PassResult run(Tracer& tracer, const Checkpoint& checkpoint) = 0;

  /// Threads and connections of the program work, for the run record.
  [[nodiscard]] virtual std::string shape() const = 0;
};

[[nodiscard]] std::unique_ptr<Workload> make_compile(const RunConfig& config,
                                                     Scale scale);
[[nodiscard]] std::unique_ptr<Workload> make_sweep(const RunConfig& config,
                                                   Scale scale);
[[nodiscard]] std::unique_ptr<Workload> make_serve(const RunConfig& config,
                                                   Scale scale);

/// Body of `perfbench --compile-peak-child`: runs the compile op of the
/// workload's dearest config once, in a fresh process, and returns its
/// exit code (0 when the op's outputs check).  The compile workload reads
/// that process's peak resident set as its peak_rss_mb.
[[nodiscard]] int compile_peak_child();

}  // namespace perfbench
