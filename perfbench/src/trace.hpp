// Span recorder for the traced run.  The benchmark wraps each of its own
// calls into a layer's public functions in a span: metric stem, called
// function, start, end, parent span and op id.  Spans stay in memory and
// are written out when the run ends.  A disabled tracer only calls the
// wrapped function, so untraced runs pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Op id stamped on the spans that follow.
  void set_op(std::int64_t op) { op_ = op; }

  /// Runs `fn()` inside a span.  `metric` is "<layer>.<stem>"; the layer
  /// names the trace lane.  `function` is what the span calls.
  template <typename Fn>
  decltype(auto) span(const char* metric, const char* function, Fn&& fn) {
    if (!enabled_) {
      return std::forward<Fn>(fn)();
    }
    const Closer closer{this, open(metric, function)};
    return std::forward<Fn>(fn)();
  }

  struct SelfTime {
    double total_ms = 0.0;
    std::uint64_t calls = 0;
  };
  /// Self time (span minus its children) summed per metric stem.
  [[nodiscard]] std::map<std::string, SelfTime> self_times() const;

  /// Writes the spans as Chrome trace-event JSON, one lane per layer.
  void write_chrome_trace(const std::string& path,
                          const std::string& title) const;

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

 private:
  struct Span {
    const char* metric;
    const char* function;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::int64_t op;
  };
  struct Closer {
    Tracer* tracer;
    std::size_t index;
    ~Closer() { tracer->close(index); }
  };

  std::size_t open(const char* metric, const char* function);
  void close(std::size_t index);
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::int64_t op_ = -1;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

}  // namespace perfbench
