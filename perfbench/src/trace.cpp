#include "trace.hpp"

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

namespace perfbench {
namespace {

// Trace lanes, one per layer; the benchmark's own op spans sit on lane 0.
constexpr const char* kLanes[] = {"op",       "model",    "core",
                                  "validate", "codegen",  "analysis",
                                  "engine",   "dse",      "serve"};

int lane_of(const char* metric) {
  const std::string layer(metric, std::string(metric).find('.'));
  for (int i = 0; i < static_cast<int>(std::size(kLanes)); ++i) {
    if (layer == kLanes[i]) {
      return i;
    }
  }
  return 0;
}

}  // namespace

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

std::size_t Tracer::open(const char* metric, const char* function) {
  const std::int32_t parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({metric, function, now_ns(), 0, parent, op_});
  open_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void Tracer::close(std::size_t index) {
  spans_[index].end_ns = now_ns();
  open_.pop_back();
}

std::map<std::string, Tracer::SelfTime> Tracer::self_times() const {
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, SelfTime> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    SelfTime& t = totals[s.metric];
    t.total_ms += static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1e6;
    ++t.calls;
  }
  return totals;
}

void Tracer::write_chrome_trace(const std::string& path,
                                const std::string& title) const {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"run\":\"" << title
      << "\"},\"traceEvents\":[\n";
  out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"perfbench\"}}";
  for (int i = 0; i < static_cast<int>(std::size(kLanes)); ++i) {
    out << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
        << ",\"args\":{\"name\":\"" << kLanes[i] << "\"}}"
        << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":"
        << i << ",\"args\":{\"sort_index\":" << i << "}}";
  }
  char buf[96];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    out << ",\n{\"name\":\"" << s.function << "\",\"cat\":\"" << s.metric
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane_of(s.metric) << ','
        << buf << ",\"args\":{\"span\":" << i << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
