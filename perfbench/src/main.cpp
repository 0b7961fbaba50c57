// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload compile|sweep|serve --seed N --seconds S --trace 0|1
//             --daemon <rainbowd> --workdir <dir> [--results <file>]
//             [--git-sha <sha>] [--source-digest <hex>]
//
// --trace 0 runs the workload untraced and reports the end-to-end metrics;
// --trace 1 runs it traced, adds a small sample of the other two workloads
// so every layer is timed, and reports the per-layer metrics.  The last
// stdout line is the result object; the line before it holds the run
// metadata.  perfbench/README.md explains every metric.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Options {
  RunConfig run;
  std::string workload;
  std::string results;
  std::string git_sha = "unknown";
  std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error << "\n"
            << "usage: perfbench --workload compile|sweep|serve --seed N "
               "--seconds S --trace 0|1 --daemon <rainbowd> --workdir <dir> "
               "[--results <file>] [--git-sha <sha>] [--source-digest <hex>]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
      } else if (flag == "--seed") {
        o.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.run.seconds = std::stoi(value);
      } else if (flag == "--trace") {
        o.run.trace_run = std::stoi(value) != 0;
      } else if (flag == "--daemon") {
        o.run.daemon = value;
      } else if (flag == "--workdir") {
        o.run.workdir = value;
      } else if (flag == "--results") {
        o.results = value;
      } else if (flag == "--git-sha") {
        o.git_sha = value;
      } else if (flag == "--source-digest") {
        o.source_digest = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (o.workload != "compile" && o.workload != "sweep" && o.workload != "serve") {
    usage("unknown workload '" + o.workload + "'");
  }
  if (o.run.seconds < 1 || o.run.daemon.empty() || o.run.workdir.empty()) {
    usage("--seconds >= 1, --daemon and --workdir are required");
  }
  return o;
}

std::unique_ptr<Workload> make(const std::string& name, const RunConfig& config,
                               Scale scale) {
  if (name == "compile") {
    return make_compile(config, scale);
  }
  if (name == "sweep") {
    return make_sweep(config, scale);
  }
  return make_serve(config, scale);
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += c == '\n' ? ' ' : c;
  }
  return out + '"';
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    out += (out.size() > 1 ? ", " : "") + quoted(m.name) + ": {\"value\": " +
           number(m.value) + ", \"unit\": " + quoted(m.unit) + "}";
  }
  return out + "}";
}

// Per-layer time metrics: mean self time per call of the span stem.
constexpr const char* kSpanMetrics[] = {
    "model.parse",       "core.plan",          "core.plan_cold",
    "core.plan_warm",    "core.interlayer",    "validate.plan",
    "codegen.lower",     "codegen.interpret",  "analysis.stream",
    "analysis.depgraph", "analysis.races",     "analysis.optimize",
    "engine.replay",     "dse.sweep",          "serve.handle_warm",
    "serve.handle_cold", "serve.handle_upload"};

// Per-layer counts and ratios the workloads record, with their units.
constexpr std::pair<const char*, const char*> kCounterMetrics[] = {
    {"codegen.commands", "count"},
    {"analysis.graph_edges", "count"},
    {"analysis.certified_frac", "ratio"},
    {"analysis.commands_moved", "count"},
    {"analysis.barriers_elided", "count"},
    {"analysis.transfers_coalesced", "count"},
    {"core.cache_lookups", "count"},
    {"core.cache_hit_rate", "ratio"},
    {"core.cache_misses", "count"},
    {"core.cache_mb", "MB"},
    {"dse.points", "count"},
    {"serve.loop_cpu_us", "us"},
    {"serve.worker_cpu_us", "us"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.cache_misses", "count"},
    {"serve.errors", "count"}};

struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void add(const PassResult& r) {
    attempted += r.attempted;
    failed += r.failed;
    errors.insert(errors.end(), r.errors.begin(), r.errors.end());
  }
};

/// Set-ups timed at each checkpoint of an untraced pass, on a second
/// instance of the workload, so the samples span the whole run.
int setups_per_checkpoint(const std::string& workload) {
  return workload == "compile" ? 4 : 1;
}

/// trace.overhead_frac: over blocks of four sample-scale passes of the
/// workload (fresh instance each, same input) run untraced, traced,
/// traced, untraced, so order effects and drift cancel within a block,
/// the median of traced / untraced section wall - 1.
double tracing_overhead(const Options& o, Totals& totals) {
  constexpr int kBlocks = 4;
  std::vector<double> ratios;
  Tracer off(false);
  for (int block = 0; block < kBlocks; ++block) {
    double section_s[2] = {0.0, 0.0};
    for (const bool traced : {false, true, true, false}) {
      const std::unique_ptr<Workload> sample = make(o.workload, o.run, Scale::kSample);
      Tracer tracer(traced);
      sample->setup(off);
      const PassResult r = sample->run(tracer, [] {});
      sample->teardown();
      totals.add(r);
      section_s[traced ? 1 : 0] += r.section_s;
    }
    ratios.push_back(section_s[1] / section_s[0] - 1.0);
  }
  return median(ratios);
}

int run(const Options& o) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || PERFBENCH_CHECKED) {
    std::cerr << "perfbench: refusing to time a " << build_type
              << (PERFBENCH_CHECKED ? " RAINBOW_CHECKED" : "")
              << " build; configure with -DCMAKE_BUILD_TYPE=Release and "
                 "RAINBOW_CHECKED=OFF\n";
    return 2;
  }
  const auto start_unix_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                                 std::chrono::system_clock::now().time_since_epoch())
                                 .count();
  const CpuTimes cpu_start = read_cpu_times();
  const std::unique_ptr<Workload> workload = make(o.workload, o.run, Scale::kFull);

  Totals totals;
  std::vector<Metric> metrics;
  std::vector<double> setup_s;
  std::size_t ops = 0;
  std::string extra_meta;
  if (!o.run.trace_run) {
    Tracer off(false);
    workload->setup(off);
    const std::unique_ptr<Workload> probe = make(o.workload, o.run, Scale::kFull);
    const int per_checkpoint = setups_per_checkpoint(o.workload);
    const PassResult measured = workload->run(off, [&] {
      for (int i = 0; i < per_checkpoint; ++i) {
        const Clock::time_point start = Clock::now();
        probe->setup(off);
        setup_s.push_back(ms_since(start) / 1e3);
        probe->teardown();
      }
    });
    workload->teardown();
    totals.add(measured);
    ops = measured.op_ms.size();
    metrics = {
        {"setup_s", "s", median(setup_s)},
        {"throughput", "ops/s", static_cast<double>(ops) / measured.busy_s},
        {"p50_ms", "ms", median(measured.op_ms)},
        {"peak_rss_mb", "MB", measured.peak_rss_mb},
        {"model_dram_mb", "MB", measured.model_dram_mb},
        {"model_mcycles", "Mcycles", measured.model_mcycles},
    };
    // The highest of p99 and p90 with ten samples beyond it.  compile has
    // neither, and every end-to-end metric is every workload's, so the
    // tail goes to the metadata.
    if (ops >= 100) {
      const bool p99 = ops >= 1000;
      extra_meta = ", \"tail\": " + quoted(p99 ? "p99" : "p90") + ", \"tail_ms\": " +
                   number(percentile(measured.op_ms, p99 ? 0.99 : 0.90));
    }
  } else {
    Tracer tracer(true);
    workload->setup(tracer);
    PassResult traced = workload->run(tracer, [] {});
    workload->teardown();
    totals.add(traced);
    ops = traced.op_ms.size();
    for (const char* other : {"compile", "sweep", "serve"}) {
      if (o.workload == other) {
        continue;
      }
      const std::unique_ptr<Workload> sample = make(other, o.run, Scale::kSample);
      sample->setup(tracer);
      const PassResult side = sample->run(tracer, [] {});
      sample->teardown();
      totals.add(side);
      for (const auto& [name, value] : side.counters) {
        traced.counters.emplace(name, value);
      }
    }
    const std::map<std::string, Tracer::SelfTime> self = tracer.self_times();
    for (const char* stem : kSpanMetrics) {
      const auto it = self.find(stem);
      if (it == self.end()) {
        throw std::runtime_error(std::string("no span recorded for ") + stem);
      }
      metrics.push_back({std::string(stem) + "_ms", "ms",
                         it->second.total_ms / static_cast<double>(it->second.calls)});
    }
    for (const auto& [name, unit] : kCounterMetrics) {
      const auto it = traced.counters.find(name);
      if (it == traced.counters.end()) {
        throw std::runtime_error(std::string("no figure recorded for ") + name);
      }
      metrics.push_back({name, unit, it->second});
    }
    metrics.push_back({"trace.overhead_frac", "ratio", tracing_overhead(o, totals)});
    const std::string trace_path = o.run.workdir + "/trace-" + o.workload + "-" +
                                   std::to_string(o.run.seed) + ".json";
    tracer.write_chrome_trace(trace_path, o.workload + " seed " + std::to_string(o.run.seed));
    std::cout << "perfbench: " << tracer.size() << " spans written to " << trace_path << "\n";
  }

  for (const std::string& e : totals.errors) {
    std::cout << "perfbench: failed op: " << e << "\n";
  }
  std::ostringstream meta;
  meta << "{\"workload\": " << quoted(o.workload) << ", \"seed\": " << o.run.seed
       << ", \"seconds\": " << o.run.seconds << ", \"trace\": " << (o.run.trace_run ? 1 : 0)
       << ", \"git_sha\": " << quoted(o.git_sha)
       << ", \"source_digest\": " << quoted(o.source_digest)
       << ", \"build_type\": " << quoted(build_type)
       << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"shape\": " << quoted(workload->shape())
       << ", \"ops\": " << ops << extra_meta
       << ", \"setup_samples\": " << setup_s.size()
       << ", \"start_unix_ms\": " << start_unix_ms
       << ", \"cpu_steal_frac\": " << number(steal_fraction(cpu_start, read_cpu_times()))
       << "}";
  std::ostringstream result;
  result << "{\"correct\": " << (totals.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << totals.attempted << ", \"failed\": " << totals.failed
         << ", \"metrics\": " << metrics_json(metrics) << "}";
  if (!o.results.empty()) {
    std::ofstream out(o.results, std::ios::app);
    out << "{\"meta\": " << meta.str() << ", \"result\": " << result.str() << "}\n";
  }
  std::cout << "{\"meta\": " << meta.str() << "}\n" << result.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--compile-peak-child") {
    try {
      return perfbench::compile_peak_child();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: " << e.what() << "\n";
      return 1;
    }
  }
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
