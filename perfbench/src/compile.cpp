// compile: one op takes one config from model text to a certified command
// stream, the `rainbow_plan --validate --analyze --optimize` path, and
// replays the plan on the engine.  Single-threaded, fresh EvalCache per
// op, so analysis and optimization carry the time and no cache is shared.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <iostream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/depgraph.hpp"
#include "analysis/race.hpp"
#include "analysis/stream_analyzer.hpp"
#include "analysis/streamopt.hpp"
#include "arch/accelerator.hpp"
#include "codegen/interpret.hpp"
#include "codegen/lower.hpp"
#include "core/eval_cache.hpp"
#include "core/manager.hpp"
#include "core/plan_io.hpp"
#include "engine/engine.hpp"
#include "model/parser.hpp"
#include "model/random.hpp"
#include "model/zoo/zoo.hpp"
#include "util/units.hpp"
#include "validate/plan_validator.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace rainbow;

constexpr int kGlbKb[] = {64, 128, 256, 512};

struct ZooConfig {
  const char* net;
  int glb_kb;
  core::Objective objective;
};
// A fixed set of 14 of the 48 zoo x GLB x objective configs, every net
// among them.  Fixed so a run's size does not depend on the seed; streams
// span 26k-198k commands.  Nine of them form a dense middle band (62k-85k
// commands, within about +-17% of one another in time), with two cheaper
// zoo configs and three dearer ones around it, so the median op always
// falls inside the band.  The band carries over half of a pass's time, so
// the median, an order statistic of nine configs' means, is averaged over
// most of the run, as the throughput is; a median that is one config's
// time moves with the few moments that config ran.
constexpr ZooConfig kZooConfigs[] = {
    // cheaper than the band
    {"resnet18", 256, core::Objective::kLatency},
    {"mobilenet", 512, core::Objective::kLatency},
    // the middle band
    {"resnet18", 128, core::Objective::kAccesses},
    {"resnet18", 64, core::Objective::kAccesses},
    {"resnet18", 256, core::Objective::kAccesses},
    {"resnet18", 512, core::Objective::kAccesses},
    {"mobilenetv2", 128, core::Objective::kLatency},
    {"mobilenetv2", 256, core::Objective::kLatency},
    {"mobilenetv2", 512, core::Objective::kLatency},
    {"mnasnet", 256, core::Objective::kLatency},
    {"mnasnet", 512, core::Objective::kLatency},
    // dearer than the band
    {"mobilenet", 256, core::Objective::kAccesses},
    {"efficientnetb0", 256, core::Objective::kLatency},
    {"googlenet", 128, core::Objective::kLatency},
};
// The dearest config, listed last, sets the workload's peak memory.
constexpr const ZooConfig& kPeakConfig = kZooConfigs[std::size(kZooConfigs) - 1];
// Random-net configs per run: seeded, 1k-20k commands, cheaper than any
// zoo config.  With 5 of them among 19 ops the median op is the tenth,
// the third of the nine band configs.
constexpr int kRandomConfigs = 5;
// Nominal host seconds of one pass over the configs on a 4-vCPU host
// (3-7 s as the host's speed moves); --seconds sets the number of passes
// from it, never from a measured speed.
constexpr double kRepeatSeconds = 5.0;

struct Config {
  std::string label;
  std::string model_text;
  int glb_kb = 64;
  core::Objective objective = core::Objective::kAccesses;
  bool interlayer = false;
};

struct OpOutput {
  core::ExecutionPlan plan;
  std::size_t commands = 0;
  std::size_t edges = 0;
  bool validator_ok = false;
  bool stream_clean = false;
  bool race_free = false;
  analysis::OptimizeResult optimized{};
  count_t interpreted_accesses = 0;
  count_t replayed_accesses = 0;
};

OpOutput compile_one(const Config& c, Tracer& t) {
  const model::Network net = t.span("model.parse", "model::parse_network",
                                    [&] { return model::parse_network(c.model_text); });
  const arch::AcceleratorSpec spec = arch::paper_spec(util::kib(c.glb_kb));
  core::ManagerOptions options;
  options.interlayer_reuse = c.interlayer;
  options.analyzer.eval_cache = std::make_shared<core::EvalCache>();
  const core::MemoryManager manager(spec, options);
  OpOutput out{.plan = t.span("core.plan", "core::MemoryManager::plan",
                              [&] { return manager.plan(net, c.objective); })};
  const core::ExecutionPlan& plan = out.plan;

  validate::ValidatorOptions voptions;
  voptions.estimator = options.analyzer.estimator;
  out.validator_ok =
      t.span("validate.plan", "validate::PlanValidator::validate", [&] {
         return validate::PlanValidator(voptions).validate(plan, net);
       }).ok();

  const codegen::Program program = t.span(
      "codegen.lower", "codegen::lower", [&] { return codegen::lower(plan, net); });
  out.commands = program.total_commands();
  out.stream_clean =
      t.span("analysis.stream", "analysis::analyze_lowering", [&] {
         return analysis::analyze_lowering(program, plan, net);
       }).clean();
  {
    const analysis::DepGraph graph = t.span(
        "analysis.depgraph", "analysis::DepGraph::build",
        [&] { return analysis::DepGraph::build(program); });
    out.edges = graph.edges().size();
    out.race_free = t.span("analysis.races", "analysis::analyze_races", [&] {
                       return analysis::analyze_races(graph);
                     }).clean();
  }
  out.optimized = t.span("analysis.optimize", "analysis::optimize_program", [&] {
    return analysis::optimize_program(program, plan, net);
  });
  out.interpreted_accesses =
      t.span("codegen.interpret", "codegen::Interpreter::run", [&] {
         return codegen::Interpreter(spec).run(out.optimized.program);
       }).total_accesses;
  out.replayed_accesses =
      t.span("engine.replay", "engine::Engine::execute_plan", [&] {
         return engine::Engine(spec).execute_plan(plan, net, 1);
       }).total_accesses;
  return out;
}

/// Names the first failed output check, or returns empty.
std::string check(const OpOutput& out, const std::string& reference_plan) {
  if (core::serialize_plan(out.plan) != reference_plan) {
    return "plan differs from its uncached reference";
  }
  // Errors fail the op, as they fail `rainbow_plan --validate`.  Random
  // nets under inter-layer reuse draw V012 warnings (a pooling-style
  // resize between layers), which are expected.
  if (!out.validator_ok) {
    return "PlanValidator reported errors";
  }
  if (!out.stream_clean) {
    return "stream analyzer reported S-codes";
  }
  if (!out.race_free) {
    return "race detector reported diagnostics";
  }
  if (!out.optimized.certified || !out.optimized.report.empty()) {
    return "optimizer did not certify the stream";
  }
  if (out.optimized.optimized_cycles > out.optimized.original_cycles) {
    return "optimized critical path exceeds the original";
  }
  const count_t planned = out.plan.total_accesses();
  if (out.interpreted_accesses != planned || out.replayed_accesses != planned) {
    return "interpreter / engine traffic differs from the plan";
  }
  return {};
}

std::string describe(const Config& c) {
  return c.label + "@" + std::to_string(c.glb_kb) + "kB/" +
         std::string(core::to_string(c.objective)) + (c.interlayer ? "/interlayer" : "");
}

Config zoo_config(const ZooConfig& z) {
  const model::Network net = model::zoo::by_name(z.net);
  return {net.name(), model::serialize_network(net), z.glb_kb, z.objective, false};
}

/// The config's plan, planned without a cache, serialized: each op's
/// plan, planned through a fresh cache, must equal it decision for
/// decision.
std::string reference_plan(const Config& c, Tracer& t) {
  const model::Network net = model::parse_network(c.model_text);
  core::ManagerOptions options;
  options.interlayer_reuse = c.interlayer;
  const core::MemoryManager manager(arch::paper_spec(util::kib(c.glb_kb)), options);
  return core::serialize_plan(t.span("core.plan_cold", "core::MemoryManager::plan (no cache)",
                                     [&] { return manager.plan(net, c.objective); }));
}

/// Peak resident set, MB, of a fresh perfbench process that runs the op of
/// kPeakConfig once (compile_peak_child); 0 if that process fails.  A
/// fresh process starts from the same empty heap every time, so the peak
/// does not move with the heap's history in this process, which the
/// seeded inputs and the order of the ops shape.
double fresh_process_peak_mb() {
  char program[] = "perfbench";
  char flag[] = "--compile-peak-child";
  char* argv[] = {program, flag, nullptr};
  pid_t pid = -1;
  if (posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, argv, environ) != 0) {
    return 0.0;
  }
  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in kB
}

class CompileWorkload final : public Workload {
 public:
  CompileWorkload(const RunConfig& config, Scale scale)
      : config_(config), scale_(scale) {}

  void setup(Tracer& tracer) override {
    configs_.clear();
    references_.clear();
    Rng rng(mix_seed(config_.seed, 0xc0));
    if (scale_ == Scale::kFull) {
      for (const ZooConfig& z : kZooConfigs) {
        configs_.push_back(zoo_config(z));
      }
    }
    add_random(rng, scale_ == Scale::kFull ? kRandomConfigs : 2);
    tracer.set_op(-1);
    for (const Config& c : configs_) {
      references_.push_back(reference_plan(c, tracer));
    }
  }

  PassResult run(Tracer& tracer, const Checkpoint& checkpoint) override {
    PassResult r;
    // Untraced full runs execute every config `repeats` times, each time
    // in a fresh seeded order; a config's time is the mean of its runs.
    const int repeats = scale_ == Scale::kFull && !tracer.enabled() ? passes() : 1;
    const std::size_t executions = configs_.size() * static_cast<std::size_t>(repeats);
    std::vector<double> sum_ms(configs_.size(), 0.0);
    std::vector<int> timed(configs_.size(), 0);
    std::size_t executed = 0;
    std::vector<std::size_t> order(configs_.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = i;
    }
    Rng rng(mix_seed(config_.seed, 0xc1));
    std::uint64_t certified = 0;
    if (scale_ == Scale::kFull && !tracer.enabled()) {
      ++r.attempted;
      r.peak_rss_mb = fresh_process_peak_mb();
      if (r.peak_rss_mb <= 0.0) {
        r.fail(describe(zoo_config(kPeakConfig)) + ": its fresh-process run failed");
      }
    }
    const Clock::time_point pass_start = Clock::now();
    for (int repeat = 0; repeat < repeats; ++repeat) {
      rng.shuffle(order);
      for (const std::size_t i : order) {
        const Config& c = configs_[i];
        tracer.set_op(static_cast<std::int64_t>(i));
        ++r.attempted;
        try {
          const Clock::time_point start = Clock::now();
          const OpOutput out = tracer.span("op.compile", "compile config",
                                           [&] { return compile_one(c, tracer); });
          const double ms = ms_since(start);
          if (const std::string bad = check(out, references_[i]); !bad.empty()) {
            r.fail(describe(c) + ": " + bad);
          } else {
            sum_ms[i] += ms;
            ++timed[i];
            certified += out.optimized.certified ? 1 : 0;
            if (repeat == 0) {  // outputs repeat exactly; count them once
              record_figures(out, r);
            }
          }
        } catch (const std::exception& e) {
          r.fail(describe(c) + ": " + e.what());
        }
        if (at_checkpoint(++executed, executions)) {
          checkpoint();
        }
      }
    }
    r.section_s =
        std::chrono::duration<double>(Clock::now() - pass_start).count() / repeats;
    std::uint64_t passed = 0;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      passed += static_cast<std::uint64_t>(timed[i]);
      if (timed[i] > 0) {
        const double mean = sum_ms[i] / timed[i];
        r.op_ms.push_back(mean);
        r.busy_s += mean / 1e3;
      }
    }
    r.counters["analysis.certified_frac"] =
        passed == 0 ? 0.0 : static_cast<double>(certified) / static_cast<double>(passed);
    return r;
  }

  [[nodiscard]] std::string shape() const override {
    return "1 thread, " + std::to_string(configs_.size()) + " configs, mean of " +
           std::to_string(passes()) + " passes";
  }

 private:
  [[nodiscard]] int passes() const {
    return std::max(1, static_cast<int>(config_.seconds / kRepeatSeconds + 0.5));
  }

  static void record_figures(const OpOutput& out, PassResult& r) {
    r.model_dram_mb += out.plan.total_access_mb();
    r.model_mcycles += out.optimized.optimized_cycles / 1e6;
    r.counters["codegen.commands"] += static_cast<double>(out.commands);
    r.counters["analysis.graph_edges"] += static_cast<double>(out.edges);
    r.counters["analysis.commands_moved"] += static_cast<double>(out.optimized.commands_moved);
    r.counters["analysis.barriers_elided"] +=
        static_cast<double>(out.optimized.barriers_elided);
    r.counters["analysis.transfers_coalesced"] +=
        static_cast<double>(out.optimized.transfers_coalesced);
  }

  void add_random(Rng& rng, int count) {
    model::RandomNetworkOptions options;
    options.input_size = 32;
    options.max_channels = 32;
    options.max_layers = 12;
    for (int i = 0; i < count; ++i) {
      const model::Network net = model::random_network(rng.next(), options);
      const int glb = kGlbKb[rng.below(4)];
      const core::Objective objective = rng.below(2) == 0
                                            ? core::Objective::kAccesses
                                            : core::Objective::kLatency;
      configs_.push_back({net.name(), model::serialize_network(net), glb,
                          objective, i % 2 == 0});
    }
  }

  RunConfig config_;
  Scale scale_;
  std::vector<Config> configs_;
  std::vector<std::string> references_;  ///< serialized uncached plans
};

}  // namespace

std::unique_ptr<Workload> make_compile(const RunConfig& config, Scale scale) {
  return std::make_unique<CompileWorkload>(config, scale);
}

int compile_peak_child() {
  Tracer off(false);
  const Config c = zoo_config(kPeakConfig);
  const std::string reference = reference_plan(c, off);
  if (const std::string bad = check(compile_one(c, off), reference); !bad.empty()) {
    std::cerr << "perfbench: " << describe(c) << ": " << bad << "\n";
    return 1;
  }
  return 0;
}

}  // namespace perfbench
