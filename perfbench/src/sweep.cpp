// sweep: one op is one dse::run_sweep call with one worker over one
// (network, width, batch) slice, across a seeded set of GLB sizes x both
// objectives x +/-inter-layer.  One EvalCache per network is shared by
// that network's slices, as rainbow_dse shares one across its grid, so
// Algorithm 1, the cache's miss/insert path and the inter-layer replay
// carry the time.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "arch/accelerator.hpp"
#include "core/energy.hpp"
#include "core/eval_cache.hpp"
#include "core/interlayer.hpp"
#include "core/manager.hpp"
#include "dse/sweep.hpp"
#include "model/random.hpp"
#include "model/zoo/zoo.hpp"
#include "util/units.hpp"
#include "validate/plan_validator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace rainbow;

constexpr int kWidths[] = {8, 16};
constexpr int kBatches[] = {1, 4};
constexpr int kRandomNets = 2;          // seeded random nets per round
constexpr double kRoundSeconds = 4.0;  // nominal host seconds of one round

struct Net {
  model::Network network;
  std::shared_ptr<core::EvalCache> cache;
};

struct Slice {
  std::size_t net = 0;
  int width = 8;
  int batch = 1;
  std::vector<count_t> glb_bytes;
  std::size_t sampled = 0;      ///< index of the point checked
  dse::SweepPoint reference;    ///< that point, planned without a cache
  std::string reference_error;  ///< set when the reference fails validation
};

/// `count` GLB sizes in [16, 1024] kB, one drawn from each of `count`
/// log-spaced strata, so every draw spans the range evenly.
std::vector<count_t> draw_glb_sizes(Rng& rng, int count) {
  std::vector<count_t> sizes;
  for (int j = 0; j < count; ++j) {
    const auto edge = [&](int k) {
      return static_cast<count_t>(
          std::ceil(16.0 * std::pow(64.0, static_cast<double>(k) / count)));
    };
    const count_t lo = edge(j);
    const count_t hi = j + 1 == count ? 1025 : edge(j + 1);
    sizes.push_back(util::kib(lo + rng.below(hi - lo)));
  }
  return sizes;
}

core::ManagerOptions point_options(const dse::SweepPoint& p) {
  core::ManagerOptions options;
  options.analyzer.estimator.batch = p.batch;
  options.interlayer_reuse = p.interlayer;
  return options;
}

arch::AcceleratorSpec point_spec(const dse::SweepPoint& p) {
  arch::AcceleratorSpec spec = arch::paper_spec(p.glb_bytes);
  spec.data_width_bits = p.data_width_bits;
  return spec;
}

/// Point `index` of a slice's grid: GLB-major, then objective, then reuse,
/// the order run_sweep emits.
dse::SweepPoint point_at(const Slice& s, std::size_t index) {
  dse::SweepPoint p;
  p.glb_bytes = s.glb_bytes[index / 4];
  p.data_width_bits = s.width;
  p.batch = s.batch;
  p.objective = (index / 2) % 2 == 0 ? core::Objective::kAccesses
                                      : core::Objective::kLatency;
  p.interlayer = index % 2 == 1;
  return p;
}

bool same_point(const dse::SweepPoint& a, const dse::SweepPoint& b) {
  return a.glb_bytes == b.glb_bytes && a.objective == b.objective &&
         a.interlayer == b.interlayer && a.accesses == b.accesses &&
         a.access_mb == b.access_mb && a.latency_cycles == b.latency_cycles &&
         a.energy_mj == b.energy_mj && a.prefetch_coverage == b.prefetch_coverage &&
         a.interlayer_coverage == b.interlayer_coverage;
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(const RunConfig& config, Scale scale)
      : config_(config), scale_(scale) {}

  void setup(Tracer& tracer) override {
    nets_.clear();
    slices_.clear();
    Rng rng(mix_seed(config_.seed, 0x5e));
    model::RandomNetworkOptions random_options;
    random_options.input_size = 32;
    random_options.max_channels = 32;
    random_options.max_layers = 12;
    if (scale_ == Scale::kSample) {  // one random net's four slices
      nets_.push_back({model::random_network(rng.next(), random_options),
                       std::make_shared<core::EvalCache>()});
      for (int width : kWidths) {
        for (int b : kBatches) {
          Slice slice{0, width, b, draw_glb_sizes(rng, kGlbPerSlice), 0, {}, {}};
          sample_point(rng, b != kBatches[0], slice);
          slices_.push_back(slice);
        }
      }
    }
    const int rounds =
        scale_ == Scale::kSample
            ? 0
            : std::max(1, static_cast<int>(config_.seconds / kRoundSeconds + 0.5));
    for (int round = 0; round < rounds; ++round) {
      const std::size_t first = nets_.size();
      for (const std::string& name : model::zoo::model_names()) {
        nets_.push_back({model::zoo::by_name(name), std::make_shared<core::EvalCache>()});
      }
      for (int i = 0; i < kRandomNets; ++i) {
        nets_.push_back({model::random_network(rng.next(), random_options),
                         std::make_shared<core::EvalCache>()});
      }
      std::vector<Slice> batch;
      for (std::size_t n = first; n < nets_.size(); ++n) {
        for (int width : kWidths) {
          for (int b : kBatches) {
            Slice slice{n, width, b, draw_glb_sizes(rng, kGlbPerSlice), 0, {}, {}};
            sample_point(rng, b != kBatches[0], slice);
            batch.push_back(slice);
          }
        }
      }
      rng.shuffle(batch);
      slices_.insert(slices_.end(), batch.begin(), batch.end());
    }
    tracer.set_op(-1);
    for (Slice& slice : slices_) {
      plan_reference(slice, tracer);
    }
  }

  PassResult run(Tracer& tracer, const Checkpoint& checkpoint) override {
    PassResult r;
    std::vector<std::vector<dse::SweepPoint>> results(slices_.size());
    const Clock::time_point pass_start = Clock::now();
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      const Slice& s = slices_[i];
      const Net& net = nets_[s.net];
      tracer.set_op(static_cast<std::int64_t>(i));
      ++r.attempted;
      try {
        tracer.span("op.sweep", "sweep slice", [&] {
          dse::SweepConfig config;
          config.glb_bytes = s.glb_bytes;
          config.data_width_bits = {s.width};
          config.batch_sizes = {s.batch};
          config.objectives = {core::Objective::kAccesses, core::Objective::kLatency};
          config.with_interlayer = true;
          config.eval_cache = net.cache;
          const Clock::time_point start = Clock::now();
          results[i] = tracer.span("dse.sweep", "dse::run_sweep",
                                   [&] { return dse::run_sweep(net.network, config, 1); });
          const double ms = ms_since(start);
          r.op_ms.push_back(ms);
          r.busy_s += ms / 1e3;
          if (const std::string bad = check(s, results[i]); !bad.empty()) {
            r.fail(net.network.name() + " slice " + std::to_string(i) + ": " + bad);
            results[i].clear();
          }
        });
      } catch (const std::exception& e) {
        r.fail(net.network.name() + " slice " + std::to_string(i) + ": " + e.what());
      }
      for (const dse::SweepPoint& p : results[i]) {
        r.model_dram_mb += p.access_mb;
        r.model_mcycles += p.latency_cycles / 1e6;
        r.counters["dse.points"] += 1.0;
      }
      if (at_checkpoint(i + 1, slices_.size())) {
        checkpoint();
      }
    }
    r.section_s = std::chrono::duration<double>(Clock::now() - pass_start).count();
    r.peak_rss_mb = peak_rss_mb();

    core::EvalCacheStats total;
    for (const Net& net : nets_) {
      const core::EvalCacheStats s = net.cache->stats();
      total.lookups += s.lookups;
      total.hits += s.hits;
      total.misses += s.misses;
      total.approx_bytes += s.approx_bytes;
    }
    r.counters["core.cache_lookups"] = static_cast<double>(total.lookups);
    r.counters["core.cache_misses"] = static_cast<double>(total.misses);
    r.counters["core.cache_hit_rate"] = total.hit_rate();
    r.counters["core.cache_mb"] = total.approx_mb();
    if (tracer.enabled()) {
      time_sampled_points(results, tracer);
    }
    return r;
  }

  [[nodiscard]] std::string shape() const override {
    return "1 sweep worker, " + std::to_string(slices_.size()) + " slices";
  }

 private:
  static constexpr int kGlbPerSlice = 16;

  /// Picks the slice's checked point: a seeded GLB and objective, with
  /// or without inter-layer reuse as asked.
  static void sample_point(Rng& rng, bool interlayer, Slice& slice) {
    slice.sampled = rng.below(slice.glb_bytes.size()) * 4 + rng.below(2) * 2 +
                    (interlayer ? 1 : 0);
  }

  /// Plans the slice's checked point without a cache and validates it;
  /// the sweep must reproduce it exactly.
  void plan_reference(Slice& slice, Tracer& tracer) const {
    const model::Network& network = nets_[slice.net].network;
    dse::SweepPoint& p = slice.reference;
    p = point_at(slice, slice.sampled);
    const core::ManagerOptions options = point_options(p);
    const core::MemoryManager manager(point_spec(p), options);
    const core::ExecutionPlan plan =
        tracer.span("core.plan_cold", "core::MemoryManager::plan (no cache)",
                    [&] { return manager.plan(network, p.objective); });
    p.accesses = plan.total_accesses();
    p.access_mb = plan.total_access_mb();
    p.latency_cycles = plan.total_latency_cycles();
    p.energy_mj = core::plan_energy(plan, network, core::EnergyModel{}).total_mj();
    p.prefetch_coverage = plan.prefetch_coverage();
    p.interlayer_coverage = plan.interlayer_coverage(core::sequential_boundaries(network));
    validate::ValidatorOptions voptions;
    voptions.estimator = options.analyzer.estimator;
    const bool valid =
        tracer.span("validate.sample", "validate::PlanValidator::validate", [&] {
          return validate::PlanValidator(voptions).validate(plan, network);
        }).ok();
    if (!valid) {
      slice.reference_error = "checked point fails validation";
    }
  }

  static std::string check(const Slice& s, const std::vector<dse::SweepPoint>& points) {
    if (points.size() != s.glb_bytes.size() * 4) {
      return "sweep returned " + std::to_string(points.size()) + " points";
    }
    if (!s.reference_error.empty()) {
      return s.reference_error;
    }
    if (!same_point(points[s.sampled], s.reference)) {
      return "point differs from its uncached reference";
    }
    return {};
  }

  /// Traced runs only: each checked point again through the warmed
  /// per-network cache, and the inter-layer pass on its own.
  void time_sampled_points(const std::vector<std::vector<dse::SweepPoint>>& results,
                           Tracer& tracer) const {
    for (std::size_t i = 0; i < slices_.size(); ++i) {
      if (results[i].empty()) {
        continue;
      }
      const Slice& s = slices_[i];
      const Net& net = nets_[s.net];
      const dse::SweepPoint& p = results[i][s.sampled];
      core::ManagerOptions options = point_options(p);
      options.analyzer.eval_cache = net.cache;
      const core::MemoryManager warm(point_spec(p), options);
      (void)tracer.span("core.plan_warm", "core::MemoryManager::plan (warm cache)",
                        [&] { return warm.plan(net.network, p.objective); });
      if (p.interlayer) {
        options.interlayer_reuse = false;
        const core::MemoryManager base(point_spec(p), options);
        const core::ExecutionPlan het = base.plan(net.network, p.objective);
        (void)tracer.span("core.interlayer", "core::apply_interlayer_reuse", [&] {
          return core::apply_interlayer_reuse(het, net.network, base.analyzer());
        });
      }
    }
  }

  RunConfig config_;
  Scale scale_;
  std::vector<Net> nets_;
  std::vector<Slice> slices_;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(const RunConfig& config, Scale scale) {
  return std::make_unique<SweepWorkload>(config, scale);
}

}  // namespace perfbench
