// serve: rainbowd runs as a child process with one planning worker and
// the zoo preloaded, on a unix socket.  One client connection keeps a
// fixed number of requests outstanding (rainbowd answers pipelined
// requests in order); one op is one request, timed from its send.  The
// stream is a seeded mix of plan reads over warmed keys and a small fixed
// share of `upload replace 1` writes that re-send a resident model's own
// text, which resets that model's cache so its next plans are cold.
//
// Traced runs also replay the same stream through an in-process
// PlanningService to time handle() per request class.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <filesystem>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "arch/accelerator.hpp"
#include "core/plan_io.hpp"
#include "model/parser.hpp"
#include "model/zoo/zoo.hpp"
#include "serve/client.hpp"
#include "serve/service.hpp"
#include "validate/plan_validator.hpp"
#include "workloads.hpp"

extern char** environ;

namespace perfbench {
namespace {

using namespace rainbow;

constexpr int kGlbKb[] = {64, 128, 256, 512};
constexpr const char* kObjectives[] = {"accesses", "latency"};
constexpr std::size_t kWindow = 16;         // requests outstanding
constexpr std::size_t kUploadEvery = 1000;  // one write per block
constexpr std::size_t kRequestsPerSecond = 3000;
constexpr std::size_t kSampleRequests = 2000;

struct Key {
  std::string model;
  int objective = 0;
  int glb_kb = 64;
  bool interlayer = false;
};

enum class Kind { kWarm, kCold, kUpload };

struct Op {
  bool upload = false;
  std::size_t key = 0;    ///< plan: index into keys
  std::size_t model = 0;  ///< upload: index into model names
};

std::uint64_t digest(const serve::Response& response) {
  const std::hash<std::string_view> h;
  return h(response.body) ^ (h(response.get("accesses")) * 0x9e3779b97f4a7c15ULL) ^
         (h(response.get("latency_cycles")) * 0xc2b2ae3d27d4eb4fULL);
}

std::uint64_t header_u64(const serve::Response& response, const char* key) {
  return std::stoull(response.get(key, "0"));
}

/// Cache figures of one model as its plan responses report them.
struct ModelCache {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
};

/// A rainbowd child process; stopped and reaped on destruction.
class Daemon {
 public:
  Daemon(const std::string& binary, const std::string& socket_path,
         const std::string& log_path)
      : socket_path_(socket_path) {
    std::filesystem::remove(socket_path_);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log_path.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    std::vector<std::string> args = {binary, "--socket", socket_path_,
                                     "--threads", "1", "--preload-zoo"};
    std::vector<char*> argv;
    for (std::string& a : args) {
      argv.push_back(a.data());
    }
    argv.push_back(nullptr);
    const int rc = posix_spawn(&pid_, binary.c_str(), &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary);
    }
  }

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      (void)reap(std::chrono::seconds(10));
    }
    std::error_code ec;
    std::filesystem::remove(socket_path_, ec);
  }

  [[nodiscard]] int pid() const { return pid_; }

  /// Connects once the socket accepts, or throws after `timeout`.
  serve::Client connect(std::chrono::seconds timeout) {
    const Clock::time_point deadline = Clock::now() + timeout;
    while (true) {
      try {
        return serve::Client::connect_unix(socket_path_);
      } catch (const std::exception&) {
        int status = 0;
        if (::waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          throw std::runtime_error("rainbowd exited during start-up");
        }
        if (Clock::now() > deadline) {
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }

  /// Waits for exit after a `shutdown` request; true iff it exited 0.
  bool wait_clean_exit() {
    const int status = reap(std::chrono::seconds(30));
    return status >= 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  int reap(std::chrono::seconds timeout) {
    const Clock::time_point deadline = Clock::now() + timeout;
    int status = 0;
    while (pid_ > 0) {
      const pid_t done = ::waitpid(pid_, &status, WNOHANG);
      if (done == pid_ || done < 0) {
        pid_ = -1;
        return done < 0 ? -1 : status;
      }
      if (Clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
        return -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return -1;
  }

  std::string socket_path_;
  pid_t pid_ = -1;
};

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const RunConfig& config, Scale scale)
      : config_(config), scale_(scale) {
    for (const std::string& name : model::zoo::model_names()) {
      names_.push_back(name);
      networks_.push_back(model::zoo::by_name(name));
      texts_.push_back(model::serialize_network(networks_.back()));
    }
    for (const std::string& name : names_) {
      for (int objective = 0; objective < 2; ++objective) {
        for (int glb : kGlbKb) {
          for (bool inter : {false, true}) {
            keys_.push_back({name, objective, glb, inter});
          }
        }
      }
    }
    const std::size_t count =
        scale_ == Scale::kSample
            ? kSampleRequests
            : kRequestsPerSecond * static_cast<std::size_t>(config_.seconds);
    Rng rng(mix_seed(config_.seed, 0x5e7e));
    // Plan reads deal the keys from a shuffled deck, refilled when empty,
    // so every key is read equally often (to within one) whatever the
    // seed; the seed sets the order.
    std::vector<std::size_t> deck;
    const auto deal = [&] {
      if (deck.empty()) {
        for (std::size_t k = 0; k < keys_.size(); ++k) {
          deck.push_back(k);
        }
        rng.shuffle(deck);
      }
      const std::size_t key = deck.back();
      deck.pop_back();
      return key;
    };
    std::vector<std::size_t> cycle;
    for (std::size_t block = 0; block * kUploadEvery < count; ++block) {
      const std::size_t upload_at = rng.below(kUploadEvery);
      if (cycle.empty()) {  // uploads visit every model once per cycle
        for (std::size_t m = 0; m < names_.size(); ++m) {
          cycle.push_back(m);
        }
        rng.shuffle(cycle);
      }
      const std::size_t model = cycle.back();
      cycle.pop_back();
      for (std::size_t i = 0; i < kUploadEvery && ops_.size() < count; ++i) {
        ops_.push_back(i == upload_at ? Op{true, 0, model} : Op{false, deal(), 0});
      }
    }
    // A plan is cold when its key has not been planned since its model's
    // cache was last reset (setup warms every key).
    std::vector<bool> warm(keys_.size(), true);
    for (const Op& op : ops_) {
      if (op.upload) {
        for (std::size_t k = 0; k < keys_.size(); ++k) {
          warm[k] = warm[k] && keys_[k].model != names_[op.model];
        }
        kinds_.push_back(Kind::kUpload);
        continue;
      }
      kinds_.push_back(warm[op.key] ? Kind::kWarm : Kind::kCold);
      warm[op.key] = true;
    }
  }

  ~ServeWorkload() override { teardown(); }

  void setup(Tracer&) override {
    teardown();
    std::filesystem::create_directories(config_.workdir);
    daemon_ = std::make_unique<Daemon>(
        config_.daemon,
        config_.workdir + "/rainbowd-" + std::to_string(::getpid()) + ".sock",
        config_.workdir + "/rainbowd.log");
    client_ = std::make_unique<serve::Client>(daemon_->connect(std::chrono::seconds(60)));
    if (!client_->call({"ping", {}, {}}).ok) {
      throw std::runtime_error("rainbowd did not answer ping");
    }
    // Warm pass: every key planned once, each first plan checked in this
    // process, and its digest kept as the reference for the stream.
    expected_.assign(keys_.size(), 0);
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      const serve::Response response = client_->call(plan_request(k));
      const std::size_t model = model_index(keys_[k].model);
      if (!response.ok) {
        throw std::runtime_error("warm plan failed: " + response.get("message"));
      }
      const core::ExecutionPlan plan =
          core::parse_plan(response.body, networks_[model]);
      if (!validate::PlanValidator().validate(plan, networks_[model]).ok() ||
          std::to_string(plan.total_accesses()) != response.get("accesses")) {
        throw std::runtime_error("warm plan of " + keys_[k].model +
                                 " fails validation");
      }
      expected_[k] = digest(response);
    }
  }

  void teardown() override {
    client_.reset();
    daemon_.reset();
  }

  PassResult run(Tracer& tracer, const Checkpoint& checkpoint) override {
    PassResult r;
    if (!daemon_) {
      throw std::runtime_error("serve: run() without setup()");
    }
    const double element_bytes =
        static_cast<double>(arch::paper_spec(64 * 1024).element_bytes());
    const auto cpu_before = thread_cpu_us(daemon_->pid());
    const std::uint64_t errors_before =
        header_u64(client_->call({"stats", {}, {}}), "errors");

    // The stream: kWindow requests outstanding on one connection.  It
    // drains at each checkpoint, so nothing is in flight there.
    std::vector<Clock::time_point> sent(ops_.size());
    std::vector<ModelCache> caches(names_.size());
    misses_.assign(ops_.size(), 0);
    std::uint64_t lookups = 0;
    std::uint64_t misses = 0;
    std::size_t next = 0;
    std::size_t drain_at = 0;  // no send at or past this op until drained
    Clock::time_point start = Clock::now();
    for (std::size_t done = 0; done < ops_.size(); ++done) {
      if (done == drain_at) {
        for (drain_at = done + 1; !at_checkpoint(drain_at, ops_.size()); ++drain_at) {
        }
      }
      while (next < drain_at && next < done + kWindow) {
        sent[next] = Clock::now();
        client_->send(request_for(ops_[next]));
        ++next;
      }
      const serve::Response response = client_->receive();
      r.op_ms.push_back(ms_since(sent[done]));
      ++r.attempted;
      if (done + 1 == drain_at) {
        r.busy_s += std::chrono::duration<double>(Clock::now() - start).count();
        checkpoint();
        start = Clock::now();
      }
      const Op& op = ops_[done];
      if (!response.ok) {
        r.fail("request " + std::to_string(done) + ": " + response.get("message"));
        continue;
      }
      if (op.upload) {
        caches[op.model] = {};
        continue;
      }
      if (digest(response) != expected_[op.key]) {
        r.fail("request " + std::to_string(done) + ": plan differs from its warm-pass digest");
        continue;
      }
      ModelCache& cache = caches[model_index(keys_[op.key].model)];
      // The counters are the model's cache's, which an upload restarts.
      const ModelCache now{header_u64(response, "cache_lookups"),
                           header_u64(response, "cache_hits")};
      const std::uint64_t new_lookups = now.lookups - cache.lookups;
      const std::uint64_t new_misses = new_lookups - (now.hits - cache.hits);
      cache = now;
      lookups += new_lookups;
      misses += new_misses;
      misses_[done] = new_misses;
      r.model_dram_mb +=
          static_cast<double>(header_u64(response, "accesses")) * element_bytes /
          (1024.0 * 1024.0);
      r.model_mcycles += std::stod(response.get("latency_cycles")) / 1e6;
    }

    const auto cpu_after = thread_cpu_us(daemon_->pid());
    record_thread_cpu(cpu_before, cpu_after, r);
    const serve::Response stats = client_->call({"stats", {}, {}});
    r.counters["serve.errors"] =
        static_cast<double>(header_u64(stats, "errors") - errors_before);
    r.counters["serve.cache_misses"] = static_cast<double>(misses);
    r.counters["serve.cache_hit_rate"] =
        lookups == 0 ? 0.0 : 1.0 - static_cast<double>(misses) / static_cast<double>(lookups);
    r.peak_rss_mb = peak_rss_mb(daemon_->pid());
    (void)client_->call({"shutdown", {}, {}});
    client_.reset();
    if (!daemon_->wait_clean_exit()) {
      r.fail("rainbowd did not exit 0 after shutdown");
    }
    daemon_.reset();

    if (config_.trace_run) {
      r.section_s = replay(tracer, r);
    }
    return r;
  }

  [[nodiscard]] std::string shape() const override {
    return "rainbowd --threads 1, 1 connection, " + std::to_string(kWindow) +
           " outstanding, " + std::to_string(ops_.size()) + " requests";
  }

 private:
  std::size_t model_index(const std::string& name) const {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) {
        return i;
      }
    }
    throw std::runtime_error("unknown model " + name);
  }

  serve::Request plan_request(std::size_t k) const {
    const Key& key = keys_[k];
    return {"plan",
            {{"model", key.model},
             {"objective", kObjectives[key.objective]},
             {"glb_kb", std::to_string(key.glb_kb)},
             {"interlayer", key.interlayer ? "1" : "0"}},
            {}};
  }

  serve::Request request_for(const Op& op) const {
    if (op.upload) {
      return {"upload", {{"name", names_[op.model]}, {"replace", "1"}}, texts_[op.model]};
    }
    return plan_request(op.key);
  }

  /// Loop and worker CPU per request.  rainbowd's threads, in creation
  /// order: main, the planning worker (Server constructor), the event
  /// loop (Server::start).
  void record_thread_cpu(const std::vector<std::pair<int, double>>& before,
                         const std::vector<std::pair<int, double>>& after,
                         PassResult& r) const {
    std::vector<double> delta;
    for (const auto& [tid, us] : after) {
      if (tid == daemon_->pid()) {
        continue;
      }
      for (const auto& [old_tid, old_us] : before) {
        if (old_tid == tid) {
          delta.push_back(us - old_us);
        }
      }
    }
    if (delta.size() != 2) {
      r.fail("expected 2 rainbowd service threads, found " + std::to_string(delta.size()));
      return;
    }
    const double requests = static_cast<double>(ops_.size());
    r.counters["serve.worker_cpu_us"] = delta[0] / requests;
    r.counters["serve.loop_cpu_us"] = delta[1] / requests;
  }

  /// Replays the stream through an in-process service and times each
  /// handle() call by request class; the replay must reproduce the
  /// daemon's digests and cache misses request for request.
  double replay(Tracer& tracer, PassResult& r) {
    serve::ServiceOptions options;
    options.preload_zoo = true;
    serve::PlanningService service(options);
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      (void)service.handle(plan_request(k));
    }
    std::vector<ModelCache> caches(names_.size());
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < ops_.size(); ++i) {
      const Op& op = ops_[i];
      const serve::Request request = request_for(op);
      tracer.set_op(static_cast<std::int64_t>(i));
      const char* metric = kinds_[i] == Kind::kUpload ? "serve.handle_upload"
                           : kinds_[i] == Kind::kCold ? "serve.handle_cold"
                                                      : "serve.handle_warm";
      const serve::Response response = tracer.span(
          metric, "serve::PlanningService::handle", [&] { return service.handle(request); });
      if (!response.ok || (!op.upload && digest(response) != expected_[op.key])) {
        r.fail("replay request " + std::to_string(i) + " differs from the daemon's");
        continue;
      }
      if (op.upload) {
        caches[op.model] = {};
        continue;
      }
      ModelCache& cache = caches[model_index(keys_[op.key].model)];
      const std::uint64_t hits = header_u64(response, "cache_hits");
      const std::uint64_t lookups = header_u64(response, "cache_lookups");
      const std::uint64_t new_misses = (lookups - cache.lookups) - (hits - cache.hits);
      cache = {lookups, hits};
      if (new_misses != misses_[i]) {
        r.fail("replay request " + std::to_string(i) + " missed the cache differently");
      }
    }
    return std::chrono::duration<double>(Clock::now() - start).count();
  }

  RunConfig config_;
  Scale scale_;
  std::vector<std::string> names_;
  std::vector<model::Network> networks_;
  std::vector<std::string> texts_;
  std::vector<Key> keys_;
  std::vector<Op> ops_;
  std::vector<std::uint64_t> expected_;
  std::vector<Kind> kinds_;                ///< per op, from the stream
  std::vector<std::uint64_t> misses_;      ///< per op, as the daemon answered
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<serve::Client> client_;
};

}  // namespace

std::unique_ptr<Workload> make_serve(const RunConfig& config, Scale scale) {
  return std::make_unique<ServeWorkload>(config, scale);
}

}  // namespace perfbench
