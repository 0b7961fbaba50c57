// bench_compare: summarises one or two sets of perfbench results.
//
//   bench_compare BENCHMARK.json A.jsonl [B.jsonl]
//
// Each results file holds one run record per line, as perfbench appends
// them.  For every workload and metric it prints each side's run count,
// median and quartiles (Python's statistics.quantiles, n=4) and the spread
// (q3 - q1) / median.  With one set it flags spreads wider than the
// metric's bound.  With two it gives a verdict for B against A, pairing
// runs by seed.  Both sides must hold the same seeds, once each, and their
// runs must be interleaved in time: taken in start order, the runs of a
// workload pair up two by two, one of each side on the same seed (as
// `run.py interleave` takes them).  Otherwise it refuses (exit 2), since
// sets taken one after the other compare host phases as much as code.
//   better      B wins at least 9 of 10 pairs and the medians differ by
//               more than A's own quartile spread;
//   worse       end-to-end: B's median is worse than A's by more than the
//               bound; per-layer: B loses 9 of 10 pairs by more than A's
//               spread;
//   same        end-to-end: within the bound, with both spreads within it;
//               also any metric whose values are identical on both sides;
//   unresolved  otherwise, e.g. a spread wider than the bound.
// Modeled metrics (`model_*`) repeat exactly per seed, so any change is
// real: identical on every seed is `same`, else B's median decides between
// `better` and `worse` (`unresolved` if the medians tie).
// Exit code 1 when any verdict is `worse`.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace {

// --- A small JSON reader: objects, arrays, strings and numbers; true,
// false and null are skipped, as no field read here holds one ---

struct Json {
  double number = 0.0;
  std::string string;
  std::vector<Json> array;
  std::vector<std::pair<std::string, Json>> object;

  [[nodiscard]] const Json* find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
  [[nodiscard]] const Json& at(const std::string& key) const {
    const Json* v = find(key);
    if (v == nullptr) {
      throw std::runtime_error("missing key '" + key + "'");
    }
    return *v;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_space();
    if (pos_ != text_.size()) {
      fail("trailing characters");
    }
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("JSON: " + what + " at offset " + std::to_string(pos_));
  }

  void skip_space() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  char peek() {
    skip_space();
    if (pos_ >= text_.size()) {
      fail("unexpected end");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  Json parse_value() {
    const char c = peek();
    Json v;
    if (c == '{') {
      ++pos_;
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      while (true) {
        std::string key = parse_string();
        expect(':');
        v.object.emplace_back(std::move(key), parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      ++pos_;
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      while (true) {
        v.array.push_back(parse_value());
        if (peek() == ',') {
          ++pos_;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.string = parse_string();
      return v;
    }
    for (const std::string word : {"true", "false", "null"}) {
      if (text_.compare(pos_, word.size(), word) == 0) {  // no field needs them
        pos_ += word.size();
        return v;
      }
    }
    const char* begin = text_.c_str() + pos_;
    char* end = nullptr;
    v.number = std::strtod(begin, &end);
    if (end == begin) {
      fail("bad value");
    }
    pos_ += static_cast<std::size_t>(end - begin);
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        c = text_[pos_++];
        if (c == 'n') {
          c = '\n';
        } else if (c == 't') {
          c = '\t';
        } else if (c == 'u') {  // keep the escape; names here are ASCII
          out += "\\u";
          continue;
        }
      }
      out += c;
    }
    expect('"');
    return out;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json parse_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::stringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str()).parse();
}

// --- Results -------------------------------------------------------------

struct MetricSpec {
  std::string name;
  std::string unit;
  bool lower_better = true;
  std::optional<double> bound;  ///< end-to-end metrics only
};

struct Run {
  std::string workload;
  long long seed = 0;
  double start_ms = -1.0;  ///< wall-clock start; -1 when not recorded
  std::map<std::string, double> metrics;
};

std::vector<Run> read_runs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read " + path);
  }
  std::vector<Run> runs;
  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    const Json record = Parser(line).parse();
    const Json& meta = record.at("meta");
    Run run;
    run.workload = meta.at("workload").string;
    run.seed = static_cast<long long>(meta.at("seed").number);
    if (const Json* start = meta.find("start_unix_ms")) {
      run.start_ms = start->number;
    }
    for (const auto& [name, m] : record.at("result").at("metrics").object) {
      run.metrics[name] = m.at("value").number;
    }
    runs.push_back(std::move(run));
  }
  return runs;
}

/// Quartiles as Python's statistics.quantiles(values, n=4) gives them
/// (the default 'exclusive' method).
std::vector<double> quartiles(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const long long n = static_cast<long long>(v.size());
  if (n == 1) {
    return {v[0], v[0], v[0]};
  }
  std::vector<double> q;
  const long long m = n + 1;
  for (long long i = 1; i < 4; ++i) {
    const long long j = std::clamp<long long>(i * m / 4, 1, n - 1);
    const long long delta = i * m - j * 4;
    q.push_back((v[j - 1] * static_cast<double>(4 - delta) +
                 v[j] * static_cast<double>(delta)) / 4.0);
  }
  return q;
}

struct Side {
  std::vector<long long> seeds;
  std::vector<double> values;
  std::vector<double> q;  ///< q1, median, q3

  [[nodiscard]] double spread() const {
    return q[1] == 0.0 ? 0.0 : (q[2] - q[0]) / std::fabs(q[1]);
  }
};

Side side_for(const std::vector<Run>& runs, const std::string& workload,
              const std::string& metric) {
  Side s;
  for (const Run& r : runs) {
    const auto it = r.metrics.find(metric);
    if (r.workload == workload && it != r.metrics.end()) {
      s.seeds.push_back(r.seed);
      s.values.push_back(it->second);
    }
  }
  if (!s.values.empty()) {
    s.q = quartiles(s.values);
  }
  return s;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.4g", v);
  return buf;
}

std::string describe(const Side& s) {
  return "n=" + std::to_string(s.values.size()) + " " + fmt(s.q[1]) + " [" +
         fmt(s.q[0]) + ", " + fmt(s.q[2]) + "] spread " + fmt(100.0 * s.spread()) + "%";
}

std::string verdict(const MetricSpec& spec, const Side& a, const Side& b,
                    std::string& detail) {
  // Pairs by seed; compare() has checked both sides hold the same seeds.
  std::vector<std::pair<double, double>> pairs;
  for (std::size_t i = 0; i < a.values.size(); ++i) {
    for (std::size_t j = 0; j < b.values.size(); ++j) {
      if (b.seeds[j] == a.seeds[i]) {
        pairs.emplace_back(a.values[i], b.values[j]);
      }
    }
  }
  const double sign = spec.lower_better ? 1.0 : -1.0;  // > 0: B worse
  int wins = 0;
  int losses = 0;
  for (const auto& [x, y] : pairs) {
    wins += sign * (y - x) < 0 ? 1 : 0;
    losses += sign * (y - x) > 0 ? 1 : 0;
  }
  const double n = static_cast<double>(pairs.size());
  const double worse_frac = a.q[1] == 0.0 ? 0.0 : sign * (b.q[1] - a.q[1]) / std::fabs(a.q[1]);
  const bool beyond_spread = std::fabs(b.q[1] - a.q[1]) > a.q[2] - a.q[0];
  detail = "B's median " + fmt(100.0 * std::fabs(worse_frac)) +
           (worse_frac > 0 ? "% worse" : "% better") + ", B won " + std::to_string(wins) + "/" +
           std::to_string(pairs.size()) + " seed pairs";
  if (wins == 0 && losses == 0) {
    return "same";
  }
  if (spec.name.rfind("model_", 0) == 0) {
    return worse_frac > 0 ? "worse" : worse_frac < 0 ? "better" : "unresolved";
  }
  if (n > 0 && wins >= 0.9 * n && beyond_spread && worse_frac < 0) {
    return "better";
  }
  if (spec.bound) {
    if (worse_frac > *spec.bound) {
      return "worse";
    }
    return std::max(a.spread(), b.spread()) > *spec.bound ? "unresolved" : "same";
  }
  if (n > 0 && losses >= 0.9 * n && beyond_spread && worse_frac > 0) {
    return "worse";
  }
  return "unresolved";
}

/// Names why two sets cannot be compared on `workload`, or returns empty:
/// each side must hold the same seeds once each, and the runs, in start
/// order, must pair up two by two, one of each side on the same seed.
std::string unpaired(const std::vector<Run>& a, const std::vector<Run>& b,
                     const std::string& workload) {
  struct Stamp {
    double start_ms;
    int side;
    long long seed;
  };
  std::vector<Stamp> runs;
  std::vector<long long> seeds[2];
  for (int side = 0; side < 2; ++side) {
    for (const Run& r : side == 0 ? a : b) {
      if (r.workload != workload) {
        continue;
      }
      if (r.start_ms < 0) {
        return "a run record has no start time (start_unix_ms)";
      }
      runs.push_back({r.start_ms, side, r.seed});
      seeds[side].push_back(r.seed);
    }
    std::sort(seeds[side].begin(), seeds[side].end());
    if (std::adjacent_find(seeds[side].begin(), seeds[side].end()) != seeds[side].end()) {
      return std::string(side == 0 ? "A" : "B") + " runs a seed more than once";
    }
  }
  if (seeds[0] != seeds[1]) {
    return "A and B ran different seeds";
  }
  std::sort(runs.begin(), runs.end(),
            [](const Stamp& x, const Stamp& y) { return x.start_ms < y.start_ms; });
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    if (runs[i].side == runs[i + 1].side || runs[i].seed != runs[i + 1].seed) {
      return "A and B runs are not interleaved in time (take them with run.py interleave)";
    }
  }
  return {};
}

int compare(int argc, char** argv) {
  const Json bench = parse_file(argv[1]);
  std::vector<MetricSpec> specs;
  for (const char* group : {"end_to_end", "per_layer"}) {
    for (const Json& m : bench.at(group).array) {
      MetricSpec spec{m.at("name").string, m.at("unit").string,
                      m.at("better").string == "lower", std::nullopt};
      if (const Json* bound = m.find("bound")) {
        spec.bound = bound->number;
      }
      specs.push_back(spec);
    }
  }
  const std::vector<Run> a = read_runs(argv[2]);
  const std::vector<Run> b = argc > 3 ? read_runs(argv[3]) : std::vector<Run>{};
  std::vector<std::string> workloads;
  for (const Json& w : bench.at("workloads").array) {
    workloads.push_back(w.at("name").string);
  }
  if (argc > 3) {
    for (const std::string& workload : workloads) {
      const bool ran = std::any_of(a.begin(), a.end(),
                                   [&](const Run& r) { return r.workload == workload; });
      if (const std::string why = unpaired(a, b, workload); ran && !why.empty()) {
        std::cerr << "bench_compare: " << workload << ": " << why << "\n";
        return 2;
      }
    }
  }
  int worse = 0;
  for (const std::string& workload : workloads) {
    bool header = false;
    for (const MetricSpec& spec : specs) {
      const Side sa = side_for(a, workload, spec.name);
      if (sa.values.empty()) {
        continue;
      }
      if (!header) {
        std::cout << "== " << workload << "\n";
        header = true;
      }
      std::cout << "  " << spec.name << " (" << spec.unit << ", "
                << (spec.lower_better ? "lower" : "higher") << " better"
                << (spec.bound ? ", bound " + fmt(100.0 * *spec.bound) + "%" : "")
                << ")\n    A: " << describe(sa) << "\n";
      if (argc <= 3) {
        if (spec.bound && sa.spread() > *spec.bound) {
          std::cout << "    spread exceeds the bound\n";
        }
        continue;
      }
      const Side sb = side_for(b, workload, spec.name);
      if (sb.values.empty()) {
        std::cout << "    B: no runs\n";
        continue;
      }
      std::string detail;
      const std::string v = verdict(spec, sa, sb, detail);
      worse += v == "worse" ? 1 : 0;
      std::cout << "    B: " << describe(sb) << "\n    " << detail << ": " << v << "\n";
    }
  }
  return worse > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3 || argc > 4) {
    std::cerr << "usage: bench_compare BENCHMARK.json A.jsonl [B.jsonl]\n";
    return 2;
  }
  try {
    return compare(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "bench_compare: " << e.what() << "\n";
    return 2;
  }
}
