#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>

namespace perfbench {

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Rng rng(seed * 0x100000001b3ULL ^ salt);
  return rng.next();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(values.size(), static_cast<std::size_t>(rank)) - 1;
  return values[index];
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes times;
  // user nice system idle iowait irq softirq steal guest guest_nice
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    times.total += field;
    if (i == 7) {
      times.steal = field;
    }
  }
  return times;
}

double steal_fraction(const CpuTimes& before, const CpuTimes& after) {
  const std::uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

std::vector<std::pair<int, double>> thread_cpu_us(int pid) {
  std::vector<std::pair<int, double>> threads;
  const double us_per_tick = 1e6 / static_cast<double>(::sysconf(_SC_CLK_TCK));
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(entry.path() / "stat");
    std::string stat;
    std::getline(in, stat);
    // The command name may hold spaces; fields resume after its ')'.
    const std::size_t close = stat.rfind(')');
    if (close == std::string::npos) {
      continue;
    }
    std::istringstream fields(stat.substr(close + 2));
    std::string skip;
    for (int i = 3; i <= 13; ++i) {  // state .. cmajflt
      fields >> skip;
    }
    double utime = 0.0;
    double stime = 0.0;
    fields >> utime >> stime;
    threads.emplace_back(std::stoi(entry.path().filename().string()),
                         (utime + stime) * us_per_tick);
  }
  std::sort(threads.begin(), threads.end());
  return threads;
}

void PassResult::fail(const std::string& message) {
  ++failed;
  if (errors.size() < 8) {
    errors.push_back(message);
  }
}

}  // namespace perfbench
