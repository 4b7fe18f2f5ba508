#include "report.h"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>

namespace perfbench {

void Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) {
    return;
  }
  ++failed_;
  if (failed_ <= 10) {
    std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  }
}

void Result::Set(const std::string& name, double value, const std::string& unit) {
  for (auto& [existing, metric] : metrics_) {
    if (existing == name) {
      metric = Metric{value, unit};
      return;
    }
  }
  metrics_.emplace_back(name, Metric{value, unit});
}

void Result::Print(const std::string& name, double value, const std::string& unit) const {
  std::printf("metric %-34s %.10g %s\n", name.c_str(), value, unit.c_str());
}

const Metric* Result::Find(const std::string& name) const {
  for (const auto& [existing, metric] : metrics_) {
    if (existing == name) {
      return &metric;
    }
  }
  return nullptr;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double FastRate(const std::vector<double>& rates) {
  const double n = static_cast<double>(rates.size());
  const double p = n == 0 ? 50.0 : std::clamp(100.0 * (1.0 - 10.0 / n), 50.0, 95.0);
  return p == 50.0 ? Median(rates) : Percentile(rates, p);
}

namespace {

bool PinTo(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus) {
    CPU_SET(cpu, &set);
  }
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

}  // namespace

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    return;
  }
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) {
      cpus_.push_back(cpu);
    }
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.size() > 1) {
    (void)PinTo(cpus_);
  }
}

void CpuRotation::Next() {
  if (cpus_.size() > 1) {
    (void)PinTo({cpus_[next_++ % cpus_.size()]});
  }
}

void SetupTimer::Sample() {
  if (!times_.empty() && SecondsSince(last_) < kSetupIntervalSeconds) {
    return;
  }
  double burst = 0;
  for (int i = 0; i < kMaxBurst && burst < kBurstSeconds; ++i) {
    const Clock::time_point start = Clock::now();
    setup_();
    times_.push_back(SecondsSince(start));
    burst += times_.back();
  }
  last_ = Clock::now();
}

double ClockPairNanos() {
  constexpr int kPairs = 200000;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < 2 * kPairs; ++i) {
    (void)Clock::now();
  }
  return static_cast<double>(NanosBetween(start, Clock::now())) / kPairs;
}

double PeakRssMib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
