// Shared plumbing of the benchmark program: command-line options, the
// per-run result (checks and metrics), statistics helpers and the JSON
// result line.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Minimal length: one round / the smallest state budget, for the smoke
  // test. Checks are identical to a full run.
  bool smoke = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

// What one workload run reports: output checks (attempted / failed) and
// named metrics, in insertion order.
class Result {
 public:
  // Records one output check. Failures are described on stderr (the first
  // few only) and make the run incorrect.
  void Check(bool ok, const std::string& what);

  void Set(const std::string& name, double value, const std::string& unit);
  // Prints "metric <name> <value> <unit>" on stdout without adding the metric
  // to the JSON line: the workload-specific names of the metrics that the
  // JSON line carries under their shared names.
  void Print(const std::string& name, double value, const std::string& unit) const;

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const Metric* Find(const std::string& name) const;
  const std::vector<std::pair<std::string, Metric>>& metrics() const { return metrics_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::pair<std::string, Metric>> metrics_;
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline std::uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Median of `values` (0 for an empty set).
double Median(std::vector<double> values);

// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// A timed loop's headline rate: the highest percentile of its per-sample
// rates that has about ten samples beyond it, at most the 95th and at least the
// median (the 95th from 200 samples on, the median below 20). On a host
// whose CPUs other tenants slow by up to half for seconds at a time,
// independently of each other, a high percentile of many short samples
// follows the program's speed on an uncontended CPU, where the median
// follows how much of the run fell in slow phases. A sample of a second or
// more spans several phases; there the median is the steadier figure. Used
// with CpuRotation.
double FastRate(const std::vector<double>& rates);

// Moves the calling thread to the next CPU of the process's starting
// affinity set on every Next(), so that consecutive samples of a
// single-threaded timed loop run on different CPUs and a slow phase of one
// CPU holds back only a share of them. The destructor restores the starting
// set, so threads created afterwards may use every CPU again. Errors leave
// the thread where it is: the rotation only steadies the measurement.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Next();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

// Cost of one steady_clock::now() pair, measured; subtracted from traced
// self times so the per-span clock reads are not billed to the machine.
double ClockPairNanos();

// Peak resident set size of this process, MiB (VmHWM).
double PeakRssMib();

// The workload's set-up time (setup_s): the median of many timed calls of
// its set-up procedure, sampled in short bursts throughout the timed loop
// (Sample() is called once per loop iteration and fires at most every
// kSetupIntervalSeconds). Spreading the samples over the run makes them see
// the same host conditions as the work they are compared with, instead of
// the cold start of the process.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup) : setup_(std::move(setup)) {}

  void Sample();
  double Median() const { return perfbench::Median(times_); }

 private:
  static constexpr double kSetupIntervalSeconds = 0.2;
  static constexpr double kBurstSeconds = 0.001;
  static constexpr int kMaxBurst = 100;

  std::function<void()> setup_;
  std::vector<double> times_;
  Clock::time_point last_{};
};

// 64-bit mix of a seed and a stream index (splitmix64), used to derive every
// input of a run from --seed.
std::uint64_t DeriveSeed(std::uint64_t seed, std::uint64_t stream);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
