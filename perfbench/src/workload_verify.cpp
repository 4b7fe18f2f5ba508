// verify: CheckSeparabilityExhaustive on the E16 cycle configuration (two
// SM-11 counting loops whose product automaton has a large reachable cycle;
// the configuration bench_separability calls BuildCycleConfig), timed with
// all hardware threads and checked once more on one thread. The state
// budget is a property of the workload: it must be large enough for the
// work-stealing frontier to pay for itself (at 8192 states the wall-clock
// gain of four threads is small or negative).
//
// sepcheck_catalog: one full pass over sepcheck's catalogue — static
// analysis of every entry plus the two-run semantic probe where the entry
// carries one — checked against each entry's expected verdicts.
#include <cstdio>
#include <thread>

#include "src/analysis/finding.h"
#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/sepcheck/catalog.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {

using sep::ExhaustiveOptions;
using sep::ExhaustiveReport;
using sep::KernelizedSystem;

namespace {

constexpr std::size_t kStateBudget = 32768;
constexpr std::size_t kSmokeStateBudget = 2048;

constexpr char kCycleA[] = R"(
START:  INC R3
        BIC #0xFFE0, R3
        TRAP 0
        BR START
)";

constexpr char kCycleB[] = R"(
START:  INC R3
        BIC #0xFF00, R3
        TRAP 0
        BR START
)";

std::unique_ptr<KernelizedSystem> BuildCycleConfig() {
  sep::SystemBuilder builder;
  builder.WithMemoryWords(1u << 12);
  const bool ok = builder.AddRegime("red", 64, kCycleA).ok() &&
                  builder.AddRegime("black", 64, kCycleB).ok();
  sep::Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  if (!ok || !system.ok()) {
    std::fprintf(stderr, "perfbench: building the E16 configuration failed\n");
    std::exit(2);
  }
  return std::move(system.value());
}

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

struct TimedReport {
  double seconds = 0;
  ExhaustiveReport report;
};

TimedReport TimedCheck(const sep::SharedSystem& system, const ExhaustiveOptions& options) {
  TimedReport out;
  const Clock::time_point start = Clock::now();
  out.report = sep::CheckSeparabilityExhaustive(system, options);
  out.seconds = SecondsSince(start);
  return out;
}

double StatesPerSecond(const TimedReport& r) {
  return static_cast<double>(r.report.states_explored) / r.seconds;
}

// The kernel is correct, so the checker must find no violation; and the
// report is deterministic: identical at every thread count and steal seed.
void CheckReport(const ExhaustiveReport& report, const std::string& reference,
                 const std::string& what, Result& result) {
  result.Check(report.Passed(), what + ": the checker reported violations");
  result.Check(report.Summary() == reference,
               what + ": report differs from the reference (" + report.Summary() + ")");
}

}  // namespace

void RunVerify(const Options& options, Result& result) {
  const std::unique_ptr<KernelizedSystem> system = BuildCycleConfig();

  ExhaustiveOptions serial;
  serial.max_states = options.smoke ? kSmokeStateBudget : kStateBudget;
  serial.threads = 1;
  ExhaustiveOptions wide = serial;
  wide.threads = HardwareThreads();
  wide.steal_seed = DeriveSeed(options.seed, 0x57EA1);
  std::printf("seeds: run %llu, steal seed %llu, %zu states, %d threads\n",
              static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(wide.steal_seed), serial.max_states, wide.threads);

  if (!options.trace) {
    SetupTimer setup([] { (void)BuildCycleConfig(); });
    std::vector<double> rates;
    std::string reference;
    const int min_checks = options.smoke ? 1 : 3;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i < min_checks || SecondsSince(start) < options.seconds; ++i) {
      setup.Sample();
      const TimedReport r = TimedCheck(*system, wide);
      if (i == 0) {
        reference = r.report.Summary();
        std::printf("report: %s\n", reference.c_str());
      }
      CheckReport(r.report, reference, "timed check", result);
      rates.push_back(StatesPerSecond(r));
    }
    std::printf("checks %zu, median rate %.6g states/s\n", rates.size(), Median(rates));
    // The same check on one thread must render the same report. Its rate is
    // one sample, printed for reference only.
    const TimedReport one = TimedCheck(*system, serial);
    CheckReport(one.report, reference, "1-thread check", result);
    result.Set("work_per_s", FastRate(rates), "1/s");
    result.Set("setup_s", setup.Median(), "s");
    result.Print("states_per_s", FastRate(rates), "1/s");
    result.Print("serial_states_per_s", StatesPerSecond(one), "1/s");
    return;
  }

  // Traced: one serial check through the forwarding SharedSystem (the model
  // calls are what the checker's serial time is spent on), plus untraced
  // checks at one and all threads for the overhead and the parallel split.
  auto stats = std::make_shared<CoreStats>();
  const TracingSystem traced_system(system->Clone(), stats);
  const double clock_ns = ClockPairNanos() / 2;
  std::vector<double> untraced_s, traced_s, wide_s;
  ExhaustiveReport wide_report;
  std::string reference;
  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass == 0 || SecondsSince(start) < options.seconds; ++pass) {
    const TimedReport plain = TimedCheck(*system, serial);
    const TimedReport traced = TimedCheck(traced_system, serial);
    const TimedReport all = TimedCheck(*system, wide);
    if (pass == 0) {
      reference = plain.report.Summary();
      wide_report = all.report;
    }
    CheckReport(plain.report, reference, "untraced check", result);
    CheckReport(traced.report, reference, "traced check", result);
    CheckReport(all.report, reference, "all-thread check", result);
    untraced_s.push_back(plain.seconds);
    traced_s.push_back(traced.seconds);
    wide_s.push_back(all.seconds);
  }
  const double checks = static_cast<double>(traced_s.size());
  double traced_total_s = 0;
  for (double s : traced_s) {
    traced_total_s += s;
  }
  double call_ns = 0, calls = 0;
  for (int i = 0; i < kCoreCalls; ++i) {
    const double count = static_cast<double>(stats->count[i].load());
    const double ns = static_cast<double>(stats->ns[i].load());
    const std::string name = std::string("core.") + CoreCallName(static_cast<CoreCall>(i));
    result.Set(name + ".count", count / checks, "count");
    result.Set(name + ".ns", count > 0 ? ns / count : 0.0, "ns");
    call_ns += ns;
    calls += count;
  }
  result.Set("core.checker_self_share",
             (traced_total_s * 1e9 - call_ns - calls * clock_ns) / (traced_total_s * 1e9),
             "ratio");
  result.Set("core.parallel_efficiency",
             Median(untraced_s) / Median(wide_s) / static_cast<double>(wide.threads), "ratio");
  result.Set("core.steals", static_cast<double>(wide_report.steal_count), "count");
  result.Set("core.shard_max_load", static_cast<double>(wide_report.shard_max_load), "count");
  result.Set("core.pairs_checked", static_cast<double>(wide_report.pairs_checked), "count");
  result.Set("core.state_bytes", static_cast<double>(wide_report.peak_state_bytes), "bytes");
  result.Set("trace.overhead", Median(traced_s) / Median(untraced_s), "ratio");
}

namespace {

struct PassTimes {
  double seconds = 0;
  double analyze_ns = 0;
  double probe_ns = 0;
};

// One catalogue pass, every verdict checked against the entry's
// expectation. `spans` times the analyzer and the probe separately.
PassTimes CatalogPass(bool spans, Result& result) {
  PassTimes times;
  const Clock::time_point start = Clock::now();
  for (const sep::sepcheck::CatalogEntry& entry : sep::sepcheck::Catalog()) {
    Clock::time_point t0;
    if (spans) t0 = Clock::now();
    sep::Result<sep::sepcheck::SystemAnalysis> analysis = sep::sepcheck::AnalyzeSystem(entry.spec);
    if (spans) times.analyze_ns += static_cast<double>(NanosBetween(t0, Clock::now()));
    bool ok = analysis.ok() && analysis->certified == entry.expect_certified;
    if (ok && entry.expect_discharged) {
      int discharged = 0;
      for (const sep::Finding& f : analysis->findings) {
        discharged += f.severity == sep::FindingSeverity::kDischarged ? 1 : 0;
      }
      ok = discharged > 0;
    }
    result.Check(ok, "sepcheck verdict off expectation for " + entry.name);
    if (!entry.has_probe) {
      continue;
    }
    if (spans) t0 = Clock::now();
    sep::Result<bool> leaks = sep::sepcheck::MachineSemanticallyLeaks(
        [&] { return sep::sepcheck::BuildEntrySystem(entry); }, entry.probe);
    if (spans) times.probe_ns += static_cast<double>(NanosBetween(t0, Clock::now()));
    result.Check(leaks.ok() && *leaks == entry.probe_expect_leak,
                 "semantic probe off expectation for " + entry.name);
  }
  times.seconds = SecondsSince(start);
  return times;
}

}  // namespace

void RunSepcheckCatalog(const Options& options, Result& result) {
  const std::vector<sep::sepcheck::CatalogEntry>& catalog = sep::sepcheck::Catalog();
  std::printf("seeds: run %llu (the catalogue is fixed; the seed only labels the run), %zu "
              "entries\n",
              static_cast<unsigned long long>(options.seed), catalog.size());
  // Set-up: assembling and booting every catalogue system.
  const auto build_all = [&] {
    std::vector<sep::Result<std::unique_ptr<KernelizedSystem>>> systems;
    for (const sep::sepcheck::CatalogEntry& entry : catalog) {
      systems.push_back(sep::sepcheck::BuildEntrySystem(entry));
    }
    return systems;
  };
  const std::vector<sep::Result<std::unique_ptr<KernelizedSystem>>> systems = build_all();
  for (std::size_t i = 0; i < catalog.size(); ++i) {
    result.Check(systems[i].ok(), "catalogue entry " + catalog[i].name + " does not build");
  }
  SetupTimer setup([&] { (void)build_all(); });

  const int min_passes = options.smoke ? 1 : 3;
  std::vector<double> plain_s, traced_s, analyze_ns, probe_ns;
  CpuRotation rotation;
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < min_passes || SecondsSince(start) < options.seconds; ++i) {
    if (!options.trace) {
      rotation.Next();
      setup.Sample();
    }
    plain_s.push_back(CatalogPass(false, result).seconds);
    if (options.trace) {
      const PassTimes traced = CatalogPass(true, result);
      traced_s.push_back(traced.seconds);
      analyze_ns.push_back(traced.analyze_ns);
      probe_ns.push_back(traced.probe_ns);
    }
  }
  std::printf("passes %zu\n", plain_s.size());
  if (options.trace) {
    result.Set("sepcheck.analyze_ns", Median(analyze_ns), "ns");
    result.Set("sepcheck.probe_ns", Median(probe_ns), "ns");
    result.Set("trace.overhead", Median(traced_s) / Median(plain_s), "ratio");
    return;
  }
  std::vector<double> rates;
  for (double s : plain_s) {
    rates.push_back(1.0 / s);
  }
  std::printf("median pass %.6g s\n", Median(plain_s));
  result.Set("work_per_s", FastRate(rates), "1/s");
  result.Set("setup_s", setup.Median(), "s");
  result.Print("sepcheck_pass_s", 1.0 / FastRate(rates), "s");
}

}  // namespace perfbench
