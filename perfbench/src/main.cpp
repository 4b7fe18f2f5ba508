// perfbench: one command that runs a named workload from a seed, checks
// every output, and prints every metric with its unit.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --smoke
//
// With --trace 0 the last stdout line is a JSON object carrying the
// end-to-end metrics (measured with tracing off); with --trace 1 it carries
// the per-layer split from the traced run. Lines before it name the seeds
// used and print the workload-specific metrics ("metric NAME VALUE UNIT").
// --smoke runs every workload once at minimal length in both modes and
// exits non-zero if any check fails.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "report.h"
#include "tracing.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const Options&, Result&);
};

const Workload kWorkloads[] = {
    {"snfe_kernelized", RunSnfeKernelized},
    {"guard_ring", RunGuardRing},
    {"verify", RunVerify},
    {"sepcheck_catalog", RunSepcheckCatalog},
    {"chaos_sweep", RunChaosSweep},
};

struct MetricName {
  std::string name;
  const char* unit;
};

// Must match BENCHMARK.json (run.py checks every result line against it).
const std::vector<MetricName>& EndToEndMetrics() {
  static const std::vector<MetricName> kMetrics = {
      {"work_per_s", "1/s"}, {"setup_s", "s"}, {"peak_rss_mib", "MiB"}};
  return kMetrics;
}

const std::vector<MetricName>& PerLayerMetrics() {
  static const std::vector<MetricName> kMetrics = [] {
    std::vector<MetricName> m = {
        {"machine.steps_per_s", "1/s"},
        {"machine.self_ns_per_step", "ns"},
        {"machine.steps_per_kernel_exit", "count"},
        {"machine.predecode_hit_ratio", "ratio"},
        {"machine.superblock_builds", "count"},
        {"machine.superblock_side_exits", "count"},
        {"machine.superblock_invalidations", "count"},
    };
    // The trap and model-call names are the ones the tracing layer reports
    // under (tracing.h), so a new call cannot be measured and left out.
    for (int code = 0; code < kTrapCodes; ++code) {
      m.push_back({std::string("kernel.call.") + TrapName(code) + ".count", "count"});
      m.push_back({std::string("kernel.call.") + TrapName(code) + ".ns", "ns"});
    }
    const std::vector<MetricName> kernel_and_devices = {
        {"kernel.irq.count", "count"},
        {"kernel.irq.ns", "ns"},
        {"kernel.before_execute.ns", "ns"},
        {"kernel.send_accept_ratio", "ratio"},
        {"kernel.recv_hit_ratio", "ratio"},
        {"kernel.ringput_accept_ratio", "ratio"},
        {"kernel.swaps_per_word", "count"},
        {"kernel.faults", "count"},
        {"kernel.delivery_p50_ticks", "ticks"},
        {"kernel.delivery_p99_ticks", "ticks"},
        {"device.crypto.ns_per_step", "ns"},
        {"device.clock.ns_per_step", "ns"},
        {"device.share", "ratio"},
    };
    m.insert(m.end(), kernel_and_devices.begin(), kernel_and_devices.end());
    for (int call = 0; call < kCoreCalls; ++call) {
      const std::string name = std::string("core.") + CoreCallName(static_cast<CoreCall>(call));
      m.push_back({name + ".count", "count"});
      m.push_back({name + ".ns", "ns"});
    }
    const std::vector<MetricName> rest = {
        {"core.checker_self_share", "ratio"},
        {"core.parallel_efficiency", "ratio"},
        {"core.steals", "count"},
        {"core.shard_max_load", "count"},
        {"core.pairs_checked", "count"},
        {"core.state_bytes", "bytes"},
        {"sepcheck.analyze_ns", "ns"},
        {"sepcheck.probe_ns", "ns"},
        {"distributed.sim_ticks_per_seed", "ticks"},
        {"distributed.retransmits_per_word", "count"},
        {"distributed.goodput_ratio", "ratio"},
        {"distributed.checkpoints", "count"},
        {"distributed.restores", "count"},
        {"distributed.cold_starts", "count"},
        {"distributed.recovery_p99_ticks", "ticks"},
        {"obs.recorder_on_slowdown", "ratio"},
        {"obs.dropped_events", "count"},
        {"trace.overhead", "ratio"},
        {"error_rate", "ratio"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
  }();
  return kMetrics;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) {
      return &w;
    }
  }
  return nullptr;
}

void RunOne(const Workload& workload, const Options& options, Result& result) {
  workload.run(options, result);
  const double peak_rss_mib = PeakRssMib();
  result.Set("peak_rss_mib", peak_rss_mib, "MiB");
  const double error_rate =
      result.attempted() == 0
          ? 1.0
          : static_cast<double>(result.failed()) / static_cast<double>(result.attempted());
  result.Set("error_rate", error_rate, "ratio");
  if (!options.trace) {
    result.Print("error_rate", error_rate, "ratio");
    result.Print("setup_s", result.Find("setup_s") ? result.Find("setup_s")->value : 0, "s");
    result.Print("peak_rss_mib", peak_rss_mib, "MiB");
  }
}

bool Declared(const std::string& name) {
  for (const std::vector<MetricName>* names : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricName& declared : *names) {
      if (declared.name == name) {
        return true;
      }
    }
  }
  return false;
}

// The result line: the mode's metric set in BENCHMARK.json order, with 0
// for a per-layer metric the workload has no such layer for. Every value
// must be finite, and every metric the workload set must be declared: one
// that is not would be measured and then silently left out.
bool PrintJson(const Options& options, const Result& result) {
  const std::vector<MetricName>& names = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  bool ok = true;
  for (const auto& [name, metric] : result.metrics()) {
    if (!Declared(name)) {
      std::fprintf(stderr, "perfbench: metric %s is not declared\n", name.c_str());
      ok = false;
    }
  }
  std::string json = "{\"correct\": ";
  json += result.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted());
  json += ", \"failed\": " + std::to_string(result.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const Metric* metric = result.Find(names[i].name);
    double value = metric != nullptr ? metric->value : 0.0;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", names[i].name.c_str());
      ok = false;
      value = 0.0;
    }
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", value);
    json += (i == 0 ? "\"" : ", \"") + names[i].name + "\": {\"value\": " +
            number + ", \"unit\": \"" + names[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return ok;
}

// Per-layer metrics that are functions of the inputs alone: counts, ratios
// of counts and simulated ticks. They must repeat exactly for one seed.
bool Deterministic(const std::string& name) {
  const auto ends_with = [&](const std::string& suffix) {
    return name.size() >= suffix.size() &&
           name.compare(name.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  return ends_with(".count") || ends_with("_ticks") || ends_with("_ratio") ||
         name.rfind("distributed.", 0) == 0 || name == "kernel.swaps_per_word" ||
         name == "kernel.faults" || name == "machine.steps_per_kernel_exit" ||
         name == "core.pairs_checked" || name == "obs.dropped_events";
}

Result SmokeRun(const Workload& workload, std::uint64_t seed, bool trace, int& failures) {
  Options options;
  options.workload = workload.name;
  options.seed = seed;
  options.seconds = 0;
  options.trace = trace;
  options.smoke = true;
  Result result;
  std::printf("== smoke %s seed=%llu trace=%d\n", workload.name,
              static_cast<unsigned long long>(seed), trace ? 1 : 0);
  RunOne(workload, options, result);
  const bool ok = PrintJson(options, result) && result.correct();
  std::printf("== %s\n", ok ? "ok" : "FAILED");
  failures += ok ? 0 : 1;
  return result;
}

// Every workload once in each mode; the traced run twice, and the simulated
// metrics must agree between the two. `verify` repeats with another seed,
// which changes only the steal seed: its counts must not move.
int Smoke() {
  int failures = 0;
  for (const Workload& workload : kWorkloads) {
    SmokeRun(workload, 7, /*trace=*/false, failures);
    const Result first = SmokeRun(workload, 7, /*trace=*/true, failures);
    const std::uint64_t again = std::string(workload.name) == "verify" ? 8 : 7;
    const Result second = SmokeRun(workload, again, /*trace=*/true, failures);
    for (const MetricName& metric : PerLayerMetrics()) {
      const Metric* a = first.Find(metric.name);
      const Metric* b = second.Find(metric.name);
      if (Deterministic(metric.name) && a != nullptr &&
          (b == nullptr || a->value != b->value)) {
        std::printf("== FAILED: %s %s does not repeat\n", workload.name, metric.name.c_str());
        ++failures;
      }
    }
  }
  std::printf("smoke: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       perfbench --smoke\nworkloads:",
               message);
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      return Smoke();
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + arg).c_str());
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 0);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && options.seconds > 0 &&
                     options.seconds <= 600;
    } else if (arg == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  const Workload* workload = FindWorkload(options.workload);
  if (workload == nullptr) {
    return Usage("unknown or missing --workload");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds (0 < S <= 600) and --trace 0|1 are required");
  }
  Result result;
  RunOne(*workload, options, result);
  return PrintJson(options, result) ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
