// bench_report — one-shot performance report for the repo.
//
// Runs the google-benchmark binaries (bench_machine, bench_separability)
// and the sepcheck static analyzer, distills the results into a small
// schema-stable JSON document (schema "sep-bench-v1", committed at the repo
// root as BENCH_<pr>.json), and can compare the fresh numbers against a
// committed baseline, failing on regressions beyond a tolerance.
//
//   bench_report --bindir build-rel --out BENCH_3.json
//   bench_report --bindir build-rel --smoke --compare BENCH_3.json
//
// Only `guarded_metrics` participate in the comparison: dimensionless ratios
// (cache speedup, store density) that are stable across host speeds, unlike
// absolute instructions/second. docs/PERFORMANCE.md documents every
// metric.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "src/base/strings.h"

namespace {

constexpr char kUsage[] =
    "usage: bench_report [--bindir DIR] [--out FILE] [--compare FILE]\n"
    "                    [--tolerance F] [--smoke] [--help]\n"
    "\n"
    "Runs the benchmark binaries under DIR, writes a sep-bench-v1 JSON\n"
    "report, and (with --compare) fails on guarded-metric regressions\n"
    "beyond the tolerance (default 0.25). --smoke trades precision for\n"
    "runtime.\n";

int UsageError(const char* message, const char* value) {
  std::fprintf(stderr, "bench_report: %s: %s\n%s", message, value, kUsage);
  return 2;
}

struct Options {
  std::string bindir = ".";
  std::string out;
  std::string compare;
  double tolerance = 0.25;
  bool smoke = false;
};

// Runs `command`, returning its whole stdout; exits on failure. stderr is
// left attached to ours so benchmark diagnostics stay visible.
std::string Capture(const std::string& command) {
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) {
    std::fprintf(stderr, "bench_report: cannot run: %s\n", command.c_str());
    std::exit(2);
  }
  std::string output;
  char buffer[4096];
  std::size_t got;
  while ((got = fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    output.append(buffer, got);
  }
  const int status = pclose(pipe);
  if (status != 0) {
    std::fprintf(stderr, "bench_report: command failed (%d): %s\n", status, command.c_str());
    std::exit(2);
  }
  return output;
}

// Minimal extraction from google-benchmark's --benchmark_format=json output:
// maps benchmark name -> the numeric `field` of its result object (e.g.
// "items_per_second", or a user counter like "bytes_per_state"). Tolerant of
// leading non-JSON noise (tables printed before benchmark::Initialize takes
// over).
std::map<std::string, double> ParseBenchField(const std::string& json, const std::string& field) {
  const std::string needle = "\"" + field + "\":";
  std::map<std::string, double> result;
  std::size_t pos = 0;
  while ((pos = json.find("\"name\":", pos)) != std::string::npos) {
    const std::size_t open = json.find('"', pos + 7);
    if (open == std::string::npos) break;
    const std::size_t close = json.find('"', open + 1);
    if (close == std::string::npos) break;
    std::string name = json.substr(open + 1, close - open - 1);
    // UseRealTime() benchmarks (the checker ones) report as "NAME/real_time".
    const std::string real_time = "/real_time";
    if (name.size() > real_time.size() && name.ends_with(real_time)) {
      name.resize(name.size() - real_time.size());
    }
    const std::size_t next_name = json.find("\"name\":", close);
    const std::size_t value = json.find(needle, close);
    pos = close;
    if (value != std::string::npos && (next_name == std::string::npos || value < next_name)) {
      result[name] = std::strtod(json.c_str() + value + needle.size(), nullptr);
    }
  }
  return result;
}

std::map<std::string, double> ParseItemsPerSecond(const std::string& json) {
  return ParseBenchField(json, "items_per_second");
}

// Wall-clock best-of-N of a command (min over runs: noise on a shared host
// only ever adds time).
double BestSeconds(const std::string& command, int runs) {
  double best = 1e9;
  for (int i = 0; i < runs; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    (void)Capture(command);
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

double Metric(const std::map<std::string, double>& table, const char* name) {
  const auto it = table.find(name);
  if (it == table.end() || it->second <= 0) {
    std::fprintf(stderr, "bench_report: benchmark '%s' missing from output\n", name);
    std::exit(2);
  }
  return it->second;
}

// Reads `key` out of a flat JSON metrics object ("key": value). Returns
// false if absent — baselines may predate newly added metrics.
bool JsonNumber(const std::string& json, const std::string& key, double* out) {
  const std::size_t pos = json.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(json.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

std::string ReadFile(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "bench_report: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::string data;
  char buffer[4096];
  std::size_t got;
  while ((got = fread(buffer, 1, sizeof buffer, f)) > 0) data.append(buffer, got);
  std::fclose(f);
  return data;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_report: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--bindir") {
      opt.bindir = next();
    } else if (arg == "--out") {
      opt.out = next();
    } else if (arg == "--compare") {
      opt.compare = next();
    } else if (arg == "--tolerance") {
      const std::string value = next();
      const std::optional<double> parsed = sep::ParseDouble(value);
      if (!parsed.has_value() || *parsed < 0) {
        return UsageError("--tolerance needs a non-negative number", value.c_str());
      }
      opt.tolerance = *parsed;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else {
      return UsageError("unknown argument", arg.c_str());
    }
  }

  // Validate the baseline BEFORE running minutes of benchmarks: a missing
  // file or a non-baseline JSON document should fail immediately, not after
  // the work is done.
  std::string baseline;
  if (!opt.compare.empty()) {
    baseline = ReadFile(opt.compare);
    if (baseline.find("\"schema\": \"sep-bench-v1\"") == std::string::npos) {
      std::fprintf(stderr,
                   "bench_report: %s is not a sep-bench-v1 baseline (missing schema marker)\n",
                   opt.compare.c_str());
      return 2;
    }
  }
  const int threads = static_cast<int>(std::thread::hardware_concurrency());
  // Smoke mode trades precision for runtime so CI can gate on it.
  const char* min_time = opt.smoke ? "0.05" : "0.5";
  // sepcheck is timed the same way in both modes: the smoke compares its
  // best run against the baseline's, and the best of fewer runs reads slower.
  // 15 runs of the ~7 ms catalogue pass cost about 0.1 s.
  const int sepcheck_runs = 15;

  // The instruction-throughput rates divide every *_per_mips guard, and
  // single runs of BM_InstructionThroughput read 108M-169M insn/s on one
  // 4-thread host at either run length; the rates are the median of 5
  // repetitions in both modes.
  const std::string throughput =
      opt.bindir + "/bench/bench_machine --benchmark_format=json --benchmark_min_time=" +
      min_time +
      " --benchmark_repetitions=5 --benchmark_report_aggregates_only=true"
      " --benchmark_filter='BM_InstructionThroughput'";
  const std::string machine =
      opt.bindir + "/bench/bench_machine --benchmark_format=json --benchmark_min_time=" +
      min_time + " --benchmark_filter='BM_KernelizedStep'";
  const std::string separability =
      opt.bindir +
      "/bench/bench_separability --notables --benchmark_format=json --benchmark_min_time=" +
      min_time + " --benchmark_filter='BM_Exhaustive'";
  const std::string recovery =
      opt.bindir + "/bench/bench_recovery --benchmark_format=json --benchmark_min_time=" +
      min_time + " --benchmark_filter='BM_RecoveryChaos'";
  const std::string channels =
      opt.bindir + "/bench/bench_channels --benchmark_format=json --benchmark_min_time=" +
      min_time + " --benchmark_filter='BM_Channel'";

  std::fprintf(stderr, "bench_report: running bench_machine...\n");
  const std::map<std::string, double> m0 = ParseItemsPerSecond(Capture(throughput));
  const std::map<std::string, double> m1 = ParseItemsPerSecond(Capture(machine));
  std::fprintf(stderr, "bench_report: running bench_separability...\n");
  const std::string separability_json = Capture(separability);
  const std::map<std::string, double> m2 = ParseItemsPerSecond(separability_json);
  const std::map<std::string, double> m2_bytes =
      ParseBenchField(separability_json, "bytes_per_state");
  std::fprintf(stderr, "bench_report: running bench_recovery...\n");
  const std::map<std::string, double> m3 =
      ParseBenchField(Capture(recovery), "recovery_ticks_p99");
  std::fprintf(stderr, "bench_report: running bench_channels...\n");
  const std::map<std::string, double> m4 = ParseItemsPerSecond(Capture(channels));
  std::fprintf(stderr, "bench_report: timing sepcheck...\n");
  const std::string sepcheck = opt.bindir + "/tools/sepcheck --all";
  const double sepcheck_serial = BestSeconds(sepcheck + " > /dev/null", sepcheck_runs);

  const double cached = Metric(m0, "BM_InstructionThroughput_median");
  const double uncached = Metric(m0, "BM_InstructionThroughputNoCache_median");
  const double no_superblock = Metric(m0, "BM_InstructionThroughputNoSuperblock_median");
  const double insn_storm = Metric(m0, "BM_InstructionThroughputInvalidationStorm_median");
  const double trace_off = Metric(m1, "BM_KernelizedStepTraceOff");
  const double trace_on = Metric(m1, "BM_KernelizedStepTraceOn");
  const double kernelized_storm = Metric(m1, "BM_KernelizedStepInvalidationStorm");
  const double ex_serial = Metric(m2, "BM_ExhaustiveCheck");
  const double ex_kernelized = Metric(m2, "BM_ExhaustiveKernelized");
  const double bytes_per_state = Metric(m2_bytes, "BM_ExhaustiveKernelized");
  const double chan_classic = Metric(m4, "BM_ChannelClassicWords");
  const double chan_batched = Metric(m4, "BM_ChannelBatchedWords");
  const double chan_ring = Metric(m4, "BM_ChannelSharedRingWords");
  const double chan_xnode_plain = Metric(m4, "BM_ChannelTunnelPlainWords");
  const double chan_xnode_batched = Metric(m4, "BM_ChannelTunnelBatchedWords");

  std::map<std::string, double> metrics;
  metrics["insn_throughput_cached_ips"] = cached;
  metrics["insn_throughput_uncached_ips"] = uncached;
  metrics["predecode_speedup"] = cached / uncached;
  metrics["insn_throughput_nosb_ips"] = no_superblock;
  // Batched Run with superblocks on vs the same predecoded engine with them
  // off: the win from hoisting per-instruction entry validation to trace
  // entry. A dimensionless ratio, so it guards across host speeds.
  metrics["superblock_speedup"] = cached / no_superblock;
  // Flush-every-batch throughput: dominated by re-decode and superblock
  // rebuild cost. Absolute (host-speed-dependent), so unguarded; recorded to
  // make rebuild-cost regressions visible in the committed history.
  metrics["insn_throughput_storm_ips"] = insn_storm;
  metrics["kernelized_step_storm_ips"] = kernelized_storm;
  metrics["kernelized_step_trace_off_ips"] = trace_off;
  metrics["kernelized_step_trace_on_ips"] = trace_on;
  // Kernel-call-dense stepping with the recorder stopped, relative to the
  // same workload with it live. Recorded, not guarded: off over on moves
  // with the enabled path (smokes of one tree read 1.2-1.8), so it never
  // isolated the disabled path. Exact counts pin that path instead
  // (TraceAlloc.SwapPingPongCountsExactly, tests/network_alloc_test.cpp).
  metrics["trace_disabled_overhead"] = trace_off / trace_on;
  metrics["exhaustive_serial_sps"] = ex_serial;
  metrics["exhaustive_kernelized_sps"] = ex_kernelized;
  // Compact-store density: full kernelized machine states per MiB of state
  // store. A pure data-layout property, independent of host speed.
  metrics["exhaustive_states_per_mib"] = (1024.0 * 1024.0) / bytes_per_state;
  // Kernelized states proven per second, per million emulated instructions
  // per second: normalizes checker throughput by the host's machine speed so
  // the ratio tracks checker overhead, not the CPU it ran on.
  metrics["exhaustive_sps_per_mips"] = ex_kernelized / (cached / 1e6);
  // Delivered words/second over each kernel channel transport (absolute,
  // host-speed-dependent, unguarded) and the dimensionless ratios against the
  // one-word-per-trap baseline (guarded): a SENDV/RECVV batch amortizes the
  // kernel-call slow path over up to 64 words and the shared ring adds
  // zero-copy publication on top, so both ratios are design claims that hold
  // on any host. Design floor for channel_batch_speedup is 8x; since
  // Machine::Run batches kernelized guests, single runs on a 4-thread host
  // measure 7.2-12.8 (8.85 in BENCH_15.json), some below that floor.
  metrics["channel_classic_wps"] = chan_classic;
  metrics["channel_batched_wps"] = chan_batched;
  metrics["channel_ring_wps"] = chan_ring;
  metrics["channel_batch_speedup"] = chan_batched / chan_classic;
  metrics["channel_ring_speedup"] = chan_ring / chan_classic;
  // Cross-node words/second through the reliable tunnel. The network
  // simulation is tick-deterministic, so the plain-vs-Batched() ratio is a
  // pure framing property (segment size x window depth), exactly stable
  // across hosts — guarded; the absolute rates are not.
  metrics["channel_xnode_plain_wps"] = chan_xnode_plain;
  metrics["channel_xnode_batched_wps"] = chan_xnode_batched;
  metrics["channel_xnode_batch_speedup"] = chan_xnode_batched / chan_xnode_plain;
  metrics["sepcheck_all_seconds"] = sepcheck_serial;
  // Full static-analysis catalogue passes per second, per million emulated
  // instructions per second. Normalizing by the host's machine speed makes
  // this track the analyzer's own cost (relational joins, widening, branch
  // refinement), not the CPU it ran on, so a precision feature that blows up
  // fixpoint iteration counts fires the guard even on a faster machine.
  metrics["sepcheck_all_per_mips"] = (1.0 / sepcheck_serial) / (cached / 1e6);
  // 99th-percentile ticks of forward progress a node crash discards, at the
  // default checkpoint interval (16 quanta). The chaos simulation is fully
  // deterministic, so this is a design property of the checkpoint cadence —
  // host-independent, guardable, and LOWER is better (see below).
  metrics["recovery_ticks_p99"] = Metric(m3, "BM_RecoveryChaos/16");

  // Ratios only: absolute rates swing with host speed, ratios are the
  // design-level claims (the cache pays; the state store is compact; the
  // checker's per-state overhead is bounded).
  const std::vector<std::string> guarded = {"predecode_speedup", "superblock_speedup",
                                            "exhaustive_states_per_mib",
                                            "exhaustive_sps_per_mips", "recovery_ticks_p99",
                                            "sepcheck_all_per_mips", "channel_batch_speedup",
                                            "channel_ring_speedup",
                                            "channel_xnode_batch_speedup"};
  // Cost metrics regress UPWARD: the guard fires when the value exceeds the
  // baseline by the tolerance, not when it falls below it.
  const std::vector<std::string> lower_is_better = {"recovery_ticks_p99"};

  std::string json = "{\n  \"schema\": \"sep-bench-v1\",\n";
  json += "  \"host\": {\"hardware_threads\": " + std::to_string(threads) + "},\n";
  json += "  \"config\": {\"smoke\": " + std::string(opt.smoke ? "true" : "false") + "},\n";
  json += "  \"metrics\": {\n";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    // A zero-duration run or a missing counter would put inf/nan into the
    // report, which is not JSON and poisons every later comparison. Skip the
    // metric with a note instead; JsonNumber treats absence as "skip".
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "bench_report: note: %s is non-finite (%g); omitted from report\n",
                   name.c_str(), value);
      continue;
    }
    char line[160];
    std::snprintf(line, sizeof line, "%s    \"%s\": %.6g", first ? "" : ",\n", name.c_str(),
                  value);
    json += line;
    first = false;
  }
  json += "\n  },\n  \"guarded_metrics\": [";
  for (std::size_t i = 0; i < guarded.size(); ++i) {
    json += (i ? ", \"" : "\"") + guarded[i] + "\"";
  }
  json += "]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!opt.out.empty()) {
    FILE* f = std::fopen(opt.out.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_report: cannot write %s\n", opt.out.c_str());
      return 2;
    }
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }

  if (!opt.compare.empty()) {
    int failures = 0;
    for (const std::string& name : guarded) {
      double base = 0;
      if (!JsonNumber(baseline, name, &base) || base <= 0) {
        std::fprintf(stderr, "bench_report: baseline lacks %s; skipping\n", name.c_str());
        continue;
      }
      const double current = metrics[name];
      if (!std::isfinite(current)) {
        std::fprintf(stderr, "bench_report: note: %s is non-finite here; skipping\n",
                     name.c_str());
        continue;
      }
      const bool inverted = std::find(lower_is_better.begin(), lower_is_better.end(), name) !=
                            lower_is_better.end();
      if (inverted) {
        const double ceiling = base * (1.0 + opt.tolerance);
        if (current > ceiling) {
          std::fprintf(stderr,
                       "bench_report: REGRESSION %s: %.3f > %.3f (baseline %.3f + %.0f%%)\n",
                       name.c_str(), current, ceiling, base, opt.tolerance * 100);
          ++failures;
        } else {
          std::fprintf(stderr, "bench_report: ok %s: %.3f (baseline %.3f)\n", name.c_str(),
                       current, base);
        }
        continue;
      }
      const double floor = base * (1.0 - opt.tolerance);
      if (current < floor) {
        std::fprintf(stderr,
                     "bench_report: REGRESSION %s: %.3f < %.3f (baseline %.3f - %.0f%%)\n",
                     name.c_str(), current, floor, base, opt.tolerance * 100);
        ++failures;
      } else {
        std::fprintf(stderr, "bench_report: ok %s: %.3f (baseline %.3f)\n", name.c_str(),
                     current, base);
      }
    }
    if (failures > 0) return 1;
  }
  return 0;
}
