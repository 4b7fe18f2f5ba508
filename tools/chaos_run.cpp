// Chaos soak harness: drives the SNFE pair over a reliable tunnel while the
// "network" links misbehave at escalating rates, and reports what the wire
// did versus what the hosts saw.
//
//   chaos_run [--trace FILE] [--metrics FILE] [packets] [seed]
//
// For each fault rate the harness prints wire-level counters (drops,
// corruptions, ...), protocol effort (segments, retransmits, timeouts) and
// the verdict: whether the receiving host's packet stream was byte-identical
// to the fault-free baseline. Rates climb until the protocol gives up, so
// the output shows both the tolerated envelope and the failure mode beyond
// it (with bounded retries the line is declared dead rather than wedged).
//
// --trace FILE turns the recorder on and writes a Chrome trace-event JSON of
// the run's network events (retransmits, timeouts, injected faults);
// --metrics FILE writes the `net.*` totals over every rate, read off each
// round's tunnel sender and wire links, as flat "name value" lines.
//
// CRASH-CHAOS SCHEDULER (experiment E18). --seed-range A..B switches to the
// sweep mode: for every seed in [A, B] the SNFE pair runs over a CRASH-
// SURVIVABLE tunnel (src/distributed/recoverable.h) whose two relay machines
// die under a seeded NodeFaultPlan while the wire carries drop+corrupt
// chaos. Each seed deterministically fixes the whole (crash-point x
// restart-delay x link-fault) schedule; the verdict per seed is whether the
// receiving host's stream was byte-identical to the undisturbed baseline.
// The tick budget grows with the packet count. A failing seed is labelled
// TIMEOUT when the stream delivered so far is a correct prefix of the
// baseline (the budget ran out), DIVERGENT otherwise. Any failing seed makes
// the exit status non-zero; with --record FILE the failing schedule (the
// crashes the run actually performed) is shrunk to a minimal still-failing
// schedule and appended to FILE, which --replay FILE re-executes to confirm
// the failure reproduces exactly.
// --break-resync disables the write-ahead ack-commit rule and the restart
// handshake — the deliberately broken configuration the sweep must catch.
// A flag the chosen mode does not read is a usage error, never ignored.
#include <algorithm>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/components/snfe_receive.h"
#include "src/distributed/reliable.h"
#include "src/kernel/config.h"  // kMaxBatchWords bounds --batch-words
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sep {
namespace {

// The fault-free stream every run is compared against. Its packets arrive
// within a few dozen ticks, so the network runs in short bursts until the
// sink holds all of them, with 40000 ticks as the cap (a stream the censor
// cuts short never fills the sink).
std::vector<Frame> Baseline(int packets) {
  constexpr std::size_t kCapTicks = 40000;
  constexpr std::size_t kBurstTicks = 64;
  static_assert(kCapTicks % kBurstTicks == 0, "the cap is a whole number of bursts");
  Network net;
  SnfePairTopology topo = BuildSnfePair(net, CensorStrictness::kSyntax, packets);
  const auto& sink = static_cast<HostSink&>(net.process(topo.host_rx));
  for (std::size_t ticks = 0;
       ticks < kCapTicks && sink.packets().size() < static_cast<std::size_t>(packets);
       ticks += kBurstTicks) {
    net.Run(kBurstTicks);
  }
  return sink.packets();
}

// Number of leading frames of `a` equal to those of `b`.
std::size_t CommonPrefix(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  std::size_t i = 0;
  while (i < a.size() && i < b.size() && a[i].type == b[i].type && a[i].fields == b[i].fields) {
    ++i;
  }
  return i;
}

bool SameStream(const std::vector<Frame>& a, const std::vector<Frame>& b) {
  return a.size() == b.size() && CommonPrefix(a, b) == a.size();
}

constexpr char kUsage[] =
    "usage: chaos_run [--trace FILE] [--metrics FILE] [--batch-words N]\n"
    "                 [packets] [seed]\n"
    "       chaos_run --seed-range A..B [--rate PCT] [--record FILE]\n"
    "                 [--break-resync] [packets]\n"
    "       chaos_run --replay FILE\n"
    "  packets: 1..4096 (default 16); seed: u64, 0x-prefix ok\n"
    "  --batch-words N    tunnel segment size in payload words (1..64,\n"
    "                     default 2); 16 matches ReliableConfig::Batched()\n"
    "  --seed-range A..B  crash-chaos sweep over seeds A..B (inclusive)\n"
    "  --rate PCT         wire drop+corrupt percentage for the sweep (0..45,\n"
    "                     default 20)\n"
    "  --record FILE      append each failing seed's shrunk crash schedule\n"
    "  --replay FILE      re-run recorded schedules; fails unless every one\n"
    "                     reproduces its failure\n"
    "  --break-resync     disable ack-commit + restart resync (negative fixture)\n";

int UsageError(const char* message, const char* value) {
  std::fprintf(stderr, "chaos_run: %s: %s\n%s", message, value, kUsage);
  return 2;
}

bool WriteFile(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos_run: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

// --- crash-chaos sweep (E18) -------------------------------------------------

// One crash of a tunnel endpoint, in replay-file coordinates.
struct ExplicitCrash {
  bool ingress = false;  // else egress
  Tick at = 0;
  Tick delay = 0;
};

struct CrashChaosResult {
  bool identical = false;
  std::size_t delivered = 0;  // packets the receiving host got
  // The run failed only by running out of ticks: what arrived is a correct
  // strict prefix of the baseline.
  bool timeout = false;
  std::uint64_t crashes = 0;
  std::uint64_t cold = 0;
  std::vector<ExplicitCrash> performed;  // what the run actually did
};

// Runs the SNFE pair over the recoverable tunnel under one chaos schedule:
// seeded NodeFaultPlans when `script` is null, the exact scripted crashes
// otherwise (same wire seed either way — that is what makes a recorded
// schedule replayable).
CrashChaosResult RunCrashChaos(int packets, int rate, std::uint64_t seed, bool broken,
                               const std::vector<ExplicitCrash>* script,
                               const std::vector<Frame>& baseline) {
  Network net;
  TunnelRecoveryOptions recovery;
  if (broken) {
    recovery.ack_commit = false;
    recovery.resync = false;
  }
  SnfeRecoverableTopology topo =
      BuildSnfePairRecoverable(net, CensorStrictness::kSyntax, FaultSpec::DropCorrupt(rate),
                               CrashChaosWireSeed(seed), recovery, packets);
  if (script == nullptr) {
    InjectCrashChaos(net, topo.tunnel, seed);
  } else {
    for (const ExplicitCrash& crash : *script) {
      net.ScheduleCrash(crash.ingress ? topo.tunnel.ingress_node : topo.tunnel.egress_node,
                        crash.at, crash.delay);
    }
  }

  // Chaos needs slack. At 20% drop+corrupt the slowest of seeds 1..64
  // needs about 2000 ticks per packet to deliver 64 packets (132000 in
  // all), so the budget is twice that, with a floor of 120000 ticks for
  // short streams. Stop early once everything arrived.
  const auto& sink = static_cast<HostSink&>(net.process(topo.pair.host_rx));
  const int bursts = std::max(60, 2 * packets);
  for (int burst = 0; burst < bursts && sink.packets().size() < baseline.size(); ++burst) {
    net.Run(2000);
  }

  CrashChaosResult result;
  const std::vector<Frame>& got = sink.packets();
  result.identical = SameStream(got, baseline);
  result.delivered = got.size();
  result.timeout = got.size() < baseline.size() && CommonPrefix(got, baseline) == got.size();
  result.crashes = net.node_status(topo.tunnel.ingress_node).crashes +
                   net.node_status(topo.tunnel.egress_node).crashes;
  for (const Network::NodeRecoveryEvent& event : net.recovery_log()) {
    result.performed.push_back({event.node == topo.tunnel.ingress_node, event.crashed_at,
                                event.restarted_at - event.crashed_at});
    result.cold += event.cold ? 1 : 0;
  }
  return result;
}

// Greedy shrink: drop crashes one at a time while the failure persists. The
// result is 1-minimal — removing any single remaining crash makes the run
// pass again. The empty schedule is tried first: the wire chaos alone may
// already fail the run.
std::vector<ExplicitCrash> ShrinkSchedule(int packets, int rate, std::uint64_t seed,
                                          bool broken, const std::vector<Frame>& baseline,
                                          std::vector<ExplicitCrash> schedule) {
  const std::vector<ExplicitCrash> none;
  if (!RunCrashChaos(packets, rate, seed, broken, &none, baseline).identical) {
    return none;
  }
  bool progress = true;
  while (progress && schedule.size() > 1) {
    progress = false;
    for (std::size_t i = 0; i < schedule.size(); ++i) {
      std::vector<ExplicitCrash> candidate = schedule;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (!RunCrashChaos(packets, rate, seed, broken, &candidate, baseline).identical) {
        schedule = std::move(candidate);
        progress = true;
        break;
      }
    }
  }
  return schedule;
}

std::string FormatSchedule(std::uint64_t seed, int rate, int packets, bool broken,
                           const std::vector<ExplicitCrash>& schedule) {
  std::string line = Format("seed %llu rate %d packets %d broken %d",
                            static_cast<unsigned long long>(seed), rate, packets,
                            broken ? 1 : 0);
  for (const ExplicitCrash& crash : schedule) {
    line += Format(" crash %s %llu %llu", crash.ingress ? "ingress" : "egress",
                   static_cast<unsigned long long>(crash.at),
                   static_cast<unsigned long long>(crash.delay));
  }
  line += "\n";
  return line;
}

bool AppendFile(const std::string& path, const std::string& data) {
  FILE* f = std::fopen(path.c_str(), "ab");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos_run: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(data.data(), 1, data.size(), f);
  std::fclose(f);
  return true;
}

int SweepMain(std::uint64_t seed_lo, std::uint64_t seed_hi, int packets, int rate,
              bool broken, const std::string& record_path) {
  const std::vector<Frame> baseline = Baseline(packets);
  std::printf("chaos_run: crash-chaos sweep, seeds %llu..%llu, %d packets, %d%% "
              "drop+corrupt%s\n",
              static_cast<unsigned long long>(seed_lo),
              static_cast<unsigned long long>(seed_hi), packets, rate,
              broken ? ", ack-commit/resync DISABLED" : "");

  std::uint64_t failed = 0, timeouts = 0;
  for (std::uint64_t seed = seed_lo; seed <= seed_hi; ++seed) {
    const CrashChaosResult run = RunCrashChaos(packets, rate, seed, broken, nullptr, baseline);
    std::string verdict = "PASS";
    if (run.timeout) {
      verdict = Format("FAIL TIMEOUT (%zu of %zu packets, a correct prefix)", run.delivered,
                       baseline.size());
    } else if (!run.identical) {
      verdict = "FAIL DIVERGENT";
    }
    std::printf("seed %-8llu crashes %llu (%llu cold)  %s\n",
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(run.crashes),
                static_cast<unsigned long long>(run.cold), verdict.c_str());
    if (run.identical) {
      continue;
    }
    ++failed;
    timeouts += run.timeout ? 1 : 0;
    // Confirm the failure is reproducible from the performed crashes alone,
    // then shrink to a minimal failing schedule.
    std::vector<ExplicitCrash> schedule = run.performed;
    if (!schedule.empty() &&
        !RunCrashChaos(packets, rate, seed, broken, &schedule, baseline).identical) {
      schedule = ShrinkSchedule(packets, rate, seed, broken, baseline, schedule);
    }
    const std::string line = FormatSchedule(seed, rate, packets, broken, schedule);
    std::printf("  failing schedule (shrunk): %s", line.c_str());
    if (!record_path.empty() && !AppendFile(record_path, line)) {
      return 2;
    }
  }

  const std::uint64_t total = seed_hi - seed_lo + 1;
  std::printf("sweep: %llu/%llu seeds passed (%llu timeout, %llu divergent)\n",
              static_cast<unsigned long long>(total - failed),
              static_cast<unsigned long long>(total), static_cast<unsigned long long>(timeouts),
              static_cast<unsigned long long>(failed - timeouts));
  return failed == 0 ? 0 : 1;
}

int ReplayMain(const std::string& path) {
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "chaos_run: cannot read %s\n", path.c_str());
    return 2;
  }
  std::string data;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);

  int line_no = 0;
  std::uint64_t reproduced = 0, total = 0;
  std::size_t pos = 0;
  while (pos < data.size()) {
    const std::size_t eol = data.find('\n', pos);
    const std::string line = data.substr(pos, eol == std::string::npos ? eol : eol - pos);
    pos = eol == std::string::npos ? data.size() : eol + 1;
    ++line_no;
    if (line.empty()) {
      continue;
    }
    // Tokenize and strictly parse: "seed S rate R packets P broken B
    // [crash ingress|egress AT DELAY]..."
    std::vector<std::string> tok;
    std::size_t start = 0;
    while (start < line.size()) {
      const std::size_t end = line.find(' ', start);
      tok.push_back(line.substr(start, end == std::string::npos ? end : end - start));
      start = end == std::string::npos ? line.size() : end + 1;
    }
    const auto bad = [&](const char* what) {
      std::fprintf(stderr, "chaos_run: %s:%d: malformed schedule (%s)\n", path.c_str(),
                   line_no, what);
      return 2;
    };
    if (tok.size() < 8 || tok[0] != "seed" || tok[2] != "rate" || tok[4] != "packets" ||
        tok[6] != "broken") {
      return bad("header");
    }
    const std::optional<long long> seed = ParseInt(tok[1], 0, LLONG_MAX, 0);
    const std::optional<long long> rate = ParseInt(tok[3], 0, 45);
    const std::optional<long long> packets = ParseInt(tok[5], 1, 4096);
    const std::optional<long long> broken = ParseInt(tok[7], 0, 1);
    if (!seed || !rate || !packets || !broken) {
      return bad("numeric field");
    }
    std::vector<ExplicitCrash> schedule;
    for (std::size_t i = 8; i < tok.size(); i += 4) {
      if (i + 3 >= tok.size() || tok[i] != "crash" ||
          (tok[i + 1] != "ingress" && tok[i + 1] != "egress")) {
        return bad("crash entry");
      }
      const std::optional<long long> at = ParseInt(tok[i + 2], 0, LLONG_MAX);
      const std::optional<long long> delay = ParseInt(tok[i + 3], 1, LLONG_MAX);
      if (!at || !delay) {
        return bad("crash numerics");
      }
      schedule.push_back({tok[i + 1] == "ingress", static_cast<Tick>(*at),
                          static_cast<Tick>(*delay)});
    }

    ++total;
    const std::vector<Frame> baseline = Baseline(static_cast<int>(*packets));
    const CrashChaosResult run =
        RunCrashChaos(static_cast<int>(*packets), static_cast<int>(*rate),
                      static_cast<std::uint64_t>(*seed), *broken != 0, &schedule, baseline);
    const bool ok = !run.identical;  // a recorded FAILURE must fail again
    reproduced += ok ? 1 : 0;
    std::printf("replay seed %-8llu crashes %zu  %s\n",
                static_cast<unsigned long long>(*seed), schedule.size(),
                ok ? "REPRODUCED" : "NOT REPRODUCED");
  }
  std::printf("replay: %llu/%llu schedules reproduced their failure\n",
              static_cast<unsigned long long>(reproduced),
              static_cast<unsigned long long>(total));
  if (total == 0) {
    std::fprintf(stderr, "chaos_run: %s holds no schedules\n", path.c_str());
    return 2;
  }
  return reproduced == total ? 0 : 1;
}

int Main(int argc, char** argv) {
  int packets = 16;
  std::uint64_t seed = 0xC4A05ULL;
  std::string trace_path;
  std::string metrics_path;
  std::string record_path;
  std::string replay_path;
  bool sweep = false;
  std::uint64_t seed_lo = 0, seed_hi = 0;
  std::optional<int> rate;
  std::optional<int> batch_words;
  bool break_resync = false;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--trace") {
      const char* value = next();
      if (value == nullptr) return UsageError("--trace needs a file", arg.c_str());
      trace_path = value;
    } else if (arg == "--metrics") {
      const char* value = next();
      if (value == nullptr) return UsageError("--metrics needs a file", arg.c_str());
      metrics_path = value;
    } else if (arg == "--seed-range") {
      const char* value = next();
      if (value == nullptr) return UsageError("--seed-range needs A..B", arg.c_str());
      const std::string range = value;
      const std::size_t dots = range.find("..");
      if (dots == std::string::npos) {
        return UsageError("--seed-range must be A..B", range.c_str());
      }
      const std::optional<long long> lo = ParseInt(range.substr(0, dots), 0, LLONG_MAX, 0);
      const std::optional<long long> hi = ParseInt(range.substr(dots + 2), 0, LLONG_MAX, 0);
      if (!lo || !hi || *hi < *lo || *hi - *lo >= (1 << 20)) {
        return UsageError("--seed-range must be A..B with A <= B, span < 2^20",
                          range.c_str());
      }
      seed_lo = static_cast<std::uint64_t>(*lo);
      seed_hi = static_cast<std::uint64_t>(*hi);
      sweep = true;
    } else if (arg == "--batch-words") {
      const char* value = next();
      if (value == nullptr) return UsageError("--batch-words needs a count", arg.c_str());
      const std::optional<long long> parsed = ParseInt(value, 1, kMaxBatchWords);
      if (!parsed.has_value()) {
        return UsageError("--batch-words must be an integer in [1, 64]", value);
      }
      batch_words = static_cast<int>(*parsed);
    } else if (arg == "--rate") {
      const char* value = next();
      if (value == nullptr) return UsageError("--rate needs a percentage", arg.c_str());
      const std::optional<long long> parsed = ParseInt(value, 0, 45);
      if (!parsed.has_value()) {
        return UsageError("--rate must be an integer in [0, 45]", value);
      }
      rate = static_cast<int>(*parsed);
    } else if (arg == "--record") {
      const char* value = next();
      if (value == nullptr) return UsageError("--record needs a file", arg.c_str());
      record_path = value;
    } else if (arg == "--replay") {
      const char* value = next();
      if (value == nullptr) return UsageError("--replay needs a file", arg.c_str());
      replay_path = value;
    } else if (arg == "--break-resync") {
      break_resync = true;
    } else if (positional == 0) {
      const std::optional<long long> parsed = ParseInt(arg, 1, 4096);
      if (!parsed.has_value()) {
        return UsageError("packets must be an integer in [1, 4096]", arg.c_str());
      }
      packets = static_cast<int>(*parsed);
      ++positional;
    } else if (positional == 1) {
      const std::optional<long long> parsed = ParseInt(arg, 0, LLONG_MAX, 0);
      if (!parsed.has_value()) {
        return UsageError("seed must be a non-negative integer", arg.c_str());
      }
      seed = static_cast<std::uint64_t>(*parsed);
      ++positional;
    } else {
      return UsageError("unexpected argument", arg.c_str());
    }
  }

  const bool replay = !replay_path.empty();
  const char* stray = nullptr;  // first flag the chosen mode would ignore
  if (sweep && replay) {
    stray = "--seed-range with --replay";
  } else if ((sweep || replay) && !trace_path.empty()) {
    stray = "--trace";
  } else if ((sweep || replay) && !metrics_path.empty()) {
    stray = "--metrics";
  } else if ((sweep || replay) && batch_words.has_value()) {
    stray = "--batch-words";
  } else if (!sweep && rate.has_value()) {
    stray = "--rate";
  } else if (!sweep && !record_path.empty()) {
    stray = "--record";
  } else if (!sweep && break_resync) {
    stray = "--break-resync";
  } else if ((sweep && positional > 1) || (replay && positional > 0)) {
    stray = sweep ? "a seed" : "packets or a seed";
  }
  if (stray != nullptr) {
    return UsageError("argument not used in this mode", stray);
  }
  if (replay) {
    return ReplayMain(replay_path);
  }
  if (sweep) {
    return SweepMain(seed_lo, seed_hi, packets, rate.value_or(20), break_resync, record_path);
  }

  if (!trace_path.empty()) {
    obs::Recorder().Start(std::size_t{1} << 18);
  }

  const std::vector<Frame> baseline = Baseline(packets);
  std::printf("chaos_run: %d packets, seed 0x%llX, baseline %zu packets delivered\n\n",
              packets, static_cast<unsigned long long>(seed), baseline.size());
  std::printf("%-6s %-9s %-8s %-9s %-9s %-9s %-9s %-8s %s\n", "rate%", "offered",
              "dropped", "corrupt", "segments", "retrans", "timeouts", "resyncs",
              "verdict");

  std::uint64_t prev_retransmits = 0;
  bool monotone = true;
  obs::MetricLines metrics;
  for (int rate : {0, 2, 5, 10, 15, 20, 30, 40}) {
    Network net;
    ReliableConfig config;
    // Bounded retries: a hopeless line dies instead of wedging. Sized for
    // the envelope: at 20% drop+corrupt a retransmission round advances the
    // window with p ~ 0.15, so 64 consecutive failures (~3e-6) never happen
    // inside the envelope, while at 30%+ (p ~ 0.01) the line dies quickly.
    config.max_retries = 64;
    // Tunnel segment size: default 2 (the chaos-envelope sweet spot);
    // --batch-words 16 runs the soak with the Batched() preset's frames.
    config.max_segment_words = static_cast<std::size_t>(batch_words.value_or(2));
    SnfeLossyTopology topo =
        BuildSnfePairReliable(net, CensorStrictness::kSyntax, FaultSpec::DropCorrupt(rate),
                              seed + static_cast<std::uint64_t>(rate), packets,
                              /*key=*/0xC0FFEE, config);
    net.Run(rate == 0 ? 40000 : 250000);

    const auto& got = static_cast<HostSink&>(net.process(topo.pair.host_rx)).packets();
    const ReliableSenderStats& tx = TunnelSenderStats(net, topo.tunnel);
    const ReliableReceiverStats& rx = TunnelReceiverStats(net, topo.tunnel);
    const FaultCounters* wire = net.FaultCountersFor(topo.tunnel.data_link);
    const FaultCounters* ack_wire = net.FaultCountersFor(topo.tunnel.ack_link);
    metrics["net.retransmits"] += tx.retransmits;
    metrics["net.fast_retransmits"] += tx.fast_retransmits;
    metrics["net.timeouts"] += tx.timeouts;
    metrics["net.gave_up"] += tx.gave_up;
    metrics["net.faults_injected"] +=
        (wire ? wire->total_faults() : 0) + (ack_wire ? ack_wire->total_faults() : 0);

    const char* verdict;
    if (tx.gave_up) {
      verdict = "GAVE UP (line declared dead)";
    } else if (SameStream(got, baseline)) {
      verdict = "IDENTICAL";
    } else {
      verdict = "MISMATCH";
    }
    if (tx.retransmits < prev_retransmits && !tx.gave_up) {
      monotone = false;
    }
    prev_retransmits = tx.gave_up ? prev_retransmits : tx.retransmits;

    std::printf("%-6d %-9llu %-8llu %-9llu %-9llu %-9llu %-9llu %-8llu %s\n", rate,
                static_cast<unsigned long long>(wire ? wire->offered : 0),
                static_cast<unsigned long long>(wire ? wire->dropped : 0),
                static_cast<unsigned long long>(wire ? wire->corrupted : 0),
                static_cast<unsigned long long>(tx.segments_sent),
                static_cast<unsigned long long>(tx.retransmits),
                static_cast<unsigned long long>(tx.timeouts),
                static_cast<unsigned long long>(rx.resyncs), verdict);
  }

  std::printf("\nretransmit counts monotone with fault rate: %s\n",
              monotone ? "yes" : "NO");

  if (!trace_path.empty()) {
    obs::Recorder().Stop();
    if (!WriteFile(trace_path, obs::ChromeTraceJson(obs::Recorder().Drain()))) {
      return 2;
    }
    if (obs::Recorder().dropped() > 0) {
      std::fprintf(stderr, "chaos_run: note: trace buffer full, %llu event(s) dropped\n",
                   static_cast<unsigned long long>(obs::Recorder().dropped()));
    }
  }
  if (!metrics_path.empty() && !WriteFile(metrics_path, obs::MetricsText(metrics))) {
    return 2;
  }
  return monotone ? 0 : 1;
}

}  // namespace
}  // namespace sep

int main(int argc, char** argv) { return sep::Main(argc, argv); }
