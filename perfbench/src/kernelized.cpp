#include "kernelized.h"

#include <cstdio>
#include <cstdlib>

#include "src/obs/trace.h"

namespace perfbench {

using sep::KernelizedSystem;
using sep::Word;

namespace {

// Rounds whose channel events give the delivery-latency distribution and
// whose traced runs give the per-layer split: enough packets / messages
// that p99 has at least ten samples beyond it.
constexpr std::uint64_t kObservedRounds = 16;
constexpr std::size_t kMaxStepsPerRound = 200'000'000;
// Large enough to hold every event of the observed rounds, so the
// recorder-on run pays for recording rather than for dropping.
constexpr std::size_t kObsRingEvents = std::size_t{1} << 18;

std::unique_ptr<KernelizedSystem> CloneSystem(const KernelizedSystem& base) {
  std::unique_ptr<sep::SharedSystem> clone = base.Clone();
  return std::unique_ptr<KernelizedSystem>(static_cast<KernelizedSystem*>(clone.release()));
}

// Checks that a round ran to completion without kernel faults and verifies
// its outputs; returns the payload words verified.
std::uint64_t CheckRound(const KernelizedWorkload& workload, const KernelizedSystem& system,
                         std::uint64_t round, Result& result) {
  result.Check(system.machine().halted(),
               "round " + std::to_string(round) + " did not finish within the step budget");
  result.Check(system.kernel().FaultCount() == 0,
               "round " + std::to_string(round) + " faulted a regime");
  return workload.Verify(system, result);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void TimedRun(KernelizedWorkload& workload, const KernelizedSystem& base,
              const Options& options, SetupTimer& setup, Result& result) {
  std::vector<double> rates;
  const std::uint64_t min_rounds = options.smoke ? 1 : 3;
  {
    CpuRotation rotation;
    const Clock::time_point start = Clock::now();
    for (std::uint64_t round = 0;; ++round) {
      if (round >= min_rounds && SecondsSince(start) >= options.seconds) {
        break;
      }
      rotation.Next();
      setup.Sample();
      workload.Prepare(round);
      std::unique_ptr<KernelizedSystem> system = CloneSystem(base);
      workload.Load(*system);
      const Clock::time_point t0 = Clock::now();
      system->Run(kMaxStepsPerRound);
      const double seconds = SecondsSince(t0);
      const std::uint64_t words = CheckRound(workload, *system, round, result);
      rates.push_back(static_cast<double>(words) / seconds);
    }
  }
  std::printf("rounds %zu, median rate %.6g words/s\n", rates.size(), Median(rates));
  result.Set("work_per_s", FastRate(rates), "1/s");
  result.Print("words_per_s", FastRate(rates), "1/s");

  // The simulated latencies are deterministic, so they come from a separate,
  // untimed pass over the observed rounds with the forwarding client.
  std::vector<double> latencies;
  const std::uint64_t observed = options.smoke ? 2 : kObservedRounds;
  for (std::uint64_t round = 0; round < observed; ++round) {
    workload.Prepare(round);
    std::unique_ptr<KernelizedSystem> system = CloneSystem(base);
    workload.Load(*system);
    TracingClient client(*system);
    system->Run(kMaxStepsPerRound);
    CheckRound(workload, *system, round, result);
    workload.Latencies(client.events(), latencies);
  }
  std::printf("delivery samples %zu\n", latencies.size());
  result.Print("delivery_p50_ticks", Percentile(latencies, 50), "ticks");
  result.Print("delivery_p99_ticks", Percentile(latencies, 99), "ticks");
}

void TracedRun(KernelizedWorkload& workload, const KernelizedSystem& base,
               const Options& options, Result& result) {
  auto device_stats = std::make_shared<DeviceStats>();
  const std::unique_ptr<KernelizedSystem> traced_base =
      workload.Build([&](std::unique_ptr<sep::Device> device) -> std::unique_ptr<sep::Device> {
        return std::make_unique<TracingDevice>(std::move(device), device_stats);
      });
  const double clock_ns = ClockPairNanos() / 2;  // one clock read
  const std::uint64_t observed = options.smoke ? 2 : kObservedRounds;

  // Per-round outcomes of the untraced run, which the traced and
  // recorder-on runs must reproduce exactly.
  std::vector<std::uint64_t> hashes(observed);
  std::vector<std::size_t> steps(observed);

  // Counts come from the first pass (they are deterministic); times from
  // every pass.
  KernelStats first, total;
  std::vector<double> latencies;
  std::uint64_t words = 0, predecode_hits = 0, predecode_misses = 0;
  std::uint64_t sb_builds = 0, sb_side_exits = 0, sb_invalidations = 0, faults = 0;
  std::uint64_t dropped_events = 0;

  std::vector<double> untraced_s, traced_s, obs_s;
  double traced_total_s = 0, kernel_ns = 0, device_ns = 0, spans = 0;
  std::uint64_t traced_steps = 0, untraced_steps = 0;
  double untraced_total_s = 0;

  const Clock::time_point start = Clock::now();
  for (int pass = 0; pass == 0 || SecondsSince(start) < options.seconds; ++pass) {
    double untraced = 0;
    for (std::uint64_t round = 0; round < observed; ++round) {
      workload.Prepare(round);
      std::unique_ptr<KernelizedSystem> system = CloneSystem(base);
      workload.Load(*system);
      const Clock::time_point t0 = Clock::now();
      steps[round] = system->Run(kMaxStepsPerRound);
      untraced += SecondsSince(t0);
      untraced_steps += steps[round];
      hashes[round] = system->machine().StateHash();
      if (pass == 0) {
        words += CheckRound(workload, *system, round, result);
        const sep::Machine& m = system->machine();
        predecode_hits += m.predecode_hits();
        predecode_misses += m.predecode_misses();
        sb_builds += m.superblock_builds();
        sb_side_exits += m.superblock_side_exits();
        sb_invalidations += m.superblock_invalidations();
      }
    }
    untraced_s.push_back(untraced);
    untraced_total_s += untraced;

    double traced = 0;
    KernelStats stats;
    const std::uint64_t device_ns_before = device_stats->ns;
    const std::uint64_t device_steps_before = device_stats->steps;
    for (std::uint64_t round = 0; round < observed; ++round) {
      workload.Prepare(round);
      std::unique_ptr<KernelizedSystem> system = CloneSystem(*traced_base);
      workload.Load(*system);
      TracingClient client(*system);
      const Clock::time_point t0 = Clock::now();
      const std::size_t ran = system->Run(kMaxStepsPerRound);
      traced += SecondsSince(t0);
      traced_steps += ran;
      stats.Add(client.stats());
      result.Check(ran == steps[round] && system->machine().StateHash() == hashes[round],
                   "traced round " + std::to_string(round) + " diverged from the untraced run");
      if (pass == 0) {
        CheckRound(workload, *system, round, result);
        workload.Latencies(client.events(), latencies);
        faults += system->kernel().FaultCount();
      }
    }
    traced_s.push_back(traced);
    traced_total_s += traced;
    total.Add(stats);
    kernel_ns += static_cast<double>(stats.KernelNanos());
    device_ns += static_cast<double>(device_stats->ns - device_ns_before);
    spans += static_cast<double>(stats.timed_spans + device_stats->steps - device_steps_before);
    if (pass == 0) {
      first = stats;
    }

    double recorded = 0;
    sep::obs::Recorder().Start(kObsRingEvents);
    for (std::uint64_t round = 0; round < observed; ++round) {
      workload.Prepare(round);
      std::unique_ptr<KernelizedSystem> system = CloneSystem(base);
      workload.Load(*system);
      const Clock::time_point t0 = Clock::now();
      system->Run(kMaxStepsPerRound);
      recorded += SecondsSince(t0);
      result.Check(system->machine().StateHash() == hashes[round],
                   "recorder-on round " + std::to_string(round) + " diverged");
    }
    sep::obs::Recorder().Stop();
    dropped_events = sep::obs::Recorder().dropped();
    (void)sep::obs::Recorder().Drain();
    obs_s.push_back(recorded);
  }

  const double rounds = static_cast<double>(observed);
  std::printf("observed rounds %llu, passes %zu\n", static_cast<unsigned long long>(observed),
              traced_s.size());
  result.Set("machine.steps_per_s", Ratio(static_cast<double>(untraced_steps), untraced_total_s),
             "1/s");
  const double self_ns = traced_total_s * 1e9 - kernel_ns - device_ns - spans * clock_ns;
  result.Set("machine.self_ns_per_step", Ratio(self_ns, static_cast<double>(traced_steps)), "ns");
  std::uint64_t first_steps = 0;
  for (std::size_t s : steps) {
    first_steps += s;
  }
  result.Set("machine.steps_per_kernel_exit",
             Ratio(static_cast<double>(first_steps), static_cast<double>(first.KernelExits())),
             "count");
  result.Set("machine.predecode_hit_ratio",
             Ratio(static_cast<double>(predecode_hits),
                   static_cast<double>(predecode_hits + predecode_misses)),
             "ratio");
  // 0 by construction today: superblocks are built only on Machine::Run's
  // client-free path, and a kernelized machine always has the kernel as its
  // client. Kept so an engine that traces under a client shows up here.
  result.Set("machine.superblock_builds", static_cast<double>(sb_builds) / rounds, "count");
  result.Set("machine.superblock_side_exits", static_cast<double>(sb_side_exits) / rounds, "count");
  result.Set("machine.superblock_invalidations", static_cast<double>(sb_invalidations) / rounds,
             "count");

  // Call counts per round from the first pass; mean ns per call over every
  // pass (each span includes one clock read).
  const auto mean_ns = [](std::uint64_t ns, std::uint64_t calls) {
    return calls == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(calls);
  };
  for (int code = 0; code < kTrapCodes; ++code) {
    const std::string name = std::string("kernel.call.") + TrapName(code);
    result.Set(name + ".count", static_cast<double>(first.calls[code]) / rounds, "count");
    result.Set(name + ".ns", mean_ns(total.call_ns[code], total.calls[code]), "ns");
  }
  result.Set("kernel.irq.count", static_cast<double>(first.irqs) / rounds, "count");
  result.Set("kernel.irq.ns", mean_ns(total.irq_ns, total.irqs), "ns");
  result.Set("kernel.before_execute.ns",
             mean_ns(total.before_execute_ns, total.before_execute), "ns");
  result.Set("kernel.faults", static_cast<double>(faults), "count");
  result.Set("kernel.send_accept_ratio",
             Ratio(static_cast<double>(first.send_accepted),
                   static_cast<double>(first.calls[sep::kCallSend])),
             "ratio");
  result.Set("kernel.recv_hit_ratio",
             Ratio(static_cast<double>(first.recv_hits),
                   static_cast<double>(first.calls[sep::kCallRecv])),
             "ratio");
  result.Set("kernel.ringput_accept_ratio",
             Ratio(static_cast<double>(first.ringput_accepted),
                   static_cast<double>(first.calls[sep::kCallRingPut])),
             "ratio");
  result.Set("kernel.swaps_per_word",
             Ratio(static_cast<double>(first.calls[sep::kCallSwap]), static_cast<double>(words)),
             "count");
  result.Set("kernel.delivery_p50_ticks", Percentile(latencies, 50), "ticks");
  result.Set("kernel.delivery_p99_ticks", Percentile(latencies, 99), "ticks");
  result.Set(std::string("device.") + workload.device_name() + ".ns_per_step",
             Ratio(device_ns, static_cast<double>(traced_steps)), "ns");
  result.Set("device.share", Ratio(device_ns, traced_total_s * 1e9), "ratio");
  result.Set("trace.overhead", Ratio(Median(traced_s), Median(untraced_s)), "ratio");
  result.Set("obs.recorder_on_slowdown", Ratio(Median(obs_s), Median(untraced_s)), "ratio");
  result.Set("obs.dropped_events", static_cast<double>(dropped_events), "count");
}

}  // namespace

void RunKernelized(KernelizedWorkload& workload, const Options& options, Result& result) {
  const DeviceWrap plain = [](std::unique_ptr<sep::Device> device) { return device; };
  const std::unique_ptr<KernelizedSystem> base = workload.Build(plain);
  if (options.trace) {
    TracedRun(workload, *base, options, result);
    return;
  }
  SetupTimer setup([&] { (void)workload.Build(plain); });
  TimedRun(workload, *base, options, setup, result);
  result.Set("setup_s", setup.Median(), "s");
}

sep::AssembledProgram AssembleOrDie(const std::string& name, const std::string& source) {
  sep::Result<sep::AssembledProgram> program = sep::Assemble(source);
  if (!program.ok()) {
    std::fprintf(stderr, "perfbench: assembling %s: %s\n", name.c_str(), program.error().c_str());
    std::exit(2);
  }
  return std::move(program.value());
}

void WritePartition(KernelizedSystem& system, int regime, Word addr,
                    const std::vector<Word>& words) {
  const sep::PhysAddr base =
      system.kernel().config().regimes[static_cast<std::size_t>(regime)].mem_base + addr;
  for (std::size_t i = 0; i < words.size(); ++i) {
    system.machine().memory().Write(base + static_cast<sep::PhysAddr>(i), words[i]);
  }
}

Word ReadPartition(const KernelizedSystem& system, int regime, Word addr) {
  return system.machine().memory().Read(
      system.kernel().config().regimes[static_cast<std::size_t>(regime)].mem_base + addr);
}

}  // namespace perfbench
