#include "src/distributed/faults.h"

#include "src/obs/trace.h"

namespace sep {

namespace {

// kNetFaultInjected payload a0: which fault fired.
enum FaultKind : Word {
  kFaultDrop = 1,
  kFaultDuplicate = 2,
  kFaultCorrupt = 3,
  kFaultReorder = 4,
  kFaultDelay = 5,
};

void NoteFault(FaultKind kind, std::uint64_t offered, Word detail = 0) {
  obs::Emit(obs::Category::kNet, obs::Code::kNetFaultInjected, obs::kColourKernel, offered,
            static_cast<Word>(kind), detail);
}

}  // namespace

FaultPlan::FaultPlan(FaultSpec spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

FaultPlan::Decision FaultPlan::Decide() {
  Decision d;
  ++counters_.offered;
  const bool observe = obs::Enabled();
  if (spec_.drop_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.drop_percent), 100)) {
    d.drop = true;
    ++counters_.dropped;
    if (observe) {
      NoteFault(kFaultDrop, counters_.offered);
    }
    // A dropped word has no further fate; keep the draw count per word
    // independent of the other categories by deciding them anyway.
  }
  if (spec_.duplicate_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.duplicate_percent), 100)) {
    d.duplicate = !d.drop;
    if (d.duplicate) {
      ++counters_.duplicated;
      if (observe) {
        NoteFault(kFaultDuplicate, counters_.offered);
      }
    }
  }
  if (spec_.corrupt_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.corrupt_percent), 100)) {
    // Flip one to three bits: a nonzero mask, biased toward single-bit noise.
    Word mask = static_cast<Word>(1u << rng_.NextBelow(16));
    if (rng_.NextChance(1, 3)) {
      mask = static_cast<Word>(mask | (1u << rng_.NextBelow(16)));
    }
    if (rng_.NextChance(1, 9)) {
      mask = static_cast<Word>(mask | (1u << rng_.NextBelow(16)));
    }
    if (!d.drop) {
      d.corrupt_mask = mask;
      ++counters_.corrupted;
      if (observe) {
        NoteFault(kFaultCorrupt, counters_.offered, mask);
      }
    }
  }
  if (spec_.reorder_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.reorder_percent), 100)) {
    d.reorder = !d.drop;
    if (d.reorder) {
      ++counters_.reordered;
      if (observe) {
        NoteFault(kFaultReorder, counters_.offered);
      }
    }
  }
  if (spec_.delay_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.delay_percent), 100)) {
    const Tick extra = static_cast<Tick>(
        rng_.NextInRange(1, static_cast<std::int64_t>(spec_.max_extra_delay > 0
                                                          ? spec_.max_extra_delay
                                                          : 1)));
    if (!d.drop) {
      d.extra_delay = extra;
      ++counters_.delayed;
      if (observe) {
        NoteFault(kFaultDelay, counters_.offered, static_cast<Word>(extra & 0xFFFF));
      }
    }
  }
  return d;
}

NodeFaultPlan::NodeFaultPlan(NodeFaultSpec spec, std::uint64_t seed) : spec_(spec), rng_(seed) {}

NodeFaultPlan::Decision NodeFaultPlan::Decide() {
  Decision d;
  ++counters_.quanta;
  const bool exhausted =
      spec_.max_crashes > 0 && counters_.crashes >= static_cast<std::uint64_t>(spec_.max_crashes);
  if (spec_.crash_percent > 0 && !exhausted &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.crash_percent), 100)) {
    d.crash = true;
    const Tick lo = spec_.min_restart_delay > 0 ? spec_.min_restart_delay : 1;
    const Tick hi = spec_.max_restart_delay > lo ? spec_.max_restart_delay : lo;
    d.restart_delay = static_cast<Tick>(
        rng_.NextInRange(static_cast<std::int64_t>(lo), static_cast<std::int64_t>(hi)));
    ++counters_.crashes;
    return d;  // a crashed node cannot also stall
  }
  if (spec_.stall_percent > 0 &&
      rng_.NextChance(static_cast<std::uint64_t>(spec_.stall_percent), 100)) {
    const Tick max_stall = spec_.max_stall > 0 ? spec_.max_stall : 1;
    d.stall_ticks =
        static_cast<Tick>(rng_.NextInRange(1, static_cast<std::int64_t>(max_stall)));
    ++counters_.stalls;
  }
  return d;
}

}  // namespace sep
