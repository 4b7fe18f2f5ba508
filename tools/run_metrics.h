// The machine and kernel lines of a tool's flat metrics dump, read off the
// instances the tool ran (docs/OBSERVABILITY.md §4). sep_trace and sm11run
// print the same lines; a bare machine has no kernel lines.
#ifndef TOOLS_RUN_METRICS_H_
#define TOOLS_RUN_METRICS_H_

#include "src/kernel/kernel.h"
#include "src/machine/machine.h"
#include "src/obs/export.h"

namespace sep {

inline obs::MetricLines RunMetrics(const Machine& machine, const SeparationKernel* kernel) {
  obs::MetricLines out = {
      {"machine.traps", machine.traps()},
      {"machine.interrupts", machine.interrupts()},
      {"machine.predecode_refills", machine.predecode_misses()},
      {"machine.generic_steps", machine.generic_steps()},
      {"machine.superblock_builds", machine.superblock_builds()},
      {"machine.superblock_side_exits", machine.superblock_side_exits()},
      {"machine.superblock_invalidations", machine.superblock_invalidations()},
  };
  if (kernel != nullptr) {
    out.insert({
        {"kernel.calls", kernel->KernelCallCount()},
        {"kernel.swaps", kernel->SwapCount()},
        {"kernel.irq_forwards", kernel->IrqForwardCount()},
        {"kernel.irq_delivers", kernel->IrqDeliverCount()},
        {"kernel.faults", kernel->FaultCount()},
        {"kernel.mmu_remaps", kernel->MmuRemapCount()},
        {"kernel.channel_stall", kernel->ChannelStallCount()},
    });
  }
  return out;
}

}  // namespace sep

#endif  // TOOLS_RUN_METRICS_H_
