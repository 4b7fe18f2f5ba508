// Machine-level semantic two-run probe.
//
// The ground truth against which sepcheck's syntactic verdicts are judged,
// lifting the src/ifa/semantic.* pattern from SIMPL programs to whole
// kernelized machines: run the same system twice from its boot state,
// differing only in designated "secret" words of one regime's partition,
// for the same number of steps, and compare the observing regime's abstract
// projection Φ^observer. If the projections ever differ, information about
// the secret reached the observer semantically; if they never differ over
// all trials, a syntactic flag against this system is a false positive
// (for these runs — the probe is a test, not a proof).
#ifndef SEP_SEPCHECK_PROBE_H_
#define SEP_SEPCHECK_PROBE_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"
#include "src/core/kernel_system.h"

namespace sep::sepcheck {

struct MachineProbeSpec {
  int secret_regime = 0;
  // Partition-relative word addresses whose contents are the secret.
  std::vector<Word> secret_addrs;
  int observer_regime = 1;
  std::size_t steps = 20000;  // whole machine steps per run
  int trials = 6;
  std::uint64_t seed = 0x5EC2;
};

// Builds the system once via `make` and saves its boot state. Run A, the
// unmodified run, is deterministic, so it runs once and its observer
// projection is kept. Each trial restores the boot state, writes random
// values (drawn from `seed`, in trial then address order) into the secret
// words and runs B. Returns true iff any trial left the observer's abstract
// projection different from run A's. Errs, before any run, when `trials` is
// below 1, `steps` is 0, a regime index is out of range or a secret address
// lies outside the secret regime's partition.
//
// Completeness premise: KernelizedSystem::RestoreFullState restores every
// bit of state a run reads, so a restored system runs exactly like a fresh
// build of it. A restore leaves alone only what no run reads: the tick
// counter (event timestamps), the statistics counters, and the derived
// predecode and superblock caches, which revalidate by page version.
Result<bool> MachineSemanticallyLeaks(
    const std::function<Result<std::unique_ptr<KernelizedSystem>>()>& make,
    const MachineProbeSpec& spec);

}  // namespace sep::sepcheck

#endif  // SEP_SEPCHECK_PROBE_H_
