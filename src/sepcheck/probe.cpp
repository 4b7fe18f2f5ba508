#include "src/sepcheck/probe.h"

#include "src/base/rng.h"

namespace sep::sepcheck {

Result<bool> MachineSemanticallyLeaks(
    const std::function<Result<std::unique_ptr<KernelizedSystem>>()>& make,
    const MachineProbeSpec& spec) {
  if (spec.trials < 1) return Err("probe needs at least one trial");
  if (spec.steps == 0) return Err("probe needs at least one step per run");

  Result<std::unique_ptr<KernelizedSystem>> built = make();
  if (!built.ok()) return Err(built.error());
  KernelizedSystem& sys = **built;

  const KernelConfig& config = sys.kernel().config();
  if (spec.secret_regime < 0 ||
      spec.secret_regime >= static_cast<int>(config.regimes.size()) ||
      spec.observer_regime < 0 ||
      spec.observer_regime >= static_cast<int>(config.regimes.size())) {
    return Err("probe regime index out of range");
  }
  const RegimeConfig& secret_rc =
      config.regimes[static_cast<std::size_t>(spec.secret_regime)];
  for (Word addr : spec.secret_addrs) {
    if (addr >= secret_rc.mem_words) {
      return Err("secret address outside the secret regime's partition");
    }
  }

  // Run A is deterministic: take it once from the boot state and keep the
  // observer's view. Every run B starts from the same boot state.
  std::vector<Word> boot;
  sys.AppendFullState(boot);
  sys.Run(spec.steps);
  const std::vector<Word> reference = sys.kernel().AbstractProjection(spec.observer_regime);

  Rng rng(spec.seed);
  for (int trial = 0; trial < spec.trials; ++trial) {
    if (!sys.RestoreFullState(boot)) return Err("probe cannot restore the boot state");
    for (Word addr : spec.secret_addrs) {
      sys.machine().PhysWrite(secret_rc.mem_base + addr, static_cast<Word>(rng.Next() & 0xFFFF));
    }
    sys.Run(spec.steps);
    if (sys.kernel().AbstractProjection(spec.observer_regime) != reference) {
      return true;
    }
  }
  return false;
}

}  // namespace sep::sepcheck
