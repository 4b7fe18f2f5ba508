#include "src/core/node_recovery.h"

#include <algorithm>
#include <utility>

namespace sep {

KernelNodeSupervisor::KernelNodeSupervisor(KernelizedSystem& system, Options options)
    : system_(system), options_(options) {
  // A kernelized machine always serializes (every built-in device supports
  // RestoreState); FullState only fails for exotic devices, in which case
  // crashes degrade to cold restarts of an empty image — tests would catch
  // that immediately, so no stronger handling is needed here.
  if (std::optional<std::vector<Word>> genesis = system_.FullState()) {
    genesis_ = std::move(*genesis);
  }
}

void KernelNodeSupervisor::DrainIntoStaging() {
  std::vector<obs::TraceEvent> drained = obs::Recorder().Drain();
  staging_.insert(staging_.end(), drained.begin(), drained.end());
}

void KernelNodeSupervisor::Commit(bool snapshot) {
  if (snapshot) {
    std::vector<Word> image;
    system_.AppendFullState(image);
    checkpoint_ = std::move(image);
    steps_since_checkpoint_ = 0;
    ++stats_.checkpoints;
  }
  committed_.insert(committed_.end(), staging_.begin(), staging_.end());
  staging_.clear();
}

std::size_t KernelNodeSupervisor::Run(std::size_t steps) {
  std::size_t executed = 0;
  while (executed < steps && !system_.Finished()) {
    std::size_t quantum = steps - executed;
    if (options_.checkpoint_interval > 0) {
      const std::size_t to_boundary = options_.checkpoint_interval - steps_since_checkpoint_;
      quantum = std::min(quantum, to_boundary);
    }
    const std::size_t took = system_.Run(quantum);
    executed += took;
    steps_since_checkpoint_ += took;
    DrainIntoStaging();
    if (options_.checkpoint_interval > 0 &&
        steps_since_checkpoint_ >= options_.checkpoint_interval) {
      Commit(/*snapshot=*/true);
    }
    if (took < quantum) {
      break;  // every regime halted mid-quantum
    }
  }
  return executed;
}

bool KernelNodeSupervisor::Crash() {
  // The staged events belong to state the rollback is about to destroy;
  // deterministic re-execution will regenerate them identically.
  DrainIntoStaging();
  staging_.clear();
  ++stats_.crashes;
  stats_.lost_steps += steps_since_checkpoint_;
  steps_since_checkpoint_ = 0;

  const bool cold = !checkpoint_.has_value();
  const std::vector<Word>& image = cold ? genesis_ : *checkpoint_;
  if (image.empty() || !system_.RestoreFullState(image)) {
    return false;
  }
  if (cold) {
    ++stats_.cold_restarts;
  } else {
    ++stats_.warm_restores;
  }
  return true;
}

void KernelNodeSupervisor::Seal() {
  DrainIntoStaging();
  Commit(/*snapshot=*/false);
}

}  // namespace sep
