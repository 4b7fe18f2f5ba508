// Crash-stop / checkpoint-recovery supervision of a KERNELIZED node.
//
// The distributed layer (src/distributed/network.h) recovers component
// processes through their own Checkpoint/Restore hooks; this header does the
// same for a whole kernelized machine, reusing the full-state snapshot
// machinery (Machine::SnapshotFullInto / RestoreFull via
// KernelizedSystem::FullState / RestoreFullState).
//
// The interesting part is not the state — it is the TRACE. Experiment E17
// demands that every regime's canonical per-colour trace be byte-identical
// to a run-alone of that regime; E18 extends the demand across a
// crash/restart boundary. A crash rolls the machine back to its newest
// checkpoint and deterministically RE-EXECUTES the lost quantum, which would
// re-emit every observable event of that quantum a second time. The
// supervisor therefore runs a write-ahead protocol over the trace itself:
//
//   * events drain from the process-wide obs recorder into a STAGING buffer;
//   * a checkpoint atomically snapshots the machine AND promotes staging to
//     the COMMITTED log — state and trace commit together;
//   * a crash discards staging along with the rolled-back state, so the
//     re-execution's identical events are recorded exactly once.
//
// Machine ticks and the kernel's counters keep advancing across a restore
// (they are bookkeeping, not architectural state): raw timestamps differ
// between a crashed and an uninterrupted run, and the counters include the
// re-executed quantum. The canonical per-colour trace
// (obs::CanonicalColourTrace) is deliberately timestamp-free, and over it
// the committed log of a crashed run is byte-identical to run-alone.
#ifndef SRC_CORE_NODE_RECOVERY_H_
#define SRC_CORE_NODE_RECOVERY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/core/kernel_system.h"
#include "src/obs/trace.h"

namespace sep {

struct KernelNodeOptions {
  // Machine steps between checkpoints; 0 = genesis-only (every crash rolls
  // all the way back to the boot image).
  std::size_t checkpoint_interval = 256;
};

class KernelNodeSupervisor {
 public:
  using Options = KernelNodeOptions;

  // The supervisor's own observability: counters only, never trace events,
  // so the committed log holds exactly what a crash-free run would emit.
  struct Stats {
    std::uint64_t checkpoints = 0;
    std::uint64_t crashes = 0;
    std::uint64_t warm_restores = 0;
    std::uint64_t cold_restarts = 0;
    // Steps of forward progress discarded by crashes (the recovery cost a
    // checkpoint interval buys down); bench_recovery measures its tail.
    std::uint64_t lost_steps = 0;
  };

  // Captures the genesis image immediately; the system must be freshly
  // booted. The caller owns the recorder lifecycle (obs::Recorder().Start
  // before the run, Stop after) exactly as in the E17 harness.
  explicit KernelNodeSupervisor(KernelizedSystem& system, Options options = {});

  // Runs up to `steps` machine steps in checkpoint-interval quanta,
  // checkpointing after each full quantum. Stops early when the system
  // finishes. Returns steps actually executed.
  std::size_t Run(std::size_t steps);

  // Crash-stop: discards staged (uncommitted) trace events with the
  // rolled-back state and restores the newest checkpoint — or the genesis
  // image when none exists (a cold restart). Returns false if the snapshot
  // failed to restore (the node is then lost; no further Run is meaningful).
  bool Crash();

  // Declares the run over: promotes the staged tail of the trace to the
  // committed log WITHOUT a snapshot. Only call when no further Crash()
  // will occur — committing events a later rollback would re-execute is
  // exactly the double-record the protocol exists to prevent.
  void Seal();

  // The committed (crash-consistent) event log, oldest first.
  const std::vector<obs::TraceEvent>& committed_events() const { return committed_; }
  const Stats& stats() const { return stats_; }

 private:
  void DrainIntoStaging();
  void Commit(bool snapshot);

  KernelizedSystem& system_;
  Options options_;
  std::vector<Word> genesis_;
  std::optional<std::vector<Word>> checkpoint_;
  std::vector<obs::TraceEvent> staging_;
  std::vector<obs::TraceEvent> committed_;
  std::size_t steps_since_checkpoint_ = 0;
  Stats stats_;
};

}  // namespace sep

#endif  // SRC_CORE_NODE_RECOVERY_H_
