// Exhaustive Proof of Separability for finite micro-systems.
//
// Where the sampled checker (separability.h) approximates the quantifiers
// of the six conditions with randomized trace pairs, this module decides
// them exactly for systems whose reachable state space fits in memory:
//
//   1. enumerate every state reachable from the initial state under every
//      operation, every environment input (a finite alphabet per unit) and
//      every unit activity;
//   2. check conditions (2) and (4) on every transition;
//   3. group reachable states by (COLOUR, Φ^c) and check conditions (1),
//      (3), (5) and (6) on every pair within each group, up to
//      `max_pairs_per_group` pairs per group.
//
// A report with `complete == true` is a genuine finite-model proof of the
// six conditions over the reachable space — the closest executable
// analogue of the theorem the paper envisages. A run that exceeds the
// state budget, or whose pair cap skips any Φ-equal pair, gets
// `complete == false` (the partial result is still sound: any violation
// found is real), and `pairs_skipped` counts the pairs the cap left out.
//
// Exploration is a level-synchronous BFS: each level is expanded in
// fixed-size slices on a thread pool and merged by one thread in canonical
// order, and pair checking runs in fixed-size waves the same way. Because
// the slice and wave sizes are constants, the report is byte-identical at
// every thread count by construction (docs/PERFORMANCE.md §6).
//
// Requires SharedSystem::FullState() support (a canonical serialization of
// the complete concrete state) and its inverse RestoreFullState(): the
// checker stores only the serialized words — deduplicated 64-word chunks in
// a flat arena — and reconstructs live systems on demand into thread-local
// scratch instances, so peak memory is O(serialized words), not O(live
// machines).
#ifndef SRC_CORE_EXHAUSTIVE_H_
#define SRC_CORE_EXHAUSTIVE_H_

#include <cstdint>
#include <vector>

#include "src/core/separability.h"
#include "src/model/shared_system.h"

namespace sep {

struct ExhaustiveOptions {
  // Budget on distinct reachable states; exceeding it aborts completeness.
  std::size_t max_states = 100000;
  // The environment alphabet: inputs 1..inputs_per_unit are injected into
  // each unit (plus the implicit "no input").
  int inputs_per_unit = 2;
  // Cap on Φ-group pair checks (this guards against quadratic blowup on
  // large groups). A run where it binds is not complete.
  std::size_t max_pairs_per_group = 4096;
  int max_violations = 16;
  // Worker threads for expansion and pair checking (0 = all hardware
  // threads). Every report field except the per-worker diagnostics is the
  // same at every thread count.
  int threads = 1;
  // Has no effect: exploration has no steal schedule to perturb. Kept so
  // existing callers still compile.
  std::uint64_t steal_seed = 0;
};

struct ExhaustiveReport {
  std::size_t states_explored = 0;
  std::size_t transitions = 0;
  std::size_t pairs_checked = 0;
  // Φ-equal pairs the per-group cap left unchecked; nonzero makes the run
  // incomplete.
  std::size_t pairs_skipped = 0;
  bool complete = false;
  std::array<ConditionStats, 7> conditions{};
  std::vector<Violation> violations;
  // Resident footprint of the compact state store (serialized words, chunk
  // tables and hash indexes) at the end of the run — the checker keeps no
  // live machine per state, so this is the scaling-relevant number. The
  // store holds every successor of every expanded state, so a truncated run
  // also counts the successors it computed but did not admit.
  std::size_t peak_state_bytes = 0;
  // RestoreFullState calls the run made. Deterministic, like the store
  // size: which states and pair tasks get computed does not depend on the
  // thread count.
  std::uint64_t restore_count = 0;
  // Always 0: the checker no longer steals work. Kept for existing readers.
  std::uint64_t steal_count = 0;
  std::size_t shard_max_load = 0;  // most populated state shard
  // States expanded by each pool worker: the one schedule-dependent field.
  // Also exported as `exhaustive.workerN.expanded` gauges.
  std::vector<std::uint64_t> worker_expanded;

  bool Passed() const { return violations.empty(); }
  std::string Summary() const;
};

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options = {});

}  // namespace sep

#endif  // SRC_CORE_EXHAUSTIVE_H_
