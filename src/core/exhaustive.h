// Exhaustive Proof of Separability for finite micro-systems.
//
// Where the sampled checker (separability.h) approximates the quantifiers
// of the six conditions with randomized trace pairs, this module decides
// them exactly for systems whose reachable state space fits in memory:
//
//   1. enumerate every state reachable from the initial state under every
//      operation, every environment input (a finite alphabet per unit) and
//      every unit activity;
//   2. check conditions (2) and (4) on every transition, and record for
//      each state what the two-state conditions read of it (COLOUR, NEXTOP
//      and the Φ class and output of each successor);
//   3. group reachable states by (COLOUR, Φ^c) and decide conditions (1),
//      (3), (5) and (6) for every pair within each group, once per group
//      from those records.
//
// A report with `complete == true` is a genuine finite-model proof of the
// six conditions over the reachable space — the closest executable
// analogue of the theorem the paper envisages: every reachable state was
// explored within the state budget and every Φ-equal pair was checked.
// There is no pair cap. A run that exceeds the state budget gets
// `complete == false`; the partial result is still sound (any violation
// found is real) and still covers every Φ-equal pair of the states it
// admitted. The violation budget (`max_violations`) is the only other cut,
// and a run it stops has found violations.
//
// Exploration is a level-synchronous BFS: each level is expanded in
// fixed-size slices on a thread pool and merged by one thread in canonical
// order. The merge thread is the state store's only writer: it interns the
// successors and numbers the record classes by exact content. Because the
// slice size is a constant, the report is byte-identical at every thread
// count by construction (docs/PERFORMANCE.md §6).
//
// Requires SharedSystem::FullState() support (a canonical serialization of
// the complete concrete state) and its inverse RestoreFullState(): the
// checker stores only the serialized words — deduplicated 64-word chunks in
// a flat arena — and reconstructs live systems on demand, one scratch
// instance per pool worker, so peak memory is O(serialized words), not
// O(live machines). A worker hands each successor to the merge thread as
// the chunks that differ from its parent's, hashed; every equality test
// compares words (PERFORMANCE.md §4).
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
  int max_violations = 16;
  // Worker threads for expansion (0 = all hardware threads). Every report
  // field except the per-worker and phase-time diagnostics is the same at
  // every thread count.
  int threads = 1;
  // Has no effect: exploration has no steal schedule to perturb. Kept so
  // existing callers still compile.
  std::uint64_t steal_seed = 0;
};

struct ExhaustiveReport {
  std::size_t states_explored = 0;
  std::size_t transitions = 0;
  std::size_t pairs_checked = 0;
  bool complete = false;
  std::array<ConditionStats, 7> conditions{};
  std::vector<Violation> violations;
  // Resident footprint of the compact state store (serialized words, chunk
  // tables and hash indexes) at the end of the run — the checker keeps no
  // live machine per state, so this is the scaling-relevant number. The
  // store holds the admitted states alone: a truncated run does not store
  // the successors the budget refused. It is appended to in canonical
  // order, so its size is the same at every thread count.
  std::size_t peak_state_bytes = 0;
  // RestoreFullState calls the run made: one per successor it applies, for
  // expanded and frontier states alike (a state's own COLOUR, NEXTOP and Φ
  // are read from the restore that serves its first successor). The class
  // check restores nothing. Deterministic, like the store size: which
  // states get expanded does not depend on the thread count.
  std::uint64_t restore_count = 0;
  // Always 0: the checker no longer steals work. Kept for existing readers.
  std::uint64_t steal_count = 0;
  // The stored-state count, as states_explored: the store is not sharded.
  // Kept for existing readers (perfbench's core.shard_max_load).
  std::size_t shard_max_load = 0;
  // States expanded and restores made by each pool worker.
  // Schedule-dependent, like the phase times below.
  std::vector<std::uint64_t> worker_expanded;
  std::vector<std::uint64_t> worker_restores;
  // Wall-clock nanoseconds of each phase: exploration (with the records of
  // expanded states), the records of a truncated run's frontier, and the
  // class checks; and, within explore_ns, the merge thread's time in Merge
  // (interning successors and records between slices). Diagnostics, not in
  // Summary().
  std::int64_t explore_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t frontier_ns = 0;
  std::int64_t class_check_ns = 0;

  bool Passed() const { return violations.empty(); }
  std::string Summary() const;
};

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options = {});

}  // namespace sep

#endif  // SRC_CORE_EXHAUSTIVE_H_
