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
// Exploration is a breadth-first search on one thread: each state is
// expanded in id order, and each successor is admitted into the state store
// as soon as it is produced, so the report is a function of the system and
// the options alone.
//
// Requires SharedSystem::FullState() support (a canonical serialization of
// the complete concrete state) and its inverse RestoreFullState(): the
// checker stores only the serialized words — deduplicated chunks of
// kStateChunkWords words in a flat arena — and reconstructs a live system on
// demand into one scratch instance, so peak memory is O(serialized words),
// not O(live machines). Each successor is stored as its parent's chunks with
// the ones that differ put in, and only those are hashed; every equality
// test compares words (PERFORMANCE.md §4). Where the system keeps a
// dirty-chunk record (SharedSystem::DirtyChunks; a KernelizedSystem's is its
// memory's dirty pages), a restore copies, and a transition serializes and
// compares, only the chunks it wrote and the tail (PERFORMANCE.md §14).
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
  // Has no effect: the checker runs on one thread. Kept only because
  // perfbench's `verify` workload assigns it, and perfbench changes only
  // with its benchmark (ROADMAP item 5, step 1); nothing else may set it.
  int threads = 1;
  // Has no effect: exploration has no steal schedule to perturb. Kept, and
  // not to be set, for the same reason as `threads`.
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
  // the successors the budget refused. It is appended to in BFS order, so
  // its size is the same on every run.
  std::size_t peak_state_bytes = 0;
  // RestoreFullState calls the run made: one per successor it applies, for
  // expanded and frontier states alike (a state's own COLOUR, NEXTOP and Φ
  // are read from the restore that serves its first successor), and none
  // for a state past a cut. The class check restores nothing.
  std::uint64_t restore_count = 0;
  // The dirty-chunk record's work, in chunks of the serialized state
  // (diagnostics, not in Summary()). pages_restored: chunks below the
  // system's tail that restores copied, because the scratch system wrote
  // them or held another state's chunk there (memory pages, for a
  // KernelizedSystem; the first restore copies them all). chunks_compared
  // and chunks_changed: chunks Diff compared over every transition, the
  // written ones and the tail, and those it found changed. A system without
  // the record has its tail at chunk 0: it reads 0 pages restored, and
  // every chunk of every transition is compared.
  std::uint64_t pages_restored = 0;
  std::uint64_t chunks_compared = 0;
  std::uint64_t chunks_changed = 0;
  // Always 0: the checker does not steal work. Kept only because perfbench's
  // `verify` workload reads it (core.steals), as ExhaustiveOptions::threads.
  std::uint64_t steal_count = 0;
  // The stored-state count, as states_explored: the store is not sharded.
  // Kept only because perfbench's `verify` workload reads it
  // (core.shard_max_load), as ExhaustiveOptions::threads.
  std::size_t shard_max_load = 0;
  // Wall-clock nanoseconds of each phase: exploration (with the records of
  // expanded states), the records of a truncated run's frontier, and the
  // class checks. Diagnostics, not in Summary().
  std::int64_t explore_ns = 0;
  std::int64_t frontier_ns = 0;
  std::int64_t class_check_ns = 0;

  bool Passed() const { return violations.empty(); }
  std::string Summary() const;
};

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options = {});

}  // namespace sep

#endif  // SRC_CORE_EXHAUSTIVE_H_
