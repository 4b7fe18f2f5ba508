#include "src/core/exhaustive.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "src/base/arena.h"
#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/base/thread_pool.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

// The checker is parallel and its report is deterministic by construction.
//
// Exploration is a level-synchronous BFS. Each level is cut into slices of
// kSliceStates states. The pool expands one slice at a time: a worker
// restores the state, applies every successor, records the FAILED checks
// and interns each successor into a sharded content-addressed store
// (ShardedStateStore below). After the slice barrier one merge thread walks
// the slice in canonical order. It numbers new states first-come, counts
// transitions, checks and violations, and applies the two cut rules:
// max_violations is tested between states, and the state budget is tested
// before a state is admitted. Pair checking works the same way, in waves of
// kPairWave tasks.
//
// Slice and wave sizes are constants, so which states get expanded and
// which pair tasks get computed depends on the system and options alone,
// never on the thread count. Every report field follows from that with no
// replay: ids, violation order, truncation points and transition counts,
// but also restore_count (the RestoreFullState calls actually made) and
// peak_state_bytes (the store actually built).
//
// No live SharedSystem is retained per explored state. Each state exists
// only as its serialized FullState() words; workers reconstruct live
// machines on demand (RestoreFullState) into per-worker scratch instances.

constexpr std::size_t kChunkWords = 64;
// States expanded per parallel slice. Exploration stops at a cut rule only
// between slices, so this bounds the work done past the cut.
constexpr std::size_t kSliceStates = 64;
// Φ-equal pair tasks checked per parallel wave. Pair tasks are cheap, so
// waves are wide: each one costs a pool barrier.
constexpr std::size_t kPairWave = 8192;

// Trace payload words are 16-bit; saturate rather than wrap so a reader can
// tell "at least 65535" from a small value.
Word SaturateWord(std::size_t value) {
  return static_cast<Word>(std::min<std::size_t>(value, 0xFFFF));
}

// Compact interned storage for serialized states, sharded for concurrent
// growth. Serializations are cut into kChunkWords-word chunks at fixed
// offsets; each distinct chunk is stored once. Chunks and states live in
// separate shard spaces, each routed by the top bits of the content hash
// (ShardForHash), so the layout of a finished store is a pure function of
// the state SET — identical for every thread count.
//
// A state record is its packed chunk-ref list plus exact word count. Because
// chunk ids are content-addressed within a run, two equal serializations
// always produce identical ref lists, so state equality is a cheap ref-list
// memcmp that never touches the chunk shards (no nested locks).
//
// Capacity determinism: every growable vector starts from a fixed reserved
// base large enough that growth is pure doubling (appends are ≤ kChunkWords
// words), making each shard's capacity — and thus bytes() — a function of
// its final contents, not of insertion order.
class ShardedStateStore {
 public:
  ShardedStateStore() {
    for (std::size_t s = 0; s < kShardCount; ++s) {
      state_data_[s].chunk_refs.reserve(1024);
      state_data_[s].ref_offsets.reserve(256);
      state_data_[s].lens.reserve(256);
      state_data_[s].hashes.reserve(256);
      chunk_data_[s].words.reserve(4096);
      chunk_data_[s].offsets.reserve(256);
      chunk_data_[s].hashes.reserve(256);
    }
  }

  // Any thread. Returns the packed id of the chunk with this content,
  // interning it if new.
  std::uint32_t InternChunk(std::uint64_t hash, const Word* words, std::size_t count) {
    const std::size_t s = ShardForHash(hash);
    ChunkShardData& d = chunk_data_[s];
    const std::int32_t packed =
        chunk_index_
            .FindOrInsert(
                hash,
                [&](std::int32_t local) {
                  const std::size_t i = static_cast<std::size_t>(local);
                  return d.hashes[i] == hash && d.offsets[i + 1] - d.offsets[i] == count &&
                         std::memcmp(d.words.data() + d.offsets[i], words,
                                     count * sizeof(Word)) == 0;
                },
                [&]() {
                  const std::size_t local = d.hashes.size();
                  SEP_CHECK(local <= kShardLocalMax);
                  d.words.insert(d.words.end(), words, words + count);
                  d.offsets.push_back(static_cast<std::uint32_t>(d.words.size()));
                  d.hashes.push_back(hash);
                  return local;
                },
                [&](std::int32_t existing) { return d.hashes[static_cast<std::size_t>(existing)]; })
            .first;
    return static_cast<std::uint32_t>(packed);
  }

  // Any thread. `refs` is the state's packed chunk-ref list; `len` its exact
  // word count; `hash` the hash of the full serialization. Returns the
  // state's packed id, interning it if new.
  std::int32_t InternState(std::uint64_t hash, const std::uint32_t* refs, std::size_t nrefs,
                           std::size_t len) {
    const std::size_t s = ShardForHash(hash);
    StateShardData& d = state_data_[s];
    return state_index_
        .FindOrInsert(
            hash,
            [&](std::int32_t local) {
              const std::size_t i = static_cast<std::size_t>(local);
              return d.hashes[i] == hash && d.lens[i] == len &&
                     d.ref_offsets[i + 1] - d.ref_offsets[i] == nrefs &&
                     std::memcmp(d.chunk_refs.data() + d.ref_offsets[i], refs,
                                 nrefs * sizeof(std::uint32_t)) == 0;
            },
            [&]() {
              const std::size_t local = d.hashes.size();
              SEP_CHECK(local <= kShardLocalMax);
              d.chunk_refs.insert(d.chunk_refs.end(), refs, refs + nrefs);
              d.ref_offsets.push_back(static_cast<std::uint32_t>(d.chunk_refs.size()));
              d.lens.push_back(static_cast<std::uint32_t>(len));
              d.hashes.push_back(hash);
              return local;
            },
            [&](std::int32_t existing) { return d.hashes[static_cast<std::size_t>(existing)]; })
        .first;
  }

  // After the last intern, lock-free reads: the phase barrier between
  // exploration and pair checking provides the happens-before edge.
  void Freeze() { frozen_ = true; }

  // Reconstructs state `packed`'s serialized words into `out` (its chunk-ref
  // list lands in `refs`). Thread-safe: locks shards unless frozen.
  void MaterializeState(std::int32_t packed, std::vector<std::uint32_t>& refs,
                        std::vector<Word>& out) const {
    const std::size_t s = ShardOfId(packed);
    const std::size_t local = LocalOfId(packed);
    const StateShardData& d = state_data_[s];
    std::size_t len = 0;
    {
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(state_index_.shard(s).mu);
      }
      refs.assign(d.chunk_refs.begin() + d.ref_offsets[local],
                  d.chunk_refs.begin() + d.ref_offsets[local + 1]);
      len = d.lens[local];
    }
    out.clear();
    out.reserve(len);
    for (const std::uint32_t ref : refs) {
      const std::size_t cs = ShardOfId(static_cast<std::int32_t>(ref));
      const std::size_t cl = LocalOfId(static_cast<std::int32_t>(ref));
      const ChunkShardData& cd = chunk_data_[cs];
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(chunk_index_.shard(cs).mu);
      }
      out.insert(out.end(), cd.words.begin() + cd.offsets[cl], cd.words.begin() + cd.offsets[cl + 1]);
    }
    SEP_CHECK(out.size() == len);
  }

  std::size_t shard_max_load() const { return state_index_.max_load(); }

  // Resident footprint: arenas, per-state tables and hash indexes.
  std::size_t bytes() const {
    std::size_t total = state_index_.bytes() + chunk_index_.bytes();
    for (std::size_t s = 0; s < kShardCount; ++s) {
      const StateShardData& sd = state_data_[s];
      const ChunkShardData& cd = chunk_data_[s];
      total += sd.chunk_refs.capacity() * sizeof(std::uint32_t) +
               sd.ref_offsets.capacity() * sizeof(std::uint32_t) +
               sd.lens.capacity() * sizeof(std::uint32_t) +
               sd.hashes.capacity() * sizeof(std::uint64_t) +
               cd.words.capacity() * sizeof(Word) +
               cd.offsets.capacity() * sizeof(std::uint32_t) +
               cd.hashes.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

 private:
  struct StateShardData {
    // State i's chunk refs occupy chunk_refs[ref_offsets[i] ..
    // ref_offsets[i + 1]).
    std::vector<std::uint32_t> chunk_refs;
    std::vector<std::uint32_t> ref_offsets{0};
    std::vector<std::uint32_t> lens;
    std::vector<std::uint64_t> hashes;
  };
  struct ChunkShardData {
    // Chunk i occupies words[offsets[i] .. offsets[i + 1]).
    std::vector<Word> words;
    std::vector<std::uint32_t> offsets{0};
    std::vector<std::uint64_t> hashes;
  };

  ShardedIndex state_index_;
  ShardedIndex chunk_index_;
  std::array<StateShardData, kShardCount> state_data_;
  std::array<ChunkShardData, kShardCount> chunk_data_;
  bool frozen_ = false;
};

// Per-worker direct-mapped cache of hot chunks. Most successors of one
// state share almost all chunks with it, so this makes the common-chunk
// intern path lock-free. Sound by construction: a hit requires a full
// content memcmp, never hash identity alone — a silent collision in a
// verification tool is not an acceptable failure mode.
struct ChunkCache {
  static constexpr std::size_t kEntries = 512;
  struct Entry {
    std::uint64_t hash = 0;
    std::int64_t ref = -1;
    std::uint32_t len = 0;
  };
  std::vector<Entry> entries = std::vector<Entry>(kEntries);
  std::vector<Word> words = std::vector<Word>(kEntries * kChunkWords);
};

std::uint32_t InternChunkCached(ShardedStateStore& store, ChunkCache& cache, const Word* words,
                                std::size_t count) {
  const std::uint64_t hash = HashWords(words, count);
  // Shard routing consumes the TOP hash bits; the cache slot uses the low
  // bits so cache placement and shard placement stay independent.
  ChunkCache::Entry& e = cache.entries[hash & (ChunkCache::kEntries - 1)];
  Word* const slot = cache.words.data() + (hash & (ChunkCache::kEntries - 1)) * kChunkWords;
  if (e.ref >= 0 && e.hash == hash && e.len == count &&
      std::memcmp(slot, words, count * sizeof(Word)) == 0) {
    return static_cast<std::uint32_t>(e.ref);
  }
  const std::uint32_t ref = store.InternChunk(hash, words, count);
  e.hash = hash;
  e.ref = ref;
  e.len = static_cast<std::uint32_t>(count);
  std::memcpy(slot, words, count * sizeof(Word));
  return ref;
}

// What a worker records for one expanded state, in canonical successor
// order: the operation, then each input value into each unit, then each
// unit's activity. Passing checks are only counted.
struct Expansion {
  std::vector<std::int32_t> succs;   // packed successor ids
  std::vector<std::uint8_t> checks;  // checks evaluated per successor
  struct Fail {
    std::uint32_t ordinal;  // index into succs
    Violation violation;
  };
  std::vector<Fail> fails;  // in check order
};

// What a worker records for one Φ-equal pair task.
struct PairOutcome {
  std::array<std::uint32_t, 7> checks{};  // per condition
  std::vector<Violation> fails;           // in check order
};

class ExhaustiveRun {
 public:
  ExhaustiveRun(const SharedSystem& initial, const ExhaustiveOptions& options)
      : options_(options),
        initial_(initial.Clone()),
        store_(std::make_unique<ShardedStateStore>()),
        pool_(options.threads) {
    scratch_.resize(static_cast<std::size_t>(pool_.size()));
    colours_ = initial_->ColourCount();
    units_ = initial_->UnitCount();
  }

  ExhaustiveReport Run() {
    std::optional<std::vector<Word>> init_key = initial_->FullState();
    if (!init_key.has_value()) {
      report_.violations.push_back(
          {0, kColourNone, 0, "system does not support FullState(); exhaustive mode needs it"});
      return std::move(report_);
    }
    // Probe restore support once, by restoring the initial state onto a
    // throwaway clone (self-restore would mask asymmetric encodings).
    if (!initial_->Clone()->RestoreFullState(*init_key)) {
      report_.violations.push_back({0, kColourNone, 0,
                                    "system does not support RestoreFullState(); the compact "
                                    "exhaustive checker needs it"});
      return std::move(report_);
    }

    Explore(Intern(ScratchHere(), *init_key));
    store_->Freeze();
    if (report_.complete || canon_to_packed_.size() <= options_.max_states) {
      CheckPairs();
    }
    if (report_.pairs_skipped != 0) {
      report_.complete = false;
    }

    report_.states_explored = canon_to_packed_.size();
    report_.peak_state_bytes = store_->bytes();
    report_.shard_max_load = store_->shard_max_load();
    report_.worker_expanded.resize(scratch_.size());
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      report_.restore_count += scratch_[w].restores;
      report_.worker_expanded[w] = scratch_[w].expanded;
    }
    // Gauges are always on (like every other module's counters); only the
    // trace recorder is gated by obs::Enabled().
    obs::Metrics().GetGauge("exhaustive.states").Set(report_.states_explored);
    obs::Metrics().GetGauge("exhaustive.transitions").Set(report_.transitions);
    obs::Metrics().GetGauge("exhaustive.pairs_checked").Set(report_.pairs_checked);
    obs::Metrics().GetGauge("exhaustive.restore_count").Set(report_.restore_count);
    obs::Metrics().GetGauge("exhaustive.peak_state_bytes").Set(report_.peak_state_bytes);
    obs::Metrics().GetGauge("exhaustive.shard_max_load").Set(report_.shard_max_load);
    // Per-worker counters expose load balance across the pool; they are
    // the only schedule-dependent numbers the checker exports.
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      obs::Metrics()
          .GetGauge(Format("exhaustive.worker%zu.expanded", w))
          .Set(report_.worker_expanded[w]);
      obs::Metrics()
          .GetGauge(Format("exhaustive.worker%zu.restores", w))
          .Set(scratch_[w].restores);
    }
    return std::move(report_);
  }

 private:
  // Per-worker scratch: two live systems reconstructed on demand plus the
  // reusable buffers of every hot loop. Indexed by the pool's worker index;
  // never touched by two threads at once.
  struct Scratch {
    std::unique_ptr<SharedSystem> base;  // the "from" / first-of-pair state
    std::unique_ptr<SharedSystem> work;  // mutated per successor / per probe
    std::vector<Word> key_a;             // materialized serializations
    std::vector<Word> key_b;
    std::vector<Word> ser;    // successor serialization scratch
    std::vector<Word> phi_a;  // abstraction scratch
    std::vector<Word> phi_b;
    std::vector<std::vector<Word>> before_phi;  // per-colour Φ of the from state
    std::vector<std::uint32_t> refs_a;          // chunk-ref scratch (materialize)
    std::vector<std::uint32_t> refs_b;
    std::vector<std::uint32_t> intern_refs;  // chunk-ref scratch (intern)
    ChunkCache cache;
    std::uint64_t restores = 0;
    std::uint64_t expanded = 0;
  };

  Scratch& ScratchHere() {
    Scratch& sc = scratch_[static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex())];
    if (sc.base == nullptr) {
      sc.base = initial_->Clone();
      sc.work = initial_->Clone();
      sc.before_phi.resize(static_cast<std::size_t>(colours_));
    }
    return sc;
  }

  static void Restore(SharedSystem& sys, std::span<const Word> key, Scratch& sc) {
    const bool ok = sys.RestoreFullState(key);
    SEP_CHECK(ok);
    ++sc.restores;
  }

  // Chunks `key` and interns the state; any thread.
  std::int32_t Intern(Scratch& sc, const std::vector<Word>& key) {
    sc.intern_refs.clear();
    for (std::size_t base = 0; base < key.size(); base += kChunkWords) {
      sc.intern_refs.push_back(InternChunkCached(*store_, sc.cache, key.data() + base,
                                                 std::min(kChunkWords, key.size() - base)));
    }
    return store_->InternState(HashWords(key.data(), key.size()), sc.intern_refs.data(),
                               sc.intern_refs.size(), key.size());
  }

  // Appends Φ^colour of `sys` into `buf` (cleared first) and compares it
  // against `expected`.
  static bool SamePhi(const SharedSystem& sys, int colour, std::vector<Word>& buf,
                      const std::vector<Word>& expected) {
    buf.clear();
    sys.AppendAbstract(colour, buf);
    return buf == expected;
  }

  // --- exploration: workers expand, the merge thread numbers ---

  // One successor of the state held in sc.key_a: reconstructs it in
  // sc.work, applies `mutate`, checks condition `cond` (Φ of every colour
  // but `exempt` is unchanged) and interns the result.
  template <typename Mutate, typename Describe>
  void Successor(Scratch& sc, Expansion& e, int cond, int exempt, Mutate mutate,
                 Describe describe) {
    const auto ordinal = static_cast<std::uint32_t>(e.succs.size());
    Restore(*sc.work, sc.key_a, sc);
    mutate(*sc.work);
    // A from-state whose active colour is outside the regime range (e.g.
    // kernel mode) is checked against every colour, so the count varies.
    std::uint8_t checks = 0;
    for (int c = 0; c < colours_; ++c) {
      if (c == exempt) {
        continue;
      }
      ++checks;
      if (!SamePhi(*sc.work, c, sc.phi_b, sc.before_phi[static_cast<std::size_t>(c)])) {
        e.fails.push_back({ordinal, {cond, c, 0, describe(c)}});
      }
    }
    e.checks.push_back(checks);
    sc.ser.clear();
    sc.work->AppendFullState(sc.ser);
    e.succs.push_back(Intern(sc, sc.ser));
  }

  // Every successor of one state, in canonical order; conditions (2) and (4)
  // are checked on each transition.
  void ExpandOne(std::int32_t from, Expansion& e) {
    Scratch& sc = ScratchHere();
    e.succs.clear();
    e.checks.clear();
    e.fails.clear();
    ++sc.expanded;

    store_->MaterializeState(from, sc.refs_a, sc.key_a);
    Restore(*sc.base, sc.key_a, sc);
    for (int c = 0; c < colours_; ++c) {
      sc.before_phi[static_cast<std::size_t>(c)].clear();
      sc.base->AppendAbstract(c, sc.before_phi[static_cast<std::size_t>(c)]);
    }

    // (a) the operation NEXTOP(s).
    const int active = sc.base->Colour();
    Successor(
        sc, e, 2, active, [](SharedSystem& sys) { sys.ExecuteOperation(); },
        [&](int c) { return Format("operation of colour %d changed Φ of colour %d", active, c); });

    // (b) every input in the alphabet, into every unit.
    for (int unit = 0; unit < units_; ++unit) {
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        Successor(
            sc, e, 4, initial_->UnitColour(unit),
            [&](SharedSystem& sys) { sys.InjectInput(unit, static_cast<Word>(value)); },
            [&](int c) { return Format("input to unit %d visible to colour %d", unit, c); });
      }
    }

    // (c) every unit's activity.
    for (int unit = 0; unit < units_; ++unit) {
      Successor(
          sc, e, 4, initial_->UnitColour(unit),
          [&](SharedSystem& sys) {
            sys.StepUnit(unit);
            (void)sys.DrainOutput(unit);  // keep the state space bounded
          },
          [&](int c) { return Format("activity of unit %d visible to colour %d", unit, c); });
    }
  }

  // Canonical id of packed state `packed`, or -1 while it is unnumbered.
  // The per-shard tables grow with the store.
  std::int32_t& CanonSlot(std::int32_t packed) {
    std::vector<std::int32_t>& shard = canon_of_[ShardOfId(packed)];
    const std::size_t local = LocalOfId(packed);
    if (local >= shard.size()) {
      shard.resize(local + 1, -1);
    }
    return shard[local];
  }

  bool Done() const {
    return static_cast<int>(report_.violations.size()) >= options_.max_violations;
  }

  void CountViolation(const Violation& v) {
    ++report_.conditions[static_cast<std::size_t>(v.condition)].violations;
    if (static_cast<int>(report_.violations.size()) < options_.max_violations) {
      report_.violations.push_back(v);
    }
  }

  // Consumes one expansion in successor order. Done() is not tested inside
  // a state's successor list; the state budget is, before each admission.
  void Merge(const Expansion& e) {
    std::size_t fi = 0;
    for (std::uint32_t ord = 0; ord < e.succs.size(); ++ord) {
      ++report_.transitions;
      // The operation successor comes first (condition 2); inputs and unit
      // activity follow (condition 4).
      report_.conditions[ord == 0 ? 2 : 4].checks += e.checks[ord];
      for (; fi < e.fails.size() && e.fails[fi].ordinal == ord; ++fi) {
        CountViolation(e.fails[fi].violation);
      }
      std::int32_t& canon = CanonSlot(e.succs[ord]);
      if (canon < 0) {
        if (canon_to_packed_.size() >= options_.max_states) {
          overflowed_ = true;
          return;
        }
        canon = static_cast<std::int32_t>(canon_to_packed_.size());
        canon_to_packed_.push_back(e.succs[ord]);
      }
    }
  }

  // Level-synchronous BFS. Canonical ids are handed out in BFS order, so
  // each level is the id range its predecessor level admitted.
  void Explore(std::int32_t initial_id) {
    CanonSlot(initial_id) = 0;
    canon_to_packed_.push_back(initial_id);
    std::vector<Expansion> slice(kSliceStates);
    std::size_t level_begin = 0;
    std::size_t depth = 0;
    while (level_begin < canon_to_packed_.size() && !Done() && !overflowed_) {
      const std::size_t level_end = canon_to_packed_.size();
      // One heartbeat per BFS level: tick carries the canonical store size
      // (states may exceed a Word), a0/a1 the saturated level width/depth.
      if (obs::Enabled()) {
        obs::Emit(obs::Category::kChecker, obs::Code::kHeartbeat, obs::kColourKernel, level_end,
                  SaturateWord(level_end - level_begin), SaturateWord(depth));
      }
      ++depth;
      for (std::size_t base = level_begin; base < level_end && !Done() && !overflowed_;
           base += kSliceStates) {
        const std::size_t count = std::min(kSliceStates, level_end - base);
        pool_.ParallelFor(count,
                          [&](std::size_t i) { ExpandOne(canon_to_packed_[base + i], slice[i]); });
        for (std::size_t i = 0; i < count && !Done() && !overflowed_; ++i) {
          Merge(slice[i]);
        }
      }
      level_begin = level_end;
    }
    report_.complete = level_begin == canon_to_packed_.size() && !overflowed_ && !Done();
  }

  // --- pair phase ---

  // The checks of conditions 6, 1, 3 and 5 for one Φ-equal pair. `a`/`b`
  // are canonical ids.
  void CheckPair(int c, std::int32_t a, std::int32_t b, PairOutcome& out) {
    Scratch& sc = ScratchHere();
    out.checks.fill(0);
    out.fails.clear();
    const auto fail = [&](int cond, std::string description) {
      out.fails.push_back({cond, c, 0, std::move(description)});
    };
    // Reconstructs a into sc.base and b into sc.work. A task that checks
    // nothing (colours differ, no unit of colour c) never materializes.
    bool materialized = false;
    const auto restore_pair = [&] {
      if (!materialized) {
        store_->MaterializeState(canon_to_packed_[static_cast<std::size_t>(a)], sc.refs_a,
                                 sc.key_a);
        store_->MaterializeState(canon_to_packed_[static_cast<std::size_t>(b)], sc.refs_b,
                                 sc.key_b);
        materialized = true;
      }
      Restore(*sc.base, sc.key_a, sc);
      Restore(*sc.work, sc.key_b, sc);
    };
    // Checks Φ^c of sc.base against Φ^c of sc.work (condition `cond`).
    const auto same_effect = [&](int cond) {
      ++out.checks[static_cast<std::size_t>(cond)];
      sc.phi_a.clear();
      sc.base->AppendAbstract(c, sc.phi_a);
      return SamePhi(*sc.work, c, sc.phi_b, sc.phi_a);
    };
    // Conditions 6 and 1: same colour + same Φ^c.
    if (state_colours_[static_cast<std::size_t>(a)] == c &&
        state_colours_[static_cast<std::size_t>(b)] == c) {
      restore_pair();
      const OperationId na = sc.base->NextOperation();
      const OperationId nb = sc.work->NextOperation();
      ++out.checks[6];
      if (na != nb) {
        fail(6, Format("NEXTOP differs for Φ-equal states of colour %d: %s vs %s", c,
                       na.ToString().c_str(), nb.ToString().c_str()));
      }
      sc.base->ExecuteOperation();
      sc.work->ExecuteOperation();
      if (!same_effect(1)) {
        fail(1, Format("operation effect on colour %d differs across Φ-equal states", c));
      }
    }

    // Conditions 3 and 5 for each unit of colour c.
    for (int unit = 0; unit < units_; ++unit) {
      if (initial_->UnitColour(unit) != c) {
        continue;
      }
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        restore_pair();
        sc.base->InjectInput(unit, static_cast<Word>(value));
        sc.work->InjectInput(unit, static_cast<Word>(value));
        if (!same_effect(3)) {
          fail(3, Format("input effect on colour %d differs across Φ-equal states", c));
        }
      }
      restore_pair();
      sc.base->StepUnit(unit);
      sc.work->StepUnit(unit);
      if (!same_effect(3)) {
        fail(3, Format("unit activity on colour %d differs across Φ-equal states", c));
      }
      ++out.checks[5];
      if (sc.base->DrainOutput(unit) != sc.work->DrainOutput(unit)) {
        fail(5, Format("output of colour %d differs across Φ-equal states", c));
      }
    }
  }

  // Conditions with a two-state antecedent, over every Φ-equal pair. Tasks
  // are enumerated in canonical order and computed in waves; the merge
  // tests Done() between tasks.
  void CheckPairs() {
    const std::size_t n = canon_to_packed_.size();

    struct PairTask {
      std::int32_t a;
      std::int32_t b;
    };
    std::vector<std::vector<Word>> phis(n);
    std::vector<int> order(n);
    state_colours_.assign(n, kColourNone);
    std::vector<PairTask> tasks;
    std::vector<std::pair<std::size_t, std::size_t>> capped;
    std::vector<PairOutcome> wave(kPairWave);

    for (int c = 0; c < colours_ && !Done(); ++c) {
      // Group reachable states by Φ^c. Each worker reconstructs the state
      // in its scratch system, computes Φ^c once into the per-state slot
      // and (on the first colour) records COLOUR(s) so the pair probes can
      // test their condition-6/1 antecedent without a restore.
      pool_.ParallelFor(n, [&](std::size_t i) {
        Scratch& sc = ScratchHere();
        store_->MaterializeState(canon_to_packed_[i], sc.refs_a, sc.key_a);
        Restore(*sc.base, sc.key_a, sc);
        if (c == 0) {
          state_colours_[i] = static_cast<std::int8_t>(sc.base->Colour());
        }
        phis[i].clear();
        sc.base->AppendAbstract(c, phis[i]);
      });

      // Enumerate pairs in canonical order: groups by ascending Φ key,
      // members by ascending state id, pairs lexicographically within a
      // group, capped per group. `capped` records each group the cap cut:
      // the end of its tasks and the pairs it lost.
      for (std::size_t i = 0; i < n; ++i) {
        order[i] = static_cast<int>(i);
      }
      std::sort(order.begin(), order.end(), [&](int a, int b) {
        if (phis[static_cast<std::size_t>(a)] != phis[static_cast<std::size_t>(b)]) {
          return phis[static_cast<std::size_t>(a)] < phis[static_cast<std::size_t>(b)];
        }
        return a < b;
      });

      tasks.clear();
      capped.clear();
      for (std::size_t begin = 0; begin < n;) {
        std::size_t end = begin + 1;
        while (end < n && phis[static_cast<std::size_t>(order[end])] ==
                              phis[static_cast<std::size_t>(order[begin])]) {
          ++end;
        }
        std::size_t pairs = 0;
        for (std::size_t a = begin; a < end; ++a) {
          for (std::size_t b = a + 1; b < end; ++b) {
            if (++pairs > options_.max_pairs_per_group) {
              break;
            }
            tasks.push_back({order[a], order[b]});
          }
        }
        const std::size_t group_pairs = (end - begin) * (end - begin - 1) / 2;
        if (group_pairs > options_.max_pairs_per_group) {
          capped.push_back({tasks.size(), group_pairs - options_.max_pairs_per_group});
        }
        begin = end;
      }

      const std::size_t checked_before = report_.pairs_checked;
      for (std::size_t base = 0; base < tasks.size() && !Done(); base += kPairWave) {
        const std::size_t count = std::min(kPairWave, tasks.size() - base);
        pool_.ParallelFor(count, [&](std::size_t i) {
          CheckPair(c, tasks[base + i].a, tasks[base + i].b, wave[i]);
        });
        for (std::size_t i = 0; i < count && !Done(); ++i) {
          ++report_.pairs_checked;
          for (std::size_t cond = 0; cond < wave[i].checks.size(); ++cond) {
            report_.conditions[cond].checks += wave[i].checks[cond];
          }
          for (const Violation& v : wave[i].fails) {
            CountViolation(v);
          }
        }
      }
      // A run that stops at max_violations counts the pairs cut from the
      // groups it finished, not from those it never reached.
      const std::size_t checked = report_.pairs_checked - checked_before;
      for (const auto& [tasks_end, cut] : capped) {
        if (tasks_end <= checked) {
          report_.pairs_skipped += cut;
        }
      }
    }
  }

  const ExhaustiveOptions& options_;
  std::unique_ptr<SharedSystem> initial_;
  std::unique_ptr<ShardedStateStore> store_;
  int colours_ = 0;
  int units_ = 0;
  ThreadPool pool_;
  std::vector<Scratch> scratch_;

  // Merge-thread-only canonical state.
  std::array<std::vector<std::int32_t>, kShardCount> canon_of_;  // packed -> canon id
  std::vector<std::int32_t> canon_to_packed_;                    // canon id -> packed
  std::vector<std::int8_t> state_colours_;  // COLOUR(s) per canon id (CheckPairs)
  bool overflowed_ = false;
  ExhaustiveReport report_;
};

}  // namespace

std::string ExhaustiveReport::Summary() const {
  std::string out =
      Format("%zu states, %zu transitions, %zu pairs", states_explored, transitions, pairs_checked);
  if (pairs_skipped != 0) {
    out += Format(" (%zu skipped by the pair cap)", pairs_skipped);
  }
  out += complete ? ", COMPLETE: " : ", partial: ";
  for (int cond = 1; cond <= 6; ++cond) {
    const ConditionStats& s = conditions[static_cast<std::size_t>(cond)];
    out += Format("C%d %llu/%llu ", cond, static_cast<unsigned long long>(s.violations),
                  static_cast<unsigned long long>(s.checks));
  }
  out += Passed() ? "=> SEPARABLE" : "=> VIOLATIONS";
  return out;
}

ExhaustiveReport CheckSeparabilityExhaustive(const SharedSystem& system,
                                             const ExhaustiveOptions& options) {
  return ExhaustiveRun(system, options).Run();
}

}  // namespace sep
