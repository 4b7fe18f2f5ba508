#include "src/core/exhaustive.h"

#include <algorithm>
#include <array>
#include <chrono>
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
// before a state is admitted.
//
// While it expands a state, the worker also takes the state's record:
// everything of it that conditions (6), (1), (3) and (5) read. The merge
// thread interns each field into a class id by exact word content. After
// exploration the class check decides those conditions once per
// (colour, Φ-group) from the records alone, with no restore.
//
// The slice size is a constant, so which states get expanded depends on the
// system and options alone, never on the thread count. Every report field
// follows from that with no replay: ids, violation order, truncation points
// and transition counts, but also restore_count (the RestoreFullState calls
// actually made) and peak_state_bytes (the store actually built).
//
// No live SharedSystem is retained per explored state. Each state exists
// only as its serialized FullState() words; each worker reconstructs it
// on demand (RestoreFullState) into one scratch instance, once per
// successor it applies: the state's own record fields are read from the
// restore that serves its first successor. A successor differs from its
// parent in a few chunks, so interning it hashes and looks up only those
// (Intern), and materializing a state copies only the chunks that differ
// from the worker's last one (MaterializeState). The state hash is a sum
// of position-salted per-chunk terms (ChunkTerm), so a successor's hash is
// its parent's with the differing chunks' terms swapped.

constexpr std::size_t kChunkWords = 64;
// Chunks compared at once when a successor is interned (Intern).
constexpr std::size_t kScanChunks = 8;
// States expanded per parallel slice. Exploration stops at a cut rule only
// between slices, so this bounds the work done past the cut.
constexpr std::size_t kSliceStates = 64;

// Trace payload words are 16-bit; saturate rather than wrap so a reader can
// tell "at least 65535" from a small value.
Word SaturateWord(std::size_t value) {
  return static_cast<Word>(std::min<std::size_t>(value, 0xFFFF));
}

// One stored state as a worker holds it: its words, its state hash and,
// per kChunkWords-word chunk at fixed offsets, the chunk's ref and hash.
struct Materialized {
  std::vector<Word> words;
  std::uint64_t hash = 0;
  std::vector<std::uint32_t> refs;
  std::vector<std::uint64_t> hashes;
};

// The state hash is a sum: a term for the length plus one term per chunk,
// salted by the chunk's position. It is a function of the words alone, and
// a successor of the same length gets its hash from its parent's by
// swapping the terms of the chunks that differ.
std::uint64_t LengthTerm(std::size_t len) { return Mix64(len); }

std::uint64_t ChunkTerm(std::size_t index, std::uint64_t chunk_hash) {
  return Mix64(chunk_hash + (index + 1) * 0x9E3779B97F4A7C15ULL);
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
// Capacity determinism: one-element appends grow a vector from its reserved
// base by doubling, and the many-word appends (ref lists, chunks of any
// length) to the smallest power-of-two multiple of their base that fits
// (Grow). Each shard's capacity — and thus bytes() — is then a function of
// its final contents, not of the order in which workers appended.
class ShardedStateStore {
 public:
  ShardedStateStore() {
    for (std::size_t s = 0; s < kShardCount; ++s) {
      state_data_[s].ref_offsets.reserve(256);
      state_data_[s].lens.reserve(256);
      state_data_[s].hashes.reserve(256);
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
                  Grow(d.words, 4096, count);
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
  // word count; `hash` the state hash Intern computed. Returns the state's
  // packed id, interning it if new.
  std::int32_t InternState(std::uint64_t hash, std::span<const std::uint32_t> refs,
                           std::size_t len) {
    const std::size_t s = ShardForHash(hash);
    StateShardData& d = state_data_[s];
    return state_index_
        .FindOrInsert(
            hash,
            [&](std::int32_t local) {
              const std::size_t i = static_cast<std::size_t>(local);
              return d.hashes[i] == hash && d.lens[i] == len &&
                     d.ref_offsets[i + 1] - d.ref_offsets[i] == refs.size() &&
                     std::memcmp(d.chunk_refs.data() + d.ref_offsets[i], refs.data(),
                                 refs.size_bytes()) == 0;
            },
            [&]() {
              const std::size_t local = d.hashes.size();
              SEP_CHECK(local <= kShardLocalMax);
              Grow(d.chunk_refs, 1024, refs.size());
              d.chunk_refs.insert(d.chunk_refs.end(), refs.begin(), refs.end());
              d.ref_offsets.push_back(static_cast<std::uint32_t>(d.chunk_refs.size()));
              d.lens.push_back(static_cast<std::uint32_t>(len));
              d.hashes.push_back(hash);
              return local;
            },
            [&](std::int32_t existing) { return d.hashes[static_cast<std::size_t>(existing)]; })
        .first;
  }

  // After the last intern, lock-free reads: the phase barrier between
  // exploration and the frontier records provides the happens-before edge.
  void Freeze() { frozen_ = true; }

  // Reconstructs state `packed` into `m`, which holds the caller's previous
  // materialization. Refs are content-addressed, so only the chunks whose
  // ref differs are copied, each under its shard lock unless frozen. `next`
  // is scratch for the new ref list.
  void MaterializeState(std::int32_t packed, Materialized& m,
                        std::vector<std::uint32_t>& next) const {
    const std::size_t s = ShardOfId(packed);
    const std::size_t local = LocalOfId(packed);
    const StateShardData& d = state_data_[s];
    std::size_t len = 0;
    {
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(state_index_.shard(s).mu);
      }
      next.assign(d.chunk_refs.begin() + d.ref_offsets[local],
                  d.chunk_refs.begin() + d.ref_offsets[local + 1]);
      len = d.lens[local];
      m.hash = d.hashes[local];
    }
    m.words.resize(len);
    m.hashes.resize(next.size());
    for (std::size_t i = 0; i < next.size(); ++i) {
      if (i < m.refs.size() && m.refs[i] == next[i]) {
        continue;
      }
      const std::size_t cs = ShardOfId(static_cast<std::int32_t>(next[i]));
      const std::size_t cl = LocalOfId(static_cast<std::int32_t>(next[i]));
      const ChunkShardData& cd = chunk_data_[cs];
      std::unique_lock<std::mutex> lock;
      if (!frozen_) {
        lock = std::unique_lock<std::mutex>(chunk_index_.shard(cs).mu);
      }
      const std::size_t count = cd.offsets[cl + 1] - cd.offsets[cl];
      SEP_CHECK(count == std::min(kChunkWords, len - i * kChunkWords));
      std::memcpy(m.words.data() + i * kChunkWords, cd.words.data() + cd.offsets[cl],
                  count * sizeof(Word));
      m.hashes[i] = cd.hashes[cl];
    }
    m.refs.swap(next);
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
  // Before appending `count` elements: grows `v` to the smallest
  // power-of-two multiple of `base` that holds them.
  template <typename T>
  static void Grow(std::vector<T>& v, std::size_t base, std::size_t count) {
    std::size_t capacity = base;
    while (capacity < v.size() + count) {
      capacity *= 2;
    }
    v.reserve(capacity);
  }

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

// Exact interning of word strings to dense ids, on one thread. A hit needs
// equal content, never hash identity alone, so equal ids mean equal words.
class WordInterner {
 public:
  std::int32_t Intern(std::uint64_t hash, std::span<const Word> words) {
    const std::int32_t found = index_.Find(hash, [&](std::int32_t id) {
      return hashes_[static_cast<std::size_t>(id)] == hash && std::ranges::equal(Get(id), words);
    });
    if (found >= 0) {
      return found;
    }
    const auto id = static_cast<std::int32_t>(hashes_.size());
    words_.insert(words_.end(), words.begin(), words.end());
    ends_.push_back(words_.size());
    hashes_.push_back(hash);
    index_.Insert(hash, id, [&](std::int32_t i) { return hashes_[static_cast<std::size_t>(i)]; });
    return id;
  }

  std::span<const Word> Get(std::int32_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return {words_.data() + ends_[i], words_.data() + ends_[i + 1]};
  }

  std::size_t size() const { return hashes_.size(); }

 private:
  HashIndex index_;
  std::vector<Word> words_;  // id i occupies words_[ends_[i] .. ends_[i + 1])
  std::vector<std::size_t> ends_{0};
  std::vector<std::uint64_t> hashes_;
};

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
  // The state's record before interning: COLOUR, then each later field as
  // words (see the record layout in ExhaustiveRun).
  int colour = kColourNone;
  struct Field {
    std::size_t end;     // the field's words end at words[end]
    std::uint64_t hash;  // of those words
    int table;           // class table that interns them; -1: field unused
  };
  std::vector<Word> words;
  std::vector<Field> fields;
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
    stride_ = StepField(units_);
    tables_.resize(static_cast<std::size_t>(colours_) + 2);
    units_of_.resize(static_cast<std::size_t>(colours_));
    for (int unit = 0; unit < units_; ++unit) {
      if (InRange(initial_->UnitColour(unit))) {
        units_of_[static_cast<std::size_t>(initial_->UnitColour(unit))].push_back(unit);
      }
    }
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

    const auto timed = [](std::int64_t& ns, auto phase) {
      const auto start = std::chrono::steady_clock::now();
      phase();
      ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
               .count();
    };
    timed(report_.explore_ns, [&] { Explore(Intern(ScratchHere(), *init_key, Materialized{})); });
    store_->Freeze();
    if (!Done()) {
      timed(report_.frontier_ns, [&] { RecordFrontier(); });
      timed(report_.class_check_ns, [&] { CheckClasses(); });
    }

    report_.states_explored = canon_to_packed_.size();
    report_.peak_state_bytes = store_->bytes();
    report_.shard_max_load = store_->shard_max_load();
    report_.worker_expanded.resize(scratch_.size());
    report_.worker_restores.resize(scratch_.size());
    for (std::size_t w = 0; w < scratch_.size(); ++w) {
      report_.restore_count += scratch_[w].restores;
      report_.worker_expanded[w] = scratch_[w].expanded;
      report_.worker_restores[w] = scratch_[w].restores;
    }
    return std::move(report_);
  }

 private:
  // Per-worker scratch: one live system reconstructed on demand plus the
  // reusable buffers of every hot loop. Indexed by the pool's worker index;
  // never touched by two threads at once.
  struct Scratch {
    std::unique_ptr<SharedSystem> work;  // the state, then each successor
    bool work_is_key = false;            // work holds key, not yet mutated
    Materialized key;                    // the state being expanded, as stored
    std::vector<Word> ser;               // successor serialization scratch
    std::vector<Word> phi;               // abstraction scratch
    std::vector<std::uint32_t> refs;     // chunk-ref scratch
    std::uint64_t restores = 0;
    std::uint64_t expanded = 0;
  };

  Scratch& ScratchHere() {
    Scratch& sc = scratch_[static_cast<std::size_t>(ThreadPool::CurrentWorkerIndex())];
    if (sc.work == nullptr) {
      sc.work = initial_->Clone();
    }
    return sc;
  }

  static void Restore(SharedSystem& sys, std::span<const Word> key, Scratch& sc) {
    const bool ok = sys.RestoreFullState(key);
    SEP_CHECK(ok);
    ++sc.restores;
  }

  // Chunks `words` and interns the state; any thread. A chunk whose words
  // equal `parent`'s chunk at the same offset and length takes that chunk's
  // ref; only the chunks that differ are hashed and interned. When the
  // lengths agree, the state hash is the parent's with the differing
  // chunks' terms swapped (ChunkTerm); otherwise it is summed afresh, from
  // the parent's chunk hashes where the chunks match.
  //
  // A successor matches its parent almost everywhere, so the words are
  // compared a block of kScanChunks chunks at a time, and chunk by chunk
  // only inside a block that differs: one compare call per chunk cost more
  // than the compare.
  std::int32_t Intern(Scratch& sc, std::span<const Word> words, const Materialized& parent) {
    const bool incremental = !parent.words.empty() && words.size() == parent.words.size();
    std::uint64_t hash = incremental ? parent.hash : LengthTerm(words.size());
    const auto same = [&](std::size_t begin, std::size_t end) {
      return std::memcmp(words.data() + begin, parent.words.data() + begin,
                         (end - begin) * sizeof(Word)) == 0;
    };
    sc.refs.clear();
    for (std::size_t i = 0, block = 0; block < words.size(); block += kScanChunks * kChunkWords) {
      const std::size_t block_end = std::min(block + kScanChunks * kChunkWords, words.size());
      const bool block_same = block_end <= parent.words.size() && same(block, block_end);
      for (std::size_t base = block; base < block_end; ++i, base += kChunkWords) {
        const std::size_t end = std::min(base + kChunkWords, words.size());
        // The parent's chunk i must end where this one does: same offset and length.
        if (std::min(base + kChunkWords, parent.words.size()) == end &&
            (block_same || same(base, end))) {
          sc.refs.push_back(parent.refs[i]);
          if (!incremental) {
            hash += ChunkTerm(i, parent.hashes[i]);
          }
          continue;
        }
        const std::uint64_t chunk_hash = HashWords(words.data() + base, end - base);
        sc.refs.push_back(store_->InternChunk(chunk_hash, words.data() + base, end - base));
        hash += ChunkTerm(i, chunk_hash);
        if (incremental) {
          hash -= ChunkTerm(i, parent.hashes[i]);
        }
      }
    }
    return store_->InternState(hash, sc.refs, words.size());
  }

  // Appends Φ^colour of `sys` into `buf` (cleared first) and compares it
  // against `expected`.
  static bool SamePhi(const SharedSystem& sys, int colour, std::vector<Word>& buf,
                      std::span<const Word> expected) {
    buf.clear();
    sys.AppendAbstract(colour, buf);
    return std::ranges::equal(buf, expected);
  }

  bool InRange(int colour) const { return colour >= 0 && colour < colours_; }

  // --- the per-state record ---
  //
  // One int32 per field, `stride_` fields per canonical id:
  //   COLOUR(s);
  //   NEXTOP(s);
  //   Φ^c(s) for each colour c;
  //   Φ^COLOUR(s) of the operation successor;
  //   Φ^u of each input successor, unit-major (u is the unit's colour);
  //   per unit, Φ^u of the unit-step successor, taken before DrainOutput,
  //   and the drained output.
  // Every field after COLOUR is a class id: equal ids mean equal words. A
  // field whose colour is out of range (a kernel-mode operation, a unit of
  // no colour) is -1; no check reads it.
  static constexpr std::size_t kColourField = 0;
  static constexpr std::size_t kNextopField = 1;
  std::size_t PhiField(int colour) const { return 2 + static_cast<std::size_t>(colour); }
  std::size_t OperationField() const { return PhiField(colours_); }
  std::size_t InputField(int unit, int value) const {
    return OperationField() + 1 +
           static_cast<std::size_t>(unit * options_.inputs_per_unit + value - 1);
  }
  std::size_t StepField(int unit) const {
    return InputField(units_, 1) + 2 * static_cast<std::size_t>(unit);
  }
  std::size_t OutputField(int unit) const { return StepField(unit) + 1; }

  // Class tables: one per colour for Φ words, then NEXTOP and outputs.
  int NextopTable() const { return colours_; }
  int OutputTable() const { return colours_ + 1; }

  const std::int32_t* RecordOf(std::int32_t id) const {
    return records_.data() + static_cast<std::size_t>(id) * stride_;
  }

  // Appends a record field whose words `append` writes (when `table` is -1,
  // the field is unused and gets no words).
  template <typename Append>
  static void AddField(Expansion& e, int table, Append append) {
    const std::size_t begin = e.words.size();
    if (table >= 0) {
      append(e.words);
    }
    e.fields.push_back(
        {e.words.size(), HashWords(e.words.data() + begin, e.words.size() - begin), table});
  }

  void AddPhiField(Expansion& e, const SharedSystem& sys, int colour) const {
    AddField(e, InRange(colour) ? colour : -1,
             [&](std::vector<Word>& out) { sys.AppendAbstract(colour, out); });
  }

  // Φ^colour of the expanded state, as its record field holds it. e.fields
  // starts at NEXTOP, one field after the record's COLOUR.
  std::span<const Word> StatePhi(const Expansion& e, int colour) const {
    const std::size_t k = PhiField(colour) - 1;
    return {e.words.data() + e.fields[k - 1].end, e.words.data() + e.fields[k].end};
  }

  // Merge thread: interns `e`'s fields and appends the state's record.
  void InternRecord(const Expansion& e) {
    records_.push_back(e.colour);
    std::size_t begin = 0;
    for (const Expansion::Field& f : e.fields) {
      records_.push_back(f.table < 0 ? -1
                                     : tables_[static_cast<std::size_t>(f.table)].Intern(
                                           f.hash, {e.words.data() + begin, f.end - begin}));
      begin = f.end;
    }
    SEP_DCHECK(records_.size() % stride_ == 0);
  }

  // --- exploration: workers expand, the merge thread numbers ---

  // One successor of the state held in sc.key: reconstructs it in sc.work,
  // unless sc.work still holds it unmutated, and applies `mutate`, which
  // also adds the successor's record fields. When `expand` is set it then
  // checks condition `cond` (Φ of every colour but `exempt` is unchanged)
  // and interns the result.
  template <typename Mutate, typename Describe>
  void Successor(Scratch& sc, Expansion& e, bool expand, int cond, int exempt, Mutate mutate,
                 Describe describe) {
    const auto ordinal = static_cast<std::uint32_t>(e.succs.size());
    if (!sc.work_is_key) {
      Restore(*sc.work, sc.key.words, sc);
    }
    sc.work_is_key = false;
    mutate(*sc.work);
    if (!expand) {
      return;
    }
    // A from-state whose active colour is outside the regime range (e.g.
    // kernel mode) is checked against every colour, so the count varies.
    std::uint8_t checks = 0;
    for (int c = 0; c < colours_; ++c) {
      if (c == exempt) {
        continue;
      }
      ++checks;
      if (!SamePhi(*sc.work, c, sc.phi, StatePhi(e, c))) {
        e.fails.push_back({ordinal, {cond, c, 0, describe(c)}});
      }
    }
    e.checks.push_back(checks);
    sc.ser.clear();
    sc.work->AppendFullState(sc.ser);
    e.succs.push_back(Intern(sc, sc.ser, sc.key));
  }

  // Every successor of one state, in canonical order, and the state's
  // record. When `expand` is set, conditions (2) and (4) are checked on each
  // transition and the successors are interned; without it only the record
  // is taken (a frontier state of a truncated run).
  void ExpandOne(std::int32_t from, Expansion& e, bool expand) {
    Scratch& sc = ScratchHere();
    e.succs.clear();
    e.checks.clear();
    e.fails.clear();
    e.words.clear();
    e.fields.clear();
    if (expand) {
      ++sc.expanded;
    }

    // One restore serves the state's own record fields and its first
    // successor: COLOUR, NEXTOP and every Φ^c are read before anything
    // mutates sc.work.
    store_->MaterializeState(from, sc.key, sc.refs);
    Restore(*sc.work, sc.key.words, sc);
    sc.work_is_key = true;
    const int active = sc.work->Colour();
    e.colour = active;
    AddField(e, NextopTable(), [&](std::vector<Word>& out) {
      const OperationId op = sc.work->NextOperation();
      out.push_back(static_cast<Word>(op.kind));
      out.insert(out.end(), op.detail.begin(), op.detail.end());
    });
    for (int c = 0; c < colours_; ++c) {
      AddPhiField(e, *sc.work, c);
    }

    // (a) the operation NEXTOP(s).
    Successor(
        sc, e, expand, 2, active,
        [&](SharedSystem& sys) {
          sys.ExecuteOperation();
          AddPhiField(e, sys, active);
        },
        [&](int c) { return Format("operation of colour %d changed Φ of colour %d", active, c); });

    // (b) every input in the alphabet, into every unit.
    for (int unit = 0; unit < units_; ++unit) {
      const int colour = initial_->UnitColour(unit);
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        Successor(
            sc, e, expand, 4, colour,
            [&](SharedSystem& sys) {
              sys.InjectInput(unit, static_cast<Word>(value));
              AddPhiField(e, sys, colour);
            },
            [&](int c) { return Format("input to unit %d visible to colour %d", unit, c); });
      }
    }

    // (c) every unit's activity.
    for (int unit = 0; unit < units_; ++unit) {
      const int colour = initial_->UnitColour(unit);
      Successor(
          sc, e, expand, 4, colour,
          [&](SharedSystem& sys) {
            sys.StepUnit(unit);
            // Condition 3 reads the step's Φ before the output is drained;
            // the drain keeps the state space bounded.
            AddPhiField(e, sys, colour);
            const std::vector<Word> output = sys.DrainOutput(unit);
            AddField(e, OutputTable(), [&](std::vector<Word>& out) {
              out.insert(out.end(), output.begin(), output.end());
            });
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

  // Consumes one expansion: the state's record, then its successors in
  // order. Done() is not tested inside a state's successor list; the state
  // budget is, before each admission.
  void Merge(const Expansion& e) {
    InternRecord(e);
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
        pool_.ParallelFor(count, [&](std::size_t i) {
          ExpandOne(canon_to_packed_[base + i], slice_[i], true);
        });
        for (std::size_t i = 0; i < count && !Done() && !overflowed_; ++i) {
          Merge(slice_[i]);
        }
      }
      level_begin = level_end;
    }
    report_.complete = level_begin == canon_to_packed_.size() && !overflowed_ && !Done();
  }

  // Records of the admitted states exploration never merged (the frontier
  // of a truncated run), taken by restore through ExpandOne and interned in
  // canonical order.
  void RecordFrontier() {
    const std::size_t n = canon_to_packed_.size();
    for (std::size_t base = records_.size() / stride_; base < n; base += kSliceStates) {
      const std::size_t count = std::min(kSliceStates, n - base);
      pool_.ParallelFor(count, [&](std::size_t i) {
        ExpandOne(canon_to_packed_[base + i], slice_[i], false);
      });
      for (std::size_t i = 0; i < count; ++i) {
        InternRecord(slice_[i]);
      }
    }
  }

  // --- class check ---

  // Conditions (6), (1), (3) and (5) on one pair of a Φ^c-group, from the
  // two records, in the order the conditions are numbered per pair: (6)
  // and (1) when both states are of colour c, then per unit of colour c its
  // inputs (3), its activity (3) and its output (5).
  void CheckRecordPair(int c, const std::int32_t* a, const std::int32_t* b) {
    ++report_.pairs_checked;
    const auto check = [&](int cond, std::size_t field, auto describe) {
      ++report_.conditions[static_cast<std::size_t>(cond)].checks;
      if (a[field] != b[field]) {
        CountViolation({cond, c, 0, describe()});
      }
    };
    if (a[kColourField] == c && b[kColourField] == c) {
      check(6, kNextopField, [&] {
        return Format("NEXTOP differs for Φ-equal states of colour %d: %s vs %s", c,
                      Operation(a).ToString().c_str(), Operation(b).ToString().c_str());
      });
      check(1, OperationField(), [&] {
        return Format("operation effect on colour %d differs across Φ-equal states", c);
      });
    }
    for (const int unit : units_of_[static_cast<std::size_t>(c)]) {
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        check(3, InputField(unit, value), [&] {
          return Format("input effect on colour %d differs across Φ-equal states", c);
        });
      }
      check(3, StepField(unit), [&] {
        return Format("unit activity on colour %d differs across Φ-equal states", c);
      });
      check(5, OutputField(unit),
            [&] { return Format("output of colour %d differs across Φ-equal states", c); });
    }
  }

  OperationId Operation(const std::int32_t* record) const {
    const std::span<const Word> words =
        tables_[static_cast<std::size_t>(NextopTable())].Get(record[kNextopField]);
    return {static_cast<OperationId::Kind>(words[0]), {words.begin() + 1, words.end()}};
  }

  // True when every pair of `group` passes every check CheckRecordPair
  // would run: the members of colour c agree on NEXTOP and the operation
  // successor's class, and all members agree on each field of c's units.
  bool GroupAgrees(int c, std::span<const std::int32_t> group) const {
    const std::int32_t* first = RecordOf(group[0]);
    const std::int32_t* first_of_c = nullptr;
    for (const std::int32_t id : group) {
      const std::int32_t* r = RecordOf(id);
      if (r[kColourField] == c) {
        if (first_of_c == nullptr) {
          first_of_c = r;
        } else if (r[kNextopField] != first_of_c[kNextopField] ||
                   r[OperationField()] != first_of_c[OperationField()]) {
          return false;
        }
      }
      for (const int unit : units_of_[static_cast<std::size_t>(c)]) {
        if (!std::equal(r + InputField(unit, 1), r + InputField(unit + 1, 1),
                        first + InputField(unit, 1)) ||
            r[StepField(unit)] != first[StepField(unit)] ||
            r[OutputField(unit)] != first[OutputField(unit)]) {
          return false;
        }
      }
    }
    return true;
  }

  // One Φ^c-group, members in ascending id order. A group that agrees adds
  // its counts arithmetically; one that does not is walked pair by pair in
  // lexicographic order, testing the violation budget between pairs.
  void CheckGroup(int c, std::span<const std::int32_t> group) {
    if (GroupAgrees(c, group)) {
      const std::uint64_t k = group.size();
      const auto m = static_cast<std::uint64_t>(
          std::count_if(group.begin(), group.end(), [&](std::int32_t id) {
            return RecordOf(id)[kColourField] == c;
          }));
      const std::uint64_t pairs = k * (k - 1) / 2;
      const std::uint64_t units = units_of_[static_cast<std::size_t>(c)].size();
      report_.pairs_checked += pairs;
      report_.conditions[6].checks += m * (m - 1) / 2;
      report_.conditions[1].checks += m * (m - 1) / 2;
      report_.conditions[3].checks +=
          units * (static_cast<std::uint64_t>(options_.inputs_per_unit) + 1) * pairs;
      report_.conditions[5].checks += units * pairs;
      return;
    }
    for (std::size_t a = 0; a < group.size(); ++a) {
      for (std::size_t b = a + 1; b < group.size(); ++b) {
        if (Done()) {
          return;
        }
        CheckRecordPair(c, RecordOf(group[a]), RecordOf(group[b]));
      }
    }
  }

  // Conditions with a two-state antecedent, over every Φ-equal pair: for
  // each colour, groups in ascending Φ-word order, members in ascending id.
  void CheckClasses() {
    const auto n = static_cast<std::int32_t>(canon_to_packed_.size());
    std::vector<std::int32_t> members(canon_to_packed_.size());
    std::vector<std::size_t> starts;
    std::vector<std::size_t> groups;
    for (int c = 0; c < colours_ && !Done(); ++c) {
      const WordInterner& table = tables_[static_cast<std::size_t>(c)];
      const auto class_of = [&](std::int32_t id) {
        return static_cast<std::size_t>(RecordOf(id)[PhiField(c)]);
      };
      // Counting sort of the states by Φ^c class, so members stay in
      // ascending id order. Only classes of two or more states have pairs.
      starts.assign(table.size() + 1, 0);
      for (std::int32_t id = 0; id < n; ++id) {
        ++starts[class_of(id) + 1];
      }
      groups.clear();
      for (std::size_t cls = 0; cls < table.size(); ++cls) {
        if (starts[cls + 1] >= 2) {
          groups.push_back(cls);
        }
        starts[cls + 1] += starts[cls];
      }
      std::vector<std::size_t> next(starts.begin(), starts.end() - 1);
      for (std::int32_t id = 0; id < n; ++id) {
        members[next[class_of(id)]++] = id;
      }
      std::sort(groups.begin(), groups.end(), [&](std::size_t x, std::size_t y) {
        return std::ranges::lexicographical_compare(table.Get(static_cast<std::int32_t>(x)),
                                                    table.Get(static_cast<std::int32_t>(y)));
      });
      for (const std::size_t cls : groups) {
        if (Done()) {
          break;
        }
        CheckGroup(c, std::span<const std::int32_t>(members).subspan(
                          starts[cls], starts[cls + 1] - starts[cls]));
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
  std::vector<Expansion> slice_ = std::vector<Expansion>(kSliceStates);

  // Merge-thread-only canonical state.
  std::array<std::vector<std::int32_t>, kShardCount> canon_of_;  // packed -> canon id
  std::vector<std::int32_t> canon_to_packed_;                    // canon id -> packed
  std::size_t stride_ = 0;                  // record fields per state
  std::vector<std::int32_t> records_;       // canon id * stride_ -> record
  std::vector<WordInterner> tables_;        // class tables, see NextopTable()
  std::vector<std::vector<int>> units_of_;  // units of each colour
  bool overflowed_ = false;
  ExhaustiveReport report_;
};

}  // namespace

std::string ExhaustiveReport::Summary() const {
  std::string out =
      Format("%zu states, %zu transitions, %zu pairs", states_explored, transitions, pairs_checked);
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
