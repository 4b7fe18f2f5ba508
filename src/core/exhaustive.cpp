#include "src/core/exhaustive.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <utility>

#include "src/base/arena.h"
#include "src/base/hash.h"
#include "src/base/logging.h"
#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

// The checker runs on one thread, and its report is a function of the
// system and the options alone.
//
// Exploration is a breadth-first search from the initial state, expanding
// states in id order. ExpandOne restores a state and applies every
// successor in canonical order; it checks conditions (2) and (4) on each
// transition, diffs the successor against the state (Diff) and admits it
// into the state store (Admit, StateStore below) before it applies the
// next. The store numbers new states first-come, so ids are BFS order. Two
// cut rules apply: max_violations is tested between states, and the state
// budget before each admission.
//
// While it expands a state, ExpandOne also takes the state's record:
// everything of it that conditions (6), (1), (3) and (5) read, each field
// interned into a class id by exact word content. After exploration the
// class check decides those conditions once per (colour, Φ-group) from the
// records alone, with no restore.
//
// No live SharedSystem is retained per explored state. Each state exists
// only as its serialized FullState() words; the run reconstructs it on
// demand (RestoreFullState) into one scratch instance, once per successor
// it applies: the state's own record fields are read from the restore that
// serves its first successor. A successor differs from its parent in a few
// chunks, so only those are hashed and looked up, and materializing a state
// copies only the chunks that differ from the last one (MaterializeState).
// The state hash is a sum of position-salted per-chunk terms (ChunkTerm),
// so a successor's hash is its parent's with the differing chunks' terms
// swapped.

constexpr std::size_t kChunkWords = 64;
// Chunks compared at once when a successor is diffed (Diff).
constexpr std::size_t kScanChunks = 8;

// Trace payload words are 16-bit; saturate rather than wrap so a reader can
// tell "at least 65535" from a small value.
Word SaturateWord(std::size_t value) {
  return static_cast<Word>(std::min<std::size_t>(value, 0xFFFF));
}

std::int64_t NanosSince(std::chrono::steady_clock::time_point start) {
  const auto elapsed = std::chrono::steady_clock::now() - start;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count();
}

// Words in chunk `index` of a `len`-word state.
std::size_t ChunkLength(std::size_t index, std::size_t len) {
  return std::min(kChunkWords, len - index * kChunkWords);
}

// One stored state as the run holds it: its words, its state hash and, per
// kChunkWords-word chunk at fixed offsets, the chunk's ref and hash.
struct Materialized {
  std::vector<Word> words;
  std::uint64_t hash = 0;
  std::vector<std::uint32_t> refs;
  std::vector<std::uint64_t> hashes;
};

// A chunk of a successor that differs from its parent's chunk at the same
// offset: its index and hash.
struct Change {
  std::uint32_t index;
  std::uint64_t hash;
};

// The state hash is a sum: a term for the length plus one term per chunk,
// salted by the chunk's position. It is a function of the words alone, and
// a successor of the same length gets its hash from its parent's by
// swapping the terms of the chunks that differ.
std::uint64_t LengthTerm(std::size_t len) { return Mix64(len); }

std::uint64_t ChunkTerm(std::size_t index, std::uint64_t chunk_hash) {
  return Mix64(chunk_hash + (index + 1) * 0x9E3779B97F4A7C15ULL);
}

// Exact interning of word strings to dense ids. A hit needs equal content,
// never hash identity alone, so equal ids mean equal words.
class WordInterner {
 public:
  // Returns the id of `words`, or -1.
  std::int32_t Find(std::uint64_t hash, std::span<const Word> words) const {
    return index_.Find(hash, [&](std::int32_t id) {
      return hashes_[static_cast<std::size_t>(id)] == hash && std::ranges::equal(Get(id), words);
    });
  }

  std::int32_t Intern(std::uint64_t hash, std::span<const Word> words) {
    const std::int32_t found = Find(hash, words);
    if (found >= 0) {
      return found;
    }
    const auto id = static_cast<std::int32_t>(hashes_.size());
    words_.insert(words_.end(), words.begin(), words.end());
    SEP_CHECK(words_.size() <= INT32_MAX);  // ends and ids fit
    ends_.push_back(static_cast<std::uint32_t>(words_.size()));
    hashes_.push_back(hash);
    index_.Insert(hash, id, [&](std::int32_t i) { return hashes_[static_cast<std::size_t>(i)]; });
    return id;
  }

  std::span<const Word> Get(std::int32_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return {words_.data() + ends_[i], words_.data() + ends_[i + 1]};
  }

  std::uint64_t Hash(std::int32_t id) const { return hashes_[static_cast<std::size_t>(id)]; }

  std::size_t size() const { return hashes_.size(); }

  std::size_t bytes() const {
    return index_.bytes() + words_.capacity() * sizeof(Word) +
           ends_.capacity() * sizeof(std::uint32_t) + hashes_.capacity() * sizeof(std::uint64_t);
  }

 private:
  HashIndex index_;
  std::vector<Word> words_;  // id i occupies words_[ends_[i] .. ends_[i + 1])
  std::vector<std::uint32_t> ends_{0};
  std::vector<std::uint64_t> hashes_;
};

// Compact interned storage for serialized states. Serializations are cut
// into kChunkWords-word chunks at fixed offsets; each distinct chunk is
// stored once, in a WordInterner.
//
// A state record is its chunk-ref list plus exact word count. Because chunk
// ids are content-addressed within a run, two equal serializations always
// produce identical ref lists, so state equality is a cheap ref-list
// memcmp. State ids are handed out in admission order, which is BFS order.
// The store is appended to in that order alone, so every capacity, and thus
// bytes(), is the same on every run.
class StateStore {
 public:
  std::size_t size() const { return state_hashes_.size(); }

  // Returns the id of the chunk with these words, or -1.
  std::int32_t FindChunk(std::uint64_t hash, std::span<const Word> words) const {
    return chunks_.Find(hash, words);
  }

  // Returns the id of the chunk with these words, interning it if new.
  std::uint32_t InternChunk(std::uint64_t hash, std::span<const Word> words) {
    return static_cast<std::uint32_t>(chunks_.Intern(hash, words));
  }

  // Returns the id of the state whose chunk-ref list is `refs` and length
  // `len`, or -1. `hash` is the state hash Diff computed.
  std::int32_t FindState(std::uint64_t hash, std::span<const std::uint32_t> refs,
                         std::size_t len) const {
    return state_index_.Find(hash, [&](std::int32_t id) {
      const auto i = static_cast<std::size_t>(id);
      return state_hashes_[i] == hash && lens_[i] == len && std::ranges::equal(Refs(id), refs);
    });
  }

  // Appends a state FindState does not hold; returns its id.
  std::int32_t AddState(std::uint64_t hash, std::span<const std::uint32_t> refs, std::size_t len) {
    const auto id = static_cast<std::int32_t>(state_hashes_.size());
    refs_.insert(refs_.end(), refs.begin(), refs.end());
    SEP_CHECK(refs_.size() <= INT32_MAX);  // offsets and ids fit
    ref_ends_.push_back(static_cast<std::uint32_t>(refs_.size()));
    lens_.push_back(static_cast<std::uint32_t>(len));
    state_hashes_.push_back(hash);
    state_index_.Insert(hash, id,
                        [&](std::int32_t i) { return state_hashes_[static_cast<std::size_t>(i)]; });
    return id;
  }

  std::span<const std::uint32_t> Refs(std::int32_t id) const {
    const auto i = static_cast<std::size_t>(id);
    return {refs_.data() + ref_ends_[i], refs_.data() + ref_ends_[i + 1]};
  }

  // Reconstructs state `id` into `m`, which holds the caller's previous
  // materialization. Refs are content-addressed, so only the chunks whose
  // ref differs are copied.
  void MaterializeState(std::int32_t id, Materialized& m) const {
    const std::span<const std::uint32_t> refs = Refs(id);
    const std::size_t len = lens_[static_cast<std::size_t>(id)];
    m.hash = state_hashes_[static_cast<std::size_t>(id)];
    m.words.resize(len);
    m.hashes.resize(refs.size());
    for (std::size_t i = 0; i < refs.size(); ++i) {
      if (i < m.refs.size() && m.refs[i] == refs[i]) {
        continue;
      }
      const auto chunk = static_cast<std::int32_t>(refs[i]);
      const std::span<const Word> words = chunks_.Get(chunk);
      SEP_CHECK(words.size() == ChunkLength(i, len));
      std::ranges::copy(words, m.words.begin() + static_cast<std::ptrdiff_t>(i * kChunkWords));
      m.hashes[i] = chunks_.Hash(chunk);
    }
    m.refs.assign(refs.begin(), refs.end());
  }

  // Resident footprint: arenas, per-state tables and hash indexes.
  std::size_t bytes() const {
    return chunks_.bytes() + state_index_.bytes() +
           (refs_.capacity() + ref_ends_.capacity() + lens_.capacity()) * sizeof(std::uint32_t) +
           state_hashes_.capacity() * sizeof(std::uint64_t);
  }

 private:
  WordInterner chunks_;
  HashIndex state_index_;
  // State i's chunk refs occupy refs_[ref_ends_[i] .. ref_ends_[i + 1]).
  std::vector<std::uint32_t> refs_;
  std::vector<std::uint32_t> ref_ends_{0};
  std::vector<std::uint32_t> lens_;
  std::vector<std::uint64_t> state_hashes_;
};

class ExhaustiveRun {
 public:
  ExhaustiveRun(const SharedSystem& initial, const ExhaustiveOptions& options)
      : options_(options),
        budget_(std::max<std::size_t>(options.max_states, 1)),
        initial_(initial.Clone()) {
    sc_.work = initial_->Clone();
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
      ns = NanosSince(start);
    };
    timed(report_.explore_ns, [&] {
      // The initial state is diffed against no parent, so every chunk is
      // new; the budget is at least 1, so it is always admitted.
      Admit(*init_key, Materialized{});
      Explore();
    });
    if (!Done()) {
      timed(report_.frontier_ns, [&] { RecordFrontier(); });
      timed(report_.class_check_ns, [&] { CheckClasses(); });
    }

    report_.states_explored = store_.size();
    report_.peak_state_bytes = store_.bytes();
    report_.shard_max_load = store_.size();
    return std::move(report_);
  }

 private:
  // One live system reconstructed on demand, plus the reusable buffers of
  // every hot loop.
  struct Scratch {
    std::unique_ptr<SharedSystem> work;  // the state, then each successor
    bool work_is_key = false;            // work holds key, not yet mutated
    Materialized key;                    // the state being expanded, as stored
    std::vector<Word> ser;               // successor serialization
    std::vector<Change> changes;         // Diff: the chunks that differ
    std::vector<std::uint32_t> refs;     // Admit's ref list
    std::vector<Word> words;             // a record field's or a Φ's words
  };

  // Returns the state hash of `words`, a successor of `parent`, and puts in
  // `changes` each chunk that differs from `parent`'s chunk at the same
  // offset and length. Only the chunks that differ are hashed. When the
  // lengths agree, the state hash is the parent's with the differing
  // chunks' terms swapped (ChunkTerm); otherwise it is summed afresh, from
  // the parent's chunk hashes where the chunks match.
  //
  // A successor matches its parent almost everywhere, so the words are
  // compared a block of kScanChunks chunks at a time, and chunk by chunk
  // only inside a block that differs: one compare call per chunk cost more
  // than the compare.
  static std::uint64_t Diff(std::span<const Word> words, const Materialized& parent,
                            std::vector<Change>& changes) {
    const bool incremental = !parent.words.empty() && words.size() == parent.words.size();
    std::uint64_t hash = incremental ? parent.hash : LengthTerm(words.size());
    const auto same = [&](std::size_t begin, std::size_t end) {
      return std::memcmp(words.data() + begin, parent.words.data() + begin,
                         (end - begin) * sizeof(Word)) == 0;
    };
    changes.clear();
    for (std::size_t i = 0, block = 0; block < words.size(); block += kScanChunks * kChunkWords) {
      const std::size_t block_end = std::min(block + kScanChunks * kChunkWords, words.size());
      const bool block_same = block_end <= parent.words.size() && same(block, block_end);
      for (std::size_t base = block; base < block_end; ++i, base += kChunkWords) {
        const std::size_t end = std::min(base + kChunkWords, words.size());
        // The parent's chunk i must end where this one does: same offset and length.
        if (std::min(base + kChunkWords, parent.words.size()) == end &&
            (block_same || same(base, end))) {
          if (!incremental) {
            hash += ChunkTerm(i, parent.hashes[i]);
          }
          continue;
        }
        const std::uint64_t chunk_hash = HashWords(words.data() + base, end - base);
        changes.push_back({static_cast<std::uint32_t>(i), chunk_hash});
        hash += ChunkTerm(i, chunk_hash);
        if (incremental) {
          hash -= ChunkTerm(i, parent.hashes[i]);
        }
      }
    }
    return hash;
  }

  // The id of `words`, a successor of `parent` (empty: the initial state),
  // admitting it if it is new and the budget has room; -1 if the budget
  // refuses it. Its ref list is the parent's with the refs of the chunks
  // Diff finds changed put in. A changed chunk the store lacks belongs to
  // no stored state, so the successor is new, and neither it nor its
  // chunks are stored unless it is admitted.
  std::int32_t Admit(std::span<const Word> words, const Materialized& parent) {
    constexpr std::uint32_t kMissing = UINT32_MAX;
    const std::uint64_t hash = Diff(words, parent, sc_.changes);
    const auto words_of = [&](const Change& c) {
      return words.subspan(c.index * kChunkWords, ChunkLength(c.index, words.size()));
    };
    std::vector<std::uint32_t>& refs = sc_.refs;
    const std::size_t chunks = (words.size() + kChunkWords - 1) / kChunkWords;
    const auto kept = std::span(parent.refs).first(std::min(parent.refs.size(), chunks));
    refs.assign(kept.begin(), kept.end());
    refs.resize(chunks, kMissing);
    bool known = true;
    for (const Change& c : sc_.changes) {
      const std::int32_t id = store_.FindChunk(c.hash, words_of(c));
      refs[c.index] = static_cast<std::uint32_t>(id);
      known = known && id >= 0;
    }
    if (known) {
      const std::int32_t id = store_.FindState(hash, refs, words.size());
      if (id >= 0) {
        return id;
      }
    }
    if (store_.size() >= budget_) {
      return -1;
    }
    for (const Change& c : sc_.changes) {
      if (refs[c.index] == kMissing) {
        refs[c.index] = store_.InternChunk(c.hash, words_of(c));
      }
    }
    return store_.AddState(hash, refs, words.size());
  }

  bool InRange(int colour) const { return colour >= 0 && colour < colours_; }

  // --- the per-state record ---
  //
  // One int32 per field, `stride_` fields per id:
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

  // Appends to the record being taken the class of the words `append`
  // writes, interned into class table `table` (-1: the field is unused).
  template <typename Append>
  void AddField(int table, Append append) {
    if (table < 0) {
      records_.push_back(-1);
      return;
    }
    std::vector<Word>& words = sc_.words;
    words.clear();
    append(words);
    records_.push_back(tables_[static_cast<std::size_t>(table)].Intern(
        HashWords(words.data(), words.size()), words));
  }

  void AddPhiField(const SharedSystem& sys, int colour) {
    AddField(InRange(colour) ? colour : -1,
             [&](std::vector<Word>& out) { sys.AppendAbstract(colour, out); });
  }

  // True when Φ^colour of `sys` equals Φ^colour of state `from`, as its
  // record holds it.
  bool SamePhi(const SharedSystem& sys, std::int32_t from, int colour) {
    std::vector<Word>& words = sc_.words;
    words.clear();
    sys.AppendAbstract(colour, words);
    return std::ranges::equal(
        words, tables_[static_cast<std::size_t>(colour)].Get(RecordOf(from)[PhiField(colour)]));
  }

  // --- exploration ---

  void RestoreKey() {
    const bool ok = sc_.work->RestoreFullState(sc_.key.words);
    SEP_CHECK(ok);
    ++report_.restore_count;
  }

  // One successor of state `from`, held in sc_.key: reconstructs it in
  // sc_.work, unless sc_.work still holds it unmutated, and applies
  // `mutate`, which also adds the successor's record fields. When `explore`
  // is set it is then a transition: it checks condition `cond` (Φ of every
  // colour but `exempt` is unchanged) and admits the result. Once the budget
  // has refused a successor, the state's later successors only give their
  // record fields.
  template <typename Mutate, typename Describe>
  void Successor(std::int32_t from, bool explore, int cond, int exempt, Mutate mutate,
                 Describe describe) {
    if (!sc_.work_is_key) {
      RestoreKey();
    }
    sc_.work_is_key = false;
    mutate(*sc_.work);
    if (!explore || overflowed_) {
      return;
    }
    ++report_.transitions;
    // A from-state whose active colour is outside the regime range (e.g.
    // kernel mode) is checked against every colour, so the count varies.
    ConditionStats& stats = report_.conditions[static_cast<std::size_t>(cond)];
    for (int c = 0; c < colours_; ++c) {
      if (c == exempt) {
        continue;
      }
      ++stats.checks;
      if (!SamePhi(*sc_.work, from, c)) {
        CountViolation({cond, c, 0, describe(c)});
      }
    }
    sc_.ser.clear();
    sc_.work->AppendFullState(sc_.ser);
    // A refused successor still counts as a transition.
    overflowed_ = Admit(sc_.ser, sc_.key) < 0;
  }

  // Every successor of state `from`, in canonical order, and its record.
  // When `explore` is set, conditions (2) and (4) are checked on each
  // transition and the successors are admitted; without it only the record
  // is taken (a frontier state of a truncated run).
  void ExpandOne(std::int32_t from, bool explore) {
    SEP_DCHECK(records_.size() == static_cast<std::size_t>(from) * stride_);
    // One restore serves the state's own record fields and its first
    // successor: COLOUR, NEXTOP and every Φ^c are read before anything
    // mutates sc_.work.
    store_.MaterializeState(from, sc_.key);
    RestoreKey();
    sc_.work_is_key = true;
    const int active = sc_.work->Colour();
    records_.push_back(active);
    AddField(NextopTable(), [&](std::vector<Word>& out) {
      const OperationId op = sc_.work->NextOperation();
      out.push_back(static_cast<Word>(op.kind));
      out.insert(out.end(), op.detail.begin(), op.detail.end());
    });
    for (int c = 0; c < colours_; ++c) {
      AddPhiField(*sc_.work, c);
    }

    // (a) the operation NEXTOP(s).
    Successor(
        from, explore, 2, active,
        [&](SharedSystem& sys) {
          sys.ExecuteOperation();
          AddPhiField(sys, active);
        },
        [&](int c) { return Format("operation of colour %d changed Φ of colour %d", active, c); });

    // (b) every input in the alphabet, into every unit.
    for (int unit = 0; unit < units_; ++unit) {
      const int colour = initial_->UnitColour(unit);
      for (int value = 1; value <= options_.inputs_per_unit; ++value) {
        Successor(
            from, explore, 4, colour,
            [&](SharedSystem& sys) {
              sys.InjectInput(unit, static_cast<Word>(value));
              AddPhiField(sys, colour);
            },
            [&](int c) { return Format("input to unit %d visible to colour %d", unit, c); });
      }
    }

    // (c) every unit's activity.
    for (int unit = 0; unit < units_; ++unit) {
      const int colour = initial_->UnitColour(unit);
      Successor(
          from, explore, 4, colour,
          [&](SharedSystem& sys) {
            sys.StepUnit(unit);
            // Condition 3 reads the step's Φ before the output is drained;
            // the drain keeps the state space bounded.
            AddPhiField(sys, colour);
            const std::vector<Word> output = sys.DrainOutput(unit);
            AddField(OutputTable(), [&](std::vector<Word>& out) {
              out.insert(out.end(), output.begin(), output.end());
            });
          },
          [&](int c) { return Format("activity of unit %d visible to colour %d", unit, c); });
    }
    SEP_DCHECK(records_.size() == static_cast<std::size_t>(from + 1) * stride_);
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

  // BFS from the admitted initial state. Ids are handed out in BFS order, so
  // each level is the id range its predecessor level admitted. Done() is
  // tested between states, never inside a state's successor list; the state
  // budget is tested before each admission.
  void Explore() {
    std::size_t level_begin = 0;
    std::size_t depth = 0;
    while (level_begin < store_.size() && !Done() && !overflowed_) {
      const std::size_t level_end = store_.size();
      // One heartbeat per BFS level: tick carries the store size (states may
      // exceed a Word), a0/a1 the saturated level width/depth.
      if (obs::Enabled()) {
        obs::Emit(obs::Category::kChecker, obs::Code::kHeartbeat, obs::kColourKernel, level_end,
                  SaturateWord(level_end - level_begin), SaturateWord(depth));
      }
      ++depth;
      for (std::size_t id = level_begin; id < level_end && !Done() && !overflowed_; ++id) {
        ExpandOne(static_cast<std::int32_t>(id), true);
      }
      level_begin = level_end;
    }
    report_.complete = level_begin == store_.size() && !overflowed_ && !Done();
  }

  // Records of the admitted states exploration never expanded (the frontier
  // of a truncated run), taken by restore through ExpandOne.
  void RecordFrontier() {
    for (std::size_t id = records_.size() / stride_; id < store_.size(); ++id) {
      ExpandOne(static_cast<std::int32_t>(id), false);
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
  // each colour, groups in ascending Φ-word order (any order when all
  // agree), members in ascending id.
  void CheckClasses() {
    const auto n = static_cast<std::int32_t>(store_.size());
    std::vector<std::int32_t> members(store_.size());
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
      const auto group_of = [&](std::size_t cls) {
        return std::span<const std::int32_t>(members).subspan(starts[cls],
                                                              starts[cls + 1] - starts[cls]);
      };
      // Group order reaches the report only through violations, and only a
      // group that disagrees can raise one: sort only when some group does.
      if (!std::ranges::all_of(groups,
                               [&](std::size_t cls) { return GroupAgrees(c, group_of(cls)); })) {
        std::sort(groups.begin(), groups.end(), [&](std::size_t x, std::size_t y) {
          return std::ranges::lexicographical_compare(table.Get(static_cast<std::int32_t>(x)),
                                                      table.Get(static_cast<std::int32_t>(y)));
        });
      }
      for (const std::size_t cls : groups) {
        if (Done()) {
          break;
        }
        CheckGroup(c, group_of(cls));
      }
    }
  }

  const ExhaustiveOptions& options_;
  const std::size_t budget_;  // states admitted at most
  std::unique_ptr<SharedSystem> initial_;
  int colours_ = 0;
  int units_ = 0;
  Scratch sc_;

  StateStore store_;
  std::size_t stride_ = 0;                  // record fields per state
  std::vector<std::int32_t> records_;       // id * stride_ -> record
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
