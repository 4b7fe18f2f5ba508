// Open-addressing hash index over externally stored records.
//
// The exhaustive checker interns millions of serialized machine states and
// their deduplicated content chunks. A node-based std::unordered_map keyed
// by std::vector<Word> costs a heap key vector plus a node allocation per
// entry and re-hashes the key on every probe. This index stores only 32-bit
// record ids in a flat power-of-two table; the caller keeps the records
// (and their precomputed 64-bit hashes) in its own flat arrays and supplies
// comparison/hash callbacks, so a probe is a cache line of ids plus however
// many candidate comparisons the caller's `equals` needs.
//
// HashIndex itself is not thread-safe for writes (Find() is safe
// concurrently with other Find()s). ShardedIndex below wraps a fixed set
// of independently locked HashIndex shards routed by the top bits of the
// content hash, which is what the exhaustive checker's workers intern
// through: writers contend only when two records hash into the same shard.
#ifndef SRC_BASE_ARENA_H_
#define SRC_BASE_ARENA_H_

#include <array>
#include <cstdint>
#include <mutex>
#include <utility>
#include <vector>

namespace sep {

class HashIndex {
 public:
  explicit HashIndex(std::size_t initial_slots = 64) {
    std::size_t cap = 16;
    while (cap < initial_slots) {
      cap *= 2;
    }
    slots_.assign(cap, kEmpty);
  }

  std::size_t size() const { return size_; }
  std::size_t bytes() const { return slots_.capacity() * sizeof(std::int32_t); }

  // Returns the id of the record matching `hash`/`equals`, or -1. `equals`
  // receives a candidate id; it should reject cheaply (e.g. by comparing the
  // caller's stored hash) before any deep comparison.
  template <typename Equals>
  std::int32_t Find(std::uint64_t hash, Equals&& equals) const {
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
      const std::int32_t id = slots_[i];
      if (id == kEmpty) {
        return -1;
      }
      if (equals(id)) {
        return id;
      }
    }
  }

  // Inserts `id` for `hash`. The caller must have established (via Find)
  // that no equal record is present. `hash_of` maps an existing id to its
  // hash; it is used to re-place ids when the table grows.
  template <typename HashOf>
  void Insert(std::uint64_t hash, std::int32_t id, HashOf&& hash_of) {
    // Grow at 70% load so probe chains stay short.
    if ((size_ + 1) * 10 >= slots_.size() * 7) {
      std::vector<std::int32_t> old = std::move(slots_);
      slots_.assign(old.size() * 2, kEmpty);
      for (std::int32_t existing : old) {
        if (existing != kEmpty) {
          Place(hash_of(existing), existing);
        }
      }
    }
    Place(hash, id);
    ++size_;
  }

 private:
  static constexpr std::int32_t kEmpty = -1;

  void Place(std::uint64_t hash, std::int32_t id) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = hash & mask;
    while (slots_[i] != kEmpty) {
      i = (i + 1) & mask;
    }
    slots_[i] = id;
  }

  std::vector<std::int32_t> slots_;
  std::size_t size_ = 0;
};

// Shard routing shared by every concurrently-growable intern structure.
//
// A record's shard is a pure function of its 64-bit content hash (the top
// kShardBits bits), never of the interning thread — so the sharded layout
// of a finished store is identical for every thread count, which the
// exhaustive checker's deterministic report depends on. The shard count is
// a fixed constant, NOT derived from the thread count, for the same reason.
//
// Packed ids carry the shard in the high bits and the shard-local ordinal
// in the low bits, leaving the sign bit clear so -1 stays usable as the
// universal "absent" sentinel alongside plain HashIndex ids.
inline constexpr int kShardBits = 6;
inline constexpr std::size_t kShardCount = std::size_t{1} << kShardBits;
inline constexpr int kShardLocalBits = 31 - kShardBits;
inline constexpr std::size_t kShardLocalMax = (std::size_t{1} << kShardLocalBits) - 1;

inline constexpr std::size_t ShardForHash(std::uint64_t hash) { return hash >> (64 - kShardBits); }

inline constexpr std::int32_t PackShardId(std::size_t shard, std::size_t local) {
  return static_cast<std::int32_t>((shard << kShardLocalBits) | local);
}

inline constexpr std::size_t ShardOfId(std::int32_t packed) {
  return static_cast<std::size_t>(packed) >> kShardLocalBits;
}

inline constexpr std::size_t LocalOfId(std::int32_t packed) {
  return static_cast<std::size_t>(packed) & kShardLocalMax;
}

// kShardCount independently locked HashIndex shards. The caller keeps the
// records in its own per-shard flat arrays (indexed by shard-local id) and
// guards them with the same shard mutex via the FindOrInsert callbacks, so
// a packed id returned from any thread always refers to a fully published
// record.
//
// Concurrent growth of each shard's HashIndex happens inside that shard's
// critical section; the tsan matrix job runs tests/sharded_index_test.cpp
// to certify the whole arrangement under race detection.
class ShardedIndex {
 public:
  struct Shard {
    mutable std::mutex mu;
    HashIndex index;
  };

  Shard& shard(std::size_t s) { return shards_[s]; }
  const Shard& shard(std::size_t s) const { return shards_[s]; }

  // Looks up `hash` in its home shard; on a miss, appends a new record and
  // publishes it. All three callbacks run under the shard lock and receive
  // shard-local ids:
  //   equals(local)  -> bool   deep-compare candidate `local` to the key
  //   append()       -> local  append the record to the caller's shard
  //                            arrays, return its shard-local id
  //   hash_of(local) -> hash   existing record's hash (for index growth)
  // Returns {packed id, inserted}.
  template <typename Equals, typename Append, typename HashOf>
  std::pair<std::int32_t, bool> FindOrInsert(std::uint64_t hash, Equals&& equals, Append&& append,
                                             HashOf&& hash_of) {
    const std::size_t s = ShardForHash(hash);
    Shard& sh = shards_[s];
    std::lock_guard<std::mutex> lock(sh.mu);
    const std::int32_t local = sh.index.Find(hash, equals);
    if (local >= 0) {
      return {PackShardId(s, static_cast<std::size_t>(local)), false};
    }
    const std::size_t fresh = append();
    sh.index.Insert(hash, static_cast<std::int32_t>(fresh), hash_of);
    return {PackShardId(s, fresh), true};
  }

  std::size_t size() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      total += sh.index.size();
    }
    return total;
  }

  std::size_t max_load() const {
    std::size_t peak = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      peak = peak > sh.index.size() ? peak : sh.index.size();
    }
    return peak;
  }

  std::size_t bytes() const {
    std::size_t total = 0;
    for (const Shard& sh : shards_) {
      std::lock_guard<std::mutex> lock(sh.mu);
      total += sh.index.bytes();
    }
    return total;
  }

 private:
  std::array<Shard, kShardCount> shards_;
};

}  // namespace sep

#endif  // SRC_BASE_ARENA_H_
