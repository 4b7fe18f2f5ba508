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
// HashIndex is not thread-safe for writes (Find() is safe concurrently with
// other Find()s). The checker runs on one thread.
#ifndef SRC_BASE_ARENA_H_
#define SRC_BASE_ARENA_H_

#include <cstdint>
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

}  // namespace sep

#endif  // SRC_BASE_ARENA_H_
