// Physical memory for the SM-11.
//
// One flat array of 16-bit words, sized to the configuration: a kernelized
// machine gets exactly the words its regime partitions, kernel partition and
// shared-ring windows carve out (SystemBuilder::Build), as in the SUE, where
// each regime is permanently allocated a fixed partition of real memory.
// Copying a memory (and so Machine::Clone) copies the words. The memory
// enforces nothing — all protection comes from the MMU. The per-word
// Read/Write bounds checks are debug-only (SEP_DCHECK): they sit on the
// interpreter's innermost path and every caller in the machine already
// guards with InRange(); bulk operations keep the always-on SEP_CHECK.
//
// Write tracking: every mutation bumps the version of its 64-word page. The
// machine's predecoded-instruction cache validates entries against those
// versions, so self-modifying code and kernel loads invalidate exactly the
// affected pages (see docs/PERFORMANCE.md). Versions are bookkeeping, not
// architectural state: they are excluded from equality, and RestoreWords
// bumps only the pages whose content changes.
#ifndef SRC_MACHINE_MEMORY_H_
#define SRC_MACHINE_MEMORY_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "src/base/logging.h"
#include "src/base/types.h"

namespace sep {

class PhysicalMemory {
 public:
  // Version-tracking granularity: 64 words per page keeps a data store and a
  // nearby instruction stream in separate pages for typical guest layouts,
  // so steady-state data writes do not evict decoded code.
  static constexpr int kVersionPageShift = 6;
  static constexpr std::size_t kVersionPageWords = std::size_t{1} << kVersionPageShift;

  explicit PhysicalMemory(std::size_t words)
      : words_(words, 0), versions_(words / kVersionPageWords + 1, 1) {}

  std::size_t size() const { return words_.size(); }

  Word Read(PhysAddr addr) const {
    SEP_DCHECK(addr < words_.size());
    return words_[addr];
  }

  void Write(PhysAddr addr, Word value) {
    SEP_DCHECK(addr < words_.size());
    words_[addr] = value;
    ++versions_[addr >> kVersionPageShift];
  }

  bool InRange(PhysAddr addr) const { return addr < words_.size(); }

  // Bulk load used by program loaders; addresses beyond the end are an error.
  // Bounds are checked by subtraction so a large `base` cannot wrap the sum.
  void LoadImage(PhysAddr base, const std::vector<Word>& image) {
    SEP_CHECK(base <= size() && image.size() <= size() - base);
    std::copy(image.begin(), image.end(), words_.begin() + base);
    TouchRange(base, image.size());
  }

  void Fill(PhysAddr base, std::size_t count, Word value) {
    SEP_CHECK(base <= size() && count <= size() - base);
    std::fill_n(words_.begin() + base, count, value);
    TouchRange(base, count);
  }

  // Serializes the whole memory by appending to `out` (the checker's
  // FullState path; avoids a fresh allocation per snapshot).
  void AppendTo(std::vector<Word>& out) const {
    out.insert(out.end(), words_.begin(), words_.end());
  }

  // Overwrites the whole memory from a flat image, copying — and bumping the
  // version of — only the 64-word version pages whose content actually
  // changes. Restoring a state the machine is already in is therefore
  // version-neutral, and predecoded code whose bytes are unchanged stays
  // valid. A restored image mostly matches the current content, so it is
  // scanned in 256-word blocks and diffed page by page only inside a block
  // that differs: one compare per page costs the checker's restores more.
  void RestoreWords(std::span<const Word> image) {
    SEP_CHECK(image.size() == size());
    constexpr std::size_t kScanWords = 4 * kVersionPageWords;
    for (std::size_t block = 0; block < size(); block += kScanWords) {
      const std::size_t end = std::min(block + kScanWords, size());
      if (std::memcmp(words_.data() + block, image.data() + block,
                      (end - block) * sizeof(Word)) == 0) {
        continue;
      }
      for (std::size_t base = block; base < end; base += kVersionPageWords) {
        const std::size_t count = std::min(kVersionPageWords, end - base);
        Word* cur = words_.data() + base;
        const Word* src = image.data() + base;
        if (std::memcmp(cur, src, count * sizeof(Word)) != 0) {
          std::memcpy(cur, src, count * sizeof(Word));
          ++versions_[base >> kVersionPageShift];
        }
      }
    }
  }

  // --- write tracking (predecode-cache invalidation) ---

  // Version of the page containing `addr`; never 0 (cache code uses 0 as
  // "no entry").
  std::uint64_t PageVersion(PhysAddr addr) const {
    return versions_[addr >> kVersionPageShift];
  }

  // Index of `addr`'s version page in the raw table below. The machine's
  // superblock guards record (index, version) pairs over every page a
  // stitched trace covers, so one entry check replaces the per-step
  // version/version_last compares for the whole range.
  static constexpr std::size_t VersionIndex(PhysAddr addr) {
    return addr >> kVersionPageShift;
  }

  // Raw version table, indexed by addr >> kVersionPageShift. The table never
  // reallocates after construction, so hot loops may hold the pointer across
  // steps instead of re-walking the vector.
  const std::uint64_t* version_data() const { return versions_.data(); }

  std::vector<Word> SnapshotRange(PhysAddr base, std::size_t count) const {
    SEP_CHECK(base <= size() && count <= size() - base);
    return std::vector<Word>(words_.begin() + base, words_.begin() + base + count);
  }

  // Architectural equality is over the stored words only; version counters
  // record mutation history, not state.
  bool operator==(const PhysicalMemory& other) const { return words_ == other.words_; }

 private:
  void TouchRange(PhysAddr base, std::size_t count) {
    if (count == 0) {
      return;
    }
    const std::size_t first = base >> kVersionPageShift;
    const std::size_t last = (base + count - 1) >> kVersionPageShift;
    for (std::size_t page = first; page <= last; ++page) {
      ++versions_[page];
    }
  }

  std::vector<Word> words_;
  std::vector<std::uint64_t> versions_;
};

}  // namespace sep

#endif  // SRC_MACHINE_MEMORY_H_
