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
// Write tracking: each 64-word page has a version, and a mask with one bit
// per word that the machine has decoded as an instruction word (opcode or
// extension; MarkCode). A single-word store bumps its page's version only
// when it lands on a marked word, so a guest's variables can share a page
// with its code without evicting it; LoadImage, Fill and RestoreWords bump
// every page whose content they change. The machine's predecoded-instruction
// cache and superblocks validate against those versions, and read only
// marked words, so self-modifying code and kernel loads still invalidate
// exactly the affected pages (see docs/PERFORMANCE.md). Versions and masks
// are bookkeeping, not architectural state: they are excluded from equality,
// and masks are never cleared (a stale mark only costs a re-decode).
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
  // Version-tracking granularity: 64 words per page, so one 64-bit mask
  // holds a page's decoded-word bits. Guests routinely keep their variables
  // right after their code, on the same page; the mask is what keeps those
  // stores from invalidating the code beside them.
  static constexpr int kVersionPageShift = 6;
  static constexpr std::size_t kVersionPageWords = std::size_t{1} << kVersionPageShift;
  static_assert(kVersionPageWords == 64, "one 64-bit code mask per version page");

  explicit PhysicalMemory(std::size_t words)
      : words_(words, 0),
        versions_(words / kVersionPageWords + 1, 1),
        code_masks_(words / kVersionPageWords + 1, 0) {}

  std::size_t size() const { return words_.size(); }

  Word Read(PhysAddr addr) const {
    SEP_DCHECK(addr < words_.size());
    return words_[addr];
  }

  void Write(PhysAddr addr, Word value) {
    SEP_DCHECK(addr < words_.size());
    words_[addr] = value;
    const std::size_t page = addr >> kVersionPageShift;
    if (((code_masks_[page] >> (addr & (kVersionPageWords - 1))) & 1) != 0) {
      ++versions_[page];
    }
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

  // Marks [base, base + count) as decoded instruction words, so a later
  // Write to any of them bumps its page's version. The machine calls this
  // for every word a predecoded entry or a superblock reads, before it is
  // trusted; that is the invariant the version checks rest on.
  void MarkCode(PhysAddr base, std::size_t count) {
    SEP_DCHECK(base <= size() && count <= size() - base);
    for (PhysAddr addr = base; addr < base + count; ++addr) {
      code_masks_[addr >> kVersionPageShift] |= std::uint64_t{1}
                                                << (addr & (kVersionPageWords - 1));
    }
  }

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

  // The `count` words from `base`, in place.
  std::span<const Word> Words(PhysAddr base, std::size_t count) const {
    SEP_CHECK(base <= size() && count <= size() - base);
    return {words_.data() + base, count};
  }

  std::vector<Word> SnapshotRange(PhysAddr base, std::size_t count) const {
    SEP_CHECK(base <= size() && count <= size() - base);
    return std::vector<Word>(words_.begin() + base, words_.begin() + base + count);
  }

  // Architectural equality is over the stored words only; version counters
  // and code masks record mutation and decode history, not state.
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
  std::vector<std::uint64_t> code_masks_;  // bit i of page p: word p*64+i was decoded
};

}  // namespace sep

#endif  // SRC_MACHINE_MEMORY_H_
