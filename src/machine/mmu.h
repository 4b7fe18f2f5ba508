// The SM-11 memory management unit.
//
// Modelled on the PDP-11/34 KT11 unit the SUE kernel programmed: a small set
// of page registers per processor mode maps the 16-bit virtual space onto
// the larger physical space with per-page length and access control. The
// separation kernel achieves the mutual isolation of its regimes (and its
// own protection) purely by programming these registers — exactly as the
// paper describes for the SUE — and the Proof-of-Separability checker treats
// the register contents as part of the concrete machine state.
//
// Virtual addresses are 16-bit word addresses: the top 3 bits select one of
// 8 pages, the low 13 bits are the offset within the page (so a full page
// spans 8192 words). A page register holds:
//   base   physical word address of the page frame
//   length number of valid words (0 = page disabled)
//   access kNone / kReadOnly / kReadWrite
#ifndef SRC_MACHINE_MMU_H_
#define SRC_MACHINE_MMU_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/base/types.h"

namespace sep {

enum class CpuMode : std::uint8_t { kKernel = 0, kUser = 1 };

enum class PageAccess : std::uint8_t { kNone = 0, kReadOnly = 1, kReadWrite = 2 };

inline constexpr int kPagesPerMode = 8;
inline constexpr int kPageBits = 13;
inline constexpr std::uint32_t kPageWords = 1u << kPageBits;  // 8192 words

struct PageRegister {
  PhysAddr base = 0;
  std::uint32_t length = 0;  // valid words in page; 0 disables the page
  PageAccess access = PageAccess::kNone;

  bool operator==(const PageRegister& other) const = default;
};

enum class AccessKind : std::uint8_t { kReadData, kReadInstruction, kWriteData };

// Why a translation failed; surfaced to the kernel as an abort.
enum class MmuFault : std::uint8_t {
  kPageDisabled,
  kLengthViolation,
  kAccessViolation,
};

struct Translation {
  PhysAddr phys = 0;
};

class Mmu {
 public:
  Mmu() = default;

  // Translation result: physical address, or the fault that occurred.
  struct ResultT {
    std::optional<Translation> translation;
    MmuFault fault = MmuFault::kPageDisabled;
  };

  ResultT Translate(CpuMode mode, VirtAddr vaddr, AccessKind kind) const {
    const int page = static_cast<int>((vaddr >> kPageBits) & 0x7);
    const std::uint32_t offset = vaddr & (kPageWords - 1);
    const PageRegister& pr = regs_[static_cast<int>(mode)][page];
    ResultT out;
    if (pr.access == PageAccess::kNone || pr.length == 0) {
      out.fault = MmuFault::kPageDisabled;
      return out;
    }
    if (offset >= pr.length) {
      out.fault = MmuFault::kLengthViolation;
      return out;
    }
    if (kind == AccessKind::kWriteData && pr.access != PageAccess::kReadWrite) {
      out.fault = MmuFault::kAccessViolation;
      return out;
    }
    out.translation = Translation{pr.base + offset};
    return out;
  }

  const PageRegister& page(CpuMode mode, int index) const {
    return regs_[static_cast<int>(mode)][index];
  }

  void SetPage(CpuMode mode, int index, PageRegister reg) {
    regs_[static_cast<int>(mode)][index] = reg;
  }

  void DisableAll(CpuMode mode) {
    for (auto& pr : regs_[static_cast<int>(mode)]) {
      pr = PageRegister{};
    }
  }

  bool operator==(const Mmu& other) const = default;

 private:
  std::array<std::array<PageRegister, kPagesPerMode>, 2> regs_{};
};

}  // namespace sep

#endif  // SRC_MACHINE_MMU_H_
