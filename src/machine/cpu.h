// The SM-11 CPU: register state and the instruction interpreter.
//
// The interpreter is written against an abstract Bus so it can be unit
// tested against a flat memory and reused unchanged inside the full Machine
// (where the bus applies MMU translation and routes I/O-page addresses to
// device registers).
//
// Faults (illegal instruction, bus/MMU fault) abort the instruction with no
// architectural side effects: the interpreter works on a scratch copy of the
// register state and commits it only when the instruction completes. This
// gives the kernel a precise machine state to inspect on every abort, which
// the Proof-of-Separability conditions rely on.
#ifndef SRC_MACHINE_CPU_H_
#define SRC_MACHINE_CPU_H_

#include <array>
#include <cstdint>
#include <optional>

#include "src/base/types.h"
#include "src/machine/isa.h"
#include "src/machine/mmu.h"

namespace sep {

// Processor status word layout:
//   [0] C  [1] V  [2] Z  [3] N   condition codes
//   [7:5]  interrupt priority (devices at priority <= this are masked)
//   [15]   mode: 0 kernel, 1 user
class Psw {
 public:
  Psw() = default;
  explicit Psw(Word bits) : bits_(bits) {}

  Word bits() const { return bits_; }
  void set_bits(Word bits) { bits_ = bits; }

  bool c() const { return bits_ & 0x0001; }
  bool v() const { return bits_ & 0x0002; }
  bool z() const { return bits_ & 0x0004; }
  bool n() const { return bits_ & 0x0008; }

  void SetFlags(bool n, bool z, bool v, bool c) {
    bits_ = static_cast<Word>((bits_ & ~0x000F) | (n ? 0x8 : 0) | (z ? 0x4 : 0) | (v ? 0x2 : 0) |
                              (c ? 0x1 : 0));
  }
  void SetNZ(Word result, bool v, bool c) {
    SetFlags((result & 0x8000) != 0, result == 0, v, c);
  }

  int priority() const { return (bits_ >> 5) & 0x7; }
  void set_priority(int p) {
    bits_ = static_cast<Word>((bits_ & ~0x00E0) | ((p & 0x7) << 5));
  }

  CpuMode mode() const { return (bits_ & 0x8000) ? CpuMode::kUser : CpuMode::kKernel; }
  void set_mode(CpuMode mode) {
    if (mode == CpuMode::kUser) {
      bits_ |= 0x8000;
    } else {
      bits_ &= 0x7FFF;
    }
  }

  bool operator==(const Psw& other) const = default;

 private:
  Word bits_ = 0;
};

struct CpuState {
  std::array<Word, 8> regs{};
  Psw psw;

  Word pc() const { return regs[kPc]; }
  void set_pc(Word pc) { regs[kPc] = pc; }
  Word sp() const { return regs[kSp]; }
  void set_sp(Word sp) { regs[kSp] = sp; }

  bool operator==(const CpuState& other) const = default;
};

// Memory as the CPU sees it (post-MMU). Read/Write return false on fault;
// the fault description is left in `last_fault`.
class Bus {
 public:
  virtual ~Bus() = default;
  virtual bool Read(VirtAddr addr, AccessKind kind, Word* out) = 0;
  virtual bool Write(VirtAddr addr, Word value) = 0;
};

enum class CpuEventKind : std::uint8_t {
  kOk,                  // instruction retired normally
  kHalt,                // HALT in kernel mode
  kWait,                // WAIT: idle until next interrupt
  kIllegalInstruction,  // bad opcode, privileged op in user mode, bad operand
  kBusFault,            // MMU abort during the instruction
  kTrap,                // TRAP instruction (kernel call); code in trap_code
};

struct CpuEvent {
  CpuEventKind kind = CpuEventKind::kOk;
  std::uint16_t trap_code = 0;
  VirtAddr fault_addr = 0;  // for kBusFault
};

// Executes exactly one instruction. On kOk/kHalt/kWait/kTrap the state is
// committed (PC past the instruction); on faults the state is untouched.
CpuEvent ExecuteOne(CpuState& state, Bus& bus);

}  // namespace sep

#endif  // SRC_MACHINE_CPU_H_
