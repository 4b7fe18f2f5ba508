// Internal templated core of the SM-11 interpreter.
//
// The interpreter logic lives here as templates over the bus type so that it
// can be instantiated twice with identical semantics:
//
//   * cpu.cpp instantiates ExecuteOneT<Bus> against the abstract Bus
//     interface — the stable public ExecuteOne() used by unit tests and any
//     caller with a custom bus;
//   * machine.cpp instantiates ExecuteOneT / ExecutePredecodedT with the
//     concrete (final) MachineBus, so every memory access in the hot path is
//     devirtualized and inlined.
//
// ExecutePredecodedT additionally consumes a DecodedInsn and its extension
// words from the machine's predecode cache instead of fetching and decoding
// through the bus. The PC bookkeeping is kept bit-for-bit identical to the
// fetching path: the cached extension words are served by the same
// FetchWord() that would otherwise read the bus, including the PC increment,
// so PC-relative addressing and fault-free traces cannot diverge. The caller
// guarantees (by page-version and MMU-run validation) that the cached words
// equal memory content and that the fetches could not fault; everything else
// — operand resolution order, flag updates, fault stickiness — is the shared
// code below.
//
// This header is an implementation detail of src/machine; include cpu.h for
// the public interface.
#ifndef SRC_MACHINE_INTERP_H_
#define SRC_MACHINE_INTERP_H_

#include <optional>

#include "src/machine/cpu.h"
#include "src/machine/isa.h"

namespace sep {
namespace interp {

// Where an operand lives after address resolution.
enum class Loc : std::uint8_t { kRegister, kMemory, kImmediate };

struct Operand {
  Loc loc = Loc::kRegister;
  int reg = 0;         // kRegister
  VirtAddr addr = 0;   // kMemory
  Word imm = 0;        // kImmediate
};

template <typename BusT>
struct Ctx {
  CpuState st;  // scratch copy, committed on success
  BusT& bus;
  CpuEvent event;  // sticky fault record
  // Predecoded extension-word stream; when non-null, FetchWord serves from
  // here (still advancing PC) instead of reading the bus.
  const Word* ext = nullptr;
  int ext_left = 0;

  bool failed() const { return event.kind != CpuEventKind::kOk; }

  void Fail(CpuEventKind kind, VirtAddr addr = 0) {
    if (!failed()) {
      event.kind = kind;
      event.fault_addr = addr;
    }
  }

  Word FetchWord() {
    if (ext_left > 0) {
      --ext_left;
      st.set_pc(static_cast<Word>(st.pc() + 1));
      return *ext++;
    }
    Word w = 0;
    if (!bus.Read(st.pc(), AccessKind::kReadInstruction, &w)) {
      Fail(CpuEventKind::kBusFault, st.pc());
      return 0;
    }
    st.set_pc(static_cast<Word>(st.pc() + 1));
    return w;
  }

  Word ReadMem(VirtAddr addr) {
    Word w = 0;
    if (!bus.Read(addr, AccessKind::kReadData, &w)) {
      Fail(CpuEventKind::kBusFault, addr);
      return 0;
    }
    return w;
  }

  void WriteMem(VirtAddr addr, Word value) {
    if (!bus.Write(addr, value)) {
      Fail(CpuEventKind::kBusFault, addr);
    }
  }

  void Push(Word value) {
    st.set_sp(static_cast<Word>(st.sp() - 1));
    WriteMem(st.sp(), value);
  }

  Word Pop() {
    Word value = ReadMem(st.sp());
    st.set_sp(static_cast<Word>(st.sp() + 1));
    return value;
  }

  // Resolves an operand spec, fetching the extension word if needed.
  Operand Resolve(const OperandSpec& spec, bool is_dst) {
    Operand op;
    switch (spec.mode) {
      case AddrMode::kReg:
        op.loc = Loc::kRegister;
        op.reg = spec.reg;
        return op;
      case AddrMode::kRegDeferred:
        op.loc = Loc::kMemory;
        op.addr = st.regs[spec.reg];
        return op;
      case AddrMode::kImmediate: {
        Word ext_word = FetchWord();
        if (is_dst) {
          op.loc = Loc::kMemory;  // absolute addressing
          op.addr = ext_word;
        } else {
          op.loc = Loc::kImmediate;
          op.imm = ext_word;
        }
        return op;
      }
      case AddrMode::kIndexed: {
        Word ext_word = FetchWord();
        op.loc = Loc::kMemory;
        op.addr = static_cast<Word>(ext_word + st.regs[spec.reg]);
        return op;
      }
    }
    return op;
  }

  Word ReadOperand(const Operand& op) {
    switch (op.loc) {
      case Loc::kRegister:
        return st.regs[op.reg];
      case Loc::kMemory:
        return ReadMem(op.addr);
      case Loc::kImmediate:
        return op.imm;
    }
    return 0;
  }

  void WriteOperand(const Operand& op, Word value) {
    switch (op.loc) {
      case Loc::kRegister:
        st.regs[op.reg] = value;
        return;
      case Loc::kMemory:
        WriteMem(op.addr, value);
        return;
      case Loc::kImmediate:
        Fail(CpuEventKind::kIllegalInstruction);
        return;
    }
  }

  // Effective address for control transfer; register mode is illegal
  // (matching the PDP-11's treatment of JMP Rn).
  std::optional<VirtAddr> JumpTarget(const OperandSpec& spec) {
    switch (spec.mode) {
      case AddrMode::kReg:
        Fail(CpuEventKind::kIllegalInstruction);
        return std::nullopt;
      case AddrMode::kRegDeferred:
        return st.regs[spec.reg];
      case AddrMode::kImmediate:
        return FetchWord();
      case AddrMode::kIndexed: {
        Word ext_word = FetchWord();
        return static_cast<Word>(ext_word + st.regs[spec.reg]);
      }
    }
    return std::nullopt;
  }
};

inline bool SignedOverflowAdd(Word a, Word b, Word r) {
  return ((a ^ r) & (b ^ r) & 0x8000) != 0;
}

inline bool SignedOverflowSub(Word a, Word b, Word r) {
  // r = a - b
  return ((a ^ b) & (a ^ r) & 0x8000) != 0;
}

template <typename BusT>
void ExecTwoOp(Ctx<BusT>& ctx, const DecodedInsn& insn) {
  Operand src = ctx.Resolve(insn.src, /*is_dst=*/false);
  if (ctx.failed()) {
    return;
  }
  Operand dst = ctx.Resolve(insn.dst, /*is_dst=*/true);
  if (ctx.failed()) {
    return;
  }
  Word s = ctx.ReadOperand(src);
  if (ctx.failed()) {
    return;
  }

  Psw& psw = ctx.st.psw;
  switch (insn.opcode) {
    case Opcode::kMov:
      ctx.WriteOperand(dst, s);
      psw.SetNZ(s, false, psw.c());
      return;
    case Opcode::kAdd: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d + s);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, SignedOverflowAdd(d, s, r), r < d);
      return;
    }
    case Opcode::kSub: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d - s);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, SignedOverflowSub(d, s, r), d < s);
      return;
    }
    case Opcode::kCmp: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(s - d);
      psw.SetNZ(r, SignedOverflowSub(s, d, r), s < d);
      return;
    }
    case Opcode::kBit: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(s & d);
      psw.SetNZ(r, false, psw.c());
      return;
    }
    case Opcode::kBic: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d & static_cast<Word>(~s));
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, false, psw.c());
      return;
    }
    case Opcode::kBis: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d | s);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, false, psw.c());
      return;
    }
    case Opcode::kXor: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d ^ s);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, false, psw.c());
      return;
    }
    default:
      ctx.Fail(CpuEventKind::kIllegalInstruction);
      return;
  }
}

template <typename BusT>
void ExecOneOp(Ctx<BusT>& ctx, const DecodedInsn& insn) {
  Psw& psw = ctx.st.psw;

  if (insn.opcode == Opcode::kJmp || insn.opcode == Opcode::kJsr) {
    std::optional<VirtAddr> target = ctx.JumpTarget(insn.dst);
    if (ctx.failed() || !target.has_value()) {
      return;
    }
    if (insn.opcode == Opcode::kJsr) {
      ctx.Push(ctx.st.pc());
      if (ctx.failed()) {
        return;
      }
    }
    ctx.st.set_pc(static_cast<Word>(*target));
    return;
  }

  Operand dst = ctx.Resolve(insn.dst, /*is_dst=*/true);
  if (ctx.failed()) {
    return;
  }

  switch (insn.opcode) {
    case Opcode::kClr:
      ctx.WriteOperand(dst, 0);
      psw.SetFlags(false, true, false, false);
      return;
    case Opcode::kTst: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      psw.SetNZ(d, false, false);
      return;
    }
    case Opcode::kInc: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d + 1);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, r == 0x8000, psw.c());
      return;
    }
    case Opcode::kDec: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(d - 1);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, d == 0x8000, psw.c());
      return;
    }
    case Opcode::kNeg: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(0 - d);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, r == 0x8000, r != 0);
      return;
    }
    case Opcode::kCom: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      Word r = static_cast<Word>(~d);
      ctx.WriteOperand(dst, r);
      psw.SetNZ(r, false, true);
      return;
    }
    case Opcode::kAsr: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      bool c = (d & 1) != 0;
      Word r = static_cast<Word>((d >> 1) | (d & 0x8000));
      ctx.WriteOperand(dst, r);
      bool n = (r & 0x8000) != 0;
      psw.SetFlags(n, r == 0, n != c, c);
      return;
    }
    case Opcode::kAsl: {
      Word d = ctx.ReadOperand(dst);
      if (ctx.failed()) {
        return;
      }
      bool c = (d & 0x8000) != 0;
      Word r = static_cast<Word>(d << 1);
      ctx.WriteOperand(dst, r);
      bool n = (r & 0x8000) != 0;
      psw.SetFlags(n, r == 0, n != c, c);
      return;
    }
    default:
      ctx.Fail(CpuEventKind::kIllegalInstruction);
      return;
  }
}

inline bool BranchTaken(Opcode op, const Psw& psw) {
  const bool n = psw.n();
  const bool z = psw.z();
  const bool v = psw.v();
  const bool c = psw.c();
  switch (op) {
    case Opcode::kBr:
      return true;
    case Opcode::kBeq:
      return z;
    case Opcode::kBne:
      return !z;
    case Opcode::kBmi:
      return n;
    case Opcode::kBpl:
      return !n;
    case Opcode::kBcs:
      return c;
    case Opcode::kBcc:
      return !c;
    case Opcode::kBvs:
      return v;
    case Opcode::kBvc:
      return !v;
    case Opcode::kBlt:
      return n != v;
    case Opcode::kBge:
      return n == v;
    case Opcode::kBgt:
      return !z && (n == v);
    case Opcode::kBle:
      return z || (n != v);
    default:
      return false;
  }
}

// True when executing `insn` can store to memory: a writing opcode whose
// destination operand is memory-addressed. The machine's superblock layer
// rechecks covered-page versions after exactly these instructions, which is
// what makes hoisting the per-step version compares to trace entry sound
// against self-modifying code (see machine.cpp).
inline bool MayWriteMemory(const DecodedInsn& insn) {
  switch (insn.opcode) {
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kBic:
    case Opcode::kBis:
    case Opcode::kXor:
    case Opcode::kClr:
    case Opcode::kInc:
    case Opcode::kDec:
    case Opcode::kNeg:
    case Opcode::kCom:
    case Opcode::kAsr:
    case Opcode::kAsl:
      return insn.dst.mode != AddrMode::kReg;
    default:
      // CMP/BIT/TST only read; branches and NOP store nothing, and every
      // other opcode (generic form, or JSR/RTS/TRAP) is never stitched
      // into a superblock.
      return false;
  }
}

// True when executing `insn` can touch data memory at all — any operand
// that Resolve() would place in Loc::kMemory (sources in deferred or
// indexed mode; destinations in anything but register mode, since an
// immediate-mode destination is absolute addressing). Instructions for
// which this is false cannot fault and cannot store: the superblock layer
// runs them through a lean in-trace handler with no event plumbing and no
// post-store version recheck (see machine.cpp).
inline bool MayTouchMemory(const DecodedInsn& insn) {
  switch (insn.opcode) {
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kCmp:
    case Opcode::kBit:
    case Opcode::kBic:
    case Opcode::kBis:
    case Opcode::kXor:
      if (insn.src.mode == AddrMode::kRegDeferred || insn.src.mode == AddrMode::kIndexed) {
        return true;
      }
      return insn.dst.mode != AddrMode::kReg;
    case Opcode::kClr:
    case Opcode::kInc:
    case Opcode::kDec:
    case Opcode::kNeg:
    case Opcode::kCom:
    case Opcode::kTst:
    case Opcode::kAsr:
    case Opcode::kAsl:
      return insn.dst.mode != AddrMode::kReg;
    default:
      // Branches and NOP have no operands; every other opcode (generic
      // form, or JSR/RTS/TRAP) is never stitched.
      return false;
  }
}

// Executes a decoded instruction whose instruction word has already been
// consumed (ctx.st PC points past it). Commits the scratch state unless the
// instruction aborted.
template <typename BusT>
CpuEvent RunDecoded(Ctx<BusT>& ctx, const DecodedInsn& insn, CpuState& state) {
  const bool user_mode = ctx.st.psw.mode() == CpuMode::kUser;

  switch (insn.opcode) {
    case Opcode::kHalt:
      if (user_mode) {
        ctx.Fail(CpuEventKind::kIllegalInstruction);
        return ctx.event;
      }
      state = ctx.st;
      return {CpuEventKind::kHalt, 0, 0};
    case Opcode::kNop:
      break;
    case Opcode::kWait:
      if (user_mode) {
        ctx.Fail(CpuEventKind::kIllegalInstruction);
        return ctx.event;
      }
      state = ctx.st;
      return {CpuEventKind::kWait, 0, 0};
    case Opcode::kRti: {
      if (user_mode) {
        ctx.Fail(CpuEventKind::kIllegalInstruction);
        return ctx.event;
      }
      Word pc = ctx.Pop();
      Word psw = ctx.Pop();
      if (ctx.failed()) {
        return ctx.event;
      }
      ctx.st.set_pc(pc);
      ctx.st.psw.set_bits(psw);
      break;
    }
    case Opcode::kRts: {
      Word pc = ctx.Pop();
      if (ctx.failed()) {
        return ctx.event;
      }
      ctx.st.set_pc(pc);
      break;
    }
    case Opcode::kTrap:
      state = ctx.st;
      return {CpuEventKind::kTrap, insn.trap_code, 0};
    case Opcode::kMov:
    case Opcode::kAdd:
    case Opcode::kSub:
    case Opcode::kCmp:
    case Opcode::kBit:
    case Opcode::kBic:
    case Opcode::kBis:
    case Opcode::kXor:
      ExecTwoOp(ctx, insn);
      break;
    case Opcode::kClr:
    case Opcode::kInc:
    case Opcode::kDec:
    case Opcode::kNeg:
    case Opcode::kCom:
    case Opcode::kTst:
    case Opcode::kAsr:
    case Opcode::kAsl:
    case Opcode::kJmp:
    case Opcode::kJsr:
      ExecOneOp(ctx, insn);
      break;
    default:
      // Branches.
      if (BranchTaken(insn.opcode, ctx.st.psw)) {
        ctx.st.set_pc(static_cast<Word>(ctx.st.pc() + insn.branch_offset));
      }
      break;
  }

  if (ctx.failed()) {
    return ctx.event;
  }
  state = ctx.st;
  return ctx.event;
}

// Full fetch-decode-execute of one instruction through the bus.
template <typename BusT>
CpuEvent ExecuteOneT(CpuState& state, BusT& bus) {
  Ctx<BusT> ctx{state, bus, {}, nullptr, 0};

  Word insn_word = ctx.FetchWord();
  if (ctx.failed()) {
    return ctx.event;
  }

  std::optional<DecodedInsn> insn = Decode(insn_word);
  if (!insn.has_value()) {
    ctx.Fail(CpuEventKind::kIllegalInstruction);
    return ctx.event;
  }

  return RunDecoded(ctx, *insn, state);
}

// Executes a predecoded instruction: the caller supplies the decode and the
// insn.length - 1 extension words (cached values equal to memory content)
// and guarantees the corresponding fetches could not fault.
template <typename BusT>
CpuEvent ExecutePredecodedT(CpuState& state, BusT& bus, const DecodedInsn& insn,
                            const Word* ext) {
  Ctx<BusT> ctx{state, bus, {}, ext, insn.length - 1};
  ctx.st.set_pc(static_cast<Word>(ctx.st.pc() + 1));  // past the insn word
  return RunDecoded(ctx, insn, state);
}

// ---------------------------------------------------------------------------
// Direct execution of predecoded instructions.
//
// The common ALU / data-movement / branch subset is executed without the
// scratch-CpuState copy-in/copy-out of the Ctx path (whose store-to-load
// forwarding stalls dominate per-step cost): everything is computed in
// locals and committed only after the last access that can fault has
// succeeded — the same no-side-effects-on-abort guarantee, enforced by
// commit ordering rather than by a throwaway copy.
//
// DirectStepT<BusT, kOp> is the per-opcode core. The opcode is a template
// parameter so the machine's threaded engine (RunThreaded) can dispatch each
// predecoded opcode to its own handler (its own branch-predictor site) with
// the flag algebra constant-folded. PC and PSW are passed as plain locals the caller
// keeps in registers; `regs` points at the architectural register file.
// regs[kPc] is never read or written here: any operand addressed through
// the PC register bails out (return false) before any bus access, because
// its mid-instruction PC value is what the scratch path models. JSR, RTS
// and TRAP are not here: the engine runs them by the same commit-ordering
// rule in Machine::ExecuteCallForm, out of line (machine.cpp says why).
//
// Returns true when the instruction was executed; *event then holds kOk or
// the fault — exactly as ExecutePredecodedT would report it — and on a
// fault regs/psw/pc are untouched. Returns false when the instruction needs
// the generic path. Operand resolution order, bus-access order and flag
// algebra mirror ExecTwoOp/ExecOneOp case by case so traces cannot diverge.

namespace detail {

template <Opcode kOp>
inline constexpr bool kIsBranch =
    kOp == Opcode::kBr || kOp == Opcode::kBeq || kOp == Opcode::kBne ||
    kOp == Opcode::kBmi || kOp == Opcode::kBpl || kOp == Opcode::kBcs ||
    kOp == Opcode::kBcc || kOp == Opcode::kBvs || kOp == Opcode::kBvc ||
    kOp == Opcode::kBlt || kOp == Opcode::kBge || kOp == Opcode::kBgt ||
    kOp == Opcode::kBle;

template <Opcode kOp>
inline constexpr bool kIsDirectTwoOp =
    kOp == Opcode::kMov || kOp == Opcode::kAdd || kOp == Opcode::kSub ||
    kOp == Opcode::kCmp || kOp == Opcode::kBit || kOp == Opcode::kBic ||
    kOp == Opcode::kBis || kOp == Opcode::kXor;

template <Opcode kOp>
inline constexpr bool kIsDirectOneOp =
    kOp == Opcode::kClr || kOp == Opcode::kInc || kOp == Opcode::kDec ||
    kOp == Opcode::kNeg || kOp == Opcode::kCom || kOp == Opcode::kTst ||
    kOp == Opcode::kAsr || kOp == Opcode::kAsl;

}  // namespace detail

template <typename BusT, Opcode kOp>
__attribute__((always_inline)) inline bool DirectStepT(Word* regs, Psw& psw, Word& pc,
                                                       BusT& bus, const DecodedInsn& insn,
                                                       const Word* ext, CpuEvent* event) {
  const Word pc_next = static_cast<Word>(pc + insn.length);

  if constexpr (kOp == Opcode::kNop) {
    pc = pc_next;
    return true;

  } else if constexpr (detail::kIsBranch<kOp>) {
    Word next = pc_next;
    if (BranchTaken(kOp, psw)) {
      next = static_cast<Word>(next + insn.branch_offset);
    }
    pc = next;
    return true;

  } else if constexpr (detail::kIsDirectTwoOp<kOp>) {
    // Resolve both operands (register/ext reads only, no bus traffic).
    Word s = 0;
    VirtAddr saddr = 0;
    bool smem = false;
    switch (insn.src.mode) {
      case AddrMode::kReg:
        if (insn.src.reg == kPc) return false;
        s = regs[insn.src.reg];
        break;
      case AddrMode::kRegDeferred:
        if (insn.src.reg == kPc) return false;
        smem = true;
        saddr = regs[insn.src.reg];
        break;
      case AddrMode::kImmediate:
        s = *ext++;
        break;
      case AddrMode::kIndexed:
        if (insn.src.reg == kPc) return false;
        smem = true;
        saddr = static_cast<Word>(*ext++ + regs[insn.src.reg]);
        break;
    }
    int dreg = 0;
    VirtAddr daddr = 0;
    bool dmem = false;
    switch (insn.dst.mode) {
      case AddrMode::kReg:
        if (insn.dst.reg == kPc) return false;
        dreg = insn.dst.reg;
        break;
      case AddrMode::kRegDeferred:
        if (insn.dst.reg == kPc) return false;
        dmem = true;
        daddr = regs[insn.dst.reg];
        break;
      case AddrMode::kImmediate:  // absolute as a destination
        dmem = true;
        daddr = *ext++;
        break;
      case AddrMode::kIndexed:
        if (insn.dst.reg == kPc) return false;
        dmem = true;
        daddr = static_cast<Word>(*ext++ + regs[insn.dst.reg]);
        break;
    }

    if (smem && !bus.Read(saddr, AccessKind::kReadData, &s)) {
      *event = {CpuEventKind::kBusFault, 0, saddr};
      return true;
    }
    Word d = 0;
    if constexpr (kOp != Opcode::kMov) {
      if (dmem) {
        if (!bus.Read(daddr, AccessKind::kReadData, &d)) {
          *event = {CpuEventKind::kBusFault, 0, daddr};
          return true;
        }
      } else {
        d = regs[dreg];
      }
    }

    Word r = 0;
    Psw flags = psw;
    constexpr bool kWrites = kOp != Opcode::kCmp && kOp != Opcode::kBit;
    if constexpr (kOp == Opcode::kMov) {
      r = s;
      flags.SetNZ(s, false, flags.c());
    } else if constexpr (kOp == Opcode::kAdd) {
      r = static_cast<Word>(d + s);
      flags.SetNZ(r, SignedOverflowAdd(d, s, r), r < d);
    } else if constexpr (kOp == Opcode::kSub) {
      r = static_cast<Word>(d - s);
      flags.SetNZ(r, SignedOverflowSub(d, s, r), d < s);
    } else if constexpr (kOp == Opcode::kCmp) {
      Word t = static_cast<Word>(s - d);
      flags.SetNZ(t, SignedOverflowSub(s, d, t), s < d);
    } else if constexpr (kOp == Opcode::kBit) {
      Word t = static_cast<Word>(s & d);
      flags.SetNZ(t, false, flags.c());
    } else if constexpr (kOp == Opcode::kBic) {
      r = static_cast<Word>(d & static_cast<Word>(~s));
      flags.SetNZ(r, false, flags.c());
    } else if constexpr (kOp == Opcode::kBis) {
      r = static_cast<Word>(d | s);
      flags.SetNZ(r, false, flags.c());
    } else {  // kXor
      r = static_cast<Word>(d ^ s);
      flags.SetNZ(r, false, flags.c());
    }

    if constexpr (kWrites) {
      if (dmem) {
        if (!bus.Write(daddr, r)) {
          *event = {CpuEventKind::kBusFault, 0, daddr};
          return true;
        }
      } else {
        regs[dreg] = r;
      }
    }
    psw = flags;
    pc = pc_next;
    return true;

  } else {
    static_assert(detail::kIsDirectOneOp<kOp>, "opcode has no direct handler");
    int dreg = 0;
    VirtAddr daddr = 0;
    bool dmem = false;
    switch (insn.dst.mode) {
      case AddrMode::kReg:
        if (insn.dst.reg == kPc) return false;
        dreg = insn.dst.reg;
        break;
      case AddrMode::kRegDeferred:
        if (insn.dst.reg == kPc) return false;
        dmem = true;
        daddr = regs[insn.dst.reg];
        break;
      case AddrMode::kImmediate:  // absolute as a destination
        dmem = true;
        daddr = *ext++;
        break;
      case AddrMode::kIndexed:
        if (insn.dst.reg == kPc) return false;
        dmem = true;
        daddr = static_cast<Word>(*ext++ + regs[insn.dst.reg]);
        break;
    }

    Word d = 0;
    if constexpr (kOp != Opcode::kClr) {
      if (dmem) {
        if (!bus.Read(daddr, AccessKind::kReadData, &d)) {
          *event = {CpuEventKind::kBusFault, 0, daddr};
          return true;
        }
      } else {
        d = regs[dreg];
      }
    }

    Word r = 0;
    Psw flags = psw;
    constexpr bool kWrites = kOp != Opcode::kTst;
    if constexpr (kOp == Opcode::kClr) {
      r = 0;
      flags.SetFlags(false, true, false, false);
    } else if constexpr (kOp == Opcode::kTst) {
      flags.SetNZ(d, false, false);
    } else if constexpr (kOp == Opcode::kInc) {
      r = static_cast<Word>(d + 1);
      flags.SetNZ(r, r == 0x8000, flags.c());
    } else if constexpr (kOp == Opcode::kDec) {
      r = static_cast<Word>(d - 1);
      flags.SetNZ(r, d == 0x8000, flags.c());
    } else if constexpr (kOp == Opcode::kNeg) {
      r = static_cast<Word>(0 - d);
      flags.SetNZ(r, r == 0x8000, r != 0);
    } else if constexpr (kOp == Opcode::kCom) {
      r = static_cast<Word>(~d);
      flags.SetNZ(r, false, true);
    } else if constexpr (kOp == Opcode::kAsr) {
      bool c = (d & 1) != 0;
      r = static_cast<Word>((d >> 1) | (d & 0x8000));
      bool n = (r & 0x8000) != 0;
      flags.SetFlags(n, r == 0, n != c, c);
    } else {  // kAsl
      bool c = (d & 0x8000) != 0;
      r = static_cast<Word>(d << 1);
      bool n = (r & 0x8000) != 0;
      flags.SetFlags(n, r == 0, n != c, c);
    }

    if constexpr (kWrites) {
      if (dmem) {
        if (!bus.Write(daddr, r)) {
          *event = {CpuEventKind::kBusFault, 0, daddr};
          return true;
        }
      } else {
        regs[dreg] = r;
      }
    }
    psw = flags;
    pc = pc_next;
    return true;
  }
}

}  // namespace interp
}  // namespace sep

#endif  // SRC_MACHINE_INTERP_H_
