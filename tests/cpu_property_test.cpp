// Property-based sweeps of the SM-11 interpreter: algebraic identities of
// the ALU and condition codes, checked against independent reference
// computations over randomized operand sets.
#include <gtest/gtest.h>

#include <cstdint>

#include "src/base/rng.h"
#include "src/machine/cpu.h"
#include "tests/test_util.h"

namespace sep {
namespace {

// Every byte of a case is set. gtest prints a parameter that has no printer as
// its raw object bytes, and that dump is part of each test name ctest
// registers. Compiler padding or a pointer to the name would put uninitialized
// memory and address-randomized bytes into the names and vary them per build.
struct AluCase {
  Opcode op;
  std::uint8_t zero[7] = {};
  char name[8];
};
static_assert(sizeof(AluCase) == 16);

class AluProperty : public ::testing::TestWithParam<AluCase> {
 protected:
  // Executes `op src_imm -> dst_reg(initial)` and returns final state.
  CpuState Run(Opcode op, Word src, Word dst_init) {
    FlatBus bus(64);
    CpuState state;
    state.regs[1] = dst_init;
    bus.Load(0, {EncodeTwoOp(op, {AddrMode::kImmediate, 0}, {AddrMode::kReg, 1}), src});
    CpuEvent e = ExecuteOne(state, bus);
    EXPECT_EQ(e.kind, CpuEventKind::kOk);
    return state;
  }
};

TEST_P(AluProperty, FlagsConsistentWithResult) {
  const AluCase param = GetParam();
  Rng rng(0xA11CE);
  for (int trial = 0; trial < 500; ++trial) {
    const Word src = static_cast<Word>(rng.Next());
    const Word dst = static_cast<Word>(rng.Next());
    CpuState state = Run(param.op, src, dst);

    // Reference result.
    Word expected = 0;
    bool writes = true;
    switch (param.op) {
      case Opcode::kMov:
        expected = src;
        break;
      case Opcode::kAdd:
        expected = static_cast<Word>(dst + src);
        break;
      case Opcode::kSub:
        expected = static_cast<Word>(dst - src);
        break;
      case Opcode::kBic:
        expected = static_cast<Word>(dst & ~src);
        break;
      case Opcode::kBis:
        expected = static_cast<Word>(dst | src);
        break;
      case Opcode::kXor:
        expected = static_cast<Word>(dst ^ src);
        break;
      case Opcode::kCmp:
        expected = dst;  // unchanged
        writes = false;
        break;
      default:
        FAIL();
    }
    EXPECT_EQ(state.regs[1], expected) << param.name << " src=" << src << " dst=" << dst;

    // N and Z always describe the produced value (for CMP: src - dst).
    const Word flag_basis = param.op == Opcode::kCmp ? static_cast<Word>(src - dst)
                            : writes                 ? state.regs[1]
                                                     : expected;
    EXPECT_EQ(state.psw.z(), flag_basis == 0) << param.name;
    EXPECT_EQ(state.psw.n(), (flag_basis & 0x8000) != 0) << param.name;
  }
}

TEST_P(AluProperty, PcAdvancesByEncodedLength) {
  const AluCase param = GetParam();
  CpuState state = Run(param.op, 5, 9);
  EXPECT_EQ(state.pc(), 2);  // opcode word + immediate extension
}

INSTANTIATE_TEST_SUITE_P(AllTwoOperand, AluProperty,
                         ::testing::Values(AluCase{.op = Opcode::kMov, .name = "MOV"},
                                           AluCase{.op = Opcode::kAdd, .name = "ADD"},
                                           AluCase{.op = Opcode::kSub, .name = "SUB"},
                                           AluCase{.op = Opcode::kCmp, .name = "CMP"},
                                           AluCase{.op = Opcode::kBic, .name = "BIC"},
                                           AluCase{.op = Opcode::kBis, .name = "BIS"},
                                           AluCase{.op = Opcode::kXor, .name = "XOR"}),
                         [](const ::testing::TestParamInfo<AluCase>& info) {
                           return info.param.name;
                         });

TEST(CpuAlgebra, AddSubRoundTrip) {
  // (x + k) - k == x for all sampled x, k, and C flags of the pair encode
  // carry/borrow consistently.
  Rng rng(42);
  for (int trial = 0; trial < 1000; ++trial) {
    const Word x = static_cast<Word>(rng.Next());
    const Word k = static_cast<Word>(rng.Next());
    FlatBus bus(64);
    CpuState state;
    state.regs[1] = x;
    bus.Load(0, {EncodeTwoOp(Opcode::kAdd, {AddrMode::kImmediate, 0}, {AddrMode::kReg, 1}), k,
                 EncodeTwoOp(Opcode::kSub, {AddrMode::kImmediate, 0}, {AddrMode::kReg, 1}), k});
    ExecuteOne(state, bus);
    const bool carry = state.psw.c();
    ExecuteOne(state, bus);
    const bool borrow = state.psw.c();
    EXPECT_EQ(state.regs[1], x);
    // A carry on the way up implies no borrow coming back only when k != 0;
    // the invariant that always holds: carry and borrow cannot both be set
    // unless k == 0 (where neither is).
    if (k == 0) {
      EXPECT_FALSE(carry);
      EXPECT_FALSE(borrow);
    }
  }
}

TEST(CpuAlgebra, NegIsTwosComplement) {
  Rng rng(43);
  for (int trial = 0; trial < 500; ++trial) {
    const Word x = static_cast<Word>(rng.Next());
    FlatBus bus(64);
    CpuState state;
    state.regs[2] = x;
    bus.Load(0, {EncodeOneOp(Opcode::kNeg, {AddrMode::kReg, 2})});
    ExecuteOne(state, bus);
    EXPECT_EQ(state.regs[2], static_cast<Word>(0 - x));
    EXPECT_EQ(state.psw.c(), x != 0);
  }
}

TEST(CpuAlgebra, ComNegRelation) {
  // COM x == NEG x - 1  (i.e. ~x == -x - 1).
  Rng rng(44);
  for (int trial = 0; trial < 500; ++trial) {
    const Word x = static_cast<Word>(rng.Next());
    FlatBus bus(64);
    CpuState state;
    state.regs[2] = x;
    bus.Load(0, {EncodeOneOp(Opcode::kCom, {AddrMode::kReg, 2})});
    ExecuteOne(state, bus);
    EXPECT_EQ(state.regs[2], static_cast<Word>(static_cast<Word>(0 - x) - 1));
  }
}

TEST(CpuAlgebra, ShiftsAgreeWithArithmetic) {
  Rng rng(45);
  for (int trial = 0; trial < 500; ++trial) {
    const Word x = static_cast<Word>(rng.Next());
    {
      FlatBus bus(64);
      CpuState state;
      state.regs[2] = x;
      bus.Load(0, {EncodeOneOp(Opcode::kAsl, {AddrMode::kReg, 2})});
      ExecuteOne(state, bus);
      EXPECT_EQ(state.regs[2], static_cast<Word>(x << 1));
      EXPECT_EQ(state.psw.c(), (x & 0x8000) != 0);
    }
    {
      FlatBus bus(64);
      CpuState state;
      state.regs[2] = x;
      bus.Load(0, {EncodeOneOp(Opcode::kAsr, {AddrMode::kReg, 2})});
      ExecuteOne(state, bus);
      const Word expected = static_cast<Word>((x >> 1) | (x & 0x8000));
      EXPECT_EQ(state.regs[2], expected);
      EXPECT_EQ(state.psw.c(), (x & 1) != 0);
    }
  }
}

// Signed-branch semantics: BLT/BGE/BGT/BLE after CMP #a, Rb must agree with
// host signed comparison of a and b.
class SignedBranchProperty : public ::testing::TestWithParam<Opcode> {};

TEST_P(SignedBranchProperty, AgreesWithHostComparison) {
  const Opcode branch = GetParam();
  Rng rng(46);
  for (int trial = 0; trial < 600; ++trial) {
    const Word a = static_cast<Word>(rng.Next());
    const Word b = static_cast<Word>(rng.Next());
    const std::int16_t sa = static_cast<std::int16_t>(a);
    const std::int16_t sb = static_cast<std::int16_t>(b);

    FlatBus bus(64);
    CpuState state;
    state.regs[3] = b;
    // CMP #a, R3 computes a - b and sets flags; branch if taken jumps +4.
    bus.Load(0, {EncodeTwoOp(Opcode::kCmp, {AddrMode::kImmediate, 0}, {AddrMode::kReg, 3}), a,
                 EncodeBranch(branch, 4)});
    ExecuteOne(state, bus);
    ExecuteOne(state, bus);

    bool expected = false;
    switch (branch) {
      case Opcode::kBlt:
        expected = sa < sb;
        break;
      case Opcode::kBge:
        expected = sa >= sb;
        break;
      case Opcode::kBgt:
        expected = sa > sb;
        break;
      case Opcode::kBle:
        expected = sa <= sb;
        break;
      default:
        FAIL();
    }
    const bool taken = state.pc() != 3;
    EXPECT_EQ(taken, expected) << "a=" << sa << " b=" << sb;
  }
}

INSTANTIATE_TEST_SUITE_P(AllSignedBranches, SignedBranchProperty,
                         ::testing::Values(Opcode::kBlt, Opcode::kBge, Opcode::kBgt,
                                           Opcode::kBle),
                         [](const ::testing::TestParamInfo<Opcode>& info) {
                           return OpcodeName(info.param);
                         });

// Unsigned branches: BCS after CMP #a, Rb is "a < b" (borrow).
TEST(CpuAlgebra, UnsignedBranchAgreesWithHost) {
  Rng rng(47);
  for (int trial = 0; trial < 600; ++trial) {
    const Word a = static_cast<Word>(rng.Next());
    const Word b = static_cast<Word>(rng.Next());
    FlatBus bus(64);
    CpuState state;
    state.regs[3] = b;
    bus.Load(0, {EncodeTwoOp(Opcode::kCmp, {AddrMode::kImmediate, 0}, {AddrMode::kReg, 3}), a,
                 EncodeBranch(Opcode::kBcs, 4)});
    ExecuteOne(state, bus);
    ExecuteOne(state, bus);
    EXPECT_EQ(state.pc() != 3, a < b);
  }
}

}  // namespace
}  // namespace sep
