// The predecoded-instruction cache must be invisible: traces are identical
// with the cache on or off, across self-modifying code, MMU remaps and the
// batched Run loop. These tests drive cache-on and cache-off machines in
// lockstep and compare complete state hashes every step.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/machine/machine.h"
#include "src/sm11asm/assembler.h"
#include "tests/kernelized_lockstep.h"
#include "tests/test_util.h"

namespace sep {
namespace {

void LoadProgram(Machine& m, const std::string& source) {
  Result<AssembledProgram> p = Assemble(source);
  ASSERT_TRUE(p.ok()) << p.error();
  m.memory().LoadImage(p->base, p->words);
  m.cpu().set_pc(p->EntryPoint());
  m.cpu().set_sp(0x1000);
}

// Steps `cached` (predecode on) and `plain` (predecode off) in lockstep,
// asserting identical step events and identical architectural state after
// every step.
void ExpectLockstepParity(Machine& cached, Machine& plain, int steps) {
  for (int i = 0; i < steps; ++i) {
    StepEvent a = cached.Step();
    StepEvent b = plain.Step();
    ASSERT_EQ(static_cast<int>(a.kind), static_cast<int>(b.kind)) << "step " << i;
    ASSERT_EQ(a.device, b.device) << "step " << i;
    ASSERT_EQ(static_cast<int>(a.trap.kind), static_cast<int>(b.trap.kind)) << "step " << i;
    ASSERT_EQ(cached.StateHash(), plain.StateHash()) << "state diverged at step " << i;
  }
}

// A workload touching every fast-path form plus traps and a HALT: two-op
// ALU, one-op ALU, shifts, memory operands, immediate operands, the whole
// branch family, TRAP (vectored through memory) and RTI. Assembled away
// from the vector table; the tests install the trap vector directly.
constexpr char kMixedProgram[] = R"(
        .ORG 0x100
START:  CLR R0
        CLR R5
LOOP:   INC R0
        ADD R0, R1
        SUB #1, R2
        MOV R1, @0x300
        CMP #40, R0
        BIT #1, R0
        BNE SKIP
        COM R3
SKIP:   BIC #8, R1
        BIS #2, R4
        XOR R0, R3
        NEG R3
        ASL R1
        ASR R1
        DEC R2
        TST R2
        BMI NEG1
NEG1:   BPL POS1
POS1:   BCS CAR1
CAR1:   BCC NOC1
NOC1:   BVS OVF1
OVF1:   BVC NOV1
NOV1:   BLT LT1
LT1:    BGE GE1
GE1:    BGT GT1
GT1:    BLE LE1
LE1:    TRAP 3
        CMP #40, R0
        BNE LOOP
        HALT
        .ORG 0x200
HANDLER:
        INC R5
        RTI
)";

void LoadMixedProgram(Machine& m) {
  LoadProgram(m, kMixedProgram);
  m.memory().Write(kVectorTrap, 0x200);      // handler PC
  m.memory().Write(kVectorTrap + 1, 0);      // handler PSW: kernel, priority 0
  m.cpu().set_pc(0x100);
}

TEST(PredecodeParity, MixedWorkloadLockstep) {
  auto cached = MakeBareMachine();
  auto plain = MakeBareMachine();
  plain->set_predecode_enabled(false);
  LoadMixedProgram(*cached);
  LoadMixedProgram(*plain);
  ExpectLockstepParity(*cached, *plain, 2000);
  EXPECT_TRUE(cached->halted());
  EXPECT_EQ(cached->cpu().regs[0], 40);  // the loop actually ran to completion
  EXPECT_EQ(cached->cpu().regs[5], 40);  // every iteration trapped and returned
  EXPECT_GT(cached->predecode_hits(), 0u);
  EXPECT_EQ(plain->predecode_hits(), 0u);
}

TEST(PredecodeParity, RunMatchesRepeatedStep) {
  auto batched = MakeBareMachine();
  auto stepped = MakeBareMachine();
  LoadMixedProgram(*batched);
  LoadMixedProgram(*stepped);
  const std::size_t ran = batched->Run(2000);
  std::size_t stepped_count = 0;
  for (; stepped_count < 2000 && !stepped->halted(); ++stepped_count) {
    stepped->Step();
  }
  EXPECT_GT(ran, 100u);
  EXPECT_EQ(ran, stepped_count);
  EXPECT_EQ(batched->tick(), stepped->tick());
  EXPECT_EQ(batched->StateHash(), stepped->StateHash());
  EXPECT_TRUE(batched->halted());
}

// The same batched-vs-stepped workload swept with superblocks on and off:
// the superblock layer rides on the predecode cache, so the predecode-only
// configuration must stay bit-identical to both Step() and the full stack
// (traps, RTI and all direct forms included via the mixed program).
TEST(PredecodeParity, RunSweepsSuperblocksOnOff) {
  auto sb_on = MakeBareMachine();
  auto sb_off = MakeBareMachine();
  auto stepped = MakeBareMachine();
  sb_off->set_superblock_enabled(false);
  stepped->set_predecode_enabled(false);
  LoadMixedProgram(*sb_on);
  LoadMixedProgram(*sb_off);
  LoadMixedProgram(*stepped);
  while (!stepped->halted()) {
    const std::size_t a = sb_on->Run(64);
    const std::size_t b = sb_off->Run(64);
    ASSERT_EQ(a, b);
    for (std::size_t i = 0; i < a; ++i) {
      stepped->Step();
    }
    ASSERT_EQ(sb_on->StateHash(), stepped->StateHash());
    ASSERT_EQ(sb_off->StateHash(), stepped->StateHash());
  }
  EXPECT_TRUE(sb_on->halted());
  EXPECT_GE(sb_on->superblock_builds(), 1u);
  EXPECT_EQ(sb_off->superblock_builds(), 0u);
}

// Self-modifying code: the loop rewrites the instruction ahead of it (an INC
// becomes a DEC), so a stale cache entry would produce the wrong register
// value. The page-version check must catch the store.
TEST(PredecodeInvalidation, SelfModifyingCode) {
  constexpr char kSelfMod[] = R"(
START:  CLR R0
        CLR R2
LOOP:   INC R2
PATCH:  INC R0
        CMP #8, R2
        BNE NEXT
        MOV NEWOP, @PATCH       ; overwrite the INC R0 word with DEC R0
NEXT:   CMP #16, R2
        BNE LOOP
        HALT
NEWOP:  DEC R0
)";
  auto cached = MakeBareMachine();
  auto plain = MakeBareMachine();
  plain->set_predecode_enabled(false);
  LoadProgram(*cached, kSelfMod);
  LoadProgram(*plain, kSelfMod);
  ExpectLockstepParity(*cached, *plain, 200);
  ASSERT_TRUE(cached->halted());
  // 8 iterations execute INC, then the patch lands and 8 execute DEC:
  // R0 ends at 0. A stale cache entry that kept serving INC would leave 16.
  EXPECT_EQ(cached->cpu().regs[0], 0);
  // The patched word forces at least one refill beyond the cold misses: the
  // PATCH entry is decoded, invalidated by the store, and decoded again.
  EXPECT_GT(cached->predecode_misses(), 0u);
}

TEST(PredecodeInvalidation, SelfModifyingCodeUnderRun) {
  constexpr char kSelfMod[] = R"(
START:  CLR R0
        CLR R2
LOOP:   INC R2
PATCH:  INC R0
        CMP #8, R2
        BNE NEXT
        MOV NEWOP, @PATCH
NEXT:   CMP #16, R2
        BNE LOOP
        HALT
NEWOP:  DEC R0
)";
  auto batched = MakeBareMachine();
  LoadProgram(*batched, kSelfMod);
  (void)batched->Run(400);
  ASSERT_TRUE(batched->halted());
  EXPECT_EQ(batched->cpu().regs[0], 0);
}

// A guest variable on the same 64-word version page as the loop that stores
// to it (the layout of every SNFE and guard guest). Only a store into a
// decoded word moves a page's version, so after the first pass the loop runs
// from the cache with no refill, while staying in lockstep with the cache-off
// reference.
TEST(PredecodeInvalidation, DataStoreBesideCodeKeepsEntries) {
  constexpr char kVarBesideCode[] = R"(
START:  CLR R0
LOOP:   INC R0
        MOV R0, @VAR            ; data store on the loop's own page
        CMP #50, R0
        BNE LOOP
        HALT
VAR:    .WORD 0
)";
  auto cached = MakeBareMachine();
  auto plain = MakeBareMachine();
  plain->set_predecode_enabled(false);
  LoadProgram(*cached, kVarBesideCode);
  LoadProgram(*plain, kVarBesideCode);
  Result<AssembledProgram> p = Assemble(kVarBesideCode);
  ASSERT_TRUE(p.ok()) << p.error();
  const PhysAddr var = p->symbols.at("VAR");
  ASSERT_EQ(var >> PhysicalMemory::kVersionPageShift, 0u);  // shares page 0 with the loop

  constexpr int kPassSteps = 4;  // INC, MOV, CMP, BNE
  ExpectLockstepParity(*cached, *plain, 1 + kPassSteps);  // CLR and the first pass
  const std::uint64_t cold_misses = cached->predecode_misses();
  EXPECT_EQ(cold_misses, 1u + kPassSteps);
  ExpectLockstepParity(*cached, *plain, 48 * kPassSteps);  // passes 2..49
  EXPECT_EQ(cached->predecode_misses(), cold_misses);
  EXPECT_EQ(cached->memory().Read(var), 49u);

  ExpectLockstepParity(*cached, *plain, kPassSteps + 1);  // last pass and HALT
  ASSERT_TRUE(cached->halted());
  EXPECT_EQ(cached->memory().Read(var), 50u);
}

// Remapping the executing page mid-run must serve instructions from the new
// mapping immediately even though entries for the old physical frame are
// still warm: the fast path re-translates from live MMU state every step.
TEST(PredecodeInvalidation, MmuRemapSwitchesCode) {
  auto cached = MakeBareMachine();
  auto plain = MakeBareMachine();
  plain->set_predecode_enabled(false);

  // Frame A (phys page 0): spin incrementing R0. Frame B (phys page 1,
  // virtually mapped at the same page-0 window): spin incrementing R1.
  Result<AssembledProgram> a = Assemble("LOOP: INC R0\n      BR LOOP\n");
  ASSERT_TRUE(a.ok()) << a.error();
  Result<AssembledProgram> b = Assemble("LOOP: INC R1\n      BR LOOP\n");
  ASSERT_TRUE(b.ok()) << b.error();
  for (Machine* m : {cached.get(), plain.get()}) {
    m->memory().LoadImage(0, a->words);
    m->memory().LoadImage(kPageWords, b->words);
    m->cpu().set_pc(0);
    m->cpu().set_sp(0x1000);
  }

  ExpectLockstepParity(*cached, *plain, 50);
  EXPECT_GT(cached->cpu().regs[0], 0);
  EXPECT_EQ(cached->cpu().regs[1], 0);

  // Swing virtual page 0 onto frame B. PC keeps its virtual value; the next
  // fetch must decode frame B's INC R1.
  for (Machine* m : {cached.get(), plain.get()}) {
    m->mmu().SetPage(CpuMode::kKernel, 0, {kPageWords, kPageWords, PageAccess::kReadWrite});
    m->cpu().set_pc(0);
  }
  const Word r0_at_remap = cached->cpu().regs[0];
  ExpectLockstepParity(*cached, *plain, 50);
  EXPECT_EQ(cached->cpu().regs[0], r0_at_remap);
  EXPECT_GT(cached->cpu().regs[1], 0);
}

TEST(PredecodeInvalidation, MmuRemapUnderRun) {
  auto m = MakeBareMachine();
  Result<AssembledProgram> a = Assemble("LOOP: INC R0\n      BR LOOP\n");
  Result<AssembledProgram> b = Assemble("LOOP: INC R1\n      BR LOOP\n");
  ASSERT_TRUE(a.ok() && b.ok());
  m->memory().LoadImage(0, a->words);
  m->memory().LoadImage(kPageWords, b->words);
  m->cpu().set_pc(0);
  m->cpu().set_sp(0x1000);
  EXPECT_EQ(m->Run(100), 100u);
  const Word r0 = m->cpu().regs[0];
  EXPECT_GT(r0, 0);
  m->mmu().SetPage(CpuMode::kKernel, 0, {kPageWords, kPageWords, PageAccess::kReadWrite});
  m->cpu().set_pc(0);
  EXPECT_EQ(m->Run(100), 100u);
  EXPECT_EQ(m->cpu().regs[0], r0);
  EXPECT_GT(m->cpu().regs[1], 0);
}

// Disabling the cache mid-flight drops all entries; re-enabling starts cold.
TEST(PredecodeInvalidation, DisableClearsCache) {
  auto m = MakeBareMachine();
  LoadProgram(*m, "LOOP: INC R0\n      BR LOOP\n");
  (void)m->Run(100);
  EXPECT_GT(m->predecode_hits(), 0u);
  const std::uint64_t misses_warm = m->predecode_misses();
  m->set_predecode_enabled(false);
  (void)m->Run(10);
  EXPECT_EQ(m->predecode_misses(), misses_warm);  // generic path, no refills
  m->set_predecode_enabled(true);
  (void)m->Run(10);
  EXPECT_GT(m->predecode_misses(), misses_warm);  // cold again
}

// Kernelized lockstep gate (tests/kernelized_lockstep.h) with the predecode
// cache on and off: on, Step() and every batch run on RunThreaded; off, on
// RunStepped, the generic interpreter loop. Both tiers are held to the
// predecode-off Step() reference.
class KernelizedPredecodeLockstep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(KernelizedPredecodeLockstep, RunChunksMatchStep) {
  const auto [index, predecode] = GetParam();
  lockstep::ExpectKernelizedLockstep(lockstep::Deployments()[static_cast<std::size_t>(index)],
                                     {predecode, /*superblock=*/true});
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, KernelizedPredecodeLockstep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(lockstep::Deployments().size())),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(lockstep::Deployments()[static_cast<std::size_t>(
                             std::get<0>(info.param))]
                             .name) +
             (std::get<1>(info.param) ? "_PredecodeOn" : "_PredecodeOff");
    });

using PredecodeDeathTest = ::testing::Test;

TEST(PredecodeDeathTest, LoadImageBeyondEndAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  auto m = MakeBareMachine(1u << 12);
  std::vector<Word> image(16, 0);
  EXPECT_DEATH(m->memory().LoadImage((1u << 12) - 8, image), "CHECK failed");
  // A base beyond the end with a small image must not wrap the sum.
  EXPECT_DEATH(m->memory().LoadImage(0xFFFFFFF0u, image), "CHECK failed");
}

}  // namespace
}  // namespace sep
