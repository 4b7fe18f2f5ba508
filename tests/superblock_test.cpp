// Superblocks must be invisible: batched Run with superblocks on is
// bit-identical to Run with them off and to repeated Step(), across traps,
// interrupts, self-modifying code, MMU remaps and restore-from-snapshot,
// on bare machines and under the separation kernel. These tests drive a
// superblock machine through Run() (the only path that builds or executes
// traces) against Step()-driven references with the predecode cache off,
// comparing complete state hashes.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "src/machine/devices.h"
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

// A hot loop long past the build threshold: every iteration takes the
// backward BNE, so the LOOP entry becomes a superblock anchor quickly.
constexpr char kHotLoop[] = R"(
START:  CLR R0
        CLR R1
LOOP:   INC R0
        ADD R0, R1
        MOV R1, @0x300
        CMP #600, R0
        BNE LOOP
        HALT
)";

// The predecode suite's mixed workload: every direct form, TRAP through the
// vector table, RTI, and a HALT after 40 iterations.
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
  m.memory().Write(kVectorTrap, 0x200);  // handler PC
  m.memory().Write(kVectorTrap + 1, 0);  // handler PSW: kernel, priority 0
  m.cpu().set_pc(0x100);
}

// Runs `fast` in Run() batches of `chunk` and `ref` by single Step()s,
// asserting identical state at every batch boundary until `fast` halts or
// `total` steps elapse.
void ExpectChunkedRunParity(Machine& fast, Machine& ref, std::size_t chunk,
                            std::size_t total) {
  std::size_t done = 0;
  while (done < total && !fast.halted()) {
    const std::size_t ran = fast.Run(chunk);
    for (std::size_t i = 0; i < ran; ++i) {
      ref.Step();
    }
    done += ran;
    ASSERT_EQ(fast.StateHash(), ref.StateHash())
        << "diverged after " << done << " steps (chunk " << chunk << ")";
    if (ran < chunk) {
      break;
    }
  }
  ASSERT_EQ(fast.halted(), ref.halted());
}

TEST(SuperblockParity, HotLoopBuildsAndMatchesStep) {
  auto fast = MakeBareMachine();
  auto ref = MakeBareMachine();
  ref->set_predecode_enabled(false);
  LoadProgram(*fast, kHotLoop);
  LoadProgram(*ref, kHotLoop);

  ExpectChunkedRunParity(*fast, *ref, 512, 5000);
  EXPECT_TRUE(fast->halted());
  EXPECT_EQ(fast->cpu().regs[0], 600);
  EXPECT_GE(fast->superblock_builds(), 1u);
  EXPECT_GE(fast->superblock_count(), 1u);
}

TEST(SuperblockParity, MixedWorkloadSweepOnOffStep) {
  auto sb_on = MakeBareMachine();
  auto sb_off = MakeBareMachine();
  auto ref = MakeBareMachine();
  sb_off->set_superblock_enabled(false);
  ref->set_predecode_enabled(false);
  LoadMixedProgram(*sb_on);
  LoadMixedProgram(*sb_off);
  LoadMixedProgram(*ref);

  // Run(1) forces the threaded loop to re-enter every step — the harshest
  // interleaving of superblock entry, budget exhaustion and trap dispatch.
  for (int i = 0; i < 2000 && !ref->halted(); ++i) {
    (void)sb_on->Run(1);
    (void)sb_off->Run(1);
    ref->Step();
    ASSERT_EQ(sb_on->StateHash(), ref->StateHash()) << "sb-on diverged at step " << i;
    ASSERT_EQ(sb_off->StateHash(), ref->StateHash()) << "sb-off diverged at step " << i;
  }
  EXPECT_TRUE(sb_on->halted());
  EXPECT_EQ(sb_on->cpu().regs[0], 40);
  EXPECT_EQ(sb_on->cpu().regs[5], 40);  // every iteration trapped and returned
  EXPECT_EQ(sb_off->superblock_builds(), 0u);
}

TEST(SuperblockParity, ChunkedRunSweep) {
  for (std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{64}, std::size_t{1000}}) {
    auto fast = MakeBareMachine();
    auto ref = MakeBareMachine();
    ref->set_predecode_enabled(false);
    LoadMixedProgram(*fast);
    LoadMixedProgram(*ref);
    ExpectChunkedRunParity(*fast, *ref, chunk, 2000);
    EXPECT_TRUE(fast->halted()) << "chunk " << chunk;
    EXPECT_EQ(fast->cpu().regs[0], 40) << "chunk " << chunk;
  }
}

// A guest that overwrites the middle of its own hot loop. The loop runs long
// past the heat threshold, so the patching store lands inside a live
// superblock; the post-store version recheck must stop the trace before the
// next (now stale) stitched instruction executes.
TEST(SuperblockInvalidation, SelfModifyingHotLoopMiddleOverwrite) {
  constexpr char kSelfMod[] = R"(
START:  CLR R0
        CLR R2
LOOP:   INC R2
PATCH:  INC R0
        CMP #64, R2
        BNE NEXT
        MOV NEWOP, @PATCH       ; overwrite the INC R0 word with DEC R0
NEXT:   CMP #128, R2
        BNE LOOP
        HALT
NEWOP:  DEC R0
)";
  auto fast = MakeBareMachine();
  auto ref = MakeBareMachine();
  ref->set_predecode_enabled(false);
  LoadProgram(*fast, kSelfMod);
  LoadProgram(*ref, kSelfMod);

  ExpectChunkedRunParity(*fast, *ref, 128, 4000);
  ASSERT_TRUE(fast->halted());
  // 64 iterations execute INC, then the patch lands and 64 execute DEC: R0
  // ends at 0. A superblock that kept serving the stitched INC would not.
  EXPECT_EQ(fast->cpu().regs[0], 0);
  EXPECT_GE(fast->superblock_builds(), 1u);
  EXPECT_GE(fast->superblock_invalidations(), 1u);
}

// A store patches an instruction that a live trace stitched on the predicted
// fall-through of a forward branch but that has never run: the branch is
// taken on every pass until well after the patch. The build itself must mark
// the stitched words, or the patch would leave the version guards unmoved
// and the trace would run the stale instruction once the branch falls
// through.
TEST(SuperblockInvalidation, PatchOfStitchedButNeverRunInstruction) {
  constexpr char kColdPatch[] = R"(
START:  CLR R0
        CLR R1
        MOV NEWOP, R3           ; R3 = the DEC R1 instruction word
LOOP:   INC R0
        CMP #40, R0
        BGT SKIP                ; forward: predicted to fall through, taken while R0 < 40
COLD:   INC R1                  ; stitched, first runs at R0 = 40
SKIP:   CMP #30, R0
        BNE NEXT
        MOV R3, @COLD           ; at R0 = 30, patch COLD into DEC R1
NEXT:   CMP #60, R0
        BNE LOOP
        HALT
NEWOP:  DEC R1
)";
  for (std::size_t chunk : {std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
    auto fast = MakeBareMachine();
    auto ref = MakeBareMachine();
    ref->set_predecode_enabled(false);
    LoadProgram(*fast, kColdPatch);
    LoadProgram(*ref, kColdPatch);

    ExpectChunkedRunParity(*fast, *ref, chunk, 2000);
    ASSERT_TRUE(fast->halted()) << "chunk " << chunk;
    // COLD runs for R0 = 40..60, always as the patched DEC: R1 = -21.
    EXPECT_EQ(fast->cpu().regs[1], static_cast<Word>(-21)) << "chunk " << chunk;
    EXPECT_GE(fast->superblock_builds(), 1u) << "chunk " << chunk;
    EXPECT_GE(fast->superblock_invalidations(), 1u) << "chunk " << chunk;
  }
}

// Kernel-driven MMU reprogramming landing on a live superblock, both ways a
// remap can land: (1) the mapping changes but the anchor stays reachable
// (page limit shrinks) — the hoisted mapping guard must catch it on entry
// and invalidate; (2) the page is swung onto a different physical frame —
// the fetch re-translates to new code and the stale trace, anchored on the
// old frame, simply never executes again (lazy invalidation).
TEST(SuperblockInvalidation, MmuRemapWithLiveSuperblocks) {
  auto fast = MakeBareMachine();
  auto ref = MakeBareMachine();
  ref->set_predecode_enabled(false);

  Result<AssembledProgram> a = Assemble("LOOP: INC R0\n      BR LOOP\n");
  Result<AssembledProgram> b = Assemble("LOOP: INC R1\n      BR LOOP\n");
  ASSERT_TRUE(a.ok() && b.ok());
  for (Machine* m : {fast.get(), ref.get()}) {
    m->memory().LoadImage(0, a->words);
    m->memory().LoadImage(kPageWords, b->words);
    m->cpu().set_pc(0);
    m->cpu().set_sp(0x1000);
  }

  ExpectChunkedRunParity(*fast, *ref, 100, 200);
  ASSERT_GE(fast->superblock_builds(), 1u);
  const std::uint64_t invalidations_before = fast->superblock_invalidations();

  // (1) Shrink page 0's limit, keeping the base: the loop still fetches
  // fine, but the entry guard recorded the old limit, so the superblock
  // must die and rebuild under the new mapping.
  for (Machine* m : {fast.get(), ref.get()}) {
    m->mmu().SetPage(CpuMode::kKernel, 0, {0, 0x1000, PageAccess::kReadWrite});
  }
  ExpectChunkedRunParity(*fast, *ref, 100, 200);
  EXPECT_GT(fast->superblock_invalidations(), invalidations_before);
  ASSERT_GE(fast->superblock_builds(), 2u);  // rebuilt after the guard tripped

  // (2) Swing virtual page 0 onto frame B; the very next fetch must execute
  // frame B's code even though frame A's superblock may still be anchored.
  for (Machine* m : {fast.get(), ref.get()}) {
    m->mmu().SetPage(CpuMode::kKernel, 0, {kPageWords, kPageWords, PageAccess::kReadWrite});
    m->cpu().set_pc(0);
  }
  const Word r0_at_remap = fast->cpu().regs[0];
  ExpectChunkedRunParity(*fast, *ref, 100, 200);
  EXPECT_EQ(fast->cpu().regs[0], r0_at_remap);
  EXPECT_GT(fast->cpu().regs[1], 0);
}

// RestoreFull into a machine with live superblocks — the exhaustive-checker
// path: the snapshot carries different code for the same addresses, so the
// stitched traces must die through the version guards RestoreWords bumps.
TEST(SuperblockInvalidation, RestoreFullWithLiveSuperblocks) {
  auto fast = MakeBareMachine();
  auto donor = MakeBareMachine();
  auto ref = MakeBareMachine();
  ref->set_predecode_enabled(false);

  LoadProgram(*fast, "LOOP: INC R0\n      ADD R0, R2\n      BR LOOP\n");
  LoadProgram(*donor, "LOOP: INC R1\n      SUB R1, R3\n      BR LOOP\n");
  (void)fast->Run(400);
  ASSERT_GE(fast->superblock_builds(), 1u);
  ASSERT_GE(fast->superblock_count(), 1u);
  (void)donor->Run(123);

  const std::vector<Word> snapshot = donor->SnapshotFull();
  ASSERT_TRUE(fast->RestoreFull(snapshot));
  ASSERT_TRUE(ref->RestoreFull(snapshot));
  ASSERT_EQ(fast->StateHash(), donor->StateHash());

  // The restored machine must run the donor's code, not the stitched trace.
  ExpectChunkedRunParity(*fast, *ref, 64, 600);
  EXPECT_GT(fast->cpu().regs[1], donor->cpu().regs[1]);
  EXPECT_GE(fast->superblock_invalidations(), 1u);
}

// A branch that flips against its predicted direction mid-trace takes the
// guarded side exit and re-enters the ordinary dispatch.
TEST(SuperblockSideExit, UnpredictedBranchSideExits) {
  constexpr char kAlternating[] = R"(
START:  CLR R0
        CLR R1
LOOP:   INC R0
        BIT #1, R0
        BNE ODD
        INC R1
ODD:    CMP #300, R0
        BNE LOOP
        HALT
)";
  auto fast = MakeBareMachine();
  auto ref = MakeBareMachine();
  ref->set_predecode_enabled(false);
  LoadProgram(*fast, kAlternating);
  LoadProgram(*ref, kAlternating);

  ExpectChunkedRunParity(*fast, *ref, 256, 4000);
  ASSERT_TRUE(fast->halted());
  EXPECT_EQ(fast->cpu().regs[0], 300);
  EXPECT_EQ(fast->cpu().regs[1], 150);
  EXPECT_GE(fast->superblock_builds(), 1u);
  EXPECT_GE(fast->superblock_side_exits(), 1u);
}

// Interrupt sweep on a bare machine with a device: Step() never executes
// superblocks, so the flag must be inert there. Drives clock-interrupt
// vectoring with superblocks on, off, and predecode off, in lockstep; the
// Run() side of the same machine is InterruptVectoringUnderRun below.
TEST(SuperblockParity, InterruptVectoringSweep) {
  auto make = [](bool predecode, bool superblock) {
    auto m = MakeBareMachine();
    m->set_predecode_enabled(predecode);
    m->set_superblock_enabled(superblock);
    m->AddDevice(std::make_unique<LineClock>("clk", 20, /*priority=*/6, /*interval=*/7));
    Result<AssembledProgram> p =
        Assemble("LOOP: INC R0\n      BR LOOP\n      .ORG 0x80\nISR:  INC R4\n      RTI\n");
    EXPECT_TRUE(p.ok());
    m->memory().LoadImage(0, p->words);
    m->memory().Write(20, 0x80);  // clock vector: ISR PC
    m->memory().Write(21, 0);     // ISR PSW
    m->cpu().set_pc(0);
    m->cpu().set_sp(0x1000);
    m->device(0).WriteRegister(0, kCsrIe);
    return m;
  };
  auto sb_on = make(true, true);
  auto sb_off = make(true, false);
  auto ref = make(false, false);
  for (int i = 0; i < 500; ++i) {
    sb_on->Step();
    sb_off->Step();
    ref->Step();
    ASSERT_EQ(sb_on->StateHash(), ref->StateHash()) << "sb-on diverged at step " << i;
    ASSERT_EQ(sb_off->StateHash(), ref->StateHash()) << "sb-off diverged at step " << i;
  }
  EXPECT_GT(ref->cpu().regs[4], 0);  // interrupts actually delivered
}

// The same clock-vectoring machine under Run(): batches run between clock
// ticks on the threaded engine (hardware vectoring, no client), so traces
// are built and entered between interrupts.
TEST(SuperblockParity, InterruptVectoringUnderRun) {
  auto make = [](bool predecode) {
    auto m = MakeBareMachine(1u << 12);  // small: the parity check hashes every chunk
    m->set_predecode_enabled(predecode);
    m->AddDevice(std::make_unique<LineClock>("clk", 20, /*priority=*/6, /*interval=*/50));
    Result<AssembledProgram> p = Assemble(
        "LOOP: INC R0\n      ADD R0, R1\n      BR LOOP\n      .ORG 0x80\nISR:  INC R4\n"
        "      RTI\n");
    EXPECT_TRUE(p.ok());
    m->memory().LoadImage(0, p->words);
    m->memory().Write(20, 0x80);  // clock vector: ISR PC
    m->memory().Write(21, 0);     // ISR PSW
    m->cpu().set_pc(0);
    m->cpu().set_sp(0x1000);
    m->device(0).WriteRegister(0, kCsrIe);
    return m;
  };
  for (std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{64}, std::size_t{1000}}) {
    auto fast = make(true);
    auto ref = make(false);
    ExpectChunkedRunParity(*fast, *ref, chunk, 3000);
    EXPECT_GT(ref->cpu().regs[4], 0) << "chunk " << chunk;  // interrupts delivered
    if (chunk == 1000) {
      EXPECT_GE(fast->superblock_builds(), 1u);
    }
  }
}

TEST(SuperblockFlag, DisableTearsDownEnableRebuilds) {
  auto m = MakeBareMachine();
  LoadProgram(*m, "LOOP: INC R0\n      BR LOOP\n");
  (void)m->Run(200);
  EXPECT_GE(m->superblock_builds(), 1u);
  ASSERT_GE(m->superblock_count(), 1u);
  const std::uint64_t builds = m->superblock_builds();
  const std::size_t live = m->superblock_count();

  m->set_superblock_enabled(false);
  EXPECT_EQ(m->superblock_count(), 0u);
  EXPECT_GE(m->superblock_invalidations(), live);
  const Word r0 = m->cpu().regs[0];
  (void)m->Run(200);
  EXPECT_EQ(m->superblock_builds(), builds);  // no builds while off
  EXPECT_EQ(m->cpu().regs[0], static_cast<Word>(r0 + 100));  // still correct

  m->set_superblock_enabled(true);
  (void)m->Run(200);
  EXPECT_GT(m->superblock_builds(), builds);  // rebuilt from fresh heat
}

// Disabling the predecode cache drops anchored superblocks with it.
TEST(SuperblockFlag, PredecodeDisableFlushesSuperblocks) {
  auto m = MakeBareMachine();
  LoadProgram(*m, "LOOP: INC R0\n      BR LOOP\n");
  (void)m->Run(200);
  ASSERT_GE(m->superblock_count(), 1u);
  m->set_predecode_enabled(false);
  EXPECT_EQ(m->superblock_count(), 0u);
  (void)m->Run(50);
  EXPECT_EQ(m->superblock_builds() == 0u, false);  // builds counter keeps history
  m->set_predecode_enabled(true);
  const std::uint64_t builds = m->superblock_builds();
  (void)m->Run(200);
  EXPECT_GT(m->superblock_builds(), builds);
}

// Kernelized lockstep gate (tests/kernelized_lockstep.h) with superblocks
// on and off: every deployment by a Step() loop and through
// KernelizedSystem::Run in chunks of 1..4096 steps against a predecode-off
// Machine::Step() loop.
class KernelizedSuperblockLockstep
    : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(KernelizedSuperblockLockstep, RunChunksMatchStep) {
  const auto [index, superblock] = GetParam();
  lockstep::ExpectKernelizedLockstep(lockstep::Deployments()[static_cast<std::size_t>(index)],
                                     {/*predecode=*/true, superblock});
}

INSTANTIATE_TEST_SUITE_P(
    Deployments, KernelizedSuperblockLockstep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(lockstep::Deployments().size())),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      return std::string(lockstep::Deployments()[static_cast<std::size_t>(
                             std::get<0>(info.param))]
                             .name) +
             (std::get<1>(info.param) ? "_SuperblockOn" : "_SuperblockOff");
    });

}  // namespace
}  // namespace sep
