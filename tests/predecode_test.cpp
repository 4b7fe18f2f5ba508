// The predecoded-instruction cache must be invisible: traces are identical
// with the cache on or off, across self-modifying code, MMU remaps and the
// batched Run loop. These tests drive cache-on and cache-off machines in
// lockstep and compare complete state hashes every step.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

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

// JSR, RTS and TRAP run on their own direct form (Machine::ExecuteCallForm),
// which commits SP and PC only after its one stack access succeeds. Each
// case heats a loop of calls, returns and traps on a bare machine, then ends
// in the situation it is named for, on an instruction the loop has already
// run, so the cache serves it. A recording client stands in for the kernel:
// it logs every trap with its tick, PC, SP and fault address, lets TRAP
// return, and resumes a faulting program at RESUME without touching SP, so a
// push or pop that commits early shows in the log and in StateHash().
struct CallFormCase {
  const char* name;
  std::string source;
  void (*setup)(Machine& m, const AssembledProgram& p);
  std::uint64_t generic_steps = 0;  // cache hits on the generic path
};

// Calls SUB, which traps, 20 times. On the last pass SP becomes `bad_sp`
// before the JSR (its push faults) or, when `pop`, before SUB's RTS (its pop
// faults).
std::string StackEdgeProgram(const char* bad_sp, bool pop) {
  const std::string set_sp = std::string("MOV #") + bad_sp + ", SP";
  return std::string(R"(
        .ORG 0x100
START:  MOV #20, R2
LOOP:   INC R0
        ADD R0, R1
        CMP #1, R2
        BNE CALL
        )") + (pop ? "NOP" : set_sp) + R"(
CALL:   JSR SUB
        DEC R2
        BNE LOOP
        HALT
RESUME: HALT
SUB:    INC R3
        TRAP 9
        CMP #1, R2
        BNE RET
        )" + (pop ? set_sp : "NOP") + R"(
RET:    RTS
)";
}

void NoSetup(Machine&, const AssembledProgram&) {}

const std::vector<CallFormCase>& CallFormCases() {
  static const std::vector<CallFormCase> kCases = {
      // Absolute, indexed, PC-relative, deferred via SP (the stack sits just
      // under the callee) and deferred via PC (calls the next word, which
      // returns to itself once).
      {"JsrAddressingModes", R"(
        .ORG 0x100
START:  MOV #20, R2
LOOP:   INC R0
        ADD R0, R1
        JSR SUB
        MOV #SUB-4, R4
        JSR 4(R4)
        JSR SUB-PCREL(PC)
PCREL:  MOV #SUBSP, SP
        JSR (SP)
        MOV #0x1000, SP
        CLR R4
        JSR (PC)
COROUT: INC R4
        CMP #1, R4
        BNE ONCE
        RTS
ONCE:   DEC R2
        BNE LOOP
        HALT
SUB:    ADD R2, R3
        TRAP 9
        RTS
        .WORD 0
SUBSP:  INC R5
        RTS
)",
       &NoSetup},
      // Every pass traps on JSR R3; the 19 after the first are cache hits.
      {"JsrRegisterModeIsIllegal", R"(
        .ORG 0x100
START:  MOV #20, R2
LOOP:   INC R0
        JSR SUB
        JSR R3
RESUME: DEC R2
        BNE LOOP
        HALT
SUB:    INC R1
        RTS
)",
       &NoSetup, 19},
      // Virtual page 4 is unmapped on the bare machine.
      {"JsrPushUnmapped", StackEdgeProgram("0x8001", false), &NoSetup},
      {"RtsPopUnmapped", StackEdgeProgram("0x8000", true), &NoSetup},
      // Page 3 read-only: the push faults, the pop reads RESUME.
      {"JsrPushReadOnly", StackEdgeProgram("0x6011", false),
       [](Machine& m, const AssembledProgram&) {
         m.mmu().SetPage(CpuMode::kKernel, 3, {0x6000, kPageWords, PageAccess::kReadOnly});
       }},
      {"RtsPopReadOnly", StackEdgeProgram("0x6010", true),
       [](Machine& m, const AssembledProgram& p) {
         m.memory().Write(0x6010, p.symbols.at("RESUME"));
         m.mmu().SetPage(CpuMode::kKernel, 3, {0x6000, kPageWords, PageAccess::kReadOnly});
       }},
      // Page 2 is 16 words long.
      {"JsrPushLengthViolation", StackEdgeProgram("0x4011", false),
       [](Machine& m, const AssembledProgram&) {
         m.mmu().SetPage(CpuMode::kKernel, 2, {0x4000, 16, PageAccess::kReadWrite});
       }},
      {"RtsPopLengthViolation", StackEdgeProgram("0x4010", true),
       [](Machine& m, const AssembledProgram&) {
         m.mmu().SetPage(CpuMode::kKernel, 2, {0x4000, 16, PageAccess::kReadWrite});
       }},
      // The I/O page: refused inside a batch, replayed per tick. The push
      // lands on the serial line's XBUF (transmitted, then popped back by
      // SUB's RTS); the pop reads RBUF, which holds RESUME.
      {"JsrPushIoPage", StackEdgeProgram("0xE004", false), &NoSetup},
      {"RtsPopIoPage", StackEdgeProgram("0xE001", true),
       [](Machine& m, const AssembledProgram& p) {
         m.device(0).InjectInput(p.symbols.at("RESUME"));
       }},
      // Slot 3 has no device: refused inside a batch, a bus timeout per tick.
      {"JsrPushNoDevice", StackEdgeProgram("0xE019", false), &NoSetup},
      {"RtsPopNoDevice", StackEdgeProgram("0xE018", true), &NoSetup},
      // The last pass pushes its return address onto RET, a word decoded on
      // every earlier pass: the value (RET itself) decodes as HALT.
      {"ReturnAddressOverwritesOwnCode", R"(
        .ORG 0x100
START:  MOV #20, R2
LOOP:   INC R0
        CMP #1, R2
        BNE CALL
        MOV #RET+1, SP
CALL:   JSR SUB
RET:    DEC R2
        BNE LOOP
        HALT
SUB:    INC R3
        TRAP 9
        RTS
)",
       &NoSetup},
      // Page 1 is 32 words long and EDGE's TRAP is its last word: the fetch
      // after the trap returns faults, and RESUME runs the next pass.
      {"TrapOnLastMappedWord", R"(
        .ORG 0x100
START:  MOV #20, R2
LOOP:   INC R0
        JSR EDGE
RESUME: DEC R2
        BNE LOOP
        HALT
        .ORG 0x201E
EDGE:   INC R3
        TRAP 9
)",
       [](Machine& m, const AssembledProgram&) {
         m.mmu().SetPage(CpuMode::kKernel, 1, {0x2000, 32, PageAccess::kReadWrite});
       }},
  };
  return kCases;
}

class TrapLog final : public MachineClient {
 public:
  TrapLog(Machine& m, Word resume) : m_(m), resume_(resume) {}

  void OnTrap(const TrapInfo& info) override {
    log += std::to_string(m_.tick()) + " kind " + std::to_string(static_cast<int>(info.kind)) +
           " code " + std::to_string(info.code) + " addr " + std::to_string(info.fault_addr) +
           " pc " + std::to_string(m_.cpu().pc()) + " sp " + std::to_string(m_.cpu().sp()) +
           "\n";
    if (info.kind != TrapInfo::Kind::kTrapInstruction) {
      m_.cpu().set_pc(resume_);
    }
  }
  void OnInterrupt(int device_index) override {
    log += std::to_string(m_.tick()) + " irq " + std::to_string(device_index) + "\n";
  }

  std::string log;

 private:
  Machine& m_;
  const Word resume_;
};

struct CallFormRun {
  std::unique_ptr<Machine> machine;
  std::unique_ptr<TrapLog> client;
};

CallFormRun StartCallFormCase(const CallFormCase& c, bool predecode, bool superblock) {
  CallFormRun run;
  run.machine = MakeBareMachine();
  Machine& m = *run.machine;
  m.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 3));
  m.set_predecode_enabled(predecode);
  m.set_superblock_enabled(superblock);
  Result<AssembledProgram> p = Assemble(c.source);
  EXPECT_TRUE(p.ok()) << p.error();
  if (!p.ok()) {
    return run;
  }
  m.memory().LoadImage(p->base, p->words);
  m.cpu().set_pc(p->symbols.at("START"));
  m.cpu().set_sp(0x1000);
  c.setup(m, *p);
  run.client = std::make_unique<TrapLog>(m, p->SymbolOr("RESUME", 0));
  m.set_client(run.client.get());
  return run;
}

class CallFormLockstep : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(CallFormLockstep, StepAndRunChunksMatchGenericTier) {
  const auto [index, superblock] = GetParam();
  const CallFormCase& c = CallFormCases()[static_cast<std::size_t>(index)];
  constexpr std::size_t kBudget = 5000;

  CallFormRun ref = StartCallFormCase(c, /*predecode=*/false, /*superblock=*/false);
  ASSERT_NE(ref.client, nullptr);
  std::size_t ref_steps = 0;
  for (; ref_steps < kBudget && !ref.machine->halted(); ++ref_steps) {
    ref.machine->Step();
  }
  ASSERT_TRUE(ref.machine->halted()) << c.name;
  ASSERT_NE(ref.client->log, "");
  const std::uint64_t ref_hash = ref.machine->StateHash();
  const std::vector<Word> ref_output = ref.machine->device(0).DrainOutput();

  for (std::size_t chunk : {0, 1, 2, 3, 7, 64}) {
    SCOPED_TRACE(::testing::Message() << c.name << ", chunk " << chunk);
    CallFormRun run = StartCallFormCase(c, /*predecode=*/true, superblock);
    ASSERT_NE(run.client, nullptr);
    Machine& m = *run.machine;
    std::size_t steps = 0;
    while (steps < kBudget && !m.halted()) {
      if (chunk == 0) {
        m.Step();
        ++steps;
      } else {
        steps += m.Run(std::min(chunk, kBudget - steps));
      }
    }
    EXPECT_EQ(steps, ref_steps);
    EXPECT_EQ(m.tick(), ref.machine->tick());
    EXPECT_EQ(m.StateHash(), ref_hash);
    EXPECT_EQ(run.client->log, ref.client->log);
    EXPECT_EQ(m.device(0).DrainOutput(), ref_output);
    EXPECT_GT(m.predecode_hits(), 0u);
    EXPECT_EQ(m.generic_steps(), c.generic_steps)
        << "a call, return or trap took the generic path";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CallFormLockstep,
    ::testing::Combine(::testing::Range(0, static_cast<int>(CallFormCases().size())),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<int, bool>>& info) {
      const std::size_t index = static_cast<std::size_t>(std::get<0>(info.param));
      return std::string(CallFormCases()[index].name) +
             (std::get<1>(info.param) ? "_SuperblockOn" : "_SuperblockOff");
    });

// Exact work count: the SNFE corpus deployment (red, censor and black from
// src/sepcheck/guest_corpus.cpp), run until black stores the last payload
// word, takes 942 steps, and none of them goes down the generic predecoded
// path: its calls, returns and kernel calls all have a direct form. Before
// they had one, 278 did; a form that falls back to that path fails here.
TEST(PredecodeWorkCount, SnfeCorpusTakesNoGenericStep) {
  std::unique_ptr<KernelizedSystem> system = lockstep::BuildSnfe<1>();
  ASSERT_NE(system, nullptr);
  const PhysAddr last_payload = system->kernel().config().regimes[2].mem_base + 0x117;
  std::size_t steps = 0;
  while (steps < 100000 && system->machine().memory().Read(last_payload) == 0) {
    steps += system->Run(1);
  }
  EXPECT_TRUE(system->kernel().RegimeHalted(0));
  EXPECT_EQ(steps, 942u);
  EXPECT_EQ(system->machine().generic_steps(), 0u);
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
