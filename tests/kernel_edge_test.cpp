// Kernel edge cases: malformed kernel calls, stack abuse, device-window
// boundaries, STAT semantics, AWAIT corner cases. A separation kernel's
// security includes being unimpressed by hostile regimes. Also: the kernel's
// and machine's counters are exact whether or not the trace recorder runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>

#include "src/core/kernel_system.h"
#include "src/machine/devices.h"
#include "src/obs/trace.h"
#include "src/sm11asm/assembler.h"
#include "tests/test_util.h"
#include "tools/run_metrics.h"

namespace sep {
namespace {

constexpr char kIdle[] = "LOOP: TRAP 0\n      BR LOOP\n";

TEST(KernelEdge, RetiOutsideHandlerHaltsRegime) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("rogue", 256, "TRAP 5\n").ok());
  ASSERT_TRUE(builder.AddRegime("peer", 256, kIdle).ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(100);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(1));
}

TEST(KernelEdge, UnknownKernelCallHaltsRegime) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("rogue", 256, "TRAP 999\n").ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(100);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
}

TEST(KernelEdge, SetvecForNonexistentDeviceHaltsRegime) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("rogue", 256, R"(
        MOV #3, R0      ; no local device 3
        MOV #0x10, R1
        TRAP 4
)").ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(100);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
}

TEST(KernelEdge, InterruptDeliveryWithCorruptStackHaltsRegimeOnly) {
  SystemBuilder builder;
  int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 5));
  ASSERT_TRUE(builder.AddRegime("corrupt", 512, R"(
        .EQU CLK, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        MOV #0x7000, SP ; point the stack outside the partition
        MOV #CLK, R4
        MOV #0x40, (R4) ; enable interrupts
LOOP:   NOP
        BR LOOP
HANDLER:
        TRAP 5
)", {clk}).ok());
  ASSERT_TRUE(builder.AddRegime("peer", 256, kIdle).ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(200);
  // The interrupt could not be delivered (stack outside the partition);
  // the offending regime is contained, the peer unharmed.
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(1));
  EXPECT_FALSE((*sys)->machine().halted());
}

TEST(KernelEdge, StatReportsBothEndsCorrectly) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("sender", 512, R"(
        ; send 3 words, then publish STAT
        MOV #3, R3
LOOP:   MOV #7, R1
        CLR R0
        TRAP 1
        DEC R3
        BNE LOOP
        CLR R0
        TRAP 3          ; STAT -> R0 readable (0 for sender), R1 space
        MOV R0, @0x40
        MOV R1, @0x42
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("receiver", 512, R"(
        ; wait until data arrives, then publish STAT
WAIT:   CLR R0
        TRAP 3          ; STAT -> R0 readable, R1 space (0 for receiver)
        TST R0
        BEQ YIELD
        CMP #3, R0
        BNE YIELD
        MOV R0, @0x40
        MOV R1, @0x42
        TRAP 7
YIELD:  TRAP 0
        BR WAIT
)").ok());
  builder.AddChannel("c", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(1000);
  const auto& regimes = (*sys)->kernel().config().regimes;
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[0].mem_base + 0x40), 0);  // sender readable
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[0].mem_base + 0x42), 5);  // space 8-3
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[1].mem_base + 0x40), 3);  // receiver readable
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[1].mem_base + 0x42), 0);  // receiver space
}

TEST(KernelEdge, StatWithoutEndpointRightsHaltsRegime) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("a", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("b", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("snoop", 256, R"(
        CLR R0
        TRAP 3          ; STAT on a channel snoop is no endpoint of
)").ok());
  builder.AddChannel("a2b", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(100);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(2));
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(0));
}

TEST(KernelEdge, AwaitWithAlreadyPendingReturnsImmediately) {
  SystemBuilder builder;
  int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 1));
  ASSERT_TRUE(builder.AddRegime("drv", 512, R"(
        .EQU DEV, 0xE000
START:  MOV #DEV, R4
        MOV #0x40, (R4) ; IE on; no handler installed
        ; spin a while so the interrupt is fielded and left pending
        MOV #20, R3
SPIN:   DEC R3
        BNE SPIN
        TRAP 6          ; AWAIT: pending already set -> immediate return
        MOV R0, @0x50   ; publish the pending mask we were handed
        TRAP 7
)", {slu}).ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->machine().device(slu).InjectInput('A');
  (*sys)->Run(200);
  const auto& regime = (*sys)->kernel().config().regimes[0];
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_EQ((*sys)->machine().memory().Read(regime.mem_base + 0x50), 1);  // local device 0
}

TEST(KernelEdge, DeviceWindowEndsAtOwnedRegisters) {
  // The regime owns one serial line (8-word block). Reading past the block
  // must fault even though the address is within page 7.
  SystemBuilder builder;
  int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 1));
  builder.AddDevice(std::make_unique<SerialLine>("other", 18, 4, 1));  // unowned
  ASSERT_TRUE(builder.AddRegime("drv", 256, R"(
        MOV #0xE008, R4 ; first word of the NEXT device's block
        MOV (R4), R0
)", {slu}).ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(50);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
}

TEST(KernelEdge, RegisterValuesSurviveManySwaps) {
  // Ping-pong 100 times; each regime's full register file must round-trip
  // perfectly through the save areas every time.
  SystemBuilder builder;
  for (const char* name : {"a", "b"}) {
    ASSERT_TRUE(builder.AddRegime(name, 512, R"(
START:  MOV #0x1111, R0
        MOV #0x2222, R1
        MOV #0x3333, R2
        CLR R3
LOOP:   INC R3
        TRAP 0
        CMP #100, R3
        BNE LOOP
        ; verify nothing was disturbed across 100 switches
        CMP #0x1111, R0
        BNE BAD
        CMP #0x2222, R1
        BNE BAD
        CMP #0x3333, R2
        BNE BAD
        MOV #1, R4
        MOV R4, @0x60   ; success marker
        TRAP 7
BAD:    TRAP 7
)").ok());
  }
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(5000);
  const auto& regimes = (*sys)->kernel().config().regimes;
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[0].mem_base + 0x60), 1);
  EXPECT_EQ((*sys)->machine().memory().Read(regimes[1].mem_base + 0x60), 1);
}

TEST(KernelEdge, SingleRegimeSystemRunsAlone) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("solo", 256, R"(
        CLR R3
LOOP:   INC R3
        TRAP 0          ; SWAP with nobody else: comes straight back
        CMP #5, R3
        BNE LOOP
        MOV R3, @0x40
        TRAP 7
)").ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(200);
  EXPECT_TRUE((*sys)->machine().halted());
  EXPECT_EQ((*sys)->machine().memory().Read(0x40), 5);
}

TEST(KernelEdge, IdleMachineWakesOnInterrupt) {
  SystemBuilder builder;
  int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 25));
  ASSERT_TRUE(builder.AddRegime("sleeper", 512, R"(
        .EQU CLK, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        MOV #CLK, R4
        MOV #0x40, (R4)
        TRAP 6          ; AWAIT: nothing pending -> the machine goes idle
        MOV #1, R2
        MOV R2, @0x40
        TRAP 7
HANDLER:
        TRAP 5
)", {clk}).ok());
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(200);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_EQ((*sys)->machine().memory().Read(0x40), 1);
}

// Parameterized sweep: channel capacity edge cases all preserve FIFO order
// and exact counts.
class ChannelCapacitySweep : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ChannelCapacitySweep, FifoExactlyOnce) {
  const std::uint32_t capacity = GetParam();
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
        CLR R3
LOOP:   INC R3
        MOV R3, R1
SRETRY: CLR R0
        TRAP 1
        TST R0
        BNE NEXT
        TRAP 0
        BR SRETRY
NEXT:   CMP #30, R3
        BNE LOOP
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 512, R"(
        MOV #0x80, R4
        CLR R3
LOOP:   CLR R0
        TRAP 2
        TST R0
        BEQ YIELD
        MOV R1, (R4)
        INC R4
        INC R3
        CMP #30, R3
        BNE LOOP
        TRAP 7
YIELD:  TRAP 0
        BR LOOP
)").ok());
  builder.AddChannel("c", 0, 1, capacity);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(20000);
  EXPECT_TRUE((*sys)->machine().halted());
  const auto& regimes = (*sys)->kernel().config().regimes;
  for (Word i = 0; i < 30; ++i) {
    ASSERT_EQ((*sys)->machine().memory().Read(regimes[1].mem_base + 0x80 + i), i + 1)
        << "capacity " << capacity << " position " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Capacities, ChannelCapacitySweep,
                         ::testing::Values(1u, 2u, 3u, 8u, 29u, 30u, 31u, 64u));

// --- corrupted ring headers ---------------------------------------------------
//
// The kernel consults RingIntact before trusting any channel ring header; a
// corrupted head or count (a hardware fault in the kernel partition — no
// regime can reach it through the MMU) must become a COUNTED regime fault at
// the next SEND/RECV/STAT, never slot arithmetic on garbage or a spin.

enum class RingCall { kSend, kRecv, kStat };
enum class RingDamage { kHeadPastCapacity, kCountPastCapacity };

class CorruptRingSweep
    : public ::testing::TestWithParam<std::tuple<RingCall, RingDamage>> {};

TEST_P(CorruptRingSweep, PerturbedHeaderFaultsCallerOnly) {
  const auto [call, damage] = GetParam();
  // Only the regime exercising the call-under-test touches the ring; the
  // peer just yields, so the fault provably belongs to that caller.
  constexpr char kSender[] = R"(
LOOP:   MOV #5, R1
        CLR R0
        TRAP 1          ; SEND
        TRAP 0
        BR LOOP
)";
  constexpr char kReceiver[] = R"(
LOOP:   CLR R0
        TRAP 2          ; RECV
        TRAP 0
        BR LOOP
)";
  constexpr char kAuditor[] = R"(
LOOP:   CLR R0
        TRAP 3          ; STAT
        TRAP 0
        BR LOOP
)";
  SystemBuilder builder;
  ASSERT_TRUE(builder
                  .AddRegime("producer", 512, call == RingCall::kSend ? kSender : kIdle)
                  .ok());
  ASSERT_TRUE(builder
                  .AddRegime("consumer", 512,
                             call == RingCall::kRecv
                                 ? kReceiver
                                 : (call == RingCall::kStat ? kAuditor : kIdle))
                  .ok());
  builder.AddChannel("c", 0, 1, 4);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(300);
  ASSERT_EQ((*sys)->kernel().FaultCount(), 0u);

  const KernelConfig& config = (*sys)->kernel().config();
  // cut_channels is off: both ends alias ring 0, so one smash covers every
  // caller. head is word 0 of the header, count word 1.
  const PhysAddr header = config.kernel_base + ChannelRingOffset(config, 0, 0);
  (*sys)->machine().PhysWrite(header + (damage == RingDamage::kHeadPastCapacity ? 0 : 1),
                              0xFFFF);
  (*sys)->Run(600);

  // The caller faulted at its next trap; nobody looped forever, nobody did
  // modular arithmetic on the garbage, and the fault was counted.
  EXPECT_EQ((*sys)->kernel().FaultCount(), 1u);
  const int victim = call == RingCall::kSend ? 0 : 1;
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(victim))
      << "caller should be halted by the intactness check";
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(1 - victim)) << "bystander regime harmed";
}

INSTANTIATE_TEST_SUITE_P(
    CallsAndDamage, CorruptRingSweep,
    ::testing::Combine(::testing::Values(RingCall::kSend, RingCall::kRecv, RingCall::kStat),
                       ::testing::Values(RingDamage::kHeadPastCapacity,
                                         RingDamage::kCountPastCapacity)),
    [](const ::testing::TestParamInfo<std::tuple<RingCall, RingDamage>>& info) {
      std::string name;
      switch (std::get<0>(info.param)) {
        case RingCall::kSend: name = "Send"; break;
        case RingCall::kRecv: name = "Recv"; break;
        case RingCall::kStat: name = "Stat"; break;
      }
      name += std::get<1>(info.param) == RingDamage::kHeadPastCapacity ? "HeadSmashed"
                                                                       : "CountSmashed";
      return name;
    });

// A zero-capacity channel can never reach the ring helpers: configuration
// validation rejects it at Build, so the RingPush/RingPop/RingIntact
// capacity==0 guards are pure defence in depth.
TEST(KernelEdge, ZeroCapacityChannelRejectedAtBuild) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("a", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("b", 256, kIdle).ok());
  builder.AddChannel("degenerate", 0, 1, 0);
  auto sys = builder.Build();
  EXPECT_FALSE(sys.ok());
}

// --- shared-ring call edges ---------------------------------------------------

TEST(KernelEdge, RingGetOverReleaseFaults) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
        MOV #0x77, R2
        MOV R2, @0x8000
        CLR R0
        MOV #1, R1
        TRAP 11         ; publish one word
YIELD:  TRAP 0
        BR YIELD
)").ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 512, R"(
        CLR R0
        MOV #2, R1
        TRAP 12         ; release TWO: head would walk past tail
        TRAP 7
)").ok());
  builder.AddSharedRing("r", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(500);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(1));
  EXPECT_GE((*sys)->kernel().FaultCount(), 1u);
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(0));
}

TEST(KernelEdge, RingGetOfZeroWordsFaults) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 512, R"(
        CLR R0
        CLR R1
        TRAP 12         ; n == 0 is a protocol violation, not a no-op
        TRAP 7
)").ok());
  builder.AddSharedRing("r", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(300);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(1));
  EXPECT_GE((*sys)->kernel().FaultCount(), 1u);
}

TEST(KernelEdge, RingCallsWithoutEndpointRightsFault) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 256, kIdle).ok());
  ASSERT_TRUE(builder.AddRegime("snoop", 512, R"(
        CLR R0
        TRAP 13         ; RINGSTAT on a ring snoop is no endpoint of
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("forger", 512, R"(
        CLR R0
        MOV #1, R1
        TRAP 11         ; RINGPUT without being the producer
        TRAP 7
)").ok());
  builder.AddSharedRing("r", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(500);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(2));
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(3));
  EXPECT_GE((*sys)->kernel().FaultCount(), 2u);
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(0));
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(1));
}

TEST(KernelEdge, CorruptedSharedRingIndicesFaultNextCall) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
LOOP:   MOV #1, R2
        MOV R2, @0x8000
        CLR R0
        MOV #1, R1
        TRAP 11
        TRAP 0
        BR LOOP
)").ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 512, R"(
LOOP:   CLR R0
        TRAP 13         ; poll occupancy
        TST R0
        BEQ YIELD
        CLR R0
        MOV #1, R1
        TRAP 12
YIELD:  TRAP 0
        BR LOOP
)").ok());
  builder.AddSharedRing("r", 0, 1, 8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(300);
  ASSERT_EQ((*sys)->kernel().FaultCount(), 0u);

  // Make occupancy = Word(tail - head) exceed the capacity: a state no legal
  // RINGPUT/RINGGET sequence can reach (hardware fault model, as above).
  const KernelConfig& config = (*sys)->kernel().config();
  const PhysAddr ctl = config.kernel_base + SharedRingCtlOffset(config, 0);
  (*sys)->machine().PhysWrite(ctl + kSharedRingHead, 0);
  (*sys)->machine().PhysWrite(ctl + kSharedRingTail, 9);  // occupancy 9 > cap 8
  (*sys)->Run(600);

  EXPECT_GE((*sys)->kernel().FaultCount(), 1u);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0) || (*sys)->kernel().RegimeHalted(1))
      << "somebody must have tripped the corrupted-indices check";
}

// --- malformed scatter-gather tables ------------------------------------------

struct SendvCase {
  const char* name;
  const char* source;
};

class SendvAbuseSweep : public ::testing::TestWithParam<SendvCase> {};

TEST_P(SendvAbuseSweep, MalformedDescriptorsFaultSender) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("rogue", 512, GetParam().source).ok());
  ASSERT_TRUE(builder.AddRegime("peer", 256, kIdle).ok());
  builder.AddChannel("c", 0, 1, 64);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(300);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_GE((*sys)->kernel().FaultCount(), 1u);
  EXPECT_FALSE((*sys)->kernel().RegimeHalted(1));
}

INSTANTIATE_TEST_SUITE_P(
    Tables, SendvAbuseSweep,
    ::testing::Values(
        SendvCase{"ZeroDescriptors", R"(
        CLR R0
        MOV #0x40, R1
        CLR R2          ; descriptor count 0
        TRAP 9
)"},
        SendvCase{"CountAboveLimit", R"(
        CLR R0
        MOV #0x40, R1
        MOV #9, R2      ; kMaxBatchDescriptors is 8
        TRAP 9
)"},
        SendvCase{"TableOutsidePartition", R"(
        CLR R0
        MOV #0x1FE, R1  ; 2 words short of the 512-word partition end
        MOV #3, R2      ; 6 table words would run past it
        TRAP 9
)"},
        SendvCase{"ZeroLengthExtent", R"(
        CLR R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 9
TBL:    .WORD 0x100
        .WORD 0         ; zero-length extent
)"},
        SendvCase{"PayloadOutsidePartition", R"(
        CLR R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 9
TBL:    .WORD 0x1F0
        .WORD 32        ; 0x1F0 + 32 > 512-word partition
)"},
        SendvCase{"BatchAboveSixtyFourWords", R"(
        CLR R0
        MOV #TBL, R1
        MOV #2, R2
        TRAP 9
TBL:    .WORD 0x100
        .WORD 40
        .WORD 0x140
        .WORD 40        ; 80 words total > kMaxBatchWords
)"}),
    [](const ::testing::TestParamInfo<SendvCase>& info) { return info.param.name; });

// --- counters with the recorder off ------------------------------------------

// The trace event each bump of a dumped counter emits. The superblock side
// exits and invalidations have none (a bulk flush emits one event).
const std::map<std::string, obs::Code> kEventOf = {
    {"kernel.calls", obs::Code::kKernelCall},
    {"kernel.swaps", obs::Code::kDispatch},
    {"kernel.irq_forwards", obs::Code::kIrqForward},
    {"kernel.irq_delivers", obs::Code::kIrqDeliver},
    {"kernel.faults", obs::Code::kRegimeFault},
    {"kernel.mmu_remaps", obs::Code::kMmuRemap},
    {"kernel.channel_stall", obs::Code::kChannelStall},
    {"machine.traps", obs::Code::kMachineTrap},
    {"machine.interrupts", obs::Code::kMachineIrq},
    {"machine.predecode_refills", obs::Code::kPredecodeFill},
    {"machine.superblock_builds", obs::Code::kSuperblockBuild},
};

// `untraced` and `traced` are the dumps of identical runs, the second with
// the recorder on from before the build: every counter must agree, and equal
// the number of its events.
void ExpectExactCounters(const obs::MetricLines& untraced, const obs::MetricLines& traced,
                         const std::vector<obs::TraceEvent>& events) {
  EXPECT_EQ(untraced, traced);
  for (const auto& [name, value] : traced) {
    const auto code = kEventOf.find(name);
    if (code != kEventOf.end()) {
      const auto marks = std::count_if(events.begin(), events.end(),
                                       [&](const obs::TraceEvent& e) {
                                         return e.code == code->second;
                                       });
      EXPECT_EQ(value, static_cast<std::uint64_t>(marks)) << name;
    }
  }
}

// Two swapping regimes. The ticker owns a line clock whose interrupts it
// takes, fills a capacity-4 channel its peer never drains (two stalls), then
// swaps forever; the peer swaps a while, then makes an unknown kernel call.
Result<std::unique_ptr<KernelizedSystem>> BuildCountedDeployment() {
  SystemBuilder builder;
  const int clk = builder.AddDevice(std::make_unique<LineClock>("clk", 20, 6, 40));
  Result<int> ticker = builder.AddRegime("ticker", 512, R"(
        .EQU CLK, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4          ; SETVEC
        MOV #CLK, R4
        MOV #0x40, (R4) ; enable clock interrupts
        MOV #6, R5
FILL:   CLR R0
        MOV #0x21, R1
        TRAP 1          ; SEND: the 5th and 6th find the channel full
        DEC R5
        BNE FILL
LOOP:   TRAP 0          ; SWAP
        BR LOOP
HANDLER:
        TRAP 5          ; RETI
)", {clk});
  Result<int> peer = builder.AddRegime("peer", 256, R"(
        MOV #20, R5
PLOOP:  TRAP 0          ; SWAP
        DEC R5
        BNE PLOOP
        TRAP 99         ; unknown kernel call: a regime fault
)");
  if (!ticker.ok() || !peer.ok()) {
    return Err("regime rejected");
  }
  builder.AddChannel("tight", /*sender=*/0, /*receiver=*/1, /*capacity=*/4);
  return builder.Build();
}

TEST(KernelCounters, ExactWithTheRecorderOff) {
  auto untraced = BuildCountedDeployment();
  ASSERT_TRUE(untraced.ok()) << untraced.error();
  (*untraced)->Run(3000);

  obs::Recorder().Start(std::size_t{1} << 16);
  auto traced = BuildCountedDeployment();  // the boot dispatch is traced too
  ASSERT_TRUE(traced.ok()) << traced.error();
  (*traced)->Run(3000);
  obs::Recorder().Stop();
  const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();
  ASSERT_EQ(obs::Recorder().dropped(), 0u);

  const SeparationKernel& kernel = (*traced)->kernel();
  EXPECT_GT(kernel.SwapCount(), 20u);
  EXPECT_GT(kernel.IrqDeliverCount(), 0u);
  EXPECT_EQ(kernel.ChannelStallCount(), 2u);
  EXPECT_EQ(kernel.FaultCount(), 1u);
  EXPECT_TRUE(kernel.RegimeHalted(1));
  ExpectExactCounters(RunMetrics((*untraced)->machine(), &(*untraced)->kernel()),
                      RunMetrics((*traced)->machine(), &kernel), events);
}

// A bare loop hot enough to build a superblock, whose alternating branch
// side-exits it and whose TRAP vectors through the hardware table.
TEST(KernelCounters, BareMachineExactWithTheRecorderOff) {
  const Result<AssembledProgram> program = Assemble(R"(
        .ORG 0x100
START:  CLR R0
LOOP:   INC R0
        BIT #1, R0
        BNE ODD         ; forward: the trace predicts fall-through
        INC R2
        BR NEXT
ODD:    TRAP 3
NEXT:   CMP #400, R0
        BNE LOOP
        HALT
        .ORG 0x200
HANDLER:
        INC R5
        RTI
)");
  ASSERT_TRUE(program.ok()) << program.error();
  const auto run = [&program] {
    std::unique_ptr<Machine> m = MakeBareMachine();
    m->memory().LoadImage(program->base, program->words);
    m->memory().Write(kVectorTrap, 0x200);
    m->memory().Write(kVectorTrap + 1, 0);
    m->cpu().set_pc(0x100);
    m->cpu().set_sp(0x1000);
    m->Run(20000);
    return m;
  };

  const std::unique_ptr<Machine> untraced = run();
  obs::Recorder().Start(std::size_t{1} << 16);
  const std::unique_ptr<Machine> traced = run();
  obs::Recorder().Stop();
  const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();
  ASSERT_EQ(obs::Recorder().dropped(), 0u);

  EXPECT_TRUE(traced->halted());
  EXPECT_EQ(traced->traps(), 200u);
  EXPECT_GE(traced->superblock_builds(), 1u);
  EXPECT_GT(traced->superblock_side_exits(), 0u);
  ExpectExactCounters(RunMetrics(*untraced, nullptr), RunMetrics(*traced, nullptr), events);
}

}  // namespace
}  // namespace sep
