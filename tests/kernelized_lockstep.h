// Kernelized lockstep gate, shared by the superblock and predecode suites.
//
// Machine::Run executes kernelized machines in batches between client
// callbacks and device events (docs/PERFORMANCE.md §9). These deployments
// exercise every way a batch can end — clock, crypto, serial-line and
// printer devices, a fault-injecting device wrapper, SWAP, AWAIT on a
// doorbell, SETVEC/RETI, and regimes that fault inside a batch — and
// ExpectKernelizedLockstep drives each on the engine under test by a
// Machine::Step() loop and through KernelizedSystem::Run in chunks of 1, 2,
// 3, 7, 64 and 4096 steps, against a Machine::Step() loop with the
// predecode cache off (the generic interpreter). All must agree on
// StateHash(), tick(), halted(), the kernel's counters (which are not
// machine state, so StateHash() does not cover them), the drained device
// output, the E17 canonical per-colour traces and the tick of every kernel,
// trap and interrupt event.
#ifndef TESTS_KERNELIZED_LOCKSTEP_H_
#define TESTS_KERNELIZED_LOCKSTEP_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/kernel_system.h"
#include "src/machine/devices.h"
#include "src/machine/faulty_device.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "src/sepcheck/guest_corpus.h"

namespace sep::lockstep {

// Runs a hot loop (superblock material) in rounds of 48 iterations with a
// SWAP between rounds, then halts: the stranger every deployment shares
// the processor with. Its store target sits in another 64-word page than
// the code, so the stores do not invalidate the loop's own decode.
inline constexpr char kWorker[] = R"(
START:  MOV #40, R3
OUTER:  MOV #48, R4
INNER:  INC R0
        ADD R0, R1
        MOV R1, @0x1F0
        XOR R0, R2
        DEC R4
        BNE INNER
        TRAP 0                ; SWAP
        DEC R3
        BNE OUTER
        TRAP 7                ; HALT
)";

// Guard ring: HIGH -> guard -> LOW over two 64-word shared rings in
// 16-word messages. The guard sleeps in AWAIT on its inbound doorbell and
// owns a line clock whose SETVEC handler acknowledges every tick and RETIs.
inline constexpr char kRingHigh[] = R"(
START:  MOV #0x41, R5         ; next payload word
MSG:    TST @NLEFT
        BEQ DONE
SPACE:  CLR R0
        TRAP 13               ; RINGSTAT ring 0 -> R1 = free words
        CMP #15, R1
        BCS ROOM
        TRAP 0                ; ring full: let the guard run
        BR SPACE
ROOM:   MOV TAIL, R3
        ADD #0x8000, R3
        MOV #16, R4
FILL:   MOV R5, (R3)
        INC R5
        INC R3
        DEC R4
        BNE FILL
        MOV TAIL, R3
        ADD #16, R3
        BIC #0xFFC0, R3
        MOV R3, @TAIL
        CLR R0
        MOV #16, R1
        TRAP 11               ; RINGPUT
        DEC @NLEFT
        BR MSG
DONE:   TRAP 7
NLEFT:  .WORD 12
TAIL:   .WORD 0
)";

inline constexpr char kRingGuard[] = R"(
        .EQU LKS, 0xE000
START:  CLR R0
        MOV #CLKH, R1
        TRAP 4                ; SETVEC line 0: the clock
        MOV #1, R0
        MOV #BELLH, R1
        TRAP 4                ; SETVEC line 1: ring 0's doorbell
        MOV #0x40, @LKS       ; clock interrupts on
MAIN:   TST @NLEFT
        BEQ DONE
        CLR R0
        TRAP 13               ; RINGSTAT ring 0 -> R0 = occupancy
        CMP #15, R0
        BCS HAVE
        TRAP 6                ; AWAIT the doorbell (or a clock tick)
        BR MAIN
HAVE:   MOV #1, R0
        TRAP 13               ; RINGSTAT ring 1 -> R1 = free words
        CMP #15, R1
        BCS ROOM
        TRAP 0                ; outbound ring full: let LOW drain
        BR MAIN
ROOM:   MOV HEAD, R2
        ADD #0x8000, R2
        MOV TAIL, R3
        ADD #0xA000, R3
        MOV #16, R4
SCAN:   MOV (R2), R1
        BIT #1, R1
        BEQ KEEP
        MOV #0x23, R1         ; redact odd words
KEEP:   MOV R1, (R3)
        INC R2
        INC R3
        DEC R4
        BNE SCAN
        MOV TAIL, R3
        ADD #16, R3
        BIC #0xFFC0, R3
        MOV R3, @TAIL
        MOV #1, R0
        MOV #16, R1
        TRAP 11               ; RINGPUT ring 1
        MOV HEAD, R2
        ADD #16, R2
        BIC #0xFFC0, R2
        MOV R2, @HEAD
        CLR R0
        MOV #16, R1
        TRAP 12               ; RINGGET ring 0
        DEC @NLEFT
        BR MAIN
DONE:   CLR @LKS
        TRAP 7
CLKH:   MOV #0x40, @LKS       ; acknowledge the tick, keep interrupts on
        INC @TICKS
        TRAP 5                ; RETI
BELLH:  INC @BELLS
        TRAP 5
NLEFT:  .WORD 12
HEAD:   .WORD 0
TAIL:   .WORD 0
TICKS:  .WORD 0
BELLS:  .WORD 0
)";

inline constexpr char kRingLow[] = R"(
MAIN:   TST @NLEFT
        BEQ DONE
        MOV #1, R0
        TRAP 13               ; RINGSTAT ring 1 -> R0 = occupancy
        CMP #15, R0
        BCS HAVE
        TRAP 6                ; AWAIT the doorbell
        BR MAIN
HAVE:   MOV HEAD, R3
        ADD #0x8000, R3
        MOV #16, R2
SUM:    ADD (R3), @TOTAL
        INC R3
        DEC R2
        BNE SUM
        MOV HEAD, R3
        ADD #16, R3
        BIC #0xFFC0, R3
        MOV R3, @HEAD
        MOV #1, R0
        MOV #16, R1
        TRAP 12               ; RINGGET ring 1
        DEC @NLEFT
        BR MAIN
DONE:   TRAP 7
NLEFT:  .WORD 12
HEAD:   .WORD 0
TOTAL:  .WORD 0
)";

// Serial line driven by polling: the hot loop reads RCSR/RBUF and writes
// XBUF, so every iteration touches device registers.
inline constexpr char kSerialPoll[] = R"(
START:  MOV #0xE000, R4
POLL:   BIT #0x80, (R4)       ; RCSR: word received?
        BNE GOT
        TRAP 0                ; no: let the worker run
        BR POLL
GOT:    MOV 1(R4), R2         ; RBUF (clears DONE)
        ADD #0x100, R2
TXW:    BIT #0x80, 2(R4)      ; XCSR: transmitter idle?
        BEQ TXW
        MOV R2, 3(R4)         ; XBUF
        DEC @LEFT
        BNE POLL
        TRAP 7
LEFT:   .WORD 16
)";

// Interrupt-driven line printer: each ready interrupt prints one word.
inline constexpr char kPrinter[] = R"(
        .EQU LPS, 0xE000
        .EQU LPB, 0xE001
START:  CLR R0
        MOV #LPH, R1
        TRAP 4                ; SETVEC line 0: printer ready
        MOV #TEXT, R5
        MOV #0x40, @LPS       ; IE on while READY: interrupts at once
WAIT:   TST @LEFT
        BEQ DONE
        TRAP 6                ; AWAIT the next ready interrupt
        BR WAIT
DONE:   CLR @LPS
        TRAP 7
LPH:    TST @LEFT
        BEQ LPOUT
        MOV (R5), R1
        MOV R1, @LPB
        INC R5
        DEC @LEFT
LPOUT:  TRAP 5                ; RETI
LEFT:   .WORD 12
TEXT:   .WORD 'S', 'E', 'P', 'A', 'R', 'A', 'B', 'L', 'E', '!', 13, 10
)";

// Interrupt-driven serial echo (the E17 guest shape): AWAITs, and its
// handler transmits every received word + 1.
inline constexpr char kSerialEcho[] = R"(
        .EQU DEV, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4                ; SETVEC
        MOV #DEV, R4
        MOV #0x40, (R4)       ; RCSR IE
LOOP:   TRAP 6                ; AWAIT
        BR LOOP
HANDLER:
        MOV #DEV, R4
        MOV 1(R4), R2         ; RBUF
        INC R2
WAITTX: MOV 2(R4), R3         ; XCSR
        BIT #0x80, R3
        BEQ WAITTX
        MOV R2, 3(R4)         ; XBUF
        TRAP 5                ; RETI
)";

inline constexpr char kSwapLoop[] = R"(
LOOP:   TRAP 0
        BR LOOP
)";

// Hot loop, then an undefined opcode: the kernel faults the regime from
// inside a batch.
inline constexpr char kIllegalAfterLoop[] = R"(
START:  MOV #300, R4
LOOP:   INC R0
        ADD R0, R1
        DEC R4
        BNE LOOP
        .WORD 0xFFFF
)";

// Hot loop storing upward through the partition end (512 words): the MMU
// violation lands inside a stitched trace.
inline constexpr char kStoreOffEnd[] = R"(
START:  MOV #0x100, R5
LOOP:   INC R1
        MOV R1, (R5)
        INC R5
        BR LOOP
)";

using BuildFn = std::unique_ptr<KernelizedSystem> (*)();

struct Deployment {
  const char* name;  // gtest parameter name
  BuildFn build;
  std::size_t steps;  // budget; most deployments halt earlier
  // Has loops hot enough that a 4096-step chunk with superblocks on must
  // build at least one trace. Not so behind a FaultyDevice: it reports no
  // quiet horizon, so every instruction takes the one-step path.
  bool hot;
};

inline int AddOrFail(SystemBuilder& builder, const std::string& name, const char* source,
                     std::vector<int> devices = {}) {
  Result<int> regime = builder.AddRegime(name, 512, source, std::move(devices));
  if (!regime.ok()) {
    ADD_FAILURE() << regime.error();
    return -1;
  }
  return *regime;
}

inline std::unique_ptr<KernelizedSystem> Finish(SystemBuilder& builder) {
  Result<std::unique_ptr<KernelizedSystem>> built = builder.Build();
  if (!built.ok()) {
    ADD_FAILURE() << built.error();
    return nullptr;
  }
  return std::move(built.value());
}

template <int kInterval>
std::unique_ptr<KernelizedSystem> BuildGuardRing() {
  SystemBuilder builder;
  const int clock = builder.AddDevice(std::make_unique<LineClock>("clock", 20, 6, kInterval));
  AddOrFail(builder, "high", kRingHigh);
  AddOrFail(builder, "guard", kRingGuard, {clock});
  AddOrFail(builder, "low", kRingLow);
  builder.AddSharedRing("high->guard", 0, 1, 64);
  builder.AddSharedRing("guard->low", 1, 2, 64);
  return Finish(builder);
}

template <int kLatency>
std::unique_ptr<KernelizedSystem> BuildSnfe() {
  SystemBuilder builder;
  const int crypto =
      builder.AddDevice(std::make_unique<CryptoUnit>("crypto", 16, 4, 0xFEED, kLatency));
  AddOrFail(builder, "red", sepcheck::kSnfeRed, {crypto});
  AddOrFail(builder, "censor", sepcheck::kSnfeCensor);
  AddOrFail(builder, "black", sepcheck::kSnfeBlack);
  builder.AddChannel("red->censor", 0, 1, 16);
  builder.AddChannel("red->black", 0, 2, 16);
  builder.AddChannel("censor->black", 1, 2, 16);
  return Finish(builder);
}

inline std::unique_ptr<KernelizedSystem> BuildSerialPoll() {
  SystemBuilder builder;
  const int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 3));
  AddOrFail(builder, "echo", kSerialPoll, {slu});
  AddOrFail(builder, "worker", kWorker);
  std::unique_ptr<KernelizedSystem> system = Finish(builder);
  if (system != nullptr) {
    for (Word w = 1; w <= 16; ++w) {
      system->machine().device(slu).InjectInput(static_cast<Word>(w * 7));
    }
  }
  return system;
}

inline std::unique_ptr<KernelizedSystem> BuildPrinter() {
  SystemBuilder builder;
  const int lp = builder.AddDevice(std::make_unique<LinePrinter>("lp", 18, 3, 4));
  AddOrFail(builder, "printer", kPrinter, {lp});
  AddOrFail(builder, "worker", kWorker);
  return Finish(builder);
}

inline std::unique_ptr<KernelizedSystem> BuildFaultyEcho() {
  SystemBuilder builder;
  DeviceFaultSpec spec;
  spec.stall_percent = 20;
  spec.spurious_irq_percent = 3;
  spec.read_flip_percent = 2;
  const int slu = builder.AddDevice(std::make_unique<FaultyDevice>(
      std::make_unique<SerialLine>("slu", 16, 4, 2), spec, /*seed=*/0x5EED));
  AddOrFail(builder, "echo", kSerialEcho, {slu});
  AddOrFail(builder, "worker", kWorker);
  std::unique_ptr<KernelizedSystem> system = Finish(builder);
  if (system != nullptr) {
    for (Word w = 10; w < 30; ++w) {
      system->machine().device(slu).InjectInput(w);
    }
  }
  return system;
}

inline std::unique_ptr<KernelizedSystem> BuildSwapPingPong() {
  SystemBuilder builder;
  AddOrFail(builder, "a", kSwapLoop);
  AddOrFail(builder, "b", kSwapLoop);
  AddOrFail(builder, "worker", kWorker);
  return Finish(builder);
}

inline std::unique_ptr<KernelizedSystem> BuildIllegalMidBatch() {
  SystemBuilder builder;
  AddOrFail(builder, "faulter", kIllegalAfterLoop);
  AddOrFail(builder, "worker", kWorker);
  return Finish(builder);
}

inline std::unique_ptr<KernelizedSystem> BuildMmuViolationMidBatch() {
  SystemBuilder builder;
  AddOrFail(builder, "faulter", kStoreOffEnd);
  AddOrFail(builder, "worker", kWorker);
  return Finish(builder);
}

inline const std::vector<Deployment>& Deployments() {
  static const std::vector<Deployment> kDeployments = {
      {"GuardRingClock2", &BuildGuardRing<2>, 6000, false},
      {"GuardRingClock7", &BuildGuardRing<7>, 20000, false},
      {"GuardRingClock25", &BuildGuardRing<25>, 20000, true},
      {"GuardRingClock500", &BuildGuardRing<500>, 20000, true},
      {"SnfeCryptoLatency1", &BuildSnfe<1>, 8000, false},
      {"SnfeCryptoLatency5", &BuildSnfe<5>, 8000, false},
      {"SerialPollEcho", &BuildSerialPoll, 20000, true},
      {"PrinterIrq", &BuildPrinter, 20000, true},
      {"FaultySerialEcho", &BuildFaultyEcho, 20000, false},
      {"SwapPingPong", &BuildSwapPingPong, 20000, true},
      {"IllegalInstructionMidBatch", &BuildIllegalMidBatch, 20000, true},
      {"MmuViolationMidBatch", &BuildMmuViolationMidBatch, 20000, true},
  };
  return kDeployments;
}

// Chunk 0 is a Machine::Step() loop: with predecode on, every instruction
// it executes is a one-instruction RunThreaded batch that performs its
// device accesses, a path Run reaches only for interrupts and replays.
inline constexpr std::size_t kChunks[] = {0, 1, 2, 3, 7, 64, 4096};

struct Engine {
  bool predecode = true;
  bool superblock = true;
};

inline std::unique_ptr<KernelizedSystem> BuildWith(const Deployment& d, Engine engine) {
  std::unique_ptr<KernelizedSystem> system = d.build();
  if (system != nullptr) {
    system->machine().set_predecode_enabled(engine.predecode);
    system->machine().set_superblock_enabled(engine.superblock);
  }
  return system;
}

// Everything the gate compares between the two ways of running.
struct Observed {
  std::size_t steps = 0;
  Tick tick = 0;
  bool halted = false;
  std::uint64_t hash = 0;
  // SwapCount, KernelCallCount, IrqForwardCount and FaultCount.
  std::array<std::uint64_t, 4> kernel_counts{};
  std::vector<std::vector<Word>> outputs;  // per device, drained at the end
  std::vector<std::string> canonical;      // E17 trace per colour
  // Every event except the derived-cache ones (predecode fills and
  // flushes, superblock builds and invalidations), ticks included: kernel
  // calls, deliveries, forwards, dispatches, remaps, machine traps and
  // interrupts must all happen at the same tick.
  std::string timeline;
  std::uint64_t superblock_builds = 0;
};

// Runs `system` for at most `budget` steps with the trace recorder on:
// by Machine::Step() when `chunk` is 0, else by Run(chunk) calls.
inline Observed Observe(KernelizedSystem& system, std::size_t budget, std::size_t chunk) {
  obs::Recorder().Start(std::size_t{1} << 16);
  std::size_t done = 0;
  if (chunk == 0) {
    for (; done < budget && !system.machine().halted(); ++done) {
      system.machine().Step();
    }
  } else {
    while (done < budget) {
      const std::size_t want = std::min(chunk, budget - done);
      const std::size_t ran = system.Run(want);
      done += ran;
      if (ran < want) {
        break;
      }
    }
  }
  obs::Recorder().Stop();
  EXPECT_EQ(obs::Recorder().dropped(), 0u);
  std::vector<obs::TraceEvent> events = obs::Recorder().Drain();

  Observed o;
  o.steps = done;
  o.tick = system.machine().tick();
  o.halted = system.machine().halted();
  o.hash = system.machine().StateHash();
  const SeparationKernel& kernel = system.kernel();
  o.kernel_counts = {kernel.SwapCount(), kernel.KernelCallCount(), kernel.IrqForwardCount(),
                     kernel.FaultCount()};
  for (int slot = 0; slot < system.machine().device_count(); ++slot) {
    o.outputs.push_back(system.machine().device(slot).DrainOutput());
  }
  for (int colour = 0; colour < system.ColourCount(); ++colour) {
    o.canonical.push_back(obs::CanonicalColourTrace(events, colour));
  }
  std::erase_if(events, [](const obs::TraceEvent& e) {
    return e.code == obs::Code::kPredecodeFill || e.code == obs::Code::kPredecodeFlush ||
           e.code == obs::Code::kSuperblockBuild ||
           e.code == obs::Code::kSuperblockInvalidate;
  });
  o.timeline = obs::TraceText(events);
  o.superblock_builds = system.machine().superblock_builds();
  return o;
}

// Run(chunk) on `engine` against Step() with predecode off, checked at every
// chunk boundary: tick, halt latch and registers each time, the full state
// hash (which covers all of memory, so it is costly) every ~2048 steps and
// at the end. `chunk` is at least 1.
inline void ExpectChunkBoundariesMatch(const Deployment& d, Engine engine, std::size_t chunk) {
  std::unique_ptr<KernelizedSystem> fast = BuildWith(d, engine);
  std::unique_ptr<KernelizedSystem> ref = BuildWith(d, {false, false});
  ASSERT_TRUE(fast != nullptr && ref != nullptr);
  const std::size_t hash_every = std::max<std::size_t>(1, 2048 / chunk);
  std::size_t done = 0;
  for (std::size_t n = 1; done < d.steps; ++n) {
    const std::size_t want = std::min(chunk, d.steps - done);
    const std::size_t ran = fast->Run(want);
    for (std::size_t i = 0; i < ran; ++i) {
      ref->machine().Step();
    }
    done += ran;
    const Machine& a = fast->machine();
    const Machine& b = ref->machine();
    ASSERT_EQ(a.tick(), b.tick()) << "after " << done << " steps";
    ASSERT_EQ(a.halted(), b.halted()) << "after " << done << " steps";
    ASSERT_EQ(a.cpu().regs, b.cpu().regs) << "after " << done << " steps";
    ASSERT_EQ(a.cpu().psw.bits(), b.cpu().psw.bits()) << "after " << done << " steps";
    if (n % hash_every == 0 || ran < want) {
      ASSERT_EQ(a.StateHash(), b.StateHash()) << "after " << done << " steps";
    }
    if (ran < want) {
      ASSERT_TRUE(a.halted()) << "Run stopped early without halting";
      break;
    }
  }
  ASSERT_EQ(fast->machine().StateHash(), ref->machine().StateHash());
}

inline void ExpectKernelizedLockstep(const Deployment& d, Engine engine) {
  std::unique_ptr<KernelizedSystem> ref_system = BuildWith(d, {false, false});
  ASSERT_TRUE(ref_system != nullptr);
  const Observed ref = Observe(*ref_system, d.steps, 0);
  ASSERT_GT(ref.steps, 0u);
  for (std::size_t chunk : kChunks) {
    SCOPED_TRACE(::testing::Message() << d.name << ", chunk " << chunk);
    std::unique_ptr<KernelizedSystem> system = BuildWith(d, engine);
    ASSERT_TRUE(system != nullptr);
    const Observed run = Observe(*system, d.steps, chunk);
    EXPECT_EQ(run.steps, ref.steps);
    EXPECT_EQ(run.tick, ref.tick);
    EXPECT_EQ(run.halted, ref.halted);
    EXPECT_EQ(run.hash, ref.hash);
    EXPECT_EQ(run.kernel_counts, ref.kernel_counts);
    EXPECT_EQ(run.outputs, ref.outputs);
    ASSERT_EQ(run.canonical.size(), ref.canonical.size());
    for (std::size_t colour = 0; colour < ref.canonical.size(); ++colour) {
      EXPECT_EQ(run.canonical[colour], ref.canonical[colour]) << "colour " << colour;
    }
    EXPECT_EQ(run.timeline, ref.timeline);
    if (d.hot && engine.predecode && engine.superblock && chunk == 4096) {
      EXPECT_GT(run.superblock_builds, 0u) << "the threaded engine never stitched a trace";
    }
    if (chunk != 0) {
      ExpectChunkBoundariesMatch(d, engine, chunk);
    }
  }
}

}  // namespace sep::lockstep

#endif  // TESTS_KERNELIZED_LOCKSTEP_H_
