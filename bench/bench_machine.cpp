// Substrate microbenchmarks: SM-11 interpreter speed, assembler speed,
// device stepping, MMU translation. These are the cost model under every
// other experiment.
#include <benchmark/benchmark.h>

#include "src/core/kernel_system.h"
#include "src/machine/devices.h"
#include "src/machine/machine.h"
#include "src/obs/trace.h"
#include "src/sm11asm/assembler.h"

namespace sep {
namespace {

std::unique_ptr<Machine> BareMachine() {
  MachineConfig config;
  config.memory_words = 1u << 15;
  auto machine = std::make_unique<Machine>(config);
  for (int page = 0; page < 4; ++page) {
    machine->mmu().SetPage(CpuMode::kKernel, page,
                           {static_cast<PhysAddr>(page) * kPageWords, kPageWords,
                            PageAccess::kReadWrite});
  }
  return machine;
}

constexpr char kThroughputLoop[] = R"(
LOOP:   INC R0
        ADD R0, R1
        MOV R1, @0x200
        CMP #0, R1
        BNE LOOP
        BR LOOP
)";

// Instruction throughput of the batched execution engine (Machine::Run with
// the predecode cache on — the direct-threaded loop). items/sec is
// instructions per second; the ratio to the NoCache variant below is the
// `predecode_speedup` metric in BENCH_*.json.
void BM_InstructionThroughput(benchmark::State& state) {
  auto machine = BareMachine();
  Result<AssembledProgram> program = Assemble(kThroughputLoop);
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_InstructionThroughput);

// The same batched loop with the predecoded-instruction cache disabled:
// every step re-translates, re-fetches and re-decodes through the generic
// interpreter. Same API as above so the ratio isolates the cache.
void BM_InstructionThroughputNoCache(benchmark::State& state) {
  auto machine = BareMachine();
  machine->set_predecode_enabled(false);
  Result<AssembledProgram> program = Assemble(kThroughputLoop);
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_InstructionThroughputNoCache);

// Batched execution with the predecode cache on but the superblock layer
// off: every instruction still pays the per-step entry validation the
// superblocks hoist to trace entry. The ratio of BM_InstructionThroughput
// to this is the `superblock_speedup` metric in BENCH_*.json.
void BM_InstructionThroughputNoSuperblock(benchmark::State& state) {
  auto machine = BareMachine();
  machine->set_superblock_enabled(false);
  Result<AssembledProgram> program = Assemble(kThroughputLoop);
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_InstructionThroughputNoSuperblock);

// Invalidation storm: the whole derived state (predecoded blocks and any
// stitched superblocks) is flushed before every batch, so the measured cost
// is dominated by re-decode and trace rebuild rather than steady-state
// dispatch. Guards against regressions in rebuild cost that the warm
// benchmarks above can never see.
void BM_InstructionThroughputInvalidationStorm(benchmark::State& state) {
  auto machine = BareMachine();
  Result<AssembledProgram> program = Assemble(kThroughputLoop);
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    machine->set_predecode_enabled(false);  // drops icache + superblocks
    machine->set_predecode_enabled(true);
    benchmark::DoNotOptimize(machine->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_InstructionThroughputInvalidationStorm);

// Unbatched single-step API (what the separability checker drives): pays
// per-step event plumbing and interrupt polling but still hits the
// predecode cache.
void BM_StepCpuPhase(benchmark::State& state) {
  auto machine = BareMachine();
  Result<AssembledProgram> program = Assemble(kThroughputLoop);
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    machine->StepCpuPhase();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StepCpuPhase);

void BM_FullMachineStep(benchmark::State& state) {
  auto machine = BareMachine();
  for (int d = 0; d < state.range(0); ++d) {
    machine->AddDevice(std::make_unique<SerialLine>("slu" + std::to_string(d), 16 + d, 4, 2));
  }
  Result<AssembledProgram> program = Assemble("LOOP: INC R0\n      BR LOOP\n");
  machine->memory().LoadImage(0, program->words);
  machine->cpu().set_sp(0x1000);
  for (auto _ : state) {
    machine->Step();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(std::to_string(state.range(0)) + " devices");
}
BENCHMARK(BM_FullMachineStep)->Arg(0)->Arg(2)->Arg(8);

void BM_MmuTranslate(benchmark::State& state) {
  Mmu mmu;
  mmu.SetPage(CpuMode::kUser, 0, {0x1000, kPageWords, PageAccess::kReadWrite});
  VirtAddr addr = 0;
  for (auto _ : state) {
    auto result = mmu.Translate(CpuMode::kUser, addr, AccessKind::kReadData);
    benchmark::DoNotOptimize(result.translation);
    addr = (addr + 7) & (kPageWords - 1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MmuTranslate);

void BM_Assembler(benchmark::State& state) {
  std::string source;
  for (int i = 0; i < 100; ++i) {
    source += "L" + std::to_string(i) + ": MOV #" + std::to_string(i) + ", R0\n";
    source += "     ADD R0, R1\n";
    source += "     BNE L" + std::to_string(i) + "\n";
  }
  for (auto _ : state) {
    Result<AssembledProgram> program = Assemble(source);
    benchmark::DoNotOptimize(program.ok());
  }
  state.SetItemsProcessed(state.iterations() * 300);  // instructions assembled
}
BENCHMARK(BM_Assembler);

// Kernel-mediated stepping with the observability layer compiled in. The
// guests are a pure SWAP ping-pong, so EVERY machine step runs the kernel
// slow path — trap dispatch, kernel-call accounting, dispatcher, MMU
// reprogram — which is the densest sequence of trace points the system can
// produce. TraceOff measures the disabled-tracing tax (one load + branch
// per site); TraceOn pays buffer writes plus a periodic drain. The ratio
// off/on is the recorded, unguarded `trace_disabled_overhead` metric in
// BENCH_*.json; the disabled path's exact counts are pinned in
// tests/network_alloc_test.cpp on the same ping-pong.
std::unique_ptr<KernelizedSystem> SwapPingPong() {
  SystemBuilder builder;
  (void)builder.AddRegime("a", 256, "LOOP: TRAP 0\n      BR LOOP\n");
  (void)builder.AddRegime("b", 256, "LOOP: TRAP 0\n      BR LOOP\n");
  auto sys = builder.Build();
  if (!sys.ok()) {
    std::abort();
  }
  return std::move(sys.value());
}

void BM_KernelizedStepTraceOff(benchmark::State& state) {
  auto sys = SwapPingPong();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_KernelizedStepTraceOff);

void BM_KernelizedStepTraceOn(benchmark::State& state) {
  auto sys = SwapPingPong();
  obs::Recorder().Start(std::size_t{1} << 17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->Run(4096));
    // Drain inside the timed region: a live consumer is part of the cost of
    // tracing, and an undrained buffer would degenerate into cheap drops.
    benchmark::DoNotOptimize(obs::Recorder().Drain());
  }
  obs::Recorder().Stop();
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_KernelizedStepTraceOn);

// Cold-start/invalidation-storm variant of the kernelized stepper: the
// warm benches above only ever exercise a hot predecode cache, so a
// regression that made refills expensive would be invisible there. Here the
// derived caches are flushed before every batch — every regime swap and
// trap path re-decodes from scratch.
void BM_KernelizedStepInvalidationStorm(benchmark::State& state) {
  auto sys = SwapPingPong();
  for (auto _ : state) {
    sys->machine().set_predecode_enabled(false);
    sys->machine().set_predecode_enabled(true);
    benchmark::DoNotOptimize(sys->Run(4096));
  }
  state.SetItemsProcessed(state.iterations() * 4096);
}
BENCHMARK(BM_KernelizedStepInvalidationStorm);

void BM_StateHash(benchmark::State& state) {
  auto machine = BareMachine();
  for (auto _ : state) {
    benchmark::DoNotOptimize(machine->StateHash());
  }
}
BENCHMARK(BM_StateHash);

void BM_SnapshotFull(benchmark::State& state) {
  auto machine = BareMachine();
  for (auto _ : state) {
    std::vector<Word> snapshot = machine->SnapshotFull();
    benchmark::DoNotOptimize(snapshot.data());
  }
}
BENCHMARK(BM_SnapshotFull);

}  // namespace
}  // namespace sep

BENCHMARK_MAIN();
