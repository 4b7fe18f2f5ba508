// E2/E3/E4 — Proof of Separability over the SUE-style kernel.
//
// Table 1: per-condition check/violation counts for the good kernel across
//          configurations (the executable form of the paper's two
//          commutative diagrams and the Appendix's conditions 3-6).
// Table 2: detection matrix — every injected kernel defect vs the checker
//          verdict (the ground-truth validation of the method).
// Benchmarks: checker throughput and its building blocks (machine clone,
//          abstraction-function extraction).
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdio>
#include <string_view>

#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/core/separability.h"
#include "src/machine/devices.h"
#include "src/model/toy_systems.h"

namespace sep {
namespace {

constexpr char kWorker[] = R"(
START:  CLR R3
LOOP:   INC R3
        MOV R3, @0x40
        ADD R3, R2
        TRAP 0
        BR LOOP
)";

constexpr char kProbe[] = R"(
START:  MOV R0, @0x50
        MOV R1, @0x51
        MOV R4, @0x52
        COM R1
        TRAP 0
        BCS START
        MOV #1, R2
        MOV R2, @0x70
        BR START
)";

// Reads virtual page 1 — the window the shared_mmu_window defect opens onto
// regime 0's partition — and publishes what it sees. Under a correct kernel
// this faults immediately; under the defective one it is a working spy.
constexpr char kSpy[] = R"(
START:  MOV #0x2000, R4
LOOP:   MOV (R4), R2
        MOV R2, @0x60
        TRAP 0
        BR LOOP
)";

constexpr char kDriver[] = R"(
        .EQU DEV, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4
        MOV #DEV, R4
        MOV #0x40, (R4)
LOOP:   TRAP 6
        BR LOOP
HANDLER:
        MOV #DEV, R4
        MOV 1(R4), R2
        MOV R2, 3(R4)
        TRAP 5
)";

std::unique_ptr<KernelizedSystem> BuildConfig(const std::string& kind,
                                              const KernelFaults& faults = {}) {
  SystemBuilder builder;
  if (kind == "2-worker") {
    (void)builder.AddRegime("red", 256, kWorker);
    (void)builder.AddRegime("black", 256, kProbe);
  } else if (kind == "2-spy") {
    (void)builder.AddRegime("red", 256, kWorker);
    (void)builder.AddRegime("spy", 256, kSpy);
  } else if (kind == "3-channel") {
    (void)builder.AddRegime("a", 256, kWorker);
    (void)builder.AddRegime("b", 256, kProbe);
    (void)builder.AddRegime("c", 256, kWorker);
    builder.AddChannel("a2b", 0, 1, 8);
    builder.AddChannel("b2c", 1, 2, 8);
    builder.CutChannels(true);
  } else {  // "2-device"
    SystemBuilder fresh;
    builder = std::move(fresh);
    int slu_a = builder.AddDevice(std::make_unique<SerialLine>("slu-a", 16, 4, 2));
    int slu_b = builder.AddDevice(std::make_unique<SerialLine>("slu-b", 18, 5, 3));
    (void)builder.AddRegime("drv-a", 256, kDriver, {slu_a});
    (void)builder.AddRegime("drv-b", 256, kDriver, {slu_b});
  }
  builder.WithFaults(faults);
  auto system = builder.Build();
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n", system.error().c_str());
    std::abort();
  }
  return std::move(system.value());
}

CheckerOptions TableOptions(std::uint64_t seed = 1) {
  CheckerOptions options;
  options.seed = seed;
  options.trace_steps = 800;
  options.sample_every = 9;
  options.perturb_variants = 2;
  options.input_rate_percent = 12;
  return options;
}

void PrintTable1() {
  std::printf("== E2/E4 Table 1: Proof of Separability, good kernel ==\n");
  std::printf("%-12s %-10s %-10s %-10s %-10s %-10s %-10s %s\n", "config", "C1(viol/chk)",
              "C2", "C3", "C4", "C5", "C6", "verdict");
  for (const char* kind : {"2-worker", "3-channel", "2-device"}) {
    auto system = BuildConfig(kind);
    SeparabilityReport report = CheckSeparability(*system, TableOptions());
    std::printf("%-12s", kind);
    for (int c = 1; c <= 6; ++c) {
      std::printf(" %llu/%-8llu",
                  static_cast<unsigned long long>(report.conditions[c].violations),
                  static_cast<unsigned long long>(report.conditions[c].checks));
    }
    std::printf(" %s\n", report.Passed() ? "SEPARABLE" : "VIOLATED");
  }
  std::printf("\n");
}

void PrintTable2() {
  std::printf("== E3 Table 2: defect detection matrix ==\n");
  std::printf("%-26s %-10s %-30s\n", "injected defect", "verdict", "first violated condition");
  struct Row {
    const char* name;
    const char* config;
    KernelFaults faults;
  };
  std::vector<Row> rows;
  {
    Row r{"(none)", "2-worker", {}};
    rows.push_back(r);
  }
  {
    Row r{"skip-register-restore", "2-worker", {}};
    r.faults.skip_register_restore = true;
    rows.push_back(r);
  }
  {
    Row r{"leak-condition-codes", "2-worker", {}};
    r.faults.leak_condition_codes = true;
    rows.push_back(r);
  }
  {
    // Detection needs a regime that actually exercises the window.
    Row r{"shared-mmu-window", "2-spy", {}};
    r.faults.shared_mmu_window = true;
    rows.push_back(r);
  }
  {
    Row r{"skip-register-save", "2-worker", {}};  // correctness bug, not a leak
    r.faults.skip_register_save = true;
    rows.push_back(r);
  }

  for (const Row& row : rows) {
    auto system = BuildConfig(row.config, row.faults);
    SeparabilityReport report = CheckSeparability(*system, TableOptions(7));
    const char* verdict = report.Passed() ? "PASS" : "DETECTED";
    std::string first = report.violations.empty()
                            ? std::string("-")
                            : "C" + std::to_string(report.violations[0].condition) + ": " +
                                  report.violations[0].description.substr(0, 40);
    std::printf("%-26s %-10s %-30s\n", row.name, verdict, first.c_str());
  }
  // Broadcast interrupts needs a device config.
  {
    KernelFaults faults;
    faults.broadcast_interrupts = true;
    auto system = BuildConfig("2-device", faults);
    CheckerOptions options = TableOptions(9);
    options.input_rate_percent = 25;
    SeparabilityReport report = CheckSeparability(*system, options);
    std::string first = report.violations.empty()
                            ? std::string("-")
                            : "C" + std::to_string(report.violations[0].condition);
    std::printf("%-26s %-10s %-30s\n", "broadcast-interrupts",
                report.Passed() ? "PASS" : "DETECTED", first.c_str());
  }
  std::printf("\n");
}

void PrintTable3() {
  std::printf("== E4 Table 3: exhaustive (finite-model) checking ==\n");
  std::printf("%-26s %-10s %-10s %-10s %-10s %s\n", "system", "states", "transitions",
              "pairs", "complete", "verdict");
  struct Row {
    const char* name;
    bool leaky;
  };
  for (const Row& row : {Row{"tiny-2user secure", false}, Row{"tiny-2user leaky", true}}) {
    ExhaustiveReport report = CheckSeparabilityExhaustive(TinyTwoUserSystem(row.leaky));
    const char* verdict = !report.Passed()  ? "REFUTED"
                          : report.complete ? "SEPARABLE (proved)"
                                            : "no violation (partial)";
    std::printf("%-26s %-10zu %-10zu %-10zu %-10s %s\n", row.name, report.states_explored,
                report.transitions, report.pairs_checked, report.complete ? "yes" : "no",
                verdict);
  }
  std::printf("(for finite micro-systems the six conditions are DECIDED over the whole\n");
  std::printf(" reachable space; the kernel configs above use the sampled checker)\n\n");
}

void BM_CheckerFullRun(benchmark::State& state) {
  auto system = BuildConfig("2-worker");
  CheckerOptions options;
  options.trace_steps = static_cast<int>(state.range(0));
  options.sample_every = 11;
  for (auto _ : state) {
    SeparabilityReport report = CheckSeparability(*system, options);
    benchmark::DoNotOptimize(report.operations_executed);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CheckerFullRun)->Arg(100)->Arg(400)->Arg(1600);

void BM_MachineClone(benchmark::State& state) {
  auto system = BuildConfig("3-channel");
  for (auto _ : state) {
    auto clone = system->Clone();
    benchmark::DoNotOptimize(clone.get());
  }
}
BENCHMARK(BM_MachineClone);

void BM_AbstractionFunction(benchmark::State& state) {
  auto system = BuildConfig("3-channel");
  for (auto _ : state) {
    AbstractState phi = system->Abstract(1);
    benchmark::DoNotOptimize(phi.words.data());
  }
}
BENCHMARK(BM_AbstractionFunction);

void BM_PerturbOthers(benchmark::State& state) {
  auto system = BuildConfig("3-channel");
  Rng rng(1);
  for (auto _ : state) {
    auto clone = system->Clone();
    static_cast<KernelizedSystem*>(clone.get())->PerturbOthers(0, rng);
    benchmark::DoNotOptimize(clone.get());
  }
}
BENCHMARK(BM_PerturbOthers);

void BM_ExhaustiveCheck(benchmark::State& state) {
  std::size_t states = 0;
  for (auto _ : state) {
    ExhaustiveReport report = CheckSeparabilityExhaustive(TinyTwoUserSystem(false));
    benchmark::DoNotOptimize(report.states_explored);
    states += report.states_explored;
  }
  // items/sec == reachable states proven per wall-clock second (UseRealTime:
  // the parallel variants run on pool threads the main thread's CPU time
  // does not see).
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
}
BENCHMARK(BM_ExhaustiveCheck)->UseRealTime();

void BM_ExhaustiveCheckParallel(benchmark::State& state) {
  ExhaustiveOptions options;
  options.threads = 0;  // all hardware threads
  std::size_t states = 0;
  for (auto _ : state) {
    ExhaustiveReport report = CheckSeparabilityExhaustive(TinyTwoUserSystem(false), options);
    benchmark::DoNotOptimize(report.states_explored);
    states += report.states_explored;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
}
BENCHMARK(BM_ExhaustiveCheckParallel)->UseRealTime();

// E16: two tight SM-11 loops whose register masks give the product
// automaton a reachable cycle of 2054 states: the standard stress
// configuration for the compact state store (every state differs from its
// predecessor in a handful of words, so chunk interning is at its most
// effective and the per-state cost is dominated by RestoreFullState +
// expansion).
constexpr char kCycleA[] = R"(
START:  INC R3
        BIC #0xFFE0, R3
        TRAP 0
        BR START
)";

constexpr char kCycleB[] = R"(
START:  INC R3
        BIC #0xFF00, R3
        TRAP 0
        BR START
)";

std::unique_ptr<KernelizedSystem> BuildCycleConfig() {
  SystemBuilder builder;
  builder.WithMemoryWords(1u << 12);
  (void)builder.AddRegime("red", 64, kCycleA);
  (void)builder.AddRegime("black", 64, kCycleB);
  auto system = builder.Build();
  if (!system.ok()) {
    std::fprintf(stderr, "build failed: %s\n", system.error().c_str());
    std::abort();
  }
  return std::move(system.value());
}

// The last check's wall time per checker phase, in milliseconds: E20's
// split of the E16 check between exploration and the class check.
void SetPhaseCounters(benchmark::State& state, const ExhaustiveReport& report) {
  state.counters["explore_ms"] = static_cast<double>(report.explore_ns) / 1e6;
  state.counters["frontier_ms"] = static_cast<double>(report.frontier_ns) / 1e6;
  state.counters["class_check_ms"] = static_cast<double>(report.class_check_ns) / 1e6;
}

// Exhaustive checking of the full kernelized machine (not the toy system):
// every explored state is a complete SM-11 snapshot — all of physical
// memory, MMU, CPU and device state. The check is COMPLETE at 2054 states,
// under the budget. items/sec == kernelized states proven per second;
// bytes_per_state is the compact store's resident footprint per explored
// state.
void BM_ExhaustiveKernelized(benchmark::State& state) {
  auto system = BuildCycleConfig();
  ExhaustiveOptions options;
  options.max_states = 8192;
  std::size_t states = 0;
  ExhaustiveReport report;
  for (auto _ : state) {
    report = CheckSeparabilityExhaustive(*system, options);
    benchmark::DoNotOptimize(report.states_explored);
    states += report.states_explored;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
  state.counters["bytes_per_state"] = static_cast<double>(report.peak_state_bytes) /
                                      static_cast<double>(report.states_explored);
  SetPhaseCounters(state, report);
}
BENCHMARK(BM_ExhaustiveKernelized)->UseRealTime();

// The same kernelized check with all hardware threads. Against
// BM_ExhaustiveKernelized this yields `exhaustive_steal_speedup` in
// bench_report (the name predates the level-synchronous engine), guarded
// like exhaustive_parallel_speedup and, like it, skipped on single-core
// hosts where the honest value is <= 1.
void BM_ExhaustiveKernelizedSteal(benchmark::State& state) {
  auto system = BuildCycleConfig();
  ExhaustiveOptions options;
  options.max_states = 8192;
  options.threads = 0;  // all hardware threads
  std::size_t states = 0;
  ExhaustiveReport report;
  for (auto _ : state) {
    report = CheckSeparabilityExhaustive(*system, options);
    benchmark::DoNotOptimize(report.states_explored);
    states += report.states_explored;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(states));
  SetPhaseCounters(state, report);
}
BENCHMARK(BM_ExhaustiveKernelizedSteal)->UseRealTime();

}  // namespace
}  // namespace sep

int main(int argc, char** argv) {
  // --notables suppresses the experiment tables so machine consumers
  // (tools/bench_report with --benchmark_format=json) get pure JSON.
  bool tables = true;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--notables") {
      tables = false;
      for (int j = i; j + 1 < argc; ++j) {
        argv[j] = argv[j + 1];
      }
      --argc;
      break;
    }
  }
  if (tables) {
    sep::PrintTable1();
    sep::PrintTable2();
    sep::PrintTable3();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
