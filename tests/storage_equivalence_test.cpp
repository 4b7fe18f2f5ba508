// Storage equivalence: the compact-store exhaustive checker (arena-interned
// serialized states + RestoreFullState reconstruction) must produce reports
// BYTE-IDENTICAL to the original clone-retaining implementation. The golden
// renderings below were captured from that implementation before the store
// was introduced; every counter, per-condition stat, violation order and
// Summary() byte is pinned, serial and parallel.
//
// Also here: FullState ∘ RestoreFullState round-trip properties, since the
// equivalence above is exactly as trustworthy as that inverse.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "src/base/thread_pool.h"
#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/model/toy_systems.h"

namespace sep {
namespace {

constexpr char kGoodA[] = R"(
START:  MOV #3, R0
        ADD #2, R0
        TRAP 0
        INC R1
        TRAP 7
)";

constexpr char kGoodB[] = R"(
START:  CLR R2
        INC R2
        TRAP 0
        ADD R0, R2
        TRAP 7
)";

std::unique_ptr<KernelizedSystem> BuildHalting(const KernelFaults& faults = {}) {
  SystemBuilder builder;
  builder.WithMemoryWords(1u << 12);
  EXPECT_TRUE(builder.AddRegime("red", 64, kGoodA).ok());
  EXPECT_TRUE(builder.AddRegime("black", 64, kGoodB).ok());
  builder.WithFaults(faults);
  auto system = builder.Build();
  EXPECT_TRUE(system.ok()) << system.error();
  return std::move(system.value());
}

// Renders every observable field of the report; golden comparison of this
// string pins the whole report, not just the verdict.
std::string Render(const ExhaustiveReport& r) {
  std::string out = r.Summary();
  out += "\n";
  char buf[64];
  std::snprintf(buf, sizeof buf, "transitions=%zu pairs=%zu\n", r.transitions, r.pairs_checked);
  out += buf;
  for (const Violation& v : r.violations) {
    std::snprintf(buf, sizeof buf, "V c%d colour%d step%llu ", v.condition, v.colour,
                  static_cast<unsigned long long>(v.step));
    out += buf;
    out += v.description;
    out += "\n";
  }
  return out;
}

std::string Check(const SharedSystem& system, int threads) {
  ExhaustiveOptions options;
  options.threads = threads;
  return Render(CheckSeparabilityExhaustive(system, options));
}

constexpr char kGoldenGood[] =
    "11 states, 11 transitions, 18 pairs, COMPLETE: "
    "C1 0/0 C2 0/12 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE\n"
    "transitions=11 pairs=18\n";

constexpr char kGoldenSkipRestore[] =
    "11 states, 11 transitions, 10 pairs, COMPLETE: "
    "C1 0/0 C2 3/12 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS\n"
    "transitions=11 pairs=10\n"
    "V c2 colour1 step0 operation of colour 0 changed Φ of colour 1\n"
    "V c2 colour0 step0 operation of colour 1 changed Φ of colour 0\n"
    "V c2 colour1 step0 operation of colour 0 changed Φ of colour 1\n";

// The default cap of 4096 pairs per Φ-group checks 217272 of the 398664
// Φ-equal pairs, so the run is partial, not a proof.
constexpr char kGoldenTinySecure[] =
    "3528 states, 24696 transitions, 217272 pairs (181392 skipped by the pair cap), partial: "
    "C1 0/50802 C2 0/3528 C3 0/651816 C4 0/21168 C5 0/217272 C6 0/50802 => SEPARABLE\n"
    "transitions=24696 pairs=217272\n";

const std::string kGoldenTinyLeaky = [] {
  std::string golden =
      "2646 states, 18522 transitions, 70 pairs, COMPLETE: "
      "C1 16/36 C2 0/2646 C3 0/210 C4 0/15876 C5 0/70 C6 0/36 => VIOLATIONS\n"
      "transitions=18522 pairs=70\n";
  for (int i = 0; i < 16; ++i) {
    golden +=
        "V c1 colour0 step0 operation effect on colour 0 differs across Φ-equal states\n";
  }
  return golden;
}();

TEST(StorageEquivalence, KernelizedGoodMatchesGolden) {
  auto system = BuildHalting();
  EXPECT_EQ(Check(*system, 1), kGoldenGood);
  EXPECT_EQ(Check(*system, 4), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedLeakConditionCodesMatchesGolden) {
  // This fault is not exposed by the halting config (neither program's Φ
  // depends on inherited condition codes), so its golden equals the good
  // one — what is pinned is that the checker still says exactly that.
  KernelFaults faults;
  faults.leak_condition_codes = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system, 1), kGoldenGood);
  EXPECT_EQ(Check(*system, 4), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedSkipRestoreMatchesGolden) {
  // A real defect: violation count, ORDER and texts are pinned, serial and
  // parallel.
  KernelFaults faults;
  faults.skip_register_restore = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system, 1), kGoldenSkipRestore);
  EXPECT_EQ(Check(*system, 4), kGoldenSkipRestore);
}

TEST(StorageEquivalence, TinySystemsMatchGolden) {
  EXPECT_EQ(Check(TinyTwoUserSystem(false), 1), kGoldenTinySecure);
  EXPECT_EQ(Check(TinyTwoUserSystem(true), 1), kGoldenTinyLeaky);
}

TEST(StorageEquivalence, SchedulePerturbationKeepsReportsByteIdentical) {
  // Thread counts change which worker expands which state and in what
  // order; steal_seed has no effect but is still swept, so a dependence on
  // it would show. None of it may reach the report: every rendering equals
  // the serial golden byte for byte.
  auto good = BuildHalting();
  KernelFaults faults;
  faults.skip_register_restore = true;
  auto leaky = BuildHalting(faults);

  int hw = ThreadPool::HardwareThreads();
  if (hw < 2) {
    hw = 4;  // oversubscribe on 1-core hosts: workers still interleave
  }
  for (int threads : {1, 2, hw}) {
    for (std::uint64_t seed : {0ull, 1ull, 0xDEADBEEFull, 0x9E3779B97F4A7C15ull}) {
      ExhaustiveOptions options;
      options.threads = threads;
      options.steal_seed = seed;
      EXPECT_EQ(Render(CheckSeparabilityExhaustive(*good, options)), kGoldenGood)
          << "threads=" << threads << " seed=" << seed;
      EXPECT_EQ(Render(CheckSeparabilityExhaustive(*leaky, options)), kGoldenSkipRestore)
          << "threads=" << threads << " seed=" << seed;
    }
  }
}

TEST(StorageEquivalence, SchedulePerturbationOnWiderStateSpace) {
  // Same sweep over the tiny system's 3528-state space: wide enough that
  // parallel workers genuinely race on shard inserts within a slice, so a
  // schedule-dependence bug cannot hide behind an 11-state chain whose
  // one-state slices run inline.
  for (std::uint64_t seed : {1ull, 0xC0FFEEull}) {
    ExhaustiveOptions options;
    options.threads = 4;
    options.steal_seed = seed;
    EXPECT_EQ(Render(CheckSeparabilityExhaustive(TinyTwoUserSystem(false), options)),
              kGoldenTinySecure)
        << "seed=" << seed;
  }
}

TEST(StorageEquivalence, StoreDiagnosticsAreDeterministic) {
  // The new report fields are as deterministic as the rest: thread count
  // must not show through restore counts or the store's footprint.
  ExhaustiveOptions serial;
  serial.threads = 1;
  ExhaustiveOptions parallel;
  parallel.threads = 4;
  auto system = BuildHalting();
  const ExhaustiveReport a = CheckSeparabilityExhaustive(*system, serial);
  const ExhaustiveReport b = CheckSeparabilityExhaustive(*system, parallel);
  EXPECT_GT(a.peak_state_bytes, 0u);
  EXPECT_GT(a.restore_count, 0u);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
  EXPECT_EQ(a.restore_count, b.restore_count);
}

// --- FullState ∘ RestoreFullState = id -----------------------------------

// Serializes, restores into `target`, and verifies both serializations and
// subsequent behaviour agree.
void ExpectRoundTrip(const SharedSystem& source, SharedSystem& target) {
  std::vector<Word> snapshot;
  source.AppendFullState(snapshot);
  ASSERT_TRUE(target.RestoreFullState(snapshot));
  std::vector<Word> again;
  target.AppendFullState(again);
  EXPECT_EQ(snapshot, again);
}

TEST(RestoreRoundTrip, TinySystemAcrossItsReachableStates) {
  TinyTwoUserSystem walker(false);
  TinyTwoUserSystem scratch(false);
  Rng rng(7);
  for (int step = 0; step < 200; ++step) {
    ExpectRoundTrip(walker, scratch);
    // Restored and original must select and execute identically.
    EXPECT_EQ(walker.Colour(), scratch.Colour());
    EXPECT_TRUE(walker.NextOperation() == scratch.NextOperation());
    switch (rng.NextBelow(3)) {
      case 0:
        walker.ExecuteOperation();
        break;
      case 1:
        walker.InjectInput(static_cast<int>(rng.NextBelow(2)),
                           static_cast<Word>(rng.NextBelow(3)));
        break;
      default: {
        const int unit = static_cast<int>(rng.NextBelow(2));
        walker.StepUnit(unit);
        (void)walker.DrainOutput(unit);
        break;
      }
    }
  }
}

TEST(RestoreRoundTrip, KernelizedSystemAcrossItsReachableStates) {
  auto walker = BuildHalting();
  auto scratch = walker->Clone();
  for (int step = 0; step < 120; ++step) {
    ExpectRoundTrip(*walker, *scratch);
    EXPECT_EQ(walker->Colour(), scratch->Colour());
    EXPECT_TRUE(walker->NextOperation() == scratch->NextOperation());
    walker->ExecuteOperation();
  }
}

TEST(RestoreRoundTrip, RestoredKernelizedSystemBehavesIdentically) {
  // Behavioural lockstep: restore a mid-execution state into a FRESH build
  // of the same configuration and run both to completion, comparing full
  // serializations at every step.
  auto original = BuildHalting();
  for (int i = 0; i < 7; ++i) {
    original->ExecuteOperation();
  }
  auto restored = BuildHalting();
  std::vector<Word> mid;
  original->AppendFullState(mid);
  ASSERT_TRUE(restored->RestoreFullState(mid));

  for (int i = 0; i < 50; ++i) {
    std::vector<Word> a;
    std::vector<Word> b;
    original->AppendFullState(a);
    restored->AppendFullState(b);
    ASSERT_EQ(a, b) << "diverged at step " << i;
    original->ExecuteOperation();
    restored->ExecuteOperation();
  }
}

TEST(RestoreRoundTrip, MalformedSnapshotsAreRejected) {
  auto system = BuildHalting();
  std::vector<Word> snapshot;
  system->AppendFullState(snapshot);

  auto victim = BuildHalting();
  std::vector<Word> truncated(snapshot.begin(), snapshot.begin() + 10);
  EXPECT_FALSE(victim->RestoreFullState(truncated));
  std::vector<Word> extended = snapshot;
  extended.push_back(0);
  EXPECT_FALSE(victim->RestoreFullState(extended));

  TinyTwoUserSystem tiny(false);
  EXPECT_FALSE(tiny.RestoreFullState(truncated));
}

}  // namespace
}  // namespace sep
