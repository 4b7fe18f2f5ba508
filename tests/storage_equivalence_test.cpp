// Storage equivalence: the compact-store exhaustive checker (arena-interned
// serialized states + RestoreFullState reconstruction) must produce reports
// BYTE-IDENTICAL to the original clone-retaining implementation. The first
// golden renderings below were captured from that implementation before the
// store was introduced. The class-check goldens after them were captured
// from the checker that restored and re-ran every Φ-equal pair, with its
// per-group pair cap lifted. The device-unit goldens were captured from the
// checker that hashed every chunk of every successor. Every counter,
// per-condition stat, violation order and Summary() byte is pinned.
//
// Every golden is also the dirty-page record's oracle: each system is
// checked a second time behind FullPathSystem, which keeps no record, so
// the checker restores, serializes and compares whole states, and both
// reports must render the same bytes.
//
// Also here: FullState ∘ RestoreFullState round-trip properties, since the
// equivalence above is exactly as trustworthy as that inverse.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>

#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/machine/devices.h"
#include "src/model/toy_systems.h"
#include "tests/full_path_system.h"
#include "tests/kernelized_lockstep.h"

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

// `system` checked as it is and behind FullPathSystem: the two reports.
struct BothPaths {
  ExhaustiveReport own;
  ExhaustiveReport full;
};

BothPaths CheckBoth(const SharedSystem& system, const ExhaustiveOptions& options = {}) {
  return {CheckSeparabilityExhaustive(system, options),
          CheckSeparabilityExhaustive(FullPathSystem(system.Clone()), options)};
}

// The report of `system`, once the report the full path takes is held to
// it: both must render the same bytes, restore as often and store as much.
ExhaustiveReport CheckOwn(const SharedSystem& system, const ExhaustiveOptions& options = {}) {
  BothPaths both = CheckBoth(system, options);
  EXPECT_EQ(Render(both.full), Render(both.own)) << "the full path renders another report";
  EXPECT_EQ(both.full.restore_count, both.own.restore_count);
  EXPECT_EQ(both.full.peak_state_bytes, both.own.peak_state_bytes);
  return std::move(both.own);
}

std::string Check(const SharedSystem& system, const ExhaustiveOptions& options = {}) {
  return Render(CheckOwn(system, options));
}

// Two counting loops whose product automaton is a long cycle: the E16
// configuration (bench_separability's BuildCycleConfig). Every state has
// one successor and there are no units, so only conditions 6 and 1 have
// pairs to check.
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

std::unique_ptr<KernelizedSystem> BuildCycle() {
  SystemBuilder builder;
  builder.WithMemoryWords(1u << 12);
  EXPECT_TRUE(builder.AddRegime("red", 64, kCycleA).ok());
  EXPECT_TRUE(builder.AddRegime("black", 64, kCycleB).ok());
  auto system = builder.Build();
  EXPECT_TRUE(system.ok()) << system.error();
  return std::move(system.value());
}

// `count` copies of one violation line.
std::string Repeat(const std::string& line, int count) {
  std::string out;
  for (int i = 0; i < count; ++i) {
    out += line;
  }
  return out;
}

constexpr char kLeakyC1[] =
    "V c1 colour0 step0 operation effect on colour 0 differs across Φ-equal states\n";

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

// Every one of the 398664 Φ-equal pairs is checked: a proof.
constexpr char kGoldenTinySecure[] =
    "3528 states, 24696 transitions, 398664 pairs, COMPLETE: "
    "C1 0/98784 C2 0/3528 C3 0/1195992 C4 0/21168 C5 0/398664 C6 0/98784 => SEPARABLE\n"
    "transitions=24696 pairs=398664\n";

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

// The leaky tiny system at violation budgets of 1 and 3: the cut falls
// inside a Φ-group, after 10 and 19 pairs.
const std::string kGoldenTinyLeakyBudget1 =
    "2646 states, 18522 transitions, 10 pairs, COMPLETE: "
    "C1 1/9 C2 0/2646 C3 0/30 C4 0/15876 C5 0/10 C6 0/9 => VIOLATIONS\n"
    "transitions=18522 pairs=10\n" +
    Repeat(kLeakyC1, 1);

const std::string kGoldenTinyLeakyBudget3 =
    "2646 states, 18522 transitions, 19 pairs, COMPLETE: "
    "C1 3/15 C2 0/2646 C3 0/57 C4 0/15876 C5 0/19 C6 0/15 => VIOLATIONS\n"
    "transitions=18522 pairs=19\n" +
    Repeat(kLeakyC1, 3);

// The secure tiny system at state budgets of 50 and 1000: both admit
// states they never expand, whose records come from the frontier path.
constexpr char kGoldenTinySecure50[] =
    "50 states, 136 transitions, 272 pairs, partial: "
    "C1 0/82 C2 0/20 C3 0/816 C4 0/116 C5 0/272 C6 0/82 => SEPARABLE\n"
    "transitions=136 pairs=272\n";

constexpr char kGoldenTinySecure1000[] =
    "1000 states, 4582 transitions, 41124 pairs, partial: "
    "C1 0/11756 C2 0/655 C3 0/123372 C4 0/3927 C5 0/41124 C6 0/11756 => SEPARABLE\n"
    "transitions=4582 pairs=41124\n";

// The I/O defects: an input leak refuted by condition 3, an output leak by
// condition 5, each up to the default budget of 16 violations.
const std::string kGoldenTinyInputLeak =
    "21632 states, 151424 transitions, 29 pairs, COMPLETE: "
    "C1 0/21 C2 0/21632 C3 16/87 C4 0/129792 C5 0/29 C6 0/21 => VIOLATIONS\n"
    "transitions=151424 pairs=29\n" +
    Repeat("V c3 colour0 step0 input effect on colour 0 differs across Φ-equal states\n", 16);

const std::string kGoldenTinyOutputLeak =
    "5832 states, 40824 transitions, 1468 pairs, COMPLETE: "
    "C1 0/372 C2 0/5832 C3 0/4404 C4 0/34992 C5 16/1468 C6 0/372 => VIOLATIONS\n"
    "transitions=40824 pairs=1468\n" +
    Repeat("V c5 colour0 step0 output of colour 0 differs across Φ-equal states\n", 16);

// NEXTOP of the tiny system made to read the other colour's inbox: Φ-equal
// states select different operations, which condition 6 refutes. Pins the
// NEXTOP texts, rendered from interned operation words.
class NextopLeak : public TinyTwoUserSystem {
 public:
  NextopLeak() : TinyTwoUserSystem(false) {}
  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<NextopLeak>(*this);
  }
  OperationId NextOperation() const override {
    const std::vector<Word> state = *FullState();  // [turn, counters, cells, inboxes, ...]
    return OperationId{OperationId::Kind::kInstruction, {state[6 - state[0]]}};
  }
};

const std::string kGoldenTinyNextopLeak = [] {
  const std::string nextop = "V c6 colour0 step0 NEXTOP differs for Φ-equal states of colour 0: ";
  return "3528 states, 24696 transitions, 43 pairs, COMPLETE: "
         "C1 0/22 C2 0/3528 C3 0/129 C4 0/21168 C5 0/43 C6 16/22 => VIOLATIONS\n"
         "transitions=24696 pairs=43\n" +
         Repeat(nextop + "insn 0000 vs insn 0001\n" + nextop + "insn 0000 vs insn 0002\n", 7) +
         nextop + "insn 0001 vs insn 0002\n" + nextop + "insn 0001 vs insn 0000\n";
}();

// The output leak with Φ made to see the pending output word: the unit
// step's Φ, taken before the drain, differs across Φ-equal states (the
// condition 3 "unit activity" check), and so does the output (condition 5).
class PendingOutputInPhi : public TinyTwoUserSystem {
 public:
  PendingOutputInPhi() : TinyTwoUserSystem(false, TinyDefect::kOutputLeak) {}
  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<PendingOutputInPhi>(*this);
  }
  void AppendAbstract(int colour, std::vector<Word>& out) const override {
    TinyTwoUserSystem::AppendAbstract(colour, out);
    const std::vector<Word> state = *FullState();  // [..., outs, has_outs]
    out.push_back(state[9 + colour] != 0 ? state[7 + colour] : Word{4});
  }
};

const std::string kGoldenTinyPendingOutput =
    "5832 states, 40824 transitions, 1459 pairs, COMPLETE: "
    "C1 0/371 C2 0/5832 C3 8/4377 C4 0/34992 C5 8/1459 C6 0/371 => VIOLATIONS\n"
    "transitions=40824 pairs=1459\n" +
    Repeat("V c3 colour0 step0 unit activity on colour 0 differs across Φ-equal states\n"
           "V c5 colour0 step0 output of colour 0 differs across Φ-equal states\n",
           8);

// E16 at 2048 states.
constexpr char kGoldenCycle2048[] =
    "2048 states, 2048 transitions, 30166 pairs, partial: "
    "C1 0/3584 C2 0/2048 C3 0/0 C4 0/0 C5 0/0 C6 0/3584 => SEPARABLE\n"
    "transitions=2048 pairs=30166\n";

// E16 decided: its whole reachable space is 2054 states, since the kernel
// partition holds no word that only counts.
constexpr char kGoldenCycle4096[] =
    "2054 states, 2054 transitions, 30355 pairs, COMPLETE: "
    "C1 0/3602 C2 0/2054 C3 0/0 C4 0/0 C5 0/0 C6 0/3602 => SEPARABLE\n"
    "transitions=2054 pairs=30355\n";

// A kernelized machine that owns a device: an interrupt-driven serial echo
// (the lockstep gate's kSerialEcho) beside a regime that only counts and
// swaps. The serial line is the one unit, so conditions (3), (4) and (5)
// run on a real machine, and an injected input lengthens FullState() by
// growing the line's receive queue. Memory is sized to the carve-out.
constexpr char kSpin[] = R"(
LOOP:   INC R3
        TRAP 0
        BR LOOP
)";

std::unique_ptr<KernelizedSystem> BuildEcho(const KernelFaults& faults = {}) {
  SystemBuilder builder;
  const int slu = builder.AddDevice(std::make_unique<SerialLine>("slu", 16, 4, 2));
  EXPECT_TRUE(builder.AddRegime("echo", 64, lockstep::kSerialEcho, {slu}).ok());
  EXPECT_TRUE(builder.AddRegime("spin", 64, kSpin).ok());
  builder.WithFaults(faults);
  auto system = builder.Build();
  EXPECT_TRUE(system.ok()) << system.error();
  return std::move(system.value());
}

constexpr char kGoldenEcho1024[] =
    "1024 states, 1999 transitions, 519698 pairs, partial: "
    "C1 0/24 C2 0/500 C3 0/15 C4 0/1499 C5 0/5 C6 0/24 => SEPARABLE\n"
    "transitions=1999 pairs=519698\n";

const std::string kGoldenEchoBroadcast1024 =
    "1024 states, 1999 transitions, 517662 pairs, partial: "
    "C1 0/24 C2 2/500 C3 0/15 C4 0/1499 C5 0/5 C6 0/24 => VIOLATIONS\n"
    "transitions=1999 pairs=517662\n" +
    Repeat("V c2 colour1 step0 operation of colour 0 changed Φ of colour 1\n", 2);

TEST(StorageEquivalence, KernelizedGoodMatchesGolden) {
  auto system = BuildHalting();
  EXPECT_EQ(Check(*system), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedLeakConditionCodesMatchesGolden) {
  // This fault is not exposed by the halting config (neither program's Φ
  // depends on inherited condition codes), so its golden equals the good
  // one — what is pinned is that the checker still says exactly that.
  KernelFaults faults;
  faults.leak_condition_codes = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system), kGoldenGood);
}

TEST(StorageEquivalence, KernelizedSkipRestoreMatchesGolden) {
  // A real defect: violation count, ORDER and texts are pinned.
  KernelFaults faults;
  faults.skip_register_restore = true;
  auto system = BuildHalting(faults);
  EXPECT_EQ(Check(*system), kGoldenSkipRestore);
}

TEST(StorageEquivalence, TinySystemsMatchGolden) {
  EXPECT_EQ(Check(TinyTwoUserSystem(false)), kGoldenTinySecure);
  EXPECT_EQ(Check(TinyTwoUserSystem(true)), kGoldenTinyLeaky);
}

TEST(StorageEquivalence, ViolationBudgetInsideGroupMatchesGolden) {
  ExhaustiveOptions options;
  options.max_violations = 1;
  EXPECT_EQ(Check(TinyTwoUserSystem(true), options), kGoldenTinyLeakyBudget1);
  options.max_violations = 3;
  EXPECT_EQ(Check(TinyTwoUserSystem(true), options), kGoldenTinyLeakyBudget3);
}

TEST(StorageEquivalence, FrontierRecordsMatchGolden) {
  ExhaustiveOptions options;
  options.max_states = 50;
  EXPECT_EQ(Check(TinyTwoUserSystem(false), options), kGoldenTinySecure50);
  options.max_states = 1000;
  EXPECT_EQ(Check(TinyTwoUserSystem(false), options), kGoldenTinySecure1000);
}

TEST(StorageEquivalence, UnitDefectsMatchGolden) {
  EXPECT_EQ(Check(TinyTwoUserSystem(false, TinyDefect::kInputLeak)), kGoldenTinyInputLeak);
  EXPECT_EQ(Check(TinyTwoUserSystem(false, TinyDefect::kOutputLeak)), kGoldenTinyOutputLeak);
}

TEST(StorageEquivalence, NextopLeakMatchesGolden) {
  EXPECT_EQ(Check(NextopLeak()), kGoldenTinyNextopLeak);
}

TEST(StorageEquivalence, UnitStepPhiBeforeDrainMatchesGolden) {
  EXPECT_EQ(Check(PendingOutputInPhi()), kGoldenTinyPendingOutput);
}

TEST(StorageEquivalence, CycleConfigMatchesGolden) {
  ExhaustiveOptions options;
  options.max_states = 2048;
  EXPECT_EQ(Check(*BuildCycle(), options), kGoldenCycle2048);
  options.max_states = 4096;
  EXPECT_EQ(Check(*BuildCycle(), options), kGoldenCycle4096);
}

TEST(StorageEquivalence, DeviceUnitMatchesGolden) {
  ExhaustiveOptions options;
  options.max_states = 1024;
  EXPECT_EQ(Check(*BuildEcho(), options), kGoldenEcho1024);
  KernelFaults faults;
  faults.broadcast_interrupts = true;
  EXPECT_EQ(Check(*BuildEcho(faults), options), kGoldenEchoBroadcast1024);
}

// An exact work count: the checker restores a stored state once per
// successor of each state the run expanded or recorded, the first successor
// reusing the restore that read the state's COLOUR, NEXTOP and Φ, and
// restores nothing for a state past a cut. Unlike a rate, the count is the
// same on every host, so a change that restores more often per successor,
// or expands states past a cut, fails here. E16's states have one successor
// each, so its count is one per state, truncated or complete. The echo's
// have four (the operation, two inputs and the serial line's step): at a
// budget of 1,024 states every admitted state is expanded or, on the
// frontier, recorded, so 1,024 × 4; with broadcast_interrupts and a
// violation budget of 1 the run stops after the state that found the first
// violation and records no frontier, so the count is its transition count.
//
// The dirty-page record's work is pinned the same way, on perfbench's
// `verify` configuration (E16, 4,096 words, budget 32,768): its first
// restore copies all 64 memory pages, and after it the restores copy and
// the transitions compare only the pages a transition wrote (about one in
// four) beside the two tail chunks. The full path copies and compares every
// chunk and must find the same chunks changed.
TEST(StorageEquivalence, RestoreCountIsExact) {
  const auto cycle = BuildCycle();
  ExhaustiveOptions options;
  options.max_states = 2048;
  EXPECT_EQ(CheckOwn(*cycle, options).restore_count, 2048u);
  options.max_states = 4096;
  EXPECT_EQ(CheckOwn(*cycle, options).restore_count, 2054u);
  options.max_states = 1024;
  EXPECT_EQ(CheckOwn(*BuildEcho(), options).restore_count, 4096u);
  KernelFaults faults;
  faults.broadcast_interrupts = true;
  options.max_violations = 1;
  const ExhaustiveReport refuted = CheckOwn(*BuildEcho(faults), options);
  EXPECT_EQ(refuted.restore_count, 1468u);
  EXPECT_EQ(refuted.transitions, 1468u);

  ExhaustiveOptions verify;
  verify.max_states = 32768;
  const BothPaths e16 = CheckBoth(*cycle, verify);
  EXPECT_EQ(Render(e16.full), Render(e16.own));
  EXPECT_EQ(e16.own.restore_count, 2054u);
  EXPECT_EQ(e16.own.pages_restored, 64u + 513u);  // the first restore, then 2,053 more
  EXPECT_EQ(e16.own.chunks_compared, 514u + 2u * 2054u);
  EXPECT_EQ(e16.own.chunks_changed, 3082u);  // 1.50 per transition
  EXPECT_EQ(e16.full.restore_count, 2054u);
  EXPECT_EQ(e16.full.pages_restored, 0u);
  EXPECT_EQ(e16.full.chunks_compared, 66u * 2054u);
  EXPECT_EQ(e16.full.chunks_changed, 3082u);
}

// The state budget at its edges. The initial state is admitted whatever
// the budget, so 0 reads like 1: one state, its one expanded transition,
// and a partial run, never an empty proof. Captured from the checker whose
// workers interned successors into a sharded store.
constexpr const char* kBudgetOne =
    "1 states, 1 transitions, 0 pairs, partial: "
    "C1 0/0 C2 0/1 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE";

TEST(StorageEquivalence, StateBudgetEdgesMatchGolden) {
  struct Edge {
    std::size_t max_states;
    const char* cycle;
    const char* tiny;
  };
  const Edge edges[] = {
      {0, kBudgetOne, kBudgetOne},
      {1, kBudgetOne, kBudgetOne},
      {2,
       "2 states, 2 transitions, 1 pairs, partial: "
       "C1 0/0 C2 0/2 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE",
       "2 states, 2 transitions, 1 pairs, partial: "
       "C1 0/0 C2 0/1 C3 0/3 C4 0/1 C5 0/1 C6 0/0 => SEPARABLE"},
      {64,
       "64 states, 64 transitions, 153 pairs, partial: "
       "C1 0/0 C2 0/64 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE",
       "64 states, 182 transitions, 375 pairs, partial: "
       "C1 0/104 C2 0/26 C3 0/1125 C4 0/156 C5 0/375 C6 0/104 => SEPARABLE"},
      {65,
       "65 states, 65 transitions, 155 pairs, partial: "
       "C1 0/0 C2 0/65 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE",
       "65 states, 184 transitions, 386 pairs, partial: "
       "C1 0/105 C2 0/27 C3 0/1158 C4 0/157 C5 0/386 C6 0/105 => SEPARABLE"},
  };
  const auto cycle = BuildCycle();
  const TinyTwoUserSystem tiny(false);
  for (const Edge& edge : edges) {
    ExhaustiveOptions options;
    options.max_states = edge.max_states;
    EXPECT_EQ(CheckOwn(*cycle, options).Summary(), edge.cycle)
        << "max_states=" << edge.max_states;
    EXPECT_EQ(CheckOwn(tiny, options).Summary(), edge.tiny)
        << "max_states=" << edge.max_states;
  }
}

// An exact size: the store holds the admitted states alone, appended in
// BFS order, so its footprint is the same on every run (with libstdc++'s
// vector growth). A truncated run does not store the successor its budget
// refused: E16 at 2,048 states would grow its per-state tables to 4,096
// entries to hold it. The checker whose workers interned every successor
// into 64 locked shards read 1,826,816 bytes for both E16 runs and
// 1,308,928 for the tiny system.
TEST(StorageEquivalence, StoreSizeIsExact) {
  const auto cycle = BuildCycle();
  ExhaustiveOptions options;
  options.max_states = 2048;
  EXPECT_EQ(CheckOwn(*cycle, options).peak_state_bytes, 867032u);
  options.max_states = 4096;
  EXPECT_EQ(CheckOwn(*cycle, options).peak_state_bytes, 1432280u);
  EXPECT_EQ(CheckOwn(TinyTwoUserSystem(false), options).peak_state_bytes, 286720u);
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
