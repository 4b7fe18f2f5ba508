// Tests for sepcheck v2's sharper abstract domain (src/sepcheck):
// condition-code branch refinement, threshold widening, the relational
// (difference-constraint) layer, depth-1 call-string contexts, and the
// proof-obligation ledger the analysis emits. Each guest here is the
// smallest program whose safety proof needs exactly one of those
// mechanisms — if the mechanism regresses, that guest stops certifying
// (or a pruned path starts producing findings).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sepcheck/absdomain.h"
#include "src/sepcheck/analyzer.h"
#include "src/sepcheck/obligations.h"
#include "src/sm11asm/assembler.h"

namespace sep::sepcheck {
namespace {

ProgramAnalysis Analyze(const std::string& source, std::uint32_t mem_words = 512) {
  auto program = Assemble(source);
  EXPECT_TRUE(program.ok()) << program.error();
  RegimeView view;
  view.name = "test";
  view.mem_words = mem_words;
  return AnalyzeProgram(*program, source, view);
}

bool HasKind(const std::vector<Finding>& findings, const std::string& kind) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.kind == kind; });
}

int CountStatus(const std::vector<Obligation>& obligations, ObligationStatus s) {
  return static_cast<int>(std::count_if(
      obligations.begin(), obligations.end(),
      [&](const Obligation& o) { return o.status == s; }));
}

// --- threshold widening --------------------------------------------------

TEST(ThresholdWidening, MovedBoundJumpsToNextLandmarkNotExtreme) {
  const std::vector<std::uint32_t> landmarks = {0x79, 0x7A, 0x7B};
  // hi grew 0x5C -> 0x5D: jump to the smallest landmark >= 0x5D, not 0xFFFF.
  AbsVal w = AbsVal::Range(0x5B, 0x5D).WidenedFrom(AbsVal::Range(0x5B, 0x5C),
                                                   landmarks);
  EXPECT_EQ(w, AbsVal::Range(0x5B, 0x79));
  // lo fell 0x90 -> 0x7A: jump down to the largest landmark <= 0x7A.
  w = AbsVal::Range(0x7A, 0x95).WidenedFrom(AbsVal::Range(0x90, 0x95), landmarks);
  EXPECT_EQ(w, AbsVal::Range(0x7A, 0x95));
}

TEST(ThresholdWidening, BeyondTheLastLandmarkGoesToTheExtreme) {
  const std::vector<std::uint32_t> landmarks = {0x10};
  AbsVal w = AbsVal::Range(0, 0x20).WidenedFrom(AbsVal::Range(0, 0x11), landmarks);
  EXPECT_EQ(w.hi, 0xFFFFu);
  w = AbsVal::Range(0x5, 0x30).WidenedFrom(AbsVal::Range(0x8, 0x30), landmarks);
  EXPECT_EQ(w.lo, 0u);  // no landmark <= 0x5
}

TEST(ThresholdWidening, StableBoundsAreUntouched) {
  const std::vector<std::uint32_t> landmarks = {0x40};
  AbsVal w =
      AbsVal::Range(0x20, 0x30).WidenedFrom(AbsVal::Range(0x20, 0x30), landmarks);
  EXPECT_EQ(w, AbsVal::Range(0x20, 0x30));
}

// --- relational layer (difference constraints) ---------------------------

TEST(RelSet, RefineGetAndCopySemantics) {
  RelSet rel;
  EXPECT_TRUE(rel.Get(3, 4).IsTop());
  ASSERT_TRUE(rel.Refine(4, 3, 0x100, 0x100));  // R4 - R3 == 0x100
  EXPECT_EQ(rel.Get(4, 3).lo, 0x100);
  EXPECT_EQ(rel.Get(3, 4).hi, -0x100);  // the mirror is negated
  // An empty intersection reports unreachability.
  EXPECT_FALSE(rel.Refine(4, 3, 0, 0));

  RelSet copy;
  ASSERT_TRUE(copy.Refine(1, 0, 5, 7));
  copy.CopyFrom(2, 1);  // R2 := R1
  EXPECT_EQ(copy.Get(2, 1).lo, 0);
  EXPECT_EQ(copy.Get(2, 1).hi, 0);
  EXPECT_EQ(copy.Get(2, 0).lo, 5);  // inherited through R1
  EXPECT_EQ(copy.Get(2, 0).hi, 7);
}

TEST(RelSet, SelfDifferenceIsExactlyZeroAndOwnsNoSlot) {
  // Index(i, j) is defined only for i < j: Index(1, 1) is the R0 − SP slot
  // and Index(0, 0) is -1, so the diagonal must never reach the table.
  RelSet rel;
  ASSERT_TRUE(rel.Refine(1, 1, 0, 0));
  EXPECT_TRUE(rel.Get(0, 6).IsTop());
  EXPECT_FALSE(rel.Refine(2, 2, 1, 5));  // R2 − R2 is never in [1, 5]
  EXPECT_EQ(rel, RelSet{});
  for (int r = 0; r < RelSet::kRegs; ++r) {
    EXPECT_EQ(rel.Get(r, r).lo, 0) << "R" << r;
    EXPECT_EQ(rel.Get(r, r).hi, 0) << "R" << r;
  }
}

TEST(RelSet, ShiftMovesAllConstraintsOfOneRegister) {
  RelSet rel;
  ASSERT_TRUE(rel.Refine(4, 3, 0x100, 0x100));
  rel.Shift(3, 1, 1);  // INC R3
  EXPECT_EQ(rel.Get(4, 3).lo, 0xFF);
  rel.Shift(4, 1, 1);  // INC R4: lockstep restored
  EXPECT_EQ(rel.Get(4, 3).lo, 0x100);
  EXPECT_EQ(rel.Get(4, 3).hi, 0x100);
}

// --- branch refinement on guests -----------------------------------------

// The guard-regime pattern: an unsigned CMP/BCS guard before every store
// bounds the cursor, so no trust annotation is needed. This is the
// flagship of branch refinement — it exercises the kCmp flags model, the
// fall-through refinement (s >= d), and threshold widening (the cursor's
// upper bound must stabilize on the guard's cap instead of blowing
// through it and wrapping on INC).
TEST(BranchRefinement, CmpBcsGuardProvesBoundedCursorStore) {
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, R4\n"
      "LOOP:  CMP #0x11F, R4\n"
      "       BCS DONE\n"          // taken: 0x11F < R4, cursor past the area
      "       MOV R1, (R4)\n"      // here R4 <= 0x11F
      "       INC R4\n"
      "       BR LOOP\n"
      "DONE:  TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
  EXPECT_FALSE(HasKind(a.findings, "unbounded-write"));
}

TEST(BranchRefinement, EqualityEdgeNarrowsToTheComparedConstant) {
  // R1 is unknown (memory contents are untracked), but on the BNE
  // fall-through the analyzer knows R1 == 0x100 exactly.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R1\n"
      "       CMP #0x100, R1\n"
      "       BNE SKIP\n"
      "       MOV R5, (R1)\n"
      "SKIP:  TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
}

TEST(BranchRefinement, TstBeqProvesZeroOnTheTakenEdge) {
  // After TST/BNE falls through, R3 == 0, so 0x90(R3) is the constant
  // address 0x90.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R3\n"
      "       TST R3\n"
      "       BNE SKIP\n"
      "       MOV R5, 0x90(R3)\n"
      "SKIP:  TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
}

TEST(BranchRefinement, StaticallyImpossibleEdgeIsPruned) {
  // BCS after CMP #5, R2 with R2 == 0 would need 5 < 0: the taken edge is
  // unreachable, so the wild store behind it must produce no finding.
  ProgramAnalysis a = Analyze(
      "START: CLR R2\n"
      "       CMP #5, R2\n"
      "       BCS NEVER\n"
      "       TRAP 7\n"
      "NEVER: MOV R5, @0x8000\n"
      "       TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
}

TEST(BranchRefinement, TakenEdgeLowerBoundStillFlagsOutOfPartition) {
  // Refinement must work for the *taken* edge too — and must not make the
  // analysis unsound: past the guard the cursor is provably >= 0x200,
  // which is outside the 512-word partition.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R2\n"
      "       CMP #0x1FF, R2\n"
      "       BCS HIGH\n"
      "       TRAP 7\n"
      "HIGH:  MOV R5, (R2)\n"   // R2 >= 0x200 here: never in the partition
      "       TRAP 7\n");
  EXPECT_FALSE(a.Certified());
  EXPECT_TRUE(HasKind(a.findings, "out-of-regime-write"));
}

// --- relational proofs on guests -----------------------------------------

// Lockstep indexing: the loop counts R3 from 0 and walks R4 from 0x100,
// but only R3 is compared. The store at (R4) is provable only through the
// difference constraint R4 - R3 == 0x100, which survives widening because
// it is loop-invariant (intervals on R4 alone are not).
TEST(RelationalDomain, LockstepCursorIsBoundedThroughTheCounter) {
  ProgramAnalysis a = Analyze(
      "START: CLR R3\n"
      "       MOV #0x100, R4\n"
      "LOOP:  CMP #0x1F, R3\n"
      "       BCS DONE\n"          // taken: R3 > 0x1F
      "       MOV R1, (R4)\n"      // R4 = R3 + 0x100 <= 0x11F
      "       INC R3\n"
      "       INC R4\n"
      "       BR LOOP\n"
      "DONE:  TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
  EXPECT_FALSE(HasKind(a.findings, "unbounded-write"));
}

TEST(RelationalDomain, MovAliasTransfersTheComparedBound) {
  // The guard compares R3 but the store uses its copy R4: the copy's
  // equality constraint (from MOV) carries the refinement across.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R3\n"
      "       MOV R3, R4\n"
      "       CMP #0x17F, R3\n"
      "       BCS SKIP\n"
      "       CMP #0x100, R3\n"
      "       BCC SKIP\n"          // taken means R3 < 0x100: skip
      "       MOV R5, (R4)\n"      // 0x100 <= R4 == R3 <= 0x17F
      "SKIP:  TRAP 7\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
}

// --- depth-1 call-string contexts ----------------------------------------

TEST(CallStringContexts, ReturnStatesDoNotSmearAcrossCallSites) {
  // SUB is called once with R5 unknown and once with R5 == 0x100. A
  // context-insensitive RTS would merge both callers and lose the bound
  // at the store after the second call.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R5\n"
      "       JSR SUB\n"
      "       MOV #0x100, R5\n"
      "       JSR SUB\n"
      "       MOV R1, (R5)\n"      // R5 is still exactly 0x100 here
      "       TRAP 7\n"
      "SUB:   INC R2\n"
      "       RTS\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
  EXPECT_FALSE(HasKind(a.findings, "unbounded-write"));
}

TEST(CallStringContexts, GuardInsideSubroutineProvesCallersStores) {
  // The snfe-black pattern: the bounds check lives inside the subroutine
  // and must hold for every call site.
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, R5\n"
      "LOOP:  JSR STOREW\n"
      "       JSR STOREW\n"
      "       BR LOOP\n"
      "STOREW: CMP #0x117, R5\n"
      "       BCS FULL\n"
      "       MOV R1, (R5)\n"
      "       INC R5\n"
      "FULL:  RTS\n");
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
}

// --- soundness backstops -------------------------------------------------

TEST(Soundness, UnguardedGrowingCursorStaysFlagged) {
  // Threshold widening must not fabricate a bound where no guard exists.
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, R4\n"
      "LOOP:  MOV R1, (R4)\n"
      "       INC R4\n"
      "       BR LOOP\n");
  EXPECT_FALSE(a.Certified());
  EXPECT_TRUE(HasKind(a.findings, "unbounded-write"));
}

TEST(Soundness, GuardOnTheWrongRegisterDoesNotHelp) {
  // The comparison bounds R3; nothing relates R3 to the stored-through R4
  // (no MOV, no lockstep), so the store must stay flagged.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R3\n"
      "       MOV @0x82, R4\n"
      "       CMP #0x11F, R3\n"
      "       BCS SKIP\n"
      "       MOV R5, (R4)\n"
      "SKIP:  TRAP 7\n");
  EXPECT_FALSE(a.Certified());
}

TEST(Soundness, SelfCompareTeachesNothingAboutOtherRegisters) {
  // CMP R1, R1 compares a register with itself, so the BNE fall-through
  // learns nothing about R0 (an unknown word copied from memory) or SP.
  // The store through R0 must stay flagged.
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, SP\n"
      "       MOV @0x80, R1\n"
      "       MOV R1, R0\n"
      "       CMP R1, R1\n"
      "       BNE DONE\n"
      "       MOV #1, (R0)\n"
      "DONE:  BR DONE\n");
  EXPECT_FALSE(a.Certified());
  EXPECT_TRUE(HasKind(a.findings, "unbounded-write"));
}

TEST(Soundness, SignedBranchesRefineOnlyWhenBothSidesAreSmall) {
  // BLT/BGE compare signed; for values that may exceed 0x7FFF the
  // analyzer must not treat them as unsigned bounds. A store guarded only
  // by BGE against an unknown word stays unproved.
  ProgramAnalysis a = Analyze(
      "START: MOV @0x80, R2\n"
      "       CMP #0x100, R2\n"
      "       BGE SKIP\n"          // signed: refines only if R2 < 0x8000
      "       MOV R5, (R2)\n"      // R2 "less than 0x100" signed may be 0x8000+
      "SKIP:  TRAP 7\n");
  EXPECT_FALSE(a.Certified());
}

// --- stale annotations ---------------------------------------------------

TEST(StaleAnnotations, UnknownDirectiveIsFlagged) {
  ProgramAnalysis a = Analyze(
      "; sepcheck: trsut the loop is bounded\n"
      "START: TRAP 7\n");
  EXPECT_TRUE(HasKind(a.findings, "stale-annotation"));
  EXPECT_FALSE(a.Certified());
}

TEST(StaleAnnotations, TrustThatDischargesNothingIsFlagged) {
  ProgramAnalysis a = Analyze(
      "START: MOV R1, @0x80   ; sepcheck: trust in-partition store\n"
      "       TRAP 7\n");
  EXPECT_TRUE(HasKind(a.findings, "stale-annotation"));
  EXPECT_FALSE(a.Certified());
}

TEST(StaleAnnotations, UsedTrustIsNotStale) {
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, R4\n"
      "LOOP:  MOV R1, (R4)   ; sepcheck: trust externally bounded\n"
      "       INC R4\n"
      "       BR LOOP\n");
  EXPECT_TRUE(a.Certified());
  EXPECT_FALSE(HasKind(a.findings, "stale-annotation"));
}

// --- the obligation ledger -----------------------------------------------

TEST(Obligations, CertifiedProgramCoversAllSixConditions) {
  ProgramAnalysis a = Analyze(
      "START: MOV R1, @0x100\n"
      "       TRAP 7\n");
  ASSERT_TRUE(a.Certified());
  ObligationSummary summary;
  for (const Obligation& o : a.obligations) summary.Add(o);
  EXPECT_TRUE(summary.CoversAllConditions());
  EXPECT_EQ(summary.Open(), 0);
}

TEST(Obligations, BlockingFindingsMatchOpenObligations) {
  ProgramAnalysis a = Analyze(
      "START: CLR R1\n"
      "       MOV R1, @0x300\n"
      "       TRAP 7\n");
  ASSERT_FALSE(a.Certified());
  const int open = CountStatus(a.obligations, ObligationStatus::kOpen);
  int blocking = 0;
  for (const Finding& f : a.findings) blocking += f.Blocking() ? 1 : 0;
  EXPECT_EQ(open, blocking);
  EXPECT_GT(open, 0);
}

TEST(Obligations, AnnotatedDischargeCarriesTheReason) {
  ProgramAnalysis a = Analyze(
      "START: MOV #0x100, R4\n"
      "LOOP:  MOV R1, (R4)   ; sepcheck: trust externally bounded\n"
      "       INC R4\n"
      "       BR LOOP\n");
  ASSERT_TRUE(a.Certified());
  const auto it = std::find_if(
      a.obligations.begin(), a.obligations.end(), [](const Obligation& o) {
        return o.status == ObligationStatus::kAnnotated;
      });
  ASSERT_NE(it, a.obligations.end());
  EXPECT_EQ(it->condition, Condition::kMemoryPartition);
  EXPECT_EQ(it->discharge_reason, "externally bounded");
}

TEST(Obligations, RenderedJsonCarriesTheSchemaTag) {
  ProgramAnalysis a = Analyze("START: TRAP 7\n");
  EntryObligations entry;
  entry.entry = "unit";
  entry.certified = a.Certified();
  entry.obligations = a.obligations;
  const std::string json = RenderObligationsJson({entry});
  EXPECT_NE(json.find(kObligationsSchemaTag), std::string::npos);
  EXPECT_NE(json.find("\"entries\""), std::string::npos);
}

}  // namespace
}  // namespace sep::sepcheck
