// Tests for the binary-level static separability analyzer (src/sepcheck):
// the interval domain, CFG lifting, region labelling, the wire-cut check,
// annotation discharge, and the machine-level SWAP-analogue story —
// flagged by the syntactic pass, shown secure by the two-run probe,
// discharged by an explicit disjointness annotation.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>

#include "src/base/rng.h"
#include "src/core/exhaustive.h"
#include "src/sepcheck/absdomain.h"
#include "src/sepcheck/analyzer.h"
#include "src/sepcheck/annotations.h"
#include "src/sepcheck/catalog.h"
#include "src/sepcheck/cfg.h"
#include "src/sepcheck/guest_corpus.h"
#include "src/sepcheck/probe.h"
#include "src/sm11asm/assembler.h"

namespace sep::sepcheck {
namespace {

// --- interval domain -----------------------------------------------------

TEST(AbsDomain, JoinAndConstants) {
  EXPECT_TRUE(AbsVal().IsTop());
  EXPECT_TRUE(AbsVal::Const(7).IsConst());
  EXPECT_EQ(AbsVal::Const(7).ConstVal(), 7);
  EXPECT_EQ(AbsVal::Const(0).Join(AbsVal::Const(1)), AbsVal::Range(0, 1));
  EXPECT_TRUE(AbsVal::Const(3).Join(AbsVal::Top()).IsTop());
}

TEST(AbsDomain, ArithmeticGoesTopOnOverflow) {
  EXPECT_EQ(AbsVal::Add(AbsVal::Const(0x100), AbsVal::Const(6)), AbsVal::Const(0x106));
  EXPECT_TRUE(AbsVal::Add(AbsVal::Const(0xFFFF), AbsVal::Const(1)).IsTop());
  EXPECT_EQ(AbsVal::Sub(AbsVal::Const(10), AbsVal::Range(1, 3)), AbsVal::Range(7, 9));
  EXPECT_TRUE(AbsVal::Sub(AbsVal::Const(2), AbsVal::Const(3)).IsTop());
}

TEST(AbsDomain, BicBoundsByMaskComplement) {
  // BIC #0xFFF8 keeps only the low 3 bits: result <= 7 whatever dst was.
  EXPECT_EQ(AbsVal::BicMask(AbsVal::Top(), 0xFFF8), AbsVal::Range(0, 7));
  EXPECT_EQ(AbsVal::BicMask(AbsVal::Const(5), 0xFFF8), AbsVal::Range(0, 5));
}

TEST(AbsDomain, WideningMovesChangedBoundsToExtremes) {
  AbsVal grown = AbsVal::Range(0, 4).WidenedFrom(AbsVal::Range(0, 3));
  EXPECT_EQ(grown, AbsVal::Range(0, 0xFFFF));
  AbsVal stable = AbsVal::Range(0, 3).WidenedFrom(AbsVal::Range(0, 3));
  EXPECT_EQ(stable, AbsVal::Range(0, 3));
}

// --- annotations ---------------------------------------------------------

TEST(Annotations, ParsesTrustAndDisjointChannel) {
  Annotations a = ParseAnnotations(
      "START: CLR R0\n"
      "  MOV R1, (R4)  ; sepcheck: trust bounded by supply\n"
      "; sepcheck: disjoint-channel 2 ring discipline\n"
      "  TRAP 7 ; ordinary comment\n");
  ASSERT_EQ(a.trusted_lines.size(), 1u);
  EXPECT_EQ(a.trusted_lines.at(2), "bounded by supply");
  ASSERT_EQ(a.disjoint_channels.size(), 1u);
  EXPECT_EQ(a.disjoint_channels.at(2), "ring discipline");
}

TEST(Annotations, AnnotationsAreInvisibleToTheAssembler) {
  // The discharge is an argument about the program, not a change to it:
  // the annotated and unannotated sources must assemble to the same image.
  const char* bare =
      "START: CLR R0\n"
      "       TRAP 7\n";
  const char* annotated =
      "; sepcheck: disjoint-channel 0 ring discipline\n"
      "START: CLR R0   ; sepcheck: trust reason\n"
      "       TRAP 7\n";
  auto a = Assemble(bare);
  auto b = Assemble(annotated);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->words, b->words);
}

// --- CFG lifting ---------------------------------------------------------

Cfg Lift(const char* source) {
  auto program = Assemble(source);
  EXPECT_TRUE(program.ok()) << program.error();
  return LiftCfg(*program, {program->EntryPoint()}, "test");
}

TEST(CfgLift, StraightLineAndBranches) {
  Cfg cfg = Lift(
      "START: CLR R3\n"
      "LOOP:  INC R3\n"
      "       CMP #5, R3\n"
      "       BNE LOOP\n"
      "       TRAP 7\n");
  ASSERT_TRUE(cfg.findings.empty());
  // Layout: CLR@0, INC@1, CMP@2 (2 words), BNE@4, TRAP@5.
  // BNE has both the taken edge (back to LOOP at 1) and fall-through.
  const CfgNode& bne = cfg.nodes.at(4);
  EXPECT_EQ(bne.succs.size(), 2u);
  EXPECT_NE(std::find(bne.succs.begin(), bne.succs.end(), Word{1}), bne.succs.end());
  // TRAP 7 (HALT) is a terminator.
  EXPECT_TRUE(cfg.nodes.at(5).succs.empty());
}

TEST(CfgLift, JsrRtsEdges) {
  Cfg cfg = Lift(
      "START: JSR SUB\n"
      "       JSR SUB\n"
      "       TRAP 7\n"
      "SUB:   CLR R1\n"
      "       RTS\n");
  ASSERT_TRUE(cfg.findings.empty());
  const CfgNode& rts = cfg.nodes.at(6);
  ASSERT_TRUE(rts.is_rts);
  // RTS conservatively returns to the sites after BOTH calls.
  EXPECT_EQ(rts.succs.size(), 2u);
}

TEST(CfgLift, IndirectJumpIsRejectedNotAnalyzed) {
  Cfg cfg = Lift(
      "START: MOV #DONE, R2\n"
      "       JMP (R2)\n"
      "DONE:  TRAP 7\n");
  ASSERT_EQ(cfg.findings.size(), 1u);
  EXPECT_EQ(cfg.findings[0].kind, "indirect-jump");
  EXPECT_TRUE(cfg.findings[0].Blocking());
}

// --- program analysis ----------------------------------------------------

ProgramAnalysis Analyze(const std::string& source, std::uint32_t mem_words = 512,
                        std::vector<ChannelConfig> channels = {}, int index = 0) {
  auto program = Assemble(source);
  EXPECT_TRUE(program.ok()) << program.error();
  RegimeView view;
  view.name = "test";
  view.index = index;
  view.mem_words = mem_words;
  view.channels = std::move(channels);
  return AnalyzeProgram(*program, source, view);
}

bool HasKind(const std::vector<Finding>& findings, const std::string& kind) {
  return std::any_of(findings.begin(), findings.end(),
                     [&](const Finding& f) { return f.kind == kind; });
}

const Finding& Get(const std::vector<Finding>& findings, const std::string& kind) {
  for (const Finding& f : findings) {
    if (f.kind == kind) return f;
  }
  ADD_FAILURE() << "no finding of kind " << kind;
  static Finding none;
  return none;
}

const CatalogEntry* FindEntry(const std::string& name) {
  for (const CatalogEntry& e : Catalog()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST(AnalyzeProgram, InPartitionAccessIsSilent) {
  ProgramAnalysis a = Analyze(
      "START: MOV #3, @0x100\n"
      "       MOV @0x100, R1\n"
      "       TRAP 7\n");
  EXPECT_TRUE(a.Certified());
  EXPECT_TRUE(a.findings.empty());
}

TEST(AnalyzeProgram, OutOfPartitionWriteIsFlaggedWithWitness) {
  ProgramAnalysis a = Analyze(
      "START: CLR R1\n"
      "       MOV R1, @0x300\n"
      "       TRAP 7\n",
      /*mem_words=*/512);
  ASSERT_TRUE(HasKind(a.findings, "out-of-regime-write"));
  const Finding& f = Get(a.findings, "out-of-regime-write");
  EXPECT_EQ(f.address, 1);
  EXPECT_EQ(f.line, 2);
  // The witness is a CFG path from the entry to the offending instruction.
  ASSERT_FALSE(f.witness.empty());
  EXPECT_EQ(f.witness.front(), 0);
  EXPECT_EQ(f.witness.back(), 1);
}

TEST(AnalyzeProgram, DeviceWindowNeedsMappedSlots) {
  const char* source =
      "START: MOV @0xE001, R1\n"
      "       TRAP 7\n";
  // Without devices the window is unmapped...
  ProgramAnalysis no_dev = Analyze(source);
  EXPECT_TRUE(HasKind(no_dev.findings, "out-of-regime-read"));
  // ...with one device slot the same read is legal.
  auto program = Assemble(source);
  ASSERT_TRUE(program.ok());
  RegimeView view;
  view.mem_words = 512;
  view.device_slots = 1;
  view.device_window_words = 8;
  ProgramAnalysis with_dev = AnalyzeProgram(*program, source, view);
  EXPECT_TRUE(with_dev.Certified()) << FormatFindings(with_dev.findings, false);
}

TEST(AnalyzeProgram, UnboundedPointerIsFlaggedAndTrustDischarges) {
  // R4 grows without bound: the analyzer must refuse to certify the store.
  const char* undischarged =
      "START: MOV #0x100, R4\n"
      "LOOP:  MOV R1, (R4)\n"
      "       INC R4\n"
      "       BR LOOP\n";
  ProgramAnalysis raw = Analyze(undischarged);
  ASSERT_TRUE(HasKind(raw.findings, "unbounded-write"));
  EXPECT_FALSE(raw.Certified());

  // The same program with a trust annotation still reports the finding —
  // but discharged, so certification goes through.
  const char* discharged =
      "START: MOV #0x100, R4\n"
      "LOOP:  MOV R1, (R4)   ; sepcheck: trust externally bounded\n"
      "       INC R4\n"
      "       BR LOOP\n";
  ProgramAnalysis ok = Analyze(discharged);
  ASSERT_TRUE(HasKind(ok.findings, "unbounded-write"));
  EXPECT_EQ(Get(ok.findings, "unbounded-write").severity, FindingSeverity::kDischarged);
  EXPECT_EQ(Get(ok.findings, "unbounded-write").discharge_reason, "externally bounded");
  EXPECT_TRUE(ok.Certified());
}

TEST(AnalyzeProgram, SelfModifyingStoreIsRejected) {
  ProgramAnalysis a = Analyze(
      "START: MOV #0, @START\n"
      "       TRAP 7\n");
  EXPECT_TRUE(HasKind(a.findings, "self-modifying-code"));
  EXPECT_FALSE(a.Certified());
}

TEST(AnalyzeProgram, PrivilegedInstructionsAreFlaggedForGuests) {
  ProgramAnalysis a = Analyze("START: HALT\n");
  EXPECT_TRUE(HasKind(a.findings, "privileged-instruction"));
}

TEST(AnalyzeProgram, ChannelOwnershipIsChecked) {
  ChannelConfig ch;
  ch.name = "a->b";
  ch.sender = 0;
  ch.receiver = 1;
  ch.capacity = 8;
  const char* send =
      "START: CLR R0\n"
      "       MOV #1, R1\n"
      "       TRAP 1\n"
      "       TRAP 7\n";
  // Regime 0 owns the sender end; regime 1 does not.
  ProgramAnalysis as_sender = Analyze(send, 512, {ch}, /*index=*/0);
  EXPECT_TRUE(as_sender.Certified()) << FormatFindings(as_sender.findings, false);
  EXPECT_TRUE(as_sender.ring_touches.count({0, 0}));
  ProgramAnalysis as_receiver = Analyze(send, 512, {ch}, /*index=*/1);
  EXPECT_TRUE(HasKind(as_receiver.findings, "channel-not-owned"));
}

TEST(AnalyzeProgram, ChannelIndexOutOfRangeIsFlagged) {
  ChannelConfig ch;
  ch.name = "a->b";
  ch.sender = 0;
  ch.receiver = 1;
  ProgramAnalysis a = Analyze(
      "START: MOV #5, R0\n"
      "       TRAP 1\n"
      "       TRAP 7\n",
      512, {ch});
  EXPECT_TRUE(HasKind(a.findings, "channel-out-of-range"));
}

TEST(AnalyzeProgram, JoinOverCallSitesStaysBounded) {
  // R0 is 0 at one call site and 1 at the other: inside the subroutine the
  // join is [0,1], narrow enough to resolve the channel set. A widening
  // strategy that treats call-site fan-in like a loop would break this.
  ChannelConfig c0, c1;
  c0.name = "x";
  c0.sender = 0;
  c0.receiver = 1;
  c1.name = "y";
  c1.sender = 0;
  c1.receiver = 1;
  ProgramAnalysis a = Analyze(
      "START: CLR R0\n"
      "       JSR SENDW\n"
      "       MOV #1, R0\n"
      "       JSR SENDW\n"
      "       TRAP 7\n"
      "SENDW: TRAP 1\n"
      "       RTS\n",
      512, {c0, c1});
  EXPECT_TRUE(a.Certified()) << FormatFindings(a.findings, false);
  EXPECT_TRUE(a.ring_touches.count({0, 0}));
  EXPECT_TRUE(a.ring_touches.count({1, 0}));
}

TEST(AnalyzeProgram, InterruptHandlersAreDiscoveredThroughSetvec) {
  // The handler at HNDLR is only reachable via SETVEC; the analyzer must
  // find it and flag its out-of-partition store.
  auto program = Assemble(
      "START: MOV #0, R0\n"
      "       MOV #HNDLR, R1\n"
      "       TRAP 4\n"
      "IDLE:  TRAP 0\n"
      "       BR IDLE\n"
      "HNDLR: MOV R1, @0x700\n"
      "       TRAP 5\n");
  ASSERT_TRUE(program.ok()) << program.error();
  RegimeView view;
  view.mem_words = 512;
  view.device_slots = 1;
  view.device_window_words = 8;
  ProgramAnalysis a = AnalyzeProgram(*program, "", view);
  EXPECT_TRUE(HasKind(a.findings, "out-of-regime-write"));
}

// --- the wire-cut check and the SWAP-analogue story ----------------------

TEST(AnalyzeSystem, UncutChannelIsFlaggedAsSharedObject) {
  const CatalogEntry* entry = FindEntry("swap-analogue-undischarged");
  ASSERT_NE(entry, nullptr);

  // 1. The syntactic pass flags the shared ring object...
  auto analysis = AnalyzeSystem(entry->spec);
  ASSERT_TRUE(analysis.ok()) << analysis.error();
  EXPECT_FALSE(analysis->certified);
  ASSERT_TRUE(HasKind(analysis->findings, "shared-channel-object"));
  EXPECT_EQ(Get(analysis->findings, "shared-channel-object").severity,
            FindingSeverity::kError);

  // 2. ...the semantic two-run probe shows there is no actual leak...
  auto leaks = MachineSemanticallyLeaks([&] { return BuildEntrySystem(*entry); },
                                        entry->probe);
  ASSERT_TRUE(leaks.ok()) << leaks.error();
  EXPECT_FALSE(*leaks) << "the shared-ring flag must be a false positive";

  // 3. ...and the disjointness annotation discharges the flag: the same
  // system with the annotated source certifies (catalogue entry
  // "quickstart" is exactly that configuration).
  const CatalogEntry* annotated = FindEntry("quickstart");
  ASSERT_NE(annotated, nullptr);
  auto discharged = AnalyzeSystem(annotated->spec);
  ASSERT_TRUE(discharged.ok());
  EXPECT_TRUE(discharged->certified);
  EXPECT_EQ(Get(discharged->findings, "shared-channel-object").severity,
            FindingSeverity::kDischarged);
}

TEST(AnalyzeSystem, CutChannelsHaveNothingToDischarge) {
  SystemSpec spec;
  spec.name = "cut";
  spec.regimes = {{"red", kQuickstartRed, 512, 0}, {"black", kQuickstartBlack, 512, 0}};
  ChannelConfig ch;
  ch.name = "red->black";
  ch.sender = 0;
  ch.receiver = 1;
  spec.channels = {ch};
  spec.cut_channels = true;
  auto analysis = AnalyzeSystem(spec);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->certified);
  EXPECT_FALSE(HasKind(analysis->findings, "shared-channel-object"));
}

TEST(Probe, DetectsARealLeakThroughTheChannel) {
  // The control entry ships its secret word down the declared channel: the
  // probe must see it. This is what makes the "secure" verdicts above
  // non-vacuous.
  const CatalogEntry* entry = FindEntry("leaky-sender-control");
  ASSERT_NE(entry, nullptr);
  auto analysis = AnalyzeSystem(entry->spec);
  ASSERT_TRUE(analysis.ok());
  EXPECT_TRUE(analysis->certified) << "resource separation holds";
  auto leaks = MachineSemanticallyLeaks([&] { return BuildEntrySystem(*entry); },
                                        entry->probe);
  ASSERT_TRUE(leaks.ok()) << leaks.error();
  EXPECT_TRUE(*leaks) << "the probe must detect secret-dependence";
}

// Writes `secrets` into the probe's secret words, then runs the probe's
// step count.
void PlantAndRun(KernelizedSystem& sys, const MachineProbeSpec& probe,
                 const std::vector<Word>& secrets) {
  const RegimeConfig& rc =
      sys.kernel().config().regimes[static_cast<std::size_t>(probe.secret_regime)];
  for (std::size_t i = 0; i < secrets.size(); ++i) {
    sys.machine().PhysWrite(rc.mem_base + probe.secret_addrs[i], secrets[i]);
  }
  sys.Run(probe.steps);
}

TEST(Probe, RestoredSystemRunsLikeAFreshBuild) {
  // The premise the probe rests on, checked without the probe: a system
  // restored to its boot state after runs have warmed its caches, then
  // given a trial's secrets, ends in the same state as a fresh build given
  // the same secrets.
  int probed = 0;
  for (const CatalogEntry& entry : Catalog()) {
    if (!entry.has_probe) continue;
    ++probed;
    const MachineProbeSpec& probe = entry.probe;
    auto warm = BuildEntrySystem(entry);
    ASSERT_TRUE(warm.ok()) << entry.name << ": " << warm.error();
    std::vector<Word> boot;
    (*warm)->AppendFullState(boot);
    (*warm)->Run(probe.steps);
    Rng rng(probe.seed);
    for (int trial = 0; trial < probe.trials; ++trial) {
      std::vector<Word> secrets;
      for (std::size_t i = 0; i < probe.secret_addrs.size(); ++i) {
        secrets.push_back(static_cast<Word>(rng.Next() & 0xFFFF));
      }
      ASSERT_TRUE((*warm)->RestoreFullState(boot)) << entry.name;
      PlantAndRun(**warm, probe, secrets);
      auto fresh = BuildEntrySystem(entry);
      ASSERT_TRUE(fresh.ok()) << entry.name << ": " << fresh.error();
      PlantAndRun(**fresh, probe, secrets);

      EXPECT_EQ((*warm)->machine().StateHash(), (*fresh)->machine().StateHash())
          << entry.name << " trial " << trial;
      for (int c = 0; c < (*fresh)->ColourCount(); ++c) {
        EXPECT_EQ((*warm)->kernel().AbstractProjection(c),
                  (*fresh)->kernel().AbstractProjection(c))
            << entry.name << " trial " << trial << " colour " << c;
      }
    }
  }
  EXPECT_GE(probed, 5);
}

TEST(Probe, BuildsTheSystemOnce) {
  // A secure entry runs every trial; a leaking one stops after the first.
  for (const char* name : {"quickstart", "leaky-sender-control"}) {
    const CatalogEntry* entry = FindEntry(name);
    ASSERT_NE(entry, nullptr) << name;
    int builds = 0;
    auto leaks = MachineSemanticallyLeaks(
        [&] {
          ++builds;
          return BuildEntrySystem(*entry);
        },
        entry->probe);
    ASSERT_TRUE(leaks.ok()) << name << ": " << leaks.error();
    EXPECT_EQ(*leaks, entry->probe_expect_leak) << name;
    EXPECT_EQ(builds, 1) << name;
  }
}

TEST(Probe, RejectsASpecThatRunsNothing) {
  // Without the check either spec would report a leaking system secure.
  const CatalogEntry* entry = FindEntry("leaky-sender-control");
  ASSERT_NE(entry, nullptr);
  int builds = 0;
  const auto make = [&] {
    ++builds;
    return BuildEntrySystem(*entry);
  };
  for (int trials : {0, -1}) {
    MachineProbeSpec spec = entry->probe;
    spec.trials = trials;
    auto leaks = MachineSemanticallyLeaks(make, spec);
    ASSERT_FALSE(leaks.ok()) << trials;
    EXPECT_EQ(leaks.error(), "probe needs at least one trial");
  }
  MachineProbeSpec no_steps = entry->probe;
  no_steps.steps = 0;
  auto leaks = MachineSemanticallyLeaks(make, no_steps);
  ASSERT_FALSE(leaks.ok());
  EXPECT_EQ(leaks.error(), "probe needs at least one step per run");
  EXPECT_EQ(builds, 0);
}

TEST(Probe, RejectsRegimesAndSecretsOutsideTheSystem) {
  const CatalogEntry* entry = FindEntry("leaky-sender-control");
  ASSERT_NE(entry, nullptr);
  const auto make = [&] { return BuildEntrySystem(*entry); };
  const int regimes = static_cast<int>(entry->spec.regimes.size());
  for (auto [secret, observer] : {std::pair{regimes, 1}, std::pair{-1, 1},
                                  std::pair{0, regimes}, std::pair{0, -1}}) {
    MachineProbeSpec spec = entry->probe;
    spec.secret_regime = secret;
    spec.observer_regime = observer;
    auto leaks = MachineSemanticallyLeaks(make, spec);
    ASSERT_FALSE(leaks.ok()) << secret << " " << observer;
    EXPECT_EQ(leaks.error(), "probe regime index out of range");
  }
  // One word past the end of the secret regime's partition.
  MachineProbeSpec spec = entry->probe;
  const std::size_t secret = static_cast<std::size_t>(spec.secret_regime);
  spec.secret_addrs.push_back(static_cast<Word>(entry->spec.regimes[secret].mem_words));
  auto leaks = MachineSemanticallyLeaks(make, spec);
  ASSERT_FALSE(leaks.ok());
  EXPECT_EQ(leaks.error(), "secret address outside the secret regime's partition");
}

TEST(Catalog, EveryEntryMeetsItsExpectation) {
  for (const CatalogEntry& entry : Catalog()) {
    auto analysis = AnalyzeSystem(entry.spec);
    ASSERT_TRUE(analysis.ok()) << entry.name << ": " << analysis.error();
    EXPECT_EQ(analysis->certified, entry.expect_certified)
        << entry.name << ":\n"
        << FormatFindings(analysis->findings, false);
    if (entry.expect_discharged) {
      EXPECT_TRUE(std::any_of(analysis->findings.begin(), analysis->findings.end(),
                              [](const Finding& f) {
                                return f.severity == FindingSeverity::kDischarged;
                              }))
          << entry.name;
    }
  }
}

TEST(Catalog, DeployedGuestsCertify) {
  // The catalogue must cover every deployed in-tree guest system.
  std::vector<std::string> required = {"quickstart", "snfe", "guard"};
  for (const std::string& name : required) {
    bool found = false;
    for (const CatalogEntry& e : Catalog()) {
      if (e.name == name) {
        found = true;
        EXPECT_TRUE(e.expect_certified) << name;
      }
    }
    EXPECT_TRUE(found) << name;
  }
}

TEST(Catalog, ExhaustiveCheckerDecidesEveryEntry) {
  // The kernel partition holds no word that only counts, so each catalogue
  // system has a finite reachable space and the exhaustive checker decides
  // it within the budget: COMPLETE, or refuted when it reaches the default
  // cap of 16 violations. A COMPLETE and SEPARABLE line is a proof over the
  // whole reachable space (snfe-cut is the paper's cut SNFE); uncut
  // channels and shared rings are refuted by condition 2, as they must be.
  // Reports are pinned at 1 and 4 threads.
  struct Decided {
    const char* name;
    const char* summary;
  };
  static constexpr Decided kDecided[] = {
      {"quickstart",
       "150 states, 149 transitions, 0 pairs, partial: "
       "C1 0/0 C2 16/149 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"quickstart-cut",
       "268 states, 268 transitions, 13596 pairs, COMPLETE: "
       "C1 0/1240 C2 0/268 C3 0/0 C4 0/0 C5 0/0 C6 0/1240 => SEPARABLE"},
      {"snfe",
       "229 states, 912 transitions, 0 pairs, partial: "
       "C1 0/0 C2 16/456 C3 0/0 C4 0/1368 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"snfe-cut",
       "344 states, 1376 transitions, 99619 pairs, COMPLETE: "
       "C1 0/13 C2 0/688 C3 0/1149 C4 0/2064 C5 0/383 C6 0/13 => SEPARABLE"},
      {"guard",
       "155 states, 154 transitions, 0 pairs, partial: "
       "C1 0/0 C2 16/308 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"swap-analogue-undischarged",
       "150 states, 149 transitions, 0 pairs, partial: "
       "C1 0/0 C2 16/149 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"leaky-sender-control",
       "24 states, 24 transitions, 82 pairs, COMPLETE: "
       "C1 0/4 C2 2/24 C3 0/0 C4 0/0 C5 0/0 C6 0/4 => VIOLATIONS"},
      {"batched-pair",
       "13 states, 13 transitions, 32 pairs, COMPLETE: "
       "C1 0/0 C2 0/14 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"shared-ring-pair",
       "17 states, 17 transitions, 35 pairs, COMPLETE: "
       "C1 0/0 C2 3/18 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"fixture-shared-ring-undischarged",
       "17 states, 17 transitions, 35 pairs, COMPLETE: "
       "C1 0/0 C2 3/18 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"fixture-ring-consumer-write",
       "10 states, 10 transitions, 9 pairs, COMPLETE: "
       "C1 0/0 C2 2/11 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"fixture-out-of-partition",
       "3 states, 3 transitions, 0 pairs, COMPLETE: "
       "C1 0/0 C2 0/1 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"fixture-foreign-send",
       "146 states, 146 transitions, 9343 pairs, COMPLETE: "
       "C1 0/0 C2 0/147 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"fixture-indirect-jump",
       "4 states, 4 transitions, 0 pairs, COMPLETE: "
       "C1 0/0 C2 0/1 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"fixture-self-modify",
       "3 states, 3 transitions, 0 pairs, COMPLETE: "
       "C1 0/0 C2 0/1 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"fixture-stale-annotation",
       "4 states, 4 transitions, 0 pairs, COMPLETE: "
       "C1 0/0 C2 0/1 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => SEPARABLE"},
      {"fixture-wrong-discharge",
       "175 states, 174 transitions, 0 pairs, partial: "
       "C1 0/0 C2 16/174 C3 0/0 C4 0/0 C5 0/0 C6 0/0 => VIOLATIONS"},
      {"fixture-intentional-trust",
       "268 states, 268 transitions, 13576 pairs, COMPLETE: "
       "C1 0/1220 C2 0/268 C3 0/0 C4 0/0 C5 0/0 C6 0/1220 => SEPARABLE"},
  };
  ASSERT_EQ(Catalog().size(), std::size(kDecided));
  for (std::size_t i = 0; i < std::size(kDecided); ++i) {
    const CatalogEntry& entry = Catalog()[i];
    EXPECT_EQ(entry.name, kDecided[i].name);
    auto system = BuildEntrySystem(entry);
    ASSERT_TRUE(system.ok()) << entry.name << ": " << system.error();
    for (int threads : {1, 4}) {
      ExhaustiveOptions options;
      options.max_states = 4096;
      options.threads = threads;
      EXPECT_EQ(CheckSeparabilityExhaustive(**system, options).Summary(), kDecided[i].summary)
          << entry.name << ", threads=" << threads;
    }
  }
}

// --- shared finding format ----------------------------------------------

TEST(Finding, JsonEscapesAndRoundTripsFields) {
  Finding f;
  f.tool = "sepcheck";
  f.unit = "red";
  f.kind = "out-of-regime-write";
  f.line = 3;
  f.address = 0x10;
  f.instruction = "MOV R1, @0x900";
  f.message = "write outside \"the\" map";
  f.witness = {0, 1, 0x10};
  const std::string json = f.ToJson();
  EXPECT_NE(json.find("\"tool\":\"sepcheck\""), std::string::npos);
  EXPECT_NE(json.find("\\\"the\\\""), std::string::npos);
  EXPECT_NE(json.find("\"witness\":[0,1,16]"), std::string::npos);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

}  // namespace
}  // namespace sep::sepcheck
