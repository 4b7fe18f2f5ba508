// Checker validation on hand-built model systems (experiment E4's
// foundation): the SharedSystem interface is generic, so the six conditions
// can be exercised on tiny systems whose security status is known by
// construction — independent of the machine/kernel stack.
#include <gtest/gtest.h>

#include "src/core/separability.h"
#include "src/model/shared_system.h"

namespace sep {
namespace {

// A toy shared system: two users, each with a private counter and a private
// I/O cell. The scheduler alternates colours. An optional defect adds the
// other user's counter into yours on every step.
class ToySystem : public SharedSystem {
 public:
  explicit ToySystem(bool leaky) : leaky_(leaky) {}

  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<ToySystem>(*this);
  }

  int ColourCount() const override { return 2; }
  std::string ColourName(int colour) const override { return colour == 0 ? "red" : "black"; }
  int Colour() const override { return turn_; }

  OperationId NextOperation() const override {
    OperationId op;
    op.kind = OperationId::Kind::kInstruction;
    // The operation identity for colour c: its own counter parity decides
    // between "increment" and "double" — a function of c's state only.
    op.detail = {static_cast<Word>(counter_[turn_] & 1)};
    return op;
  }

  void ExecuteOperation() override {
    const int c = turn_;
    if (counter_[c] & 1) {
      counter_[c] = static_cast<Word>(counter_[c] * 2);
    } else {
      counter_[c] = static_cast<Word>(counter_[c] + 1);
    }
    if (leaky_) {
      counter_[c] = static_cast<Word>(counter_[c] + counter_[1 - c]);
    }
    turn_ = 1 - turn_;
  }

  AbstractState Abstract(int colour) const override {
    // The colour's private view: its counter, its I/O cell, and whether it
    // is its turn (each user can observe when it runs).
    return AbstractState{{counter_[colour], io_cell_[colour], inbox_[colour]}};
  }

  int UnitCount() const override { return 2; }
  int UnitColour(int unit) const override { return unit; }
  std::string UnitName(int unit) const override { return "cell-" + std::to_string(unit); }

  void StepUnit(int unit) override {
    // Device activity: move the inbox into the cell, emit the old cell.
    if (inbox_[unit] != 0) {
      pending_out_[unit].push_back(io_cell_[unit]);
      io_cell_[unit] = inbox_[unit];
      inbox_[unit] = 0;
    }
  }

  void InjectInput(int unit, Word value) override { inbox_[unit] = value; }

  std::vector<Word> DrainOutput(int unit) override {
    std::vector<Word> out = std::move(pending_out_[unit]);
    pending_out_[unit].clear();
    return out;
  }

  void PerturbOthers(int colour, Rng& rng) override {
    const int other = 1 - colour;
    counter_[other] = static_cast<Word>(rng.Next());
    io_cell_[other] = static_cast<Word>(rng.Next());
    inbox_[other] = static_cast<Word>(rng.Next());
    pending_out_[other].clear();
    // `turn_` is preserved: COLOUR(s) must not change.
  }

 private:
  bool leaky_;
  int turn_ = 0;
  Word counter_[2] = {0, 0};
  Word io_cell_[2] = {0, 0};
  Word inbox_[2] = {0, 0};
  std::vector<Word> pending_out_[2];
};

CheckerOptions ToyOptions() {
  CheckerOptions options;
  options.trace_steps = 400;
  options.sample_every = 5;
  options.perturb_variants = 3;
  return options;
}

TEST(ModelConditions, SecureToySystemPassesAllSix) {
  ToySystem system(/*leaky=*/false);
  SeparabilityReport report = CheckSeparability(system, ToyOptions());
  EXPECT_TRUE(report.Passed()) << report.Summary();
  // Every condition family was actually exercised.
  for (int c : {1, 2, 3, 4, 5, 6}) {
    EXPECT_GT(report.conditions[static_cast<std::size_t>(c)].checks, 0u) << "C" << c;
  }
}

TEST(ModelConditions, LeakyToySystemViolatesCondition1) {
  ToySystem system(/*leaky=*/true);
  SeparabilityReport report = CheckSeparability(system, ToyOptions());
  ASSERT_FALSE(report.Passed());
  bool c1 = false;
  for (const Violation& v : report.violations) {
    c1 = c1 || v.condition == 1;
  }
  EXPECT_TRUE(c1) << report.Summary();
}

// A system whose NEXTOP depends on the OTHER user's state: a pure
// condition-6 violation (state never leaks, but operation selection does).
class SchedulerLeakSystem : public ToySystem {
 public:
  SchedulerLeakSystem() : ToySystem(false) {}
  std::unique_ptr<SharedSystem> Clone() const override {
    return std::make_unique<SchedulerLeakSystem>(*this);
  }
  // Inherit everything; NextOperation is overridden to peek across.
  OperationId NextOperation() const override {
    OperationId op = ToySystem::NextOperation();
    op.detail.push_back(other_parity_);
    return op;
  }
  void PerturbOthers(int colour, Rng& rng) override {
    ToySystem::PerturbOthers(colour, rng);
    other_parity_ = static_cast<Word>(rng.Next() & 1);
  }

 private:
  Word other_parity_ = 0;
};

TEST(ModelConditions, SchedulerLeakViolatesCondition6) {
  SchedulerLeakSystem system;
  SeparabilityReport report = CheckSeparability(system, ToyOptions());
  ASSERT_FALSE(report.Passed());
  bool c6 = false;
  for (const Violation& v : report.violations) {
    c6 = c6 || v.condition == 6;
  }
  EXPECT_TRUE(c6) << report.Summary();
}

// Parameterized sweep: the secure toy system passes for many seeds — the
// checker's verdict is not a seed accident.
class ToySeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ToySeedSweep, SecurePassesLeakyFails) {
  CheckerOptions options = ToyOptions();
  options.seed = GetParam();
  EXPECT_TRUE(CheckSeparability(ToySystem(false), options).Passed());
  EXPECT_FALSE(CheckSeparability(ToySystem(true), options).Passed());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ToySeedSweep,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u));

TEST(ModelConditions, OperationIdFormatting) {
  OperationId a{OperationId::Kind::kInstruction, {0x1234}};
  EXPECT_NE(a.ToString().find("insn"), std::string::npos);
  OperationId b{OperationId::Kind::kInterrupt, {3}};
  EXPECT_NE(b.ToString().find("irq"), std::string::npos);
  EXPECT_FALSE(a == b);
}

TEST(ModelConditions, AbstractStateEqualityIsWordEquality) {
  AbstractState a{{1, 2, 3}};
  AbstractState b{{1, 2, 3}};
  AbstractState c{{1, 2, 4}};
  AbstractState d{{1, 2}};
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);
}

}  // namespace
}  // namespace sep
