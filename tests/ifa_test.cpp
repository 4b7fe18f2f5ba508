// Information flow analysis tests, culminating in the paper's Section 4
// argument (experiment E6): IFA rejects the secure SWAP while the semantic
// two-run test — and Proof of Separability on the real kernel — accept it.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>

#include "src/ifa/analyzer.h"
#include "src/ifa/interpreter.h"
#include "src/ifa/kernel_programs.h"
#include "src/ifa/parser.h"
#include "src/ifa/semantic.h"

namespace sep {
namespace {

std::unique_ptr<Program> MustParse(const std::string& source) {
  Result<std::unique_ptr<Program>> p = ParseSimpl(source);
  EXPECT_TRUE(p.ok()) << p.error();
  return p.ok() ? std::move(p.value()) : nullptr;
}

TEST(SimplParser, DeclarationsAndClasses) {
  auto p = MustParse(R"(
var a : RED;
var b : RED|BLACK;
var c : LOW;
)");
  ASSERT_NE(p, nullptr);
  ASSERT_EQ(p->variables.size(), 3u);
  EXPECT_FALSE(p->variables[0].security_class.IsLow());
  EXPECT_TRUE(p->variables[0].security_class.FlowsTo(p->variables[1].security_class));
  EXPECT_TRUE(p->variables[2].security_class.IsLow());
}

TEST(SimplParser, RejectsUndeclaredVariables) {
  EXPECT_FALSE(ParseSimpl("x := 1;").ok());
  EXPECT_FALSE(ParseSimpl("var x : RED; x := y;").ok());
}

TEST(SimplParser, RejectsDuplicateDeclaration) {
  EXPECT_FALSE(ParseSimpl("var x : RED; var x : BLACK;").ok());
}

TEST(SimplParser, PrecedenceAndParens) {
  auto p = MustParse("var x : LOW; x := 2 + 3 * 4;");
  ASSERT_NE(p, nullptr);
  Result<SimplEnv> env = RunSimpl(*p, {});
  ASSERT_TRUE(env.ok()) << env.error();
  EXPECT_EQ((*env)["x"], 14);

  auto q = MustParse("var x : LOW; x := (2 + 3) * 4;");
  env = RunSimpl(*q, {});
  EXPECT_EQ((*env)["x"], 20);
}

TEST(SimplInterp, ControlFlow) {
  auto p = MustParse(R"(
var n : LOW;
var sum : LOW;
var i : LOW;
i := 1;
sum := 0;
while i <= n {
  sum := sum + i;
  i := i + 1;
}
)");
  ASSERT_NE(p, nullptr);
  Result<SimplEnv> env = RunSimpl(*p, {{"n", 10}});
  ASSERT_TRUE(env.ok()) << env.error();
  EXPECT_EQ((*env)["sum"], 55);
}

TEST(SimplInterp, IfElse) {
  auto p = MustParse(R"(
var x : LOW;
var y : LOW;
if x > 5 { y := 1; } else { y := 2; }
)");
  ASSERT_NE(p, nullptr);
  SimplEnv hi = *RunSimpl(*p, {{"x", 9}});
  SimplEnv lo = *RunSimpl(*p, {{"x", 1}});
  EXPECT_EQ(hi["y"], 1);
  EXPECT_EQ(lo["y"], 2);
}

TEST(SimplInterp, DivisionByZeroFaults) {
  auto p = MustParse("var x : LOW; x := 1 / x;");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(RunSimpl(*p, {{"x", 0}}).ok());
}

TEST(SimplInterp, RunawayLoopBounded) {
  auto p = MustParse("var x : LOW; while 1 == 1 { x := x + 1; }");
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(RunSimpl(*p, {}).ok());
}

// SIMPL arithmetic is 64-bit two's complement and wraps; each case sits on
// the boundary where a native int64_t operation would overflow.
std::int64_t EvalSimpl(const std::string& expr, std::int64_t a, std::int64_t b) {
  auto p = MustParse("var a : LOW; var b : LOW; var x : LOW; x := " + expr + ";");
  EXPECT_NE(p, nullptr);
  if (p == nullptr) {
    return 0;
  }
  Result<SimplEnv> env = RunSimpl(*p, {{"a", a}, {"b", b}});
  EXPECT_TRUE(env.ok()) << env.error();
  return env.ok() ? (*env)["x"] : 0;
}

constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();

TEST(SimplArithmetic, AddWraps) {
  EXPECT_EQ(EvalSimpl("a + b", kMax, 1), kMin);
  EXPECT_EQ(EvalSimpl("a + b", kMin, -1), kMax);
}

TEST(SimplArithmetic, SubtractWraps) {
  EXPECT_EQ(EvalSimpl("a - b", kMin, 1), kMax);
  EXPECT_EQ(EvalSimpl("a - b", kMax, -1), kMin);
}

TEST(SimplArithmetic, MultiplyWraps) {
  EXPECT_EQ(EvalSimpl("a * b", kMax, 2), -2);
  EXPECT_EQ(EvalSimpl("a * b", kMin, -1), kMin);
  EXPECT_EQ(EvalSimpl("a * b", std::int64_t{1} << 32, std::int64_t{1} << 32), 0);
}

TEST(SimplArithmetic, UnaryMinusWraps) {
  EXPECT_EQ(EvalSimpl("-a", kMin, 0), kMin);
  EXPECT_EQ(EvalSimpl("-a", kMax, 0), kMin + 1);
}

TEST(SimplArithmetic, DivideMinByMinusOneWraps) {
  EXPECT_EQ(EvalSimpl("a / b", kMin, -1), kMin);
  EXPECT_EQ(EvalSimpl("a / b", kMax, -1), -kMax);
  EXPECT_EQ(EvalSimpl("a / b", -7, 2), -3);  // truncates toward zero
}

TEST(SimplArithmetic, ModuloMinByMinusOneIsZero) {
  EXPECT_EQ(EvalSimpl("a % b", kMin, -1), 0);
  EXPECT_EQ(EvalSimpl("a % b", -7, 2), -1);  // sign of the dividend
}

TEST(FlowAnalysis, CertifiesCleanPrograms) {
  auto p = MustParse(R"(
var a : RED;
var b : RED;
var low : LOW;
b := a + 1;
a := b * 2 + low;
)");
  ASSERT_NE(p, nullptr);
  FlowReport report = AnalyzeFlows(*p);
  EXPECT_TRUE(report.Certified());
  EXPECT_EQ(report.statements_checked, 2u);
}

TEST(FlowAnalysis, ExplicitFlowViolation) {
  auto p = MustParse(R"(
var secret : RED;
var pub : LOW;
pub := secret;
)");
  ASSERT_NE(p, nullptr);
  FlowReport report = AnalyzeFlows(*p);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_FALSE(report.violations[0].implicit);
}

TEST(FlowAnalysis, ImplicitFlowViolation) {
  auto p = MustParse(R"(
var secret : RED;
var pub : LOW;
if secret > 0 { pub := 1; }
)");
  ASSERT_NE(p, nullptr);
  FlowReport report = AnalyzeFlows(*p);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_TRUE(report.violations[0].implicit);
}

TEST(FlowAnalysis, NestedGuardsAccumulate) {
  auto p = MustParse(R"(
var r : RED;
var b : BLACK;
var out : RED|BLACK;
if r > 0 {
  while b > 0 {
    out := 1;       // pc = RED|BLACK flows into RED|BLACK: fine
    b := b - 1;     // pc includes RED: RED -> BLACK implicit violation
  }
}
)");
  ASSERT_NE(p, nullptr);
  FlowReport report = AnalyzeFlows(*p);
  ASSERT_EQ(report.violations.size(), 1u);
  EXPECT_EQ(report.violations[0].target, "b");
  EXPECT_TRUE(report.violations[0].implicit);
}

TEST(FlowAnalysis, WriteUpIsPermitted) {
  auto p = MustParse(R"(
var low : LOW;
var high : RED|BLACK;
high := low + 1;
)");
  ASSERT_NE(p, nullptr);
  EXPECT_TRUE(AnalyzeFlows(*p).Certified());
}

// --- E6: the SWAP false positive -------------------------------------------

TEST(SwapArgument, IfaRejectsSecureSwapUnderAnyLabelling) {
  for (const char* name : {"swap/regs-high", "swap/regs-red"}) {
    const CatalogEntry* entry = nullptr;
    for (const CatalogEntry& e : KernelProgramCatalog()) {
      if (e.name == name) {
        entry = &e;
      }
    }
    ASSERT_NE(entry, nullptr);
    auto p = MustParse(entry->source);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(AnalyzeFlows(*p).Certified()) << name;
  }
}

TEST(SwapArgument, SecureSwapPassesSemanticTwoRunTest) {
  for (const char* name : {"swap/regs-high", "swap/regs-red"}) {
    const CatalogEntry* entry = nullptr;
    for (const CatalogEntry& e : KernelProgramCatalog()) {
      if (e.name == name) {
        entry = &e;
      }
    }
    ASSERT_NE(entry, nullptr);
    auto p = MustParse(entry->source);
    ASSERT_NE(p, nullptr);
    EXPECT_FALSE(SemanticallyLeaks(*p, entry->secrets, entry->observables)) << name;
  }
}

TEST(SwapArgument, LeakySwapFailsBothAnalyses) {
  const CatalogEntry* entry = nullptr;
  for (const CatalogEntry& e : KernelProgramCatalog()) {
    if (e.name == "swap/leaky") {
      entry = &e;
    }
  }
  ASSERT_NE(entry, nullptr);
  auto p = MustParse(entry->source);
  ASSERT_NE(p, nullptr);
  EXPECT_FALSE(AnalyzeFlows(*p).Certified());
  EXPECT_TRUE(SemanticallyLeaks(*p, entry->secrets, entry->observables));
}

TEST(SwapArgument, WholeCatalogMatchesExpectations) {
  // Every row of the E6 table is self-checking: the recorded IFA verdict
  // and ground truth must match what the analyses actually compute.
  for (const CatalogEntry& entry : KernelProgramCatalog()) {
    auto p = MustParse(entry.source);
    ASSERT_NE(p, nullptr) << entry.name;
    EXPECT_EQ(AnalyzeFlows(*p).Certified(), entry.ifa_certifies) << entry.name;
    if (!entry.secrets.empty()) {
      EXPECT_EQ(SemanticallyLeaks(*p, entry.secrets, entry.observables), entry.actually_leaks)
          << entry.name;
    }
  }
}

TEST(SwapArgument, IfaIsSoundOnTheCatalog) {
  // Soundness: everything IFA certifies is semantically leak-free.
  for (const CatalogEntry& entry : KernelProgramCatalog()) {
    if (entry.ifa_certifies) {
      EXPECT_FALSE(entry.actually_leaks) << entry.name;
    }
  }
}

TEST(SwapArgument, IfaIsIncompleteOnTheCatalog) {
  // Incompleteness: at least the SWAP variants are rejected yet secure.
  int false_positives = 0;
  for (const CatalogEntry& entry : KernelProgramCatalog()) {
    if (!entry.ifa_certifies && !entry.actually_leaks) {
      ++false_positives;
    }
  }
  EXPECT_GE(false_positives, 2);
}

}  // namespace
}  // namespace sep
