// End-to-end CLI input validation: every tool must reject malformed numeric
// arguments with a non-zero exit and a usage message, and must exit 0 on
// --help. Runs the real binaries as subprocesses (SEP_TOOLS_DIR is injected
// by tests/CMakeLists.txt); each rejection here was a silent-zero bug when
// the tools still used atoi/strtod with no end-pointer checks.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace sep {
namespace {

std::string Tool(const char* name) { return std::string(SEP_TOOLS_DIR) + "/" + name; }

// Runs `cmd` silenced, returns the exit code (-1 if it did not exit cleanly).
int RunTool(const std::string& cmd) {
  const int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  if (status == -1 || !WIFEXITED(status)) {
    return -1;
  }
  return WEXITSTATUS(status);
}

TEST(CliValidation, HelpExitsZeroEverywhere) {
  EXPECT_EQ(RunTool(Tool("sm11run") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --help"), 0);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --help"), 0);
}

TEST(CliValidation, Sm11RunRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("sm11run") + " --steps 12x prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --steps 0 prog.s"), 2);      // must be >= 1
  EXPECT_EQ(RunTool(Tool("sm11run") + " --dump 0x10000 4 prog.s"), 2);  // > 16-bit
  EXPECT_EQ(RunTool(Tool("sm11run") + " --bogus prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run")), 2);  // no program
}

TEST(CliValidation, Sm11RunDumpSkipsAddressesPastMemory) {
  // Bare mode runs on a 32768-word machine, but --dump accepts any 16-bit
  // ADDR and a COUNT up to 65536: words beyond the end are skipped, as
  // regime mode skips words outside the partition.
  const std::string program = testing::TempDir() + "/halt.s";
  std::ofstream(program) << "HALT\n";
  EXPECT_EQ(RunTool(Tool("sm11run") + " --dump 0x7FFE 4 " + program + " </dev/null"), 0);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --dump 0 65536 " + program + " </dev/null"), 0);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --regime --dump 0xFFFF 2 " + program + " </dev/null"), 0);
}

TEST(CliValidation, Sm11RunValidatesSuperblockFlag) {
  // Strict on|off: anything else is a usage error, and a missing value must
  // not silently swallow the program path.
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock yes prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock 1 prog.s"), 2);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock"), 2);
  // Valid values reach the file loader (exit 1: prog.s does not exist).
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock on prog.s"), 1);
  EXPECT_EQ(RunTool(Tool("sm11run") + " --superblock off prog.s"), 1);
}

TEST(CliValidation, SepcheckRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --words 0 guest.s"), 2);  // must be >= 1
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --devices 9999 guest.s"), 2);
  // --obligations needs a real path operand, not a following flag.
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --all --obligations"), 2);
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --all --obligations --json"), 2);
}

// Reads a whole file; empty string if it cannot be opened.
std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

TEST(CliValidation, JobsFlagIsAnUnknownArgument) {
  // sepcheck and bench_report run serially; --jobs is not an option.
  EXPECT_EQ(RunTool(Tool("sepcheck") + " --all --jobs 4"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --jobs 4"), 2);
}

TEST(CliValidation, CheckObligationsGatesTheLedger) {
  const std::string dir = testing::TempDir();
  const std::string ledger = dir + "/obligations.json";
  ASSERT_EQ(RunTool(Tool("sepcheck") + " --all --obligations " + ledger), 0);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " " + ledger), 0);
  EXPECT_EQ(RunTool(Tool("check_obligations") + " /nonexistent/ledger.json"), 2);
  EXPECT_EQ(RunTool(Tool("check_obligations")), 2);

  // A ledger claiming certification with an open obligation must fail.
  const std::string forged = dir + "/forged.json";
  std::string text = Slurp(ledger);
  const std::string from = "\"status\":\"proved\"";
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"status\":\"open\"");
  std::ofstream(forged) << text;
  EXPECT_EQ(RunTool(Tool("check_obligations") + " " + forged), 1);
}

TEST(CliValidation, ChaosRunRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("chaos_run") + " -5"), 2);       // the atoi(-5) trap
  EXPECT_EQ(RunTool(Tool("chaos_run") + " abc"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " 12 34 56"), 2); // too many positionals
  EXPECT_EQ(RunTool(Tool("chaos_run") + " 0"), 2);        // zero packets
}

TEST(CliValidation, ChaosRunRejectsBadSweepArguments) {
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 5"), 2);      // no ..
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 9..3"), 2);   // reversed
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range a..b"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range"), 2);        // missing value
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 0..1 --rate 99"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --replay /nonexistent/path.sched"), 2);

  // A flag the chosen mode does not read is a usage error, not silently
  // ignored. The schedule is valid, so a replay that ran would exit 1 (a
  // passing run does not reproduce a failure), not 2.
  const std::string schedule = testing::TempDir() + "/pass.sched";
  std::ofstream(schedule) << "seed 1 rate 0 packets 1 broken 0\n";
  const std::string metrics = testing::TempDir() + "/sweep-metrics.txt";
  std::remove(metrics.c_str());
  const std::string sweep = Tool("chaos_run") + " --seed-range 1..2 ";
  const std::string replay = Tool("chaos_run") + " --replay " + schedule + " ";
  EXPECT_EQ(RunTool(sweep + "--metrics " + metrics + " 8"), 2);
  EXPECT_FALSE(std::ifstream(metrics).good()) << "a rejected run writes no dump";
  EXPECT_EQ(RunTool(sweep + "--trace " + metrics + " 8"), 2);
  EXPECT_EQ(RunTool(sweep + "--batch-words 4 8"), 2);
  EXPECT_EQ(RunTool(replay + "--trace " + metrics), 2);
  EXPECT_EQ(RunTool(replay + "--metrics " + metrics), 2);
  EXPECT_EQ(RunTool(replay + "--batch-words 4"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --rate 5 1"), 2);  // no --seed-range
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --record " + metrics + " 1"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --break-resync 1"), 2);
  EXPECT_EQ(RunTool(replay + "--rate 5"), 2);
  EXPECT_EQ(RunTool(sweep + "--replay " + schedule), 2);
  EXPECT_EQ(RunTool(sweep + "8 5"), 2);  // the sweep takes no seed
  EXPECT_EQ(RunTool(replay + "8"), 2);   // the schedule fixes the packets
  EXPECT_EQ(RunTool(replay), 1);         // valid on its own: runs, not reproduced
}

TEST(CliValidation, ChaosSweepBudgetGrowsWithThePacketCount) {
  // Seed 8 needs 124000 ticks to deliver all 64 packets byte-identically:
  // more than a fixed 120000-tick budget allows, so the budget must grow
  // with the stream.
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --seed-range 8..8 64"), 0);
}

TEST(CliValidation, ChaosRunValidatesBatchWords) {
  // The batched-fabric segment size must be a real integer in [1, 64]
  // (kMaxBatchWords); rejections are usage errors, not silent clamps.
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words 0"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words -5"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words abc"), 2);
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words 65"), 2);  // > kMaxBatchWords
  EXPECT_EQ(RunTool(Tool("chaos_run") + " --batch-words"), 2);     // missing value
}

TEST(CliValidation, BenchReportRejectsBadNumbers) {
  EXPECT_EQ(RunTool(Tool("bench_report") + " --tolerance abc"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --tolerance -0.5"), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --bogus"), 2);
}

TEST(CliValidation, BenchReportRejectsMalformedBaseline) {
  // A --compare file without the sep-bench-v1 schema marker must be a clean
  // exit-2 diagnostic (pre-flight, before any benchmark runs), not a crash
  // or a silently-empty comparison.
  const std::string path = testing::TempDir() + "/not_a_baseline.json";
  std::ofstream(path) << "{\"schema\": \"something-else\"}\n";
  EXPECT_EQ(RunTool(Tool("bench_report") + " --compare " + path), 2);
  EXPECT_EQ(RunTool(Tool("bench_report") + " --compare /nonexistent/baseline.json"), 2);
}

TEST(CliValidation, SepTraceRejectsBadArguments) {
  EXPECT_EQ(RunTool(Tool("sep_trace")), 2);  // no guests
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --steps abc guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --colour 99 guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --format bogus guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --format canonical guest.s"), 2);  // no --colour
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive abc guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive 0 guest.s"), 2);
  EXPECT_EQ(RunTool(Tool("sep_trace") + " --exhaustive -5 guest.s"), 2);
}

}  // namespace
}  // namespace sep
