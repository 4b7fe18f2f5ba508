// sepcheck: static separability linter for SM-11 guest programs.
//
//   sepcheck --all [--json] [--probe] [--obligations FILE]
//                                                  lint the in-tree catalogue
//   sepcheck [options] program.s                   lint one assembly file
//
// File-mode options:
//   --words N     partition size in words (default 512)
//   --devices N   local device slots mapped at 0xE000 (default 0)
//   --bare        bare-machine program: HALT legal, TRAPs not kernel calls
//   --json        machine-readable findings (JSON lines)
//
// Both modes accept --obligations FILE: write the proof-obligation ledger
// (every load/store/kernel-call proof step, tagged with the separability
// condition it discharges) as JSON to FILE. The document's schema is
// docs/obligations.schema.json; tools/check_obligations validates it.
//
// --all exits 0 iff every catalogue entry meets its expectation: real
// guests certify (possibly via discharged findings), negative fixtures are
// flagged. With --probe it additionally runs the machine-level two-run
// semantic probe on entries that carry one and checks the expected verdict
// (the EXPERIMENTS.md E14 table).
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/strings.h"

#include "src/analysis/finding.h"
#include "src/base/result.h"
#include "src/sepcheck/catalog.h"

namespace sep {
namespace {

using sepcheck::AnalyzeProgram;
using sepcheck::AnalyzeSystem;
using sepcheck::BuildEntrySystem;
using sepcheck::Catalog;
using sepcheck::CatalogEntry;
using sepcheck::EntryObligations;
using sepcheck::MachineSemanticallyLeaks;
using sepcheck::RegimeView;
using sepcheck::RenderObligationsJson;
using sepcheck::SystemAnalysis;

constexpr char kUsage[] =
    "usage: sepcheck --all [--json] [--probe] [--obligations FILE]\n"
    "       sepcheck [--words N] [--devices N] [--bare] [--json]\n"
    "                [--obligations FILE] program.s\n";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

int UsageError(const char* message, const char* value) {
  std::fprintf(stderr, "sepcheck: %s: %s\n", message, value);
  return Usage();
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Err("cannot open " + path);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int DischargedCount(const std::vector<Finding>& findings) {
  int n = 0;
  for (const Finding& f : findings) {
    if (f.severity == FindingSeverity::kDischarged) ++n;
  }
  return n;
}

// Writes `text` to `path`; reports and fails loudly on error.
bool WriteFileOrComplain(const std::string& path, const std::string& text) {
  std::ofstream out(path);
  out << text;
  if (!out) {
    std::fprintf(stderr, "sepcheck: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

// Analyzes one catalogue entry, prints its findings and verdict, appends
// its ledger to `ledgers`, and returns whether it met its expectation.
bool CheckEntry(const CatalogEntry& entry, bool json, bool probe,
                std::vector<EntryObligations>& ledgers) {
  Result<SystemAnalysis> analysis = AnalyzeSystem(entry.spec);
  if (!analysis.ok()) {
    std::fprintf(stderr, "%s: %s\n", entry.name.c_str(), analysis.error().c_str());
    ledgers.emplace_back();
    return false;
  }
  const int discharged = DischargedCount(analysis->findings);
  bool ok = analysis->certified == entry.expect_certified &&
            (!entry.expect_discharged || discharged > 0);
  ledgers.push_back({entry.name, analysis->certified, analysis->obligations});

  std::string semantic = "-";
  if (probe && entry.has_probe) {
    Result<bool> leaks =
        MachineSemanticallyLeaks([&] { return BuildEntrySystem(entry); }, entry.probe);
    if (!leaks.ok()) {
      std::fprintf(stderr, "%s: probe: %s\n", entry.name.c_str(), leaks.error().c_str());
      ok = false;
    } else {
      semantic = *leaks ? "leaks" : "secure";
      if (*leaks != entry.probe_expect_leak) ok = false;
    }
  }

  if (json) {
    std::fputs(FormatFindings(analysis->findings, /*json=*/true).c_str(), stdout);
    std::printf(
        "{\"entry\":\"%s\",\"certified\":%s,\"discharged\":%d,"
        "\"semantic\":\"%s\",\"expected\":%s}\n",
        entry.name.c_str(), analysis->certified ? "true" : "false", discharged,
        semantic.c_str(), ok ? "true" : "false");
  } else {
    std::printf("== %s: %zu regime(s), %zu channel(s), %s\n", entry.name.c_str(),
                entry.spec.regimes.size(), entry.spec.channels.size(),
                entry.spec.cut_channels ? "cut" : "uncut");
    std::fputs(FormatFindings(analysis->findings, /*json=*/false).c_str(), stdout);
    std::printf("   verdict: %s (%d discharged)%s%s — %s\n",
                analysis->certified ? "CERTIFIED" : "FLAGGED", discharged,
                probe && entry.has_probe ? ", semantic: " : "",
                probe && entry.has_probe ? semantic.c_str() : "",
                ok ? "as expected" : "UNEXPECTED");
  }
  return ok;
}

int RunAll(bool json, bool probe, const std::string& obligations_path) {
  const std::vector<CatalogEntry>& catalog = Catalog();
  int failures = 0;
  std::vector<EntryObligations> ledgers;
  for (const CatalogEntry& entry : catalog) {
    if (!CheckEntry(entry, json, probe, ledgers)) ++failures;
  }
  if (!obligations_path.empty() &&
      !WriteFileOrComplain(obligations_path, RenderObligationsJson(ledgers))) {
    return 2;
  }
  if (!json) {
    std::printf("%d of %zu catalogue entries off expectation\n", failures, catalog.size());
  }
  return failures == 0 ? 0 : 1;
}

int RunFile(const std::string& path, std::uint32_t words, int devices, bool bare,
            bool json, const std::string& obligations_path) {
  Result<std::string> source = ReadFile(path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.error().c_str());
    return 2;
  }
  Result<AssembledProgram> program = Assemble(*source);
  if (!program.ok()) {
    std::fprintf(stderr, "%s: %s\n", path.c_str(), program.error().c_str());
    return 2;
  }
  RegimeView view;
  view.name = path;
  view.mem_words = words;
  view.device_slots = devices;
  view.device_window_words = static_cast<std::uint32_t>(devices) * 8;
  view.bare = bare;
  sepcheck::ProgramAnalysis analysis = AnalyzeProgram(*program, *source, view);
  if (!obligations_path.empty()) {
    EntryObligations ledger;
    ledger.entry = path;
    ledger.certified = analysis.Certified();
    ledger.obligations = analysis.obligations;
    if (!WriteFileOrComplain(obligations_path, RenderObligationsJson({ledger}))) {
      return 2;
    }
  }
  std::printf("%s", FormatFindings(analysis.findings, json).c_str());
  if (!json) {
    std::printf("%s: %s (%zu finding(s), %d discharged)\n", path.c_str(),
                analysis.Certified() ? "CERTIFIED" : "FLAGGED",
                analysis.findings.size(), DischargedCount(analysis.findings));
  }
  return analysis.Certified() ? 0 : 1;
}

}  // namespace
}  // namespace sep

int main(int argc, char** argv) {
  bool all = false;
  bool json = false;
  bool probe = false;
  bool bare = false;
  std::uint32_t words = 512;
  int devices = 0;
  std::string path;
  std::string obligations_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--all") {
      all = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--probe") {
      probe = true;
    } else if (arg == "--bare") {
      bare = true;
    } else if (arg == "--words" && i + 1 < argc) {
      // Base 0: 0x... and octal literals are natural for partition sizes.
      const std::optional<long long> parsed = sep::ParseInt(argv[++i], 1, 1 << 22, 0);
      if (!parsed.has_value()) {
        return sep::UsageError("--words needs a positive word count", argv[i]);
      }
      words = static_cast<std::uint32_t>(*parsed);
    } else if (arg == "--devices" && i + 1 < argc) {
      const std::optional<long long> parsed = sep::ParseInt(argv[++i], 0, 256, 0);
      if (!parsed.has_value()) {
        return sep::UsageError("--devices needs an integer in [0, 256]", argv[i]);
      }
      devices = static_cast<int>(*parsed);
    } else if (arg == "--obligations" && i + 1 < argc) {
      obligations_path = argv[++i];
      if (obligations_path.empty() || obligations_path[0] == '-') {
        return sep::UsageError("--obligations needs an output file path",
                               obligations_path.c_str());
      }
    } else if (arg == "--help") {
      std::fputs(sep::kUsage, stdout);
      return 0;
    } else if (!arg.empty() && arg[0] != '-') {
      path = arg;
    } else {
      return sep::Usage();
    }
  }

  if (all) {
    return sep::RunAll(json, probe, obligations_path);
  }
  if (path.empty()) {
    return sep::Usage();
  }
  return sep::RunFile(path, words, devices, bare, json, obligations_path);
}
