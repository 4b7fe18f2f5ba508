// sep_trace — run SM-11 guests under the separation kernel with the trace
// recorder on, and export what the observability layer saw.
//
//   sep_trace guest.s                      one-regime system, Chrome JSON
//   sep_trace red.s green.s                one regime per file, shared kernel
//   sep_trace --steps N ...               step budget (default 20000)
//   sep_trace --colour C ...              restrict the export to one colour
//   sep_trace --format chrome|text|canonical|metrics
//   sep_trace --exhaustive N ...          also run the exhaustive checker
//   sep_trace --out FILE ...              write there instead of stdout
//
// `--format canonical` emits the canonical per-colour trace (requires
// --colour): the timestamp-free, colour-observable event stream whose byte
// equality across deployments is the per-colour trace-equivalence check of
// docs/OBSERVABILITY.md and EXPERIMENTS.md E17.
//
// `--format metrics` prints the traced system's machine and kernel counters
// as flat "name value" lines. `--exhaustive N` runs the exhaustive
// separability checker (state budget N) on a fresh build before exporting,
// so the dump also carries its report as `exhaustive.*` lines — states,
// transitions, pairs, restores, the store's size and the phase times
// (docs/OBSERVABILITY.md §4).
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/strings.h"
#include "src/core/exhaustive.h"
#include "src/core/kernel_system.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"
#include "tools/run_metrics.h"

namespace {

constexpr char kUsage[] =
    "usage: sep_trace [--steps N] [--colour C] [--format chrome|text|canonical|metrics]\n"
    "                 [--exhaustive N] [--out FILE] guest.s [guest.s ...]\n"
    "  Runs each guest as one regime of a shared separation kernel with the\n"
    "  trace recorder on, then exports the recorded events. --exhaustive N\n"
    "  additionally runs the exhaustive checker (state budget N) so --format\n"
    "  metrics includes its report as exhaustive.* lines.\n";

int UsageError(const char* message, const char* value) {
  std::fprintf(stderr, "sep_trace: %s: %s\n%s", message, value, kUsage);
  return 2;
}

sep::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return sep::Err("cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

enum class Format { kChrome, kText, kCanonical, kMetrics };

}  // namespace

int main(int argc, char** argv) {
  std::size_t steps = 20000;
  std::size_t exhaustive_states = 0;  // 0 = skip the exhaustive checker
  int colour = -2;  // -2 = unset; obs::kColourKernel is -1
  Format format = Format::kChrome;
  std::string out_path;
  std::vector<std::string> guests;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--steps" && i + 1 < argc) {
      const std::optional<long long> parsed = sep::ParseInt(argv[++i], 1, 1LL << 40, 0);
      if (!parsed.has_value()) {
        return UsageError("--steps needs a positive step count", argv[i]);
      }
      steps = static_cast<std::size_t>(*parsed);
    } else if (arg == "--colour" && i + 1 < argc) {
      const std::optional<long long> parsed =
          sep::ParseInt(argv[++i], sep::obs::kColourKernel, sep::kMaxRegimes - 1);
      if (!parsed.has_value()) {
        return UsageError("--colour needs a regime index (or -1 for kernel)", argv[i]);
      }
      colour = static_cast<int>(*parsed);
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string value = argv[++i];
      if (value == "chrome") {
        format = Format::kChrome;
      } else if (value == "text") {
        format = Format::kText;
      } else if (value == "canonical") {
        format = Format::kCanonical;
      } else if (value == "metrics") {
        format = Format::kMetrics;
      } else {
        return UsageError("--format must be chrome|text|canonical|metrics", value.c_str());
      }
    } else if (arg == "--exhaustive" && i + 1 < argc) {
      const std::optional<long long> parsed = sep::ParseInt(argv[++i], 1, 1LL << 30, 0);
      if (!parsed.has_value()) {
        return UsageError("--exhaustive needs a positive state budget", argv[i]);
      }
      exhaustive_states = static_cast<std::size_t>(*parsed);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (!arg.empty() && arg[0] != '-') {
      guests.push_back(arg);
    } else {
      return UsageError("unknown or incomplete argument", arg.c_str());
    }
  }
  if (guests.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  if (static_cast<int>(guests.size()) > sep::kMaxRegimes) {
    return UsageError("too many guests (max 8)", guests.back().c_str());
  }
  if (format == Format::kCanonical && colour == -2) {
    std::fprintf(stderr, "sep_trace: --format canonical requires --colour\n%s", kUsage);
    return 2;
  }

  sep::SystemBuilder builder;
  for (std::size_t g = 0; g < guests.size(); ++g) {
    sep::Result<std::string> source = ReadFile(guests[g]);
    if (!source.ok()) {
      std::fprintf(stderr, "sep_trace: %s\n", source.error().c_str());
      return 2;
    }
    sep::Result<int> regime =
        builder.AddRegime("regime" + std::to_string(g), 4096, *source);
    if (!regime.ok()) {
      std::fprintf(stderr, "sep_trace: %s: %s\n", guests[g].c_str(),
                   regime.error().c_str());
      return 2;
    }
  }
  sep::Result<std::unique_ptr<sep::KernelizedSystem>> system = builder.Build();
  if (!system.ok()) {
    std::fprintf(stderr, "sep_trace: %s\n", system.error().c_str());
    return 2;
  }

  sep::obs::Recorder().Start(std::size_t{1} << 18);
  const std::size_t executed = (*system)->Run(steps);
  sep::obs::Recorder().Stop();
  std::vector<sep::obs::TraceEvent> events = sep::obs::Recorder().Drain();
  sep::obs::MetricLines metrics = sep::RunMetrics((*system)->machine(), &(*system)->kernel());

  if (exhaustive_states > 0) {
    // A fresh build of the same configuration: the traced run above has
    // already advanced (*system); the checker wants the initial state.
    sep::Result<std::unique_ptr<sep::KernelizedSystem>> fresh = builder.Build();
    if (!fresh.ok()) {
      std::fprintf(stderr, "sep_trace: %s\n", fresh.error().c_str());
      return 2;
    }
    sep::ExhaustiveOptions options;
    options.max_states = exhaustive_states;
    const sep::ExhaustiveReport report = sep::CheckSeparabilityExhaustive(**fresh, options);
    std::fprintf(stderr, "sep_trace: exhaustive: %s\n", report.Summary().c_str());
    metrics.insert({
        {"exhaustive.states", report.states_explored},
        {"exhaustive.transitions", report.transitions},
        {"exhaustive.pairs_checked", report.pairs_checked},
        {"exhaustive.restore_count", report.restore_count},
        {"exhaustive.peak_state_bytes", report.peak_state_bytes},
        {"exhaustive.explore_ns", report.explore_ns},
        {"exhaustive.frontier_ns", report.frontier_ns},
        {"exhaustive.class_check_ns", report.class_check_ns},
    });
  }

  // --colour filters the chrome/text exports too, so one regime's full
  // timeline (observable and device-time events alike) can be inspected.
  if (colour != -2 && format != Format::kCanonical && format != Format::kMetrics) {
    std::vector<sep::obs::TraceEvent> kept;
    for (const sep::obs::TraceEvent& e : events) {
      if (e.colour == colour) {
        kept.push_back(e);
      }
    }
    events.swap(kept);
  }

  std::string output;
  switch (format) {
    case Format::kChrome:
      output = sep::obs::ChromeTraceJson(events);
      break;
    case Format::kText:
      output = sep::obs::TraceText(events);
      break;
    case Format::kCanonical:
      output = sep::obs::CanonicalColourTrace(events, colour);
      break;
    case Format::kMetrics:
      output = sep::obs::MetricsText(metrics);
      break;
  }

  if (out_path.empty()) {
    std::fputs(output.c_str(), stdout);
  } else {
    FILE* f = std::fopen(out_path.c_str(), "wb");
    if (f == nullptr) {
      std::fprintf(stderr, "sep_trace: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fwrite(output.data(), 1, output.size(), f);
    std::fclose(f);
  }

  std::fprintf(stderr, "sep_trace: %zu step(s), %zu event(s)%s\n", executed, events.size(),
               sep::obs::Recorder().dropped() > 0 ? " (trace buffer full, some dropped)" : "");
  return 0;
}
