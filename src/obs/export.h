// Trace and metrics exporters.
//
// Three renderings of a drained event list:
//   * Chrome trace-event JSON (chrome://tracing and Perfetto load it):
//     one timeline row per colour, instant events at machine-tick
//     timestamps;
//   * a flat human-readable text listing;
//   * the canonical per-colour trace — the security-relevant view: only
//     ColourObservable events of one colour, rendered WITHOUT timestamps
//     (position in the regime's own event stream is the only ordering a
//     private machine could reproduce). Byte-comparing this string across
//     deployments is the per-colour trace-equivalence check of
//     docs/OBSERVABILITY.md and EXPERIMENTS.md E17.
//
// Metrics export: flat "name value" text of counters the caller read off
// the instances it ran (docs/OBSERVABILITY.md §4 names each owner).
#ifndef SRC_OBS_EXPORT_H_
#define SRC_OBS_EXPORT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/obs/trace.h"

namespace sep {
namespace obs {

// Stable human-readable name of an event code ("kernel-call", ...).
const char* CodeName(Code code);
const char* CategoryName(Category category);

// Chrome trace-event JSON. pid is fixed (one machine per export); tid is
// colour + 1 so Perfetto shows one row per regime plus row 0 for the kernel.
std::string ChromeTraceJson(const std::vector<TraceEvent>& events);

// One line per event: "tick colour category code a0 a1".
std::string TraceText(const std::vector<TraceEvent>& events);

// Canonical per-colour trace (see file comment). Deterministic, timestamp-
// free; equality is byte equality.
std::string CanonicalColourTrace(const std::vector<TraceEvent>& events, int colour);

// Counter values keyed by dotted metric name ("kernel.swaps").
using MetricLines = std::map<std::string, std::uint64_t>;

// One "name value" line per entry, in name order.
std::string MetricsText(const MetricLines& metrics);

}  // namespace obs
}  // namespace sep

#endif  // SRC_OBS_EXPORT_H_
