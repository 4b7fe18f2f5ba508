#include "src/obs/export.h"

#include "src/base/strings.h"

namespace sep {
namespace obs {

const char* CodeName(Code code) {
  switch (code) {
    case Code::kKernelCall:
      return "kernel-call";
    case Code::kIrqDeliver:
      return "irq-deliver";
    case Code::kRegimeFault:
      return "regime-fault";
    case Code::kIrqForward:
      return "irq-forward";
    case Code::kDispatch:
      return "dispatch";
    case Code::kMmuRemap:
      return "mmu-remap";
    case Code::kChannelStall:
      return "channel-stall";
    case Code::kMachineTrap:
      return "machine-trap";
    case Code::kMachineIrq:
      return "machine-irq";
    case Code::kPredecodeFill:
      return "predecode-fill";
    case Code::kPredecodeFlush:
      return "predecode-flush";
    case Code::kHeartbeat:
      return "heartbeat";
    case Code::kNetRetransmit:
      return "net-retransmit";
    case Code::kNetTimeout:
      return "net-timeout";
    case Code::kNetFaultInjected:
      return "net-fault";
    case Code::kNetNodeCrash:
      return "net-node-crash";
    case Code::kNetNodeRestore:
      return "net-node-restore";
    case Code::kSuperblockBuild:
      return "superblock-build";
    case Code::kSuperblockInvalidate:
      return "superblock-invalidate";
  }
  return "unknown";
}

const char* CategoryName(Category category) {
  switch (category) {
    case Category::kKernel:
      return "kernel";
    case Category::kMachine:
      return "machine";
    case Category::kChecker:
      return "checker";
    case Category::kNet:
      return "net";
  }
  return "unknown";
}

std::string ChromeTraceJson(const std::vector<TraceEvent>& events) {
  std::string out = "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i != 0) {
      out += ",";
    }
    out += Format(
        "\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
        "\"ts\":%llu,\"pid\":1,\"tid\":%d,\"args\":{\"a0\":%u,\"a1\":%u}}",
        CodeName(e.code), CategoryName(e.category),
        static_cast<unsigned long long>(e.tick), static_cast<int>(e.colour) + 1,
        static_cast<unsigned>(e.a0), static_cast<unsigned>(e.a1));
  }
  out += "\n]}\n";
  return out;
}

std::string TraceText(const std::vector<TraceEvent>& events) {
  std::string out;
  for (const TraceEvent& e : events) {
    out += Format("%10llu  colour=%-3d %-8s %-15s a0=%-6u a1=%u\n",
                  static_cast<unsigned long long>(e.tick), static_cast<int>(e.colour),
                  CategoryName(e.category), CodeName(e.code), static_cast<unsigned>(e.a0),
                  static_cast<unsigned>(e.a1));
  }
  return out;
}

std::string CanonicalColourTrace(const std::vector<TraceEvent>& events, int colour) {
  std::string out;
  for (const TraceEvent& e : events) {
    if (static_cast<int>(e.colour) != colour || !ColourObservable(e.code)) {
      continue;
    }
    out += Format("%s %u %u\n", CodeName(e.code), static_cast<unsigned>(e.a0),
                  static_cast<unsigned>(e.a1));
  }
  return out;
}

std::string MetricsText(const MetricLines& metrics) {
  std::string out;
  for (const auto& [name, value] : metrics) {
    out += Format("%s %llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  return out;
}

}  // namespace obs
}  // namespace sep
