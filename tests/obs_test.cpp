// Unit tests for the observability layer: the recorder's buffer and
// lifecycle, exporters.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sep {
namespace {

obs::TraceEvent Event(std::uint64_t tick, int colour, obs::Code code, Word a0 = 0,
                      Word a1 = 0) {
  obs::TraceEvent e;
  e.tick = tick;
  e.colour = static_cast<std::int16_t>(colour);
  e.category = obs::Category::kKernel;
  e.code = code;
  e.a0 = a0;
  e.a1 = a1;
  return e;
}

void EmitTick(std::uint64_t tick) {
  obs::Emit(obs::Category::kKernel, obs::Code::kKernelCall, 0, tick);
}

std::vector<std::uint64_t> DrainTicks() {
  std::vector<std::uint64_t> ticks;
  for (const obs::TraceEvent& event : obs::Recorder().Drain()) {
    ticks.push_back(event.tick);
  }
  return ticks;
}

TEST(TraceRecorder, FifoOrder) {
  obs::Recorder().Start(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EmitTick(i);
  }
  obs::Recorder().Stop();
  EXPECT_EQ(DrainTicks(), (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
  EXPECT_TRUE(obs::Recorder().Drain().empty());
}

TEST(TraceRecorder, FullBufferDropsNewestAndCountsIt) {
  obs::Recorder().Start(3);  // capacity is exact, a power of two or not
  for (std::uint64_t i = 0; i < 3; ++i) {
    EmitTick(i);
  }
  EmitTick(99);
  obs::Recorder().Stop();
  // The oldest events survive; the overflow event was dropped, not blocked on.
  EXPECT_EQ(DrainTicks(), (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(obs::Recorder().dropped(), 1u);
}

TEST(TraceRecorder, DrainMakesRoomAgain) {
  obs::Recorder().Start(2);
  EmitTick(0);
  EmitTick(1);
  // A drain while recording (KernelNodeSupervisor's) frees every slot.
  EXPECT_EQ(DrainTicks(), (std::vector<std::uint64_t>{0, 1}));
  EmitTick(2);
  EmitTick(3);
  obs::Recorder().Stop();
  EXPECT_EQ(DrainTicks(), (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(obs::Recorder().dropped(), 0u);
}

TEST(TraceRecorder, DisabledEmitIsSilent) {
  obs::Recorder().Start(16);
  obs::Recorder().Stop();
  // Globally disabled: the convenience Emit must not reach the recorder.
  ASSERT_FALSE(obs::Enabled());
  EmitTick(1);
  EXPECT_TRUE(obs::Recorder().Drain().empty());
  EXPECT_EQ(obs::Recorder().dropped(), 0u);
}

TEST(TraceRecorder, StartStopDrainCycle) {
  obs::Recorder().Start(64);
  EXPECT_TRUE(obs::Enabled());
  obs::Emit(obs::Category::kKernel, obs::Code::kKernelCall, 2, 7, 1, 2);
  obs::Emit(obs::Category::kMachine, obs::Code::kMachineTrap, obs::kColourKernel, 8);
  obs::Recorder().Stop();
  EXPECT_FALSE(obs::Enabled());

  const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tick, 7u);
  EXPECT_EQ(events[0].colour, 2);
  EXPECT_EQ(events[0].a0, 1);
  EXPECT_EQ(events[1].code, obs::Code::kMachineTrap);

  // A fresh Start installs a fresh buffer: nothing left over.
  obs::Recorder().Start(64);
  obs::Recorder().Stop();
  EXPECT_TRUE(obs::Recorder().Drain().empty());
}

TEST(TraceRecorder, CountsDrops) {
  obs::Recorder().Start(2);
  for (std::uint64_t i = 0; i < 10; ++i) {
    EmitTick(i);
  }
  obs::Recorder().Stop();
  EXPECT_EQ(obs::Recorder().Drain().size(), 2u);
  EXPECT_EQ(obs::Recorder().dropped(), 8u);
}

TEST(Exporters, ChromeTraceJsonShape) {
  std::vector<obs::TraceEvent> events;
  events.push_back(Event(5, 1, obs::Code::kKernelCall, 6, 7));
  events.push_back(Event(9, obs::kColourKernel, obs::Code::kDispatch, 0));
  const std::string json = obs::ChromeTraceJson(events);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"kernel-call\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":5"), std::string::npos);
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);  // colour 1 -> row 2
  EXPECT_NE(json.find("\"tid\":0"), std::string::npos);  // kernel row
  EXPECT_EQ(json.back(), '\n');
}

TEST(Exporters, CanonicalColourTraceFiltersAndDropsTimestamps) {
  std::vector<obs::TraceEvent> events;
  events.push_back(Event(100, 0, obs::Code::kKernelCall, 6, 0));
  events.push_back(Event(101, 1, obs::Code::kKernelCall, 6, 0));       // other colour
  events.push_back(Event(102, obs::kColourKernel, obs::Code::kDispatch, 0));
  events.push_back(Event(103, 0, obs::Code::kIrqForward, 0));          // device-time
  events.push_back(Event(104, 0, obs::Code::kIrqDeliver, 0, 16));

  const std::string trace = obs::CanonicalColourTrace(events, 0);
  EXPECT_EQ(trace, "kernel-call 6 0\nirq-deliver 0 16\n");

  // Identical event sequence at different ticks: canonical form is equal —
  // timestamps are not part of a regime's observable view.
  std::vector<obs::TraceEvent> shifted;
  shifted.push_back(Event(9000, 0, obs::Code::kKernelCall, 6, 0));
  shifted.push_back(Event(9500, 0, obs::Code::kIrqDeliver, 0, 16));
  EXPECT_EQ(obs::CanonicalColourTrace(shifted, 0), trace);
}

TEST(Exporters, MetricsTextIsSortedNameValueLines) {
  obs::MetricLines metrics;
  metrics["zz.last"] = 3;
  metrics["aa.first"] = 1;
  metrics["mm.large"] = std::uint64_t{1} << 40;
  EXPECT_EQ(obs::MetricsText(metrics), "aa.first 1\nmm.large 1099511627776\nzz.last 3\n");
  EXPECT_EQ(obs::MetricsText({}), "");
}

}  // namespace
}  // namespace sep
