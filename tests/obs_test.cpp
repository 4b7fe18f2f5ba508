// Unit tests for the observability layer: trace ring, recorder lifecycle,
// exporters.
#include <gtest/gtest.h>

#include <string>
#include <thread>
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

TEST(TraceRing, FifoOrder) {
  obs::TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPush(Event(i, 0, obs::Code::kKernelCall)));
  }
  obs::TraceEvent out;
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(ring.TryPop(&out));
    EXPECT_EQ(out.tick, i);
  }
  EXPECT_FALSE(ring.TryPop(&out));
}

TEST(TraceRing, CapacityRoundsUpToPowerOfTwo) {
  obs::TraceRing ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  obs::TraceRing tiny(0);
  EXPECT_GE(tiny.capacity(), 2u);
}

TEST(TraceRing, FullRingRejectsInsteadOfBlocking) {
  obs::TraceRing ring(4);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.TryPush(Event(static_cast<std::uint64_t>(i), 0, obs::Code::kKernelCall)));
  }
  EXPECT_FALSE(ring.TryPush(Event(99, 0, obs::Code::kKernelCall)));
  obs::TraceEvent out;
  ASSERT_TRUE(ring.TryPop(&out));
  EXPECT_EQ(out.tick, 0u);  // oldest survives; the overflow event was dropped
  EXPECT_TRUE(ring.TryPush(Event(100, 0, obs::Code::kKernelCall)));
}

TEST(TraceRing, ConcurrentProducersLoseNothingWhileSized) {
  // 4 producers x 1000 events into a ring big enough for all of them; every
  // event must come out exactly once. Run under tsan, this is also the
  // data-race check for the Vyukov cells.
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 1000;
  obs::TraceRing ring(kProducers * kPerProducer);
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const std::uint64_t tag =
            static_cast<std::uint64_t>(p) * kPerProducer + static_cast<std::uint64_t>(i);
        while (!ring.TryPush(Event(tag, p, obs::Code::kKernelCall))) {
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  std::vector<int> seen(kProducers * kPerProducer, 0);
  obs::TraceEvent out;
  while (ring.TryPop(&out)) {
    ++seen[static_cast<std::size_t>(out.tick)];
  }
  for (int count : seen) {
    EXPECT_EQ(count, 1);
  }
}

TEST(TraceRecorder, DisabledEmitIsSilent) {
  obs::TraceRecorder recorder;
  recorder.Start(16);
  recorder.Stop();
  // Globally disabled: the convenience Emit must not reach the recorder.
  ASSERT_FALSE(obs::Enabled());
  obs::Emit(obs::Category::kKernel, obs::Code::kKernelCall, 0, 1);
  EXPECT_TRUE(obs::Recorder().Drain().empty());
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

  // A fresh Start installs a fresh ring: nothing left over.
  obs::Recorder().Start(64);
  obs::Recorder().Stop();
  EXPECT_TRUE(obs::Recorder().Drain().empty());
}

TEST(TraceRecorder, CountsDrops) {
  obs::Recorder().Start(2);  // minimum-size ring
  for (int i = 0; i < 10; ++i) {
    obs::Emit(obs::Category::kKernel, obs::Code::kKernelCall, 0,
              static_cast<std::uint64_t>(i));
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
