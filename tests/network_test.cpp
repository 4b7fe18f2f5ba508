#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>

#include "src/components/wire.h"
#include "src/distributed/network.h"

namespace sep {
namespace {

// Emits 1..n on out-port 0, one word per step.
class Emitter : public Process {
 public:
  explicit Emitter(Word n) : n_(n) {}
  std::string name() const override { return "emitter"; }
  void Step(NodeContext& ctx) override {
    if (next_ <= n_) {
      if (ctx.Send(0, next_)) {
        ++next_;
      }
    }
  }
  bool Finished() const override { return next_ > n_; }

 private:
  Word n_;
  Word next_ = 1;
};

class Collector : public Process {
 public:
  std::string name() const override { return "collector"; }
  void Step(NodeContext& ctx) override {
    if (ctx.in_port_count() == 0) {
      return;
    }
    while (std::optional<Word> w = ctx.Receive(0)) {
      got_.push_back(*w);
    }
  }
  const std::vector<Word>& got() const { return got_; }

 private:
  std::vector<Word> got_;
};

// Runs a caller-given probe of its context every quantum.
class Prober : public Process {
 public:
  explicit Prober(std::function<void(NodeContext&)> probe) : probe_(std::move(probe)) {}
  std::string name() const override { return "prober"; }
  void Step(NodeContext& ctx) override { probe_(ctx); }

 private:
  std::function<void(NodeContext&)> probe_;
};

TEST(Network, DeliversInOrder) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(10));
  int b = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b);
  net.Run(100);
  auto& collector = static_cast<Collector&>(net.process(b));
  ASSERT_EQ(collector.got().size(), 10u);
  for (Word i = 0; i < 10; ++i) {
    EXPECT_EQ(collector.got()[i], i + 1);
  }
}

TEST(Network, LatencyDelaysDelivery) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(1));
  int b = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b, 64, /*latency=*/10);
  auto& collector = static_cast<Collector&>(net.process(b));
  for (int i = 0; i < 5; ++i) {
    net.Step();
  }
  EXPECT_TRUE(collector.got().empty());
  for (int i = 0; i < 20; ++i) {
    net.Step();
  }
  EXPECT_EQ(collector.got().size(), 1u);
}

TEST(Network, CapacityExertsBackpressure) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(100));
  int b = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b, /*capacity=*/4, /*latency=*/1);
  net.Run(500);
  auto& collector = static_cast<Collector&>(net.process(b));
  EXPECT_EQ(collector.got().size(), 100u);  // all eventually arrive
}

TEST(Network, NoLinkMeansNoFlow) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(5));
  int b = net.AddNode(std::make_unique<Collector>());
  int c = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b);
  net.Run(50);
  EXPECT_FALSE(net.Reachable(a, c));
  EXPECT_TRUE(net.Reachable(a, b));
  auto& lonely = static_cast<Collector&>(net.process(c));
  EXPECT_TRUE(lonely.got().empty());
}

TEST(Network, ReachabilityIsTransitive) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(1));
  int b = net.AddNode(std::make_unique<Collector>());
  int c = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b);
  net.Connect(b, c);
  EXPECT_TRUE(net.Reachable(a, c));
  EXPECT_FALSE(net.Reachable(c, a));
}

TEST(Network, ReachabilityTerminatesOnCycles) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(1));
  int b = net.AddNode(std::make_unique<Collector>());
  int c = net.AddNode(std::make_unique<Collector>());
  int d = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b);
  net.Connect(b, c);
  net.Connect(c, a);  // cycle a -> b -> c -> a
  net.Connect(c, d);
  EXPECT_TRUE(net.Reachable(a, d));
  EXPECT_TRUE(net.Reachable(b, a));
  EXPECT_TRUE(net.Reachable(a, a));
  EXPECT_FALSE(net.Reachable(d, a));
}

TEST(Network, ZeroLatencyDeliversNextStep) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(1));
  int b = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b, 64, /*latency=*/0);
  auto& collector = static_cast<Collector&>(net.process(b));
  net.Step();  // emitter pushes; links advance before nodes, so not yet seen
  EXPECT_TRUE(collector.got().empty());
  net.Step();
  EXPECT_EQ(collector.got().size(), 1u);
}

TEST(Network, CapacityOneLinkStillDeliversEverything) {
  Network net;
  int a = net.AddNode(std::make_unique<Emitter>(20));
  int b = net.AddNode(std::make_unique<Collector>());
  net.Connect(a, b, /*capacity=*/1, /*latency=*/1);
  net.Run(500);
  auto& collector = static_cast<Collector&>(net.process(b));
  ASSERT_EQ(collector.got().size(), 20u);
  for (Word i = 0; i < 20; ++i) {
    EXPECT_EQ(collector.got()[i], i + 1);
  }
}

TEST(Network, SpaceNeverUnderflowsPastCapacity) {
  // Fault-injected duplication can push occupancy beyond the declared
  // capacity; Space() must clamp to zero rather than wrap around.
  Link link("dup", /*capacity=*/3, /*latency=*/1);
  FaultSpec spec;
  spec.duplicate_percent = 100;
  link.InstallFaults(spec, /*seed=*/1);
  EXPECT_TRUE(link.Push(1, 0));  // occupies 2 slots (original + echo)
  EXPECT_TRUE(link.Push(2, 0));  // occupancy now 4 > capacity 3
  EXPECT_EQ(link.Space(), 0u);   // must clamp, not wrap around
  EXPECT_FALSE(link.Push(3, 0));
}

TEST(Network, AdvanceDeliversDelayedWordsOutOfArrivalOrder) {
  // Extra fault delay makes deliver_at non-monotone in the flight queue; a
  // delayed word must not block the words pushed after it.
  Link link("delay", 64, /*latency=*/1);
  FaultSpec spec;
  spec.delay_percent = 100;
  spec.max_extra_delay = 8;
  link.InstallFaults(spec, /*seed=*/3);
  EXPECT_TRUE(link.Push(0xA, 0));  // delayed by some amount in [1, 8]
  link.ClearFaults();
  EXPECT_TRUE(link.Push(0xB, 0));  // normal latency 1
  link.Advance(1);
  ASSERT_EQ(link.ReadyCount(), 1u);  // 0xB overtook the delayed 0xA
  EXPECT_EQ(link.Pop(), std::optional<Word>(0xB));
  link.Advance(20);
  EXPECT_EQ(link.Pop(), std::optional<Word>(0xA));
}

TEST(Network, PortTheNodeLacksThrowsOutOfRange) {
  // The prober's node has exactly one in-port and one out-port, so port 0
  // names a link on each side and ports 1 and -1 name nothing.
  auto step_prober = [](std::function<void(NodeContext&)> probe) {
    Network net;
    const int source = net.AddNode(std::make_unique<Emitter>(1));
    const int prober = net.AddNode(std::make_unique<Prober>(std::move(probe)));
    const int sink = net.AddNode(std::make_unique<Collector>());
    net.Connect(source, prober);
    net.Connect(prober, sink);
    net.Step();
  };
  EXPECT_NO_THROW(step_prober([](NodeContext& ctx) {
    (void)ctx.Send(0, 7);
    (void)ctx.Receive(0);
    (void)ctx.Available(0);
    (void)ctx.SendSpace(0);
  }));
  for (int port : {1, -1}) {
    EXPECT_THROW(step_prober([port](NodeContext& ctx) { (void)ctx.Send(port, 7); }),
                 std::out_of_range)
        << "Send on port " << port;
    EXPECT_THROW(step_prober([port](NodeContext& ctx) { (void)ctx.Receive(port); }),
                 std::out_of_range)
        << "Receive on port " << port;
    EXPECT_THROW(step_prober([port](NodeContext& ctx) { (void)ctx.Available(port); }),
                 std::out_of_range)
        << "Available on port " << port;
    EXPECT_THROW(step_prober([port](NodeContext& ctx) { (void)ctx.SendSpace(port); }),
                 std::out_of_range)
        << "SendSpace on port " << port;
  }
}

TEST(Network, DeterministicAcrossRuns) {
  auto run = [] {
    Network net;
    int a = net.AddNode(std::make_unique<Emitter>(50));
    int b = net.AddNode(std::make_unique<Collector>());
    net.Connect(a, b, 8, 3);
    net.Run(1000);
    return static_cast<Collector&>(net.process(b)).got();
  };
  EXPECT_EQ(run(), run());
}

TEST(Wire, FrameRoundTrip) {
  FrameWriter writer;
  writer.Queue(Frame{7, {1, 2, 3}});
  writer.Queue(Frame{9, {}});

  // Shuttle through a reader manually.
  FrameReader reader;
  // Flush via a fake context is awkward; use a direct link instead.
  Network net;
  struct Pipe : Process {
    FrameWriter* w;
    explicit Pipe(FrameWriter* writer) : w(writer) {}
    std::string name() const override { return "pipe"; }
    void Step(NodeContext& ctx) override { w->Flush(ctx, 0); }
  };
  struct Sink : Process {
    FrameReader reader;
    std::vector<Frame> frames;
    std::string name() const override { return "sink"; }
    void Step(NodeContext& ctx) override {
      reader.Poll(ctx, 0);
      while (auto f = reader.Next()) {
        frames.push_back(*f);
      }
    }
  };
  int a = net.AddNode(std::make_unique<Pipe>(&writer));
  int b = net.AddNode(std::make_unique<Sink>());
  net.Connect(a, b);
  net.Run(20);
  auto& sink = static_cast<Sink&>(net.process(b));
  ASSERT_EQ(sink.frames.size(), 2u);
  EXPECT_EQ(sink.frames[0], (Frame{7, {1, 2, 3}}));
  EXPECT_EQ(sink.frames[1], (Frame{9, {}}));
  (void)reader;
}

TEST(Wire, LevelCodeRoundTrip) {
  CategoryRegistry::Instance().Reset();
  CategorySet nuc = *CategoryRegistry::Instance().GetOrRegister("NUC");
  SecurityLevel level(Classification::kSecret, nuc);
  EXPECT_EQ(DecodeLevel(EncodeLevel(level)), level);
}

TEST(Wire, StringEncodingRoundTrip) {
  std::vector<Word> words = StringToWords("hello");
  EXPECT_EQ(WordsToString(words), "hello");
  EXPECT_EQ(WordsToString(words, 1, 3), "ell");
}

TEST(Wire, PartialFrameWaits) {
  FrameReader reader;
  reader.Feed(3);  // frame of length 3 announced
  reader.Feed(7);
  EXPECT_FALSE(reader.Next().has_value());
  reader.Feed(1);
  reader.Feed(2);
  auto frame = reader.Next();
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(frame->type, 7);
  EXPECT_EQ(frame->fields, (std::vector<Word>{1, 2}));
}

}  // namespace
}  // namespace sep
