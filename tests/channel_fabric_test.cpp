// The zero-copy batched channel fabric: SENDV/RECVV scatter-gather calls,
// shared-memory doorbell rings, and per-regime backpressure accounting.
//
// The acceptance property is transport-independence: the SAME payload moved
// over the classic one-word-per-trap channel, the batched scatter-gather
// calls, and the shared-ring doorbell fabric must arrive byte-identical —
// and each transport's canonical per-colour trace (E17 sense) must be
// byte-identical whether the pair runs alone or shares the processor with a
// stranger regime. A faster path that perturbed either stream would be a
// new information channel, not an optimisation.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/core/kernel_system.h"
#include "src/distributed/reliable.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sep {
namespace {

// --- payload + program builders ----------------------------------------------

constexpr int kPayloadWords = 24;

std::vector<Word> Payload() {
  std::vector<Word> words;
  words.reserve(kPayloadWords);
  for (int i = 0; i < kPayloadWords; ++i) {
    words.push_back(static_cast<Word>(0xA001 + 0x10F * i));
  }
  return words;
}

std::string WordLines(const std::vector<Word>& words, std::size_t begin, std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end; ++i) {
    out += Format("        .WORD 0x%04X\n", words[i]);
  }
  return out;
}

// Classic transport: one SEND trap per word, one RECV trap per word.
std::string ClassicProducer() {
  return Format(R"(
        MOV #PAYLOAD, R3
        MOV #%d, R5
SLOOP:  MOV (R3), R1
        CLR R0
        TRAP 1          ; SEND
        INC R3
        DEC R5
        BNE SLOOP
        TRAP 7
PAYLOAD:
%s)",
                kPayloadWords, WordLines(Payload(), 0, kPayloadWords).c_str());
}

constexpr char kClassicConsumer[] = R"(
        MOV #0x100, R4
RLOOP:  CLR R0
        TRAP 2          ; RECV
        TST R0
        BEQ DONE
        MOV R1, (R4)
        INC R4
        BR RLOOP
DONE:   TRAP 7
)";

// Batched transport: the producer describes the payload as TWO scatter
// extents and moves all of it with a single SENDV; the consumer gathers the
// whole batch with one RECVV into 0x100.
std::string BatchedProducer() {
  const std::vector<Word> payload = Payload();
  return Format(R"(
        CLR R0
        MOV #TBL, R1
        MOV #2, R2
        TRAP 9          ; SENDV (two extents, one trap)
        TRAP 7
TBL:    .WORD PAY0
        .WORD 10
        .WORD PAY1
        .WORD %d
PAY0:
%sPAY1:
%s)",
                kPayloadWords - 10, WordLines(payload, 0, 10).c_str(),
                WordLines(payload, 10, kPayloadWords).c_str());
}

std::string BatchedConsumer() {
  return Format(R"(
        CLR R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 10         ; RECVV
        TRAP 7
TBL:    .WORD 0x100
        .WORD %d
)",
                kPayloadWords);
}

// Shared-ring transport: the producer writes the payload straight into its
// read-write data window (vaddr 0x8000) and publishes it with one RINGPUT;
// the consumer reads the occupancy via RINGSTAT, copies the words out of its
// read-only window, and releases them with one RINGGET. Zero kernel copies.
std::string RingProducer() {
  return Format(R"(
; sepcheck: shared-ring 0 producer-only tail advance + read-only consumer window keep the object one-directional
        MOV #PAYLOAD, R3
        MOV #0x8000, R4
        MOV #%d, R5
WLOOP:  MOV (R3), R2
        MOV R2, (R4)
        INC R3
        INC R4
        DEC R5
        BNE WLOOP
        CLR R0
        MOV #%d, R1
        TRAP 11         ; RINGPUT: publish the whole batch
        TRAP 7
PAYLOAD:
%s)",
                kPayloadWords, kPayloadWords, WordLines(Payload(), 0, kPayloadWords).c_str());
}

constexpr char kRingConsumer[] = R"(
        CLR R0
        TRAP 13         ; RINGSTAT -> R0 = occupancy
        TST R0
        BEQ DONE        ; nothing published (never taken: producer runs first)
        MOV R0, R5
        MOV R0, R1      ; RINGGET count
        MOV #0x8000, R3
        MOV #0x100, R4
RLOOP:  MOV (R3), R2
        MOV R2, (R4)
        INC R3
        INC R4
        DEC R5
        BNE RLOOP
        CLR R0
        TRAP 12         ; RINGGET: release everything we copied
DONE:   TRAP 7
)";

// A stranger regime for the E17 runs: bounded SWAP loop, then a clean halt.
constexpr char kStranger[] = R"(
        MOV #50, R5
SLOOP:  TRAP 0
        DEC R5
        BNE SLOOP
        TRAP 7
)";

enum class Transport { kClassic, kBatched, kSharedRing };

struct FabricRun {
  std::vector<Word> delivered;            // consumer partition 0x100..
  std::string producer_trace;             // canonical colour-0 trace
  std::string consumer_trace;             // canonical colour-1 trace
  std::uint64_t faults = 0;
  bool producer_halted = false;
  bool consumer_halted = false;
};

// Builds producer(regime 0) -> consumer(regime 1) over `transport`, plus an
// optional stranger regime, runs to completion and reads back the delivered
// stream. `record` wraps the run in the trace recorder and extracts the
// canonical per-colour traces.
FabricRun RunFabricPair(Transport transport, bool with_stranger, bool record) {
  SystemBuilder builder;
  std::string producer_src;
  std::string consumer_src;
  switch (transport) {
    case Transport::kClassic:
      producer_src = ClassicProducer();
      consumer_src = kClassicConsumer;
      break;
    case Transport::kBatched:
      producer_src = BatchedProducer();
      consumer_src = BatchedConsumer();
      break;
    case Transport::kSharedRing:
      producer_src = RingProducer();
      consumer_src = kRingConsumer;
      break;
  }
  EXPECT_TRUE(builder.AddRegime("producer", 512, producer_src).ok());
  EXPECT_TRUE(builder.AddRegime("consumer", 512, consumer_src).ok());
  if (with_stranger) {
    EXPECT_TRUE(builder.AddRegime("stranger", 256, kStranger).ok());
  }
  if (transport == Transport::kSharedRing) {
    builder.AddSharedRing("fabric", /*producer=*/0, /*consumer=*/1, /*capacity=*/32);
  } else {
    builder.AddChannel("fabric", /*sender=*/0, /*receiver=*/1, /*capacity=*/32);
  }
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  EXPECT_TRUE(system.ok()) << system.error();

  if (record) {
    obs::Recorder().Start(std::size_t{1} << 16);
  }
  (*system)->Run(20000);
  if (record) {
    obs::Recorder().Stop();
  }

  FabricRun run;
  if (record) {
    const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();
    run.producer_trace = obs::CanonicalColourTrace(events, 0);
    run.consumer_trace = obs::CanonicalColourTrace(events, 1);
  }
  const KernelConfig& config = (*system)->kernel().config();
  const PhysAddr consumer_base = config.regimes[1].mem_base;
  for (int i = 0; i < kPayloadWords; ++i) {
    run.delivered.push_back(
        (*system)->machine().memory().Read(consumer_base + 0x100 + static_cast<PhysAddr>(i)));
  }
  run.faults = (*system)->kernel().FaultCount();
  run.producer_halted = (*system)->kernel().RegimeHalted(0);
  run.consumer_halted = (*system)->kernel().RegimeHalted(1);
  return run;
}

// --- three-way transport equivalence -----------------------------------------

TEST(ChannelFabric, ThreeTransportsDeliverByteIdenticalStreams) {
  const std::vector<Word> payload = Payload();
  const FabricRun classic = RunFabricPair(Transport::kClassic, false, false);
  const FabricRun batched = RunFabricPair(Transport::kBatched, false, false);
  const FabricRun ring = RunFabricPair(Transport::kSharedRing, false, false);

  for (const FabricRun* run : {&classic, &batched, &ring}) {
    EXPECT_EQ(run->faults, 0u);
    EXPECT_TRUE(run->producer_halted);
    EXPECT_TRUE(run->consumer_halted);
  }
  EXPECT_EQ(classic.delivered, payload);
  EXPECT_EQ(batched.delivered, classic.delivered);
  EXPECT_EQ(ring.delivered, classic.delivered);
}

// --- E17 for every transport: strangers must be invisible --------------------

class ChannelFabricTrace : public ::testing::TestWithParam<Transport> {};

TEST_P(ChannelFabricTrace, CanonicalTracesUnchangedByStranger) {
  const FabricRun alone = RunFabricPair(GetParam(), /*with_stranger=*/false, /*record=*/true);
  const FabricRun shared = RunFabricPair(GetParam(), /*with_stranger=*/true, /*record=*/true);

  // Both deployments finished the transfer...
  EXPECT_EQ(alone.delivered, Payload());
  EXPECT_EQ(shared.delivered, alone.delivered);
  // ...and produced non-vacuous traces.
  EXPECT_NE(alone.producer_trace.find("kernel-call"), std::string::npos);
  EXPECT_NE(alone.consumer_trace.find("kernel-call"), std::string::npos);

  // The security property: byte equality per colour across deployments.
  EXPECT_EQ(shared.producer_trace, alone.producer_trace)
      << "shared:\n" << shared.producer_trace << "\nalone:\n" << alone.producer_trace;
  EXPECT_EQ(shared.consumer_trace, alone.consumer_trace)
      << "shared:\n" << shared.consumer_trace << "\nalone:\n" << alone.consumer_trace;
}

INSTANTIATE_TEST_SUITE_P(AllTransports, ChannelFabricTrace,
                         ::testing::Values(Transport::kClassic, Transport::kBatched,
                                           Transport::kSharedRing),
                         [](const ::testing::TestParamInfo<Transport>& info) {
                           switch (info.param) {
                             case Transport::kClassic: return std::string("Classic");
                             case Transport::kBatched: return std::string("Batched");
                             case Transport::kSharedRing: return std::string("SharedRing");
                           }
                           return std::string("Unknown");
                         });

// --- doorbell semantics -------------------------------------------------------

// An AWAITing consumer is woken by the producer's empty->non-empty RINGPUT:
// the doorbell line arrives in R0 exactly like a device interrupt mask, and
// draining the ring lowers it.
TEST(ChannelFabric, DoorbellWakesAwaitingConsumer) {
  SystemBuilder builder;
  // Consumer is regime 0 so it provably AWAITs BEFORE the producer runs.
  ASSERT_TRUE(builder.AddRegime("consumer", 512, R"(
        TRAP 6          ; AWAIT with nothing pending: blocks
        MOV R0, @0x100  ; the doorbell mask AWAIT handed back
        MOV @0x8000, R2
        MOV R2, @0x101  ; the published word, straight from the window
        CLR R0
        MOV #1, R1
        TRAP 12         ; RINGGET: drain-to-empty lowers the doorbell
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
        MOV #0x5A5A, R2
        MOV R2, @0x8000
        CLR R0
        MOV #1, R1
        TRAP 11         ; RINGPUT: empty->non-empty raises the doorbell
        TRAP 7
)").ok());
  builder.AddSharedRing("bell", /*producer=*/1, /*consumer=*/0, /*capacity=*/8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();
  (*sys)->Run(4000);

  const KernelConfig& config = (*sys)->kernel().config();
  EXPECT_EQ((*sys)->kernel().FaultCount(), 0u);
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(0));
  EXPECT_TRUE((*sys)->kernel().RegimeHalted(1));
  // The consumer has no devices, so its doorbell is line 0: AWAIT returned 1.
  EXPECT_EQ((*sys)->machine().memory().Read(config.regimes[0].mem_base + 0x100), 1u);
  EXPECT_EQ((*sys)->machine().memory().Read(config.regimes[0].mem_base + 0x101), 0x5A5Au);
  // Drain-to-empty cleared the pending bit and emptied the ring.
  EXPECT_EQ((*sys)->kernel().RegimePendingMask(0), 0u);
  EXPECT_EQ((*sys)->kernel().SharedRingOccupancy(0), 0u);
}

// --- backpressure accounting --------------------------------------------------

// A full shared ring stalls RINGPUT (R0 = 0), bumps the kernel's stall count,
// emits the channel-stall trace event tagged with the stalled producer — and
// the watermark records the high-water occupancy for STAT-style polling.
TEST(ChannelFabric, SharedRingBackpressureIsCountedAndTraced) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
        MOV #8, R5
        MOV #0x8000, R4
        MOV #0x11, R2
FILL:   MOV R2, (R4)
        INC R4
        INC R2
        DEC R5
        BNE FILL
        CLR R0
        MOV #8, R1
        TRAP 11         ; fills the ring exactly
        MOV R0, @0x100
        CLR R0
        MOV #4, R1
        TRAP 11         ; no room: backpressure stall, not a fault
        MOV R0, @0x101
        CLR R0
        TRAP 13         ; RINGSTAT
        MOV R2, @0x102  ; watermark
        MOV R0, @0x103  ; occupancy
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 256, "        TRAP 7\n").ok());
  builder.AddSharedRing("full", /*producer=*/0, /*consumer=*/1, /*capacity=*/8);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();

  obs::Recorder().Start(std::size_t{1} << 12);
  (*sys)->Run(4000);
  obs::Recorder().Stop();
  const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();

  const KernelConfig& config = (*sys)->kernel().config();
  const PhysAddr base = config.regimes[0].mem_base;
  EXPECT_EQ((*sys)->kernel().FaultCount(), 0u);
  EXPECT_EQ((*sys)->machine().memory().Read(base + 0x100), 1u);  // fill accepted
  EXPECT_EQ((*sys)->machine().memory().Read(base + 0x101), 0u);  // overflow stalled
  EXPECT_EQ((*sys)->machine().memory().Read(base + 0x102), 8u);  // watermark = cap
  EXPECT_EQ((*sys)->machine().memory().Read(base + 0x103), 8u);  // occupancy = cap
  EXPECT_EQ((*sys)->kernel().SharedRingWatermark(0), 8u);

  EXPECT_EQ((*sys)->kernel().ChannelStallCount(), 1u);
  int stall_events = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.code == obs::Code::kChannelStall) {
      ++stall_events;
      EXPECT_EQ(e.colour, 0);            // tagged with the stalled producer
      EXPECT_EQ(e.a0, 0x8000u);          // 0x8000 | ring 0
      EXPECT_EQ(e.a1, 4u);               // the rejected batch size
    }
  }
  EXPECT_EQ(stall_events, 1);
  // Stalls are profiling events, NOT colour-observable: occupancy depends on
  // the peer's drain rate, so the canonical view must exclude them.
  EXPECT_EQ(obs::CanonicalColourTrace(events, 0).find("channel-stall"), std::string::npos);
}

// Classic SEND on a full channel takes the same stall path: R0 = 0 and one
// counted stall per rejected word, never a fault.
TEST(ChannelFabric, ClassicSendStallIsCountedOnce) {
  SystemBuilder builder;
  ASSERT_TRUE(builder.AddRegime("producer", 512, R"(
        MOV #5, R5
        MOV #0x21, R1
SLOOP:  CLR R0
        TRAP 1          ; SEND (5th hits a full capacity-4 ring)
        MOV R0, @0x100
        DEC R5
        BNE SLOOP
        TRAP 7
)").ok());
  ASSERT_TRUE(builder.AddRegime("consumer", 256, "        TRAP 7\n").ok());
  builder.AddChannel("tight", /*sender=*/0, /*receiver=*/1, /*capacity=*/4);
  auto sys = builder.Build();
  ASSERT_TRUE(sys.ok()) << sys.error();

  obs::Recorder().Start(std::size_t{1} << 12);
  (*sys)->Run(2000);
  obs::Recorder().Stop();
  const std::vector<obs::TraceEvent> events = obs::Recorder().Drain();

  EXPECT_EQ((*sys)->kernel().FaultCount(), 0u);
  const KernelConfig& config = (*sys)->kernel().config();
  EXPECT_EQ((*sys)->machine().memory().Read(config.regimes[0].mem_base + 0x100), 0u);
  EXPECT_EQ((*sys)->kernel().ChannelStallCount(), 1u);
  int stall_events = 0;
  for (const obs::TraceEvent& e : events) {
    if (e.code == obs::Code::kChannelStall) {
      ++stall_events;
      EXPECT_EQ(e.a0, 0u);  // classic channel id, no ring tag
      EXPECT_EQ(e.a1, 1u);  // one word requested
    }
  }
  EXPECT_EQ(stall_events, 1);
}

// --- reliable tunnel under downstream backpressure ----------------------------

// Emits a deterministic word stream, one word per step.
class WordSource : public Process {
 public:
  explicit WordSource(int count) {
    words_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      words_.push_back(static_cast<Word>(0x3000 + 7 * i));
    }
  }
  std::string name() const override { return "word-source"; }
  void Step(NodeContext& ctx) override {
    if (next_ < words_.size() && ctx.Send(0, words_[next_])) {
      ++next_;
    }
  }
  bool Finished() const override { return next_ >= words_.size(); }
  const std::vector<Word>& words() const { return words_; }

 private:
  std::vector<Word> words_;
  std::size_t next_ = 0;
};

// Refuses to drain its in-port until `open_at`: 100% momentary backpressure
// on the egress's downstream hop, then a full drain.
class StutterSink : public Process {
 public:
  explicit StutterSink(Tick open_at) : open_at_(open_at) {}
  std::string name() const override { return "stutter-sink"; }
  void Step(NodeContext& ctx) override {
    if (ctx.now() < open_at_) {
      return;
    }
    while (std::optional<Word> w = ctx.Receive(0)) {
      got_.push_back(*w);
    }
  }
  const std::vector<Word>& got() const { return got_; }

 private:
  Tick open_at_;
  std::vector<Word> got_;
};

// Pins the egress staging bugfix: when the downstream link refuses a word,
// the retry must re-offer the SAME staged word without re-dequeuing it — so
// every word is pushed downstream exactly once and no counter is inflated.
TEST(ChannelFabric, ReliableEgressDeliversExactlyOnceUnderFullBackpressure) {
  constexpr int kCount = 40;
  constexpr Tick kOpenAt = 2000;
  // redundancy = 1: with no frame copies and a clean wire, any duplicate the
  // receiver sees could only come from the staging retry re-dequeuing — the
  // exact bug this test pins. (The default triplicate coding would mask it.)
  ReliableConfig config;
  config.redundancy = 1;
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(kCount));
  const int ingress = net.AddNode(std::make_unique<ReliableIngress>("rel-ingress", config));
  const int egress = net.AddNode(std::make_unique<ReliableEgress>("rel-egress", config));
  const int dst = net.AddNode(std::make_unique<StutterSink>(kOpenAt));
  net.Connect(src, ingress, /*capacity=*/64, /*latency=*/1);      // plain feed
  net.Connect(ingress, egress, /*capacity=*/64, /*latency=*/2);   // data frames
  net.Connect(egress, ingress, /*capacity=*/64, /*latency=*/2);   // ACKs
  // The downstream hop is tiny on purpose: two words in flight and every
  // further Send fails until the sink opens.
  const int downstream = net.Connect(egress, dst, /*capacity=*/2, /*latency=*/1);

  // Phase 1: the sink refuses everything. The tunnel keeps accepting and
  // ACKing (acceptance is at parse time), but nothing reaches the sink.
  // (Stop short of the boundary: Run leaves now == steps, and the sink
  // opens the moment its quantum sees now >= kOpenAt.)
  net.Run(kOpenAt - 10);
  auto& sink = static_cast<StutterSink&>(net.process(dst));
  auto& rx = static_cast<ReliableEgress&>(net.process(egress));
  EXPECT_TRUE(sink.got().empty());
  EXPECT_GT(rx.receiver().stats().accepted, 2u) << "tunnel should accept despite the stall";

  // Phase 2: the sink opens; everything drains.
  net.Run(30000);
  const std::vector<Word>& sent = static_cast<WordSource&>(net.process(src)).words();
  EXPECT_EQ(sink.got(), sent);

  // Exactly-once, and the metrics agree: every payload word was accepted
  // once (the one-word-per-step feed makes every segment a single word),
  // pushed downstream once, and never re-counted by the retry loop.
  EXPECT_EQ(rx.receiver().stats().accepted, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(rx.receiver().stats().duplicates_discarded, 0u);
  EXPECT_EQ(net.link(downstream).total_pushed(), static_cast<std::uint64_t>(kCount));
}

// The Batched() preset (wider segments, matching the kernel fabric's batch
// sizing) must still mask wire faults byte-identically.
TEST(ChannelFabric, BatchedTunnelPresetMasksWireFaults) {
  for (int rate : {0, 10}) {
    Network net;
    const int src = net.AddNode(std::make_unique<WordSource>(120));
    const int dst_node = net.AddNode(std::make_unique<StutterSink>(/*open_at=*/0));
    ReliableTunnel tunnel = SpliceReliableTunnel(net, src, dst_node,
                                                 ReliableConfig::Batched(),
                                                 /*capacity=*/64, /*latency=*/2);
    if (rate != 0) {
      net.InjectFaults(tunnel.data_link, FaultSpec::DropCorrupt(rate), /*seed=*/77);
      net.InjectFaults(tunnel.ack_link, FaultSpec::DropCorrupt(rate), /*seed=*/78);
    }
    net.Run(rate == 0 ? 30000 : 120000);
    const std::vector<Word>& sent = static_cast<WordSource&>(net.process(src)).words();
    const auto& got = static_cast<StutterSink&>(net.process(dst_node)).got();
    EXPECT_EQ(got, sent) << "fault rate " << rate << "%";
    const ReliableSenderStats& stats = TunnelSenderStats(net, tunnel);
    if (rate == 0) {
      EXPECT_EQ(stats.retransmits, 0u);
    } else {
      EXPECT_GT(stats.retransmits, 0u);
    }
  }
}

}  // namespace
}  // namespace sep
