// Channel-fabric throughput: words/second moved producer -> consumer over
// each kernel transport (classic one-word-per-trap SEND/RECV, batched
// SENDV/RECVV scatter-gather, shared-ring doorbell fabric) and across a
// node boundary through the reliable tunnel (default framing vs the
// Batched() preset). items/sec is DELIVERED words per second, read back
// from a counter the consumer guest maintains in its own partition — not
// steps, so a transport that spins without moving data scores zero.
//
// The dimensionless ratios (channel_batch_speedup, channel_ring_speedup,
// channel_xnode_batch_speedup in BENCH_*.json) are the design claims: a
// batch amortizes the kernel-call slow path over up to 64 words, so the
// batched transports must beat one-trap-per-word by a wide, host-independent
// margin.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "src/core/kernel_system.h"
#include "src/distributed/reliable.h"

namespace sep {
namespace {

// Every guest pair follows the same cooperative protocol: the producer
// pushes until the transport exerts backpressure (status 0), then SWAPs;
// the consumer drains until empty, then SWAPs. The consumer counts
// delivered words in a two-word counter at 0x200/0x201 (INC sets Z on
// wrap, so BNE skips the high-word carry).

// One SEND trap per word; the stall (R0 = 0) is the yield signal.
constexpr char kClassicProducer[] = R"(
PLOOP:  MOV #0x1234, R1
        CLR R0
        TRAP 1          ; SEND one word
        TST R0
        BNE PLOOP       ; accepted: keep pushing
        TRAP 0          ; full: let the consumer drain
        BR PLOOP
)";

// One RECV trap per word; every delivered word bumps the counter.
constexpr char kClassicConsumer[] = R"(
CLOOP:  CLR R0
        TRAP 2          ; RECV one word
        TST R0
        BEQ YIELD
        INC @0x200
        BNE CLOOP
        INC @0x201      ; carry into the high word
        BR CLOOP
YIELD:  TRAP 0
        BR CLOOP
)";

// One SENDV moves a full 64-word extent (the payload content is whatever
// sits at address 0 — the transport cost is what's under test, and the
// kernel copies it regardless of value).
constexpr char kBatchedProducer[] = R"(
PLOOP:  CLR R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 9          ; SENDV: 64 words, one trap
        TST R0
        BNE PLOOP
        TRAP 0          ; all-or-nothing stall: yield
        BR PLOOP
TBL:    .WORD 0x0
        .WORD 64
)";

// One RECVV gathers the whole batch. The channel capacity equals the batch
// size, so a non-empty ring always holds exactly 64 words and each counter
// tick is one full batch.
constexpr char kBatchedConsumer[] = R"(
CLOOP:  CLR R0
        MOV #TBL, R1
        MOV #1, R2
        TRAP 10         ; RECVV: up to 64 words, one trap
        TST R0
        BEQ YIELD
        INC @0x200      ; one tick per 64-word batch
        BNE CLOOP
        INC @0x201
        BR CLOOP
YIELD:  TRAP 0
        BR CLOOP
TBL:    .WORD 0x300
        .WORD 64
)";

// Zero-copy path: the window is written once, then every RINGPUT republishes
// 64 words by advancing the tail — the kernel never touches the payload.
constexpr char kRingProducer[] = R"(
; sepcheck: shared-ring 0 producer-only tail advance + read-only consumer window keep the object one-directional
        MOV #64, R5
        MOV #0x8000, R4
FILL:   MOV R5, (R4)
        INC R4
        DEC R5
        BNE FILL
PLOOP:  CLR R0
        MOV #64, R1
        TRAP 11         ; RINGPUT: publish 64 words
        TST R0
        BNE PLOOP
        TRAP 0          ; ring still full: yield
        BR PLOOP
)";

// RINGSTAT polls occupancy, RINGGET releases it. Full-capacity batches keep
// head congruent to 0 mod 64, so occupancy is always 0 or 64.
constexpr char kRingConsumer[] = R"(
CLOOP:  CLR R0
        TRAP 13         ; RINGSTAT -> R0 = occupancy (0 or 64)
        TST R0
        BEQ YIELD
        MOV R0, R1
        CLR R0
        TRAP 12         ; RINGGET: release the batch
        INC @0x200      ; one tick per 64-word batch
        BNE CLOOP
        INC @0x201
        BR CLOOP
YIELD:  TRAP 0
        BR CLOOP
)";

enum class Fabric { kClassic, kBatched, kSharedRing };

std::unique_ptr<KernelizedSystem> BuildPair(Fabric fabric) {
  SystemBuilder builder;
  const char* producer = nullptr;
  const char* consumer = nullptr;
  switch (fabric) {
    case Fabric::kClassic:
      producer = kClassicProducer;
      consumer = kClassicConsumer;
      break;
    case Fabric::kBatched:
      producer = kBatchedProducer;
      consumer = kBatchedConsumer;
      break;
    case Fabric::kSharedRing:
      producer = kRingProducer;
      consumer = kRingConsumer;
      break;
  }
  (void)builder.AddRegime("producer", 1024, producer);
  (void)builder.AddRegime("consumer", 1024, consumer);
  if (fabric == Fabric::kSharedRing) {
    builder.AddSharedRing("fabric", /*producer=*/0, /*consumer=*/1, /*capacity=*/64);
  } else {
    builder.AddChannel("fabric", /*sender=*/0, /*receiver=*/1, /*capacity=*/64);
  }
  auto sys = builder.Build();
  if (!sys.ok()) {
    std::abort();
  }
  return std::move(sys.value());
}

// Delivered-word count from the consumer's two-word counter. The batched
// transports tick once per 64-word batch.
std::uint64_t DeliveredWords(KernelizedSystem& sys, std::uint64_t words_per_tick) {
  const PhysAddr base = sys.kernel().config().regimes[1].mem_base;
  const std::uint64_t lo = sys.machine().memory().Read(base + 0x200);
  const std::uint64_t hi = sys.machine().memory().Read(base + 0x201);
  return ((hi << 16) | lo) * words_per_tick;
}

void RunFabricBench(benchmark::State& state, Fabric fabric, std::uint64_t words_per_tick) {
  auto sys = BuildPair(fabric);
  sys->Run(20000);  // reach steady state with warm predecode caches
  const std::uint64_t before = DeliveredWords(*sys, words_per_tick);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sys->Run(4096));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(DeliveredWords(*sys, words_per_tick) - before));
}

void BM_ChannelClassicWords(benchmark::State& state) {
  RunFabricBench(state, Fabric::kClassic, 1);
}
BENCHMARK(BM_ChannelClassicWords);

void BM_ChannelBatchedWords(benchmark::State& state) {
  RunFabricBench(state, Fabric::kBatched, 64);
}
BENCHMARK(BM_ChannelBatchedWords);

void BM_ChannelSharedRingWords(benchmark::State& state) {
  RunFabricBench(state, Fabric::kSharedRing, 64);
}
BENCHMARK(BM_ChannelSharedRingWords);

// --- cross-node: reliable tunnel framing --------------------------------------

// Floods its out-port every step: the tunnel's own window/segment framing is
// the bottleneck, not the feed.
class FloodSource : public Process {
 public:
  std::string name() const override { return "flood-source"; }
  void Step(NodeContext& ctx) override {
    while (ctx.Send(0, static_cast<Word>(next_))) {
      ++next_;
    }
  }

 private:
  std::uint32_t next_ = 0;
};

// Counts and discards everything that arrives.
class CountingSink : public Process {
 public:
  std::string name() const override { return "counting-sink"; }
  void Step(NodeContext& ctx) override {
    while (std::optional<Word> w = ctx.Receive(0)) {
      benchmark::DoNotOptimize(*w);
      ++count_;
    }
  }
  std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

// Words per second end-to-end through a spliced reliable tunnel on a clean
// wire. The network simulation is deterministic, so the plain/batched RATIO
// is a pure design property of the framing (segment size x window depth),
// stable across hosts — that ratio is the guarded channel_xnode_batch_speedup.
void RunTunnelBench(benchmark::State& state, const ReliableConfig& config) {
  Network net;
  const int src = net.AddNode(std::make_unique<FloodSource>());
  const int dst = net.AddNode(std::make_unique<CountingSink>());
  (void)SpliceReliableTunnel(net, src, dst, config, /*capacity=*/64, /*latency=*/2);
  net.Run(2000);  // fill the pipeline
  const auto& sink = static_cast<const CountingSink&>(net.process(dst));
  const std::uint64_t before = sink.count();
  for (auto _ : state) {
    net.Run(1024);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(sink.count() - before));
}

void BM_ChannelTunnelPlainWords(benchmark::State& state) {
  RunTunnelBench(state, ReliableConfig{});
}
BENCHMARK(BM_ChannelTunnelPlainWords);

void BM_ChannelTunnelBatchedWords(benchmark::State& state) {
  RunTunnelBench(state, ReliableConfig::Batched());
}
BENCHMARK(BM_ChannelTunnelBatchedWords);

}  // namespace
}  // namespace sep

BENCHMARK_MAIN();
