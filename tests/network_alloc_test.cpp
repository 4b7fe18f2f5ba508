// Allocation guards for the network quantum and the trace recorder.
//
// This binary replaces the global operator new with one that counts calls,
// so it holds only tests that count allocations. A network quantum builds
// each node's context from ports fixed at Connect time, moves delivered
// words without erasing them one by one, and serializes checkpoints and
// frames into buffers it reuses, so an idle network allocates nothing and
// a chaotic one allocates only as its streams grow. The trace recorder
// writes into the buffer Start() sized, so tracing a kernelized run
// allocates nothing either, and a stopped recorder records nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "src/components/snfe_receive.h"
#include "src/core/kernel_system.h"
#include "src/obs/trace.h"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

// The array and nothrow forms forward to these in libstdc++. Not inlined:
// GCC would otherwise see this file's own new-expressions reach free() and
// warn of a mismatched deallocation.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }

namespace sep {
namespace {

std::uint64_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

TEST(NetworkAlloc, CounterSeesContainerGrowth) {
  const std::uint64_t before = Allocations();
  std::vector<Word> words;
  words.push_back(1);
  EXPECT_EQ(Allocations() - before, 1u);
}

TEST(NetworkAlloc, IdleSnfePairAllocatesNothing) {
  constexpr std::size_t kPackets = 16;
  Network net;
  const SnfePairTopology topo =
      BuildSnfePair(net, CensorStrictness::kSyntax, static_cast<int>(kPackets));
  const auto& sink = static_cast<const HostSink&>(net.process(topo.host_rx));
  while (sink.packets().size() < kPackets && net.now() < 40000) {
    net.Step();
  }
  ASSERT_EQ(sink.packets().size(), kPackets);
  net.Run(100);  // the delivery's last words drain

  const std::uint64_t before = Allocations();
  const std::size_t steps = net.Run(1000);
  const std::uint64_t allocations = Allocations() - before;
  ASSERT_EQ(steps, 1000u);
  EXPECT_EQ(allocations, 0u);
}

TEST(NetworkAlloc, CrashChaosSeedAllocatesLessThanOncePerTick) {
  constexpr std::size_t kPackets = 32;
  Network net;
  constexpr std::uint64_t kSeed = 1;
  const SnfeRecoverableTopology topo = BuildSnfePairRecoverable(
      net, CensorStrictness::kSyntax, FaultSpec::DropCorrupt(20), CrashChaosWireSeed(kSeed),
      TunnelRecoveryOptions{}, static_cast<int>(kPackets));
  InjectCrashChaos(net, topo.tunnel, kSeed);
  const auto& sink = static_cast<const HostSink&>(net.process(topo.pair.host_rx));

  const std::uint64_t before = Allocations();
  for (int burst = 0; burst < 64 && sink.packets().size() < kPackets; ++burst) {
    net.Run(2000);
  }
  const std::uint64_t allocations = Allocations() - before;
  ASSERT_EQ(sink.packets().size(), kPackets);
  ASSERT_GT(net.node_status(topo.tunnel.ingress_node).crashes +
                net.node_status(topo.tunnel.egress_node).crashes,
            0u);
  EXPECT_LT(static_cast<double>(allocations), static_cast<double>(net.now()))
      << allocations << " allocations in " << net.now() << " simulated ticks";
}

// Exact counts for both paths of every trace point, on bench_machine's SWAP
// ping-pong, where every step runs the kernel's slow path. Stopped: no
// allocation, no event, no drop, although the buffer has room, so a site
// that skipped its Enabled() check would show. Started: no allocation and
// four events per SWAP, one every other step (machine trap, kernel call,
// dispatch, MMU remap), none dropped.
TEST(TraceAlloc, SwapPingPongCountsExactly) {
  SystemBuilder builder;
  (void)builder.AddRegime("a", 256, "LOOP: TRAP 0\n      BR LOOP\n");
  (void)builder.AddRegime("b", 256, "LOOP: TRAP 0\n      BR LOOP\n");
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  KernelizedSystem& sys = *built.value();
  constexpr std::size_t kSteps = 4096;
  ASSERT_EQ(sys.Run(kSteps), kSteps);  // warm the caches

  obs::Recorder().Start(std::size_t{1} << 14);
  obs::Recorder().Stop();
  std::uint64_t before = Allocations();
  ASSERT_EQ(sys.Run(kSteps), kSteps);
  EXPECT_EQ(Allocations() - before, 0u);
  EXPECT_TRUE(obs::Recorder().Drain().empty());
  EXPECT_EQ(obs::Recorder().dropped(), 0u);

  obs::Recorder().Start(std::size_t{1} << 14);
  before = Allocations();
  ASSERT_EQ(sys.Run(kSteps), kSteps);
  const std::uint64_t allocations = Allocations() - before;
  obs::Recorder().Stop();
  EXPECT_EQ(allocations, 0u);
  EXPECT_EQ(obs::Recorder().Drain().size(), 2 * kSteps);
  EXPECT_EQ(obs::Recorder().dropped(), 0u);
}

}  // namespace
}  // namespace sep
