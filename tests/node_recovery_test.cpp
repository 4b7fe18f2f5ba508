// Crash–restart survivability (experiment E18).
//
// The link-level chaos suite (chaos_test.cpp) makes the WIRES hostile; this
// suite makes the MACHINES mortal. The acceptance property is the same and
// stricter: with node crashes inside the tolerated envelope — crashable
// endpoints checkpointed, ack-commit on, deterministic segmentation — every
// application-visible stream is BYTE-IDENTICAL to the crash-free run. A
// crash may cost time (recovery_ticks), never bytes.
#include <gtest/gtest.h>

#include "src/components/guard.h"
#include "src/components/snfe_receive.h"
#include "src/core/kernel_system.h"
#include "src/core/node_recovery.h"
#include "src/distributed/faults.h"
#include "src/distributed/network.h"
#include "src/distributed/recoverable.h"
#include "src/distributed/recovery.h"
#include "src/distributed/reliable.h"
#include "src/machine/devices.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace sep {
namespace {

// --- Link::Reset -------------------------------------------------------------

TEST(LinkReset, FlushesInFlightAndReadyWords) {
  Link link("l", 16, /*latency=*/4);
  ASSERT_TRUE(link.Push(0xAAAA, /*now=*/0));
  ASSERT_TRUE(link.Push(0xBBBB, /*now=*/0));
  link.Advance(4);  // both delivered to the ready queue
  ASSERT_TRUE(link.Push(0xCCCC, /*now=*/4));  // still in flight
  ASSERT_EQ(link.ReadyCount(), 2u);

  link.Reset(/*now=*/5);
  EXPECT_EQ(link.ReadyCount(), 0u);
  EXPECT_FALSE(link.Pop().has_value());
  link.Advance(100);  // nothing ghosts back out of the flight queue
  EXPECT_EQ(link.ReadyCount(), 0u);
  EXPECT_EQ(link.resets(), 1u);
  EXPECT_EQ(link.last_reset(), 5u);
}

TEST(LinkReset, RestoresFullCapacity) {
  Link link("l", 4, 1);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(link.Push(static_cast<Word>(i), 0));
  }
  EXPECT_EQ(link.Space(), 0u);
  link.Reset(1);
  EXPECT_EQ(link.Space(), 4u);
}

TEST(LinkReset, SurvivesTheInstalledFaultPlan) {
  Link link("l", 16, 1);
  link.InstallFaults(FaultSpec::Uniform(50), /*seed=*/7);
  for (int i = 0; i < 8; ++i) {
    link.Push(static_cast<Word>(i), 0);
  }
  link.Reset(1);
  // The plan (the wire's own misbehaviour) persists; only traffic died.
  ASSERT_NE(link.faults(), nullptr);
  EXPECT_EQ(link.faults()->counters().offered, 8u);
  link.Push(0x1234, 2);
  EXPECT_EQ(link.faults()->counters().offered, 9u);
}

// --- NodeFaultPlan -----------------------------------------------------------

TEST(NodeFaultPlan, DeterministicGivenSeed) {
  NodeFaultSpec spec;
  spec.crash_percent = 10;
  spec.stall_percent = 20;
  NodeFaultPlan a(spec, 42);
  NodeFaultPlan b(spec, 42);
  for (int i = 0; i < 500; ++i) {
    const NodeFaultPlan::Decision da = a.Decide();
    const NodeFaultPlan::Decision db = b.Decide();
    EXPECT_EQ(da.crash, db.crash);
    EXPECT_EQ(da.restart_delay, db.restart_delay);
    EXPECT_EQ(da.stall_ticks, db.stall_ticks);
  }
  EXPECT_EQ(a.counters().crashes, b.counters().crashes);
  EXPECT_GT(a.counters().crashes, 0u);
  EXPECT_GT(a.counters().stalls, 0u);
}

TEST(NodeFaultPlan, RestartDelayStaysInBounds) {
  NodeFaultSpec spec;
  spec.crash_percent = 100;
  spec.min_restart_delay = 3;
  spec.max_restart_delay = 9;
  NodeFaultPlan plan(spec, 1);
  for (int i = 0; i < 200; ++i) {
    const NodeFaultPlan::Decision d = plan.Decide();
    ASSERT_TRUE(d.crash);
    EXPECT_GE(d.restart_delay, 3u);
    EXPECT_LE(d.restart_delay, 9u);
  }
}

TEST(NodeFaultPlan, MaxCrashesCapsTheSchedule) {
  NodeFaultSpec spec;
  spec.crash_percent = 100;
  spec.max_crashes = 3;
  NodeFaultPlan plan(spec, 5);
  int crashes = 0;
  for (int i = 0; i < 100; ++i) {
    if (plan.Decide().crash) {
      ++crashes;
    }
  }
  EXPECT_EQ(crashes, 3);
}

// --- checkpoint serialization ------------------------------------------------

TEST(CheckpointFormat, RoundTripsEveryFieldKind) {
  std::vector<Word> image;
  CkptWriter w(image);
  w.U16(0xBEEF);
  w.U32(0xDEADBEEFu);
  w.U64(0x0123456789ABCDEFull);
  w.Flag(true);
  w.Flag(false);
  std::deque<Word> words = {1, 2, 3};
  w.Words(words);
  w.MaybeWord(std::optional<Word>(0x77));
  w.MaybeWord(std::nullopt);

  CkptReader r(image);
  EXPECT_EQ(r.U16(), 0xBEEF);
  EXPECT_EQ(r.U32(), 0xDEADBEEFu);
  EXPECT_EQ(r.U64(), 0x0123456789ABCDEFull);
  EXPECT_TRUE(r.Flag());
  EXPECT_FALSE(r.Flag());
  std::deque<Word> back;
  r.Words(back);
  EXPECT_EQ(back, words);
  EXPECT_EQ(r.MaybeWord(), std::optional<Word>(0x77));
  EXPECT_EQ(r.MaybeWord(), std::nullopt);
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.AtEnd());
}

TEST(CheckpointFormat, TruncatedImageTurnsStickyInvalid) {
  std::vector<Word> image;
  CkptWriter w(image);
  w.U32(0x11223344u);
  image.pop_back();  // truncate

  CkptReader r(image);
  (void)r.U32();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.U16(), 0u);  // sticky: everything after the overrun reads 0
  EXPECT_FALSE(r.AtEnd());
}

TEST(CheckpointFormat, OversizedContainerCountIsRejected) {
  std::vector<Word> image;
  CkptWriter w(image);
  w.U32(1000000);  // claims a million words follow
  CkptReader r(image);
  std::vector<Word> out;
  r.Words(out);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(out.empty());
}

// --- crash lifecycle on a plain network --------------------------------------

// Counts its own steps; checkpoint/restore-capable so restarts are warm.
class TickCounter : public Process {
 public:
  std::string name() const override { return "tick-counter"; }
  void Step(NodeContext&) override { ++count_; }
  bool Checkpoint(std::vector<Word>& out) override {
    CkptWriter w(out);
    w.U64(count_);
    return true;
  }
  bool Restore(std::span<const Word> state) override {
    CkptReader r(state);
    count_ = r.U64();
    return r.AtEnd();
  }
  void OnColdRestart() override { ++cold_; }
  std::uint64_t count() const { return count_; }
  std::uint64_t cold() const { return cold_; }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t cold_ = 0;
};

TEST(CrashLifecycle, ScheduledCrashRollsBackToNewestCheckpoint) {
  Network net;
  const int node = net.AddNode(std::make_unique<TickCounter>());
  ASSERT_TRUE(net.EnableRecovery(node, /*checkpoint_interval=*/10));
  net.ScheduleCrash(node, /*at=*/25, /*restart_delay=*/5);
  net.Run(50);

  const auto& counter = static_cast<TickCounter&>(net.process(node));
  const Network::NodeStatus& status = net.node_status(node);
  EXPECT_EQ(status.crashes, 1u);
  EXPECT_EQ(status.restores, 1u);
  EXPECT_EQ(status.cold_starts, 0u);
  EXPECT_EQ(counter.cold(), 0u);
  // Crashed at 25 with checkpoints at 10 and 20: the work of ticks 21-24
  // (4 quanta) was lost, plus the 5 dead ticks and the reboot tick.
  ASSERT_EQ(net.recovery_log().size(), 1u);
  const Network::NodeRecoveryEvent& event = net.recovery_log()[0];
  EXPECT_EQ(event.node, node);
  EXPECT_EQ(event.crashed_at, 25u);
  EXPECT_EQ(event.lost_ticks, 5u);  // 25 - 20
  EXPECT_FALSE(event.cold);
  EXPECT_EQ(status.last_recovery_ticks, 5u);
  // Crash at 25, restart fires AT down_until=30: of the 50 ticks, the node
  // loses the crash tick, 4 dead ticks (26-29), the reboot tick (30), and
  // the 4 rolled-back quanta (21-24).
  EXPECT_EQ(counter.count(), 50u - 1u - 4u - 1u - 4u);
}

TEST(CrashLifecycle, CrashBeforeFirstCheckpointIsAColdStart) {
  Network net;
  const int node = net.AddNode(std::make_unique<TickCounter>());
  ASSERT_TRUE(net.EnableRecovery(node, /*checkpoint_interval=*/100));
  net.ScheduleCrash(node, /*at=*/5, /*restart_delay=*/3);
  net.Run(20);

  const auto& counter = static_cast<TickCounter&>(net.process(node));
  EXPECT_EQ(net.node_status(node).cold_starts, 1u);
  EXPECT_EQ(net.node_status(node).restores, 0u);
  EXPECT_EQ(counter.cold(), 1u);
  ASSERT_EQ(net.recovery_log().size(), 1u);
  EXPECT_TRUE(net.recovery_log()[0].cold);
}

TEST(CrashLifecycle, NonRecoverableNodeStaysDown) {
  Network net;
  const int node = net.AddNode(std::make_unique<TickCounter>());
  net.ScheduleCrash(node, /*at=*/5, /*restart_delay=*/2);
  net.Run(30);
  EXPECT_FALSE(net.NodeUp(node));
  EXPECT_EQ(static_cast<TickCounter&>(net.process(node)).count(), 4u);
}

TEST(CrashLifecycle, StallFreezesWithStateIntact) {
  Network net;
  const int node = net.AddNode(std::make_unique<TickCounter>());
  NodeFaultSpec spec;
  spec.stall_percent = 30;
  spec.max_stall = 4;
  net.InjectNodeFaults(node, spec, /*seed=*/9);
  net.Run(200);
  const auto& counter = static_cast<TickCounter&>(net.process(node));
  const Network::NodeStatus& status = net.node_status(node);
  EXPECT_GT(status.stalls, 0u);
  EXPECT_LT(counter.count(), 200u);  // stalled quanta executed nothing
  EXPECT_GT(counter.count(), 0u);
  EXPECT_EQ(status.crashes, 0u);  // stalls never lose state
}

// --- recoverable tunnel end-to-end (E18 core) --------------------------------

class WordSource : public Process {
 public:
  explicit WordSource(int count, std::uint64_t seed) : rng_(seed) {
    words_.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
      words_.push_back(static_cast<Word>(rng_.Next() & 0xFFFF));
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
  Rng rng_;
  std::vector<Word> words_;
  std::size_t next_ = 0;
};

class WordSink : public Process {
 public:
  std::string name() const override { return "word-sink"; }
  void Step(NodeContext& ctx) override {
    while (std::optional<Word> w = ctx.Receive(0)) {
      got_.push_back(*w);
    }
  }
  const std::vector<Word>& got() const { return got_; }

 private:
  std::vector<Word> got_;
};

struct RecoverableRun {
  std::vector<Word> sent;
  std::vector<Word> got;
  Network::NodeStatus ingress;
  Network::NodeStatus egress;
  ReliableSenderStats tunnel_sender;
  ReliableReceiverStats tunnel_receiver;
  std::uint64_t ingress_cold = 0;
  std::uint64_t egress_cold = 0;
  std::size_t recoveries = 0;
};

struct CrashSchedule {
  bool crash_ingress = false;
  bool crash_egress = false;
  std::uint64_t seed = 0;
  int crash_percent = 1;
  int max_crashes = 2;
};

RecoverableRun RunRecoverableTunnel(int count, const FaultSpec& wire, std::uint64_t wire_seed,
                                    const CrashSchedule& crashes,
                                    TunnelRecoveryOptions recovery = {},
                                    std::size_t steps = 60000) {
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(count, /*seed=*/7));
  const int dst = net.AddNode(std::make_unique<WordSink>());
  const RecoverableTunnel tunnel = SpliceRecoverableTunnel(net, src, dst, {}, recovery,
                                                           /*capacity=*/64, /*latency=*/2);
  if (wire.Any()) {
    net.InjectFaults(tunnel.data_link, wire, wire_seed);
    net.InjectFaults(tunnel.ack_link, wire, wire_seed ^ 0x1234567890ABCDEFULL);
  }
  NodeFaultSpec node_spec;
  node_spec.crash_percent = crashes.crash_percent;
  node_spec.max_crashes = crashes.max_crashes;
  node_spec.min_restart_delay = 4;
  node_spec.max_restart_delay = 24;
  if (crashes.crash_ingress) {
    net.InjectNodeFaults(tunnel.ingress_node, node_spec, crashes.seed);
  }
  if (crashes.crash_egress) {
    net.InjectNodeFaults(tunnel.egress_node, node_spec, crashes.seed ^ 0xFEEDu);
  }
  net.Run(steps);

  RecoverableRun run;
  run.sent = static_cast<WordSource&>(net.process(src)).words();
  run.got = static_cast<WordSink&>(net.process(dst)).got();
  run.ingress = net.node_status(tunnel.ingress_node);
  run.egress = net.node_status(tunnel.egress_node);
  run.tunnel_sender = TunnelIngress(net, tunnel).tunnel_sender().stats();
  run.tunnel_receiver = TunnelEgress(net, tunnel).tunnel_receiver().stats();
  run.ingress_cold = TunnelIngress(net, tunnel).cold_restarts();
  run.egress_cold = TunnelEgress(net, tunnel).cold_restarts();
  run.recoveries = net.recovery_log().size();
  return run;
}

TEST(RecoverableTunnel, CleanRunWithoutCrashesIsLossless) {
  RecoverableRun run = RunRecoverableTunnel(120, FaultSpec{}, 1, CrashSchedule{});
  EXPECT_EQ(run.got, run.sent);
  EXPECT_EQ(run.ingress.crashes, 0u);
  EXPECT_EQ(run.egress.crashes, 0u);
}

TEST(RecoverableTunnel, IngressCrashesAreMasked) {
  CrashSchedule crashes;
  crashes.crash_ingress = true;
  crashes.seed = 11;
  RecoverableRun run =
      RunRecoverableTunnel(120, FaultSpec::DropCorrupt(20), 500, crashes);
  ASSERT_GT(run.ingress.crashes, 0u);
  EXPECT_EQ(run.got, run.sent);
}

TEST(RecoverableTunnel, EgressCrashesAreMasked) {
  CrashSchedule crashes;
  crashes.crash_egress = true;
  crashes.seed = 12;
  RecoverableRun run =
      RunRecoverableTunnel(120, FaultSpec::DropCorrupt(20), 501, crashes);
  ASSERT_GT(run.egress.crashes, 0u);
  EXPECT_EQ(run.got, run.sent);
}

TEST(RecoverableTunnel, CrashesOfBothEndpointsAreMasked) {
  // E18's headline: >= 3 distinct seeded crash/restart schedules combined
  // with 20% drop+corrupt wire chaos, byte-identical delivery on every one.
  for (std::uint64_t seed : {21u, 22u, 23u}) {
    CrashSchedule crashes;
    crashes.crash_ingress = true;
    crashes.crash_egress = true;
    crashes.seed = seed;
    RecoverableRun run =
        RunRecoverableTunnel(120, FaultSpec::DropCorrupt(20), 600 + seed, crashes);
    ASSERT_GT(run.ingress.crashes + run.egress.crashes, 0u) << "seed " << seed;
    EXPECT_EQ(run.got, run.sent) << "seed " << seed;
    EXPECT_EQ(run.recoveries, run.ingress.crashes + run.egress.crashes) << "seed " << seed;
  }
}

TEST(RecoverableTunnel, DeterministicGivenSeeds) {
  CrashSchedule crashes;
  crashes.crash_ingress = true;
  crashes.crash_egress = true;
  crashes.seed = 33;
  RecoverableRun a = RunRecoverableTunnel(80, FaultSpec::DropCorrupt(15), 77, crashes);
  RecoverableRun b = RunRecoverableTunnel(80, FaultSpec::DropCorrupt(15), 77, crashes);
  EXPECT_EQ(a.got, b.got);
  EXPECT_EQ(a.ingress.crashes, b.ingress.crashes);
  EXPECT_EQ(a.egress.crashes, b.egress.crashes);
  EXPECT_EQ(a.tunnel_sender.retransmits, b.tunnel_sender.retransmits);
}

TEST(RecoverableTunnel, GenesisOnlyRecoveryStillDeliversEverything) {
  // checkpoint_interval = 0: every restart is COLD, so delivery relies
  // entirely on ack-commit ("no checkpoint => nothing ever acknowledged")
  // plus the session resync handshake.
  TunnelRecoveryOptions recovery;
  recovery.checkpoint_interval = 0;
  CrashSchedule crashes;
  crashes.crash_egress = true;
  crashes.seed = 44;
  crashes.max_crashes = 1;
  RecoverableRun run =
      RunRecoverableTunnel(60, FaultSpec{}, 0, crashes, recovery);
  ASSERT_GT(run.egress.crashes, 0u);
  EXPECT_EQ(run.egress.cold_starts, run.egress.crashes);
  EXPECT_GT(run.egress_cold, 0u);
  EXPECT_EQ(run.got, run.sent);
}

// --- resync edges (satellite: retransmit storm / both endpoints / give-up) ---

TEST(ResyncEdges, RestartDuringRetransmitStorm) {
  // A severed wire puts the tunnel sender into a full retransmit storm;
  // the ingress then crashes mid-storm. After the wire heals and the node
  // restarts, the stream must still complete byte-identically.
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(40, 7));
  const int dst = net.AddNode(std::make_unique<WordSink>());
  const RecoverableTunnel tunnel =
      SpliceRecoverableTunnel(net, src, dst, {}, {}, 64, 2);
  FaultSpec severed;
  severed.drop_percent = 100;
  net.InjectFaults(tunnel.data_link, severed, 1);
  net.Run(200);  // storm builds: every data frame dies on the wire
  EXPECT_GT(TunnelIngress(net, tunnel).tunnel_sender().stats().retransmits, 0u);
  const std::uint64_t storm_retransmits =
      TunnelIngress(net, tunnel).tunnel_sender().stats().retransmits;

  net.CrashNow(tunnel.ingress_node, /*restart_delay=*/8);
  net.ClearFaults(tunnel.data_link);  // the wire heals while the node is down
  net.Run(20000);

  const auto& got = static_cast<WordSink&>(net.process(dst)).got();
  const auto& sent = static_cast<WordSource&>(net.process(src)).words();
  EXPECT_EQ(got, sent);
  // Monotone across recovery: the restored sender only ever ADDS to the
  // stats the observer saw before the crash.
  EXPECT_GE(TunnelIngress(net, tunnel).tunnel_sender().stats().retransmits,
            storm_retransmits);
}

TEST(ResyncEdges, SimultaneousRestartOfBothEndpoints) {
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(60, 7));
  const int dst = net.AddNode(std::make_unique<WordSink>());
  const RecoverableTunnel tunnel =
      SpliceRecoverableTunnel(net, src, dst, {}, {}, 64, 2);
  net.ScheduleCrash(tunnel.ingress_node, /*at=*/40, /*restart_delay=*/10);
  net.ScheduleCrash(tunnel.egress_node, /*at=*/40, /*restart_delay=*/14);
  net.Run(20000);
  EXPECT_EQ(net.node_status(tunnel.ingress_node).crashes, 1u);
  EXPECT_EQ(net.node_status(tunnel.egress_node).crashes, 1u);
  EXPECT_EQ(static_cast<WordSink&>(net.process(dst)).got(),
            static_cast<WordSource&>(net.process(src)).words());
}

TEST(ResyncEdges, GiveUpThenRestartRevivesTheLine) {
  // The tunnel sender gives up on a severed wire (max_retries exceeded);
  // the egress endpoint then restarts and SYNREQs. The revived sender must
  // finish the stream.
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(30, 7));
  const int dst = net.AddNode(std::make_unique<WordSink>());
  ReliableConfig config;
  config.max_retries = 3;
  const RecoverableTunnel tunnel =
      SpliceRecoverableTunnel(net, src, dst, config, {}, 64, 2);
  FaultSpec severed;
  severed.drop_percent = 100;
  net.InjectFaults(tunnel.data_link, severed, 1);
  net.Run(3000);  // long enough to exhaust max_retries and give up
  ASSERT_TRUE(TunnelIngress(net, tunnel).tunnel_sender().dead());
  ASSERT_EQ(TunnelIngress(net, tunnel).tunnel_sender().stats().gave_up, 1u);

  net.ClearFaults(tunnel.data_link);
  net.CrashNow(tunnel.egress_node, /*restart_delay=*/6);
  net.Run(20000);

  EXPECT_FALSE(TunnelIngress(net, tunnel).tunnel_sender().dead());
  EXPECT_GT(TunnelIngress(net, tunnel).tunnel_sender().stats().revivals, 0u);
  EXPECT_EQ(static_cast<WordSink&>(net.process(dst)).got(),
            static_cast<WordSource&>(net.process(src)).words());
}

TEST(ResyncEdges, RetransmitCountersStayMonotoneAcrossRecovery) {
  Network net;
  const int src = net.AddNode(std::make_unique<WordSource>(100, 7));
  const int dst = net.AddNode(std::make_unique<WordSink>());
  const RecoverableTunnel tunnel =
      SpliceRecoverableTunnel(net, src, dst, {}, {}, 64, 2);
  net.InjectFaults(tunnel.data_link, FaultSpec::DropCorrupt(15), 9);
  NodeFaultSpec spec;
  spec.crash_percent = 2;
  spec.max_crashes = 3;
  net.InjectNodeFaults(tunnel.ingress_node, spec, 5);

  std::uint64_t prev_retransmits = 0;
  std::uint64_t prev_timeouts = 0;
  std::uint64_t prev_accepted = 0;
  for (int chunk = 0; chunk < 40; ++chunk) {
    net.Run(500);
    const ReliableSenderStats& tx = TunnelIngress(net, tunnel).tunnel_sender().stats();
    const ReliableReceiverStats& rx = TunnelEgress(net, tunnel).tunnel_receiver().stats();
    EXPECT_GE(tx.retransmits, prev_retransmits) << "chunk " << chunk;
    EXPECT_GE(tx.timeouts, prev_timeouts) << "chunk " << chunk;
    EXPECT_GE(rx.accepted, prev_accepted) << "chunk " << chunk;
    prev_retransmits = tx.retransmits;
    prev_timeouts = tx.timeouts;
    prev_accepted = rx.accepted;
  }
  EXPECT_GT(net.node_status(tunnel.ingress_node).crashes, 0u);
  EXPECT_EQ(static_cast<WordSink&>(net.process(dst)).got(),
            static_cast<WordSource&>(net.process(src)).words());
}

// --- the negative fixture ----------------------------------------------------

TEST(NegativeFixture, BrokenAckCommitLosesDataUnderCrashes) {
  // With the write-ahead rule OFF, the egress acknowledges data before its
  // checkpoint covers it; the ingress drops those segments from its window,
  // and a crash rolls the egress back to a state nobody can refill. The
  // stream comes out wrong — this is the deliberate breakage the chaos
  // sweep (chaos_run --break-resync) must catch.
  TunnelRecoveryOptions broken;
  broken.ack_commit = false;
  bool any_loss = false;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    CrashSchedule crashes;
    crashes.crash_egress = true;
    crashes.seed = seed;
    crashes.crash_percent = 2;
    crashes.max_crashes = 3;
    RecoverableRun run = RunRecoverableTunnel(120, FaultSpec{}, 0, crashes, broken,
                                              /*steps=*/20000);
    if (run.egress.crashes > 0 && run.got != run.sent) {
      any_loss = true;
      break;
    }
  }
  EXPECT_TRUE(any_loss) << "breaking ack-commit should corrupt at least one schedule";
}

// --- E18: the SNFE pair across machine crashes -------------------------------

struct SnfePairRun {
  std::vector<Frame> sent;
  std::vector<Frame> got;
  std::uint64_t crashes = 0;
};

SnfePairRun RunSnfePairRecoverable(const FaultSpec& wire, std::uint64_t wire_seed,
                                   bool crash_endpoints, std::uint64_t crash_seed,
                                   std::size_t steps = 120000) {
  Network net;
  SnfeRecoverableTopology topo = BuildSnfePairRecoverable(
      net, CensorStrictness::kSyntax, wire, wire_seed, {}, /*packet_count=*/8);
  if (crash_endpoints) {
    InjectCrashChaos(net, topo.tunnel, crash_seed);
  }
  net.Run(steps);

  SnfePairRun run;
  run.sent = static_cast<HostSource&>(net.process(topo.pair.transmit.host)).packets();
  run.got = static_cast<HostSink&>(net.process(topo.pair.host_rx)).packets();
  run.crashes = net.node_status(topo.tunnel.ingress_node).crashes +
                net.node_status(topo.tunnel.egress_node).crashes;
  return run;
}

TEST(SnfeAcrossCrashes, CleanRecoverableNetworkDeliversEveryPacket) {
  SnfePairRun run = RunSnfePairRecoverable(FaultSpec{}, 1, /*crash_endpoints=*/false, 0);
  ASSERT_EQ(run.got.size(), run.sent.size());
  for (std::size_t i = 0; i < run.sent.size(); ++i) {
    EXPECT_EQ(run.got[i].fields, run.sent[i].fields) << "packet " << i;
  }
}

TEST(SnfeAcrossCrashes, HostStreamSurvivesCrashesOfEitherNetworkEndpoint) {
  // E18 for the SNFE pair: three distinct seeded crash/restart schedules on
  // the network relays, each combined with 20% drop+corrupt wire chaos; the
  // receiving host's cleartext stream must be byte-identical every time.
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    SnfePairRun run = RunSnfePairRecoverable(FaultSpec::DropCorrupt(20), 700 + seed,
                                             /*crash_endpoints=*/true, seed);
    ASSERT_GT(run.crashes, 0u) << "seed " << seed;
    ASSERT_EQ(run.got.size(), run.sent.size()) << "seed " << seed;
    for (std::size_t i = 0; i < run.sent.size(); ++i) {
      EXPECT_EQ(run.got[i].fields, run.sent[i].fields) << "seed " << seed << " packet " << i;
    }
  }
}

// --- E18: the guard across machine crashes -----------------------------------

// The guard's released HIGH->LOW channel rides a recoverable tunnel: the
// Security Watch Officer's verdicts must reach LOW byte-identically even
// when the machines carrying them die.
std::vector<std::string> RunGuardOverRecoverableTunnel(bool chaos, std::uint64_t seed) {
  Network net;
  auto guard_owned = std::make_unique<Guard>(DefaultWatchOfficer);
  const int guard_node = net.AddNode(std::move(guard_owned));
  const int low_src = net.AddNode(std::make_unique<MessageSource>(
      "low-sys", std::vector<std::string>{"status report 1"}));
  const int high_src = net.AddNode(std::make_unique<MessageSource>(
      "high-sys", std::vector<std::string>{"UNCLAS:weather is fine",
                                           "REVIEW:convoy at grid 1234 5678",
                                           "TOP SECRET battle plan",
                                           "UNCLAS:supply convoy arrived"}));
  auto low_sink_owned = std::make_unique<MessageSink>("low-sink");
  MessageSink* low_sink = low_sink_owned.get();
  const int low_sink_node = net.AddNode(std::move(low_sink_owned));
  const int high_sink_node = net.AddNode(std::make_unique<MessageSink>("high-sink"));

  net.Connect(low_src, guard_node);   // guard in0 = from LOW
  net.Connect(high_src, guard_node);  // guard in1 = from HIGH
  // guard out0 (to LOW) runs through the crash-survivable pipeline.
  const RecoverableTunnel tunnel =
      SpliceRecoverableTunnel(net, guard_node, low_sink_node, {}, {}, 64, 2, "guard-low");
  net.Connect(guard_node, high_sink_node);  // guard out1 = to HIGH

  if (chaos) {
    net.InjectFaults(tunnel.data_link, FaultSpec::DropCorrupt(20), seed * 131);
    net.InjectFaults(tunnel.ack_link, FaultSpec::DropCorrupt(20), seed * 131 + 7);
    InjectCrashChaos(net, tunnel, seed);
  }
  net.Run(80000);
  if (chaos) {
    EXPECT_GT(net.node_status(tunnel.ingress_node).crashes +
                  net.node_status(tunnel.egress_node).crashes,
              0u)
        << "seed " << seed << " scheduled no crashes";
  }
  return low_sink->received();
}

TEST(GuardAcrossCrashes, ReleasedMessagesSurviveTunnelEndpointCrashes) {
  const std::vector<std::string> baseline =
      RunGuardOverRecoverableTunnel(/*chaos=*/false, 0);
  // Sanity on the scenario itself: both UNCLAS releases and the redaction
  // made it; the TOP SECRET message did not.
  ASSERT_EQ(baseline.size(), 3u);
  EXPECT_EQ(baseline[0], "UNCLAS:weather is fine");
  EXPECT_EQ(baseline[1], "convoy at grid #### ####");
  EXPECT_EQ(baseline[2], "UNCLAS:supply convoy arrived");

  for (std::uint64_t seed : {41u, 42u, 43u}) {
    EXPECT_EQ(RunGuardOverRecoverableTunnel(/*chaos=*/true, seed), baseline)
        << "seed " << seed;
  }
}

// --- E17 across a crash/restart boundary (kernelized node) -------------------

// Same interrupt-driven echo guest as obs_trace_equivalence_test.cpp: its
// canonical colour-0 trace is the E17 yardstick.
constexpr char kEcho[] = R"(
        .EQU DEV, 0xE000
START:  CLR R0
        MOV #HANDLER, R1
        TRAP 4          ; SETVEC
        MOV #DEV, R4
        MOV #0x40, (R4) ; RCSR IE
LOOP:   TRAP 6          ; AWAIT
        BR LOOP
HANDLER:
        MOV #DEV, R4
        MOV 1(R4), R2   ; RBUF
        INC R2
WAITTX: MOV 2(R4), R3   ; XCSR
        BIT #0x80, R3
        BEQ WAITTX
        MOV R2, 3(R4)   ; XBUF
        TRAP 5          ; RETI
)";

std::unique_ptr<KernelizedSystem> BuildEchoNode(const std::vector<Word>& stimulus,
                                                int* slot_out) {
  SystemBuilder builder;
  const int slot =
      builder.AddDevice(std::make_unique<SerialLine>("slu0", 16, 4, /*transmit_delay=*/2));
  Result<int> regime = builder.AddRegime("guest0", 512, kEcho, {slot});
  EXPECT_TRUE(regime.ok()) << (regime.ok() ? "" : regime.error());
  Result<std::unique_ptr<KernelizedSystem>> system = builder.Build();
  EXPECT_TRUE(system.ok()) << (system.ok() ? "" : system.error());
  for (Word w : stimulus) {
    (*system)->machine().device(slot).InjectInput(w);
  }
  *slot_out = slot;
  return std::move(*system);
}

struct EchoRun {
  std::string canonical;
  std::vector<Word> output;
  KernelNodeSupervisor::Stats stats;
};

EchoRun RunEchoUninterrupted(const std::vector<Word>& stimulus, std::size_t steps) {
  int slot = -1;
  std::unique_ptr<KernelizedSystem> system = BuildEchoNode(stimulus, &slot);
  obs::Recorder().Start(std::size_t{1} << 16);
  system->Run(steps);
  obs::Recorder().Stop();
  EchoRun run;
  run.canonical = obs::CanonicalColourTrace(obs::Recorder().Drain(), 0);
  run.output = system->machine().device(slot).DrainOutput();
  return run;
}

// Runs the same node under the supervisor, crashing it after each prefix in
// `crash_after_steps`, then running `tail_steps` more to finish the work.
EchoRun RunEchoSupervised(const std::vector<Word>& stimulus, std::size_t checkpoint_interval,
                          const std::vector<std::size_t>& crash_after_steps,
                          std::size_t tail_steps) {
  int slot = -1;
  std::unique_ptr<KernelizedSystem> system = BuildEchoNode(stimulus, &slot);
  obs::Recorder().Start(std::size_t{1} << 16);
  KernelNodeSupervisor supervisor(*system, {checkpoint_interval});
  for (std::size_t steps : crash_after_steps) {
    supervisor.Run(steps);
    EXPECT_TRUE(supervisor.Crash());
  }
  supervisor.Run(tail_steps);
  supervisor.Seal();
  obs::Recorder().Stop();
  obs::Recorder().Drain();  // discard whatever trails the sealed log
  EchoRun run;
  run.canonical = obs::CanonicalColourTrace(supervisor.committed_events(), 0);
  run.output = system->machine().device(slot).DrainOutput();
  run.stats = supervisor.stats();
  return run;
}

TEST(TraceAcrossCrash, WarmRecoveryPreservesCanonicalTraceAndOutput) {
  const std::vector<Word> stimulus = {10, 20, 30, 40};
  const EchoRun alone = RunEchoUninterrupted(stimulus, 30000);
  ASSERT_EQ(alone.output, (std::vector<Word>{11, 21, 31, 41}));
  ASSERT_NE(alone.canonical.find("irq-deliver"), std::string::npos);

  const EchoRun crashed =
      RunEchoSupervised(stimulus, /*checkpoint_interval=*/512, {4096, 9216}, 30000);
  EXPECT_EQ(crashed.stats.crashes, 2u);
  EXPECT_EQ(crashed.stats.warm_restores, 2u);
  EXPECT_GT(crashed.stats.checkpoints, 0u);

  // The E18 demand on E17: byte-identical canonical trace AND byte-identical
  // device output across the crash/restart boundary.
  EXPECT_EQ(crashed.canonical, alone.canonical)
      << "crashed:\n" << crashed.canonical << "\nalone:\n" << alone.canonical;
  EXPECT_EQ(crashed.output, alone.output);
}

TEST(TraceAcrossCrash, ColdRestartFromGenesisPreservesCanonicalTraceAndOutput) {
  const std::vector<Word> stimulus = {7, 8, 9};
  const EchoRun alone = RunEchoUninterrupted(stimulus, 30000);
  ASSERT_EQ(alone.output, (std::vector<Word>{8, 9, 10}));

  // checkpoint_interval=0: no checkpoint ever exists, the crash rolls all
  // the way back to the boot image and re-runs the node from scratch.
  const EchoRun crashed = RunEchoSupervised(stimulus, /*checkpoint_interval=*/0, {3000}, 30000);
  EXPECT_EQ(crashed.stats.cold_restarts, 1u);
  EXPECT_EQ(crashed.stats.checkpoints, 0u);
  EXPECT_EQ(crashed.canonical, alone.canonical);
  EXPECT_EQ(crashed.output, alone.output);
}

TEST(TraceAcrossCrash, NaiveLoggingWithoutCommitProtocolDoubleCountsReplay) {
  // Negative control: record the trace WITHOUT the supervisor's write-ahead
  // commit/discard protocol. The rollback then replays a window of events
  // that were already logged, and the canonical trace must differ — if it
  // did not, the commit protocol would be dead weight.
  const std::vector<Word> stimulus = {10, 20, 30, 40};
  const EchoRun alone = RunEchoUninterrupted(stimulus, 30000);

  int slot = -1;
  std::unique_ptr<KernelizedSystem> system = BuildEchoNode(stimulus, &slot);
  std::vector<obs::TraceEvent> naive_log;
  const auto drain_into_log = [&naive_log] {
    std::vector<obs::TraceEvent> drained = obs::Recorder().Drain();
    naive_log.insert(naive_log.end(), drained.begin(), drained.end());
    std::size_t observable = 0;
    for (const obs::TraceEvent& e : drained) {
      observable += obs::ColourObservable(e.code) ? 1 : 0;
    }
    return observable;
  };

  obs::Recorder().Start(std::size_t{1} << 16);
  system->Run(40);  // snapshot early, before the echo work completes
  drain_into_log();
  const std::optional<std::vector<Word>> snapshot = system->FullState();
  ASSERT_TRUE(snapshot.has_value());
  system->Run(4000);
  // The doomed window must contain observable events or the control is vacuous.
  ASSERT_GT(drain_into_log(), 0u);
  ASSERT_TRUE(system->RestoreFullState(*snapshot));
  system->Run(30000);
  drain_into_log();
  obs::Recorder().Stop();
  const std::string naive = obs::CanonicalColourTrace(naive_log, 0);

  EXPECT_NE(naive, alone.canonical);
  EXPECT_GT(naive.size(), alone.canonical.size());  // replayed events logged twice
}

}  // namespace
}  // namespace sep
