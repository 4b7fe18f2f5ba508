// Tick-exact goldens for the network simulator.
//
// Each run pins the schedule the simulator produced, not only that two runs
// of one binary agree: the tick of the host sink's last packet, the tunnel's
// sender and receiver counters, both tunnel endpoints' node status and fault
// draws, the recovery log, and both wire links' fault counters. The
// crash-chaos runs are `chaos_run --seed-range`'s schedule at 32 packets
// (InjectCrashChaos, 20% drop+corrupt). The reliable tunnel at Uniform(15),
// 8 packets, is the run that reaches the link's delay, reorder and
// duplicate paths, which drop+corrupt chaos never does. A change to Link,
// Network::Step or the reliable protocol that moves one word by one tick
// moves a line here.
#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <utility>

#include "src/base/strings.h"
#include "src/components/snfe_receive.h"

namespace sep {
namespace {

constexpr Tick kBudget = 128000;  // chaos_run's budget at 32 packets

std::string Fields(std::initializer_list<std::pair<const char*, std::uint64_t>> fields) {
  std::string out;
  for (const auto& [name, value] : fields) {
    out += Format(" %s=%llu", name, static_cast<unsigned long long>(value));
  }
  return out + "\n";
}

std::string SenderLine(const ReliableSenderStats& s) {
  return "sender" + Fields({{"segments", s.segments_sent},
                            {"retransmits", s.retransmits},
                            {"fast", s.fast_retransmits},
                            {"timeouts", s.timeouts},
                            {"acks", s.acks_received},
                            {"rejected", s.acks_rejected},
                            {"gave_up", s.gave_up},
                            {"syns", s.syns_sent},
                            {"synreqs", s.synreqs_handled},
                            {"revivals", s.revivals}});
}

std::string ReceiverLine(const ReliableReceiverStats& s) {
  return "receiver" + Fields({{"accepted", s.accepted},
                              {"dups", s.duplicates_discarded},
                              {"ooo", s.out_of_order_discarded},
                              {"corrupt", s.corrupt_discarded},
                              {"resyncs", s.resyncs},
                              {"acks", s.acks_sent},
                              {"sessions", s.session_resyncs},
                              {"synreqs", s.synreqs_sent}});
}

std::string NodeLine(const char* label, const Network& net, int node) {
  const Network::NodeStatus& s = net.node_status(node);
  const NodeFaultCounters* plan = net.NodeFaultCountersFor(node);
  return label + Fields({{"up", s.up ? 1u : 0u},
                         {"crashed_at", s.crashed_at},
                         {"down_until", s.down_until},
                         {"stalled_until", s.stalled_until},
                         {"ckpt_at", s.last_checkpoint_at},
                         {"crashes", s.crashes},
                         {"restores", s.restores},
                         {"cold", s.cold_starts},
                         {"ckpts", s.checkpoints},
                         {"stalls", s.stalls},
                         {"lost", s.last_recovery_ticks},
                         {"quanta", plan != nullptr ? plan->quanta : 0}});
}

std::string WireLine(const char* label, const Network& net, int link) {
  const FaultCounters* c = net.FaultCountersFor(link);
  if (c == nullptr) {
    return std::string(label) + " none\n";
  }
  return label + Fields({{"offered", c->offered},
                         {"dropped", c->dropped},
                         {"duplicated", c->duplicated},
                         {"corrupted", c->corrupted},
                         {"reordered", c->reordered},
                         {"delayed", c->delayed}});
}

std::string RecoveryLine(const Network& net) {
  std::string out = "recovery";
  for (const Network::NodeRecoveryEvent& e : net.recovery_log()) {
    out += Format(" %d:%llu-%llu/%llu%s", e.node, static_cast<unsigned long long>(e.crashed_at),
                  static_cast<unsigned long long>(e.restarted_at),
                  static_cast<unsigned long long>(e.lost_ticks), e.cold ? "c" : "w");
  }
  return out + "\n";
}

std::vector<Frame> Baseline(std::size_t packets) {
  Network net;
  SnfePairTopology topo =
      BuildSnfePair(net, CensorStrictness::kSyntax, static_cast<int>(packets));
  const auto& sink = static_cast<const HostSink&>(net.process(topo.host_rx));
  while (sink.packets().size() < packets && net.now() < kBudget && net.Step()) {
  }
  return sink.packets();
}

// Steps `net` one tick at a time until the sink holds every packet or the
// budget runs out; reports the tick of the last packet and whether the
// stream is byte-identical to the fault-free run.
std::string RunToLastPacket(Network& net, const HostSink& sink, std::size_t packets) {
  Tick last = 0;
  std::size_t seen = 0;
  while (seen < packets && net.now() < kBudget && net.Step()) {
    if (sink.packets().size() != seen) {
      seen = sink.packets().size();
      last = net.now();
    }
  }
  const std::vector<Frame> baseline = Baseline(packets);
  bool identical = sink.packets().size() == baseline.size();
  for (std::size_t i = 0; identical && i < baseline.size(); ++i) {
    identical = sink.packets()[i].type == baseline[i].type &&
                sink.packets()[i].fields == baseline[i].fields;
  }
  return "last_packet" +
         Fields({{"tick", last}, {"packets", seen}, {"identical", identical ? 1u : 0u}});
}

std::string CrashChaosFingerprint(std::uint64_t seed) {
  Network net;
  const SnfeRecoverableTopology topo =
      BuildSnfePairRecoverable(net, CensorStrictness::kSyntax, FaultSpec::DropCorrupt(20),
                               CrashChaosWireSeed(seed), TunnelRecoveryOptions{}, /*packets=*/32);
  InjectCrashChaos(net, topo.tunnel, seed);
  const auto& sink = static_cast<const HostSink&>(net.process(topo.pair.host_rx));
  std::string out = RunToLastPacket(net, sink, 32);
  out += SenderLine(TunnelIngress(net, topo.tunnel).tunnel_sender().stats());
  out += ReceiverLine(TunnelEgress(net, topo.tunnel).tunnel_receiver().stats());
  out += NodeLine("ingress", net, topo.tunnel.ingress_node);
  out += NodeLine("egress", net, topo.tunnel.egress_node);
  out += RecoveryLine(net);
  out += WireLine("data", net, topo.tunnel.data_link);
  out += WireLine("ack", net, topo.tunnel.ack_link);
  return out;
}

TEST(NetworkGolden, CrashChaosSeed1) {
  EXPECT_EQ(CrashChaosFingerprint(1),
            "last_packet tick=58257 packets=32 identical=1\n"
            "sender segments=416 retransmits=8219 fast=186 timeouts=848 acks=1127 rejected=1493 "
            "gave_up=0 syns=2 synreqs=0 revivals=0\n"
            "receiver accepted=416 dups=134 ooo=2232 corrupt=13831 resyncs=75921 acks=1362 "
            "sessions=0 synreqs=2\n"
            "ingress up=1 crashed_at=138 down_until=142 stalled_until=0 ckpt_at=58254 crashes=2 "
            "restores=1 cold=1 ckpts=3639 stalls=0 lost=1 quanta=58229\n"
            "egress up=1 crashed_at=132 down_until=138 stalled_until=0 ckpt_at=58245 crashes=2 "
            "restores=2 cold=0 ckpts=3639 stalls=0 lost=6 quanta=58238\n"
            "recovery 11:3-27/3c 12:104-117/8w 12:132-138/6w 11:138-142/1w\n"
            "data offered=129549 dropped=25883 duplicated=0 corrupted=20871 reordered=0 delayed=0\n"
            "ack offered=12276 dropped=2435 duplicated=0 corrupted=1958 reordered=0 delayed=0\n");
}

TEST(NetworkGolden, CrashChaosSeed2) {
  EXPECT_EQ(CrashChaosFingerprint(2),
            "last_packet tick=62978 packets=32 identical=1\n"
            "sender segments=416 retransmits=8476 fast=171 timeouts=890 acks=1097 rejected=1584 "
            "gave_up=0 syns=3 synreqs=1 revivals=0\n"
            "receiver accepted=417 dups=167 ooo=2305 corrupt=14157 resyncs=77948 acks=1381 "
            "sessions=0 synreqs=2\n"
            "ingress up=1 crashed_at=141 down_until=157 stalled_until=0 ckpt_at=62967 crashes=2 "
            "restores=2 cold=0 ckpts=3934 stalls=0 lost=7 quanta=62957\n"
            "egress up=1 crashed_at=128 down_until=140 stalled_until=0 ckpt_at=62966 crashes=2 "
            "restores=1 cold=1 ckpts=3933 stalls=0 lost=7 quanta=62942\n"
            "recovery 11:21-26/5w 12:13-37/13c 12:128-140/7w 11:141-157/7w\n"
            "data offered=133416 dropped=26755 duplicated=0 corrupted=21124 reordered=0 delayed=0\n"
            "ack offered=12447 dropped=2434 duplicated=0 corrupted=2023 reordered=0 delayed=0\n");
}

TEST(NetworkGolden, CrashChaosSeed40) {
  EXPECT_EQ(CrashChaosFingerprint(40),
            "last_packet tick=59728 packets=32 identical=1\n"
            "sender segments=416 retransmits=8121 fast=162 timeouts=859 acks=1049 rejected=1529 "
            "gave_up=0 syns=3 synreqs=1 revivals=0\n"
            "receiver accepted=417 dups=134 ooo=2201 corrupt=13698 resyncs=75035 acks=1324 "
            "sessions=0 synreqs=2\n"
            "ingress up=1 crashed_at=302 down_until=312 stalled_until=0 ckpt_at=59714 crashes=2 "
            "restores=2 cold=0 ckpts=3731 stalls=0 lost=7 quanta=59712\n"
            "egress up=1 crashed_at=191 down_until=198 stalled_until=0 ckpt_at=59720 crashes=2 "
            "restores=2 cold=0 ckpts=3731 stalls=0 lost=31 quanta=59706\n"
            "recovery 11:86-92/6w 12:168-183/8w 12:191-198/31w 11:302-312/7w\n"
            "data offered=128091 dropped=25566 duplicated=0 corrupted=20568 reordered=0 delayed=0\n"
            "ack offered=11934 dropped=2351 duplicated=0 corrupted=1974 reordered=0 delayed=0\n");
}

// Every wire fault category at 15% on both tunnel lines: delayed words
// that later words overtake, reordered pairs and duplicated echoes.
TEST(NetworkGolden, ReliableUniform15) {
  Network net;
  const SnfeLossyTopology topo =
      BuildSnfePairReliable(net, CensorStrictness::kSyntax, FaultSpec::Uniform(15),
                            /*fault_seed=*/15, /*packet_count=*/8);
  const auto& sink = static_cast<const HostSink&>(net.process(topo.pair.host_rx));
  std::string out = RunToLastPacket(net, sink, 8);
  out += SenderLine(TunnelSenderStats(net, topo.tunnel));
  out += ReceiverLine(TunnelReceiverStats(net, topo.tunnel));
  out += NodeLine("ingress", net, topo.tunnel.ingress_node);
  out += NodeLine("egress", net, topo.tunnel.egress_node);
  out += RecoveryLine(net);
  out += WireLine("data", net, topo.tunnel.data_link);
  out += WireLine("ack", net, topo.tunnel.ack_link);
  EXPECT_EQ(out,
            "last_packet tick=71783 packets=8 identical=1\n"
            "sender segments=53 retransmits=4793 fast=23 timeouts=641 acks=145 rejected=480 "
            "gave_up=0 syns=0 synreqs=0 revivals=0\n"
            "receiver accepted=53 dups=11 ooo=239 corrupt=11709 resyncs=70749 acks=245 sessions=0 "
            "synreqs=0\n"
            "ingress up=1 crashed_at=0 down_until=0 stalled_until=0 ckpt_at=0 crashes=0 "
            "restores=0 cold=0 ckpts=0 stalls=0 lost=0 quanta=0\n"
            "egress up=1 crashed_at=0 down_until=0 stalled_until=0 ckpt_at=0 crashes=0 restores=0 "
            "cold=0 ckpts=0 stalls=0 lost=0 quanta=0\n"
            "recovery\n"
            "data offered=86478 dropped=13125 duplicated=10891 corrupted=10977 reordered=11053 "
            "delayed=11073\n"
            "ack offered=2205 dropped=326 duplicated=279 corrupted=258 reordered=254 "
            "delayed=265\n");
}

}  // namespace
}  // namespace sep
