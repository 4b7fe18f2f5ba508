#include "src/components/snfe_receive.h"

namespace sep {

void BlackReceiver::Step(NodeContext& ctx) {
  from_network_.Poll(ctx, 0);
  if (std::optional<Frame> packet = from_network_.Next()) {
    if (packet->type == kPktNet && packet->fields.size() >= 3) {
      to_bypass_.Queue(Frame{kPktHdr,
                             {packet->fields[0], packet->fields[1], packet->fields[2]}});
      to_crypto_.Queue(Frame{kPktPayload,
                             {packet->fields.begin() + 3, packet->fields.end()}});
    }
  }
  to_crypto_.Flush(ctx, 0);
  to_bypass_.Flush(ctx, 1);
}

void RedReceiver::Step(NodeContext& ctx) {
  from_censor_.Poll(ctx, 0);
  while (std::optional<Frame> frame = from_censor_.Next()) {
    if (frame->type == kPktHdr && frame->fields.size() == 3) {
      headers_.push_back(*frame);
    }
  }
  from_crypto_.Poll(ctx, 1);
  while (std::optional<Frame> frame = from_crypto_.Next()) {
    if (frame->type == kPktCipher) {
      payloads_.push_back(*frame);
    }
  }
  if (!headers_.empty() && !payloads_.empty()) {
    Frame header = std::move(headers_.front());
    headers_.pop_front();
    Frame payload = std::move(payloads_.front());
    payloads_.pop_front();
    Frame host{kPktHost, {header.fields[0], header.fields[1], header.fields[2]}};
    host.fields.insert(host.fields.end(), payload.fields.begin(), payload.fields.end());
    to_host_.Queue(host);
  }
  to_host_.Flush(ctx, 0);
}

void HostSink::Step(NodeContext& ctx) {
  reader_.Poll(ctx, 0);
  while (std::optional<Frame> frame = reader_.Next()) {
    if (frame->type == kPktHost) {
      packets_.push_back(*frame);
    }
  }
}

SnfePairTopology BuildSnfePair(Network& net, CensorStrictness strictness, int packet_count,
                               std::uint64_t key) {
  SnfePairTopology topo;

  // Transmit side (like BuildSnfe, but the network line continues onward).
  topo.transmit.host = net.AddNode(std::make_unique<HostSource>(packet_count, /*seed=*/42));
  topo.transmit.red = net.AddNode(std::make_unique<RedHost>());
  topo.transmit.crypto = net.AddNode(std::make_unique<CryptoBox>(key));
  topo.transmit.censor = net.AddNode(std::make_unique<Censor>(strictness));
  topo.transmit.black = net.AddNode(std::make_unique<BlackHost>());

  // Receive side.
  topo.black_rx = net.AddNode(std::make_unique<BlackReceiver>());
  topo.crypto_rx = net.AddNode(std::make_unique<CryptoBox>(key));  // shared key: decrypts
  topo.censor_rx = net.AddNode(std::make_unique<Censor>(strictness));
  topo.red_rx = net.AddNode(std::make_unique<RedReceiver>());
  topo.host_rx = net.AddNode(std::make_unique<HostSink>());
  topo.transmit.network = topo.black_rx;  // "the network" ends at the peer

  // Transmit lines.
  net.Connect(topo.transmit.host, topo.transmit.red, 512, 1, "host-line");
  net.Connect(topo.transmit.red, topo.transmit.crypto, 512, 1, "red-crypto");
  net.Connect(topo.transmit.red, topo.transmit.censor, 512, 1, "bypass-tx");
  net.Connect(topo.transmit.censor, topo.transmit.black, 512, 1, "censor-black");
  net.Connect(topo.transmit.crypto, topo.transmit.black, 512, 1, "crypto-black");
  // The network itself.
  net.Connect(topo.transmit.black, topo.black_rx, 512, 3, "the-network");
  // Receive lines (mirrored).
  net.Connect(topo.black_rx, topo.crypto_rx, 512, 1, "blackrx-crypto");
  net.Connect(topo.black_rx, topo.censor_rx, 512, 1, "bypass-rx");
  net.Connect(topo.censor_rx, topo.red_rx, 512, 1, "censor-redrx");
  net.Connect(topo.crypto_rx, topo.red_rx, 512, 1, "crypto-redrx");
  net.Connect(topo.red_rx, topo.host_rx, 512, 1, "host-line-rx");
  return topo;
}

SnfeLossyTopology BuildSnfePairReliable(Network& net, CensorStrictness strictness,
                                        const FaultSpec& net_faults, std::uint64_t fault_seed,
                                        int packet_count, std::uint64_t key,
                                        const ReliableConfig& reliable) {
  SnfeLossyTopology topo;
  SnfePairTopology& pair = topo.pair;

  pair.transmit.host = net.AddNode(std::make_unique<HostSource>(packet_count, /*seed=*/42));
  pair.transmit.red = net.AddNode(std::make_unique<RedHost>());
  pair.transmit.crypto = net.AddNode(std::make_unique<CryptoBox>(key));
  pair.transmit.censor = net.AddNode(std::make_unique<Censor>(strictness));
  pair.transmit.black = net.AddNode(std::make_unique<BlackHost>());
  pair.black_rx = net.AddNode(std::make_unique<BlackReceiver>());
  pair.crypto_rx = net.AddNode(std::make_unique<CryptoBox>(key));
  pair.censor_rx = net.AddNode(std::make_unique<Censor>(strictness));
  pair.red_rx = net.AddNode(std::make_unique<RedReceiver>());
  pair.host_rx = net.AddNode(std::make_unique<HostSink>());
  pair.transmit.network = pair.black_rx;

  net.Connect(pair.transmit.host, pair.transmit.red, 512, 1, "host-line");
  net.Connect(pair.transmit.red, pair.transmit.crypto, 512, 1, "red-crypto");
  net.Connect(pair.transmit.red, pair.transmit.censor, 512, 1, "bypass-tx");
  net.Connect(pair.transmit.censor, pair.transmit.black, 512, 1, "censor-black");
  net.Connect(pair.transmit.crypto, pair.transmit.black, 512, 1, "crypto-black");
  // "The network" is now an adversarial medium: a reliable tunnel whose
  // data and ACK lines both misbehave per the installed fault schedule.
  topo.tunnel = SpliceReliableTunnel(net, pair.transmit.black, pair.black_rx, reliable,
                                     /*capacity=*/512, /*latency=*/3, "the-network");
  net.InjectFaults(topo.tunnel.data_link, net_faults, fault_seed);
  net.InjectFaults(topo.tunnel.ack_link, net_faults, fault_seed ^ 0x5A5A5A5A5A5A5A5AULL);
  net.Connect(pair.black_rx, pair.crypto_rx, 512, 1, "blackrx-crypto");
  net.Connect(pair.black_rx, pair.censor_rx, 512, 1, "bypass-rx");
  net.Connect(pair.censor_rx, pair.red_rx, 512, 1, "censor-redrx");
  net.Connect(pair.crypto_rx, pair.red_rx, 512, 1, "crypto-redrx");
  net.Connect(pair.red_rx, pair.host_rx, 512, 1, "host-line-rx");
  return topo;
}

SnfeRecoverableTopology BuildSnfePairRecoverable(Network& net, CensorStrictness strictness,
                                                 const FaultSpec& net_faults,
                                                 std::uint64_t fault_seed,
                                                 const TunnelRecoveryOptions& recovery,
                                                 int packet_count, std::uint64_t key,
                                                 const ReliableConfig& reliable) {
  SnfeRecoverableTopology topo;
  SnfePairTopology& pair = topo.pair;

  pair.transmit.host = net.AddNode(std::make_unique<HostSource>(packet_count, /*seed=*/42));
  pair.transmit.red = net.AddNode(std::make_unique<RedHost>());
  pair.transmit.crypto = net.AddNode(std::make_unique<CryptoBox>(key));
  pair.transmit.censor = net.AddNode(std::make_unique<Censor>(strictness));
  pair.transmit.black = net.AddNode(std::make_unique<BlackHost>());
  pair.black_rx = net.AddNode(std::make_unique<BlackReceiver>());
  pair.crypto_rx = net.AddNode(std::make_unique<CryptoBox>(key));
  pair.censor_rx = net.AddNode(std::make_unique<Censor>(strictness));
  pair.red_rx = net.AddNode(std::make_unique<RedReceiver>());
  pair.host_rx = net.AddNode(std::make_unique<HostSink>());
  pair.transmit.network = pair.black_rx;

  net.Connect(pair.transmit.host, pair.transmit.red, 512, 1, "host-line");
  net.Connect(pair.transmit.red, pair.transmit.crypto, 512, 1, "red-crypto");
  net.Connect(pair.transmit.red, pair.transmit.censor, 512, 1, "bypass-tx");
  net.Connect(pair.transmit.censor, pair.transmit.black, 512, 1, "censor-black");
  net.Connect(pair.transmit.crypto, pair.transmit.black, 512, 1, "crypto-black");
  // "The network" is an adversarial medium whose relay MACHINES die too:
  // the recoverable tunnel's crashable endpoints sit between the two black
  // sides, with the wire-fault schedule on the lossy middle.
  topo.tunnel = SpliceRecoverableTunnel(net, pair.transmit.black, pair.black_rx, reliable,
                                        recovery, /*capacity=*/512, /*latency=*/3,
                                        "the-network");
  net.InjectFaults(topo.tunnel.data_link, net_faults, fault_seed);
  net.InjectFaults(topo.tunnel.ack_link, net_faults, fault_seed ^ 0x5A5A5A5A5A5A5A5AULL);
  net.Connect(pair.black_rx, pair.crypto_rx, 512, 1, "blackrx-crypto");
  net.Connect(pair.black_rx, pair.censor_rx, 512, 1, "bypass-rx");
  net.Connect(pair.censor_rx, pair.red_rx, 512, 1, "censor-redrx");
  net.Connect(pair.crypto_rx, pair.red_rx, 512, 1, "crypto-redrx");
  net.Connect(pair.red_rx, pair.host_rx, 512, 1, "host-line-rx");
  return topo;
}

void InjectCrashChaos(Network& net, const RecoverableTunnel& tunnel, std::uint64_t seed) {
  NodeFaultSpec spec;
  spec.crash_percent = 1;
  spec.max_crashes = 2;
  spec.min_restart_delay = 4;
  spec.max_restart_delay = 24;
  net.InjectNodeFaults(tunnel.ingress_node, spec, seed);
  net.InjectNodeFaults(tunnel.egress_node, spec, seed ^ 0xFEEDULL);
}

}  // namespace sep
