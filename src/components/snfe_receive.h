// The receive side of the SNFE pair: "end-to-end encryption around the
// network" (paper Section 2) needs a front end on BOTH sides. The receive
// path mirrors the transmit path:
//
//   net === [ BLACK-RX ] ---cipher---> [ CRYPTO ] ---clear---> [ RED-RX ] === host
//               |                                                  ^
//               +------ bypass -----> [ CENSOR ] -----------------+
//
// The black receiver splits each network packet into its header (sent over
// the RECEIVE bypass toward the red side, again mediated by a censor — the
// network side must not be able to push arbitrary data at the host either)
// and its ciphertext payload (through the crypto, which decrypts). The red
// receiver re-assembles host packets.
//
// Because the stream cipher is XOR with a counted keystream, the receive
// crypto box is the same CryptoBox component keyed identically: the paper's
// symmetric crypto pair.
#ifndef SRC_COMPONENTS_SNFE_RECEIVE_H_
#define SRC_COMPONENTS_SNFE_RECEIVE_H_

#include "src/components/snfe.h"
#include "src/distributed/faults.h"
#include "src/distributed/recoverable.h"
#include "src/distributed/reliable.h"

namespace sep {

// Splits incoming kPktNet frames: header -> bypass (port 1, as kPktHdr),
// ciphertext -> crypto (port 0, as kPktPayload so the shared CryptoBox
// transforms it — XOR decryption).
class BlackReceiver : public Process {
 public:
  BlackReceiver() = default;
  std::string name() const override { return "black-rx"; }
  void Step(NodeContext& ctx) override;

 private:
  FrameReader from_network_;
  FrameWriter to_crypto_;
  FrameWriter to_bypass_;
};

// Pairs censored headers (port 0) with decrypted payloads (port 1) back
// into kPktHost frames for the receiving host.
class RedReceiver : public Process {
 public:
  RedReceiver() = default;
  std::string name() const override { return "red-rx"; }
  void Step(NodeContext& ctx) override;

 private:
  FrameReader from_censor_;
  FrameReader from_crypto_;
  FrameWriter to_host_;
  std::deque<Frame> headers_;
  std::deque<Frame> payloads_;
};

// Collects the packets delivered to the receiving host.
class HostSink : public Process {
 public:
  HostSink() = default;
  std::string name() const override { return "host-rx"; }
  void Step(NodeContext& ctx) override;

  const std::vector<Frame>& packets() const { return packets_; }

 private:
  FrameReader reader_;
  std::vector<Frame> packets_;
};

struct SnfePairTopology {
  SnfeTopology transmit;
  int black_rx = -1;
  int crypto_rx = -1;
  int censor_rx = -1;
  int red_rx = -1;
  int host_rx = -1;
};

// Builds a full transmit SNFE, a network hop, and a receive SNFE sharing
// the crypto key: the complete end-to-end encrypted path host -> host.
SnfePairTopology BuildSnfePair(Network& net, CensorStrictness strictness, int packet_count = 16,
                               std::uint64_t key = 0xC0FFEE);

// The SNFE pair with a REAL network in the middle: the black->black-rx hop
// runs through a reliable tunnel (src/distributed/reliable.h) whose data and
// ACK lines carry the given fault schedule. With any fault rate the protocol
// tolerates, the receiving host's packet stream is byte-identical to the
// fault-free run — the chaos acceptance property.
struct SnfeLossyTopology {
  SnfePairTopology pair;
  ReliableTunnel tunnel;
};

SnfeLossyTopology BuildSnfePairReliable(Network& net, CensorStrictness strictness,
                                        const FaultSpec& net_faults, std::uint64_t fault_seed,
                                        int packet_count = 16, std::uint64_t key = 0xC0FFEE,
                                        const ReliableConfig& reliable = {});

// The SNFE pair with a CRASH-SURVIVABLE network in the middle: the
// black->black-rx hop runs through a recoverable tunnel
// (src/distributed/recoverable.h) whose two crashable endpoints may be
// killed with ScheduleCrash / InjectNodeFaults while the data and ACK lines
// carry the given wire-fault schedule. Experiment E18: for any crash
// schedule the endpoints recover from, the receiving host's packet stream
// is byte-identical to the undisturbed run.
struct SnfeRecoverableTopology {
  SnfePairTopology pair;
  RecoverableTunnel tunnel;
};

SnfeRecoverableTopology BuildSnfePairRecoverable(Network& net, CensorStrictness strictness,
                                                 const FaultSpec& net_faults,
                                                 std::uint64_t fault_seed,
                                                 const TunnelRecoveryOptions& recovery = {},
                                                 int packet_count = 16,
                                                 std::uint64_t key = 0xC0FFEE,
                                                 const ReliableConfig& reliable = {});

// E18's crash-chaos schedule, the one `chaos_run --seed-range` sweeps: the
// recoverable pair's wire faults are drawn from CrashChaosWireSeed(seed),
// and InjectCrashChaos lets both tunnel endpoints crash in 1% of their
// quanta, at most twice each, and restart 4-24 ticks later, drawn from
// `seed`.
constexpr std::uint64_t CrashChaosWireSeed(std::uint64_t seed) { return seed ^ 0xD00DULL; }
void InjectCrashChaos(Network& net, const RecoverableTunnel& tunnel, std::uint64_t seed);

}  // namespace sep

#endif  // SRC_COMPONENTS_SNFE_RECEIVE_H_
