// The "ideal physically distributed system" of the paper's Section 2.
//
// Each trusted component runs on its own Node — a private machine — and
// communicates exclusively over explicitly-declared one-directional Links
// (the "dedicated communication lines"). There is no shared state of any
// kind between nodes: the ONLY way information moves is a declared link.
// Security analyses of component compositions can therefore enumerate the
// communication topology — which is the paper's central structural claim,
// and what experiment E1 checks for the SNFE.
//
// Execution is deterministic: Network::Step() first advances every link
// (delivering words whose latency has elapsed), then gives every node's
// process one quantum, in node order. A quantum allocates nothing of its
// own: each node's ports are fixed when Connect declares them, and a link
// with no word due returns from Advance at once.
#ifndef SRC_DISTRIBUTED_NETWORK_H_
#define SRC_DISTRIBUTED_NETWORK_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"
#include "src/distributed/faults.h"

namespace sep {

class NodeContext;

// A component: stepped cooperatively, interacts with the world only
// through its node's ports.
class Process {
 public:
  virtual ~Process() = default;
  virtual std::string name() const = 0;
  // One quantum of execution. Implementations should do a bounded amount
  // of work (e.g. handle at most a few words/frames) per call.
  virtual void Step(NodeContext& ctx) = 0;
  // True once the process will never act again (lets runs terminate early).
  virtual bool Finished() const { return false; }

  // --- crash–restart survivability ------------------------------------------
  //
  // A process that can survive a node crash serializes its COMPLETE dynamic
  // state into words (src/distributed/recovery.h helpers) and rebuilds
  // itself from such an image. Checkpoint is non-const on purpose: taking a
  // checkpoint is a commit point (e.g. a reliable receiver releases ACKs
  // only for checkpointed data — the classic write-ahead rule), so the
  // process may need to advance commit bookkeeping as part of the snapshot.
  // `out` arrives empty; the network reuses its storage from one checkpoint
  // to the next. The default "not recoverable" keeps every existing process
  // unchanged.
  virtual bool Checkpoint(std::vector<Word>& out) {
    (void)out;
    return false;
  }
  virtual bool Restore(std::span<const Word> state) {
    (void)state;
    return false;
  }
  // Called after a COLD restart — a restore from the genesis (boot) image
  // because no periodic checkpoint existed. Sessions with peers are gone;
  // this is the hook to re-handshake them (reliable-channel resync).
  virtual void OnColdRestart() {}
};

// One-directional word pipe with capacity and delivery latency. A link may
// carry an installed FaultPlan, in which case each pushed word can be
// dropped, duplicated, corrupted, reordered or further delayed — the wire's
// misbehaviour, never the endpoints'.
class Link {
 public:
  Link(std::string name, std::size_t capacity, Tick latency)
      : name_(std::move(name)), capacity_(capacity), latency_(latency) {}

  const std::string& name() const { return name_; }

  // Accepts `w` into the wire unless the link is full. With faults
  // installed, acceptance does not imply delivery.
  bool Push(Word w, Tick now);

  std::optional<Word> Pop() {
    if (ready_.empty()) {
      return std::nullopt;
    }
    Word w = ready_.front();
    ready_.pop_front();
    return w;
  }

  std::size_t ReadyCount() const { return ready_.size(); }

  // Remaining acceptance capacity, clamped: fault-injected duplication may
  // transiently push occupancy past `capacity_` (wire noise does not respect
  // buffer accounting), and the subtraction must not underflow.
  std::size_t Space() const {
    const std::size_t used = in_flight_.size() + ready_.size();
    return used >= capacity_ ? 0 : capacity_ - used;
  }

  // Moves every in-flight word whose delivery tick has come to the ready
  // queue. The link keeps the earliest delivery tick in flight, so while
  // that tick is ahead (the flight is empty, or every word in it is still
  // on the wire) Advance returns after one comparison. Otherwise one
  // stable pass moves the due words, in flight order, and closes ranks
  // behind them. Fault-injected extra delay makes delivery ticks
  // non-monotone in flight order: a delayed word is overtaken by the words
  // pushed after it and never holds them up (that would turn "delay" into
  // head-of-line blocking rather than reordering). Without faults the due
  // words are a prefix of the flight.
  void Advance(Tick now);

  // Flush: deterministically discards every word in the wire (in flight AND
  // ready). Called when an endpoint crashes — words addressed to a dead port
  // have nobody listening, and words the dead incarnation pushed must not be
  // delivered to the reborn process as ghosts. The installed FaultPlan (the
  // wire's own misbehaviour) survives a reset; only traffic dies.
  void Reset(Tick now) {
    in_flight_.clear();
    next_due_ = kNothingDue;
    ready_.clear();
    ++resets_;
    last_reset_ = now;
  }

  std::uint64_t resets() const { return resets_; }
  Tick last_reset() const { return last_reset_; }

  // --- fault injection -------------------------------------------------------

  void InstallFaults(FaultSpec spec, std::uint64_t seed) {
    faults_ = std::make_unique<FaultPlan>(spec, seed);
  }
  void ClearFaults() { faults_.reset(); }
  const FaultPlan* faults() const { return faults_.get(); }

  std::uint64_t total_pushed() const { return total_pushed_; }
  void CountPush() { ++total_pushed_; }

 private:
  struct InFlight {
    Word word;
    Tick deliver_at;
  };
  static constexpr Tick kNothingDue = std::numeric_limits<Tick>::max();

  void Enqueue(Word w, Tick deliver_at) {
    in_flight_.push_back({w, deliver_at});
    next_due_ = std::min(next_due_, deliver_at);
  }

  std::string name_;
  std::size_t capacity_;
  Tick latency_;
  std::vector<InFlight> in_flight_;  // flight order
  Tick next_due_ = kNothingDue;      // earliest deliver_at in in_flight_
  std::deque<Word> ready_;
  std::uint64_t total_pushed_ = 0;
  std::uint64_t resets_ = 0;
  Tick last_reset_ = 0;
  std::unique_ptr<FaultPlan> faults_;
};

// The services a process sees during a step: its node's ports. The context
// views the port lists its node's Connect calls built, so constructing one
// allocates nothing; it must not outlive the quantum it was made for. A
// port number the node lacks throws std::out_of_range.
class NodeContext {
 public:
  NodeContext(std::span<Link* const> in, std::span<Link* const> out, Tick now)
      : in_(in), out_(out), now_(now) {}

  int in_port_count() const { return static_cast<int>(in_.size()); }
  int out_port_count() const { return static_cast<int>(out_.size()); }

  bool Send(int port, Word w) {
    Link* link = Port(out_, port);
    if (!link->Push(w, now_)) {
      return false;
    }
    link->CountPush();
    return true;
  }

  std::optional<Word> Receive(int port) { return Port(in_, port)->Pop(); }

  std::size_t Available(int port) const { return Port(in_, port)->ReadyCount(); }
  std::size_t SendSpace(int port) const { return Port(out_, port)->Space(); }

  Tick now() const { return now_; }

 private:
  static Link* Port(std::span<Link* const> ports, int port) {
    if (port < 0 || static_cast<std::size_t>(port) >= ports.size()) {
      ThrowNoSuchPort(port, ports.size());
    }
    return ports[static_cast<std::size_t>(port)];
  }
  // Out of line, so a port access inlines to a compare and a cold call.
  [[noreturn]] static void ThrowNoSuchPort(int port, std::size_t ports);

  std::span<Link* const> in_;
  std::span<Link* const> out_;
  Tick now_;
};

// The distributed system: nodes + links + deterministic stepping.
class Network {
 public:
  // Adds a node hosting `process`; returns the node id.
  int AddNode(std::unique_ptr<Process> process);

  // Declares a link from an out-port of `from` to an in-port of `to`;
  // port numbers are assigned in declaration order per node. Returns the
  // link id.
  int Connect(int from, int to, std::size_t capacity = 64, Tick latency = 1,
              const std::string& name = "");

  // One global step. Returns false once every process is Finished.
  bool Step();

  // Runs until everything is finished or `max_steps` elapse; returns steps.
  std::size_t Run(std::size_t max_steps);

  Tick now() const { return now_; }
  int node_count() const { return static_cast<int>(nodes_.size()); }
  Process& process(int node) { return *nodes_[static_cast<std::size_t>(node)].process; }
  Link& link(int id) { return *links_[static_cast<std::size_t>(id)]; }
  int link_count() const { return static_cast<int>(links_.size()); }

  // Installs a seeded fault schedule on link `link_id`; every word pushed
  // onto that link from now on is subject to the plan. Deterministic: the
  // same (topology, workload, spec, seed) reproduces the fault history
  // bit-for-bit.
  void InjectFaults(int link_id, const FaultSpec& spec, std::uint64_t seed) {
    link(link_id).InstallFaults(spec, seed);
  }
  void ClearFaults(int link_id) { link(link_id).ClearFaults(); }

  // Observability: what the wire did to link `link_id`, or nullptr if no
  // plan is installed there.
  const FaultCounters* FaultCountersFor(int link_id) const {
    const FaultPlan* plan = links_[static_cast<std::size_t>(link_id)]->faults();
    return plan ? &plan->counters() : nullptr;
  }

  // The declared communication topology: (from, to) node pairs per link —
  // the object experiment E1 audits.
  struct Edge {
    int from;
    int to;
    std::string name;
  };
  const std::vector<Edge>& edges() const { return edges_; }

  // Transitive reachability over declared links (does information from
  // `from` have ANY declared path to `to`?).
  bool Reachable(int from, int to) const;

  // --- crash–restart survivability ------------------------------------------
  //
  // A node enrolled in recovery takes a genesis image immediately (the boot
  // state) and, if `checkpoint_interval` is nonzero, a fresh checkpoint every
  // that many executed quanta. When the node crashes — via an installed
  // NodeFaultPlan, a ScheduleCrash entry, or CrashNow — every incident link
  // is Reset (no ghosts), the node goes dark for its restart delay, and on
  // restart it is rebuilt from the newest checkpoint (warm) or the genesis
  // image (cold; OnColdRestart fires so sessions can re-handshake).

  // Everything observable about one node's health.
  struct NodeStatus {
    bool up = true;
    Tick stalled_until = 0;      // > now: frozen with state intact
    Tick down_until = 0;         // > now: dead, waiting to restart
    Tick crashed_at = 0;         // tick of the most recent crash
    Tick last_checkpoint_at = 0; // tick of the most recent checkpoint
    std::uint64_t crashes = 0;
    std::uint64_t restores = 0;     // warm restarts (from a checkpoint)
    std::uint64_t cold_starts = 0;  // restarts from the genesis image
    std::uint64_t checkpoints = 0;
    std::uint64_t stalls = 0;
    Tick last_recovery_ticks = 0;  // work lost: crashed_at - last checkpoint
  };

  // One completed crash→restart cycle, in order of occurrence.
  struct NodeRecoveryEvent {
    int node = 0;
    Tick crashed_at = 0;
    Tick restarted_at = 0;
    Tick lost_ticks = 0;  // crashed_at - checkpoint the node restarted from
    bool cold = false;    // true when no checkpoint existed (genesis restore)
  };

  // Enrols `node` in checkpoint recovery. Takes the genesis image now;
  // `checkpoint_interval` = 0 means genesis-only (every restart is cold).
  // Returns false if the process does not implement Checkpoint.
  bool EnableRecovery(int node, Tick checkpoint_interval);

  // Installs a seeded per-quantum crash/stall schedule on `node`.
  void InjectNodeFaults(int node, const NodeFaultSpec& spec, std::uint64_t seed);

  // Deterministic scripted crash: the node dies at the start of its quantum
  // on the first tick >= `at`, then restarts after `restart_delay` ticks.
  void ScheduleCrash(int node, Tick at, Tick restart_delay);

  // Immediate crash (testing hook).
  void CrashNow(int node, Tick restart_delay);

  bool NodeUp(int node) const { return nodes_[static_cast<std::size_t>(node)].status.up; }
  const NodeStatus& node_status(int node) const {
    return nodes_[static_cast<std::size_t>(node)].status;
  }
  const std::vector<NodeRecoveryEvent>& recovery_log() const { return recovery_log_; }
  const NodeFaultCounters* NodeFaultCountersFor(int node) const {
    const auto& plan = nodes_[static_cast<std::size_t>(node)].fault_plan;
    return plan ? &plan->counters() : nullptr;
  }

 private:
  struct Node {
    std::unique_ptr<Process> process;
    // Ports in declaration order; Connect appends, nothing else changes them.
    std::vector<Link*> in_links;
    std::vector<Link*> out_links;
    // Recovery state (engaged only via EnableRecovery / InjectNodeFaults).
    NodeStatus status;
    bool recoverable = false;
    Tick checkpoint_interval = 0;
    std::uint64_t executed_quanta = 0;
    std::vector<Word> genesis;
    std::optional<std::vector<Word>> checkpoint;
    std::vector<Word> checkpoint_buffer;  // the next image, swapped into `checkpoint`
    std::unique_ptr<NodeFaultPlan> fault_plan;
    struct ScriptedCrash {
      Tick at;
      Tick restart_delay;
    };
    std::vector<ScriptedCrash> scripted_crashes;
  };

  void CrashNode(Node& node, int index, Tick restart_delay);
  void RestartNode(Node& node, int index);
  void TakeCheckpoint(Node& node);

  std::vector<Node> nodes_;
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<Edge> edges_;
  std::vector<NodeRecoveryEvent> recovery_log_;
  Tick now_ = 0;
};

}  // namespace sep

#endif  // SRC_DISTRIBUTED_NETWORK_H_
