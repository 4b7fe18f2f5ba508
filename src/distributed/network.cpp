#include "src/distributed/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/base/strings.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

void NoteCrash(int node, Tick now, Tick restart_delay) {
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kNet, obs::Code::kNetNodeCrash, obs::kColourKernel, now,
              static_cast<Word>(node), static_cast<Word>(restart_delay & 0xFFFF));
  }
}

void NoteRestore(int node, Tick now, bool cold) {
  if (obs::Enabled()) {
    obs::Emit(obs::Category::kNet, obs::Code::kNetNodeRestore, obs::kColourKernel, now,
              static_cast<Word>(node), cold ? 1 : 0);
  }
}

}  // namespace

void NodeContext::ThrowNoSuchPort(int port, std::size_t ports) {
  throw std::out_of_range(Format("NodeContext: no port %d (the node has %zu)", port, ports));
}

bool Link::Push(Word w, Tick now) {
  if (Space() == 0) {
    return false;
  }
  const Tick base_at = now + latency_;
  if (!faults_) {
    Enqueue(w, base_at);
    return true;
  }
  const FaultPlan::Decision d = faults_->Decide();
  if (d.drop) {
    return true;  // accepted by the wire, lost in flight
  }
  const Word v = static_cast<Word>(w ^ d.corrupt_mask);
  Enqueue(v, base_at + d.extra_delay);
  if (d.reorder && in_flight_.size() >= 2) {
    // The new word overtakes its predecessor: swap the two words while each
    // keeps its delivery slot, so the earlier slot now carries the newer word.
    std::swap(in_flight_[in_flight_.size() - 1].word, in_flight_[in_flight_.size() - 2].word);
  }
  if (d.duplicate) {
    // The echo ignores capacity accounting — see Link::Space().
    Enqueue(v, base_at + d.extra_delay + 1);
  }
  return true;
}

void Link::Advance(Tick now) {
  if (next_due_ > now) {
    return;
  }
  Tick next_due = kNothingDue;
  std::size_t kept = 0;
  for (std::size_t i = 0; i < in_flight_.size(); ++i) {
    const InFlight flight = in_flight_[i];
    if (flight.deliver_at <= now) {
      ready_.push_back(flight.word);
    } else {
      in_flight_[kept++] = flight;
      next_due = std::min(next_due, flight.deliver_at);
    }
  }
  in_flight_.resize(kept);
  next_due_ = next_due;
}

int Network::AddNode(std::unique_ptr<Process> process) {
  Node node;
  node.process = std::move(process);
  nodes_.push_back(std::move(node));
  return static_cast<int>(nodes_.size()) - 1;
}

int Network::Connect(int from, int to, std::size_t capacity, Tick latency,
                     const std::string& name) {
  const int id = static_cast<int>(links_.size());
  std::string link_name = name.empty()
                              ? Format("%s->%s", nodes_[static_cast<std::size_t>(from)]
                                                     .process->name()
                                                     .c_str(),
                                       nodes_[static_cast<std::size_t>(to)].process->name().c_str())
                              : name;
  links_.push_back(std::make_unique<Link>(link_name, capacity, latency));
  nodes_[static_cast<std::size_t>(from)].out_links.push_back(links_.back().get());
  nodes_[static_cast<std::size_t>(to)].in_links.push_back(links_.back().get());
  edges_.push_back(Edge{from, to, link_name});
  return id;
}

bool Network::Step() {
  ++now_;
  for (auto& link : links_) {
    link->Advance(now_);
  }
  bool any_alive = false;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    Node& node = nodes_[i];
    // A dead node counts as alive — the run must not terminate while a
    // restart is pending — but executes nothing until its delay elapses.
    if (!node.status.up) {
      any_alive = true;
      if (now_ >= node.status.down_until) {
        RestartNode(node, static_cast<int>(i));
      }
      continue;  // the restart tick itself is spent rebooting, not stepping
    }
    if (node.process->Finished()) {
      continue;
    }
    any_alive = true;
    // Scripted crashes fire at the start of the quantum: the node never
    // executes the tick it dies on.
    if (!node.scripted_crashes.empty()) {
      auto due = std::find_if(node.scripted_crashes.begin(), node.scripted_crashes.end(),
                              [this](const Node::ScriptedCrash& c) { return now_ >= c.at; });
      if (due != node.scripted_crashes.end()) {
        const Tick delay = due->restart_delay;
        node.scripted_crashes.erase(due);
        CrashNode(node, static_cast<int>(i), delay);
        continue;
      }
    }
    if (node.fault_plan) {
      const NodeFaultPlan::Decision d = node.fault_plan->Decide();
      if (d.crash) {
        CrashNode(node, static_cast<int>(i), d.restart_delay);
        continue;
      }
      if (d.stall_ticks > 0) {
        node.status.stalled_until = now_ + d.stall_ticks;
        ++node.status.stalls;
      }
    }
    if (node.status.stalled_until > now_) {
      continue;  // frozen, state intact
    }
    NodeContext ctx(node.in_links, node.out_links, now_);
    node.process->Step(ctx);
    ++node.executed_quanta;
    if (node.recoverable && node.checkpoint_interval > 0 &&
        node.executed_quanta % node.checkpoint_interval == 0) {
      TakeCheckpoint(node);
    }
  }
  return any_alive;
}

bool Network::EnableRecovery(int node, Tick checkpoint_interval) {
  Node& n = nodes_[static_cast<std::size_t>(node)];
  std::vector<Word> genesis;
  if (!n.process->Checkpoint(genesis)) {
    return false;
  }
  n.recoverable = true;
  n.checkpoint_interval = checkpoint_interval;
  n.genesis = std::move(genesis);
  n.checkpoint.reset();
  return true;
}

void Network::InjectNodeFaults(int node, const NodeFaultSpec& spec, std::uint64_t seed) {
  nodes_[static_cast<std::size_t>(node)].fault_plan = std::make_unique<NodeFaultPlan>(spec, seed);
}

void Network::ScheduleCrash(int node, Tick at, Tick restart_delay) {
  nodes_[static_cast<std::size_t>(node)].scripted_crashes.push_back({at, restart_delay});
}

void Network::CrashNow(int node, Tick restart_delay) {
  CrashNode(nodes_[static_cast<std::size_t>(node)], node, restart_delay);
}

void Network::CrashNode(Node& node, int index, Tick restart_delay) {
  node.status.up = false;
  node.status.crashed_at = now_;
  node.status.down_until = now_ + (restart_delay > 0 ? restart_delay : 1);
  node.status.stalled_until = 0;
  ++node.status.crashes;
  // Flush every incident link: words in flight to a dead port have nobody
  // listening, and words the dead incarnation pushed must not reach peers
  // as ghosts of a session that no longer exists.
  for (Link* link : node.in_links) {
    link->Reset(now_);
  }
  for (Link* link : node.out_links) {
    link->Reset(now_);
  }
  NoteCrash(index, now_, node.status.down_until - now_);
}

void Network::RestartNode(Node& node, int index) {
  // A node that was never enrolled in recovery stays down forever — there is
  // no image to rebuild it from. Its status still records the crash.
  if (!node.recoverable) {
    return;
  }
  const bool cold = !node.checkpoint.has_value();
  const std::vector<Word>& image = cold ? node.genesis : *node.checkpoint;
  if (!node.process->Restore(std::span<const Word>(image))) {
    return;  // malformed image: stay down rather than run corrupted state
  }
  if (cold) {
    node.process->OnColdRestart();
    ++node.status.cold_starts;
  } else {
    ++node.status.restores;
  }
  // In-links may have accumulated traffic addressed to the dead incarnation
  // while the node was down; the reborn process must start from silence.
  for (Link* link : node.in_links) {
    link->Reset(now_);
  }
  node.status.up = true;
  const Tick recovered_from = cold ? 0 : node.status.last_checkpoint_at;
  const Tick lost = node.status.crashed_at > recovered_from
                        ? node.status.crashed_at - recovered_from
                        : 0;
  node.status.last_recovery_ticks = lost;
  recovery_log_.push_back(NodeRecoveryEvent{index, node.status.crashed_at, now_, lost, cold});
  NoteRestore(index, now_, cold);
}

void Network::TakeCheckpoint(Node& node) {
  // The image is serialized into the node's spare buffer, which then trades
  // places with the stored checkpoint; once both have grown to the image's
  // size, checkpointing allocates nothing.
  node.checkpoint_buffer.clear();
  if (!node.process->Checkpoint(node.checkpoint_buffer)) {
    return;
  }
  if (node.checkpoint.has_value()) {
    node.checkpoint->swap(node.checkpoint_buffer);
  } else {
    node.checkpoint = std::move(node.checkpoint_buffer);
  }
  node.status.last_checkpoint_at = now_;
  ++node.status.checkpoints;
}

std::size_t Network::Run(std::size_t max_steps) {
  std::size_t steps = 0;
  while (steps < max_steps && Step()) {
    ++steps;
  }
  return steps;
}

bool Network::Reachable(int from, int to) const {
  std::vector<bool> seen(nodes_.size(), false);
  std::vector<int> frontier = {from};
  seen[static_cast<std::size_t>(from)] = true;
  while (!frontier.empty()) {
    int current = frontier.back();
    frontier.pop_back();
    if (current == to) {
      return true;
    }
    for (const Edge& edge : edges_) {
      if (edge.from == current && !seen[static_cast<std::size_t>(edge.to)]) {
        seen[static_cast<std::size_t>(edge.to)] = true;
        frontier.push_back(edge.to);
      }
    }
  }
  return false;
}

}  // namespace sep
