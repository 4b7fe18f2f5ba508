#include "src/distributed/reliable.h"

#include <algorithm>

#include "src/base/hash.h"
#include "src/obs/trace.h"

namespace sep {

namespace {

// The one checksum fold: FNV over `count` words from `first`, folded to 16
// bits. Frames are checked where they lie, in a word array or in a deque.
template <typename Iterator>
Word FoldChecksum(Iterator first, std::size_t count) {
  Hasher hasher;
  for (std::size_t i = 0; i < count; ++i, ++first) {
    hasher.Mix(*first);
  }
  const std::uint64_t digest = hasher.digest();
  return static_cast<Word>((digest ^ (digest >> 16) ^ (digest >> 32) ^ (digest >> 48)) & 0xFFFF);
}

}  // namespace

Word RelChecksum(const Word* data, std::size_t count) { return FoldChecksum(data, count); }

// --- ReliableSender ----------------------------------------------------------

ReliableSender::ReliableSender(ReliableConfig config)
    : config_(config), rto_(config.initial_rto) {}

void ReliableSender::SerializeSegment(const Segment& segment) {
  // The frame is built in place at the tail of tx_queue_; the redundant
  // copies are copied from it.
  const std::size_t start = tx_queue_.size();
  tx_queue_.push_back(kRelData);
  tx_queue_.push_back(segment.seq);
  tx_queue_.push_back(static_cast<Word>(segment.payload.size()));
  tx_queue_.insert(tx_queue_.end(), segment.payload.begin(), segment.payload.end());
  tx_queue_.push_back(FoldChecksum(tx_queue_.begin() + static_cast<std::ptrdiff_t>(start),
                                   tx_queue_.size() - start));
  const std::size_t frame_words = tx_queue_.size() - start;
  for (int copy = 1; copy < config_.redundancy; ++copy) {
    for (std::size_t i = 0; i < frame_words; ++i) {
      const Word w = tx_queue_[start + i];
      tx_queue_.push_back(w);
    }
  }
}

void ReliableSender::HandleAck(Word cumulative) {
  bool progress = false;
  while (!window_.empty() && !SeqBefore(cumulative, window_.front().seq)) {
    window_.pop_front();
    progress = true;
  }
  if (progress) {
    retries_ = 0;
    rto_ = config_.initial_rto;
    deadline_ = 0;  // re-armed below if segments remain in flight
    dup_acks_ = 0;
    last_cum_ = cumulative;
  } else if (!window_.empty() && cumulative == last_cum_) {
    // The receiver saw SOMETHING valid but still waits for window front:
    // our in-flight copy of it was lost or mangled.
    ++dup_acks_;
  } else {
    last_cum_ = cumulative;
  }
}

void ReliableSender::RetransmitWindow() {
  tx_queue_.clear();  // retransmission supersedes any stale queued words
  for (const Segment& segment : window_) {
    SerializeSegment(segment);
    ++stats_.retransmits;
  }
}

void ReliableSender::QueueSyn(Word nonce, Word first_seq) {
  Word frame[4] = {kRelSyn, nonce, first_seq, 0};
  frame[3] = RelChecksum(frame, 3);
  for (int copy = 0; copy < std::max(1, config_.redundancy); ++copy) {
    tx_queue_.insert(tx_queue_.end(), frame, frame + 4);
  }
  ++stats_.syns_sent;
}

void ReliableSender::HandleSynReq(Word nonce) {
  if (last_synreq_nonce_.has_value() && *last_synreq_nonce_ == nonce) {
    return;  // redundant copy of a request already honoured
  }
  last_synreq_nonce_ = nonce;
  ++stats_.synreqs_handled;
  if (dead_) {
    // The peer demonstrably restarted: the line is alive again.
    dead_ = false;
    retries_ = 0;
    rto_ = config_.initial_rto;
    ++stats_.revivals;
  }
  // Echo the nonce into a disjoint space so the answering SYN cannot collide
  // with a nonce this sender used for its own cold restarts.
  pending_syn_ = static_cast<Word>(nonce | 0x8000);
  kick_ = true;
  dup_acks_ = 0;
  deadline_ = 0;
}

void ReliableSender::StartResync(Word nonce) {
  // A restart is a fresh incarnation of the line: forget the give-up verdict
  // and every timer, and replay the whole window under the new session.
  dead_ = false;
  retries_ = 0;
  rto_ = config_.initial_rto;
  deadline_ = 0;
  dup_acks_ = 0;
  tx_queue_.clear();
  kick_ = true;
  if (config_.resync) {
    pending_syn_ = nonce;
  }
}

void ReliableSender::Checkpoint(CkptWriter& w) const {
  w.Words(outbox_);
  w.U32(static_cast<std::uint32_t>(window_.size()));
  for (const Segment& segment : window_) {
    w.U16(segment.seq);
    w.Words(segment.payload);
  }
  w.U16(next_seq_);
  w.U16(last_cum_);
}

void ReliableSender::Restore(CkptReader& r) {
  r.Words(outbox_);
  const std::uint32_t count = r.U32();
  window_.clear();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    Segment segment;
    segment.seq = r.U16();
    r.Words(segment.payload);
    segment.queued = true;  // its wire words died with the old incarnation
    window_.push_back(std::move(segment));
  }
  next_seq_ = r.U16();
  last_cum_ = r.U16();
  tx_queue_.clear();
  ack_rx_.clear();
  rto_ = config_.initial_rto;
  deadline_ = 0;
  retries_ = 0;
  dup_acks_ = 0;
  dead_ = false;
  kick_ = true;  // retransmit the restored window as soon as possible
}

void ReliableSender::Pump(NodeContext& ctx, int data_out_port, int ack_in_port) {
  // 1. Ingest cumulative ACKs (the reverse line is lossy too: frames can be
  // corrupt or missing; the checksum rejects mangled ones and retransmission
  // covers lost ones).
  while (std::optional<Word> w = ctx.Receive(ack_in_port)) {
    ack_rx_.push_back(*w);
  }
  while (!ack_rx_.empty()) {
    if (ack_rx_.front() == kRelSynReq) {
      // Peer restart announcement: [kRelSynReq, nonce, checksum].
      if (ack_rx_.size() < 3) {
        break;
      }
      if (FoldChecksum(ack_rx_.begin(), 2) != ack_rx_[2]) {
        ack_rx_.pop_front();
        ++stats_.acks_rejected;
        continue;
      }
      HandleSynReq(ack_rx_[1]);
      ack_rx_.erase(ack_rx_.begin(), ack_rx_.begin() + 3);
      continue;
    }
    if (ack_rx_.front() != kRelAck) {
      ack_rx_.pop_front();
      continue;
    }
    if (ack_rx_.size() < 3) {
      break;
    }
    if (FoldChecksum(ack_rx_.begin(), 2) != ack_rx_[2]) {
      ack_rx_.pop_front();
      ++stats_.acks_rejected;
      continue;
    }
    HandleAck(ack_rx_[1]);
    ++stats_.acks_received;
    ack_rx_.erase(ack_rx_.begin(), ack_rx_.begin() + 3);
  }

  if (dead_) {
    return;  // the line was declared dead; nothing more will be sent
  }

  // 1b. Session restart: announce the new session (SYN first on the wire),
  // then replay the whole window under it. Waits for the tx queue to drain
  // so an in-progress frame is never truncated.
  if ((pending_syn_.has_value() || kick_) && tx_queue_.empty()) {
    if (pending_syn_.has_value()) {
      QueueSyn(*pending_syn_, window_.empty() ? next_seq_ : window_.front().seq);
      pending_syn_.reset();
    }
    if (kick_) {
      kick_ = false;
      for (const Segment& segment : window_) {
        SerializeSegment(segment);
        ++stats_.retransmits;
      }
      if (!window_.empty()) {
        deadline_ = ctx.now() + rto_;
      }
    }
  }

  // 2. Pack queued payload words into new segments while the window allows.
  while (!outbox_.empty() && window_.size() < config_.window_segments) {
    Segment segment;
    segment.seq = next_seq_++;
    while (!outbox_.empty() && segment.payload.size() < config_.max_segment_words) {
      segment.payload.push_back(outbox_.front());
      outbox_.pop_front();
    }
    window_.push_back(std::move(segment));
  }

  // 3. First transmission of any segment not yet serialized.
  for (Segment& segment : window_) {
    if (!segment.queued) {
      SerializeSegment(segment);
      segment.queued = true;
      ++stats_.segments_sent;
    }
  }
  if (!window_.empty() && deadline_ == 0) {
    deadline_ = ctx.now() + rto_;
  }

  // 4. Fast retransmit: duplicate cumulative ACKs prove the line is alive
  // and the window front is missing; resend at round-trip cadence instead
  // of waiting out the timer. Only when the previous round has fully left
  // our queue, so a frame is never truncated mid-flush. The threshold must
  // exceed redundancy-1: every ACK group arrives as `redundancy` copies,
  // and the echo copies of a PROGRESS ack must not look like losses.
  if (dup_acks_ >= std::max(2, config_.redundancy) && !window_.empty() &&
      tx_queue_.empty()) {
    dup_acks_ = 0;
    ++stats_.fast_retransmits;
    if (obs::Enabled()) {
      obs::Emit(obs::Category::kNet, obs::Code::kNetRetransmit, obs::kColourKernel, ctx.now(),
                static_cast<Word>(window_.size()), window_.front().seq);
    }
    RetransmitWindow();
    deadline_ = ctx.now() + rto_;
  }

  // 5. Retransmission timer: on expiry, back off and go-back-N.
  if (!window_.empty() && deadline_ != 0 && ctx.now() >= deadline_) {
    ++stats_.timeouts;
    ++retries_;
    if (obs::Enabled()) {
      obs::Emit(obs::Category::kNet, obs::Code::kNetTimeout, obs::kColourKernel, ctx.now(),
                static_cast<Word>(retries_), window_.front().seq);
    }
    if (config_.max_retries > 0 && retries_ > config_.max_retries) {
      dead_ = true;
      stats_.gave_up = 1;
      tx_queue_.clear();
      return;
    }
    rto_ = std::min<Tick>(rto_ * 2, config_.max_rto);
    if (tx_queue_.empty()) {  // never truncate a partially flushed round
      RetransmitWindow();
    }
    deadline_ = ctx.now() + rto_;
  }

  // 6. Flush as many wire words as the link accepts.
  while (!tx_queue_.empty() && ctx.Send(data_out_port, tx_queue_.front())) {
    tx_queue_.pop_front();
  }
}

// --- ReliableReceiver --------------------------------------------------------

ReliableReceiver::ReliableReceiver(ReliableConfig config) : config_(config) {}

void ReliableReceiver::ParseFrames() {
  while (!rx_buffer_.empty()) {
    if (rx_buffer_.front() == kRelSyn) {
      // Session announcement: [kRelSyn, nonce, first_seq, checksum]. The
      // peer's stream now begins at first_seq; sequence numbers before it
      // belong to a session nobody remembers. Only ever jump FORWARD —
      // a replayed base behind expected_ is the exactly-once path (the
      // peer re-sends, we discard duplicates), and moving backward would
      // re-deliver words the application already consumed.
      if (rx_buffer_.size() < 4) {
        return;
      }
      if (FoldChecksum(rx_buffer_.begin(), 3) != rx_buffer_[3]) {
        rx_buffer_.pop_front();
        ++stats_.corrupt_discarded;
        continue;
      }
      const Word nonce = rx_buffer_[1];
      const Word first = rx_buffer_[2];
      if (config_.resync && (!last_syn_nonce_.has_value() || *last_syn_nonce_ != nonce)) {
        last_syn_nonce_ = nonce;
        if (SeqBefore(expected_, first)) {
          expected_ = first;
          ++stats_.session_resyncs;
        }
        ack_pending_ = true;  // answer with our cumulative to align the peer
      }
      rx_buffer_.erase(rx_buffer_.begin(), rx_buffer_.begin() + 4);
      continue;
    }
    if (rx_buffer_.front() != kRelData) {
      rx_buffer_.pop_front();
      ++stats_.resyncs;
      continue;
    }
    if (rx_buffer_.size() < 3) {
      return;  // header incomplete; wait for more words
    }
    const Word count = rx_buffer_[2];
    if (static_cast<std::size_t>(count) > config_.max_segment_words) {
      // A corrupt length this large would make us wait forever; resync now.
      rx_buffer_.pop_front();
      ++stats_.corrupt_discarded;
      continue;
    }
    const std::size_t need = 4 + static_cast<std::size_t>(count);
    if (rx_buffer_.size() < need) {
      return;  // frame incomplete
    }
    if (FoldChecksum(rx_buffer_.begin(), need - 1) != rx_buffer_[need - 1]) {
      rx_buffer_.pop_front();
      ++stats_.corrupt_discarded;
      continue;
    }

    const Word seq = rx_buffer_[1];
    if (seq == expected_) {
      for (std::size_t i = 0; i < count; ++i) {
        delivered_.push_back(rx_buffer_[3 + i]);
      }
      ++expected_;
      ++stats_.accepted;
    } else if (SeqBefore(seq, expected_)) {
      ++stats_.duplicates_discarded;  // retransmission of delivered data
    } else {
      // Go-back-N: a gap ahead of us; discard and let the sender replay.
      ++stats_.out_of_order_discarded;
    }
    ack_pending_ = true;  // every valid frame triggers a (re-)ACK
    rx_buffer_.erase(rx_buffer_.begin(), rx_buffer_.begin() + static_cast<std::ptrdiff_t>(need));
  }
}

void ReliableReceiver::Pump(NodeContext& ctx, int data_in_port, int ack_out_port) {
  while (std::optional<Word> w = ctx.Receive(data_in_port)) {
    rx_buffer_.push_back(*w);
  }
  ParseFrames();

  // A restart announcement outranks ACK traffic on the reverse line.
  if (pending_synreq_.has_value() && ack_tx_.empty()) {
    Word frame[3] = {kRelSynReq, *pending_synreq_, 0};
    frame[2] = RelChecksum(frame, 2);
    for (int copy = 0; copy < std::max(1, config_.redundancy); ++copy) {
      ack_tx_.insert(ack_tx_.end(), frame, frame + 3);
    }
    pending_synreq_.reset();
    ++stats_.synreqs_sent;
  }

  if (ack_pending_ && ack_tx_.empty()) {
    // With ack_commit, the cumulative value lags expected_: only data the
    // newest checkpoint covers is acknowledged (AckValue), so a rollback
    // never forgets anything the peer has stopped guarding.
    const Word cumulative = AckValue();
    Word frame[3] = {kRelAck, cumulative, 0};
    frame[2] = RelChecksum(frame, 2);
    for (int copy = 0; copy < std::max(1, config_.redundancy); ++copy) {
      ack_tx_.insert(ack_tx_.end(), frame, frame + 3);
    }
    ack_pending_ = false;
    ++stats_.acks_sent;
  }
  while (!ack_tx_.empty() && ctx.Send(ack_out_port, ack_tx_.front())) {
    ack_tx_.pop_front();
  }
}

void ReliableReceiver::Checkpoint(CkptWriter& w) {
  if (config_.ack_commit) {
    // The commit point: everything received in order up to this instant is
    // now durable and therefore (and only therefore) acknowledgeable. Only
    // an ADVANCING commit is announced — re-ACKing an unchanged cumulative
    // at every checkpoint would read as duplicate-ACK loss signals to the
    // peer and keep resetting its retransmission machinery.
    const Word newly_committed = static_cast<Word>(expected_ - 1);
    if (newly_committed != committed_) {
      committed_ = newly_committed;
      ack_pending_ = true;
    }
  }
  w.Words(delivered_);
  w.U16(expected_);
  w.U16(committed_);
}

void ReliableReceiver::Restore(CkptReader& r) {
  r.Words(delivered_);
  expected_ = r.U16();
  committed_ = r.U16();
  rx_buffer_.clear();  // raw wire words died with the old incarnation
  ack_tx_.clear();
  ack_pending_ = true;  // re-announce our cumulative to the peer
}

void ReliableReceiver::StartResync(Word nonce) {
  rx_buffer_.clear();
  ack_tx_.clear();
  if (config_.resync) {
    pending_synreq_ = nonce;
  }
}

// --- tunnel wiring -----------------------------------------------------------

ReliableTunnel SpliceReliableTunnel(Network& net, int from, int to,
                                    const ReliableConfig& config, std::size_t capacity,
                                    Tick latency, const std::string& name) {
  ReliableTunnel tunnel;
  tunnel.ingress_node = net.AddNode(std::make_unique<ReliableIngress>(name + "-ingress", config));
  tunnel.egress_node = net.AddNode(std::make_unique<ReliableEgress>(name + "-egress", config));
  net.Connect(from, tunnel.ingress_node, 512, 1, name + "-feed");
  tunnel.data_link =
      net.Connect(tunnel.ingress_node, tunnel.egress_node, capacity, latency, name + "-data");
  tunnel.ack_link =
      net.Connect(tunnel.egress_node, tunnel.ingress_node, capacity, latency, name + "-ack");
  net.Connect(tunnel.egress_node, to, 512, 1, name + "-deliver");
  return tunnel;
}

const ReliableSenderStats& TunnelSenderStats(Network& net, const ReliableTunnel& tunnel) {
  return static_cast<ReliableIngress&>(net.process(tunnel.ingress_node)).sender().stats();
}

const ReliableReceiverStats& TunnelReceiverStats(Network& net, const ReliableTunnel& tunnel) {
  return static_cast<ReliableEgress&>(net.process(tunnel.egress_node)).receiver().stats();
}

}  // namespace sep
