#include "src/machine/devices.h"

namespace sep {

namespace {

// Slots before a `--countdown <= 0` device fires: all but the firing one.
std::size_t QuietFor(int countdown) {
  return countdown > 1 ? static_cast<std::size_t>(countdown - 1) : 0;
}

}  // namespace

// --- SerialLine ---

SerialLine::SerialLine(std::string name, int vector, int priority, int transmit_delay)
    : Device(std::move(name), vector, priority, 4), transmit_delay_(transmit_delay) {}

std::unique_ptr<Device> SerialLine::Clone() const {
  auto copy = std::make_unique<SerialLine>(name(), vector(), priority(), transmit_delay_);
  CloneBaseInto(*copy);
  copy->rcsr_ = rcsr_;
  copy->rbuf_ = rbuf_;
  copy->xcsr_ = xcsr_;
  copy->xbuf_ = xbuf_;
  copy->tx_countdown_ = tx_countdown_;
  return copy;
}

Word SerialLine::ReadRegister(int offset) {
  switch (offset) {
    case 0:
      return rcsr_;
    case 1:
      // Reading the receive buffer acknowledges the character.
      rcsr_ &= static_cast<Word>(~kCsrDone);
      return rbuf_;
    case 2:
      return xcsr_;
    case 3:
      return xbuf_;
    default:
      return 0;
  }
}

void SerialLine::WriteRegister(int offset, Word value) {
  switch (offset) {
    case 0: {
      // Only IE is writable; DONE is hardware-controlled. As on DEC
      // hardware, enabling IE while DONE is already set raises the
      // interrupt immediately, so no completion is ever lost.
      const bool ie_rising = (value & kCsrIe) && !(rcsr_ & kCsrIe);
      rcsr_ = static_cast<Word>((rcsr_ & kCsrDone) | (value & kCsrIe));
      if (ie_rising && (rcsr_ & kCsrDone)) {
        RaiseInterrupt();
      }
      break;
    }
    case 1:
      break;  // RBUF is read-only
    case 2: {
      const bool ie_rising = (value & kCsrIe) && !(xcsr_ & kCsrIe);
      xcsr_ = static_cast<Word>((xcsr_ & kCsrDone) | (value & kCsrIe));
      if (ie_rising && (xcsr_ & kCsrDone)) {
        RaiseInterrupt();
      }
      break;
    }
    case 3:
      if (xcsr_ & kCsrDone) {
        xbuf_ = value;
        xcsr_ &= static_cast<Word>(~kCsrDone);
        tx_countdown_ = transmit_delay_;
      }
      // Writing while busy is ignored (hardware would garble; we drop).
      break;
    default:
      break;
  }
}

void SerialLine::Step() {
  // Receive side: latch the next environment word when the buffer is free.
  if (!(rcsr_ & kCsrDone) && !rx_from_env_.empty()) {
    rbuf_ = rx_from_env_.front();
    rx_from_env_.pop_front();
    rcsr_ |= kCsrDone;
    if (rcsr_ & kCsrIe) {
      RaiseInterrupt();
    }
  }
  // Transmit side: count down the in-flight word.
  if (!(xcsr_ & kCsrDone)) {
    if (--tx_countdown_ <= 0) {
      tx_to_env_.push_back(xbuf_);
      xcsr_ |= kCsrDone;
      if (xcsr_ & kCsrIe) {
        RaiseInterrupt();
      }
    }
  }
}

std::size_t SerialLine::QuietSteps() const {
  if (!(rcsr_ & kCsrDone) && !rx_from_env_.empty()) {
    return 0;  // the next slot latches a received word
  }
  return (xcsr_ & kCsrDone) ? kQuietForever : QuietFor(tx_countdown_);
}

void SerialLine::SkipSteps(std::size_t n) {
  if (!(xcsr_ & kCsrDone)) {
    tx_countdown_ -= static_cast<int>(n);
  }
}

std::vector<Word> SerialLine::SnapshotState() const {
  std::vector<Word> out = {rcsr_, rbuf_, xcsr_, xbuf_, static_cast<Word>(tx_countdown_),
                           static_cast<Word>(interrupt_pending())};
  AppendQueue(out, rx_from_env_);
  AppendQueue(out, tx_to_env_);
  return out;
}

bool SerialLine::RestoreState(std::span<const Word> state) {
  if (state.size() < 6) {
    return false;
  }
  rcsr_ = state[0];
  rbuf_ = state[1];
  xcsr_ = state[2];
  xbuf_ = state[3];
  tx_countdown_ = static_cast<int>(state[4]);
  SetInterruptLine(state[5] != 0);
  std::size_t pos = 6;
  return ReadQueue(state, &pos, rx_from_env_) && ReadQueue(state, &pos, tx_to_env_) &&
         pos == state.size();
}

// --- LineClock ---

LineClock::LineClock(std::string name, int vector, int priority, int interval)
    : Device(std::move(name), vector, priority, 1), interval_(interval), countdown_(interval) {}

std::unique_ptr<Device> LineClock::Clone() const {
  auto copy = std::make_unique<LineClock>(name(), vector(), priority(), interval_);
  CloneBaseInto(*copy);
  copy->lks_ = lks_;
  copy->countdown_ = countdown_;
  return copy;
}

Word LineClock::ReadRegister(int offset) { return offset == 0 ? lks_ : 0; }

void LineClock::WriteRegister(int offset, Word value) {
  if (offset == 0) {
    // Writing clears DONE; IE is writable.
    lks_ = static_cast<Word>(value & kCsrIe);
  }
}

void LineClock::Step() {
  if (--countdown_ <= 0) {
    countdown_ = interval_;
    lks_ |= kCsrDone;
    if (lks_ & kCsrIe) {
      RaiseInterrupt();
    }
  }
}

std::size_t LineClock::QuietSteps() const { return QuietFor(countdown_); }

void LineClock::SkipSteps(std::size_t n) { countdown_ -= static_cast<int>(n); }

std::vector<Word> LineClock::SnapshotState() const {
  return {lks_, static_cast<Word>(countdown_), static_cast<Word>(interrupt_pending())};
}

bool LineClock::RestoreState(std::span<const Word> state) {
  if (state.size() != 3) {
    return false;
  }
  lks_ = state[0];
  countdown_ = static_cast<int>(state[1]);
  SetInterruptLine(state[2] != 0);
  // The snapshot omits the environment queues because nothing ever reads a
  // clock's queues; restore to the canonical (empty) representation.
  rx_from_env_.clear();
  tx_to_env_.clear();
  return true;
}

// --- LinePrinter ---

LinePrinter::LinePrinter(std::string name, int vector, int priority, int print_delay)
    : Device(std::move(name), vector, priority, 2), print_delay_(print_delay) {}

std::unique_ptr<Device> LinePrinter::Clone() const {
  auto copy = std::make_unique<LinePrinter>(name(), vector(), priority(), print_delay_);
  CloneBaseInto(*copy);
  copy->lps_ = lps_;
  copy->pending_char_ = pending_char_;
  copy->countdown_ = countdown_;
  return copy;
}

Word LinePrinter::ReadRegister(int offset) { return offset == 0 ? lps_ : 0; }

void LinePrinter::WriteRegister(int offset, Word value) {
  switch (offset) {
    case 0: {
      const bool ie_rising = (value & kCsrIe) && !(lps_ & kCsrIe);
      lps_ = static_cast<Word>((lps_ & kCsrDone) | (value & kCsrIe));
      if (ie_rising && (lps_ & kCsrDone)) {
        RaiseInterrupt();
      }
      break;
    }
    case 1:
      if (lps_ & kCsrDone) {
        pending_char_ = static_cast<Word>(value & 0xFF);
        lps_ &= static_cast<Word>(~kCsrDone);
        countdown_ = print_delay_;
      }
      break;
    default:
      break;
  }
}

void LinePrinter::Step() {
  if (!(lps_ & kCsrDone)) {
    if (--countdown_ <= 0) {
      tx_to_env_.push_back(pending_char_);
      lps_ |= kCsrDone;
      if (lps_ & kCsrIe) {
        RaiseInterrupt();
      }
    }
  }
}

std::size_t LinePrinter::QuietSteps() const {
  return (lps_ & kCsrDone) ? kQuietForever : QuietFor(countdown_);
}

void LinePrinter::SkipSteps(std::size_t n) {
  if (!(lps_ & kCsrDone)) {
    countdown_ -= static_cast<int>(n);
  }
}

std::vector<Word> LinePrinter::SnapshotState() const {
  std::vector<Word> out = {lps_, pending_char_, static_cast<Word>(countdown_),
                           static_cast<Word>(interrupt_pending())};
  AppendQueue(out, rx_from_env_);
  AppendQueue(out, tx_to_env_);
  return out;
}

bool LinePrinter::RestoreState(std::span<const Word> state) {
  if (state.size() < 4) {
    return false;
  }
  lps_ = state[0];
  pending_char_ = state[1];
  countdown_ = static_cast<int>(state[2]);
  SetInterruptLine(state[3] != 0);
  std::size_t pos = 4;
  return ReadQueue(state, &pos, rx_from_env_) && ReadQueue(state, &pos, tx_to_env_) &&
         pos == state.size();
}

// --- CryptoUnit ---

CryptoUnit::CryptoUnit(std::string name, int vector, int priority, std::uint64_t key, int latency)
    : Device(std::move(name), vector, priority, 3), key_(key), latency_(latency) {}

std::unique_ptr<Device> CryptoUnit::Clone() const {
  auto copy = std::make_unique<CryptoUnit>(name(), vector(), priority(), key_, latency_);
  CloneBaseInto(*copy);
  copy->ccsr_ = ccsr_;
  copy->data_out_ = data_out_;
  copy->pending_in_ = pending_in_;
  copy->busy_ = busy_;
  copy->countdown_ = countdown_;
  copy->op_count_ = op_count_;
  return copy;
}

Word CryptoUnit::Keystream(std::uint64_t key, std::uint64_t n) {
  // splitmix64 finalizer over (key, n); only the low 16 bits are used.
  std::uint64_t z = key ^ (n + 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<Word>(z & 0xFFFF);
}

Word CryptoUnit::ReadRegister(int offset) {
  switch (offset) {
    case 0:
      return ccsr_;
    case 2:
      ccsr_ &= static_cast<Word>(~kCsrDone);
      return data_out_;
    default:
      return 0;
  }
}

void CryptoUnit::WriteRegister(int offset, Word value) {
  switch (offset) {
    case 0: {
      const bool ie_rising = (value & kCsrIe) && !(ccsr_ & kCsrIe);
      ccsr_ = static_cast<Word>((ccsr_ & kCsrDone) | (value & (kCsrIe | 1)));
      if (ie_rising && (ccsr_ & kCsrDone)) {
        RaiseInterrupt();
      }
      break;
    }
    case 1:
      if (!busy_) {
        pending_in_ = value;
        busy_ = true;
        countdown_ = latency_;
      }
      break;
    default:
      break;
  }
}

void CryptoUnit::Step() {
  if (busy_) {
    if (--countdown_ <= 0) {
      data_out_ = static_cast<Word>(pending_in_ ^ Keystream(key_, op_count_++));
      busy_ = false;
      ccsr_ |= kCsrDone;
      if (ccsr_ & kCsrIe) {
        RaiseInterrupt();
      }
    }
  }
}

std::size_t CryptoUnit::QuietSteps() const {
  return busy_ ? QuietFor(countdown_) : kQuietForever;
}

void CryptoUnit::SkipSteps(std::size_t n) {
  if (busy_) {
    countdown_ -= static_cast<int>(n);
  }
}

std::vector<Word> CryptoUnit::SnapshotState() const {
  return {ccsr_,
          data_out_,
          pending_in_,
          static_cast<Word>(busy_),
          static_cast<Word>(countdown_),
          static_cast<Word>(op_count_ & 0xFFFF),
          static_cast<Word>((op_count_ >> 16) & 0xFFFF),
          static_cast<Word>((op_count_ >> 32) & 0xFFFF),
          static_cast<Word>((op_count_ >> 48) & 0xFFFF),
          static_cast<Word>(interrupt_pending())};
}

bool CryptoUnit::RestoreState(std::span<const Word> state) {
  if (state.size() != 10) {
    return false;
  }
  ccsr_ = state[0];
  data_out_ = state[1];
  pending_in_ = state[2];
  busy_ = state[3] != 0;
  countdown_ = static_cast<int>(state[4]);
  op_count_ = static_cast<std::uint64_t>(state[5]) | (static_cast<std::uint64_t>(state[6]) << 16) |
              (static_cast<std::uint64_t>(state[7]) << 32) |
              (static_cast<std::uint64_t>(state[8]) << 48);
  SetInterruptLine(state[9] != 0);
  // Like LineClock, the crypto unit does its I/O through registers; the
  // unused environment queues are not in the snapshot.
  rx_from_env_.clear();
  tx_to_env_.clear();
  return true;
}

}  // namespace sep

// --- Perturb implementations -------------------------------------------------
//
// Each implementation randomizes the device's internal state while keeping
// its representation invariants (countdowns within range, DONE/busy flags
// consistent) and leaving the interrupt line alone.

namespace sep {

void SerialLine::Perturb(Rng& rng) {
  Device::Perturb(rng);
  rcsr_ = static_cast<Word>((rng.Next() & kCsrIe) | (rng.NextChance(1, 2) ? kCsrDone : 0));
  rbuf_ = static_cast<Word>(rng.Next() & 0xFFFF);
  xbuf_ = static_cast<Word>(rng.Next() & 0xFFFF);
  if (rng.NextChance(1, 2)) {
    xcsr_ = static_cast<Word>((rng.Next() & kCsrIe) | kCsrDone);
    tx_countdown_ = 0;
  } else {
    xcsr_ = static_cast<Word>(rng.Next() & kCsrIe);
    tx_countdown_ = static_cast<int>(rng.NextInRange(1, transmit_delay_));
  }
}

void LineClock::Perturb(Rng& rng) {
  Device::Perturb(rng);
  lks_ = static_cast<Word>((rng.Next() & kCsrIe) | (rng.NextChance(1, 2) ? kCsrDone : 0));
  countdown_ = static_cast<int>(rng.NextInRange(1, interval_));
}

void LinePrinter::Perturb(Rng& rng) {
  Device::Perturb(rng);
  pending_char_ = static_cast<Word>(rng.Next() & 0xFF);
  if (rng.NextChance(1, 2)) {
    lps_ = static_cast<Word>((rng.Next() & kCsrIe) | kCsrDone);
    countdown_ = 0;
  } else {
    lps_ = static_cast<Word>(rng.Next() & kCsrIe);
    countdown_ = static_cast<int>(rng.NextInRange(1, print_delay_));
  }
}

void CryptoUnit::Perturb(Rng& rng) {
  Device::Perturb(rng);
  data_out_ = static_cast<Word>(rng.Next() & 0xFFFF);
  pending_in_ = static_cast<Word>(rng.Next() & 0xFFFF);
  op_count_ = rng.NextBelow(1 << 20);
  if (rng.NextChance(1, 2)) {
    busy_ = false;
    countdown_ = 0;
    ccsr_ = static_cast<Word>((rng.Next() & (kCsrIe | 1)) | (rng.NextChance(1, 2) ? kCsrDone : 0));
  } else {
    busy_ = true;
    countdown_ = static_cast<int>(rng.NextInRange(1, latency_));
    ccsr_ = static_cast<Word>(rng.Next() & (kCsrIe | 1));
  }
}

}  // namespace sep
