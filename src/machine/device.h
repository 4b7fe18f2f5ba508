// Device framework for the SM-11.
//
// The SUE's I/O discipline, reproduced here exactly:
//   * there is NO DMA — a device can only be observed/commanded through its
//     device registers, which occupy words in the physical I/O page and are
//     therefore protectable by the MMU like ordinary memory;
//   * each device is permanently and exclusively allocated to one regime
//     (its "owner" colour); its registers are mapped into that regime's
//     address space only;
//   * devices raise interrupts, which the hardware vectors through the
//     kernel; the kernel's only I/O duty is forwarding them to the owner.
//
// A device's complete internal state (including its queues toward the
// environment) is serializable to a word vector so that the
// Proof-of-Separability checker can clone machines and compare per-colour
// projections by value.
//
// Environment interface: the world outside the machine injects words into a
// device with InjectInput() (the formal model's INPUT function) and collects
// words the device has emitted with DrainOutput() (the OUTPUT function).
#ifndef SRC_MACHINE_DEVICE_H_
#define SRC_MACHINE_DEVICE_H_

#include <deque>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace sep {

class Device {
 public:
  Device(std::string name, int vector, int priority, int register_count)
      : name_(std::move(name)),
        vector_(vector),
        priority_(priority),
        register_count_(register_count) {}
  virtual ~Device() = default;

  virtual std::unique_ptr<Device> Clone() const = 0;

  // Memory-mapped register access from the CPU. `offset` is in
  // [0, register_count). Reads may have side effects (e.g. reading the
  // receive buffer clears the done bit), as on real hardware.
  virtual Word ReadRegister(int offset) = 0;
  virtual void WriteRegister(int offset, Word value) = 0;

  // One device activity slot. Called by the machine between CPU steps.
  virtual void Step() = 0;

  // Device horizon, which lets Machine::Run execute instructions in batches
  // between device events. QuietSteps() is how many upcoming activity slots
  // are guaranteed to raise no interrupt and change no register-visible
  // state (kQuietForever: none will until the CPU or the environment next
  // touches the device); SkipSteps(n), for n <= QuietSteps(), applies n
  // such slots at once and must leave exactly the state n Step() calls
  // would. The defaults mean "step me every tick", so a device that
  // overrides neither stays exact.
  static constexpr std::size_t kQuietForever = static_cast<std::size_t>(-1);
  virtual std::size_t QuietSteps() const { return 0; }
  virtual void SkipSteps(std::size_t n) {
    for (; n > 0; --n) {
      Step();
    }
  }

  // Serialization of the complete internal state, queues included. The
  // encoding only needs to be injective per device type.
  virtual std::vector<Word> SnapshotState() const = 0;

  // Inverse of SnapshotState(): overwrites the device's internal state from
  // a serialization previously produced by the same device type with the
  // same configuration. Returns false if the device type does not support
  // restoration (e.g. FaultyDevice, whose fault schedule is outside the
  // snapshot) or the payload is malformed; the device state is unspecified
  // after a failed restore. Devices whose snapshot deliberately omits parts
  // of their in-memory representation (LineClock and CryptoUnit leave the
  // environment queues out because nothing ever reads them) reset the
  // omitted parts to the canonical value, so
  // SnapshotState ∘ RestoreState = id on the snapshot encoding.
  virtual bool RestoreState(std::span<const Word> state) {
    (void)state;
    return false;
  }

  // Randomizes internal state within the device's representation invariants,
  // leaving the interrupt line untouched (flipping it would change which
  // colour the next operation belongs to, invalidating checker samples).
  // Used by the Proof-of-Separability checker to explore "all states with
  // the same Φ^c projection" for colours that do NOT own this device.
  virtual void Perturb(Rng& rng) {
    const std::size_t rx = rng.NextBelow(4);
    rx_from_env_.clear();
    for (std::size_t i = 0; i < rx; ++i) {
      rx_from_env_.push_back(static_cast<Word>(rng.Next() & 0xFFFF));
    }
    const std::size_t tx = rng.NextBelow(4);
    tx_to_env_.clear();
    for (std::size_t i = 0; i < tx; ++i) {
      tx_to_env_.push_back(static_cast<Word>(rng.Next() & 0xFFFF));
    }
  }

  const std::string& name() const { return name_; }
  int vector() const { return vector_; }
  int priority() const { return priority_; }
  int register_count() const { return register_count_; }

  RegimeId owner() const { return owner_; }
  void set_owner(RegimeId owner) { owner_ = owner; }

  bool interrupt_pending() const { return irq_; }
  void ClearInterrupt() { irq_ = false; }

  // --- environment side ---

  void InjectInput(Word w) { rx_from_env_.push_back(w); }

  std::vector<Word> DrainOutput() {
    std::vector<Word> out(tx_to_env_.begin(), tx_to_env_.end());
    tx_to_env_.clear();
    return out;
  }

  std::size_t pending_output() const { return tx_to_env_.size(); }
  std::size_t pending_input() const { return rx_from_env_.size(); }

 protected:
  void RaiseInterrupt() { irq_ = true; }

  // For RestoreState implementations: the interrupt line is part of every
  // snapshot and must be restorable in both directions.
  void SetInterruptLine(bool raised) { irq_ = raised; }

  // Helpers for SnapshotState implementations.
  static void AppendQueue(std::vector<Word>& out, const std::deque<Word>& q) {
    out.push_back(static_cast<Word>(q.size()));
    out.insert(out.end(), q.begin(), q.end());
  }

  // Inverse of AppendQueue for RestoreState implementations: reads the
  // length-prefixed queue at `*pos`, advancing it. Returns false (leaving
  // the queue unspecified) if the payload is truncated.
  static bool ReadQueue(std::span<const Word> in, std::size_t* pos, std::deque<Word>& q) {
    if (*pos >= in.size()) {
      return false;
    }
    const std::size_t count = in[*pos];
    if (in.size() - *pos - 1 < count) {
      return false;
    }
    q.assign(in.begin() + static_cast<std::ptrdiff_t>(*pos) + 1,
             in.begin() + static_cast<std::ptrdiff_t>(*pos) + 1 + static_cast<std::ptrdiff_t>(count));
    *pos += 1 + count;
    return true;
  }

  void CloneBaseInto(Device& copy) const {
    copy.owner_ = owner_;
    copy.irq_ = irq_;
    copy.rx_from_env_ = rx_from_env_;
    copy.tx_to_env_ = tx_to_env_;
  }

  std::deque<Word> rx_from_env_;  // environment -> device
  std::deque<Word> tx_to_env_;    // device -> environment

 private:
  std::string name_;
  int vector_;
  int priority_;
  int register_count_;
  RegimeId owner_ = kNoRegime;
  bool irq_ = false;
};

}  // namespace sep

#endif  // SRC_MACHINE_DEVICE_H_
