// Concrete SM-11 devices.
//
//   SerialLine  - a DL11-style asynchronous line unit (receive + transmit),
//                 the workhorse for inter-machine communication lines.
//   LineClock   - a KW11-style line-time clock that interrupts periodically.
//   LinePrinter - an LP11-style printer: one character at a time, slow.
//   CryptoUnit  - the SNFE's trusted cryptographic device: a keyed stream
//                 cipher exposed through data-in/data-out registers.
//
// Register maps are documented per class. All devices follow the DEC
// convention: a control/status register (CSR) whose bit 7 is DONE/READY and
// bit 6 is INTERRUPT-ENABLE, plus data buffer registers.
#ifndef SRC_MACHINE_DEVICES_H_
#define SRC_MACHINE_DEVICES_H_

#include <memory>
#include <string>
#include <vector>

#include "src/machine/device.h"

namespace sep {

inline constexpr Word kCsrDone = 0x0080;   // bit 7
inline constexpr Word kCsrIe = 0x0040;     // bit 6

// DL11-style serial line unit.
//
// Registers:
//   0  RCSR  receive status  (DONE: character available, IE)
//   1  RBUF  receive buffer  (reading clears DONE)
//   2  XCSR  transmit status (DONE: transmitter idle, IE)
//   3  XBUF  transmit buffer (writing starts transmission when idle)
//
// A received word moves from the environment queue into RBUF when DONE is
// clear; transmission takes `transmit_delay` steps per word.
class SerialLine : public Device {
 public:
  SerialLine(std::string name, int vector, int priority, int transmit_delay = 1);

  std::unique_ptr<Device> Clone() const override;
  Word ReadRegister(int offset) override;
  void WriteRegister(int offset, Word value) override;
  void Step() override;
  std::size_t QuietSteps() const override;
  void SkipSteps(std::size_t n) override;
  std::vector<Word> SnapshotState() const override;
  bool RestoreState(std::span<const Word> state) override;
  void Perturb(Rng& rng) override;

 private:
  int transmit_delay_;
  Word rcsr_ = 0;
  Word rbuf_ = 0;
  Word xcsr_ = kCsrDone;  // transmitter idle at reset
  Word xbuf_ = 0;
  int tx_countdown_ = 0;
};

// KW11-style line clock.
//
// Registers:
//   0  LKS  status (DONE set every `interval` steps; IE; writing clears DONE)
class LineClock : public Device {
 public:
  LineClock(std::string name, int vector, int priority, int interval);

  std::unique_ptr<Device> Clone() const override;
  Word ReadRegister(int offset) override;
  void WriteRegister(int offset, Word value) override;
  void Step() override;
  std::size_t QuietSteps() const override;
  void SkipSteps(std::size_t n) override;
  std::vector<Word> SnapshotState() const override;
  bool RestoreState(std::span<const Word> state) override;
  void Perturb(Rng& rng) override;

 private:
  int interval_;
  Word lks_ = 0;
  int countdown_;
};

// LP11-style line printer.
//
// Registers:
//   0  LPS  status (READY when able to accept a character, IE)
//   1  LPB  buffer (writing prints the low byte after `print_delay` steps)
//
// Printed characters appear on the environment output queue.
class LinePrinter : public Device {
 public:
  LinePrinter(std::string name, int vector, int priority, int print_delay = 4);

  std::unique_ptr<Device> Clone() const override;
  Word ReadRegister(int offset) override;
  void WriteRegister(int offset, Word value) override;
  void Step() override;
  std::size_t QuietSteps() const override;
  void SkipSteps(std::size_t n) override;
  std::vector<Word> SnapshotState() const override;
  bool RestoreState(std::span<const Word> state) override;
  void Perturb(Rng& rng) override;

 private:
  int print_delay_;
  Word lps_ = kCsrDone;
  Word pending_char_ = 0;
  int countdown_ = 0;
};

// The SNFE's trusted cryptographic unit.
//
// Registers:
//   0  CCSR  status (DONE: ciphertext ready, IE; bit 0 selects direction:
//            0 = encrypt, 1 = decrypt — the stream cipher is symmetric so
//            the bit only documents intent)
//   1  CDATA_IN  write a cleartext word to start an operation
//   2  CDATA_OUT read the transformed word (clears DONE)
//
// The transformation is a keyed word-stream cipher: out = in XOR ks(key, n)
// where n counts operations. The device is *trusted hardware* in the paper's
// design: its security is assumed, not verified, and the checker treats its
// key as device-internal state invisible to every regime except through the
// register interface.
class CryptoUnit : public Device {
 public:
  CryptoUnit(std::string name, int vector, int priority, std::uint64_t key, int latency = 2);

  std::unique_ptr<Device> Clone() const override;
  Word ReadRegister(int offset) override;
  void WriteRegister(int offset, Word value) override;
  void Step() override;
  std::size_t QuietSteps() const override;
  void SkipSteps(std::size_t n) override;
  std::vector<Word> SnapshotState() const override;
  bool RestoreState(std::span<const Word> state) override;
  void Perturb(Rng& rng) override;

  // The keystream, exposed so tests and the SNFE receiver can model the
  // peer crypto that shares the key.
  static Word Keystream(std::uint64_t key, std::uint64_t n);

 private:
  std::uint64_t key_;
  int latency_;
  Word ccsr_ = 0;
  Word data_out_ = 0;
  Word pending_in_ = 0;
  bool busy_ = false;
  int countdown_ = 0;
  std::uint64_t op_count_ = 0;
};

}  // namespace sep

#endif  // SRC_MACHINE_DEVICES_H_
