// Device-level unit tests: register semantics, interrupt behaviour
// (including the IE-rising-edge rule), clone fidelity, and the Perturb
// contract every device must honour for the checker.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "src/base/rng.h"
#include "src/machine/devices.h"
#include "src/machine/faulty_device.h"

namespace sep {
namespace {

TEST(SerialLineDevice, EnableAfterDoneStillInterrupts) {
  SerialLine slu("slu", 16, 4, 1);
  slu.InjectInput('A');
  slu.Step();  // DONE sets with IE off: no interrupt
  EXPECT_FALSE(slu.interrupt_pending());
  slu.WriteRegister(0, kCsrIe);  // IE rising edge with DONE set
  EXPECT_TRUE(slu.interrupt_pending());
}

TEST(SerialLineDevice, TransmitBusyDropsOverlappingWrites) {
  SerialLine slu("slu", 16, 4, 3);
  slu.WriteRegister(3, 'X');
  slu.WriteRegister(3, 'Y');  // ignored: transmitter busy
  for (int i = 0; i < 5; ++i) {
    slu.Step();
  }
  std::vector<Word> out = slu.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 'X');
}

TEST(SerialLineDevice, ReceiveQueuePreservedWhileBufferFull) {
  SerialLine slu("slu", 16, 4, 1);
  slu.InjectInput(1);
  slu.InjectInput(2);
  slu.InjectInput(3);
  slu.Step();  // latches 1
  EXPECT_EQ(slu.ReadRegister(1), 1);  // read clears DONE
  slu.Step();  // latches 2
  EXPECT_EQ(slu.ReadRegister(1), 2);
  slu.Step();
  EXPECT_EQ(slu.ReadRegister(1), 3);
}

TEST(LineClockDevice, PeriodIsExact) {
  LineClock clk("clk", 20, 6, 4);
  int fires = 0;
  for (int step = 1; step <= 20; ++step) {
    clk.Step();
    if (clk.ReadRegister(0) & kCsrDone) {
      ++fires;
      clk.WriteRegister(0, 0);  // acknowledge
    }
  }
  EXPECT_EQ(fires, 5);
}

TEST(LinePrinterDevice, CharactersEmergeAfterDelay) {
  LinePrinter lp("lp", 18, 3, 3);
  lp.WriteRegister(1, 'Q');
  EXPECT_EQ(lp.ReadRegister(0) & kCsrDone, 0);  // busy
  lp.Step();
  lp.Step();
  EXPECT_TRUE(lp.DrainOutput().empty());
  lp.Step();
  std::vector<Word> out = lp.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 'Q');
  EXPECT_EQ(lp.ReadRegister(0) & kCsrDone, kCsrDone);
}

TEST(LinePrinterDevice, WriteWhileBusyIgnored) {
  LinePrinter lp("lp", 18, 3, 4);
  lp.WriteRegister(1, 'A');
  lp.WriteRegister(1, 'B');  // ignored
  for (int i = 0; i < 10; ++i) {
    lp.Step();
  }
  std::vector<Word> out = lp.DrainOutput();
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 'A');
}

TEST(CryptoUnitDevice, EncryptsAfterLatency) {
  CryptoUnit crypto("c", 16, 4, /*key=*/7, /*latency=*/2);
  crypto.WriteRegister(1, 0x1234);
  crypto.Step();
  EXPECT_EQ(crypto.ReadRegister(0) & kCsrDone, 0);
  crypto.Step();
  EXPECT_EQ(crypto.ReadRegister(0) & kCsrDone, kCsrDone);
  const Word cipher = crypto.ReadRegister(2);
  EXPECT_EQ(cipher, static_cast<Word>(0x1234 ^ CryptoUnit::Keystream(7, 0)));
  EXPECT_EQ(crypto.ReadRegister(0) & kCsrDone, 0);  // read cleared DONE
}

TEST(CryptoUnitDevice, KeystreamAdvancesPerOperation) {
  CryptoUnit crypto("c", 16, 4, 7, 1);
  Word first = 0;
  Word second = 0;
  crypto.WriteRegister(1, 0);
  crypto.Step();
  first = crypto.ReadRegister(2);
  crypto.WriteRegister(1, 0);
  crypto.Step();
  second = crypto.ReadRegister(2);
  EXPECT_EQ(first, CryptoUnit::Keystream(7, 0));
  EXPECT_EQ(second, CryptoUnit::Keystream(7, 1));
  EXPECT_NE(first, second);
}

TEST(CryptoUnitDevice, XorIsInvolutive) {
  // Encrypt then re-encrypt with a counter-matched peer: identity.
  for (std::uint64_t n = 0; n < 50; ++n) {
    const Word clear = static_cast<Word>(n * 1103 + 13);
    const Word cipher = static_cast<Word>(clear ^ CryptoUnit::Keystream(99, n));
    EXPECT_EQ(static_cast<Word>(cipher ^ CryptoUnit::Keystream(99, n)), clear);
  }
}

TEST(CryptoUnitDevice, DifferentKeysDiverge) {
  int same = 0;
  for (std::uint64_t n = 0; n < 64; ++n) {
    if (CryptoUnit::Keystream(1, n) == CryptoUnit::Keystream(2, n)) {
      ++same;
    }
  }
  EXPECT_LT(same, 4);
}

// Every device type: clone equality and the Perturb contract.
template <typename MakeDevice>
void CheckCloneAndPerturb(MakeDevice make) {
  // Clone preserves snapshot.
  auto original = make();
  original->InjectInput(42);
  original->Step();
  auto clone = original->Clone();
  EXPECT_EQ(original->SnapshotState(), clone->SnapshotState());

  // Perturb never flips the interrupt line (the checker's requirement).
  Rng rng(1234);
  for (int trial = 0; trial < 200; ++trial) {
    auto device = make();
    const bool irq_before = device->interrupt_pending();
    device->Perturb(rng);
    EXPECT_EQ(device->interrupt_pending(), irq_before);
  }
}

TEST(DeviceContracts, SerialLine) {
  CheckCloneAndPerturb([] { return std::make_unique<SerialLine>("s", 16, 4, 2); });
}
TEST(DeviceContracts, LineClock) {
  CheckCloneAndPerturb([] { return std::make_unique<LineClock>("c", 18, 5, 7); });
}
TEST(DeviceContracts, LinePrinter) {
  CheckCloneAndPerturb([] { return std::make_unique<LinePrinter>("p", 20, 3, 4); });
}
TEST(DeviceContracts, CryptoUnit) {
  CheckCloneAndPerturb([] { return std::make_unique<CryptoUnit>("x", 22, 4, 5, 2); });
}

TEST(DeviceContracts, PerturbedStatesAreValidToStep) {
  // A perturbed device must remain steppable without tripping invariants:
  // run many random states forward.
  Rng rng(99);
  for (int trial = 0; trial < 100; ++trial) {
    SerialLine slu("s", 16, 4, 2);
    slu.Perturb(rng);
    for (int i = 0; i < 20; ++i) {
      slu.Step();
      (void)slu.ReadRegister(0);
      (void)slu.ReadRegister(1);
    }
    LineClock clk("c", 18, 5, 9);
    clk.Perturb(rng);
    for (int i = 0; i < 20; ++i) {
      clk.Step();
    }
    CryptoUnit crypto("x", 22, 4, 5, 3);
    crypto.Perturb(rng);
    for (int i = 0; i < 20; ++i) {
      crypto.Step();
    }
  }
}

// --- device horizon (QuietSteps / SkipSteps) --------------------------------

// Everything the CPU can observe through the register window, read on a
// clone so read side effects (RBUF, CDATA_OUT) stay off `dev`.
std::vector<Word> RegisterView(const Device& dev) {
  std::unique_ptr<Device> probe = dev.Clone();
  std::vector<Word> view;
  for (int offset = 0; offset < probe->register_count(); ++offset) {
    view.push_back(probe->ReadRegister(offset));
  }
  return view;
}

// The horizon contract from `dev`'s current state (line lowered, as the
// machine delivers a raised one before it batches): for every k within
// QuietSteps() (capped for kQuietForever), SkipSteps(k) leaves exactly the
// state k Step() calls leave, and those k slots raise no interrupt and
// change no register-visible state.
void ExpectHorizonExact(Device& dev, const std::string& what) {
  dev.ClearInterrupt();
  const std::size_t quiet = dev.QuietSteps();
  const std::size_t limit = std::min<std::size_t>(quiet, 200);
  const std::vector<Word> registers = RegisterView(dev);
  std::unique_ptr<Device> stepped = dev.Clone();
  for (std::size_t k = 0; k <= limit; ++k) {
    if (k > 0) {
      stepped->Step();
    }
    std::unique_ptr<Device> skipped = dev.Clone();
    skipped->SkipSteps(k);
    ASSERT_EQ(skipped->SnapshotState(), stepped->SnapshotState()) << what << ", k = " << k;
    ASSERT_FALSE(stepped->interrupt_pending()) << what << ", k = " << k << " of " << quiet;
    ASSERT_EQ(RegisterView(*stepped), registers) << what << ", k = " << k << " of " << quiet;
  }
}

// Drives a device through Perturb'ed states and, from each, every kind of
// register write, checking the horizon contract at every state.
template <typename MakeDevice>
void CheckHorizon(MakeDevice make) {
  Rng rng(4242);
  const Word values[] = {0, kCsrIe, kCsrDone, kCsrDone | kCsrIe, 1, 0x1234, 0xFFFF};
  std::size_t bounded = 0;
  for (int trial = 0; trial < 40; ++trial) {
    std::unique_ptr<Device> base = make();
    if (trial > 0) {
      base->Perturb(rng);
    }
    ExpectHorizonExact(*base, "trial " + std::to_string(trial));
    for (int offset = 0; offset < base->register_count(); ++offset) {
      for (Word value : values) {
        std::unique_ptr<Device> dev = base->Clone();
        dev->WriteRegister(offset, value);
        const std::string what = "trial " + std::to_string(trial) + ", write " +
                                 std::to_string(value) + " to register " +
                                 std::to_string(offset);
        ExpectHorizonExact(*dev, what);
        // And after a few ordinary slots, wherever they left the device.
        for (int i = 0; i < 3; ++i) {
          dev->Step();
        }
        ExpectHorizonExact(*dev, what + ", 3 slots later");
        bounded += dev->QuietSteps() != Device::kQuietForever ? 1 : 0;
      }
    }
  }
  EXPECT_GT(bounded, 0u) << "no state with a finite horizon was exercised";
}

TEST(DeviceHorizon, SerialLine) {
  CheckHorizon([] { return std::make_unique<SerialLine>("s", 16, 4, 5); });
}
TEST(DeviceHorizon, LineClock) {
  CheckHorizon([] { return std::make_unique<LineClock>("c", 18, 5, 9); });
}
TEST(DeviceHorizon, LinePrinter) {
  CheckHorizon([] { return std::make_unique<LinePrinter>("p", 20, 3, 6); });
}
TEST(DeviceHorizon, CryptoUnit) {
  CheckHorizon([] { return std::make_unique<CryptoUnit>("x", 22, 4, 5, 7); });
}

// A device that overrides neither horizon method is stepped every tick.
class PlainDevice : public Device {
 public:
  PlainDevice() : Device("plain", 30, 4, 1) {}
  std::unique_ptr<Device> Clone() const override { return std::make_unique<PlainDevice>(*this); }
  Word ReadRegister(int) override { return static_cast<Word>(steps_); }
  void WriteRegister(int, Word) override {}
  void Step() override { ++steps_; }
  std::vector<Word> SnapshotState() const override { return {static_cast<Word>(steps_)}; }

 private:
  int steps_ = 0;
};

TEST(DeviceHorizon, DefaultsStepEveryTick) {
  PlainDevice plain;
  EXPECT_EQ(plain.QuietSteps(), 0u);
  plain.SkipSteps(5);  // the default is five Step() calls
  EXPECT_EQ(plain.SnapshotState(), std::vector<Word>{5});

  // FaultyDevice's schedule is outside any countdown: no horizon, even
  // around an inner device that has one.
  FaultyDevice faulty(std::make_unique<LineClock>("c", 18, 5, 100), DeviceFaultSpec{}, 1);
  EXPECT_GT(faulty.inner().QuietSteps(), 0u);
  EXPECT_EQ(faulty.QuietSteps(), 0u);
}

}  // namespace
}  // namespace sep
