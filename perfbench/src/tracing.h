// Tracing from outside the program: forwarding wrappers around the public
// interfaces the libraries already expose, so the traced run executes the
// same entry points (KernelizedSystem::Run, CheckSeparabilityExhaustive) as
// the timed run and no library code changes.
//
//   TracingClient  a MachineClient installed with machine().set_client() in
//                  front of the SeparationKernel: times every kernel entry
//                  and records the channel events delivery latency is
//                  computed from.
//   TracingDevice  a Device wrapping another one (FaultyDevice's pattern):
//                  times each device phase.
//   TracingSystem  a SharedSystem wrapping another one, handed to
//                  CheckSeparabilityExhaustive: times the model calls the
//                  checker makes.
#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "report.h"
#include "src/core/kernel_system.h"
#include "src/machine/device.h"
#include "src/model/shared_system.h"

namespace perfbench {

inline constexpr int kTrapCodes = 14;  // kCallSwap .. kCallRingStat
const char* TrapName(int code);

// What the forwarding client saw.
struct KernelStats {
  std::array<std::uint64_t, kTrapCodes> calls{};
  std::array<std::uint64_t, kTrapCodes> call_ns{};
  std::uint64_t faults_trapped = 0;  // illegal-instruction / MMU-fault traps
  std::uint64_t irqs = 0;
  std::uint64_t irq_ns = 0;
  std::uint64_t before_execute = 0;       // OnBeforeExecute calls (one per CPU phase)
  std::uint64_t before_execute_work = 0;  // ... that performed deferred kernel work
  std::uint64_t before_execute_ns = 0;
  std::uint64_t timed_spans = 0;  // for clock-overhead correction

  std::uint64_t send_accepted = 0;
  std::uint64_t recv_hits = 0;
  std::uint64_t ringput_accepted = 0;

  void Add(const KernelStats& other);
  std::uint64_t KernelExits() const;
  std::uint64_t KernelNanos() const;
};

// Machine ticks of accepted channel operations, per channel / shared ring, in
// order: the same ticks as in the untraced run, which the traced run must
// reproduce step for step.
struct ChannelEvents {
  std::vector<std::vector<sep::Tick>> sends;     // SEND accepted, per channel
  std::vector<std::vector<sep::Tick>> recvs;     // RECV hit, per channel
  std::vector<std::vector<sep::Tick>> ringputs;  // RINGPUT accepted, per ring
  std::vector<std::vector<sep::Tick>> ringgets;  // RINGGET, per ring
};

class TracingClient : public sep::MachineClient {
 public:
  // Installs itself as `system`'s machine client, forwarding to the kernel;
  // the destructor hands the machine back to the kernel, so `system` must
  // outlive the client.
  explicit TracingClient(sep::KernelizedSystem& system);
  ~TracingClient() override;
  TracingClient(const TracingClient&) = delete;
  TracingClient& operator=(const TracingClient&) = delete;

  void OnTrap(const sep::TrapInfo& info) override;
  void OnInterrupt(int device_index) override;
  void OnHalt() override;
  bool OnBeforeExecute() override;

  const KernelStats& stats() const { return stats_; }
  const ChannelEvents& events() const { return events_; }

 private:
  sep::KernelizedSystem& system_;
  sep::SeparationKernel& kernel_;
  KernelStats stats_;
  ChannelEvents events_;
};

struct DeviceStats {
  std::uint64_t steps = 0;
  std::uint64_t ns = 0;
};

// Forwards every Device call to `inner`. The inner device keeps the
// interrupt line the untraced device would have at every step boundary, so
// SnapshotState() — and with it Machine::StateHash() — is the inner device's.
class TracingDevice : public sep::Device {
 public:
  TracingDevice(std::unique_ptr<sep::Device> inner, std::shared_ptr<DeviceStats> stats);

  std::unique_ptr<sep::Device> Clone() const override;
  sep::Word ReadRegister(int offset) override;
  void WriteRegister(int offset, sep::Word value) override;
  void Step() override;
  std::vector<sep::Word> SnapshotState() const override;
  bool RestoreState(std::span<const sep::Word> state) override;
  void Perturb(sep::Rng& rng) override;

 private:
  std::unique_ptr<sep::Device> inner_;
  std::shared_ptr<DeviceStats> stats_;
  // The wrapper's line was last raised from the inner device's; a cleared
  // wrapper line then means the machine delivered the interrupt.
  bool mirrored_ = false;
};

// Model calls of the exhaustive checker, shared by every clone (the checker
// clones its input per worker), hence atomic.
enum class CoreCall { kRestore, kExecute, kSerialize, kAbstract, kNextOp };
inline constexpr int kCoreCalls = 5;
const char* CoreCallName(CoreCall call);

struct CoreStats {
  std::array<std::atomic<std::uint64_t>, kCoreCalls> count{};
  std::array<std::atomic<std::uint64_t>, kCoreCalls> ns{};
};

class TracingSystem : public sep::SharedSystem {
 public:
  TracingSystem(std::unique_ptr<sep::SharedSystem> inner, std::shared_ptr<CoreStats> stats);

  std::unique_ptr<sep::SharedSystem> Clone() const override;
  int ColourCount() const override;
  std::string ColourName(int colour) const override;
  int Colour() const override;
  sep::OperationId NextOperation() const override;
  void ExecuteOperation() override;
  sep::AbstractState Abstract(int colour) const override;
  int UnitCount() const override;
  int UnitColour(int unit) const override;
  std::string UnitName(int unit) const override;
  void StepUnit(int unit) override;
  void InjectInput(int unit, sep::Word value) override;
  std::vector<sep::Word> DrainOutput(int unit) override;
  void PerturbOthers(int colour, sep::Rng& rng) override;
  bool Finished() const override;
  std::optional<std::vector<sep::Word>> FullState() const override;
  void AppendFullState(std::vector<sep::Word>& out) const override;
  bool RestoreFullState(std::span<const sep::Word> state) override;
  void AppendAbstract(int colour, std::vector<sep::Word>& out) const override;

 private:
  // Times `fn` and bills it to `call`.
  template <typename Fn>
  auto Timed(CoreCall call, Fn&& fn) const;
  void Bill(CoreCall call, Clock::time_point start) const;

  std::unique_ptr<sep::SharedSystem> inner_;
  std::shared_ptr<CoreStats> stats_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
