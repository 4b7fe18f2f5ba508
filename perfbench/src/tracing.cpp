#include "tracing.h"

#include <type_traits>

#include "src/kernel/config.h"

namespace perfbench {

using sep::Word;

const char* TrapName(int code) {
  static const char* const kNames[kTrapCodes] = {
      "SWAP",  "SEND",  "RECV",    "STAT",    "SETVEC",  "RETI",    "AWAIT",
      "HALT",  "GETID", "SENDV",   "RECVV",   "RINGPUT", "RINGGET", "RINGSTAT"};
  return code >= 0 && code < kTrapCodes ? kNames[code] : "UNKNOWN";
}

void KernelStats::Add(const KernelStats& other) {
  for (int i = 0; i < kTrapCodes; ++i) {
    calls[i] += other.calls[i];
    call_ns[i] += other.call_ns[i];
  }
  faults_trapped += other.faults_trapped;
  irqs += other.irqs;
  irq_ns += other.irq_ns;
  before_execute += other.before_execute;
  before_execute_work += other.before_execute_work;
  before_execute_ns += other.before_execute_ns;
  timed_spans += other.timed_spans;
  send_accepted += other.send_accepted;
  recv_hits += other.recv_hits;
  ringput_accepted += other.ringput_accepted;
}

std::uint64_t KernelStats::KernelExits() const {
  std::uint64_t exits = faults_trapped + irqs + before_execute_work;
  for (std::uint64_t c : calls) {
    exits += c;
  }
  return exits;
}

std::uint64_t KernelStats::KernelNanos() const {
  std::uint64_t ns = irq_ns + before_execute_ns;
  for (std::uint64_t c : call_ns) {
    ns += c;
  }
  return ns;
}

namespace {

void Record(std::vector<std::vector<sep::Tick>>& lists, Word index, sep::Tick tick) {
  if (lists.size() <= index) {
    lists.resize(static_cast<std::size_t>(index) + 1);
  }
  lists[index].push_back(tick);
}

}  // namespace

TracingClient::TracingClient(sep::KernelizedSystem& system)
    : system_(system), kernel_(system.kernel()) {
  system_.machine().set_client(this);
}

TracingClient::~TracingClient() { system_.machine().set_client(&kernel_); }

void TracingClient::OnTrap(const sep::TrapInfo& info) {
  if (info.kind != sep::TrapInfo::Kind::kTrapInstruction) {
    ++stats_.faults_trapped;
    kernel_.OnTrap(info);
    return;
  }
  const sep::CpuState& cpu = system_.machine().cpu();
  const Word arg0 = cpu.regs[0];
  const sep::Tick tick = system_.machine().tick();
  const Clock::time_point start = Clock::now();
  kernel_.OnTrap(info);
  const std::uint64_t ns = NanosBetween(start, Clock::now());
  ++stats_.timed_spans;
  const int code = info.code;
  if (code >= kTrapCodes) {
    return;  // the kernel faulted the caller; counted by kernel().FaultCount()
  }
  ++stats_.calls[code];
  stats_.call_ns[code] += ns;
  // The result registers are the caller's: none of these calls switches
  // context unless it faults the caller, and every workload checks that the
  // kernel fault count stays 0.
  const bool ok = cpu.regs[0] == 1;
  switch (code) {
    case sep::kCallSend:
      if (ok) {
        ++stats_.send_accepted;
        Record(events_.sends, arg0, tick);
      }
      break;
    case sep::kCallRecv:
      if (ok) {
        ++stats_.recv_hits;
        Record(events_.recvs, arg0, tick);
      }
      break;
    case sep::kCallRingPut:
      if (ok) {
        ++stats_.ringput_accepted;
        Record(events_.ringputs, arg0, tick);
      }
      break;
    case sep::kCallRingGet:
      if (ok) {
        Record(events_.ringgets, arg0, tick);
      }
      break;
    default:
      break;
  }
}

void TracingClient::OnInterrupt(int device_index) {
  ++stats_.irqs;
  const Clock::time_point start = Clock::now();
  kernel_.OnInterrupt(device_index);
  stats_.irq_ns += NanosBetween(start, Clock::now());
  ++stats_.timed_spans;
}

void TracingClient::OnHalt() { kernel_.OnHalt(); }

bool TracingClient::OnBeforeExecute() {
  ++stats_.before_execute;
  const Clock::time_point start = Clock::now();
  const bool worked = kernel_.OnBeforeExecute();
  stats_.before_execute_ns += NanosBetween(start, Clock::now());
  ++stats_.timed_spans;
  stats_.before_execute_work += worked ? 1 : 0;
  return worked;
}

// --- TracingDevice -------------------------------------------------------------

TracingDevice::TracingDevice(std::unique_ptr<sep::Device> inner,
                             std::shared_ptr<DeviceStats> stats)
    : Device(inner->name(), inner->vector(), inner->priority(), inner->register_count()),
      inner_(std::move(inner)),
      stats_(std::move(stats)) {}

std::unique_ptr<sep::Device> TracingDevice::Clone() const {
  auto copy = std::make_unique<TracingDevice>(inner_->Clone(), stats_);
  CloneBaseInto(*copy);
  copy->mirrored_ = mirrored_;
  return copy;
}

Word TracingDevice::ReadRegister(int offset) { return inner_->ReadRegister(offset); }

void TracingDevice::WriteRegister(int offset, Word value) { inner_->WriteRegister(offset, value); }

void TracingDevice::Step() {
  // The machine clears the wrapper's line when it delivers the interrupt;
  // mirror that onto the inner device before its activity slot.
  if (mirrored_ && !interrupt_pending()) {
    inner_->ClearInterrupt();
  }
  while (!rx_from_env_.empty()) {
    inner_->InjectInput(rx_from_env_.front());
    rx_from_env_.pop_front();
  }
  const Clock::time_point start = Clock::now();
  inner_->Step();
  stats_->ns += NanosBetween(start, Clock::now());
  ++stats_->steps;
  for (Word w : inner_->DrainOutput()) {
    tx_to_env_.push_back(w);
  }
  // A line raised in this slot or by a register write in the CPU phase.
  mirrored_ = inner_->interrupt_pending();
  if (mirrored_) {
    RaiseInterrupt();
  }
}

std::vector<Word> TracingDevice::SnapshotState() const { return inner_->SnapshotState(); }

bool TracingDevice::RestoreState(std::span<const Word> state) {
  const bool ok = inner_->RestoreState(state);
  mirrored_ = inner_->interrupt_pending();
  SetInterruptLine(mirrored_);
  return ok;
}

void TracingDevice::Perturb(sep::Rng& rng) { inner_->Perturb(rng); }

// --- TracingSystem -------------------------------------------------------------

const char* CoreCallName(CoreCall call) {
  switch (call) {
    case CoreCall::kRestore:
      return "restore";
    case CoreCall::kExecute:
      return "execute";
    case CoreCall::kSerialize:
      return "serialize";
    case CoreCall::kAbstract:
      return "abstract";
    case CoreCall::kNextOp:
      return "nextop";
  }
  return "unknown";
}

TracingSystem::TracingSystem(std::unique_ptr<sep::SharedSystem> inner,
                             std::shared_ptr<CoreStats> stats)
    : inner_(std::move(inner)), stats_(std::move(stats)) {}

void TracingSystem::Bill(CoreCall call, Clock::time_point start) const {
  const auto index = static_cast<std::size_t>(call);
  stats_->ns[index].fetch_add(NanosBetween(start, Clock::now()), std::memory_order_relaxed);
  stats_->count[index].fetch_add(1, std::memory_order_relaxed);
}

template <typename Fn>
auto TracingSystem::Timed(CoreCall call, Fn&& fn) const {
  const Clock::time_point start = Clock::now();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    Bill(call, start);
  } else {
    auto result = fn();
    Bill(call, start);
    return result;
  }
}

std::unique_ptr<sep::SharedSystem> TracingSystem::Clone() const {
  return std::make_unique<TracingSystem>(inner_->Clone(), stats_);
}

int TracingSystem::ColourCount() const { return inner_->ColourCount(); }

std::string TracingSystem::ColourName(int colour) const { return inner_->ColourName(colour); }

int TracingSystem::Colour() const {
  return Timed(CoreCall::kNextOp, [&] { return inner_->Colour(); });
}

sep::OperationId TracingSystem::NextOperation() const {
  return Timed(CoreCall::kNextOp, [&] { return inner_->NextOperation(); });
}

void TracingSystem::ExecuteOperation() {
  Timed(CoreCall::kExecute, [&] { inner_->ExecuteOperation(); });
}

sep::AbstractState TracingSystem::Abstract(int colour) const {
  return Timed(CoreCall::kAbstract, [&] { return inner_->Abstract(colour); });
}

int TracingSystem::UnitCount() const { return inner_->UnitCount(); }

int TracingSystem::UnitColour(int unit) const { return inner_->UnitColour(unit); }

std::string TracingSystem::UnitName(int unit) const { return inner_->UnitName(unit); }

void TracingSystem::StepUnit(int unit) {
  Timed(CoreCall::kExecute, [&] { inner_->StepUnit(unit); });
}

void TracingSystem::InjectInput(int unit, Word value) {
  Timed(CoreCall::kExecute, [&] { inner_->InjectInput(unit, value); });
}

std::vector<Word> TracingSystem::DrainOutput(int unit) { return inner_->DrainOutput(unit); }

void TracingSystem::PerturbOthers(int colour, sep::Rng& rng) {
  inner_->PerturbOthers(colour, rng);
}

bool TracingSystem::Finished() const { return inner_->Finished(); }

std::optional<std::vector<Word>> TracingSystem::FullState() const {
  return Timed(CoreCall::kSerialize, [&] { return inner_->FullState(); });
}

void TracingSystem::AppendFullState(std::vector<Word>& out) const {
  Timed(CoreCall::kSerialize, [&] { inner_->AppendFullState(out); });
}

bool TracingSystem::RestoreFullState(std::span<const Word> state) {
  return Timed(CoreCall::kRestore, [&] { return inner_->RestoreFullState(state); });
}

void TracingSystem::AppendAbstract(int colour, std::vector<Word>& out) const {
  Timed(CoreCall::kAbstract, [&] { inner_->AppendAbstract(colour, out); });
}

}  // namespace perfbench
