#include "src/core/kernel_system.h"

#include "src/base/logging.h"
#include "src/base/strings.h"

namespace sep {

KernelizedSystem::KernelizedSystem(std::unique_ptr<Machine> machine, KernelConfig config)
    : machine_(std::move(machine)),
      kernel_(std::make_unique<SeparationKernel>(*machine_, std::move(config))) {}

Result<std::unique_ptr<KernelizedSystem>> KernelizedSystem::Adopt(
    std::unique_ptr<Machine> machine, KernelConfig config) {
  auto system = std::unique_ptr<KernelizedSystem>(
      new KernelizedSystem(std::move(machine), std::move(config)));
  if (Result<> r = system->kernel_->Adopt(); !r.ok()) {
    return Err(r.error());
  }
  return system;
}

std::unique_ptr<SharedSystem> KernelizedSystem::Clone() const {
  Result<std::unique_ptr<KernelizedSystem>> clone =
      Adopt(machine_->Clone(), kernel_->config());
  SEP_CHECK(clone.ok());
  return std::move(clone.value());
}

int KernelizedSystem::ColourCount() const {
  return static_cast<int>(kernel_->config().regimes.size());
}

std::string KernelizedSystem::ColourName(int colour) const {
  return kernel_->config().regimes[static_cast<std::size_t>(colour)].name;
}

int KernelizedSystem::Colour() const {
  // Mirrors the decision order of Machine::StepCpuPhase: deferred kernel
  // work (owned by the current regime), interrupt delivery (owned by the
  // device's owner), idle, or instruction execution by the current regime.
  if (kernel_->HasDeferredWork()) {
    return static_cast<int>(kernel_->CurrentRegime());
  }
  const int irq = machine_->PendingInterrupt();
  if (irq >= 0) {
    return kernel_->DeviceOwner(irq);
  }
  if (machine_->halted() || machine_->waiting()) {
    return kColourNone;
  }
  const Word cur = kernel_->CurrentRegime();
  return cur == kIdleRegime ? kColourNone : static_cast<int>(cur);
}

OperationId KernelizedSystem::NextOperation() const {
  OperationId op;
  if (kernel_->HasDeferredWork()) {
    op.kind = OperationId::Kind::kKernelWork;
    return op;
  }
  const int irq = machine_->PendingInterrupt();
  if (irq >= 0) {
    op.kind = OperationId::Kind::kInterrupt;
    op.detail = {static_cast<Word>(irq)};
    return op;
  }
  if (machine_->halted() || machine_->waiting()) {
    op.kind = OperationId::Kind::kIdle;
    return op;
  }
  op.kind = OperationId::Kind::kInstruction;
  const Word pc = machine_->cpu().pc();
  const auto peek = [&](Word k) {
    return machine_->PeekVirt(static_cast<VirtAddr>(pc + k)).value_or(0xFFFF);
  };
  op.detail = {peek(0), peek(1), peek(2)};
  return op;
}

void KernelizedSystem::ExecuteOperation() { machine_->StepCpuPhase(); }

AbstractState KernelizedSystem::Abstract(int colour) const {
  return AbstractState{kernel_->AbstractProjection(colour)};
}

void KernelizedSystem::AppendAbstract(int colour, std::vector<Word>& out) const {
  kernel_->AppendAbstract(colour, out);
}

int KernelizedSystem::UnitCount() const { return machine_->device_count(); }

int KernelizedSystem::UnitColour(int unit) const { return kernel_->DeviceOwner(unit); }

std::string KernelizedSystem::UnitName(int unit) const { return machine_->device(unit).name(); }

void KernelizedSystem::StepUnit(int unit) { machine_->StepDevicePhase(unit); }

void KernelizedSystem::InjectInput(int unit, Word value) {
  machine_->device(unit).InjectInput(value);
}

std::vector<Word> KernelizedSystem::DrainOutput(int unit) {
  return machine_->device(unit).DrainOutput();
}

void KernelizedSystem::PerturbOthers(int colour, Rng& rng) {
  kernel_->PerturbNonColour(colour, rng);
}

bool KernelizedSystem::Finished() const { return machine_->halted(); }

std::optional<std::vector<Word>> KernelizedSystem::FullState() const {
  // The serialization covers all of physical memory: by default exactly the
  // configuration's carve-out (SystemBuilder::Build).
  return machine_->SnapshotFull();
}

void KernelizedSystem::AppendFullState(std::vector<Word>& out) const {
  machine_->SnapshotFullInto(out);
}

bool KernelizedSystem::RestoreFullState(std::span<const Word> state) {
  // The kernel keeps ALL of its dynamic state inside the machine's physical
  // memory (the invariant Machine documents for MachineClients), so
  // restoring the machine restores the kernel with it: the SeparationKernel
  // object holds only immutable configuration and its counters, which keep
  // counting across the restore.
  return machine_->RestoreFull(state);
}

// The record is the machine's: memory page i is chunk i, and the tail holds
// the memory's last page when the carve-out ends mid-page, then the MMU,
// CPU, device and halt/wait words (Machine::TailChunk). Guest and kernel
// stores alike go through PhysicalMemory, which flags their pages.
std::size_t KernelizedSystem::DirtyChunks(std::vector<std::uint32_t>& out) const {
  const std::size_t tail = machine_->TailChunk();
  machine_->memory().AppendDirtyPages(out, tail);
  return tail;
}

bool KernelizedSystem::RestoreChunks(std::span<const Word> state,
                                     std::span<const std::uint32_t> chunks) {
  return machine_->RestoreChunks(state, chunks);
}

void KernelizedSystem::UpdateFullState(std::span<const std::uint32_t> chunks,
                                       std::vector<Word>& out) const {
  machine_->UpdateSnapshot(chunks, out);
}

std::size_t KernelizedSystem::Run(std::size_t max_steps) { return machine_->Run(max_steps); }

// --- SystemBuilder -------------------------------------------------------------

SystemBuilder& SystemBuilder::WithMemoryWords(std::size_t words) {
  memory_words_ = words;
  return *this;
}

int SystemBuilder::AddDevice(std::unique_ptr<Device> device) {
  devices_.push_back(std::move(device));
  return static_cast<int>(devices_.size()) - 1;
}

Result<int> SystemBuilder::AddRegime(const std::string& name, std::uint32_t mem_words,
                                     const std::string& source, std::vector<int> device_slots) {
  Result<AssembledProgram> program = Assemble(source);
  if (!program.ok()) {
    return Err("assembling " + name + ": " + program.error());
  }
  // The image is loaded at its assembled base (matters for .ORG programs).
  Result<int> regime = AddRegimeImage(name, mem_words, program->EntryPoint(), program->words,
                                      std::move(device_slots));
  if (regime.ok()) {
    images_.back().base = program->base;
  }
  return regime;
}

Result<int> SystemBuilder::AddRegimeImage(const std::string& name, std::uint32_t mem_words,
                                          Word entry, std::vector<Word> image,
                                          std::vector<int> device_slots) {
  if (entry + image.size() > mem_words) {
    return Err("image for " + name + " larger than its partition");
  }
  RegimeConfig regime;
  regime.name = name;
  regime.mem_base = next_base_;
  regime.mem_words = mem_words;
  regime.entry = entry;
  regime.device_slots = std::move(device_slots);
  next_base_ += mem_words;
  kernel_config_.regimes.push_back(regime);

  const int index = static_cast<int>(kernel_config_.regimes.size()) - 1;
  images_.push_back(Image{index, 0, std::move(image)});
  return index;
}

int SystemBuilder::AddChannel(const std::string& name, int sender, int receiver,
                              std::uint32_t capacity) {
  kernel_config_.channels.push_back(ChannelConfig{name, sender, receiver, capacity});
  return static_cast<int>(kernel_config_.channels.size()) - 1;
}

int SystemBuilder::AddSharedRing(const std::string& name, int producer, int consumer,
                                 std::uint32_t capacity) {
  // data_base is assigned at Build() time, once all regime partitions and
  // the kernel partition have been carved.
  kernel_config_.shared_rings.push_back(SharedRingConfig{name, producer, consumer, capacity, 0});
  return static_cast<int>(kernel_config_.shared_rings.size()) - 1;
}

SystemBuilder& SystemBuilder::CutChannels(bool cut) {
  kernel_config_.cut_channels = cut;
  return *this;
}

SystemBuilder& SystemBuilder::WithFaults(const KernelFaults& faults) {
  kernel_config_.faults = faults;
  return *this;
}

Result<std::unique_ptr<KernelizedSystem>> SystemBuilder::Build() {
  // The kernel partition is carved after all regime partitions, and shared-
  // ring data regions after the kernel partition (outside every partition:
  // reachable only through the MMU windows the kernel programs).
  kernel_config_.kernel_base = next_base_;
  kernel_config_.kernel_words = RequiredKernelWords(kernel_config_);
  PhysAddr ring_base = kernel_config_.kernel_base + kernel_config_.kernel_words;
  for (SharedRingConfig& ring : kernel_config_.shared_rings) {
    ring.data_base = ring_base;
    ring_base += ring.capacity;
  }
  // Physical memory is exactly the carve-out unless WithMemoryWords fixed it.
  MachineConfig machine_config;
  machine_config.memory_words = memory_words_.value_or(ring_base);
  if (ring_base > machine_config.memory_words) {
    return Err(Format("partitions exceed physical memory (%u words needed, %zu present)",
                      ring_base, machine_config.memory_words));
  }
  if (machine_config.memory_words > machine_config.io_base) {
    return Err(Format("physical memory (%zu words) overlaps the I/O page at %u",
                      machine_config.memory_words, machine_config.io_base));
  }

  auto machine = std::make_unique<Machine>(machine_config);
  for (auto& device : devices_) {
    machine->AddDevice(std::move(device));
  }
  devices_.clear();

  auto system = std::unique_ptr<KernelizedSystem>(
      new KernelizedSystem(std::move(machine), kernel_config_));
  for (const Image& image : images_) {
    if (Result<> r = system->kernel().LoadRegimeImage(image.regime, image.base, image.words);
        !r.ok()) {
      return Err(r.error());
    }
  }
  if (Result<> r = system->kernel().Boot(); !r.ok()) {
    return Err(r.error());
  }
  return system;
}

}  // namespace sep
