// KernelizedSystem: the machine + separation kernel, viewed through the
// formal model interface of src/model/shared_system.h.
//
// This is the object the Proof-of-Separability checker operates on: the
// complete concrete system (CPU, memory, MMU, kernel data, devices) with
// COLOUR, NEXTOP, Φ^c and the per-colour perturbation realized by the
// kernel's knowledge of its own layout.
#ifndef SRC_CORE_KERNEL_SYSTEM_H_
#define SRC_CORE_KERNEL_SYSTEM_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/kernel/kernel.h"
#include "src/machine/machine.h"
#include "src/model/shared_system.h"
#include "src/sm11asm/assembler.h"

namespace sep {

class KernelizedSystem : public SharedSystem {
 public:
  // Adopts an already-booted machine (used by Clone). Most callers use
  // SystemBuilder below.
  static Result<std::unique_ptr<KernelizedSystem>> Adopt(std::unique_ptr<Machine> machine,
                                                         KernelConfig config);

  // --- SharedSystem ---
  std::unique_ptr<SharedSystem> Clone() const override;
  int ColourCount() const override;
  std::string ColourName(int colour) const override;
  int Colour() const override;
  OperationId NextOperation() const override;
  void ExecuteOperation() override;
  AbstractState Abstract(int colour) const override;
  int UnitCount() const override;
  int UnitColour(int unit) const override;
  std::string UnitName(int unit) const override;
  void StepUnit(int unit) override;
  void InjectInput(int unit, Word value) override;
  std::vector<Word> DrainOutput(int unit) override;
  void PerturbOthers(int colour, Rng& rng) override;
  bool Finished() const override;
  std::optional<std::vector<Word>> FullState() const override;
  void AppendFullState(std::vector<Word>& out) const override;
  bool RestoreFullState(std::span<const Word> state) override;
  std::size_t DirtyChunks(std::vector<std::uint32_t>& out) const override;
  bool RestoreChunks(std::span<const Word> state, std::span<const std::uint32_t> chunks) override;
  void UpdateFullState(std::span<const std::uint32_t> chunks,
                       std::vector<Word>& out) const override;
  void AppendAbstract(int colour, std::vector<Word>& out) const override;

  // --- direct access for tests, benches and examples ---
  Machine& machine() { return *machine_; }
  const Machine& machine() const { return *machine_; }
  SeparationKernel& kernel() { return *kernel_; }
  const SeparationKernel& kernel() const { return *kernel_; }

  // Runs whole machine steps (CPU phase + all devices) until all regimes
  // halt or `max_steps` is reached; returns steps taken. This is
  // Machine::Run: regimes execute in batches between kernel entries and
  // device events, step-for-step identical to repeated Machine::Step().
  std::size_t Run(std::size_t max_steps);

 private:
  friend class SystemBuilder;

  KernelizedSystem(std::unique_ptr<Machine> machine, KernelConfig config);

  std::unique_ptr<Machine> machine_;
  std::unique_ptr<SeparationKernel> kernel_;
};

// Declarative construction of a kernelized system: devices, regimes with
// assembly-source programs, channels — then Build() assembles programs,
// boots the kernel and returns the ready system.
class SystemBuilder {
 public:
  // Fixes the size of physical memory. By default Build() sizes it to the
  // carve-out: the regime partitions, the kernel partition and the
  // shared-ring windows, and nothing else.
  SystemBuilder& WithMemoryWords(std::size_t words);

  // Devices are added in machine slot order; returns the slot index.
  int AddDevice(std::unique_ptr<Device> device);

  // Adds a regime with a partition carved sequentially from physical memory.
  // `source` is SM-11 assembly; entry is the program's lowest address.
  // Returns the regime index.
  Result<int> AddRegime(const std::string& name, std::uint32_t mem_words,
                        const std::string& source, std::vector<int> device_slots = {});

  // Adds a regime from a pre-assembled word image.
  Result<int> AddRegimeImage(const std::string& name, std::uint32_t mem_words, Word entry,
                             std::vector<Word> image, std::vector<int> device_slots = {});

  // Declares a one-directional channel; returns the channel index.
  int AddChannel(const std::string& name, int sender, int receiver, std::uint32_t capacity = 16);

  // Declares a shared-memory ring channel (zero-copy doorbell fabric). The
  // data region is carved from physical memory at Build() time, after the
  // kernel partition; capacity must be a power of two in [8, 8192]. Returns
  // the ring index.
  int AddSharedRing(const std::string& name, int producer, int consumer,
                    std::uint32_t capacity = 256);

  SystemBuilder& CutChannels(bool cut);
  SystemBuilder& WithFaults(const KernelFaults& faults);

  Result<std::unique_ptr<KernelizedSystem>> Build();

 private:
  std::optional<std::size_t> memory_words_;
  KernelConfig kernel_config_;
  std::vector<std::unique_ptr<Device>> devices_;
  struct Image {
    int regime;
    Word base;
    std::vector<Word> words;
  };
  std::vector<Image> images_;
  PhysAddr next_base_ = 0;
};

}  // namespace sep

#endif  // SRC_CORE_KERNEL_SYSTEM_H_
