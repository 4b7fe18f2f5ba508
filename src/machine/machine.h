// The complete SM-11 machine: CPU + MMU + physical memory + devices.
//
// The machine is the "concrete machine" of the paper's Section 4. Its
// complete state — memory, CPU registers, MMU registers, device state,
// pending interrupts — is what the Proof-of-Separability abstraction
// functions project per colour. The machine is deep-cloneable so the checker
// can replay operations from identical or Φ-equivalent states.
//
// Control transfers (traps, kernel-call TRAPs, interrupts) can be handled in
// two ways:
//   * a native MachineClient (the separation kernel implemented in C++,
//     playing the role SUE's machine code played) intercepts them and
//     manipulates machine state directly; or
//   * with no client installed, the machine vectors through the in-memory
//     vector table like real hardware — used by standalone SM-11 programs
//     and assembler tests.
//
// IMPORTANT INVARIANT for verification: a MachineClient must keep ALL of its
// dynamic state inside the machine's physical memory (its kernel partition),
// exactly as SUE's data lived in PDP-11 core. Then cloning the machine and
// attaching an identically-configured client reproduces behaviour exactly,
// and "the whole concrete state" really is the machine state. The one
// exception is diagnostic counters (the client's and the machine's own,
// like the cache statistics): they stay out of machine memory and are never
// cloned, hashed, snapshotted or read back, so no behaviour depends on them.
#ifndef SRC_MACHINE_MACHINE_H_
#define SRC_MACHINE_MACHINE_H_

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/types.h"
#include "src/machine/cpu.h"
#include "src/machine/device.h"
#include "src/machine/memory.h"
#include "src/machine/mmu.h"

namespace sep {

// Hardware vector table layout (physical word addresses) used when no native
// client is installed. Each vector is two words: new PC, new PSW.
inline constexpr PhysAddr kVectorIllegal = 2;
inline constexpr PhysAddr kVectorMmuFault = 4;
inline constexpr PhysAddr kVectorTrap = 6;
// Device vectors are assigned per device at construction (>= 16).

// Each device owns an 8-word block of the I/O page.
inline constexpr int kDeviceRegSpan = 8;

struct MachineConfig {
  std::size_t memory_words = 1u << 16;
  PhysAddr io_base = 0x40000;  // device registers live at io_base + slot*8
};

struct TrapInfo {
  enum class Kind : std::uint8_t { kTrapInstruction, kIllegalInstruction, kMmuFault } kind =
      Kind::kTrapInstruction;
  std::uint16_t code = 0;    // kernel-call code for kTrapInstruction
  VirtAddr fault_addr = 0;   // for kMmuFault
};

class Machine;
class MachineBus;  // machine.cpp-internal concrete bus

class MachineClient {
 public:
  virtual ~MachineClient() = default;
  virtual void OnTrap(const TrapInfo& info) = 0;
  virtual void OnInterrupt(int device_index) = 0;
  virtual void OnHalt() {}
  // Called at the top of a CPU phase. A client that has deferred work for
  // the current context (e.g. the separation kernel completing an AWAIT or
  // delivering a queued interrupt) performs it and returns true; the phase
  // then ends without executing an instruction. This keeps every kernel
  // action attributable to the regime on whose behalf it runs — the
  // property the Proof-of-Separability colouring relies on.
  //
  // Contract: the answer may change only inside a client callback (OnTrap,
  // OnInterrupt, OnHalt, or an OnBeforeExecute that did work) or between
  // calls into the machine. Step() and StepCpuPhase() ask every phase;
  // Machine::Run asks at entry and after every event it applies (each
  // tick it steps singly, and each trap, halt or wait that ends a batch)
  // and nowhere else, and runs the instructions in between as batches.
  // The separation kernel keeps it: its deferred work (resume-from-AWAIT,
  // pending vectors, the in-handler flag) is written only inside its own
  // callbacks, its partition is never mapped in user mode, and regimes
  // never run privileged.
  virtual bool OnBeforeExecute() { return false; }
};

// One machine step, reported for tracing.
struct StepEvent {
  enum class Kind : std::uint8_t {
    kInstruction,
    kInterrupt,
    kTrap,
    kIdle,        // halted or waiting
    kKernelWork,  // client performed deferred work instead of an instruction
  } kind = Kind::kInstruction;
  TrapInfo trap;       // for kTrap
  int device = -1;     // for kInterrupt
};

class Machine {
 public:
  explicit Machine(const MachineConfig& config);

  // Deep clone. Devices are cloned; the client is NOT (attach your own).
  std::unique_ptr<Machine> Clone() const;

  // --- configuration ---

  // Adds a device; returns its slot index. Register block: io_base + slot*8.
  int AddDevice(std::unique_ptr<Device> device);

  PhysAddr DeviceRegBase(int slot) const {
    return config_.io_base + static_cast<PhysAddr>(slot) * kDeviceRegSpan;
  }

  void set_client(MachineClient* client) { client_ = client; }

  // --- state access ---

  CpuState& cpu() { return cpu_; }
  const CpuState& cpu() const { return cpu_; }
  Mmu& mmu() { return mmu_; }
  const Mmu& mmu() const { return mmu_; }
  PhysicalMemory& memory() { return memory_; }
  const PhysicalMemory& memory() const { return memory_; }

  int device_count() const { return static_cast<int>(devices_.size()); }
  Device& device(int slot) { return *devices_[slot]; }
  const Device& device(int slot) const { return *devices_[slot]; }
  Device* FindDevice(const std::string& name);

  bool halted() const { return halted_; }
  void set_halted(bool halted) { halted_ = halted; }
  bool waiting() const { return waiting_; }
  void set_waiting(bool waiting) { waiting_ = waiting; }
  Tick tick() const { return tick_; }

  const MachineConfig& config() const { return config_; }

  // Traps dispatched and interrupts delivered since construction. Like the
  // cache statistics below, bookkeeping of this instance: never cloned,
  // hashed, snapshotted or restored.
  std::uint64_t traps() const { return traps_; }
  std::uint64_t interrupts() const { return interrupts_; }

  // Privileged physical access (native-kernel use; bypasses the MMU exactly
  // as kernel-mode code with identity mapping would).
  Word PhysRead(PhysAddr addr) const;
  void PhysWrite(PhysAddr addr, Word value);

  // Side-effect-free read through the current mode's mapping: RAM words are
  // returned as stored; device-register and unmapped addresses yield
  // nullopt (never touching device state). Used to compute NEXTOP identity.
  std::optional<Word> PeekVirt(VirtAddr addr) const;

  // --- execution ---

  // One machine step: deliver at most one interrupt or execute one
  // instruction, then give every device one activity slot.
  StepEvent Step();

  // The two phases of Step(), separately invokable. The
  // Proof-of-Separability checker drives them individually: the CPU phase is
  // the formal model's "operation", each device phase is one unit of I/O
  // device activity (the Appendix's conditions 3-6).
  StepEvent StepCpuPhase();
  void StepDevicePhase(int slot);

  // Highest-priority deliverable interrupt, or -1. Public so the model
  // adapter can compute COLOUR(s): an operation that will deliver an
  // interrupt is performed on behalf of the interrupting device's owner.
  int PendingInterrupt() const;

  // Runs until halted or `max_steps` exhausted; returns steps taken.
  // Step-for-step identical to repeated Step() (same state, tick, device
  // output and client callbacks at the same ticks), but batched: while no
  // client check is pending and no interrupt line is raised, instructions
  // run on the threaded engine for up to min(budget, device horizon) steps
  // (Device::QuietSteps), and the devices are caught up at the batch end.
  // A batch ends at the first trap, halt or wait, which is applied at its
  // own tick, or before the first device-register access, which is replayed
  // on the per-tick path. The client is consulted per the MachineClient
  // contract. A machine with no client and no devices is the unbounded-
  // horizon case of the same loop.
  std::size_t Run(std::size_t max_steps);

  // --- predecoded-instruction cache ---
  //
  // The CPU phase serves decoded instructions from a flat cache keyed by the
  // physical address of the instruction word. Entries are validated against
  // PhysicalMemory page versions (self-modifying code: a refill marks the
  // words it decodes, and a store moves its page's version only when it
  // lands on a marked word) and the current MMU mapping (remaps) on every
  // step, so traces are identical with the cache on or off; see
  // docs/PERFORMANCE.md for the invalidation protocol. The cache is derived
  // state: it is not cloned, hashed, or snapshotted. With it on, every
  // instruction runs on the threaded engine (RunThreaded); with it off, on
  // the generic interpreter alone (RunStepped), the reference the tests hold
  // the threaded engine to.

  void set_predecode_enabled(bool enabled);
  bool predecode_enabled() const { return predecode_enabled_; }

  // Fast-path statistics (tests assert on invalidation behaviour).
  std::uint64_t predecode_hits() const { return predecode_hits_; }
  std::uint64_t predecode_misses() const { return predecode_misses_; }
  // Cache hits the threaded engine ran on the generic predecoded path (the
  // scratch-CpuState interpreter) because their form has no direct handler.
  // A device access refused inside a batch and replayed per tick is
  // dispatched twice and counted twice, as in predecode_hits().
  std::uint64_t generic_steps() const { return generic_steps_; }

  // --- superblock trace cache ---
  //
  // On top of the predecode cache, Run's threaded batches stitch the
  // instructions reached from a hot taken-branch target into a superblock:
  // a straight-line trace that crosses predicted branch directions. The
  // PSW-mode and MMU-mapping checks are hoisted to superblock entry, and the
  // per-64-word-page version checks are hoisted into entry guards plus a
  // recheck after each instruction that can store to memory — so inside the
  // trace no per-instruction revalidation runs at all. Any guard failure
  // (store into a stitched or decoded word of a covered page, MMU remap,
  // RestoreWords changing covered content) tears the superblock down and
  // execution re-enters the per-step slow path; traces are bit-identical to
  // repeated Step(). Like the predecode cache, superblocks are derived state:
  // never cloned, hashed, or snapshotted.

  void set_superblock_enabled(bool enabled);
  bool superblock_enabled() const { return superblock_enabled_; }

  std::uint64_t superblock_builds() const { return superblock_builds_; }
  std::uint64_t superblock_side_exits() const { return superblock_side_exits_; }
  std::uint64_t superblock_invalidations() const { return superblock_invalidations_; }
  std::size_t superblock_count() const { return superblocks_.size(); }

  // HashWords over SnapshotFull(): equal for two identically-configured
  // machines iff (up to collisions) RestoreFull would make them equal. The
  // step counter is bookkeeping, not architectural state, and is excluded.
  std::uint64_t StateHash() const;

  // Complete state serialization; two machines are architecturally equal iff
  // their serializations are equal.
  std::vector<Word> SnapshotFull() const;

  // SnapshotFull appended to `out` — the exhaustive checker serializes one
  // state per explored transition and reuses the buffer.
  void SnapshotFullInto(std::vector<Word>& out) const;

  // Inverse of SnapshotFull: overwrites the complete architectural state
  // (memory, MMU, CPU, devices, halt/wait latches) from a serialization
  // produced by an identically-configured machine. The step counter is
  // bookkeeping, not architectural state, and is left alone; the predecode
  // cache revalidates itself against the page versions RestoreWords bumps.
  // Returns false — leaving the machine state unspecified — if the snapshot
  // is malformed or a device does not support RestoreState.
  bool RestoreFull(std::span<const Word> snapshot);

  // --- dirty-page record ---
  //
  // SnapshotFull cut into kStateChunkWords-word chunks: chunk i below
  // TailChunk() is memory page i, and the chunks from TailChunk() on are the
  // tail: the memory's last page when its size is not a whole number of
  // pages (a carve-out often ends mid-page, inside the kernel partition),
  // then the MMU, CPU, device and halt/wait words, which change on nearly
  // every step. A caller that keeps its own copy of a snapshot restores and
  // refreshes only the whole pages memory's dirty record names
  // (memory().AppendDirtyPages), and the tail.
  std::size_t TailChunk() const { return memory_.size() / kStateChunkWords; }

  // RestoreFull restoring, of memory, only the listed whole pages and the
  // tail's: the caller vouches that every other page already holds
  // `snapshot`'s words. Clears the dirty record.
  bool RestoreChunks(std::span<const Word> snapshot, std::span<const std::uint32_t> pages);

  // Brings `out`, a SnapshotFull that agrees with this machine on every
  // whole page but the listed ones, up to date: copies the listed pages in
  // and replaces everything from TailChunk() on.
  void UpdateSnapshot(std::span<const std::uint32_t> pages, std::vector<Word>& out) const;

 private:
  friend class MachineBus;

  // SnapshotFull past memory: the MMU, CPU, device and halt/wait words.
  void AppendAfterMemory(std::vector<Word>& out) const;
  // True when `snapshot` is long enough to hold this machine's state.
  bool SnapshotFits(std::span<const Word> snapshot) const;
  // Inverse of AppendAfterMemory on the words after memory in `snapshot`.
  bool RestoreAfterMemory(std::span<const Word> snapshot);

  // One predecoded instruction: the decode plus its extension words, valid
  // while the page versions of the covered words are unchanged. `form`
  // indexes the threaded Run loop's handler table (0 = generic slow path);
  // it is derived from the decode at refill time.
  struct Superblock;

  struct PredecodedInsn {
    DecodedInsn insn;
    std::array<Word, 2> ext{};
    std::uint8_t form = 0;
    // Resolved handler label inside RunThreaded, filled lazily on first
    // threaded dispatch (label addresses are stable for the process
    // lifetime). Cleared on every refill; purely derived from `form`.
    const void* handler = nullptr;
    std::uint64_t version = 0;       // page version of the insn word; 0 = empty
    std::uint64_t version_last = 0;  // page version of the last covered word
    // Superblock anchored at this entry (owner: superblocks_). While set,
    // `form` is kFormSbEnter and the original form lives in sb->orig_form.
    Superblock* sb = nullptr;
    // Taken-branch-target heat; a superblock build triggers when it crosses
    // kSuperblockHeatThreshold. Survives refills, reset on invalidation.
    std::uint16_t heat = 0;
  };

  // One instruction of a superblock trace: the predecoded form plus the
  // virtual PC it was stitched at and, for branches, the index of the
  // predicted successor inside the trace (-1 = trace exit).
  struct SuperblockInsn {
    DecodedInsn insn;
    std::array<Word, 2> ext{};
    Word pc = 0;
    std::int32_t next_index = -1;
    const void* handler = nullptr;  // sb handler label, resolved on first entry
    std::uint8_t form = 0;
    bool may_write = false;  // memory-destination opcode: recheck versions after
    bool can_fault = false;  // touches data memory: needs event plumbing
  };

  struct Superblock {
    // Entry guard: the virtual-page mappings the trace was stitched through.
    // `limit` is the effective fetchable length (0 when the page was
    // unmapped — impossible at build time, kept for symmetry).
    struct PageGuard {
      std::uint32_t vpage = 0;
      PhysAddr base = 0;
      std::uint32_t limit = 0;
    };
    // Entry guard: version of every 64-word physical page covered by the
    // stitched instruction words. Checked on entry and after every
    // may_write instruction, replacing the per-step version/version_last
    // compares for the whole trace.
    struct VersionGuard {
      std::uint32_t index = 0;  // addr >> PhysicalMemory::kVersionPageShift
      std::uint64_t version = 0;
    };

    Word entry_pc = 0;
    CpuMode mode = CpuMode::kKernel;
    std::uint8_t orig_form = 0;  // entry's DirectForm before kFormSbEnter
    std::uint32_t slot = 0;      // index in superblocks_ (swap-erase fixup)
    PredecodedInsn* entry = nullptr;
    std::vector<SuperblockInsn> insns;
    std::vector<PageGuard> page_guards;
    std::vector<VersionGuard> version_guards;
  };

  static constexpr std::uint16_t kSuperblockHeatThreshold = 16;
  static constexpr std::size_t kSuperblockMaxInsns = 64;
  static constexpr std::size_t kSuperblockMaxVersionGuards = 16;
  static constexpr std::size_t kSuperblockMinInsns = 2;

  // Cache blocks are allocated lazily per touched code region so clones and
  // non-executing machines pay nothing.
  static constexpr int kIcacheBlockShift = 8;
  static constexpr std::size_t kIcacheBlockWords = std::size_t{1} << kIcacheBlockShift;
  struct IcacheBlock {
    std::array<PredecodedInsn, kIcacheBlockWords> entries{};
  };

  void HardwareVector(PhysAddr vector);
  void DispatchTrap(const TrapInfo& info);

  // StepCpuPhase once the client has declined deferred work: interrupt
  // delivery, an idle tick, or one instruction. Run's per-tick path. The
  // instruction is a one-instruction batch on the engine the predecode
  // switch selects (RunBatch), with device-register accesses performed.
  StepEvent DeliverOrExecute();

  // Device phases for Run's batches. StepDevicePhases runs one phase of
  // every device and advances the tick; SkipDevicePhases(n) applies n phases
  // that lie inside every device's quiet horizon (Device::SkipSteps) and
  // advances the tick by n. QuietHorizon is the smallest QuietSteps().
  void StepDevicePhases();
  void SkipDevicePhases(std::size_t n);
  std::size_t QuietHorizon() const;
  bool AnyInterruptLine() const;

  // Applies a CPU event to machine state (halt/wait latches, trap dispatch)
  // and renders it as a step event.
  StepEvent ApplyCpuEvent(const CpuEvent& cpu_event);

  // A cached JSR, RTS or TRAP inside RunThreaded, run directly on cpu_.
  CpuEvent ExecuteCallForm(MachineBus& bus, const PredecodedInsn& entry);
  // Predecode-cache miss (or stale entry) inside RunThreaded: decodes from
  // memory, refills `entry` and executes the instruction, or leaves it
  // uncached and runs the generic interpreter when it cannot be cached.
  CpuEvent ExecuteCpuMiss(MachineBus& bus, PredecodedInsn& entry, PhysAddr phys,
                          std::uint32_t offset, std::uint32_t limit);

  // How a batch ended: `steps` instructions retired. A non-kOk `event` was
  // raised by the last of them and is not yet applied; `refused` means the
  // batch stopped before an instruction that accesses a device register,
  // which is left unexecuted for Run to replay.
  struct BatchEnd {
    std::size_t steps = 0;
    CpuEvent event{};
    bool refused = false;
  };

  // The two batch bodies, i.e. the machine's two execution tiers. Each
  // executes up to `max_steps` instructions with no interrupt polling, no
  // client consult and no device phase, and never touches tick_.
  //   * RunThreaded is the direct-threaded engine with superblocks: every
  //     predecoded opcode dispatches to its own handler (own indirect-branch
  //     site) and PC/PSW live in locals across steps.
  //   * RunStepped is the generic interpreter (interp::ExecuteOneT) in a
  //     loop, with no cache of any kind: the caches-off oracle the other
  //     tier is tested against.
  // With `refuse_io` (Run's batches, where the devices lag behind the CPU)
  // the bus refuses device-register access. Without it (the per-tick step)
  // the access is performed; it can raise an interrupt line the next tick
  // must poll, so such a batch is exactly one instruction.
  // RunBatch picks the body on predecode_enabled_.
  BatchEnd RunThreaded(std::size_t max_steps, bool refuse_io);
  BatchEnd RunStepped(std::size_t max_steps, bool refuse_io);
  BatchEnd RunBatch(std::size_t max_steps, bool refuse_io) {
    return predecode_enabled_ ? RunThreaded(max_steps, refuse_io)
                              : RunStepped(max_steps, refuse_io);
  }

  // Statically walks the predicted path from `entry_pc` (a hot taken-branch
  // target) through the live mapping and memory, and installs a superblock
  // on `entry` if at least kSuperblockMinInsns direct-form instructions can
  // be stitched. On failure the entry is left untouched (heat wraps and
  // retries eventually).
  void BuildSuperblockAt(Word entry_pc, CpuMode mode, PredecodedInsn& entry);
  // Tears one superblock down: restores the anchor entry's original form and
  // swap-erases the registry slot. The Superblock is freed — callers must
  // not touch it afterwards.
  void InvalidateSuperblock(Superblock* sb);
  void InvalidateAllSuperblocks();

  IcacheBlock& EnsureIcacheBlock(PhysAddr phys);

  MachineConfig config_;
  PhysicalMemory memory_;
  Mmu mmu_;
  CpuState cpu_;
  std::vector<std::unique_ptr<Device>> devices_;
  MachineClient* client_ = nullptr;
  bool halted_ = false;
  bool waiting_ = false;
  Tick tick_ = 0;

  std::vector<std::unique_ptr<IcacheBlock>> icache_;
  bool predecode_enabled_ = true;
  std::uint64_t predecode_hits_ = 0;
  std::uint64_t predecode_misses_ = 0;
  std::uint64_t generic_steps_ = 0;

  std::vector<std::unique_ptr<Superblock>> superblocks_;
  bool superblock_enabled_ = true;
  std::uint64_t superblock_builds_ = 0;
  std::uint64_t superblock_side_exits_ = 0;
  std::uint64_t superblock_invalidations_ = 0;

  std::uint64_t traps_ = 0;
  std::uint64_t interrupts_ = 0;
};

}  // namespace sep

#endif  // SRC_MACHINE_MACHINE_H_
