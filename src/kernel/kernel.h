// The separation kernel.
//
// A faithful reconstruction of the structure of RSRE's SUE ("Secure User
// Environment") as the paper describes it:
//
//   * a fixed, small number of regimes, each permanently allocated a fixed
//     partition of real memory; no paging, no virtual-memory management;
//   * no scheduling: regimes get control round-robin and run until they
//     suspend voluntarily (SWAP / AWAIT kernel calls);
//   * no DMA anywhere in the system; devices are driven exclusively through
//     their memory-mapped registers, which the MMU places in the owning
//     regime's address space — so almost all I/O responsibility leaves the
//     kernel;
//   * the kernel's only I/O duties are fielding interrupts (the hardware
//     vectors them through kernel space) and forwarding them to the owning
//     regime, plus the small assist needed to return from a regime's
//     interrupt handler;
//   * kernel-mediated one-directional channels are the only communication
//     between regimes.
//
// The kernel knows NOTHING about security policy: no labels, no lattice, no
// subjects or objects. Its one job is making the shared machine
// indistinguishable, from each regime's viewpoint, from a private machine
// plus explicit communication lines.
//
// Like SUE's PDP-11 core image, ALL dynamic kernel state (current regime,
// register save areas, pending-interrupt masks, channel rings) lives inside
// the machine's physical memory, in the kernel's own partition. The C++
// object holds only immutable configuration, plus diagnostic counters that
// nothing the kernel does ever reads back. Cloning the machine and
// attaching an identically-configured kernel therefore reproduces behaviour
// exactly — which is what lets the Proof-of-Separability checker treat
// "machine state" as the complete concrete state, and lets that state be
// finite for a looping configuration.
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/kernel/config.h"
#include "src/machine/machine.h"

namespace sep {

class SeparationKernel : public MachineClient {
 public:
  // The kernel drives `machine`; both must outlive the kernel. Boot() must
  // be called before stepping the machine.
  SeparationKernel(Machine& machine, KernelConfig config);

  // Validates the configuration, initializes the kernel partition, loads
  // nothing (callers load regime images), programs device ownership and
  // dispatches regime 0. Installs itself as the machine client.
  Result<> Boot();

  // Attaches to an already-initialized machine (a clone of a booted system)
  // WITHOUT reinitializing anything. Because all dynamic kernel state lives
  // in the machine's memory, the adopted kernel behaves identically to the
  // one the original machine ran under.
  Result<> Adopt();

  // Loads a program image into a regime's partition (before or after Boot).
  Result<> LoadRegimeImage(int regime, Word base, const std::vector<Word>& words);

  const KernelConfig& config() const { return config_; }

  // --- introspection (used by the checker, benches and tests) ---

  // Regime currently executing, or kIdleRegime.
  Word CurrentRegime() const { return KRead(kOffCurrentRegime); }

  bool RegimeHalted(int regime) const { return (SaveRead(regime, kSaveFlags) & kFlagHalted) != 0; }
  bool AllRegimesHalted() const;

  Word RegimeSavedReg(int regime, int reg) const {
    return SaveRead(regime, kSaveRegs + static_cast<std::uint32_t>(reg));
  }
  Word RegimePendingMask(int regime) const { return SaveRead(regime, kSavePending); }

  // Counters: the work this kernel object did since construction. Not
  // machine state — never cloned, hashed, snapshotted or restored, so like
  // Machine::tick() they keep advancing across a RestoreFull.
  std::uint64_t SwapCount() const { return swaps_; }
  std::uint64_t IrqForwardCount() const { return irq_forwards_; }
  std::uint64_t KernelCallCount() const { return kernel_calls_; }
  // Regimes halted by the kernel's defensive checks (malformed call
  // arguments, corrupted channel rings, MMU/illegal-instruction faults).
  std::uint64_t FaultCount() const { return faults_; }
  std::uint64_t IrqDeliverCount() const { return irq_delivers_; }
  std::uint64_t MmuRemapCount() const { return mmu_remaps_; }
  // Send-side calls rejected for want of room (see NoteChannelStall).
  std::uint64_t ChannelStallCount() const { return channel_stalls_; }

  // Channel occupancy of the ring the given end uses (0 = sender, 1 = recv).
  Word ChannelCount(int channel, int end) const;

  // Shared-ring occupancy / high-watermark (kernel control words).
  Word SharedRingOccupancy(int ring) const;
  Word SharedRingWatermark(int ring) const;

  // Owner regime of a machine device slot, or -1.
  int DeviceOwner(int slot) const;

  // Number of distinct kernel entry points (trap codes + interrupt + fault
  // paths); reported by the kernel-size experiment E10.
  static int EntryPointCount() { return 14 + 3; }

  // True when the current regime has deferred kernel work (AWAIT completion
  // or delivery of an interrupt that arrived while it was switched out).
  // Mirrors what OnBeforeExecute() would do, without doing it.
  bool HasDeferredWork() const;

  // Φ^c: the colour's complete abstract machine state, encoded location-
  // independently (register VALUES whether live or saved; channel contents
  // as logical queues, not ring buffers; awaiting and resume-work flags
  // normalized to one abstract "blocked in AWAIT" bit).
  std::vector<Word> AbstractProjection(int colour) const;

  // AbstractProjection(colour) appended to `out` in place, the partition and
  // ring windows as bulk copies: the exhaustive checker takes four or more
  // projections per state, into buffers it reuses.
  void AppendAbstract(int colour, std::vector<Word>& out) const;

  // Randomizes everything outside colour c's abstract view, within kernel
  // representation invariants and without changing COLOUR(s). See
  // SharedSystem::PerturbOthers.
  void PerturbNonColour(int colour, Rng& rng);

  // --- MachineClient ---
  void OnTrap(const TrapInfo& info) override;
  void OnInterrupt(int device_index) override;
  bool OnBeforeExecute() override;

 private:
  // Kernel-partition word access, straight from RAM: ValidateConfig places
  // the partition inside memory and Machine keeps io_base >= memory size, so
  // PhysRead/PhysWrite's device decoding could never apply here.
  Word KRead(std::uint32_t offset) const {
    SEP_DCHECK(offset < config_.kernel_words);
    return machine_.memory().Read(config_.kernel_base + offset);
  }
  void KWrite(std::uint32_t offset, Word value) {
    SEP_DCHECK(offset < config_.kernel_words);
    machine_.memory().Write(config_.kernel_base + offset, value);
  }
  std::uint32_t SaveOffset(int regime, std::uint32_t field) const {
    return kSaveAreaBase + static_cast<std::uint32_t>(regime) * kSaveAreaStride + field;
  }
  Word SaveRead(int regime, std::uint32_t field) const { return KRead(SaveOffset(regime, field)); }
  void SaveWrite(int regime, std::uint32_t field, Word value) {
    KWrite(SaveOffset(regime, field), value);
  }

  // Translation of a regime virtual address to physical, page-0 only (used
  // when the kernel touches a regime's stack on its behalf).
  bool RegimeVirtToPhys(int regime, VirtAddr vaddr, PhysAddr* out) const;

  // Context switching.
  void SaveCurrentContext();
  void ProgramMmuFor(int regime);
  void RestoreContext(int regime);
  void DispatchNext(int start_from);
  void EnterIdle();
  bool RegimeRunnable(int regime) const;

  // Interrupt forwarding.
  void DeliverPendingInterrupt(int regime);
  bool HasDeliverableVector(int regime) const;

  // Appends the logical contents of a channel ring (count + words in queue
  // order) to `out` — the location-independent view used by Φ^c.
  void AppendRingLogical(int channel, int end, std::vector<Word>& out) const;
  void PerturbRing(int channel, int end, Rng& rng);

  // Kernel calls.
  void CallSwap();
  void CallSend();
  void CallRecv();
  void CallStat();
  void CallSetVec();
  void CallReti();
  void CallAwait();
  void CallHaltRegime();
  void CallGetId();
  void CallSendv();
  void CallRecvv();
  void CallRingPut();
  void CallRingGet();
  void CallRingStat();
  void FaultRegime(const std::string& reason);

  // Backpressure accounting: a send-side operation found its channel/ring
  // without room. Observability only (counter + trace event, never machine
  // state): the stall is the caller's own observation — R0 = 0 — so it needs
  // no kernel-partition word and cannot disturb any other colour's view.
  // Event a0 is the channel id (0x8000 | ring for shared rings), a1 the
  // requested word count.
  void NoteChannelStall(Word id, Word requested);

  // Channel ring helpers (operate on kernel partition words).
  std::uint32_t RingBase(int channel, int end) const;
  bool RingPush(std::uint32_t ring_base, std::uint32_t capacity, Word value);
  bool RingPop(std::uint32_t ring_base, std::uint32_t capacity, Word* value);
  // Batched variants: read the header once, move `words.size()` (or `n`)
  // payload words, write the header once. The caller has already verified
  // RingIntact and that the batch fits (push) / is available (pop).
  void RingPushBatch(std::uint32_t ring_base, std::uint32_t capacity,
                     const std::vector<Word>& words);
  void RingPopBatch(std::uint32_t ring_base, std::uint32_t capacity, std::uint32_t n,
                    std::vector<Word>& out);
  // Representation invariant of a ring header: head < capacity and
  // count <= capacity (and capacity itself non-zero, so slot arithmetic is
  // total). Violated only by memory corruption; every kernel call that
  // consults a ring verifies this before trusting it.
  bool RingIntact(std::uint32_t ring_base, std::uint32_t capacity) const;

  // Reads R2 scatter-gather descriptors at regime vaddr R1 and resolves them
  // to physical extents inside the caller's partition. Returns false (after
  // faulting the regime) on any malformed table: bad count, table or payload
  // outside the partition, zero-length entry, batch above kMaxBatchWords.
  struct SgExtent {
    PhysAddr base;
    std::uint32_t words;
  };
  bool ReadSgDescriptors(int regime, std::vector<SgExtent>& out, std::uint32_t* total);

  // Shared-ring doorbell bookkeeping. A regime's windows are numbered in
  // shared_rings declaration order (producer or consumer end); a consumer's
  // doorbell line is device_slots.size() + its consumer-ordinal.
  int DoorbellLine(int regime, int ring) const;
  int DoorbellLineCount(int regime) const;

  int LocalDeviceIndex(int regime, int slot) const;

  Machine& machine_;
  KernelConfig config_;
  bool booted_ = false;
  std::uint64_t swaps_ = 0;
  std::uint64_t irq_forwards_ = 0;
  std::uint64_t kernel_calls_ = 0;
  std::uint64_t faults_ = 0;
  std::uint64_t irq_delivers_ = 0;
  std::uint64_t mmu_remaps_ = 0;
  std::uint64_t channel_stalls_ = 0;
};

}  // namespace sep

#endif  // SRC_KERNEL_KERNEL_H_
