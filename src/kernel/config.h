// Static configuration of the separation kernel.
//
// Exactly as in the SUE: the set of regimes, their fixed physical memory
// partitions, their permanently-allocated devices and the inter-regime
// channels are all fixed at system-generation time. There is no dynamic
// creation of anything. Validation rejects overlapping partitions, shared
// devices, and channels whose ends are not distinct regimes — the static
// counterparts of the isolation the kernel enforces at run time.
#ifndef SRC_KERNEL_CONFIG_H_
#define SRC_KERNEL_CONFIG_H_

#include <string>
#include <vector>

#include "src/base/result.h"
#include "src/base/types.h"

namespace sep {

struct RegimeConfig {
  std::string name;
  PhysAddr mem_base = 0;        // fixed physical partition
  std::uint32_t mem_words = 0;  // partition length
  Word entry = 0;               // virtual entry point (partition-relative)
  // Machine device slots owned by this regime. Must be contiguous and
  // ascending so one MMU page can map the regime's register window.
  std::vector<int> device_slots;
};

struct ChannelConfig {
  std::string name;
  int sender = -1;    // regime index
  int receiver = -1;  // regime index
  std::uint32_t capacity = 16;  // words buffered in the kernel partition
};

// A shared-memory ring channel: a producer/consumer data ring living in its
// own physical region OUTSIDE both partitions, mapped read-write into the
// producer's address space and read-only into the consumer's. The head/tail
// indices live in kernel-owned words (the regimes cannot touch them); a
// RINGPUT that takes the ring from empty to non-empty raises the consumer's
// doorbell interrupt line. This is the paper's "explicit communication line"
// scaled to bulk traffic: the payload never crosses a trap boundary.
struct SharedRingConfig {
  std::string name;
  int producer = -1;  // regime index; maps the data window read-write
  int consumer = -1;  // regime index; maps the data window read-only
  // Data words in the ring. Power of two, 8..8192, so slot arithmetic is a
  // mask and one MMU page can map the whole window.
  std::uint32_t capacity = 256;
  // Physical base of the data region; carved by SystemBuilder outside every
  // partition (including the kernel's).
  PhysAddr data_base = 0;
};

// Deliberate defects, injectable for checker-validation experiments (E3).
// A production build would not carry these; here they are the ground truth
// for "does Proof of Separability actually detect insecurity?".
struct KernelFaults {
  // SWAP dispatches the next regime without reloading R0..R5: the incoming
  // regime observes the outgoing regime's register contents.
  bool skip_register_restore = false;
  // Register restore skips the condition codes: a one-bit-per-flag covert
  // channel between regimes (the classic PSW leak).
  bool leak_condition_codes = false;
  // Interrupt fielding sets the pending bit of EVERY regime, not just the
  // owning one: non-c device activity becomes visible to c.
  bool broadcast_interrupts = false;
  // Every regime's MMU page 1 is mapped (read-only) onto regime 0's
  // partition: a direct cross-partition read window.
  bool shared_mmu_window = false;
  // SEND on channel k deposits into channel (k+1) mod n.
  bool misroute_channels = false;
  // SWAP does not save the outgoing regime's registers (a correctness bug
  // that is NOT an isolation leak; separability alone does not catch it —
  // see EXPERIMENTS.md E3 discussion).
  bool skip_register_save = false;

  bool AnyLeak() const {
    return skip_register_restore || leak_condition_codes || broadcast_interrupts ||
           shared_mmu_window || misroute_channels;
  }
};

struct KernelConfig {
  PhysAddr kernel_base = 0;        // kernel data partition
  std::uint32_t kernel_words = 0;  // partition length
  std::vector<RegimeConfig> regimes;
  std::vector<ChannelConfig> channels;
  std::vector<SharedRingConfig> shared_rings;
  // When true, every channel is "cut" in the paper's Section 4 sense: the
  // sender's references go to one ring (X1) and the receiver's to another
  // (X2). The kernel code paths are textually identical; only the aliasing
  // of the ring base address differs.
  bool cut_channels = false;
  KernelFaults faults;
};

inline constexpr int kMaxRegimes = 8;
inline constexpr int kMaxDevicesPerRegime = 5;

// Kernel partition layout (word offsets from kernel_base).
inline constexpr std::uint32_t kOffCurrentRegime = 0;
inline constexpr std::uint32_t kSaveAreaBase = 1;
inline constexpr std::uint32_t kSaveAreaStride = 16;
// Save area layout: +0..7 R0-R7, +8 PSW, +9 flags, +10 pending-irq mask,
// +11..15 interrupt handler vectors for local devices 0..4.
inline constexpr std::uint32_t kSaveRegs = 0;
inline constexpr std::uint32_t kSavePsw = 8;
inline constexpr std::uint32_t kSaveFlags = 9;
inline constexpr std::uint32_t kSavePending = 10;
inline constexpr std::uint32_t kSaveVectors = 11;

inline constexpr Word kFlagHalted = 1 << 0;
inline constexpr Word kFlagAwaiting = 1 << 1;
inline constexpr Word kFlagInHandler = 1 << 2;
// Set when a regime is dispatched out of AWAIT: the completion work (writing
// the pending mask into R0, delivering the interrupt) is deferred to the
// regime's own first CPU phase so that it executes under the regime's own
// colour, not under the colour of whichever regime performed the SWAP.
inline constexpr Word kFlagResumeWork = 1 << 3;

inline constexpr Word kIdleRegime = 0xFFFF;

// Kernel-call trap codes (the complete SUE-style kernel interface).
inline constexpr std::uint16_t kCallSwap = 0;    // yield the CPU
inline constexpr std::uint16_t kCallSend = 1;    // R0=channel, R1=word -> R0=1 ok / 0 full
inline constexpr std::uint16_t kCallRecv = 2;    // R0=channel -> R0=1 ok / 0 empty, R1=word
inline constexpr std::uint16_t kCallStat = 3;    // R0=channel -> R0=readable, R1=writable
inline constexpr std::uint16_t kCallSetVec = 4;  // R0=local device, R1=handler address
inline constexpr std::uint16_t kCallReti = 5;    // return from regime interrupt handler
inline constexpr std::uint16_t kCallAwait = 6;   // suspend until an owned interrupt is pending
inline constexpr std::uint16_t kCallHalt = 7;    // regime is finished
inline constexpr std::uint16_t kCallGetId = 8;   // -> R0 = own regime index

// Batched scatter-gather channel calls. R0=channel, R1=descriptor table
// vaddr (pairs of [addr, len] in the caller's partition), R2=descriptor
// count. One RingIntact validation per batch, one header update per batch.
// SENDV is all-or-nothing: R0 = words sent (0 when the ring lacks space for
// the whole batch — a counted backpressure stall). RECVV scatters up to the
// descriptors' total and returns R0 = words received (partial is fine).
inline constexpr std::uint16_t kCallSendv = 9;
inline constexpr std::uint16_t kCallRecvv = 10;
// Shared-ring doorbell calls. RINGPUT: R0=ring, R1=words published (the
// producer has already written them into the mapped window at its mirrored
// tail) -> R0=1, or 0 when free space is insufficient (counted stall); the
// empty->non-empty transition raises the consumer's doorbell line. RINGGET:
// R0=ring, R1=words released by the consumer -> R0=1 (over-release is a
// regime fault); draining the ring clears the doorbell pending bit.
// RINGSTAT: R0=ring -> R0=occupancy, R1=free space, R2=high-watermark
// (RINGSTAT is the one kernel call that clobbers R2).
inline constexpr std::uint16_t kCallRingPut = 11;
inline constexpr std::uint16_t kCallRingGet = 12;
inline constexpr std::uint16_t kCallRingStat = 13;

// Bounds of one SENDV/RECVV batch: at most this many payload words and
// descriptor pairs per trap. Keeps the kernel's per-call work bounded, like
// every other SUE call.
inline constexpr std::uint32_t kMaxBatchWords = 64;
inline constexpr std::uint32_t kMaxBatchDescriptors = 8;

// Shared-ring kernel control words, appended after the channel ring area
// (absent entirely when no shared rings are configured, so classic layouts
// are bit-identical). Per ring: head, tail, high-watermark, one reserved
// word. head/tail are free-running 16-bit counters — occupancy is
// Word(tail - head), the slot of logical index i is i & (capacity - 1) —
// so a full ring (occupancy == capacity) is never ambiguous with empty.
inline constexpr std::uint32_t kSharedRingCtlStride = 4;
inline constexpr std::uint32_t kSharedRingHead = 0;
inline constexpr std::uint32_t kSharedRingTail = 1;
inline constexpr std::uint32_t kSharedRingWatermark = 2;

// MMU placement of shared-ring data windows: a regime's j-th ring window
// (in shared_rings declaration order, producer or consumer end) occupies
// page kSharedRingPageBase + j. Pages 0 (partition) and 7 (devices) stay as
// before; at most kMaxSharedRingsPerRegime windows per regime.
inline constexpr int kSharedRingPageBase = 4;
inline constexpr int kMaxSharedRingsPerRegime = 3;

// Doorbell interrupt lines share the regime's pending mask and vector slots
// with its devices: ring doorbells are numbered after the last local device,
// so device_slots.size() + consumer-ring count must stay <= kMaxDevicesPerRegime.

// Number of kernel-partition words the given configuration needs; the
// channel area begins after the save areas, each channel occupying two
// rings of (2 + capacity) words (head, count, data...), followed by
// kSharedRingCtlStride control words per shared ring.
std::uint32_t RequiredKernelWords(const KernelConfig& config);

// Word offset (from kernel_base) of channel `index`'s ring `which` (0 = X1 /
// sender end, 1 = X2 / receiver end). With cut_channels == false both ends
// alias ring 0 — the paper's shared object X.
std::uint32_t ChannelRingOffset(const KernelConfig& config, int index, int which);

// Word offset (from kernel_base) of shared ring `index`'s control words.
std::uint32_t SharedRingCtlOffset(const KernelConfig& config, int index);

// Virtual base address of MMU page `page` (13-bit page offsets).
inline constexpr VirtAddr PageVBase(int page) { return static_cast<VirtAddr>(page) << 13; }

// Structural validation: bounds, overlaps, device contiguity, endpoints.
// `memory_words`/`device_count` describe the machine this will run on.
Result<> ValidateConfig(const KernelConfig& config, std::size_t memory_words, int device_count);

}  // namespace sep

#endif  // SRC_KERNEL_CONFIG_H_
