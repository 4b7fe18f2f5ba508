// Colour-tagged event tracing for the kernelized machine.
//
// Rushby's separation argument is about each regime's VIEW of the shared
// machine; this module makes a view observable. Every instrumented layer
// (kernel, machine, exhaustive checker, distributed network) emits small
// fixed-size events into one process-wide buffer, and every event carries
// the regime colour on whose behalf the work was done (or kColourKernel for
// kernel-internal bookkeeping that is in nobody's abstract view — exactly
// the state PerturbNonColour is free to randomize).
//
// The colour tag is itself subject to the paper's security argument: the
// per-colour canonical trace (export.h) of a regime in the shared machine
// must be byte-identical to its trace when running alone — a trace that
// leaked another colour's activity would BE a channel. The trace-equivalence
// test (tests/obs_trace_equivalence_test.cpp) checks exactly this.
//
// Cost model: tracing must never touch Machine::RunThreaded's per-
// instruction hot path, so there are NO per-instruction trace points —
// only slow paths (traps, interrupts, kernel calls, cache refills) carry
// them, each guarded by one load of a plain flag and a branch when tracing
// is disabled. The library starts no thread, so events have one producer:
// Start() sizes the buffer once, recording writes the next slot and never
// allocates, and a full buffer drops the newest event (counted) rather than
// growing inside the run it observes.
#ifndef SRC_OBS_TRACE_H_
#define SRC_OBS_TRACE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/base/types.h"

namespace sep {
namespace obs {

// Colour of events performed by the kernel (or machine) on its own behalf:
// dispatch bookkeeping, MMU reprogramming. Excluded from every per-colour
// view.
inline constexpr int kColourKernel = -1;

enum class Category : std::uint8_t {
  kKernel = 0,   // separation-kernel events
  kMachine = 1,  // SM-11 machine events (traps, interrupts, caches)
  kChecker = 2,  // exhaustive-checker progress
  kNet = 3,      // distributed network / reliable channels
};

// Event codes. The canonical per-colour trace (export.h) includes only the
// codes ColourObservable() admits: events anchored to the regime's OWN
// instruction/kernel-call stream. Device-time events (interrupt forwarding,
// device activity) are colour-tagged for profiling but excluded from the
// canonical view, because their position relative to the regime's stream
// depends on how the shared processor interleaves — the same reason Φ^c
// normalizes "awaiting" and "resume-work" into one abstract state.
enum class Code : std::uint16_t {
  // kernel (colour = regime the work is attributable to)
  kKernelCall = 0,    // a0 = trap code, a1 = R0 at entry
  kIrqDeliver = 1,    // a0 = local device index, a1 = handler vector
  kRegimeFault = 2,   // a0 = 0, a1 = 0
  kIrqForward = 3,    // a0 = local device index (colour = owner; device-time)
  kDispatch = 4,      // a0 = incoming regime (kColourKernel)
  kMmuRemap = 5,      // a0 = regime whose mapping was programmed (kColourKernel)
  // Backpressure: a send-side call found its channel/ring without room.
  // Colour-tagged with the stalled sender for profiling but NOT colour-
  // observable: the caller already sees the stall in R0 = 0, and occupancy
  // depends on the peer's drain rate — putting it in the canonical view
  // would re-introduce the very interleaving-dependence Φ^c removes.
  kChannelStall = 6,  // a0 = channel id (0x8000|ring for shared rings), a1 = words

  // machine
  kMachineTrap = 16,      // a0 = TrapInfo kind, a1 = code/fault addr
  kMachineIrq = 17,       // a0 = device slot (colour = device owner; device-time)
  kPredecodeFill = 18,    // a0 = 256-word cache-block index (phys >> 8) of the entry
  kPredecodeFlush = 19,   // cache disabled: a0 = length of the block table dropped
  kSuperblockBuild = 20,      // a0 = entry PC, a1 = trace length (insns)
  kSuperblockInvalidate = 21, // a0 = entry PC (or count for a bulk flush)
  // checker
  kHeartbeat = 32,        // tick = states interned, a0 = level width (lo16), a1 = depth
  // net
  kNetRetransmit = 48,    // fast retransmit: a0 = window size, a1 = oldest seq
  kNetTimeout = 49,       // a0 = retry count, a1 = oldest seq
  kNetFaultInjected = 50, // a0 = fault kind (FaultCounters ordinal)
  kNetNodeCrash = 51,     // a0 = node id, a1 = restart delay (lo16)
  kNetNodeRestore = 52,   // a0 = node id, a1 = 1 cold / 0 warm
};

// True for events that belong to a regime's canonical per-colour view.
constexpr bool ColourObservable(Code code) {
  return code == Code::kKernelCall || code == Code::kIrqDeliver ||
         code == Code::kRegimeFault;
}

struct TraceEvent {
  std::uint64_t tick = 0;  // machine tick (or monotone site-local counter)
  std::int16_t colour = kColourKernel;
  Category category = Category::kKernel;
  Code code = Code::kKernelCall;
  Word a0 = 0;
  Word a1 = 0;
};

// The process-wide recorder: a buffer sized at Start() plus the global
// enabled flag the instrumentation sites check. Start() installs a fresh
// buffer and enables recording; Stop() disables and leaves it drainable.
class TraceRecorder {
 public:
  // Allocates and fills `capacity` slots, so recording never allocates.
  void Start(std::size_t capacity);
  void Stop();

  // Returns every recorded event, oldest first, and empties the buffer, so
  // a drain while recording makes room again.
  std::vector<TraceEvent> Drain();

  // Events dropped because the buffer was full since Start().
  std::uint64_t dropped() const { return dropped_; }

  // Writes the next slot, or counts a drop when the buffer is full.
  void Emit(const TraceEvent& event);

 private:
  std::vector<TraceEvent> slots_;
  std::size_t size_ = 0;  // recorded prefix of slots_
  std::uint64_t dropped_ = 0;
};

TraceRecorder& Recorder();

// The one flag every instrumentation site checks before doing anything.
extern bool g_trace_enabled;

inline bool Enabled() { return g_trace_enabled; }

// Convenience emitter used by all instrumentation sites. Near-zero when
// disabled: one load and a predictable branch.
inline void Emit(Category category, Code code, int colour, std::uint64_t tick, Word a0 = 0,
                 Word a1 = 0) {
  if (!Enabled()) {
    return;
  }
  TraceEvent event;
  event.tick = tick;
  event.colour = static_cast<std::int16_t>(colour);
  event.category = category;
  event.code = code;
  event.a0 = a0;
  event.a1 = a1;
  Recorder().Emit(event);
}

}  // namespace obs
}  // namespace sep

#endif  // SRC_OBS_TRACE_H_
