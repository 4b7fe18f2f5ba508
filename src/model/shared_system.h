// The formal model of the paper's Appendix, as an executable interface.
//
// The Appendix models a shared system as states S with operations
// OPS ⊆ S → S, interacting with its environment through inputs I and
// outputs O, with functions
//
//   OUTPUT : S → O          what the system emits
//   INPUT  : S × I → S      effect of consuming an input
//   NEXTOP : S → OPS        operation selection
//   COLOUR : S → C          which user the next operation serves
//   EXTRACT: C × (I ∪ O)    per-colour projection of inputs/outputs
//
// and asks for per-colour abstraction functions Φ^c : S → S^c and
// ABOP^c : OPS → OPS^c satisfying six conditions (see
// src/core/separability.h, which checks them).
//
// This header renders that model as a C++ interface. Implementations:
//   * KernelizedSystem (src/core) — the machine + separation kernel;
//   * small hand-built systems in tests, including deliberately insecure
//     ones, which validate the checker itself.
//
// Mapping notes:
//   * An "operation" is one CPU phase (instruction, interrupt delivery or
//     deferred kernel work). COLOUR(s) is derivable from the state: the
//     owner of the interrupting device, else the current regime.
//   * I/O device activity is modelled as "units": each unit belongs to one
//     colour and stepping it is one quantum of device activity (conditions
//     3)-5) of the Appendix constrain it).
//   * INPUT/OUTPUT are per-unit word streams; EXTRACT(c, ·) is the
//     restriction to units of colour c.
#ifndef SRC_MODEL_SHARED_SYSTEM_H_
#define SRC_MODEL_SHARED_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/base/types.h"

namespace sep {

inline constexpr int kColourNone = -1;

// Φ^c(s): a colour's private abstract machine state, as an opaque value.
// Equality of AbstractState values is equality of abstract states; the
// encoding must therefore be location-independent (e.g. "R3 = 7" regardless
// of whether the value sits in the CPU or a kernel save area).
struct AbstractState {
  std::vector<Word> words;

  bool operator==(const AbstractState& other) const = default;
};

// NEXTOP(s) as an identity: enough structure to decide whether two states
// select the same operation.
struct OperationId {
  enum class Kind : std::uint8_t { kIdle, kInstruction, kInterrupt, kKernelWork } kind =
      Kind::kIdle;
  std::vector<Word> detail;  // instruction words / device slot / work tag

  bool operator==(const OperationId& other) const = default;
  std::string ToString() const;
};

class SharedSystem {
 public:
  virtual ~SharedSystem() = default;

  virtual std::unique_ptr<SharedSystem> Clone() const = 0;

  virtual int ColourCount() const = 0;
  virtual std::string ColourName(int colour) const = 0;

  // COLOUR(s) for the operation ExecuteOperation() would perform now.
  virtual int Colour() const = 0;

  // NEXTOP(s).
  virtual OperationId NextOperation() const = 0;

  // Executes one operation (one CPU phase).
  virtual void ExecuteOperation() = 0;

  // Φ^c(s).
  virtual AbstractState Abstract(int colour) const = 0;

  // --- I/O device activity units ---

  virtual int UnitCount() const = 0;
  virtual int UnitColour(int unit) const = 0;
  virtual std::string UnitName(int unit) const = 0;

  // One quantum of activity of the given unit.
  virtual void StepUnit(int unit) = 0;

  // INPUT restricted to one unit (EXTRACT(c, i) = inputs to c's units).
  virtual void InjectInput(int unit, Word value) = 0;

  // OUTPUT of one unit since the last drain.
  virtual std::vector<Word> DrainOutput(int unit) = 0;

  // --- checker support ---

  // Randomizes every part of the state that is NOT in colour c's abstract
  // view, within representation invariants, without changing COLOUR(s).
  // This realizes the checker's "∀ s' with Φ^c(s') = Φ^c(s)" quantifier.
  virtual void PerturbOthers(int colour, Rng& rng) = 0;

  // True once the system can make no further progress (used to bound trace
  // exploration).
  virtual bool Finished() const { return false; }

  // Canonical serialization of the COMPLETE concrete state (everything
  // Clone() copies). Two systems with equal FullState() must behave
  // identically forever. Optional: only the exhaustive checker needs it;
  // systems that do not support it return nullopt.
  virtual std::optional<std::vector<Word>> FullState() const { return std::nullopt; }

  // FullState() appended to `out` without the intermediate vector where the
  // implementation can avoid it. Only called when FullState() is supported.
  virtual void AppendFullState(std::vector<Word>& out) const {
    std::optional<std::vector<Word>> full = FullState();
    out.insert(out.end(), full->begin(), full->end());
  }

  // Inverse of FullState(): overwrites this system's complete concrete
  // state from a serialization produced by FullState() on an identically
  // CONFIGURED system (same build parameters; the dynamic state may be any
  // reachable one). Returns false if the system does not support
  // restoration; the state is unspecified after a failed restore. The
  // exhaustive checker uses this to reconstruct live systems on demand from
  // its compact state store instead of keeping every explored state
  // resident as a clone.
  virtual bool RestoreFullState(std::span<const Word> state) {
    (void)state;
    return false;
  }

  // Φ^colour(s) appended to `out` as raw words, without the AbstractState
  // wrapper allocation. The checker calls this once per state per colour
  // when grouping Φ-equal states.
  virtual void AppendAbstract(int colour, std::vector<Word>& out) const {
    const AbstractState a = Abstract(colour);
    out.insert(out.end(), a.words.begin(), a.words.end());
  }
};

}  // namespace sep

#endif  // SRC_MODEL_SHARED_SYSTEM_H_
