// Basic fixed-width type aliases used throughout the separation-kernel
// reproduction. The simulated SM-11 machine is a 16-bit word machine; all
// machine-visible quantities use these aliases so the intent (machine word
// vs. host integer) is explicit at every use site.
#ifndef SRC_BASE_TYPES_H_
#define SRC_BASE_TYPES_H_

#include <cstddef>
#include <cstdint>

namespace sep {

// One SM-11 machine word (16 bits, like the PDP-11/34 the SUE ran on).
using Word = std::uint16_t;

// A physical word address. The SM-11 supports up to 2^18 words of physical
// memory (the PDP-11/34 with extended addressing had an 18-bit physical
// address space), so a 32-bit host integer is used.
using PhysAddr = std::uint32_t;

// A virtual (per-mode, per-regime) word address: 16 bits on the wire but kept
// in a 32-bit host integer so that arithmetic cannot silently wrap.
using VirtAddr = std::uint32_t;

// Simulated time, measured in machine steps. One step is one executed
// instruction or one device activity slot.
using Tick = std::uint64_t;

// Identity of a regime (the paper's "colour"). Regime 0 is reserved for the
// kernel itself in diagnostics; user regimes are numbered from 1 in
// configuration but stored zero-based internally.
using RegimeId = std::uint8_t;

inline constexpr RegimeId kNoRegime = 0xFF;

// Words per chunk of a serialized state and per page of physical memory's
// write tracking: the exhaustive checker stores states as chunks of this
// size at fixed offsets, and a machine's serialization starts with its
// memory, so memory page i is state chunk i (src/machine/memory.h,
// src/model/shared_system.h).
inline constexpr std::size_t kStateChunkWords = 64;

}  // namespace sep

#endif  // SRC_BASE_TYPES_H_
