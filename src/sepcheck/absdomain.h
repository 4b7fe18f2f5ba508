// Abstract domain for SM-11 register values: intervals, difference
// constraints, and a condition-code model.
//
// sepcheck needs just enough arithmetic precision to bound the addresses a
// guest program can touch: constants (MOV #CRYPTO, R4), small joins from
// different call sites (R0 in {0,1} -> [0,1]) and monotone pointer updates
// (INC R4 in a loop, driven to TOP by widening). Three layers cooperate:
//
//   * AbsVal      — a classic interval [lo, hi] over 16-bit words;
//   * RelSet      — difference constraints Ri − Rj ∈ [lo, hi] over R0..SP,
//                   exact (non-wrapping) integers. They survive widening of
//                   the plain intervals, so a lockstep pointer/counter loop
//                   keeps "R4 − R3 = 0x100" even when R4's interval blows
//                   up, and the counter's branch bound transfers to the
//                   pointer;
//   * FlagsSrc    — what the condition codes reflect (a CMP of two sides,
//                   or the Z/N of one register), so conditional branch
//                   edges can refine intervals and constraints.
//
// Anything the domain cannot bound becomes TOP and downstream checks must
// treat the access as unprovable — the domain is sound, never
// precise-by-luck. See docs/STATIC_ANALYSIS.md.
#ifndef SEP_SEPCHECK_ABSDOMAIN_H_
#define SEP_SEPCHECK_ABSDOMAIN_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/base/strings.h"
#include "src/base/types.h"

namespace sep::sepcheck {

// A closed interval [lo, hi] of 16-bit unsigned values. There is no bottom
// element; unreachable states are represented by AbsState::reachable.
struct AbsVal {
  std::uint32_t lo = 0;
  std::uint32_t hi = 0xFFFF;  // default-constructed value is TOP

  static AbsVal Top() { return {0, 0xFFFF}; }
  static AbsVal Const(Word w) { return {w, w}; }
  static AbsVal Range(std::uint32_t lo, std::uint32_t hi) { return {lo, hi}; }

  bool IsTop() const { return lo == 0 && hi == 0xFFFF; }
  bool IsConst() const { return lo == hi; }
  Word ConstVal() const { return static_cast<Word>(lo); }
  std::uint32_t Width() const { return hi - lo; }

  bool operator==(const AbsVal& o) const = default;

  AbsVal Join(const AbsVal& o) const {
    return {std::min(lo, o.lo), std::max(hi, o.hi)};
  }

  // Classic interval widening: any bound that moved jumps to its extreme.
  AbsVal WidenedFrom(const AbsVal& old) const {
    return {lo < old.lo ? 0u : lo, hi > old.hi ? 0xFFFFu : hi};
  }

  // Threshold widening: a moved bound jumps to the nearest landmark beyond
  // it instead of all the way to the extreme. Landmarks are the program's
  // own comparison constants (±1) and the partition bounds, so a bound
  // that is being squeezed toward a guard's cap (CMP #BUF+31 / BCS) lands
  // exactly on the cap rather than blowing through it to 0xFFFF — which
  // would make the next INC wrap the interval to TOP. `thresholds` is
  // sorted ascending; termination holds because each widening step climbs
  // at least one landmark and the landmark set is finite.
  AbsVal WidenedFrom(const AbsVal& old,
                     const std::vector<std::uint32_t>& thresholds) const {
    AbsVal w = *this;
    if (hi > old.hi) {
      auto it = std::lower_bound(thresholds.begin(), thresholds.end(), hi);
      w.hi = it != thresholds.end() ? *it : 0xFFFFu;
    }
    if (lo < old.lo) {
      auto it = std::upper_bound(thresholds.begin(), thresholds.end(), lo);
      w.lo = it != thresholds.begin() ? *std::prev(it) : 0u;
    }
    return w;
  }

  // Machine arithmetic wraps mod 2^16; the abstract versions go to TOP
  // instead of tracking wrapped intervals.
  static AbsVal Add(const AbsVal& a, const AbsVal& b) {
    if (a.hi + b.hi > 0xFFFF) return Top();
    return {a.lo + b.lo, a.hi + b.hi};
  }
  static AbsVal Sub(const AbsVal& a, const AbsVal& b) {
    if (a.lo < b.hi) return Top();
    return {a.lo - b.hi, a.hi - b.lo};
  }
  // dst & ~mask for a constant mask: bounded above by both operands.
  static AbsVal BicMask(const AbsVal& dst, Word mask) {
    return {0, std::min<std::uint32_t>(dst.hi, static_cast<Word>(~mask))};
  }
  static AbsVal Asr(const AbsVal& a) {
    if (a.hi >= 0x8000) return Top();  // arithmetic shift of "negative" values
    return {a.lo >> 1, a.hi >> 1};
  }
  static AbsVal Asl(const AbsVal& a) {
    if (a.hi * 2 > 0xFFFF) return Top();
    return {a.lo * 2, a.hi * 2};
  }

  std::string ToString() const {
    if (IsTop()) return "T";
    if (IsConst()) return Format("0x%04X", lo);
    return Format("[0x%04X,0x%04X]", lo, hi);
  }
};

// One difference constraint Ri − Rj ∈ [lo, hi] in exact (non-wrapping)
// integers; bounds at ±kInf mean unconstrained on that side.
struct RelBound {
  // Strictly beyond any real difference of two 16-bit words (±0xFFFF).
  static constexpr std::int32_t kInf = 0x10000;
  std::int32_t lo = -kInf;
  std::int32_t hi = kInf;

  bool IsTop() const { return lo <= -kInf && hi >= kInf; }
  bool operator==(const RelBound& o) const = default;
};

// Difference constraints over the registers whose values the analyzer
// tracks symbolically: R0..R5 and SP. (PC is known per-node.) Constraints
// are exact integer facts about machine values — every transfer function
// drops a constraint whenever the concrete update could wrap — so they
// remain sound to intersect with the wrapped-aware intervals.
struct RelSet {
  static constexpr int kRegs = 7;  // R0..R5 and SP
  std::array<RelBound, kRegs*(kRegs - 1) / 2> pairs;  // canonical i < j: Ri − Rj

  bool operator==(const RelSet& o) const = default;

  static int Index(int i, int j) {  // requires i < j
    return i * kRegs - i * (i + 1) / 2 + (j - i - 1);
  }

  // Ri − Rj for any register order (negated when i > j). A register's
  // difference with itself is exactly 0 and has no slot.
  RelBound Get(int i, int j) const {
    if (i == j) return {0, 0};
    if (i < j) return pairs[static_cast<std::size_t>(Index(i, j))];
    const RelBound b = pairs[static_cast<std::size_t>(Index(j, i))];
    return {b.hi >= RelBound::kInf ? -RelBound::kInf : -b.hi,
            b.lo <= -RelBound::kInf ? RelBound::kInf : -b.lo};
  }

  // Intersects Ri − Rj with [lo, hi]; false when the result is empty (the
  // state is unreachable). Saturates at ±kInf.
  bool Refine(int i, int j, std::int32_t lo, std::int32_t hi) {
    if (i == j) return lo <= 0 && 0 <= hi;
    if (i > j) {
      std::swap(i, j);
      const std::int32_t nlo = hi >= RelBound::kInf ? -RelBound::kInf : -hi;
      const std::int32_t nhi = lo <= -RelBound::kInf ? RelBound::kInf : -lo;
      lo = nlo;
      hi = nhi;
    }
    RelBound& b = pairs[static_cast<std::size_t>(Index(i, j))];
    const std::int32_t rlo = std::max(b.lo, std::max(lo, -RelBound::kInf));
    const std::int32_t rhi = std::min(b.hi, std::min(hi, RelBound::kInf));
    if (rlo > rhi) return false;
    b = {rlo, rhi};
    return true;
  }

  // Forgets everything known about register r.
  void Drop(int r) {
    for (int q = 0; q < kRegs; ++q) {
      if (q == r) continue;
      pairs[static_cast<std::size_t>(r < q ? Index(r, q) : Index(q, r))] = RelBound{};
    }
  }

  // dst := src (MOV Rsrc, Rdst): dst inherits src's constraints and is
  // exactly equal to src.
  void CopyFrom(int dst, int src) {
    if (dst == src) return;
    std::array<RelBound, kRegs> inherited;
    for (int q = 0; q < kRegs; ++q) {
      if (q == src) continue;
      inherited[static_cast<std::size_t>(q)] = Get(src, q);
    }
    Drop(dst);
    for (int q = 0; q < kRegs; ++q) {
      if (q == dst || q == src) continue;
      const RelBound b = inherited[static_cast<std::size_t>(q)];
      (void)Refine(dst, q, b.lo, b.hi);
    }
    (void)Refine(dst, src, 0, 0);
  }

  // r += [dlo, dhi], exact: caller must have proved the concrete update
  // cannot wrap.
  void Shift(int r, std::int32_t dlo, std::int32_t dhi) {
    for (int q = 0; q < kRegs; ++q) {
      if (q == r) continue;
      const bool canon = r < q;
      RelBound& b =
          pairs[static_cast<std::size_t>(canon ? Index(r, q) : Index(q, r))];
      // Canonical slot holds Ri − Rj with i < j; shifting r moves it by
      // +delta when r is i, by −delta when r is j.
      const std::int32_t add_lo = canon ? dlo : -dhi;
      const std::int32_t add_hi = canon ? dhi : -dlo;
      b.lo = b.lo <= -RelBound::kInf ? -RelBound::kInf
                                     : std::max(b.lo + add_lo, -RelBound::kInf);
      b.hi = b.hi >= RelBound::kInf ? RelBound::kInf
                                    : std::min(b.hi + add_hi, RelBound::kInf);
    }
  }

  // Convex-hull join (with widening to ±inf on moved bounds); returns true
  // if anything changed.
  bool JoinFrom(const RelSet& o, bool widen) {
    bool changed = false;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      RelBound j{std::min(pairs[i].lo, o.pairs[i].lo),
                 std::max(pairs[i].hi, o.pairs[i].hi)};
      if (widen) {
        if (j.lo < pairs[i].lo) j.lo = -RelBound::kInf;
        if (j.hi > pairs[i].hi) j.hi = RelBound::kInf;
      }
      if (!(j == pairs[i])) {
        pairs[i] = j;
        changed = true;
      }
    }
    return changed;
  }
};

// What the condition codes reflect at a program point — tracked just enough
// to refine intervals and constraints on conditional branch edges.
struct FlagsSrc {
  enum class Kind : std::uint8_t {
    kNone,  // unknown / clobbered
    kCmp,   // CMP src,dst: flags encode the comparison of the two sides
    kZn,    // Z and N reflect the value of one register (TST / ALU result)
  };
  Kind kind = Kind::kNone;
  // A CMP side is either a live register (0..5) or a value snapshot.
  // SP/PC/memory/immediate sides are snapshots: the interval at the CMP is
  // a sound description of the compared *value* even if the storage later
  // mutates, because every tracked write to R0..R5 resets the flags and
  // the only flag-preserving register updates (JSR/RTS on SP) never appear
  // as a live side. For kZn, d_reg names the register.
  std::int8_t s_reg = -1;
  std::int8_t d_reg = -1;
  AbsVal s_val;
  AbsVal d_val;

  bool operator==(const FlagsSrc& o) const = default;

  static FlagsSrc Zn(int reg) {
    FlagsSrc f;
    f.kind = Kind::kZn;
    f.d_reg = static_cast<std::int8_t>(reg);
    return f;
  }
};

// Abstract machine state at one program point. R7 (PC) is not tracked; its
// exact value is known from the instruction address.
struct AbsState {
  bool reachable = false;
  std::array<AbsVal, 8> regs;
  RelSet rel;
  FlagsSrc flags;

  bool operator==(const AbsState& o) const = default;

  // Joins `o` into this state; returns true if anything changed. Applies
  // widening once an edge has been joined more than `widen_after` times
  // (callers pass a per-edge counter); with `thresholds` the widening is
  // threshold widening (see AbsVal::WidenedFrom). Condition-code knowledge
  // joins to "unknown" unless both sides agree exactly.
  bool JoinFrom(const AbsState& o, bool widen,
                const std::vector<std::uint32_t>* thresholds = nullptr) {
    if (!o.reachable) return false;
    if (!reachable) {
      *this = o;
      return true;
    }
    bool changed = false;
    for (int i = 0; i < 8; ++i) {
      AbsVal joined = regs[i].Join(o.regs[i]);
      if (widen) {
        joined = thresholds ? joined.WidenedFrom(regs[i], *thresholds)
                            : joined.WidenedFrom(regs[i]);
      }
      if (!(joined == regs[i])) {
        regs[i] = joined;
        changed = true;
      }
    }
    if (rel.JoinFrom(o.rel, widen)) changed = true;
    if (!(flags == o.flags) && flags.kind != FlagsSrc::Kind::kNone) {
      flags = FlagsSrc{};
      changed = true;
    }
    return changed;
  }
};

}  // namespace sep::sepcheck

#endif  // SEP_SEPCHECK_ABSDOMAIN_H_
