// Hashing utilities: byte-at-a-time FNV-1a and a word-at-a-time mix.
//
// In the Proof-of-Separability checker a digest only routes a lookup:
// wherever it interns a state, a chunk or a class, a digest hit is confirmed
// by comparing the words themselves, so a collision costs a probe, never a
// wrong verdict.
#ifndef SRC_BASE_HASH_H_
#define SRC_BASE_HASH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace sep {

inline constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

class Hasher {
 public:
  Hasher() = default;

  Hasher& Mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      digest_ ^= (value >> (8 * i)) & 0xFF;
      digest_ *= kFnvPrime;
    }
    return *this;
  }

  Hasher& MixBytes(std::string_view bytes) {
    for (unsigned char b : bytes) {
      digest_ ^= b;
      digest_ *= kFnvPrime;
    }
    return *this;
  }

  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t digest_ = kFnvOffset;
};

inline std::uint64_t HashBytes(std::string_view bytes) {
  return Hasher().MixBytes(bytes).digest();
}

// splitmix64 finalizer: a full-avalanche mix of one 64-bit lane.
inline constexpr std::uint64_t Mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Fast hash over a span of words. The exhaustive checker hashes every
// changed 64-word chunk and every record field (Φ words, NEXTOP, outputs)
// of every state it expands; the byte-at-a-time FNV Hasher above would
// dominate that path. Four independent 64-bit lanes each mix four words per
// round, so a round's four multiply chains overlap instead of running one
// after another. Digests are never persisted, so this function only needs
// to be deterministic within one process.
inline std::uint64_t HashWords(const std::uint16_t* words, std::size_t count) {
  constexpr std::uint64_t kStep = 0x9E3779B97F4A7C15ULL;
  const auto load = [&](std::size_t i) {
    std::uint64_t lane;
    std::memcpy(&lane, words + i, sizeof lane);
    return lane;
  };
  std::uint64_t h[4] = {kStep, 2 * kStep, 3 * kStep, 4 * kStep};
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    for (std::size_t l = 0; l < 4; ++l) {
      h[l] = Mix64(h[l] ^ load(i + 4 * l)) + kStep;
    }
  }
  // The last 0..15 words: whole groups of four into lanes 0, 1 and 2, then
  // the rest, zero-padded, into the next lane. The length is mixed in last.
  std::size_t l = 0;
  for (; i + 4 <= count; i += 4, ++l) {
    h[l] = Mix64(h[l] ^ load(i)) + kStep;
  }
  std::uint64_t tail = 0;
  for (int shift = 0; i < count; ++i, shift += 16) {
    tail |= static_cast<std::uint64_t>(words[i]) << shift;
  }
  h[l] ^= tail;
  return Mix64(h[0] ^ std::rotl(h[1], 16) ^ std::rotl(h[2], 32) ^ std::rotl(h[3], 48) ^
               Mix64(count));
}

}  // namespace sep

#endif  // SRC_BASE_HASH_H_
