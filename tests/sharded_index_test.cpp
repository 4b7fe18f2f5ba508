// Race-condition stress for the sharded intern index the exhaustive
// checker's workers intern states and chunks through concurrently. The CI
// tsan matrix job runs this binary under ThreadSanitizer to certify it
// (.github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "src/base/arena.h"
#include "src/base/hash.h"

namespace sep {
namespace {

TEST(ShardedIndexTest, PackedIdRoundTrip) {
  for (std::size_t s : {std::size_t{0}, std::size_t{5}, kShardCount - 1}) {
    for (std::size_t l : {std::size_t{0}, std::size_t{77}, kShardLocalMax}) {
      const std::int32_t packed = PackShardId(s, l);
      EXPECT_GE(packed, 0);  // sign bit stays clear: -1 remains a sentinel
      EXPECT_EQ(ShardOfId(packed), s);
      EXPECT_EQ(LocalOfId(packed), l);
    }
  }
  EXPECT_EQ(ShardForHash(~0ull), kShardCount - 1);
  EXPECT_EQ(ShardForHash(0ull), 0u);
}

// N threads intern overlapping ranges of keys concurrently, forcing both
// shard-index growth and duplicate insert races. Afterwards: exact dedup
// (size == distinct keys) and agreement (every thread got the same packed
// id for the same key).
TEST(ShardedIndexTest, ConcurrentGrowthDedupsExactly) {
  constexpr std::uint64_t kKeys = 8192;
  constexpr int kThreads = 4;
  ShardedIndex index;
  // Per-shard record storage guarded by the shard mutex via the callbacks.
  std::array<std::vector<std::uint64_t>, kShardCount> records;

  std::vector<std::vector<std::int32_t>> ids(
      kThreads, std::vector<std::int32_t>(kKeys, -1));
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Each thread walks the key space at a different stride so insert
      // order differs per thread and collisions interleave.
      for (std::uint64_t n = 0; n < kKeys; ++n) {
        const std::uint64_t key = (n * (2 * static_cast<std::uint64_t>(t) + 1)) % kKeys;
        const std::uint64_t hash = Mix64(key + 1);
        const std::size_t shard = ShardForHash(hash);
        auto [packed, inserted] = index.FindOrInsert(
            hash, [&](std::int32_t local) { return records[shard][static_cast<std::size_t>(local)] == key; },
            [&] {
              records[shard].push_back(key);
              return records[shard].size() - 1;
            },
            [&](std::int32_t local) {
              return Mix64(records[shard][static_cast<std::size_t>(local)] + 1);
            });
        ids[static_cast<std::size_t>(t)][key] = packed;
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  EXPECT_EQ(index.size(), kKeys);
  EXPECT_LE(index.max_load(), kKeys);
  EXPECT_GT(index.bytes(), 0u);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    const std::int32_t expected = ids[0][key];
    ASSERT_GE(expected, 0);
    EXPECT_EQ(records[ShardOfId(expected)][LocalOfId(expected)], key);
    for (int t = 1; t < kThreads; ++t) {
      EXPECT_EQ(ids[static_cast<std::size_t>(t)][key], expected)
          << "thread " << t << " key " << key;
    }
  }
}

}  // namespace
}  // namespace sep
