#include <gtest/gtest.h>

#include <set>

#include "src/base/hash.h"
#include "src/base/result.h"
#include "src/base/rng.h"
#include "src/base/strings.h"

namespace sep {
namespace {

TEST(Result, ValueAndError) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 42);

  Result<int> bad = Err("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Result, VoidResult) {
  Result<> ok = Ok();
  EXPECT_TRUE(ok.ok());
  Result<> bad = Err("broken");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "broken");
}

TEST(Rng, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBelow(17), 17u);
  }
}

TEST(Rng, NextInRangeBounds) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    std::int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    seen.insert(rng.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, ForkIndependent) {
  Rng parent(3);
  Rng child = parent.Fork();
  EXPECT_NE(parent.Next(), child.Next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(5);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(v);
  std::multiset<int> a(v.begin(), v.end());
  std::multiset<int> b(orig.begin(), orig.end());
  EXPECT_EQ(a, b);
}

TEST(Hash, OrderSensitive) {
  Hasher a;
  a.Mix(1).Mix(2);
  Hasher b;
  b.Mix(2).Mix(1);
  EXPECT_NE(a.digest(), b.digest());
}

TEST(Strings, SplitPreservesEmpties) {
  auto parts = Split("a,,b", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[1], "");
}

TEST(Strings, SplitWhitespaceDropsEmpties) {
  auto parts = SplitWhitespace("  a \t b  ");
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
}

TEST(Strings, TrimBothEnds) { EXPECT_EQ(Trim("  x y \t"), "x y"); }

TEST(Strings, OctalFormatting) { EXPECT_EQ(Octal(0777), "000777"); }

TEST(Strings, HexFormatting) { EXPECT_EQ(Hex(0xBEEF), "0xBEEF"); }

TEST(Strings, FormatBasic) { EXPECT_EQ(Format("%d-%s", 3, "x"), "3-x"); }

TEST(Strings, JoinWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(ToUpper("aBc"), "ABC");
  EXPECT_EQ(ToLower("aBc"), "abc");
}

}  // namespace
}  // namespace sep
