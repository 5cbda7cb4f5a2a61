#include "util/bitset.h"

#include <gtest/gtest.h>

#include <vector>

namespace {

using msc::util::Bitset;

TEST(Bitset, StartsEmpty) {
  Bitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_FALSE(b.any());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetAndTest) {
  Bitset b(70);  // crosses a word boundary
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(69));
  EXPECT_FALSE(b.test(1));
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.any());
}

TEST(Bitset, Reset) {
  Bitset b(10);
  b.set(3);
  b.reset(3);
  EXPECT_FALSE(b.test(3));
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, Clear) {
  Bitset b(128);
  for (std::size_t i = 0; i < 128; i += 3) b.set(i);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitset, OutOfRangeThrows) {
  Bitset b(10);
  EXPECT_THROW(b.set(10), std::out_of_range);
  EXPECT_THROW(b.test(10), std::out_of_range);
  EXPECT_THROW(b.reset(99), std::out_of_range);
}

TEST(Bitset, UnionInPlace) {
  Bitset a(130);
  Bitset b(130);
  a.set(0);
  a.set(100);
  b.set(100);
  b.set(129);
  a |= b;
  EXPECT_EQ(a.count(), 3u);
  EXPECT_TRUE(a.test(0));
  EXPECT_TRUE(a.test(100));
  EXPECT_TRUE(a.test(129));
}

TEST(Bitset, IntersectInPlace) {
  Bitset a(64);
  Bitset b(64);
  a.set(1);
  a.set(2);
  b.set(2);
  b.set(3);
  a &= b;
  EXPECT_EQ(a.count(), 1u);
  EXPECT_TRUE(a.test(2));
}

TEST(Bitset, SizeMismatchThrows) {
  Bitset a(10);
  Bitset b(11);
  EXPECT_THROW(a |= b, std::invalid_argument);
  EXPECT_THROW(a.gainIfUnion(b), std::invalid_argument);
}

TEST(Bitset, GainIfUnion) {
  Bitset covered(200);
  Bitset cand(200);
  covered.set(5);
  covered.set(150);
  cand.set(5);    // already covered: no gain
  cand.set(6);    // new
  cand.set(199);  // new
  EXPECT_EQ(covered.gainIfUnion(cand), 2u);
  // gain is union minus current count
  Bitset merged = covered;
  merged |= cand;
  EXPECT_EQ(merged.count(), covered.count() + covered.gainIfUnion(cand));
}

TEST(Bitset, IntersectCount) {
  Bitset a(90);
  Bitset b(90);
  a.set(10);
  a.set(70);
  a.set(80);
  b.set(70);
  b.set(80);
  b.set(89);
  EXPECT_EQ(a.intersectCount(b), 2u);
}

TEST(Bitset, ForEachMissingFrom) {
  Bitset have(150);
  Bitset want(150);
  have.set(3);
  want.set(3);
  want.set(64);
  want.set(149);
  std::vector<std::size_t> fresh;
  have.forEachMissingFrom(want, [&](std::size_t i) { fresh.push_back(i); });
  EXPECT_EQ(fresh, (std::vector<std::size_t>{64, 149}));
}

TEST(Bitset, ForEachMissingFromWithExclusionMatchesUnionCopy) {
  Bitset have(150);
  Bitset excluded(150);
  Bitset want(150);
  for (const std::size_t i : {3, 64, 70, 149}) want.set(i);
  have.set(3);
  excluded.set(70);
  excluded.set(100);
  std::vector<std::size_t> fresh;
  have.forEachMissingFrom(want, excluded,
                          [&](std::size_t i) { fresh.push_back(i); });
  EXPECT_EQ(fresh, (std::vector<std::size_t>{64, 149}));

  Bitset unionCopy = have;
  unionCopy |= excluded;
  std::vector<std::size_t> viaCopy;
  unionCopy.forEachMissingFrom(want,
                               [&](std::size_t i) { viaCopy.push_back(i); });
  EXPECT_EQ(fresh, viaCopy);
  EXPECT_THROW(have.forEachMissingFrom(want, Bitset(10), [](std::size_t) {}),
               std::invalid_argument);
}

TEST(Bitset, AnyCommon) {
  Bitset a(130);
  Bitset b(130);
  EXPECT_FALSE(a.anyCommon(b));
  a.set(5);
  b.set(6);
  EXPECT_FALSE(a.anyCommon(b));
  // Overlap past the first word boundary is still found.
  a.set(129);
  b.set(129);
  EXPECT_TRUE(a.anyCommon(b));
  EXPECT_TRUE(b.anyCommon(a));
}

TEST(Bitset, AnyCommonSizeMismatchThrows) {
  Bitset a(64);
  Bitset b(65);
  EXPECT_THROW(a.anyCommon(b), std::invalid_argument);
}

TEST(Bitset, SetAll) {
  Bitset b(70);  // partial tail word
  b.setAll();
  EXPECT_EQ(b.count(), 70u);
  for (std::size_t i = 0; i < 70; ++i) EXPECT_TRUE(b.test(i));
  // Tail bits beyond size() stay zero so count()/any() remain exact.
  EXPECT_EQ(b.word(1) >> 6, 0u);
  b.clear();
  EXPECT_FALSE(b.any());
}

TEST(Bitset, SetAllExactWordMultiple) {
  Bitset b(128);
  b.setAll();
  EXPECT_EQ(b.count(), 128u);
  EXPECT_EQ(b.word(0), ~0ULL);
  EXPECT_EQ(b.word(1), ~0ULL);
}

TEST(Bitset, WordAccess) {
  Bitset b(100);
  EXPECT_EQ(b.wordCount(), 2u);
  b.set(0);
  b.set(65);
  EXPECT_EQ(b.word(0), 1ULL);
  EXPECT_EQ(b.word(1), 2ULL);
  b.setWord(0, 0xffULL);
  EXPECT_EQ(b.count(), 8u + 1u);
  EXPECT_TRUE(b.test(7));
  EXPECT_FALSE(b.test(8));
}

TEST(Bitset, SetWordMasksTail) {
  Bitset b(70);  // last word holds 6 valid bits
  b.setWord(1, ~0ULL);
  EXPECT_EQ(b.word(1), 0x3fULL);
  EXPECT_EQ(b.count(), 6u);
}

TEST(Bitset, WordAccessOutOfRangeThrows) {
  Bitset b(64);
  EXPECT_THROW(b.word(1), std::out_of_range);
  EXPECT_THROW(b.setWord(1, 0), std::out_of_range);
}

TEST(Bitset, Equality) {
  Bitset a(40);
  Bitset b(40);
  EXPECT_EQ(a, b);
  a.set(39);
  EXPECT_FALSE(a == b);
  b.set(39);
  EXPECT_EQ(a, b);
}

}  // namespace
