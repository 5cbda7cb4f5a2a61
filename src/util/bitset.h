// Compact dynamic bitset used by the coverage-style objective evaluators.
//
// The lower-bound function mu of the MSC problem reduces to max-coverage over
// per-candidate "satisfied pair" sets; representing those sets as packed bit
// vectors makes union/count operations a handful of word instructions per 64
// pairs, which is what keeps the sandwich algorithm's greedy loops cheap.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace msc::util {

/// Fixed-size-at-construction bitset with the operations the coverage
/// evaluators need: set/test, union-in-place, popcount, and "how many bits
/// would a union add" without materializing it. The Monte-Carlo world
/// planes (src/mc) additionally fold over raw words, so word-level access
/// is part of the interface; unused bits of the last word are always zero
/// (setWord enforces it), which count()/any() rely on.
class Bitset {
 public:
  static constexpr std::size_t kBitsPerWord = 64;

  Bitset() = default;

  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  std::size_t size() const noexcept { return bits_; }

  void set(std::size_t i) {
    checkIndex(i);
    words_[i >> 6] |= (1ULL << (i & 63));
  }

  void reset(std::size_t i) {
    checkIndex(i);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool test(std::size_t i) const {
    checkIndex(i);
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void clear() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Sets every bit (the "all worlds" plane of the MC engine).
  void setAll() noexcept {
    if (words_.empty()) return;
    for (auto& w : words_) w = ~0ULL;
    words_.back() &= tailMask();
  }

  /// Number of set bits.
  std::size_t count() const noexcept {
    std::size_t c = 0;
    for (auto w : words_) c += static_cast<std::size_t>(std::popcount(w));
    return c;
  }

  bool any() const noexcept {
    for (auto w : words_) {
      if (w != 0) return true;
    }
    return false;
  }

  /// this |= other. Sizes must match.
  Bitset& operator|=(const Bitset& other) {
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
    return *this;
  }

  /// this &= other. Sizes must match.
  Bitset& operator&=(const Bitset& other) {
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
    return *this;
  }

  /// Number of bits in `other` not already set in *this, i.e.
  /// |other \ this| — the marginal coverage gain of adding `other`.
  std::size_t gainIfUnion(const Bitset& other) const {
    checkCompatible(other);
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<std::size_t>(std::popcount(other.words_[i] & ~words_[i]));
    }
    return c;
  }

  /// True when the intersection is non-empty — an early-exit
  /// intersectCount(other) != 0 without scanning past the first hit.
  bool anyCommon(const Bitset& other) const {
    checkCompatible(other);
    for (std::size_t i = 0; i < words_.size(); ++i) {
      if ((words_[i] & other.words_[i]) != 0) return true;
    }
    return false;
  }

  /// Popcount of the intersection.
  std::size_t intersectCount(const Bitset& other) const {
    checkCompatible(other);
    std::size_t c = 0;
    for (std::size_t i = 0; i < words_.size(); ++i) {
      c += static_cast<std::size_t>(std::popcount(other.words_[i] & words_[i]));
    }
    return c;
  }

  bool operator==(const Bitset& other) const noexcept {
    return bits_ == other.bits_ && words_ == other.words_;
  }

  /// Raw word access for callers that fold over set bits (e.g. weighted
  /// coverage gains).
  const std::vector<std::uint64_t>& words() const noexcept { return words_; }

  /// Number of 64-bit words backing the set: ceil(size() / 64).
  std::size_t wordCount() const noexcept { return words_.size(); }

  /// Word `w` (bits [64w, 64w + 63]). Bounds-checked like set/test.
  std::uint64_t word(std::size_t w) const {
    checkWordIndex(w);
    return words_[w];
  }

  /// Replaces word `w` wholesale — the word-parallel write the MC frontier
  /// propagation is built on (64 worlds per store). Bits beyond size() are
  /// masked off so the zero-tail invariant behind count()/any() holds.
  void setWord(std::size_t w, std::uint64_t value) {
    checkWordIndex(w);
    if (w + 1 == words_.size()) value &= tailMask();
    words_[w] = value;
  }

  /// Calls fn(bitIndex) for every bit set in `other` but not in *this,
  /// in ascending order.
  template <typename Fn>
  void forEachMissingFrom(const Bitset& other, Fn&& fn) const {
    checkCompatible(other);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      forEachBit(other.words_[w] & ~words_[w], w, fn);
    }
  }

  /// Calls fn(bitIndex) for every bit set in `other` but in neither *this
  /// nor `excluded`, ascending — forEachMissingFrom against *this | excluded
  /// without materializing the union.
  template <typename Fn>
  void forEachMissingFrom(const Bitset& other, const Bitset& excluded,
                          Fn&& fn) const {
    checkCompatible(other);
    checkCompatible(excluded);
    for (std::size_t w = 0; w < words_.size(); ++w) {
      forEachBit(other.words_[w] & ~words_[w] & ~excluded.words_[w], w, fn);
    }
  }

 private:
  template <typename Fn>
  static void forEachBit(std::uint64_t bits, std::size_t word, Fn& fn) {
    while (bits != 0) {
      fn(word * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
  void checkIndex(std::size_t i) const {
    if (i >= bits_) throw std::out_of_range("Bitset: index out of range");
  }
  void checkWordIndex(std::size_t w) const {
    if (w >= words_.size()) {
      throw std::out_of_range("Bitset: word index out of range");
    }
  }
  /// Mask of the valid bits in the last word (all-ones when size() is a
  /// multiple of 64).
  std::uint64_t tailMask() const noexcept {
    const std::size_t r = bits_ & 63;
    return r == 0 ? ~0ULL : ((1ULL << r) - 1);
  }
  void checkCompatible(const Bitset& other) const {
    if (bits_ != other.bits_) {
      throw std::invalid_argument("Bitset: size mismatch");
    }
  }

  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace msc::util
