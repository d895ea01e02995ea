#pragma once
// Dynamic bitset used throughout the system: per-source frontier membership
// in the MRBC state (Section 4.3 of the paper keeps a map from distance to a
// dense bitvector of sources), update-tracking metadata in the Gluon-like
// communication substrate, and the direction-optimized drain's frontier /
// availability planes.
//
// The word-at-a-time kernels live in the bitwords namespace below: each has
// a scalar reference implementation and (on x86-64) an AVX2 variant selected
// at runtime. Both produce bit-identical results — the SIMD path only
// changes how many words are inspected per instruction, never the outcome —
// so algorithm determinism is independent of the dispatch decision.
// Dispatch is a cached process-wide flag: compile-time opt-out via the
// MRBC_DISABLE_SIMD CMake option, runtime opt-out via the MRBC_NO_SIMD
// environment variable, and a __builtin_cpu_supports("avx2") probe.

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <vector>

namespace mrbc::util {

/// True when the AVX2 kernel variants are compiled in, the CPU supports
/// AVX2, and MRBC_NO_SIMD is not set in the environment. Cached on first
/// call; the bitwords kernels consult it on every dispatch.
bool simd_enabled();

/// Raw kernels over arrays of 64-bit words. The *_scalar versions are the
/// reference semantics; the unsuffixed versions dispatch to AVX2 when
/// simd_enabled() and are bit-identical to the reference (pinned by the
/// differential tests in test_util).
namespace bitwords {

using Word = std::uint64_t;

std::size_t count_scalar(const Word* w, std::size_t n);
void and_not_scalar(Word* dst, const Word* src, std::size_t n);
bool any_intersect_scalar(const Word* a, const Word* b, std::size_t n);
std::size_t find_nonzero_scalar(const Word* w, std::size_t n, std::size_t from);

/// Total set bits in w[0..n).
std::size_t count(const Word* w, std::size_t n);
/// dst[i] &= ~src[i] for i in [0, n).
void and_not(Word* dst, const Word* src, std::size_t n);
/// True when (a[i] & b[i]) != 0 for any i in [0, n).
bool any_intersect(const Word* a, const Word* b, std::size_t n);
/// Smallest i in [from, n) with w[i] != 0, or n when all remaining words
/// are zero — the zero-word skip of the frontier scans.
std::size_t find_nonzero(const Word* w, std::size_t n, std::size_t from);

/// Invokes fn(bit) for every set bit of w[0..n) in ascending order,
/// skipping zero words through find_nonzero.
template <typename Fn>
void for_each_set_bit(const Word* w, std::size_t n, Fn&& fn) {
  for (std::size_t i = find_nonzero(w, n, 0); i < n; i = find_nonzero(w, n, i + 1)) {
    Word word = w[i];
    while (word != 0) {
      fn(i * 64 + static_cast<unsigned>(__builtin_ctzll(word)));
      word &= word - 1;
    }
  }
}

}  // namespace bitwords

/// A fixed-capacity-after-resize dynamic bitset with word-level operations
/// and fast set-bit iteration. All indices are bit positions in [0, size()).
class DynamicBitset {
 public:
  using Word = std::uint64_t;
  static constexpr std::size_t kBitsPerWord = 64;

  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t num_bits) { resize(num_bits); }

  /// Resizes to hold `num_bits` bits; newly exposed bits are zero.
  void resize(std::size_t num_bits);

  std::size_t size() const { return num_bits_; }
  bool empty() const { return num_bits_ == 0; }

  // Single-bit accessors are inline: the drains' flag updates and frontier
  // tests call them per edge, and an out-of-line call per bit costs more
  // than the bit operation itself.
  void set(std::size_t pos) {
    assert(pos < num_bits_);
    words_[pos / kBitsPerWord] |= Word{1} << (pos % kBitsPerWord);
  }
  void reset(std::size_t pos) {
    assert(pos < num_bits_);
    words_[pos / kBitsPerWord] &= ~(Word{1} << (pos % kBitsPerWord));
  }
  bool test(std::size_t pos) const {
    assert(pos < num_bits_);
    return (words_[pos / kBitsPerWord] >> (pos % kBitsPerWord)) & 1u;
  }
  /// Sets all bits to zero without changing the size.
  void reset_all();
  /// Sets all bits in [0, size()) to one.
  void set_all();

  /// Number of set bits.
  std::size_t count() const;
  bool any() const;
  bool none() const { return !any(); }

  /// Index of the lowest set bit at or after `pos`, or npos if none.
  std::size_t find_first_from(std::size_t pos) const;
  std::size_t find_first() const { return find_first_from(0); }

  /// Invokes `fn(std::size_t bit)` for every set bit in ascending order,
  /// skipping runs of zero words at SIMD speed — the hot frontier scan of
  /// the direction-optimized drains, where late dense rounds leave most
  /// words fully finalized (zero).
  template <typename Fn>
  void for_each_set_bit(Fn&& fn) const {
    bitwords::for_each_set_bit(words_.data(), words_.size(), static_cast<Fn&&>(fn));
  }

  /// Historical name; same iteration as for_each_set_bit.
  template <typename Fn>
  void for_each_set(Fn&& fn) const {
    for_each_set_bit(static_cast<Fn&&>(fn));
  }

  DynamicBitset& operator|=(const DynamicBitset& other);
  DynamicBitset& operator&=(const DynamicBitset& other);
  /// this &= ~other, word-at-a-time (bitwords::and_not).
  DynamicBitset& and_not_assign(const DynamicBitset& other);
  /// True when this and `other` share any set bit; early-out word scan.
  bool any_intersect(const DynamicBitset& other) const;
  bool operator==(const DynamicBitset& other) const;

  const std::vector<Word>& words() const { return words_; }
  std::vector<Word>& words() { return words_; }

  /// Bytes required to transmit this bitset verbatim (metadata compression
  /// in the communication substrate accounts for this).
  std::size_t byte_size() const { return words_.size() * sizeof(Word); }

  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

 private:
  void clear_padding();

  std::vector<Word> words_;
  std::size_t num_bits_ = 0;
};

}  // namespace mrbc::util
