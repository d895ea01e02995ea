#include "util/bitset.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

// AVX2 variants are compiled with a per-function target attribute (no global
// -mavx2), so the translation unit stays runnable on any x86-64 and the
// baseline-ISA scalar loops below are what the compiler may NOT
// auto-vectorize with AVX2 — the SIMD-vs-scalar micro gate depends on that.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(MRBC_DISABLE_SIMD)
#define MRBC_HAVE_AVX2_KERNELS 1
#include <immintrin.h>
#endif

namespace mrbc::util {

bool simd_enabled() {
  static const bool enabled = [] {
#ifdef MRBC_HAVE_AVX2_KERNELS
    if (const char* env = std::getenv("MRBC_NO_SIMD")) {
      // Any value except empty / "0" forces the scalar reference path.
      if (env[0] != '\0' && !(env[0] == '0' && env[1] == '\0')) return false;
    }
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
  }();
  return enabled;
}

namespace bitwords {

std::size_t count_scalar(const Word* w, std::size_t n) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(w[i]));
  }
  return total;
}

void and_not_scalar(Word* dst, const Word* src, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] &= ~src[i];
}

bool any_intersect_scalar(const Word* a, const Word* b, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

std::size_t find_nonzero_scalar(const Word* w, std::size_t n, std::size_t from) {
  for (std::size_t i = from; i < n; ++i) {
    if (w[i] != 0) return i;
  }
  return n;
}

#ifdef MRBC_HAVE_AVX2_KERNELS

namespace {

/// Mula's shuffle-based popcount: per 32-byte vector, two 16-entry nibble
/// lookups + a horizontal byte sum (_mm256_sad_epu8) accumulated into four
/// 64-bit lanes. ~4 words per 5 uops vs 1 word per popcnt in the scalar
/// loop.
__attribute__((target("avx2"))) std::size_t count_avx2(const Word* w, std::size_t n) {
  const __m256i lookup =
      _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4, 0, 1, 1, 2, 1, 2, 2, 3,
                       1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0f);
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc = zero;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi16(v, 4), low_mask);
    const __m256i cnt =
        _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi));
    acc = _mm256_add_epi64(acc, _mm256_sad_epu8(cnt, zero));
  }
  std::size_t total = static_cast<std::size_t>(_mm256_extract_epi64(acc, 0)) +
                      static_cast<std::size_t>(_mm256_extract_epi64(acc, 1)) +
                      static_cast<std::size_t>(_mm256_extract_epi64(acc, 2)) +
                      static_cast<std::size_t>(_mm256_extract_epi64(acc, 3));
  for (; i < n; ++i) total += static_cast<std::size_t>(__builtin_popcountll(w[i]));
  return total;
}

__attribute__((target("avx2"))) void and_not_avx2(Word* dst, const Word* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(dst + i));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    // andnot(b, a) = ~b & a.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_andnot_si256(b, a));
  }
  for (; i < n; ++i) dst[i] &= ~src[i];
}

__attribute__((target("avx2"))) bool any_intersect_avx2(const Word* a, const Word* b,
                                                        std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    if (!_mm256_testz_si256(va, vb)) return true;
  }
  for (; i < n; ++i) {
    if ((a[i] & b[i]) != 0) return true;
  }
  return false;
}

__attribute__((target("avx2"))) std::size_t find_nonzero_avx2(const Word* w, std::size_t n,
                                                              std::size_t from) {
  std::size_t i = from;
  for (; i + 4 <= n; i += 4) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(w + i));
    if (!_mm256_testz_si256(v, v)) break;  // hit is within the next 4 words
  }
  for (; i < n; ++i) {
    if (w[i] != 0) return i;
  }
  return n;
}

}  // namespace

#endif  // MRBC_HAVE_AVX2_KERNELS

std::size_t count(const Word* w, std::size_t n) {
#ifdef MRBC_HAVE_AVX2_KERNELS
  if (simd_enabled()) return count_avx2(w, n);
#endif
  return count_scalar(w, n);
}

void and_not(Word* dst, const Word* src, std::size_t n) {
#ifdef MRBC_HAVE_AVX2_KERNELS
  if (simd_enabled()) {
    and_not_avx2(dst, src, n);
    return;
  }
#endif
  and_not_scalar(dst, src, n);
}

bool any_intersect(const Word* a, const Word* b, std::size_t n) {
#ifdef MRBC_HAVE_AVX2_KERNELS
  if (simd_enabled()) return any_intersect_avx2(a, b, n);
#endif
  return any_intersect_scalar(a, b, n);
}

std::size_t find_nonzero(const Word* w, std::size_t n, std::size_t from) {
#ifdef MRBC_HAVE_AVX2_KERNELS
  if (simd_enabled()) return find_nonzero_avx2(w, n, from);
#endif
  return find_nonzero_scalar(w, n, from);
}

}  // namespace bitwords

void DynamicBitset::resize(std::size_t num_bits) {
  num_bits_ = num_bits;
  words_.resize((num_bits + kBitsPerWord - 1) / kBitsPerWord, 0);
  clear_padding();
}

void DynamicBitset::reset_all() { std::fill(words_.begin(), words_.end(), 0); }

void DynamicBitset::set_all() {
  std::fill(words_.begin(), words_.end(), ~Word{0});
  clear_padding();
}

std::size_t DynamicBitset::count() const {
  return bitwords::count(words_.data(), words_.size());
}

bool DynamicBitset::any() const {
  return bitwords::find_nonzero(words_.data(), words_.size(), 0) < words_.size();
}

std::size_t DynamicBitset::find_first_from(std::size_t pos) const {
  if (pos >= num_bits_) return npos;
  std::size_t w = pos / kBitsPerWord;
  Word word = words_[w] & (~Word{0} << (pos % kBitsPerWord));
  while (true) {
    if (word != 0) {
      const std::size_t bit = w * kBitsPerWord + static_cast<unsigned>(__builtin_ctzll(word));
      return bit < num_bits_ ? bit : npos;
    }
    w = bitwords::find_nonzero(words_.data(), words_.size(), w + 1);
    if (w >= words_.size()) return npos;
    word = words_[w];
  }
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::and_not_assign(const DynamicBitset& other) {
  assert(num_bits_ == other.num_bits_);
  bitwords::and_not(words_.data(), other.words_.data(), words_.size());
  return *this;
}

bool DynamicBitset::any_intersect(const DynamicBitset& other) const {
  assert(num_bits_ == other.num_bits_);
  return bitwords::any_intersect(words_.data(), other.words_.data(), words_.size());
}

bool DynamicBitset::operator==(const DynamicBitset& other) const {
  return num_bits_ == other.num_bits_ && words_ == other.words_;
}

void DynamicBitset::clear_padding() {
  const std::size_t tail = num_bits_ % kBitsPerWord;
  if (tail != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << tail) - 1;
  }
}

}  // namespace mrbc::util
