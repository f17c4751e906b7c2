// AVX2 kernel tier: 8-lane float kernels (elementwise, relu
// compare-and-blend, an up-to-8 x 16 matmul tile in two 8-column halves),
// a 4 x 16 matmul_bt tile, the 4-lane exact-sum add and the bit kernels.
// Compiled with -mavx2 -mpopcnt -mno-fma -ffp-contract=off (see
// src/util/CMakeLists.txt): the float kernels must emit separate multiply
// and add instructions so every output element sees the exact IEEE-754
// operation sequence of the scalar oracle — FMA contraction would change
// results in the last ulp and break the golden histories. The integer
// kernels (exact-sum digit-plane add, sign-pack via compare+movemask, Muła
// nibble-LUT popcount) are exact by construction.
//
// The entire file is guarded by __AVX2__: on non-x86 targets (or when the
// build system did not pass the flags) the table resolver returns null and
// the dispatcher keeps the scalar tier.
#include "util/simd.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace fhdnn::simd::detail {

namespace {

void axpy_avx2(float* y, float a, const float* x, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void scale_avx2(float* out, const float* x, float a, std::int64_t n) {
  const __m256 va = _mm256_set1_ps(a);
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(out + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) out[i] = x[i] * a;
}

void add_avx2(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] + b[i];
}

void sub_avx2(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] - b[i];
}

void mul_avx2(float* out, const float* a, const float* b, std::int64_t n) {
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        out + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

/// Lanes where x < 0 (_CMP_LT_OQ: false for NaN and -0.0) blend to +0.0;
/// every other lane keeps x — std::max(x, 0.0f) exactly, which
/// _mm256_max_ps is not (it returns its second operand on NaN and on
/// either zero).
void relu_avx2(float* out, const float* x, std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(x + i);
    _mm256_storeu_ps(out + i, _mm256_blendv_ps(
                                  v, zero, _mm256_cmp_ps(v, zero, _CMP_LT_OQ)));
  }
  for (; i < n; ++i) out[i] = std::max(x[i], 0.0F);
}

/// Lanes where x <= 0 (_CMP_LE_OQ: false for NaN) blend to +0.0; the rest
/// take g.
void relu_backward_avx2(float* out, const float* g, const float* x,
                        std::int64_t n) {
  const __m256 zero = _mm256_setzero_ps();
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 off = _mm256_cmp_ps(_mm256_loadu_ps(x + i), zero, _CMP_LE_OQ);
    _mm256_storeu_ps(out + i,
                     _mm256_blendv_ps(_mm256_loadu_ps(g + i), zero, off));
  }
  for (; i < n; ++i) out[i] = x[i] <= 0.0F ? 0.0F : g[i];
}

/// R rows x up to 8 columns of c = A * b: one ymm float accumulator per
/// row, a masked load of b row kk (tail columns read as zero and are
/// never stored), then a separate multiply and add per row.
template <int R>
void matmul_tile_rows_avx2(const float* a, std::int64_t a_rs,
                           std::int64_t a_ks, const float* b, std::int64_t ldb,
                           std::int64_t k, float* c, std::int64_t ldc,
                           __m256i lanes) {
  __m256 acc[R];
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) acc[r] = _mm256_setzero_ps();
  for (std::int64_t kk = 0; kk < k; ++kk) {
    const __m256 vb = _mm256_maskload_ps(b + kk * ldb, lanes);
    const float* ak = a + kk * a_ks;
#pragma GCC unroll 8
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_add_ps(acc[r],
                             _mm256_mul_ps(_mm256_set1_ps(ak[r * a_rs]), vb));
    }
  }
#pragma GCC unroll 8
  for (int r = 0; r < R; ++r) _mm256_maskstore_ps(c + r * ldc, lanes, acc[r]);
}

/// The up-to-8 x 16 tile as two 8-column halves (R accumulators each;
/// sixteen would leave no registers for the operands).
void matmul_tile_avx2(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                      std::int64_t rows, const float* b, std::int64_t ldb,
                      std::int64_t k, float* c, std::int64_t ldc,
                      std::int64_t cols) {
  using RowsFn = void (*)(const float*, std::int64_t, std::int64_t,
                          const float*, std::int64_t, std::int64_t, float*,
                          std::int64_t, __m256i);
  static constexpr RowsFn kByRows[kGemmRows] = {
      matmul_tile_rows_avx2<1>, matmul_tile_rows_avx2<2>,
      matmul_tile_rows_avx2<3>, matmul_tile_rows_avx2<4>,
      matmul_tile_rows_avx2<5>, matmul_tile_rows_avx2<6>,
      matmul_tile_rows_avx2<7>, matmul_tile_rows_avx2<8>,
  };
  const __m256i lane_index = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (std::int64_t j0 = 0; j0 < cols; j0 += 8) {
    const __m256i lanes = _mm256_cmpgt_epi32(
        _mm256_set1_epi32(static_cast<int>(cols - j0)), lane_index);
    kByRows[rows - 1](a, a_rs, a_ks, b + j0, ldb, k, c + j0, ldc, lanes);
  }
}

/// Store one tile row's 8 double lanes (lo = columns 0-3, hi = 4-7),
/// keeping only the first `cols`.
void store_row_avx2(double* c, __m256d lo, __m256d hi, std::int64_t cols) {
  if (cols >= 8) {
    _mm256_storeu_pd(c, lo);
    _mm256_storeu_pd(c + 4, hi);
    return;
  }
  alignas(32) double buf[8];
  _mm256_store_pd(buf, lo);
  _mm256_store_pd(buf + 4, hi);
  for (std::int64_t j = 0; j < cols; ++j) c[j] = buf[j];
}

/// The 4 x 16 tile as two 4 x 8 halves, eight ymm double accumulators
/// each (all sixteen would leave no registers for the operands).
void matmul_bt_tile_avx2(const float* a, std::int64_t lda, std::int64_t rows,
                         const float* panel, std::int64_t k, double* c,
                         std::int64_t ldc, std::int64_t cols) {
  // Rows past `rows` recompute row 0 and are never stored.
  const float* a0 = a;
  const float* a1 = a + (rows > 1 ? lda : 0);
  const float* a2 = a + (rows > 2 ? 2 * lda : 0);
  const float* a3 = a + (rows > 3 ? 3 * lda : 0);
  for (std::int64_t h = 0; h * 8 < cols; ++h) {
    __m256d lo0 = _mm256_setzero_pd(), lo1 = _mm256_setzero_pd();
    __m256d lo2 = _mm256_setzero_pd(), lo3 = _mm256_setzero_pd();
    __m256d hi0 = _mm256_setzero_pd(), hi1 = _mm256_setzero_pd();
    __m256d hi2 = _mm256_setzero_pd(), hi3 = _mm256_setzero_pd();
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float* p = panel + kk * kTileCols + h * 8;
      const __m256d plo = _mm256_cvtps_pd(_mm_loadu_ps(p));
      const __m256d phi = _mm256_cvtps_pd(_mm_loadu_ps(p + 4));
      const __m256d v0 = _mm256_set1_pd(static_cast<double>(a0[kk]));
      const __m256d v1 = _mm256_set1_pd(static_cast<double>(a1[kk]));
      const __m256d v2 = _mm256_set1_pd(static_cast<double>(a2[kk]));
      const __m256d v3 = _mm256_set1_pd(static_cast<double>(a3[kk]));
      lo0 = _mm256_add_pd(lo0, _mm256_mul_pd(v0, plo));
      hi0 = _mm256_add_pd(hi0, _mm256_mul_pd(v0, phi));
      lo1 = _mm256_add_pd(lo1, _mm256_mul_pd(v1, plo));
      hi1 = _mm256_add_pd(hi1, _mm256_mul_pd(v1, phi));
      lo2 = _mm256_add_pd(lo2, _mm256_mul_pd(v2, plo));
      hi2 = _mm256_add_pd(hi2, _mm256_mul_pd(v2, phi));
      lo3 = _mm256_add_pd(lo3, _mm256_mul_pd(v3, plo));
      hi3 = _mm256_add_pd(hi3, _mm256_mul_pd(v3, phi));
    }
    const __m256d lo[4] = {lo0, lo1, lo2, lo3};
    const __m256d hi[4] = {hi0, hi1, hi2, hi3};
    for (std::int64_t r = 0; r < rows; ++r) {
      store_row_avx2(c + r * ldc + h * 8, lo[r], hi[r], cols - h * 8);
    }
  }
}

/// Four elements per step, one per 64-bit lane: decode each float into
/// (k, lo, hi), then visit each plane some nonzero lane touches once —
/// two planes when the four floats share a digit, as aggregated updates
/// of one magnitude do — adding lo where k == j and hi where k == j - 1.
/// k = shift / 48 is (shift * 1366) >> 16, exact for shift <= 253; 48k is
/// (k << 5) + (k << 4) (AVX2 has no 64-bit multiply); negation is
/// (v ^ s) - s with s the all-ones sign mask. The tail step decodes a
/// zero-padded copy of the floats and masks its plane loads and stores.
void exact_sum_add_avx2(std::int64_t* planes, std::int64_t stride,
                        const float* x, std::int64_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i three = _mm256_set1_epi64x(3);
  const __m256i exp_mask = _mm256_set1_epi64x(0xFF);
  const __m256i man_mask = _mm256_set1_epi64x(0x7FFFFF);
  const __m256i implicit = _mm256_set1_epi64x(0x800000);
  const __m256i digit_mask =
      _mm256_set1_epi64x((1LL << kExactSumDigitBits) - 1);
  const __m256i radix = _mm256_set1_epi64x(kExactSumDigitBits);
  const __m256i recip = _mm256_set1_epi64x(1366);
  const __m256i lane_index = _mm256_setr_epi64x(0, 1, 2, 3);
  for (std::int64_t e = 0; e < n; e += 4) {
    const std::int64_t rem = n - e;
    const float* src = x + e;
    float tail[4] = {};
    if (rem < 4) {
      for (std::int64_t i = 0; i < rem; ++i) tail[i] = x[e + i];
      src = tail;
    }
    const __m256i bits = _mm256_cvtepu32_epi64(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src)));
    const __m256i exp =
        _mm256_and_si256(_mm256_srli_epi64(bits, 23), exp_mask);
    const __m256i normal = _mm256_cmpgt_epi64(exp, zero);
    const __m256i m = _mm256_or_si256(_mm256_and_si256(bits, man_mask),
                                      _mm256_and_si256(normal, implicit));
    const __m256i shift = _mm256_sub_epi64(exp, _mm256_and_si256(normal, one));
    const __m256i k =
        _mm256_srli_epi64(_mm256_mul_epu32(shift, recip), 16);
    const __m256i off = _mm256_sub_epi64(
        shift, _mm256_add_epi64(_mm256_slli_epi64(k, 5),
                                _mm256_slli_epi64(k, 4)));
    const __m256i lo =
        _mm256_and_si256(_mm256_sllv_epi64(m, off), digit_mask);
    const __m256i hi =
        _mm256_srlv_epi64(m, _mm256_sub_epi64(radix, off));
    const __m256i neg = _mm256_cmpgt_epi64(zero, _mm256_slli_epi64(bits, 32));
    const __m256i slo = _mm256_sub_epi64(_mm256_xor_si256(lo, neg), neg);
    const __m256i shi = _mm256_sub_epi64(_mm256_xor_si256(hi, neg), neg);
    // Planes k and k + 1 of every lane with m != 0, OR-reduced.
    const __m256i lane_planes = _mm256_andnot_si256(
        _mm256_cmpeq_epi64(m, zero), _mm256_sllv_epi64(three, k));
    const __m128i half =
        _mm_or_si128(_mm256_castsi256_si128(lane_planes),
                     _mm256_extracti128_si256(lane_planes, 1));
    auto touched = static_cast<unsigned>(
        _mm_cvtsi128_si64(_mm_or_si128(half, _mm_unpackhi_epi64(half, half))));
    for (touched &= (1U << kExactSumDigits) - 1U; touched != 0;
         touched &= touched - 1) {
      const std::int64_t j = std::countr_zero(touched);
      const __m256i delta = _mm256_add_epi64(
          _mm256_and_si256(_mm256_cmpeq_epi64(k, _mm256_set1_epi64x(j)), slo),
          _mm256_and_si256(_mm256_cmpeq_epi64(k, _mm256_set1_epi64x(j - 1)),
                           shi));
      std::int64_t* p = planes + j * stride + e;
      if (rem >= 4) {
        auto* v = reinterpret_cast<__m256i*>(p);
        _mm256_storeu_si256(v, _mm256_add_epi64(_mm256_loadu_si256(v), delta));
      } else {
        auto* q = reinterpret_cast<long long*>(p);
        const __m256i lanes =
            _mm256_cmpgt_epi64(_mm256_set1_epi64x(rem), lane_index);
        _mm256_maskstore_epi64(
            q, lanes,
            _mm256_add_epi64(_mm256_maskload_epi64(q, lanes), delta));
      }
    }
  }
}

void pack_signs_avx2(const float* src, std::uint64_t* dst,
                     std::int64_t nbits) {
  // _CMP_GE_OQ matches the scalar `v >= 0.0f`: true for +0/-0, false for
  // NaN — so NaN packs as a 0 bit (-1 on unpack) in every tier.
  const __m256 zero = _mm256_setzero_ps();
  const std::int64_t full_words = nbits / 64;
  for (std::int64_t w = 0; w < full_words; ++w) {
    std::uint64_t word = 0;
    for (int g = 0; g < 8; ++g) {
      const __m256 v = _mm256_loadu_ps(src + w * 64 + g * 8);
      const unsigned m = static_cast<unsigned>(
          _mm256_movemask_ps(_mm256_cmp_ps(v, zero, _CMP_GE_OQ)));
      word |= static_cast<std::uint64_t>(m) << (g * 8);
    }
    dst[w] = word;
  }
  const std::int64_t rem = nbits - full_words * 64;
  if (rem > 0) {
    std::uint64_t word = 0;
    for (std::int64_t i = 0; i < rem; ++i) {
      if (src[full_words * 64 + i] >= 0.0F) word |= (1ULL << i);
    }
    dst[full_words] = word;
  }
}

void unpack_signs_avx2(const std::uint64_t* src, float* dst,
                       std::int64_t nbits) {
  const __m256i bit_select =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  const __m256 pos = _mm256_set1_ps(1.0F);
  const __m256 neg = _mm256_set1_ps(-1.0F);
  std::int64_t i = 0;
  for (; i + 8 <= nbits; i += 8) {
    const unsigned byte =
        static_cast<unsigned>((src[i / 64] >> (i % 64)) & 0xFFULL);
    const __m256i v = _mm256_set1_epi32(static_cast<int>(byte));
    const __m256i hit = _mm256_cmpeq_epi32(
        _mm256_and_si256(v, bit_select), bit_select);
    _mm256_storeu_ps(dst + i,
                     _mm256_blendv_ps(neg, pos, _mm256_castsi256_ps(hit)));
  }
  for (; i < nbits; ++i) {
    dst[i] = (src[i / 64] >> (i % 64)) & 1ULL ? 1.0F : -1.0F;
  }
}

void xor_words_avx2(const std::uint64_t* a, const std::uint64_t* b,
                    std::uint64_t* out, std::int64_t nwords) {
  std::int64_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + w),
                        _mm256_xor_si256(va, vb));
  }
  for (; w < nwords; ++w) out[w] = a[w] ^ b[w];
}

/// Muła nibble-LUT popcount of one 256-bit lane, returned as 4 partial
/// 64-bit sums (one per 64-bit element).
__m256i popcount256(__m256i v) {
  const __m256i lut = _mm256_setr_epi8(
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,  //
      0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
  const __m256i low_mask = _mm256_set1_epi8(0x0F);
  const __m256i lo = _mm256_and_si256(v, low_mask);
  const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
  const __m256i cnt = _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                                      _mm256_shuffle_epi8(lut, hi));
  return _mm256_sad_epu8(cnt, _mm256_setzero_si256());
}

std::uint64_t horizontal_sum_epi64(__m256i acc) {
  const __m128i lo = _mm256_castsi256_si128(acc);
  const __m128i hi = _mm256_extracti128_si256(acc, 1);
  const __m128i s = _mm_add_epi64(lo, hi);
  return static_cast<std::uint64_t>(_mm_extract_epi64(s, 0)) +
         static_cast<std::uint64_t>(_mm_extract_epi64(s, 1));
}

std::uint64_t popcount_words_avx2(const std::uint64_t* a,
                                  std::int64_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    acc = _mm256_add_epi64(acc, popcount256(v));
  }
  std::uint64_t total = horizontal_sum_epi64(acc);
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w]));
  }
  return total;
}

std::uint64_t hamming_words_avx2(const std::uint64_t* a,
                                 const std::uint64_t* b, std::int64_t nwords) {
  __m256i acc = _mm256_setzero_si256();
  std::int64_t w = 0;
  for (; w + 4 <= nwords; w += 4) {
    const __m256i va =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
    const __m256i vb =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
    acc = _mm256_add_epi64(acc, popcount256(_mm256_xor_si256(va, vb)));
  }
  std::uint64_t total = horizontal_sum_epi64(acc);
  for (; w < nwords; ++w) {
    total += static_cast<std::uint64_t>(std::popcount(a[w] ^ b[w]));
  }
  return total;
}

constexpr Kernels kAvx2 = {
    axpy_avx2,           scale_avx2,          add_avx2,
    sub_avx2,            mul_avx2,            relu_avx2,
    relu_backward_avx2,  matmul_tile_avx2,    matmul_bt_tile_avx2,
    exact_sum_add_avx2,  pack_signs_avx2,     unpack_signs_avx2,
    xor_words_avx2,      popcount_words_avx2, hamming_words_avx2,
};

}  // namespace

const Kernels* avx2_table() { return &kAvx2; }

}  // namespace fhdnn::simd::detail

#else  // !__AVX2__

namespace fhdnn::simd::detail {

const Kernels* avx2_table() { return nullptr; }

}  // namespace fhdnn::simd::detail

#endif
