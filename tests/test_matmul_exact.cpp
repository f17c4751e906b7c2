// Bit-exactness of the dense products against the loops they replaced.
//
// ops::matmul_bt_into (and linear_forward_into on top of it): the oracle
// is a verbatim copy of the former triple loop, one double accumulator per
// output, starting at +0.0 and adding double(a[i][kk]) * b[j][kk] for
// kk = 0..k-1 in order. The production kernel packs 16-column panels, runs
// a 4 x 16 register tile per SIMD tier and splits a 2-D task grid across
// the thread pool.
//
// ops::matmul_into and ops::matmul_at_into: the oracles are verbatim
// copies of the former axpy ladders, a zero-filled c and then
// c[i][j] += a(i, kk) * b[kk][j] in float for kk ascending. The production
// kernel runs an up-to-8 x 16 float register tile per SIMD tier over a
// (row block x column block) task grid.
//
// None of that may change a single bit. Every comparison is on the float
// bit pattern, under every tier the CPU supports and at 1 and 4 threads,
// so NaN payloads and signed zeros count too.
//
// The inputs carry NaN, +-Inf, -0.0 rows, denormals, and a +-2^60 pair that
// cancels exactly only when kk is walked in ascending order (a reversed or
// reassociated lane absorbs the small middle terms into 2^60 first).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "tensor/ops.hpp"
#include "tensor/view.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fhdnn {
namespace {

// ---- oracle: the original matmul_bt_into body, run serially -------------

void oracle_matmul_bt(const float* pa, const float* pb, float* pc,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* brow = pb + j * k;
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(arow[kk]) * brow[kk];
      }
      crow[j] = static_cast<float>(acc);
    }
  }
}

// The former matmul_into: zero fill, then matmul_accumulate's ikj axpy
// ladder (y[j] += a * x[j]), run serially.
void oracle_matmul(const float* pa, const float* pb, float* pc,
                   std::int64_t m, std::int64_t k, std::int64_t n) {
  std::fill(pc, pc + m * n, 0.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    const float* arow = pa + i * k;
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// The former matmul_at_into body: a is (k x m), i outer, kk ascending.
void oracle_matmul_at(const float* pa, const float* pb, float* pc,
                      std::int64_t k, std::int64_t m, std::int64_t n) {
  std::fill(pc, pc + m * n, 0.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    float* crow = pc + i * n;
    for (std::int64_t kk = 0; kk < k; ++kk) {
      const float av = pa[kk * m + i];
      const float* brow = pb + kk * n;
      for (std::int64_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

// The rest of the former linear_forward_into: row += 1.0f * bias.
void oracle_add_bias(const float* pbias, float* py, std::int64_t m,
                     std::int64_t n) {
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) py[i * n + j] += 1.0F * pbias[j];
  }
}

// ---- inputs ---------------------------------------------------------------

constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
const float kBig = std::ldexp(1.0F, 60);

/// Rows of `a` by i % 5: the +2^60, -2^60 pair at kk = 0, 1 (so every
/// tile row position meets it); one NaN; +Inf and -Inf; all -0.0 (the
/// products sum to +0.0 only from a +0.0 start); denormals.
std::vector<float> make_a(std::int64_t m, std::int64_t k, Rng& rng) {
  std::vector<float> a(static_cast<std::size_t>(m * k));
  rng.fill_normal(a, 0.0F, 1.0F);
  for (std::int64_t i = 0; i < m; ++i) {
    float* row = a.data() + i * k;
    switch (i % 5) {
      case 0:
        if (k >= 2) {
          row[0] = kBig;
          row[1] = -kBig;
        }
        break;
      case 1:
        row[k / 2] = kNaN;
        break;
      case 2:
        row[0] = kInf;
        row[k - 1] = -kInf;
        break;
      case 3:
        for (std::int64_t kk = 0; kk < k; ++kk) row[kk] = -0.0F;
        break;
      default:
        for (std::int64_t kk = 0; kk < k; ++kk) {
          row[kk] = kDenorm * static_cast<float>(kk % 7 + 1) *
                    (kk % 2 == 0 ? 1.0F : -1.0F);
        }
        break;
    }
  }
  return a;
}

/// Rows of `b` by j % 4: plain; -0.0 and +Inf entries; denormals; one NaN.
/// Every row repeats its kk = 0 entry at kk = 1, so the 2^60 pair in `a`
/// cancels exactly in ascending order.
std::vector<float> make_b(std::int64_t n, std::int64_t k, Rng& rng) {
  std::vector<float> b(static_cast<std::size_t>(n * k));
  rng.fill_normal(b, 0.0F, 1.0F);
  for (std::int64_t j = 0; j < n; ++j) {
    float* row = b.data() + j * k;
    switch (j % 4) {
      case 1:
        row[k - 1] = -0.0F;
        if (k > 2) row[2] = kInf;
        break;
      case 2:
        for (std::int64_t kk = 2; kk < k; kk += 3) row[kk] = -kDenorm;
        break;
      case 3:
        row[(k - 1) / 2] = kNaN;
        break;
      default:
        break;
    }
    if (k >= 2) row[1] = row[0];
  }
  return b;
}

/// Row-major transpose of a rows x cols matrix.
std::vector<float> transposed(const std::vector<float>& x, std::int64_t rows,
                              std::int64_t cols) {
  std::vector<float> t(x.size());
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      t[static_cast<std::size_t>(c * rows + r)] =
          x[static_cast<std::size_t>(r * cols + c)];
    }
  }
  return t;
}

/// Tiers this CPU can run, scalar first.
std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> out{util::SimdTier::Scalar};
  for (const auto t : {util::SimdTier::Neon, util::SimdTier::Avx2,
                       util::SimdTier::Avx512}) {
    if (util::set_simd_tier(t) == t) out.push_back(t);
  }
  util::set_simd_tier(util::detected_simd());
  return out;
}

/// Sentinel written past the output: the kernel must never store there.
constexpr float kGuard = 12345.0F;
constexpr std::int64_t kGuardLen = 32;

/// First index where the float bit patterns differ, or -1.
std::int64_t first_mismatch(const std::vector<float>& got,
                            const std::vector<float>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

using Dims = std::tuple<std::int64_t, std::int64_t, std::int64_t>;

class MatmulExact : public ::testing::TestWithParam<Dims> {
 protected:
  void SetUp() override {
    std::tie(m_, n_, k_) = GetParam();
    Rng rng(static_cast<std::uint64_t>(m_ * 1000003 + n_ * 101 + k_));
    a_ = make_a(m_, k_, rng);
    b_ = make_b(n_, k_, rng);
    bias_.resize(static_cast<std::size_t>(n_));
    rng.fill_normal(bias_, 0.0F, 1.0F);
    saved_threads_ = parallel::num_threads();
  }
  void TearDown() override {
    parallel::set_num_threads(saved_threads_);
    util::set_simd_tier(util::detected_simd());
  }

  /// Run `op(out_view)` under every tier at 1 and 4 threads; each result
  /// must match `want` bit for bit and leave the guard untouched.
  template <typename Op>
  void expect_exact(const std::vector<float>& want, Op op) {
    for (const auto tier : available_tiers()) {
      ASSERT_EQ(util::set_simd_tier(tier), tier);
      for (const int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        std::vector<float> got(want.size() + kGuardLen, kGuard);
        op(TensorView(got.data(), {m_, n_}));
        const std::vector<float> guard(
            got.begin() + static_cast<std::ptrdiff_t>(want.size()), got.end());
        got.resize(want.size());
        const std::int64_t at = first_mismatch(got, want);
        EXPECT_EQ(at, -1)
            << "tier " << util::simd_tier_name(tier) << ", threads "
            << threads << ": element (" << at / n_ << ", " << at % n_
            << ") got " << got[static_cast<std::size_t>(at)] << " want "
            << want[static_cast<std::size_t>(at)];
        EXPECT_EQ(guard, std::vector<float>(kGuardLen, kGuard))
            << "store past the output under tier "
            << util::simd_tier_name(tier);
      }
    }
  }

  ConstTensorView a_view() const { return {a_.data(), {m_, k_}}; }
  ConstTensorView b_view() const { return {b_.data(), {n_, k_}}; }

  std::int64_t m_ = 0, n_ = 0, k_ = 0;
  std::vector<float> a_, b_, bias_;
  int saved_threads_ = 1;
};

TEST_P(MatmulExact, MatmulBtAndLinearForward) {
  std::vector<float> want(static_cast<std::size_t>(m_ * n_));
  oracle_matmul_bt(a_.data(), b_.data(), want.data(), m_, k_, n_);
  expect_exact(want, [&](TensorView out) {
    ops::matmul_bt_into(a_view(), b_view(), out);
  });
  oracle_add_bias(bias_.data(), want.data(), m_, n_);
  expect_exact(want, [&](TensorView out) {
    ops::linear_forward_into(a_view(), b_view(),
                             ConstTensorView(bias_.data(), {n_}), out);
  });
}

std::string dims_name(const ::testing::TestParamInfo<Dims>& info) {
  return "m" + std::to_string(std::get<0>(info.param)) + "_n" +
         std::to_string(std::get<1>(info.param)) + "_k" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatmulExact,
    ::testing::Combine(::testing::Values(1, 3, 4, 5, 63, 64, 65, 200),
                       ::testing::Values(1, 10, 15, 16, 17, 33, 10000),
                       ::testing::Values(1, 7, 512)),
    dims_name);

// matmul and matmul_at on the same special values: b^T of the matmul_bt
// inputs is the (k x n) right factor, so each b column repeats its kk = 0
// entry at kk = 1 and the +-2^60 pair in `a` cancels exactly only in
// ascending kk; a^T is matmul_at's (k x m) left factor.
class GemmExact : public MatmulExact {};

TEST_P(GemmExact, MatmulAndMatmulAt) {
  const std::vector<float> b_kn = transposed(b_, n_, k_);
  const ConstTensorView b_view(b_kn.data(), {k_, n_});
  std::vector<float> want(static_cast<std::size_t>(m_ * n_));
  oracle_matmul(a_.data(), b_kn.data(), want.data(), m_, k_, n_);
  expect_exact(want, [&](TensorView out) {
    ops::matmul_into(a_view(), b_view, out);
  });
  const std::vector<float> a_km = transposed(a_, m_, k_);
  std::vector<float> want_at(static_cast<std::size_t>(m_ * n_));
  oracle_matmul_at(a_km.data(), b_kn.data(), want_at.data(), k_, m_, n_);
  EXPECT_EQ(first_mismatch(want_at, want), -1);
  expect_exact(want_at, [&](TensorView out) {
    ops::matmul_at_into(ConstTensorView(a_km.data(), {k_, m_}), b_view, out);
  });
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GemmExact,
    ::testing::Combine(
        ::testing::Values(1, 3, 4, 5, 15, 16, 17, 31, 32, 33),
        ::testing::Values(1, 3, 4, 5, 15, 16, 17, 31, 32, 33),
        ::testing::Values(1, 2, 9, 70)),
    dims_name);

// The CNN-2 training step's products (B = 10, 28 x 28): conv1 grad-cols
// and grad-weight (7840 x 16 x 9), conv2 (1960 x 32 x 144) and the
// fc layer's grad-input and grad-weight (10 x 128 x 1568). As (m, n, k),
// matmul runs rows x oc x ckk as (rows, ckk, oc) and matmul_at as
// (oc, ckk, rows).
INSTANTIATE_TEST_SUITE_P(
    Cnn2, GemmExact,
    ::testing::Values(Dims{7840, 9, 16}, Dims{16, 9, 7840},
                      Dims{1960, 144, 32}, Dims{32, 144, 1960},
                      Dims{10, 1568, 128}, Dims{128, 1568, 10}),
    dims_name);

constexpr std::int64_t kLdc = simd::kGemmCols + 3;

/// c holds a tile written at row stride ldc: +0.0 in the live rows x cols,
/// the guard everywhere else. T is float (matmul_tile) or double (the
/// matmul_bt_tile lanes).
template <typename T>
void expect_zero_tile(const std::vector<T>& c, std::int64_t rows,
                      std::int64_t cols, std::int64_t ldc,
                      util::SimdTier tier) {
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  const auto total = static_cast<std::int64_t>(c.size());
  for (std::int64_t at = 0; at < total; ++at) {
    const std::int64_t r = at / ldc, j = at % ldc;
    const T want = r < rows && j < cols ? T{0} : T{kGuard};
    ASSERT_EQ(std::bit_cast<Bits>(c[static_cast<std::size_t>(at)]),
              std::bit_cast<Bits>(want))
        << util::simd_tier_name(tier) << " rows " << rows << " cols " << cols
        << " at (" << r << ", " << j << ")";
  }
}

// k = 0 cannot reach matmul_bt_into, matmul_into or matmul_at_into (views
// and tensors reject zero dims), so the empty sum is pinned on the tile
// kernels themselves: every tier writes +0.0, the oracles' starting value,
// and stores nothing past rows x cols.
TEST(MatmulExactTile, EmptySumIsPositiveZeroUnderEveryTier) {
  EXPECT_THROW(ConstTensorView(nullptr, {3, 0}), Error);
  const float panel[simd::kTileCols] = {};
  const float a[1] = {kNaN};
  for (const auto tier : available_tiers()) {
    const auto tile = simd::kernels_for(tier).matmul_bt_tile;
    for (std::int64_t rows = 1; rows <= simd::kTileRows; ++rows) {
      for (std::int64_t cols = 1; cols <= simd::kTileCols; ++cols) {
        constexpr std::int64_t ldc = simd::kTileCols + 3;
        std::vector<double> c(static_cast<std::size_t>(simd::kTileRows * ldc),
                              kGuard);
        tile(a, 0, rows, panel, 0, c.data(), ldc, cols);
        expect_zero_tile(c, rows, cols, ldc, tier);
      }
    }
    const auto gemm = simd::kernels_for(tier).matmul_tile;
    for (std::int64_t rows = 1; rows <= simd::kGemmRows; ++rows) {
      for (std::int64_t cols = 1; cols <= simd::kGemmCols; ++cols) {
        std::vector<float> c(static_cast<std::size_t>(simd::kGemmRows * kLdc),
                             kGuard);
        gemm(a, 1, 1, rows, panel, 0, 0, c.data(), kLdc, cols);
        expect_zero_tile(c, rows, cols, kLdc, tier);
      }
    }
  }
}

// The special rows really exercise what they claim: NaN and Inf reach the
// output, the -0.0 row sums to +0.0, and the 2^60 pair leaves the small
// middle terms instead of a multiple of ulp(2^60).
TEST(MatmulExactInputs, SpecialRowsReachTheOutput) {
  const std::int64_t m = 5, n = 4, k = 7;
  Rng rng(7);
  const std::vector<float> a = make_a(m, k, rng);
  const std::vector<float> b = make_b(n, k, rng);
  std::vector<float> c(static_cast<std::size_t>(m * n));
  ops::matmul_bt_into(ConstTensorView(a.data(), {m, k}),
                      ConstTensorView(b.data(), {n, k}),
                      TensorView(c.data(), {m, n}));
  auto at = [&](std::int64_t i, std::int64_t j) {
    return c[static_cast<std::size_t>(i * n + j)];
  };
  EXPECT_TRUE(std::isnan(at(1, 0)));                          // NaN row
  EXPECT_TRUE(std::isnan(at(2, 0)) || std::isinf(at(2, 0)));  // Inf row
  EXPECT_TRUE(std::isnan(at(3, 1)));                          // -0.0 x Inf
  EXPECT_EQ(std::bit_cast<std::uint32_t>(at(3, 0)), 0U);      // +0.0
  double middle = 0.0;
  for (std::int64_t kk = 2; kk < k; ++kk) {
    middle += static_cast<double>(a[static_cast<std::size_t>(kk)]) *
              b[static_cast<std::size_t>(kk)];
  }
  EXPECT_EQ(at(0, 0), static_cast<float>(middle));
  EXPECT_NE(at(0, 0), 0.0F);
}

}  // namespace
}  // namespace fhdnn
