// Bit-exactness of the CNN training step's elementwise and unfold kernels
// against the loops they replaced.
//
// ops::relu_into / relu_backward_into dispatch a compare-and-blend kernel
// per SIMD tier. The oracles are the former scalar loops,
// std::max(x, 0.0f) and x <= 0 ? 0 : g; the inputs carry NaNs (with
// payloads and both signs), +-Inf, +-0.0, denormals and the float extremes,
// where a vector max instruction would differ. Every tier runs at 1 and 4
// threads, out of place with a guard region past the output, and in place.
//
// ops::im2col_into / col2im_into compute the valid (ky, kx) window once
// per patch instead of testing bounds per element. The oracles are the
// former bounds-checked loops; col2im must keep every input element's
// additions in ascending (oy, ox) order, which the magnitude-spread inputs
// make visible in the rounding.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "tensor/view.hpp"
#include "util/cpu.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

// ---- oracles: the former loop bodies, run serially -----------------------

void oracle_relu(const float* px, float* po, std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) po[i] = std::max(px[i], 0.0F);
}

void oracle_relu_backward(const float* pg, const float* px, float* po,
                          std::int64_t n) {
  for (std::int64_t i = 0; i < n; ++i) po[i] = px[i] <= 0.0F ? 0.0F : pg[i];
}

void oracle_im2col(const float* px, const ops::Conv2dSpec& spec,
                   std::int64_t n, std::int64_t h, std::int64_t w,
                   float* pc) {
  const std::int64_t c = spec.in_channels, k = spec.kernel;
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  const std::int64_t row_len = c * k * k;
  for (std::int64_t r = 0; r < n * oh * ow; ++r) {
    const std::int64_t in = r / (oh * ow);
    const std::int64_t oy = (r / ow) % oh;
    const std::int64_t ox = r % ow;
    float* row = pc + r * row_len;
    std::int64_t col_idx = 0;
    for (std::int64_t ic = 0; ic < c; ++ic) {
      const float* chan = px + (in * c + ic) * h * w;
      for (std::int64_t ky = 0; ky < k; ++ky) {
        const std::int64_t iy = oy * spec.stride + ky - spec.padding;
        for (std::int64_t kx = 0; kx < k; ++kx) {
          const std::int64_t ix = ox * spec.stride + kx - spec.padding;
          row[col_idx++] = (iy >= 0 && iy < h && ix >= 0 && ix < w)
                               ? chan[iy * w + ix]
                               : 0.0F;
        }
      }
    }
  }
}

void oracle_col2im(const float* pc, const ops::Conv2dSpec& spec,
                   std::int64_t n, std::int64_t h, std::int64_t w,
                   float* px) {
  const std::int64_t c = spec.in_channels, k = spec.kernel;
  const std::int64_t oh = spec.out_size(h), ow = spec.out_size(w);
  const std::int64_t row_len = c * k * k;
  std::fill(px, px + n * c * h * w, 0.0F);
  for (std::int64_t in = 0; in < n; ++in) {
    for (std::int64_t oy = 0; oy < oh; ++oy) {
      for (std::int64_t ox = 0; ox < ow; ++ox) {
        const float* row = pc + ((in * oh + oy) * ow + ox) * row_len;
        std::int64_t col_idx = 0;
        for (std::int64_t ic = 0; ic < c; ++ic) {
          float* chan = px + (in * c + ic) * h * w;
          for (std::int64_t ky = 0; ky < k; ++ky) {
            const std::int64_t iy = oy * spec.stride + ky - spec.padding;
            for (std::int64_t kx = 0; kx < k; ++kx) {
              const std::int64_t ix = ox * spec.stride + kx - spec.padding;
              if (iy >= 0 && iy < h && ix >= 0 && ix < w) {
                chan[iy * w + ix] += row[col_idx];
              }
              ++col_idx;
            }
          }
        }
      }
    }
  }
}

// ---- helpers ----------------------------------------------------------------

constexpr float kGuard = 12345.0F;
constexpr std::int64_t kGuardLen = 32;

/// First index where the float bit patterns differ, or -1.
std::int64_t first_mismatch(const float* got, const std::vector<float>& want) {
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::bit_cast<std::uint32_t>(got[i]) !=
        std::bit_cast<std::uint32_t>(want[i])) {
      return static_cast<std::int64_t>(i);
    }
  }
  return -1;
}

/// True when the kGuardLen floats past the first `n` still hold the guard.
bool guard_intact(const std::vector<float>& got, std::int64_t n) {
  return std::all_of(got.begin() + n, got.end(),
                     [](float v) { return v == kGuard; });
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

/// Restores the pool width and the SIMD tier on scope exit.
class EnvGuard {
 public:
  EnvGuard() : threads_(parallel::num_threads()) {}
  ~EnvGuard() {
    parallel::set_num_threads(threads_);
    util::set_simd_tier(util::detected_simd());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  int threads_;
};

/// `n` floats cycling through the special values (so every SIMD block and
/// tail position meets each of them), interleaved with random normals.
std::vector<float> special_values(std::int64_t n, std::uint64_t seed) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const float fmin = std::numeric_limits<float>::min();
  const float fmax = std::numeric_limits<float>::max();
  const float specials[] = {
      nan,
      -nan,
      std::bit_cast<float>(0x7FC01234U),  // quiet NaN with a payload
      std::bit_cast<float>(0xFFC0ABCDU),  // negative quiet NaN, payload
      inf,
      -inf,
      0.0F,
      -0.0F,
      denorm,
      -denorm,
      std::bit_cast<float>(0x007FFFFFU),  // largest denormal
      std::bit_cast<float>(0x807FFFFFU),
      fmin,
      -fmin,
      fmax,
      -fmax,
      1.0F,
      -1.0F,
  };
  constexpr std::int64_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::vector<float> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  rng.fill_normal(v, 0.0F, 1.0F);
  for (std::int64_t i = 0; i < n; i += 2) {
    v[static_cast<std::size_t>(i)] = specials[(i / 2) % kSpecials];
  }
  return v;
}

// ---- relu -------------------------------------------------------------------

// Lengths around every tier's vector width (scalar tails, masked tails),
// plus one long enough to split into several chunks at 4 threads.
const std::int64_t kReluLengths[] = {1, 2, 7, 8, 9, 15, 16, 17, 31, 33, 36,
                                     67, 100003};

TEST(ReluExact, ForwardMatchesStdMaxUnderEveryTier) {
  const EnvGuard env;
  for (const std::int64_t n : kReluLengths) {
    const std::vector<float> x = special_values(n, 11 + n);
    std::vector<float> want(x.size());
    oracle_relu(x.data(), want.data(), n);
    for (const auto tier : available_tiers()) {
      ASSERT_EQ(util::set_simd_tier(tier), tier);
      for (const int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        const std::string where = std::string(util::simd_tier_name(tier)) +
                                  ", threads " + std::to_string(threads) +
                                  ", n " + std::to_string(n);
        std::vector<float> got(x.size() + kGuardLen, kGuard);
        ops::relu_into(ConstTensorView(x.data(), {n}),
                       TensorView(got.data(), {n}));
        EXPECT_EQ(first_mismatch(got.data(), want), -1) << where;
        EXPECT_TRUE(guard_intact(got, n)) << "store past the output, " << where;
        std::vector<float> in_place = x;
        ops::relu_into(ConstTensorView(in_place.data(), {n}),
                       TensorView(in_place.data(), {n}));
        EXPECT_EQ(first_mismatch(in_place.data(), want), -1)
            << "in place, " << where;
      }
    }
  }
}

TEST(ReluExact, BackwardMatchesTheMaskLoopUnderEveryTier) {
  const EnvGuard env;
  for (const std::int64_t n : kReluLengths) {
    const std::vector<float> x = special_values(n, 23 + n);
    // g gets the specials at the odd positions, so NaN g meets x > 0 too.
    std::vector<float> g = special_values(n + 1, 37 + n);
    g.erase(g.begin());
    std::vector<float> want(x.size());
    oracle_relu_backward(g.data(), x.data(), want.data(), n);
    for (const auto tier : available_tiers()) {
      ASSERT_EQ(util::set_simd_tier(tier), tier);
      for (const int threads : {1, 4}) {
        parallel::set_num_threads(threads);
        const std::string where = std::string(util::simd_tier_name(tier)) +
                                  ", threads " + std::to_string(threads) +
                                  ", n " + std::to_string(n);
        const ConstTensorView gv(g.data(), {n});
        const ConstTensorView xv(x.data(), {n});
        std::vector<float> got(x.size() + kGuardLen, kGuard);
        ops::relu_backward_into(gv, xv, TensorView(got.data(), {n}));
        EXPECT_EQ(first_mismatch(got.data(), want), -1) << where;
        EXPECT_TRUE(guard_intact(got, n)) << "store past the output, " << where;
        std::vector<float> over_g = g;
        ops::relu_backward_into(ConstTensorView(over_g.data(), {n}), xv,
                                TensorView(over_g.data(), {n}));
        EXPECT_EQ(first_mismatch(over_g.data(), want), -1)
            << "out == grad_out, " << where;
        std::vector<float> over_x = x;
        ops::relu_backward_into(gv, ConstTensorView(over_x.data(), {n}),
                                TensorView(over_x.data(), {n}));
        EXPECT_EQ(first_mismatch(over_x.data(), want), -1)
            << "out == x, " << where;
      }
    }
  }
}

// The special inputs hit the cases a vector max gets wrong.
TEST(ReluExact, NanAndNegativeZeroPassThrough) {
  const std::vector<float> x = {-0.0F, std::bit_cast<float>(0xFFC0ABCDU),
                                -1.0F, 0.0F};
  std::vector<float> y(x.size());
  ops::relu_into(ConstTensorView(x.data(), {4}), TensorView(y.data(), {4}));
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[0]), 0x80000000U);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[1]), 0xFFC0ABCDU);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[2]), 0U);
  EXPECT_EQ(std::bit_cast<std::uint32_t>(y[3]), 0U);
}

// ---- im2col / col2im -------------------------------------------------------

struct UnfoldCase {
  std::int64_t n, c, h, w;
  ops::Conv2dSpec spec;
};

std::string case_name(const UnfoldCase& u) {
  return "n" + std::to_string(u.n) + " c" + std::to_string(u.c) + " " +
         std::to_string(u.h) + "x" + std::to_string(u.w) + " k" +
         std::to_string(u.spec.kernel) + " s" + std::to_string(u.spec.stride) +
         " p" + std::to_string(u.spec.padding);
}

/// Every (c, kernel, stride, padding, size) combination whose output does
/// not collapse, plus the CNN-2 step's two convolutions (B = 10).
std::vector<UnfoldCase> unfold_cases() {
  std::vector<UnfoldCase> out;
  const std::int64_t sizes[][2] = {{1, 1}, {4, 4}, {5, 7}, {9, 6}};
  for (const std::int64_t c : {1, 3}) {
    for (const std::int64_t k : {1, 2, 3, 5}) {
      for (const std::int64_t stride : {1, 2, 3}) {
        for (const std::int64_t padding : {0, 1, 2}) {
          for (const auto& hw : sizes) {
            const ops::Conv2dSpec spec{c, 4, k, stride, padding};
            if (spec.out_size(hw[0]) <= 0 || spec.out_size(hw[1]) <= 0) {
              continue;
            }
            out.push_back({2, c, hw[0], hw[1], spec});
          }
        }
      }
    }
  }
  out.push_back({10, 1, 28, 28, ops::Conv2dSpec{1, 16, 3, 1, 1}});
  out.push_back({10, 16, 14, 14, ops::Conv2dSpec{16, 32, 3, 1, 1}});
  return out;
}

/// Random normals scaled by 2^e, e in [-20, 20]: summing overlapping
/// patches in a different order changes the rounding.
std::vector<float> spread_values(std::int64_t n, std::uint64_t seed) {
  std::vector<float> v(static_cast<std::size_t>(n));
  Rng rng(seed);
  rng.fill_normal(v, 0.0F, 1.0F);
  for (std::int64_t i = 0; i < n; ++i) {
    v[static_cast<std::size_t>(i)] =
        std::ldexp(v[static_cast<std::size_t>(i)],
                   static_cast<int>((i * 7919) % 41) - 20);
  }
  return v;
}

TEST(UnfoldExact, Im2colAndCol2imMatchTheBoundsCheckedLoops) {
  const EnvGuard env;
  const std::vector<UnfoldCase> cases = unfold_cases();
  ASSERT_GT(cases.size(), 200U);
  std::int64_t seed = 0;
  for (const UnfoldCase& u : cases) {
    const std::int64_t oh = u.spec.out_size(u.h), ow = u.spec.out_size(u.w);
    const std::int64_t rows = u.n * oh * ow;
    const std::int64_t row_len = u.c * u.spec.kernel * u.spec.kernel;
    const std::vector<float> x = spread_values(u.n * u.c * u.h * u.w, ++seed);
    const std::vector<float> cols = spread_values(rows * row_len, ++seed);
    std::vector<float> want_cols(cols.size());
    oracle_im2col(x.data(), u.spec, u.n, u.h, u.w, want_cols.data());
    std::vector<float> want_x(x.size());
    oracle_col2im(cols.data(), u.spec, u.n, u.h, u.w, want_x.data());
    for (const int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      const std::string where =
          case_name(u) + ", threads " + std::to_string(threads);
      std::vector<float> got_cols(cols.size() + kGuardLen, kGuard);
      ops::im2col_into(ConstTensorView(x.data(), {u.n, u.c, u.h, u.w}),
                       u.spec, TensorView(got_cols.data(), {rows, row_len}));
      EXPECT_EQ(first_mismatch(got_cols.data(), want_cols), -1)
          << "im2col " << where;
      EXPECT_TRUE(guard_intact(got_cols, rows * row_len)) << "im2col " << where;
      std::vector<float> got_x(x.size() + kGuardLen, kGuard);
      ops::col2im_into(ConstTensorView(cols.data(), {rows, row_len}), u.spec,
                       u.n, u.h, u.w,
                       TensorView(got_x.data(), {u.n, u.c, u.h, u.w}));
      EXPECT_EQ(first_mismatch(got_x.data(), want_x), -1)
          << "col2im " << where;
      EXPECT_TRUE(guard_intact(got_x, u.n * u.c * u.h * u.w))
          << "col2im " << where;
    }
  }
}

}  // namespace
}  // namespace fhdnn
