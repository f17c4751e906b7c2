// util::ExactSumVector against the representation it replaced.
//
// The accumulator keeps carry-save radix-2^48 digit planes and propagates
// carries only when it normalizes (inside add and merges past the pending
// bound), in round_to() and in save(). Its contract is that
// none of that is visible: save() must write exactly the 384-bit
// two's-complement limbs of the former ripple-carry accumulator, and
// round_to() must give the same float bits. The oracle below is a verbatim
// copy of that former add/merge/round code. Every test runs under each
// SIMD tier the CPU supports, so every tier's exact_sum_add kernel meets
// it, and the kernels are also compared plane for plane with the scalar
// tier.
//
// Inputs are random finite bit patterns (subnormals, FLT_MAX scale, mixed
// signs, totals crossing zero) so the high limbs are populated; the tests
// also cover more than kMaxPending adds without clear(), merges near the
// pending bound, the worst-case digit drift, save -> load -> continue, the
// checked range and the strong guarantee of add(span).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/exactsum.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/snapshot.hpp"

namespace fhdnn {
namespace {

using util::ExactSumVector;

// ---- oracle: the former 6-limb ripple-carry accumulator -------------------

constexpr std::size_t kLimbs = 6;

void add_shifted(std::uint64_t* limbs, std::size_t limb, std::uint64_t lo,
                 std::uint64_t hi) {
  unsigned long long carry = 0;
  std::uint64_t sum = limbs[limb] + lo;
  carry = sum < lo ? 1 : 0;
  limbs[limb] = sum;
  for (std::size_t i = limb + 1; i < kLimbs; ++i) {
    const std::uint64_t addend = (i == limb + 1) ? hi : 0;
    if (carry == 0 && addend == 0) break;
    sum = limbs[i] + addend + carry;
    carry = (sum < addend || (carry != 0 && sum == addend)) ? 1 : 0;
    limbs[i] = sum;
  }
}

void sub_shifted(std::uint64_t* limbs, std::size_t limb, std::uint64_t lo,
                 std::uint64_t hi) {
  unsigned long long borrow = 0;
  std::uint64_t diff = limbs[limb] - lo;
  borrow = limbs[limb] < lo ? 1 : 0;
  limbs[limb] = diff;
  for (std::size_t i = limb + 1; i < kLimbs; ++i) {
    const std::uint64_t sub = (i == limb + 1) ? hi : 0;
    if (borrow == 0 && sub == 0) break;
    const std::uint64_t before = limbs[i];
    diff = before - sub - borrow;
    borrow = (before < sub || (borrow != 0 && before == sub)) ? 1 : 0;
    limbs[i] = diff;
  }
}

struct Oracle {
  explicit Oracle(std::size_t n) : n(n), limbs(n * kLimbs, 0) {}

  void add(const std::vector<float>& values) {
    for (std::size_t e = 0; e < n; ++e) {
      const float x = values[e];
      const auto bits = std::bit_cast<std::uint32_t>(x);
      const std::uint32_t exp = (bits >> 23) & 0xFFU;
      const std::uint32_t man = bits & 0x7FFFFFU;
      std::uint64_t m = 0;
      std::size_t shift = 0;
      if (exp == 0) {
        m = man;
      } else {
        m = man | 0x800000U;
        shift = exp - 1;
      }
      if (m == 0) continue;
      const std::size_t limb = shift / 64;
      const std::size_t off = shift % 64;
      const std::uint64_t lo = m << off;
      const std::uint64_t hi = off == 0 ? 0 : (m >> (64 - off));
      std::uint64_t* elem = limbs.data() + e * kLimbs;
      if ((bits >> 31) == 0) {
        add_shifted(elem, limb, lo, hi);
      } else {
        sub_shifted(elem, limb, lo, hi);
      }
    }
  }

  void merge(const Oracle& other) {
    for (std::size_t e = 0; e < n; ++e) {
      std::uint64_t* a = limbs.data() + e * kLimbs;
      const std::uint64_t* b = other.limbs.data() + e * kLimbs;
      std::uint64_t carry = 0;
      for (std::size_t i = 0; i < kLimbs; ++i) {
        const std::uint64_t sum = a[i] + b[i] + carry;
        carry = (sum < b[i] || (carry != 0 && sum == b[i])) ? 1 : 0;
        a[i] = sum;
      }
    }
  }

  std::vector<float> round() const {
    std::vector<float> out(n);
    for (std::size_t e = 0; e < n; ++e) {
      const std::uint64_t* elem = limbs.data() + e * kLimbs;
      const bool negative = (elem[kLimbs - 1] >> 63) != 0;
      std::uint64_t mag[kLimbs];
      if (negative) {
        std::uint64_t carry = 1;
        for (std::size_t i = 0; i < kLimbs; ++i) {
          mag[i] = ~elem[i] + carry;
          carry = (carry != 0 && mag[i] == 0) ? 1 : 0;
        }
      } else {
        for (std::size_t i = 0; i < kLimbs; ++i) mag[i] = elem[i];
      }
      int msb = -1;
      for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
        if (mag[i] != 0) {
          msb = i * 64 + 63 - std::countl_zero(mag[i]);
          break;
        }
      }
      std::uint32_t bits = 0;
      if (msb < 0) {
        bits = 0;
      } else if (msb <= 23) {
        bits = static_cast<std::uint32_t>(mag[0]);
      } else {
        const int lo_bit = msb - 23;
        const int li = lo_bit / 64;
        const int off = lo_bit % 64;
        std::uint64_t window = mag[li] >> off;
        if (off != 0 && li + 1 < static_cast<int>(kLimbs)) {
          window |= mag[li + 1] << (64 - off);
        }
        std::uint32_t sig = static_cast<std::uint32_t>(window & 0xFFFFFFU);
        const int guard_bit = lo_bit - 1;
        const bool guard =
            ((mag[guard_bit / 64] >> (guard_bit % 64)) & 1ULL) != 0;
        bool sticky = false;
        const int gli = guard_bit / 64;
        const int goff = guard_bit % 64;
        if (goff > 0) sticky = (mag[gli] & ((1ULL << goff) - 1)) != 0;
        for (int i = 0; i < gli && !sticky; ++i) sticky = mag[i] != 0;
        int p = msb;
        if (guard && (sticky || (sig & 1U) != 0)) {
          ++sig;
          if (sig == (1U << 24)) {
            sig >>= 1;
            ++p;
          }
        }
        const int exp = p - 22;
        if (exp >= 255) {
          bits = 0x7F800000U;
        } else {
          bits = (static_cast<std::uint32_t>(exp) << 23) | (sig & 0x7FFFFFU);
        }
      }
      if (negative) bits |= 0x80000000U;
      out[e] = std::bit_cast<float>(bits);
    }
    return out;
  }

  std::size_t n;
  std::vector<std::uint64_t> limbs;
};

// ---- helpers --------------------------------------------------------------

std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> out{util::SimdTier::Scalar};
  for (const auto t : {util::SimdTier::Neon, util::SimdTier::Avx2,
                       util::SimdTier::Avx512}) {
    if (util::set_simd_tier(t) == t) out.push_back(t);
  }
  util::set_simd_tier(util::detected_simd());
  return out;
}

/// Runs `body` once per available tier with that tier active.
template <typename Body>
void for_each_tier(Body body) {
  for (const util::SimdTier tier : available_tiers()) {
    SCOPED_TRACE(std::string("tier=") +
                 std::string(util::simd_tier_name(tier)));
    ASSERT_EQ(util::set_simd_tier(tier), tier);
    body();
  }
  util::set_simd_tier(util::detected_simd());
}

/// A random finite float drawn across the whole encoding: +-0,
/// subnormals, values near 1, FLT_MAX scale and raw random patterns.
float random_finite(Rng& rng) {
  const auto r = static_cast<std::uint32_t>(rng.next_u64());
  const std::uint32_t sign = r & 0x80000000U;
  const std::uint32_t man = (r >> 1) & 0x7FFFFFU;
  std::uint32_t exp = 0;
  switch (rng.randint(0, 5)) {
    case 0:
      return std::bit_cast<float>(sign);  // +-0
    case 1:
      exp = 0;  // subnormal (or zero)
      break;
    case 2:
      exp = static_cast<std::uint32_t>(rng.randint(120, 134));
      break;
    case 3:
      exp = static_cast<std::uint32_t>(rng.randint(250, 254));
      break;
    default:
      exp = static_cast<std::uint32_t>(rng.randint(0, 254));
      break;
  }
  return std::bit_cast<float>(sign | (exp << 23) | man);
}

std::vector<float> random_row(Rng& rng, std::size_t n) {
  std::vector<float> v(n);
  for (auto& x : v) x = random_finite(rng);
  return v;
}

std::vector<float> negated(std::vector<float> v) {
  for (auto& x : v) x = -x;
  return v;
}

std::vector<std::uint8_t> save_bytes(const ExactSumVector& acc) {
  util::SnapshotWriter w;
  w.begin_chunk("EXSM");
  acc.save(w);
  w.end_chunk();
  return w.finish();
}

/// The limbs a save() wrote.
std::vector<std::uint64_t> saved_limbs(const ExactSumVector& acc) {
  auto r = util::SnapshotReader::from_bytes(save_bytes(acc));
  r.enter_chunk("EXSM");
  const std::uint64_t n = r.read_u64();
  std::vector<std::uint64_t> limbs = r.read_u64s();
  r.leave_chunk();
  EXPECT_EQ(n, acc.size());
  return limbs;
}

/// Loads an ExactSumVector from a hand-made limb image.
void load_limbs(ExactSumVector& acc, std::size_t n,
                const std::vector<std::uint64_t>& limbs) {
  util::SnapshotWriter w;
  w.begin_chunk("EXSM");
  w.write_u64(n);
  w.write_u64s(limbs);
  w.end_chunk();
  auto r = util::SnapshotReader::from_bytes(w.finish());
  r.enter_chunk("EXSM");
  acc.load(r);
  r.leave_chunk();
}

std::vector<std::uint32_t> to_bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> bits(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    bits[i] = std::bit_cast<std::uint32_t>(v[i]);
  }
  return bits;
}

std::vector<std::uint32_t> rounded_bits(const ExactSumVector& acc) {
  std::vector<float> out(acc.size());
  acc.round_to(out);
  return to_bits(out);
}

void expect_matches(const ExactSumVector& acc, const Oracle& o) {
  ASSERT_EQ(saved_limbs(acc), o.limbs);
  ASSERT_EQ(rounded_bits(acc), to_bits(o.round()));
}

std::uint64_t fnv1a(const std::vector<std::uint64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint64_t w : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (w >> (8 * b)) & 0xFFU;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

const std::vector<std::size_t> kSizes = {1, 7, 8, 9, 63, 1000, 1001};

// ---- the kernel itself ----------------------------------------------------

TEST(ExactSumKernel, EveryTierMatchesTheScalarOracle) {
  const simd::Kernels& scalar = simd::detail::scalar_table();
  for (const util::SimdTier tier : available_tiers()) {
    SCOPED_TRACE(std::string(util::simd_tier_name(tier)));
    const simd::Kernels& k = simd::kernels_for(tier);
    Rng rng(31);
    for (const std::size_t n : kSizes) {
      // Planes with a guard gap between them: the kernel must write
      // exactly n digits per plane.
      const auto stride = static_cast<std::int64_t>(n + 5);
      std::vector<std::int64_t> want(
          static_cast<std::size_t>(stride * simd::kExactSumDigits));
      for (auto& d : want) d = rng.randint(-(1LL << 50), 1LL << 50);
      std::vector<std::int64_t> got = want;
      for (int rep = 0; rep < 4; ++rep) {
        const std::vector<float> x = random_row(rng, n);
        scalar.exact_sum_add(want.data(), stride, x.data(),
                             static_cast<std::int64_t>(n));
        k.exact_sum_add(got.data(), stride, x.data(),
                        static_cast<std::int64_t>(n));
        ASSERT_EQ(got, want) << "n=" << n << " rep=" << rep;
      }
    }
  }
}

TEST(ExactSumKernel, SplitsAtTheDigitBoundary) {
  // Hand-decoded floats, one per element: each float's two parts land in
  // planes k and k + 1 (never past the top plane) with the float's sign.
  const float straddle =  // (2^24 - 1) * 2^40 quanta: crosses bit 48
      std::bit_cast<float>((41U << 23) | 0x7FFFFFU);
  const float straddle_high =  // the same at 2^(48*4 + 40)
      std::bit_cast<float>(0x80000000U | (233U << 23) | 0x7FFFFFU);
  const std::vector<float> x = {
      std::numeric_limits<float>::denorm_min(),
      -std::numeric_limits<float>::denorm_min(),
      std::ldexp(1.0F, 48 - 149),  // exactly 2^48 quanta
      straddle,
      straddle_high,
      std::numeric_limits<float>::max(),
      -0.0F,
  };
  const std::int64_t low = 0xFF0000000000;  // (2^24 - 1) << 40 mod 2^48
  const std::int64_t want[7][6] = {
      {1, 0, 0, 0, 0, 0},
      {-1, 0, 0, 0, 0, 0},
      {0, 1, 0, 0, 0, 0},
      {low, 0xFFFF, 0, 0, 0, 0},
      {0, 0, 0, 0, -low, -0xFFFF},
      {0, 0, 0, 0, 0, ((std::int64_t{1} << 24) - 1) << 13},
      {0, 0, 0, 0, 0, 0},
  };
  const auto n = static_cast<std::int64_t>(x.size());
  for (const util::SimdTier tier : available_tiers()) {
    SCOPED_TRACE(std::string(util::simd_tier_name(tier)));
    std::vector<std::int64_t> planes(
        static_cast<std::size_t>(n * simd::kExactSumDigits), 0);
    simd::kernels_for(tier).exact_sum_add(planes.data(), n, x.data(), n);
    for (std::int64_t e = 0; e < n; ++e) {
      for (std::int64_t j = 0; j < simd::kExactSumDigits; ++j) {
        EXPECT_EQ(planes[static_cast<std::size_t>(j * n + e)], want[e][j])
            << "element " << e << " plane " << j;
      }
    }
  }
}

// ---- canonical limbs and rounding against the oracle ----------------------

TEST(ExactSumVector, CanonicalLimbsMatchTheRippleCarryOracle) {
  for_each_tier([] {
    for (const std::size_t n : kSizes) {
      SCOPED_TRACE("n=" + std::to_string(n));
      Rng rng(1000 + n);
      ExactSumVector acc(n);
      Oracle oracle(n);
      std::vector<std::vector<float>> rows;
      for (int step = 0; step < 24; ++step) {
        rows.push_back(random_row(rng, n));
        acc.add(rows.back());
        oracle.add(rows.back());
      }
      expect_matches(acc, oracle);
      // Subtract most rows back: totals cross zero and the high limbs go
      // from all-zero to all-ones and back.
      for (std::size_t i = 0; i + 2 < rows.size(); ++i) {
        const std::vector<float> neg = negated(rows[i]);
        acc.add(neg);
        oracle.add(neg);
        if (i % 5 == 0) expect_matches(acc, oracle);
      }
      expect_matches(acc, oracle);
      // And the rest: an exact +0 everywhere.
      for (std::size_t i = rows.size() - 2; i < rows.size(); ++i) {
        acc.add(negated(rows[i]));
      }
      for (const std::uint64_t l : saved_limbs(acc)) ASSERT_EQ(l, 0U);
      for (const std::uint32_t b : rounded_bits(acc)) ASSERT_EQ(b, 0U);
    }
  });
}

TEST(ExactSumVector, MoreThanMaxPendingAddsWithoutClear) {
  for_each_tier([] {
    const std::size_t n = 9;
    Rng rng(77);
    ExactSumVector acc(n);
    Oracle oracle(n);
    const auto adds = ExactSumVector::kMaxPending + 37;
    for (std::uint64_t i = 0; i < adds; ++i) {
      const std::vector<float> row = random_row(rng, n);
      acc.add(row);
      oracle.add(row);
    }
    expect_matches(acc, oracle);
  });
}

TEST(ExactSumVector, WorstCaseDigitDriftStaysExact) {
  // (2^24 - 1) * 2^(48k + 24) puts 2^48 - 2^24 into plane k with nothing
  // in plane k + 1: the largest move one add can make to one digit. Two
  // times kMaxPending of them in one direction would leave int64 without
  // normalization.
  for_each_tier([] {
    std::vector<float> row;
    for (int k = 0; k < 5; ++k) {
      const float x = std::ldexp(static_cast<float>((1 << 24) - 1),
                                 48 * k + 24 - 149);
      row.push_back(-x);
      row.push_back(x);
    }
    row.push_back(-std::numeric_limits<float>::max());
    ExactSumVector acc(row.size());
    Oracle oracle(row.size());
    for (std::uint64_t i = 0; i < 2 * ExactSumVector::kMaxPending + 3; ++i) {
      acc.add(row);
      oracle.add(row);
    }
    expect_matches(acc, oracle);
  });
}

TEST(ExactSumVector, MergesNearThePendingBoundMatchTheOracle) {
  for_each_tier([] {
    const std::size_t n = 9;
    Rng rng(5);
    const std::uint64_t pendings[] = {0, 1, ExactSumVector::kMaxPending - 1,
                                      ExactSumVector::kMaxPending};
    for (const std::uint64_t pa : pendings) {
      for (const std::uint64_t pb : pendings) {
        SCOPED_TRACE("pa=" + std::to_string(pa) + " pb=" + std::to_string(pb));
        ExactSumVector a(n);
        ExactSumVector b(n);
        Oracle oa(n);
        Oracle ob(n);
        const std::vector<float> ra = random_row(rng, n);
        const std::vector<float> rb = random_row(rng, n);
        for (std::uint64_t i = 0; i < pa; ++i) {
          a.add(ra);
          oa.add(ra);
        }
        for (std::uint64_t i = 0; i < pb; ++i) {
          b.add(rb);
          ob.add(rb);
        }
        a.add(b);
        oa.merge(ob);
        expect_matches(a, oa);
        // Keep adding past the merge, then merge into itself.
        for (int i = 0; i < 3; ++i) {
          a.add(rb);
          oa.add(rb);
        }
        a.add(a);
        oa.merge(Oracle(oa));
        expect_matches(a, oa);
      }
    }
  });
}

TEST(ExactSumVector, TreeOfMergesEqualsFlatSum) {
  for_each_tier([] {
    const std::size_t n = 63;
    Rng rng(8);
    std::vector<std::vector<float>> rows;
    for (int i = 0; i < 100; ++i) rows.push_back(random_row(rng, n));
    ExactSumVector flat(n);
    for (const auto& r : rows) flat.add(r);
    for (const std::size_t fan_in : {2UL, 3UL, 16UL}) {
      ExactSumVector root(n);
      ExactSumVector leaf(n);
      std::size_t in_leaf = 0;
      for (const auto& r : rows) {
        leaf.add(r);
        if (++in_leaf == fan_in) {
          root.add(leaf);
          leaf.clear();
          in_leaf = 0;
        }
      }
      root.add(leaf);
      EXPECT_EQ(save_bytes(root), save_bytes(flat)) << "fan_in=" << fan_in;
    }
  });
}

// ---- snapshots ------------------------------------------------------------

TEST(ExactSumVector, SaveLoadContinueEqualsAnUninterruptedRun) {
  for_each_tier([] {
    for (const std::size_t n : {1UL, 9UL, 1001UL}) {
      Rng rng(60 + n);
      std::vector<std::vector<float>> rows;
      for (int i = 0; i < 40; ++i) rows.push_back(random_row(rng, n));
      ExactSumVector straight(n);
      for (const auto& r : rows) straight.add(r);

      ExactSumVector first(n);
      for (int i = 0; i < 17; ++i) first.add(rows[i]);
      ExactSumVector resumed;
      load_limbs(resumed, n, saved_limbs(first));
      ASSERT_EQ(resumed.size(), n);
      EXPECT_EQ(save_bytes(resumed), save_bytes(first));
      for (int i = 17; i < 40; ++i) resumed.add(rows[i]);
      EXPECT_EQ(save_bytes(resumed), save_bytes(straight));
      EXPECT_EQ(rounded_bits(resumed), rounded_bits(straight));
    }
  });
}

TEST(ExactSumVector, NormalizationInsideAddDoesNotChangeTheValue) {
  // Rows of +0.0 add nothing, so the only thing that can move the value
  // while they pass the pending bound is the normalization add() runs.
  for_each_tier([] {
    Rng rng(90);
    ExactSumVector acc(8);
    for (int i = 0; i < 50; ++i) acc.add(random_row(rng, 8));
    const std::vector<std::uint8_t> before = save_bytes(acc);
    const std::vector<std::uint32_t> rounded = rounded_bits(acc);
    const std::vector<float> zeros(8, 0.0F);
    for (std::uint64_t i = 0; i < 2 * ExactSumVector::kMaxPending; ++i) {
      acc.add(zeros);
    }
    EXPECT_EQ(save_bytes(acc), before);
    EXPECT_EQ(rounded_bits(acc), rounded);
  });
}

/// One fixed accumulation: adds, a cancelling stretch and a merge.
ExactSumVector fixed_accumulation() {
  const std::size_t n = 37;
  Rng rng(2024);
  ExactSumVector acc(n);
  ExactSumVector side(n);
  for (int i = 0; i < 300; ++i) {
    const std::vector<float> row = random_row(rng, n);
    (i % 3 == 0 ? side : acc).add(row);
  }
  acc.add(side);
  return acc;
}

TEST(ExactSumVector, PinnedSnapshotHash) {
  // FNV-1a over the saved limbs, pinned from the ripple-carry
  // implementation: the snapshot image must not depend on the
  // representation behind it.
  for_each_tier([] {
    const ExactSumVector acc = fixed_accumulation();
    const std::vector<std::uint64_t> limbs = saved_limbs(acc);
    ASSERT_EQ(limbs.size(), 37U * kLimbs);
    EXPECT_EQ(fnv1a(limbs), 0xe5b163bc0bcff442ULL);
  });
}

// ---- range ----------------------------------------------------------------

TEST(ExactSumVector, FltMaxTwoToTheTwentyTimesCancelsToPlusZero) {
  for_each_tier([] {
    const float big = std::numeric_limits<float>::max();
    const std::vector<float> up = {big, -big, big};
    const std::vector<float> down = negated(up);
    ExactSumVector acc(up.size());
    const std::uint64_t times = std::uint64_t{1} << 20;
    for (std::uint64_t i = 0; i < times; ++i) acc.add(up);
    std::vector<float> out(up.size());
    acc.round_to(out);
    EXPECT_EQ(out[0], std::numeric_limits<float>::infinity());
    EXPECT_EQ(out[1], -std::numeric_limits<float>::infinity());
    for (std::uint64_t i = 0; i < times; ++i) acc.add(down);
    for (const std::uint64_t l : saved_limbs(acc)) ASSERT_EQ(l, 0U);
    for (const std::uint32_t b : rounded_bits(acc)) ASSERT_EQ(b, 0U);
  });
}

/// Limbs of (2^24 - 1) * 2^(273 + doublings) quanta, negated if asked: the
/// total of 2^20 FLT_MAX terms doubled `doublings` times.
std::vector<std::uint64_t> flt_max_total(int doublings, bool negative) {
  std::vector<std::uint64_t> limbs(kLimbs, 0);
  const int shift = 273 + doublings;  // m = 2^24 - 1 at bit `shift`
  const std::uint64_t m = (1ULL << 24) - 1;
  limbs[shift / 64] = m << (shift % 64);
  if (shift % 64 > 40) limbs[shift / 64 + 1] = m >> (64 - shift % 64);
  if (negative) {
    std::uint64_t carry = 1;
    for (auto& l : limbs) {
      l = ~l + carry;
      carry = (carry != 0 && l == 0) ? 1 : 0;
    }
  }
  return limbs;
}

TEST(ExactSumVector, TotalsPastTheCheckedRangeThrowTypedErrors) {
  for_each_tier([] {
    for (const bool negative : {false, true}) {
      SCOPED_TRACE(negative ? "negative" : "positive");
      // Five doublings stay below 2^302 quanta; the sixth does not.
      ExactSumVector acc;
      load_limbs(acc, 1, flt_max_total(0, negative));
      for (int d = 1; d <= 5; ++d) {
        ASSERT_NO_THROW(acc.add(acc)) << d;
        EXPECT_EQ(saved_limbs(acc), flt_max_total(d, negative)) << d;
      }
      EXPECT_THROW(acc.add(acc), util::ExactSumRangeError);

      // A pending top digit past 2^62 on both sides: the merged top digit
      // overflows int64, which must be a typed error, not a wrap.
      const float big = negative ? -std::numeric_limits<float>::max()
                                 : std::numeric_limits<float>::max();
      ExactSumVector a;
      load_limbs(a, 1, flt_max_total(5, negative));
      for (int i = 0; i < 4; ++i) a.add(std::vector<float>{big});
      std::vector<float> out(1);
      EXPECT_THROW(a.round_to(out), util::ExactSumRangeError);
      EXPECT_THROW(save_bytes(a), util::ExactSumRangeError);
      const ExactSumVector b = a;
      EXPECT_THROW(a.add(b), util::ExactSumRangeError);

      // Plain adds reach the bound too, through normalize().
      ExactSumVector c;
      load_limbs(c, 1, flt_max_total(5, negative));
      EXPECT_THROW(
          {
            for (std::uint64_t i = 0; i <= ExactSumVector::kMaxPending; ++i) {
              c.add(std::vector<float>{big});
            }
          },
          util::ExactSumRangeError);
    }
  });
}

TEST(ExactSumVector, LoadRejectsImagesOutsideTheCheckedRange) {
  const auto power = [](int bit, bool negative) {  // +-2^bit as limbs
    std::vector<std::uint64_t> limbs(kLimbs, 0);
    limbs[static_cast<std::size_t>(bit / 64)] = 1ULL << (bit % 64);
    if (negative) {
      std::uint64_t carry = 1;
      for (auto& l : limbs) {
        l = ~l + carry;
        carry = (carry != 0 && l == 0) ? 1 : 0;
      }
    }
    return limbs;
  };
  ExactSumVector acc;
  // In range: +2^301, -2^302 (the minimum) and 2^302 - 1 (the maximum).
  EXPECT_NO_THROW(load_limbs(acc, 1, power(301, false)));
  EXPECT_EQ(saved_limbs(acc), power(301, false));
  EXPECT_NO_THROW(load_limbs(acc, 1, power(302, true)));
  EXPECT_EQ(saved_limbs(acc), power(302, true));
  std::vector<std::uint64_t> max(kLimbs, ~0ULL);
  max[4] = (1ULL << 46) - 1;  // bits 0..301 set
  max[5] = 0;
  EXPECT_NO_THROW(load_limbs(acc, 1, max));
  EXPECT_EQ(saved_limbs(acc), max);
  EXPECT_EQ(rounded_bits(acc)[0], 0x7F800000U);  // +inf
  // Out of range: +2^302; -2^302 - 1 (= ~2^302); the sign bit alone
  // (-2^383, inside the former 384-bit headroom); and a negative image
  // whose top limb was cleared.
  EXPECT_THROW(load_limbs(acc, 1, power(302, false)),
               util::ExactSumRangeError);
  std::vector<std::uint64_t> below = power(302, false);
  for (auto& l : below) l = ~l;
  EXPECT_THROW(load_limbs(acc, 1, below), util::ExactSumRangeError);
  EXPECT_THROW(load_limbs(acc, 1, power(383, false)),
               util::ExactSumRangeError);
  std::vector<std::uint64_t> torn = power(5, true);
  torn[5] = 0;
  EXPECT_THROW(load_limbs(acc, 1, torn), util::ExactSumRangeError);
  // A rejected image leaves the previous state in place.
  EXPECT_EQ(saved_limbs(acc), max);
  // Wrong limb count for the element count.
  EXPECT_THROW(load_limbs(acc, 2, power(5, false)), Error);
}

// ---- strong exception guarantee --------------------------------------------

TEST(ExactSumVector, NonFiniteInputLeavesTheAccumulatorUnchanged) {
  for_each_tier([] {
    const std::size_t n = 9;
    Rng rng(4);
    ExactSumVector acc(n);
    for (int i = 0; i < 5; ++i) acc.add(random_row(rng, n));
    const std::vector<std::uint8_t> before = save_bytes(acc);
    const float bad_values[] = {std::numeric_limits<float>::quiet_NaN(),
                                std::numeric_limits<float>::infinity(),
                                -std::numeric_limits<float>::infinity()};
    for (const float bad : bad_values) {
      for (const std::size_t at : {0UL, n / 2, n - 1}) {
        std::vector<float> row = random_row(rng, n);
        row[at] = bad;
        EXPECT_THROW(acc.add(row), Error) << "at=" << at;
        ASSERT_EQ(save_bytes(acc), before) << "at=" << at;
      }
    }
    // Still usable afterwards.
    const std::vector<float> row = random_row(rng, n);
    acc.add(row);
    acc.add(negated(row));
    EXPECT_EQ(save_bytes(acc), before);
  });
}

}  // namespace
}  // namespace fhdnn
