// Bit-exactness of the HdClassifier kernels against an accessor-based
// oracle.
//
// The oracle below is a verbatim transcription of the original per-element
// classifier loops (bounds-checked Tensor accessors, one double accumulator
// per dot product or norm, summed over j = 0..d-1 in order). The production
// kernels run the dot products on the dispatched matmul_bt tile (one double
// lane per row and class), interleave row norms, cache prototype norms,
// refine speculatively in 4-row blocks and split queries across the thread
// pool; none of that may change a single bit, under any SIMD tier. Every
// comparison is on the float bit pattern, so NaN payloads and signed zeros
// count too.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "hdc/classifier.hpp"
#include "tensor/tensor.hpp"
#include "util/cpu.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using hdc::HdClassifier;

// ---- oracle: the original accessor loops, with c_ -> c, k_ -> k, d_ -> d --

Tensor oracle_similarities(const Tensor& c, const Tensor& h) {
  const std::int64_t k_ = c.dim(0), d_ = c.dim(1);
  const std::int64_t n = h.dim(0);
  std::vector<double> cnorm(static_cast<std::size_t>(k_));
  for (std::int64_t k = 0; k < k_; ++k) {
    double s = 0.0;
    for (std::int64_t j = 0; j < d_; ++j) {
      s += static_cast<double>(c(k, j)) * c(k, j);
    }
    cnorm[static_cast<std::size_t>(k)] = std::sqrt(s);
  }
  Tensor sim(Shape{n, k_});
  for (std::int64_t i = 0; i < n; ++i) {
    double hnorm = 0.0;
    for (std::int64_t j = 0; j < d_; ++j) {
      hnorm += static_cast<double>(h(i, j)) * h(i, j);
    }
    hnorm = std::sqrt(hnorm);
    for (std::int64_t k = 0; k < k_; ++k) {
      double dot = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        dot += static_cast<double>(h(i, j)) * c(k, j);
      }
      const double denom = hnorm * cnorm[static_cast<std::size_t>(k)];
      sim(i, k) = denom > 0.0 ? static_cast<float>(dot / denom) : 0.0F;
    }
  }
  return sim;
}

Tensor oracle_masked_similarities(const Tensor& c, const Tensor& h,
                                  const std::vector<bool>& mask) {
  const std::int64_t k_ = c.dim(0), d_ = c.dim(1);
  const std::int64_t n = h.dim(0);
  std::vector<double> cnorm(static_cast<std::size_t>(k_));
  for (std::int64_t k = 0; k < k_; ++k) {
    double s = 0.0;
    for (std::int64_t j = 0; j < d_; ++j) {
      if (!mask[static_cast<std::size_t>(j)]) continue;
      s += static_cast<double>(c(k, j)) * c(k, j);
    }
    cnorm[static_cast<std::size_t>(k)] = std::sqrt(s);
  }
  Tensor sim(Shape{n, k_});
  for (std::int64_t i = 0; i < n; ++i) {
    double hnorm = 0.0;
    for (std::int64_t j = 0; j < d_; ++j) {
      if (!mask[static_cast<std::size_t>(j)]) continue;
      hnorm += static_cast<double>(h(i, j)) * h(i, j);
    }
    hnorm = std::sqrt(hnorm);
    for (std::int64_t k = 0; k < k_; ++k) {
      double dot = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        if (!mask[static_cast<std::size_t>(j)]) continue;
        dot += static_cast<double>(h(i, j)) * c(k, j);
      }
      const double denom = hnorm * cnorm[static_cast<std::size_t>(k)];
      sim(i, k) = denom > 0.0 ? static_cast<float>(dot / denom) : 0.0F;
    }
  }
  return sim;
}

std::vector<std::int64_t> oracle_predict(const Tensor& c, const Tensor& h) {
  const std::int64_t k_ = c.dim(0);
  const Tensor sim = oracle_similarities(c, h);
  std::vector<std::int64_t> out(static_cast<std::size_t>(sim.dim(0)));
  for (std::int64_t i = 0; i < sim.dim(0); ++i) {
    std::int64_t best = 0;
    float best_v = sim(i, 0);
    for (std::int64_t k = 1; k < k_; ++k) {
      if (sim(i, k) > best_v) {
        best_v = sim(i, k);
        best = k;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

void oracle_bundle(Tensor& c, const Tensor& h,
                   const std::vector<std::int64_t>& labels) {
  const std::int64_t d_ = c.dim(1);
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    for (std::int64_t j = 0; j < d_; ++j) c(y, j) += h(i, j);
  }
}

std::int64_t oracle_refine_epoch(Tensor& c, const Tensor& h,
                                 const std::vector<std::int64_t>& labels,
                                 float lr) {
  const std::int64_t k_ = c.dim(0), d_ = c.dim(1);
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    std::int64_t best = 0;
    double best_sim = -2.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      double dot = 0.0, cn = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        dot += static_cast<double>(h(i, j)) * c(k, j);
        cn += static_cast<double>(c(k, j)) * c(k, j);
      }
      const double sim = cn > 0.0 ? dot / std::sqrt(cn) : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
    }
    if (best != y) {
      for (std::int64_t j = 0; j < d_; ++j) {
        const float v = lr * h(i, j);
        c(y, j) += v;
        c(best, j) -= v;
      }
      ++updates;
    }
  }
  return updates;
}

std::int64_t oracle_refine_epoch_adaptive(
    Tensor& c, const Tensor& h, const std::vector<std::int64_t>& labels,
    float lr) {
  const std::int64_t k_ = c.dim(0), d_ = c.dim(1);
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    double hnorm = 0.0;
    for (std::int64_t j = 0; j < d_; ++j) {
      hnorm += static_cast<double>(h(i, j)) * h(i, j);
    }
    hnorm = std::sqrt(hnorm);
    std::int64_t best = 0;
    double best_sim = -2.0, y_sim = 0.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      double dot = 0.0, cn = 0.0;
      for (std::int64_t j = 0; j < d_; ++j) {
        dot += static_cast<double>(h(i, j)) * c(k, j);
        cn += static_cast<double>(c(k, j)) * c(k, j);
      }
      const double denom = hnorm * std::sqrt(cn);
      const double sim = denom > 0.0 ? dot / denom : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
      if (k == y) y_sim = sim;
    }
    if (best != y) {
      const float gain_y = lr * static_cast<float>(1.0 - y_sim);
      const float gain_b = lr * static_cast<float>(1.0 - best_sim);
      for (std::int64_t j = 0; j < d_; ++j) {
        c(y, j) += gain_y * h(i, j);
        c(best, j) -= gain_b * h(i, j);
      }
      ++updates;
    }
  }
  return updates;
}

// ---- fixtures --------------------------------------------------------------

::testing::AssertionResult bits_equal(std::span<const float> got,
                                      std::span<const float> want) {
  if (got.size() != want.size()) {
    return ::testing::AssertionFailure()
           << "size " << got.size() << " != " << want.size();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto g = std::bit_cast<std::uint32_t>(got[i]);
    const auto w = std::bit_cast<std::uint32_t>(want[i]);
    if (g != w) {
      return ::testing::AssertionFailure()
             << "element " << i << ": got " << got[i] << " (0x" << std::hex
             << g << "), oracle " << want[i] << " (0x" << w << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

/// Every SIMD tier the CPU supports; the tile kernel is dispatched per tier.
std::vector<util::SimdTier> available_tiers() {
  std::vector<util::SimdTier> out{util::SimdTier::Scalar};
  for (const auto t : {util::SimdTier::Avx2, util::SimdTier::Avx512}) {
    if (util::set_simd_tier(t) == t) out.push_back(t);
  }
  util::set_simd_tier(util::detected_simd());
  return out;
}

/// Runs `body(label)` under every available tier at 1 and 4 threads, then
/// restores the detected tier and the thread count.
template <typename Body>
void for_each_config(Body&& body) {
  const int saved_threads = parallel::num_threads();
  for (const auto tier : available_tiers()) {
    EXPECT_EQ(util::set_simd_tier(tier), tier);
    for (const int t : {1, 4}) {
      parallel::set_num_threads(t);
      body(std::string(util::simd_tier_name(tier)) + ", threads=" +
           std::to_string(t));
    }
  }
  util::set_simd_tier(util::detected_simd());
  parallel::set_num_threads(saved_threads);
}

/// Prototype shapes that hit the special branches.
enum class Protos {
  kTied,     // row 1 is an exact copy of row 0: every query ties them
  kZeroRow,  // the last row is all zero: the denom > 0 branch
};

struct Case {
  std::int64_t k;
  std::int64_t d;
  Protos protos;
};

// 26 rows: six full 4-row tiles and a partial one.
constexpr std::int64_t kQueries = 26;
constexpr std::int64_t kNanRow = 1;
constexpr std::int64_t kSpikeRows[] = {2, 3};
constexpr float kLr = 0.7F;

Tensor make_prototypes(const Case& cs, Rng& rng) {
  Tensor c = Tensor::randn(Shape{cs.k, cs.d}, rng);
  // Equal first and last columns: the spike rows below cancel exactly.
  for (std::int64_t k = 0; k < cs.k; ++k) c(k, cs.d - 1) = c(k, 0);
  if (cs.protos == Protos::kTied) {
    for (std::int64_t j = 0; j < cs.d; ++j) c(1, j) = c(0, j);
  } else {
    for (std::int64_t j = 0; j < cs.d; ++j) c(cs.k - 1, j) = 0.0F;
  }
  return c;
}

/// Queries: row 0 all zero, row kNanRow carries a NaN, the rest mix
/// bipolar rows and noisy copies of prototypes (so refinement sees both
/// correct and wrong predictions). The spike rows carry +2^40 in the first
/// and -2^40 in the last column: their products cancel exactly, leaving a
/// dot product made of what rounding left of the small terms in between.
/// Float outputs hide double-level reassociation of well-conditioned sums;
/// these sums are ill-conditioned enough that any reordering shows.
Tensor make_queries(const Case& cs, const Tensor& c, Rng& rng) {
  Tensor h(Shape{kQueries, cs.d});
  for (std::int64_t i = 2; i < kQueries; ++i) {
    const bool bipolar = i % 3 == 0;
    const std::int64_t near = rng.randint(0, cs.k - 1);
    for (std::int64_t j = 0; j < cs.d; ++j) {
      h(i, j) = bipolar ? (rng.bernoulli(0.5) ? 1.0F : -1.0F)
                        : c(near, j) + static_cast<float>(rng.normal());
    }
  }
  if (cs.d > 1) {
    for (const std::int64_t i : kSpikeRows) {
      h(i, 0) = std::ldexp(1.0F, 40);
      h(i, cs.d - 1) = -std::ldexp(1.0F, 40);
    }
  }
  for (std::int64_t j = 0; j < cs.d; ++j) h(kNanRow, j) = 0.5F;
  h(kNanRow, cs.d / 2) = std::numeric_limits<float>::quiet_NaN();
  return h;
}

/// Labels are random, except the NaN row, which is labelled 0: a NaN row
/// predicts class 0, so it exercises the NaN comparisons without an update
/// that would poison every prototype.
std::vector<std::int64_t> make_labels(const Case& cs, Rng& rng) {
  std::vector<std::int64_t> y(static_cast<std::size_t>(kQueries));
  for (auto& v : y) v = rng.randint(0, cs.k - 1);
  y[static_cast<std::size_t>(kNanRow)] = 0;
  return y;
}

std::vector<bool> sparse_mask(std::int64_t d) {
  std::vector<bool> mask(static_cast<std::size_t>(d));
  for (std::int64_t j = 0; j < d; ++j) {
    mask[static_cast<std::size_t>(j)] = j % 7 == 3 || j % 11 == 0 || j == d - 1;
  }
  return mask;
}

class ClassifierExact : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    const Case cs = GetParam();
    Rng rng(static_cast<std::uint64_t>(cs.k * 100003 + cs.d * 7 +
                                       static_cast<int>(cs.protos)));
    protos_ = make_prototypes(cs, rng);
    queries_ = make_queries(cs, protos_, rng);
    labels_ = make_labels(cs, rng);
  }

  HdClassifier classifier() const {
    HdClassifier clf(GetParam().k, GetParam().d);
    clf.set_prototypes(protos_);
    return clf;
  }

  Tensor protos_;
  Tensor queries_;
  std::vector<std::int64_t> labels_;
};

TEST_P(ClassifierExact, Similarities) {
  const Tensor want = oracle_similarities(protos_, queries_);
  const HdClassifier clf = classifier();
  for_each_config([&](const std::string& cfg) {
    EXPECT_TRUE(bits_equal(clf.similarities(queries_).data(), want.data()))
        << cfg;
  });
}

TEST_P(ClassifierExact, MaskedSimilarities) {
  const std::int64_t d = GetParam().d;
  const std::vector<std::vector<bool>> masks = {
      std::vector<bool>(static_cast<std::size_t>(d), true), sparse_mask(d),
      std::vector<bool>(static_cast<std::size_t>(d), false)};
  const HdClassifier clf = classifier();
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const Tensor want = oracle_masked_similarities(protos_, queries_, masks[m]);
    for_each_config([&](const std::string& cfg) {
      EXPECT_TRUE(bits_equal(clf.masked_similarities(queries_, masks[m]).data(),
                             want.data()))
          << "mask " << m << ", " << cfg;
    });
  }
}

TEST_P(ClassifierExact, Predict) {
  const std::vector<std::int64_t> want = oracle_predict(protos_, queries_);
  const HdClassifier clf = classifier();
  for_each_config([&](const std::string& cfg) {
    EXPECT_EQ(clf.predict(queries_), want) << cfg;
  });
  // The zero query ties every class at 0: the first class wins.
  EXPECT_EQ(want[0], 0);
  if (GetParam().protos == Protos::kTied) {
    // Prototypes 0 and 1 tie for every query: 1 is never predicted.
    for (const auto p : want) EXPECT_NE(p, 1);
  }
}

TEST_P(ClassifierExact, Bundle) {
  Tensor want = protos_;
  oracle_bundle(want, queries_, labels_);
  HdClassifier clf = classifier();
  clf.bundle(queries_, labels_);
  EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data()));
}

TEST_P(ClassifierExact, RefineEpoch) {
  for_each_config([&](const std::string& cfg) {
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch(want, queries_, labels_, kLr);
      EXPECT_EQ(clf.refine_epoch(queries_, labels_, kLr), want_updates)
          << "epoch " << epoch << ", " << cfg;
    }
    EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data())) << cfg;
  });
}

TEST_P(ClassifierExact, RefineEpochAdaptive) {
  for_each_config([&](const std::string& cfg) {
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch_adaptive(want, queries_, labels_, kLr);
      EXPECT_EQ(clf.refine_epoch_adaptive(queries_, labels_, kLr),
                want_updates)
          << "epoch " << epoch << ", " << cfg;
    }
    EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data())) << cfg;
  });
}

// K spans one panel (2, 3, 10, 16 classes) and two (17, 26 = ISOLET).
constexpr std::int64_t kClassCounts[] = {2, 3, 10, 16, 17, 26};

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const std::int64_t k : kClassCounts) {
    for (const std::int64_t d : {1, 63, 64, 65, 10000}) {
      for (const Protos p : {Protos::kTied, Protos::kZeroRow}) {
        out.push_back({k, d, p});
      }
    }
  }
  return out;
}

std::string case_name(const ::testing::TestParamInfo<Case>& info) {
  return "K" + std::to_string(info.param.k) + "_d" +
         std::to_string(info.param.d) +
         (info.param.protos == Protos::kTied ? "_tied" : "_zero_row");
}

INSTANTIATE_TEST_SUITE_P(Sweep, ClassifierExact,
                         ::testing::ValuesIn(all_cases()), case_name);

// ---- speculative refinement blocks ---------------------------------------
//
// Refinement computes the dots of 4 rows at once and, at the first
// mispredict, updates and restarts the block at the following row. These
// fixtures plant mispredicts where that restart matters. Rows are noisy
// copies of well-separated prototypes, labelled with their own class
// except at the planted rows; with a small step no other row mispredicts,
// which the oracle confirms. Block by block (B = block start):
//   B=0  rows 0-3:   row 0 mispredicts (block position 0)
//   B=1  rows 1-4:   row 2 (position 1)
//   B=3  rows 3-6:   row 5 (position 2)
//   B=6  rows 6-9:   row 9 (position 3)
//   B=10 rows 10-13: row 10 (position 0), then B=11: row 11 (consecutive)
//   B=12, B=16: no mispredict
//   B=20 rows 20-22: row 22, in the last, partial block.
constexpr std::int64_t kBlockRows = 23;
constexpr std::int64_t kPlanted[] = {0, 2, 5, 9, 10, 11, 22};
constexpr float kSmallLr = 0.05F;

struct Shape2 {
  std::int64_t k;
  std::int64_t d;
};

/// Rows [begin, end) of h as their own tensor.
Tensor rows_of(const Tensor& h, std::int64_t begin, std::int64_t end) {
  const std::int64_t d = h.dim(1);
  const auto first = h.data().begin() + begin * d;
  return Tensor(Shape{end - begin, d},
                std::vector<float>(first, first + (end - begin) * d));
}

/// The oracle run one row at a time — the same online loop, since the
/// prototypes are its only state — recording which rows updated.
template <typename Oracle>
std::vector<std::int64_t> oracle_updated_rows(
    Oracle&& oracle, Tensor& c, const Tensor& h,
    const std::vector<std::int64_t>& labels, float lr) {
  std::vector<std::int64_t> updated;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    if (oracle(c, rows_of(h, i, i + 1),
               {labels[static_cast<std::size_t>(i)]}, lr) == 1) {
      updated.push_back(i);
    }
  }
  return updated;
}

/// The block position (row - block start) of each update, replaying the
/// restart rule: a block is up to 4 rows; an update at row r ends it and
/// the next block starts at r + 1. `partial_hit` is set when an update
/// lands in a block cut short by the end of the batch.
std::vector<std::int64_t> block_positions(
    const std::vector<std::int64_t>& updated, std::int64_t n,
    bool& partial_hit) {
  std::vector<std::int64_t> pos;
  partial_hit = false;
  std::size_t u = 0;
  for (std::int64_t b = 0; b < n;) {
    const std::int64_t end = std::min(b + 4, n);
    if (u < updated.size() && updated[u] < end) {
      pos.push_back(updated[u] - b);
      partial_hit = partial_hit || end - b < 4;
      b = updated[u++] + 1;
    } else {
      b = end;
    }
  }
  return pos;
}

class RefineBlocks : public ::testing::TestWithParam<Shape2> {
 protected:
  void SetUp() override {
    const auto [k, d] = GetParam();
    Rng rng(static_cast<std::uint64_t>(k * 7919 + d));
    protos_ = Tensor::randn(Shape{k, d}, rng);
    queries_ = Tensor(Shape{kBlockRows, d});
    labels_.resize(static_cast<std::size_t>(kBlockRows));
    for (std::int64_t i = 0; i < kBlockRows; ++i) {
      const std::int64_t near = i % k;
      for (std::int64_t j = 0; j < d; ++j) {
        queries_(i, j) =
            protos_(near, j) + 0.1F * static_cast<float>(rng.normal());
      }
      labels_[static_cast<std::size_t>(i)] = near;
    }
    for (const std::int64_t i : kPlanted) {
      labels_[static_cast<std::size_t>(i)] = (i % k + 1) % k;
    }
  }

  HdClassifier classifier() const {
    HdClassifier clf(GetParam().k, GetParam().d);
    clf.set_prototypes(protos_);
    return clf;
  }

  /// The fixture really plants what the table above says.
  template <typename Oracle>
  void expect_planted(Oracle&& oracle) const {
    Tensor c = protos_;
    const auto updated =
        oracle_updated_rows(oracle, c, queries_, labels_, kSmallLr);
    ASSERT_EQ(updated, std::vector<std::int64_t>(std::begin(kPlanted),
                                                 std::end(kPlanted)));
    bool partial_hit = false;
    const auto pos = block_positions(updated, kBlockRows, partial_hit);
    EXPECT_EQ(pos, (std::vector<std::int64_t>{0, 1, 2, 3, 0, 0, 2}));
    EXPECT_TRUE(partial_hit);
  }

  Tensor protos_;
  Tensor queries_;
  std::vector<std::int64_t> labels_;
};

TEST_P(RefineBlocks, FixedStep) {
  expect_planted(oracle_refine_epoch);
  for_each_config([&](const std::string& cfg) {
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 2; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch(want, queries_, labels_, kSmallLr);
      EXPECT_EQ(clf.refine_epoch(queries_, labels_, kSmallLr), want_updates)
          << "epoch " << epoch << ", " << cfg;
      EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data()))
          << "epoch " << epoch << ", " << cfg;
    }
  });
}

TEST_P(RefineBlocks, Adaptive) {
  expect_planted(oracle_refine_epoch_adaptive);
  for_each_config([&](const std::string& cfg) {
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 2; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch_adaptive(want, queries_, labels_, kSmallLr);
      EXPECT_EQ(clf.refine_epoch_adaptive(queries_, labels_, kSmallLr),
                want_updates)
          << "epoch " << epoch << ", " << cfg;
      EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data()))
          << "epoch " << epoch << ", " << cfg;
    }
  });
}

// Row 7 sits mid-block (the block restarted at row 6 after row 5's
// update). A label out of range there throws, and the prototypes keep
// exactly the updates of rows 0-6 — the oracle run on that prefix.
TEST_P(RefineBlocks, BadLabelMidBlockKeepsOracleState) {
  constexpr std::int64_t kBadRow = 7;
  std::vector<std::int64_t> labels = labels_;
  labels[static_cast<std::size_t>(kBadRow)] = GetParam().k;
  const Tensor prefix = rows_of(queries_, 0, kBadRow);
  const std::vector<std::int64_t> prefix_labels(labels.begin(),
                                                labels.begin() + kBadRow);
  Tensor want_fixed = protos_;
  oracle_refine_epoch(want_fixed, prefix, prefix_labels, kSmallLr);
  Tensor want_adaptive = protos_;
  oracle_refine_epoch_adaptive(want_adaptive, prefix, prefix_labels,
                               kSmallLr);
  for_each_config([&](const std::string& cfg) {
    HdClassifier fixed = classifier();
    EXPECT_THROW(fixed.refine_epoch(queries_, labels, kSmallLr), Error) << cfg;
    EXPECT_TRUE(bits_equal(fixed.prototypes().data(), want_fixed.data()))
        << cfg;
    HdClassifier adaptive = classifier();
    EXPECT_THROW(adaptive.refine_epoch_adaptive(queries_, labels, kSmallLr),
                 Error)
        << cfg;
    EXPECT_TRUE(bits_equal(adaptive.prototypes().data(), want_adaptive.data()))
        << cfg;
  });
}

std::vector<Shape2> block_shapes() {
  std::vector<Shape2> out;
  for (const std::int64_t k : kClassCounts) {
    for (const std::int64_t d : {63, 64, 65, 10000}) out.push_back({k, d});
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Planted, RefineBlocks, ::testing::ValuesIn(block_shapes()),
    [](const ::testing::TestParamInfo<Shape2>& info) {
      return "K" + std::to_string(info.param.k) + "_d" +
             std::to_string(info.param.d);
    });

}  // namespace
}  // namespace fhdnn
