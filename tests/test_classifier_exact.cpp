// Bit-exactness of the HdClassifier kernels against an accessor-based
// oracle.
//
// The oracle below is a verbatim transcription of the original per-element
// classifier loops (bounds-checked Tensor accessors, one double accumulator
// per dot product or norm, summed over j = 0..d-1 in order). The production
// kernels walk raw row pointers, interleave classes, cache prototype norms
// and split queries across the thread pool; none of that may change a
// single bit. Every comparison is on the float bit pattern, so NaN payloads
// and signed zeros count too.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "hdc/classifier.hpp"
#include "tensor/tensor.hpp"
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

constexpr std::int64_t kQueries = 24;
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
    saved_threads_ = parallel::num_threads();
  }
  void TearDown() override { parallel::set_num_threads(saved_threads_); }

  HdClassifier classifier() const {
    HdClassifier clf(GetParam().k, GetParam().d);
    clf.set_prototypes(protos_);
    return clf;
  }

  static constexpr int kThreadCounts[] = {1, 4};

  Tensor protos_;
  Tensor queries_;
  std::vector<std::int64_t> labels_;
  int saved_threads_ = 1;
};

TEST_P(ClassifierExact, Similarities) {
  const Tensor want = oracle_similarities(protos_, queries_);
  const HdClassifier clf = classifier();
  for (const int t : kThreadCounts) {
    parallel::set_num_threads(t);
    EXPECT_TRUE(bits_equal(clf.similarities(queries_).data(), want.data()))
        << "threads=" << t;
  }
}

TEST_P(ClassifierExact, MaskedSimilarities) {
  const std::int64_t d = GetParam().d;
  const std::vector<std::vector<bool>> masks = {
      std::vector<bool>(static_cast<std::size_t>(d), true), sparse_mask(d),
      std::vector<bool>(static_cast<std::size_t>(d), false)};
  const HdClassifier clf = classifier();
  for (std::size_t m = 0; m < masks.size(); ++m) {
    const Tensor want = oracle_masked_similarities(protos_, queries_, masks[m]);
    for (const int t : kThreadCounts) {
      parallel::set_num_threads(t);
      EXPECT_TRUE(bits_equal(clf.masked_similarities(queries_, masks[m]).data(),
                             want.data()))
          << "mask " << m << ", threads=" << t;
    }
  }
}

TEST_P(ClassifierExact, Predict) {
  const std::vector<std::int64_t> want = oracle_predict(protos_, queries_);
  const HdClassifier clf = classifier();
  for (const int t : kThreadCounts) {
    parallel::set_num_threads(t);
    EXPECT_EQ(clf.predict(queries_), want) << "threads=" << t;
  }
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
  for (const int t : kThreadCounts) {
    parallel::set_num_threads(t);
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch(want, queries_, labels_, kLr);
      EXPECT_EQ(clf.refine_epoch(queries_, labels_, kLr), want_updates)
          << "epoch " << epoch << ", threads=" << t;
    }
    EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data()))
        << "threads=" << t;
  }
}

TEST_P(ClassifierExact, RefineEpochAdaptive) {
  for (const int t : kThreadCounts) {
    parallel::set_num_threads(t);
    Tensor want = protos_;
    HdClassifier clf = classifier();
    for (int epoch = 0; epoch < 3; ++epoch) {
      const std::int64_t want_updates =
          oracle_refine_epoch_adaptive(want, queries_, labels_, kLr);
      EXPECT_EQ(clf.refine_epoch_adaptive(queries_, labels_, kLr),
                want_updates)
          << "epoch " << epoch << ", threads=" << t;
    }
    EXPECT_TRUE(bits_equal(clf.prototypes().data(), want.data()))
        << "threads=" << t;
  }
}

std::vector<Case> all_cases() {
  std::vector<Case> out;
  for (const std::int64_t k : {2, 3, 4, 5, 10}) {
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

}  // namespace
}  // namespace fhdnn
