#include "hdc/classifier.hpp"

#include <cmath>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"

namespace fhdnn::hdc {

// Accumulation-order contract (DESIGN.md §16): every dot product and squared
// norm below is one double accumulator summed over j = 0..d-1 in order.
// Interleaving several classes per pass gives each class its own
// accumulator, so no sum is reassociated; tests/test_classifier_exact.cpp
// pins every result bit-for-bit against naive per-element loops.

namespace {

void check_batch(const Tensor& h, std::int64_t d) {
  FHDNN_CHECK(h.ndim() == 2 && h.dim(1) == d,
              "expected (N, " << d << ") hypervectors, got "
                              << shape_to_string(h.shape()));
}

void check_label(std::int64_t y, std::int64_t k) {
  FHDNN_CHECK(y >= 0 && y < k, "label " << y << " out of range " << k);
}

double squared_norm(const float* a, std::int64_t d) {
  double s = 0.0;
  for (std::int64_t j = 0; j < d; ++j) s += static_cast<double>(a[j]) * a[j];
  return s;
}

/// Squared norm of each row of a (rows x d).
std::vector<double> row_squared_norms(const float* a, std::int64_t rows,
                                      std::int64_t d) {
  std::vector<double> out(static_cast<std::size_t>(rows));
  for (std::int64_t r = 0; r < rows; ++r) {
    out[static_cast<std::size_t>(r)] = squared_norm(a + r * d, d);
  }
  return out;
}

/// emit(k, sum_j h[j] * c[k*d + j]) for k in [0, k_n), each sum in j order.
template <typename Emit>
void for_each_dot(const float* h, const float* c, std::int64_t k_n,
                  std::int64_t d, Emit&& emit) {
  std::int64_t k = 0;
  for (; k + 4 <= k_n; k += 4) {
    const float* c0 = c + k * d;
    const float* c1 = c0 + d;
    const float* c2 = c1 + d;
    const float* c3 = c2 + d;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (std::int64_t j = 0; j < d; ++j) {
      const double x = h[j];
      s0 += x * c0[j];
      s1 += x * c1[j];
      s2 += x * c2[j];
      s3 += x * c3[j];
    }
    emit(k, s0);
    emit(k + 1, s1);
    emit(k + 2, s2);
    emit(k + 3, s3);
  }
  for (; k < k_n; ++k) {
    const float* ck = c + k * d;
    double s = 0.0;
    for (std::int64_t j = 0; j < d; ++j) s += static_cast<double>(h[j]) * ck[j];
    emit(k, s);
  }
}

/// Cosine similarity of each row of h (n x d) against each row of c
/// (k_n x d): an (n, k_n) tensor. Query rows are split across the pool;
/// each row writes only its own output row.
Tensor cosine_similarities(const float* h, std::int64_t n, const float* c,
                           std::int64_t k_n, std::int64_t d) {
  std::vector<double> cnorm = row_squared_norms(c, k_n, d);
  for (double& v : cnorm) v = std::sqrt(v);
  Tensor sim(Shape{n, k_n});
  float* sp = sim.data().data();
  parallel::parallel_for(
      0, n, parallel::grain_for((k_n + 1) * d),
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          const float* hi = h + i * d;
          const double hnorm = std::sqrt(squared_norm(hi, d));
          float* si = sp + i * k_n;
          for_each_dot(hi, c, k_n, d, [&](std::int64_t k, double dot) {
            const double denom = hnorm * cnorm[static_cast<std::size_t>(k)];
            si[k] = denom > 0.0 ? static_cast<float>(dot / denom) : 0.0F;
          });
        }
      });
  return sim;
}

/// Copy the columns selected by `cols` (ascending) out of each row of a
/// (rows x d) into a dense (rows x cols.size()) buffer.
std::vector<float> gather_columns(const float* a, std::int64_t rows,
                                  std::int64_t d,
                                  const std::vector<std::int64_t>& cols) {
  const std::size_t m = cols.size();
  std::vector<float> out(static_cast<std::size_t>(rows) * m);
  for (std::int64_t r = 0; r < rows; ++r) {
    const float* src = a + r * d;
    float* dst = out.data() + static_cast<std::size_t>(r) * m;
    for (std::size_t j = 0; j < m; ++j) dst[j] = src[cols[j]];
  }
  return out;
}

}  // namespace

HdClassifier::HdClassifier(std::int64_t num_classes, std::int64_t hd_dim)
    : k_(num_classes), d_(hd_dim), c_(Shape{num_classes, hd_dim}) {
  FHDNN_CHECK(num_classes > 1 && hd_dim > 0,
              "HdClassifier(K=" << num_classes << ", d=" << hd_dim << ")");
}

void HdClassifier::bundle(const Tensor& h,
                          const std::vector<std::int64_t>& labels) {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == h.dim(0),
              "bundle labels size mismatch");
  const float* hp = h.data().data();
  float* c = c_.data().data();
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    check_label(y, k_);
    const float* hi = hp + i * d_;
    float* cy = c + y * d_;
    for (std::int64_t j = 0; j < d_; ++j) cy[j] += hi[j];
  }
}

Tensor HdClassifier::similarities(const Tensor& h) const {
  check_batch(h, d_);
  return cosine_similarities(h.data().data(), h.dim(0), c_.data().data(), k_,
                             d_);
}

Tensor HdClassifier::masked_similarities(const Tensor& h,
                                         const std::vector<bool>& mask) const {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(mask.size()) == d_,
              "mask size " << mask.size() << " != d " << d_);
  // Summing the kept dimensions in ascending order is the masked sum in j
  // order, so a dense gather of those columns reuses the unmasked kernel.
  std::vector<std::int64_t> kept;
  for (std::int64_t j = 0; j < d_; ++j) {
    if (mask[static_cast<std::size_t>(j)]) kept.push_back(j);
  }
  const std::int64_t n = h.dim(0);
  const std::vector<float> hm = gather_columns(h.data().data(), n, d_, kept);
  const std::vector<float> cm = gather_columns(c_.data().data(), k_, d_, kept);
  return cosine_similarities(hm.data(), n, cm.data(), k_,
                             static_cast<std::int64_t>(kept.size()));
}

std::vector<std::int64_t> HdClassifier::predict(const Tensor& h) const {
  const Tensor sim = similarities(h);
  const std::int64_t n = sim.dim(0);
  const float* sp = sim.data().data();
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    const float* si = sp + i * k_;
    std::int64_t best = 0;
    float best_v = si[0];
    for (std::int64_t k = 1; k < k_; ++k) {
      if (si[k] > best_v) {
        best_v = si[k];
        best = k;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

std::int64_t HdClassifier::refine_epoch(const Tensor& h,
                                        const std::vector<std::int64_t>& labels,
                                        float lr) {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == h.dim(0),
              "refine labels size mismatch");
  const float* hp = h.data().data();
  float* c = c_.data().data();
  // Prototype norms, computed once and then only for the rows an update
  // touches — the same j-order sums a fresh pass would form.
  std::vector<double> cn = row_squared_norms(c, k_, d_);
  std::vector<double> dots(static_cast<std::size_t>(k_));
  std::int64_t updates = 0;
  // Sequential (online) refinement: each update immediately affects later
  // predictions, as in standard HD retraining.
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    check_label(y, k_);
    const float* hi = hp + i * d_;
    // Predict this single row against current prototypes.
    for_each_dot(hi, c, k_, d_, [&](std::int64_t k, double dot) {
      dots[static_cast<std::size_t>(k)] = dot;
    });
    std::int64_t best = 0;
    double best_sim = -2.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      const double ck = cn[static_cast<std::size_t>(k)];
      const double sim =
          ck > 0.0 ? dots[static_cast<std::size_t>(k)] / std::sqrt(ck) : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
    }
    if (best != y) {
      float* cy = c + y * d_;
      float* cb = c + best * d_;
      for (std::int64_t j = 0; j < d_; ++j) {
        const float v = lr * hi[j];
        cy[j] += v;
        cb[j] -= v;
      }
      cn[static_cast<std::size_t>(y)] = squared_norm(cy, d_);
      cn[static_cast<std::size_t>(best)] = squared_norm(cb, d_);
      ++updates;
    }
  }
  return updates;
}

std::int64_t HdClassifier::refine_epoch_adaptive(
    const Tensor& h, const std::vector<std::int64_t>& labels, float lr) {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == h.dim(0),
              "refine labels size mismatch");
  const float* hp = h.data().data();
  float* c = c_.data().data();
  std::vector<double> cn = row_squared_norms(c, k_, d_);
  std::vector<double> dots(static_cast<std::size_t>(k_));
  std::int64_t updates = 0;
  for (std::int64_t i = 0; i < h.dim(0); ++i) {
    const std::int64_t y = labels[static_cast<std::size_t>(i)];
    check_label(y, k_);
    const float* hi = hp + i * d_;
    // Cosine similarity of this row against every prototype.
    const double hnorm = std::sqrt(squared_norm(hi, d_));
    for_each_dot(hi, c, k_, d_, [&](std::int64_t k, double dot) {
      dots[static_cast<std::size_t>(k)] = dot;
    });
    std::int64_t best = 0;
    double best_sim = -2.0, y_sim = 0.0;
    for (std::int64_t k = 0; k < k_; ++k) {
      const double denom = hnorm * std::sqrt(cn[static_cast<std::size_t>(k)]);
      const double sim =
          denom > 0.0 ? dots[static_cast<std::size_t>(k)] / denom : 0.0;
      if (sim > best_sim) {
        best_sim = sim;
        best = k;
      }
      if (k == y) y_sim = sim;
    }
    if (best != y) {
      const float gain_y = lr * static_cast<float>(1.0 - y_sim);
      const float gain_b = lr * static_cast<float>(1.0 - best_sim);
      float* cy = c + y * d_;
      float* cb = c + best * d_;
      for (std::int64_t j = 0; j < d_; ++j) {
        cy[j] += gain_y * hi[j];
        cb[j] -= gain_b * hi[j];
      }
      cn[static_cast<std::size_t>(y)] = squared_norm(cy, d_);
      cn[static_cast<std::size_t>(best)] = squared_norm(cb, d_);
      ++updates;
    }
  }
  return updates;
}

double HdClassifier::accuracy(const Tensor& h,
                              const std::vector<std::int64_t>& labels) const {
  const auto preds = predict(h);
  FHDNN_CHECK(preds.size() == labels.size(), "accuracy size mismatch");
  if (preds.empty()) return 0.0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i] == labels[i]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(preds.size());
}

std::vector<std::int64_t> classify_packed(const PackedModel& prototypes,
                                          const PackedModel& queries) {
  FHDNN_CHECK(prototypes.d == queries.d, "classify_packed dim mismatch: "
                                             << prototypes.d << " vs "
                                             << queries.d);
  FHDNN_CHECK(prototypes.rows > 0, "classify_packed with no prototypes");
  const auto& k = simd::kernels();
  const std::int64_t nw = prototypes.words_per_row();
  std::vector<std::int64_t> out(static_cast<std::size_t>(queries.rows));
  for (std::int64_t i = 0; i < queries.rows; ++i) {
    const std::uint64_t* q = queries.row(i).data();
    std::int64_t best = 0;
    std::uint64_t best_h = k.hamming_words(q, prototypes.row(0).data(), nw);
    for (std::int64_t c = 1; c < prototypes.rows; ++c) {
      const std::uint64_t h =
          k.hamming_words(q, prototypes.row(c).data(), nw);
      if (h < best_h) {
        best_h = h;
        best = c;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

void HdClassifier::set_prototypes(Tensor c) {
  FHDNN_CHECK(c.ndim() == 2 && c.dim(0) == k_ && c.dim(1) == d_,
              "set_prototypes shape " << shape_to_string(c.shape()));
  c_ = std::move(c);
}

}  // namespace fhdnn::hdc
