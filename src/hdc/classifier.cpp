#include "hdc/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/workspace.hpp"

namespace fhdnn::hdc {

// Accumulation-order contract (DESIGN.md §16): every dot product and squared
// norm below is one double accumulator summed over j = 0..d-1 in order.
// Dot products run on simd::Kernels::matmul_bt_tile, one double lane per
// (row, class); squared norms interleave four rows, one accumulator each.
// Neither splits a sum, so tests/test_classifier_exact.cpp pins every
// result bit-for-bit against naive per-element loops.

namespace {

using simd::kTileCols;
using simd::kTileRows;

void check_batch(const Tensor& h, std::int64_t d) {
  FHDNN_CHECK(h.ndim() == 2 && h.dim(1) == d,
              "expected (N, " << d << ") hypervectors, got "
                              << shape_to_string(h.shape()));
}

void check_label(std::int64_t y, std::int64_t k) {
  FHDNN_CHECK(y >= 0 && y < k, "label " << y << " out of range " << k);
}

/// out[r] = sum_j a_r[j]^2 for the four rows a_0..a_3: one accumulator per
/// row in ascending j. The four independent chains overlap their add
/// latency (a single chain costs about 4 cycles per element).
void squared_norms4(const float* a0, const float* a1, const float* a2,
                    const float* a3, std::int64_t d, double* out) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  for (std::int64_t j = 0; j < d; ++j) {
    const double x0 = a0[j], x1 = a1[j], x2 = a2[j], x3 = a3[j];
    s0 += x0 * x0;
    s1 += x1 * x1;
    s2 += x2 * x2;
    s3 += x3 * x3;
  }
  out[0] = s0;
  out[1] = s1;
  out[2] = s2;
  out[3] = s3;
}

/// Squared norm of each row of a (rows x d), four rows per pass. Rows
/// past the end of the last pass recompute its first row and are dropped.
void row_squared_norms(const float* a, std::int64_t rows, std::int64_t d,
                       double* out) {
  for (std::int64_t r = 0; r < rows; r += 4) {
    const std::int64_t live = std::min<std::int64_t>(4, rows - r);
    const auto row = [&](std::int64_t i) {
      return a + (r + (i < live ? i : 0)) * d;
    };
    double s[4];
    squared_norms4(row(0), row(1), row(2), row(3), d, s);
    std::copy(s, s + live, out + r);
  }
}

/// The prototypes c (k_n x d) packed as matmul_bt_tile panels: panel p is
/// the d x 16 block of classes [16p, 16p + 16), lanes past k_n zero.
struct Panels {
  float* data;
  std::int64_t count;
  std::int64_t k_n;
  std::int64_t d;

  const float* panel(std::int64_t p) const { return data + p * d * kTileCols; }
  /// Class k's lane: element j at lane(k)[j * kTileCols].
  float* lane(std::int64_t k) const {
    return data + (k / kTileCols) * d * kTileCols + k % kTileCols;
  }
  /// Live classes (tile columns) of panel p.
  std::int64_t cols(std::int64_t p) const {
    return std::min(kTileCols, k_n - p * kTileCols);
  }
};

Panels pack_panels(const float* c, std::int64_t k_n, std::int64_t d,
                   util::Workspace& ws) {
  const std::int64_t count = (k_n + kTileCols - 1) / kTileCols;
  Panels out{ws.floats(count * d * kTileCols), count, k_n, d};
  for (std::int64_t p = 0; p < count; ++p) {
    ops::pack_bt_panel(c + p * kTileCols * d, d, out.cols(p),
                       out.data + p * d * kTileCols);
  }
  return out;
}

/// Cosine similarity of each row of h (n x d) against each row of c
/// (k_n x d): an (n, k_n) tensor. 4-row tiles are split across the pool;
/// each tile writes only its own output rows.
Tensor cosine_similarities(const float* h, std::int64_t n, const float* c,
                           std::int64_t k_n, std::int64_t d) {
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  const Panels panels = pack_panels(c, k_n, d, ws);
  double* cnorm = ws.doubles(k_n);
  row_squared_norms(c, k_n, d, cnorm);
  for (std::int64_t k = 0; k < k_n; ++k) cnorm[k] = std::sqrt(cnorm[k]);
  Tensor sim(Shape{n, k_n});
  float* sp = sim.data().data();
  const auto tile = simd::kernels().matmul_bt_tile;
  const std::int64_t tiles = (n + kTileRows - 1) / kTileRows;
  parallel::parallel_for(
      0, tiles,
      parallel::grain_for(kTileRows * (panels.count * kTileCols + 1) * d),
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t t = b; t < e; ++t) {
          const std::int64_t i0 = t * kTileRows;
          const std::int64_t rows = std::min(kTileRows, n - i0);
          const float* ht = h + i0 * d;
          double hnorm[kTileRows];
          row_squared_norms(ht, rows, d, hnorm);
          for (std::int64_t r = 0; r < rows; ++r) {
            hnorm[r] = std::sqrt(hnorm[r]);
          }
          for (std::int64_t p = 0; p < panels.count; ++p) {
            const std::int64_t cols = panels.cols(p);
            double dots[kTileRows * kTileCols];
            tile(ht, d, rows, panels.panel(p), d, dots, kTileCols, cols);
            for (std::int64_t r = 0; r < rows; ++r) {
              float* si = sp + (i0 + r) * k_n + p * kTileCols;
              const double* dr = dots + r * kTileCols;
              for (std::int64_t j = 0; j < cols; ++j) {
                const double denom = hnorm[r] * cnorm[p * kTileCols + j];
                si[j] = denom > 0.0 ? static_cast<float>(dr[j] / denom) : 0.0F;
              }
            }
          }
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

/// A refinement rule's verdict on one row: the predicted class and the
/// gains an update would apply (c_y += gain_y * h, c_best -= gain_b * h).
struct Step {
  std::int64_t best;
  float gain_y;
  float gain_b;
};

/// Online refinement of the prototypes c (k_n x d) over the rows of h:
/// each row is predicted against the prototypes every earlier row's update
/// left, and a mispredict (best != y) updates c_y and c_best at once.
///
/// The dots are computed speculatively, kTileRows rows per tile call
/// against the current panels. The rows are then walked in order; at the
/// first mispredict the update is applied to c, to the two panel lanes and
/// to the two cached norms, and the next block starts at the following
/// row — the dots computed for the rest of the block saw stale prototypes
/// and are dropped. So every row's dots are the sums the sequential loop
/// would form, bit for bit. `rule(row, dots, cn)` reads the row's dots and
/// the cached squared norms (both indexed by class) and returns the Step.
template <typename Rule>
std::int64_t refine_online(const float* h, std::int64_t n,
                           const std::vector<std::int64_t>& labels, float* c,
                           std::int64_t k_n, std::int64_t d, Rule&& rule) {
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  const Panels panels = pack_panels(c, k_n, d, ws);
  // Prototype norms, computed once and then only for the rows an update
  // touches — the same j-order sums a fresh pass would form.
  double* cn = ws.doubles(k_n);
  row_squared_norms(c, k_n, d, cn);
  const std::int64_t ldd = panels.count * kTileCols;
  double* dots = ws.doubles(kTileRows * ldd);
  const auto tile = simd::kernels().matmul_bt_tile;
  std::int64_t updates = 0;
  std::int64_t i = 0;
  while (i < n) {
    const std::int64_t rows = std::min(kTileRows, n - i);
    for (std::int64_t p = 0; p < panels.count; ++p) {
      tile(h + i * d, d, rows, panels.panel(p), d, dots + p * kTileCols, ldd,
           panels.cols(p));
    }
    std::int64_t next = i + rows;
    for (std::int64_t r = 0; r < rows; ++r) {
      const std::int64_t row = i + r;
      const std::int64_t y = labels[static_cast<std::size_t>(row)];
      check_label(y, k_n);
      const Step step = rule(row, dots + r * ldd, cn);
      if (step.best == y) continue;
      const float* hi = h + row * d;
      float* cy = c + y * d;
      float* cb = c + step.best * d;
      float* py = panels.lane(y);
      float* pb = panels.lane(step.best);
      for (std::int64_t j = 0; j < d; ++j) {
        cy[j] += step.gain_y * hi[j];
        cb[j] -= step.gain_b * hi[j];
        py[j * kTileCols] = cy[j];
        pb[j * kTileCols] = cb[j];
      }
      double norms[4];
      squared_norms4(cy, cb, cy, cb, d, norms);
      cn[y] = norms[0];
      cn[step.best] = norms[1];
      ++updates;
      next = row + 1;
      break;
    }
    i = next;
  }
  return updates;
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
  // Fixed step: argmax of dot / |c| (the query norm cannot change it).
  return refine_online(
      h.data().data(), h.dim(0), labels, c_.data().data(), k_, d_,
      [&](std::int64_t /*row*/, const double* dots, const double* cn) {
        std::int64_t best = 0;
        double best_sim = -2.0;
        for (std::int64_t k = 0; k < k_; ++k) {
          const double sim = cn[k] > 0.0 ? dots[k] / std::sqrt(cn[k]) : 0.0;
          if (sim > best_sim) {
            best_sim = sim;
            best = k;
          }
        }
        return Step{best, lr, lr};
      });
}

std::int64_t HdClassifier::refine_epoch_adaptive(
    const Tensor& h, const std::vector<std::int64_t>& labels, float lr) {
  check_batch(h, d_);
  FHDNN_CHECK(static_cast<std::int64_t>(labels.size()) == h.dim(0),
              "refine labels size mismatch");
  const std::int64_t n = h.dim(0);
  const float* hp = h.data().data();
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  // Query norms do not depend on the prototypes: one pass up front.
  double* hnorm = ws.doubles(n);
  row_squared_norms(hp, n, d_, hnorm);
  for (std::int64_t i = 0; i < n; ++i) hnorm[i] = std::sqrt(hnorm[i]);
  // Margin-scaled step on the full cosine.
  return refine_online(
      hp, n, labels, c_.data().data(), k_, d_,
      [&](std::int64_t row, const double* dots, const double* cn) {
        const std::int64_t y = labels[static_cast<std::size_t>(row)];
        std::int64_t best = 0;
        double best_sim = -2.0, y_sim = 0.0;
        for (std::int64_t k = 0; k < k_; ++k) {
          const double denom = hnorm[row] * std::sqrt(cn[k]);
          const double sim = denom > 0.0 ? dots[k] / denom : 0.0;
          if (sim > best_sim) {
            best_sim = sim;
            best = k;
          }
          if (k == y) y_sim = sim;
        }
        return Step{best, lr * static_cast<float>(1.0 - y_sim),
                    lr * static_cast<float>(1.0 - best_sim)};
      });
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
