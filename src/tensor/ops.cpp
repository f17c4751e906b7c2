#include "tensor/ops.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/workspace.hpp"

namespace fhdnn::ops {

namespace {

void check_same_shape(const Tensor& a, const Tensor& b, const char* op) {
  FHDNN_CHECK(a.same_shape(b), op << " shape mismatch: "
                                  << shape_to_string(a.shape()) << " vs "
                                  << shape_to_string(b.shape()));
}

void check_2d(ConstTensorView a, const char* op) {
  FHDNN_CHECK(a.ndim() == 2, op << " expects a 2-d tensor, got "
                                << a.shape_string());
}

void check_same_dims(ConstTensorView a, ConstTensorView b, const char* op) {
  bool same = a.ndim() == b.ndim();
  for (std::int64_t i = 0; same && i < a.ndim(); ++i) {
    same = a.dim(i) == b.dim(i);
  }
  FHDNN_CHECK(same, op << " shape mismatch: " << a.shape_string() << " vs "
                       << b.shape_string());
}

void check_no_alias(TensorView out, ConstTensorView in, const char* op) {
  FHDNN_CHECK(!views_overlap(out, in),
              op << " output must not alias an input");
}

/// Elementwise kernels may run in place (out == in; callers have already
/// checked equal extents) but reject any other overlap: a vector tier
/// loads a whole block before it stores, so a shifted alias would read
/// different values under different tiers.
void check_in_place_or_disjoint(TensorView out, ConstTensorView in,
                                const char* op) {
  FHDNN_CHECK(out.data() == in.data() || !views_overlap(out, in),
              op << " output must not partially overlap an input");
}


/// FHDNN_CHECKED entry guard for `_into` kernels: views must be live (a
/// moved-from or default-constructed Tensor yields a null data pointer the
/// shape checks alone cannot distinguish from a valid buffer).
template <typename... Views>
void checked_entry(const char* op, const Views&... views) {
  (void)op;
  FHDNN_CHECKED_ASSERT(((views.data() != nullptr) && ...),
                       op << "_into kernel received a null view");
}

}  // namespace

void add_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("add", a, b, out);
  check_same_dims(a, b, "add");
  check_same_dims(a, out, "add");
  check_in_place_or_disjoint(out, a, "add");
  check_in_place_or_disjoint(out, b, "add");
  simd::kernels().add_f32(out.data(), a.data(), b.data(), a.numel());
}

Tensor add(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "add");
  Tensor c(a.shape());
  add_into(a, b, c);
  return c;
}

void sub_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("sub", a, b, out);
  check_same_dims(a, b, "sub");
  check_same_dims(a, out, "sub");
  check_in_place_or_disjoint(out, a, "sub");
  check_in_place_or_disjoint(out, b, "sub");
  simd::kernels().sub_f32(out.data(), a.data(), b.data(), a.numel());
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "sub");
  Tensor c(a.shape());
  sub_into(a, b, c);
  return c;
}

void mul_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("mul", a, b, out);
  check_same_dims(a, b, "mul");
  check_same_dims(a, out, "mul");
  check_in_place_or_disjoint(out, a, "mul");
  check_in_place_or_disjoint(out, b, "mul");
  simd::kernels().mul_f32(out.data(), a.data(), b.data(), a.numel());
}

Tensor mul(const Tensor& a, const Tensor& b) {
  check_same_shape(a, b, "mul");
  Tensor c(a.shape());
  mul_into(a, b, c);
  return c;
}

void scale_into(ConstTensorView a, float alpha, TensorView out) {
  checked_entry("scale", a, out);
  check_same_dims(a, out, "scale");
  check_in_place_or_disjoint(out, a, "scale");
  simd::kernels().scale_f32(out.data(), a.data(), alpha, a.numel());
}

Tensor scale(const Tensor& a, float alpha) {
  Tensor c(a.shape());
  scale_into(a, alpha, c);
  return c;
}

void accumulate(TensorView y, ConstTensorView x) {
  checked_entry("accumulate", y, x);
  FHDNN_CHECK(y.numel() == x.numel(),
              "accumulate numel mismatch: " << y.shape_string() << " vs "
                                            << x.shape_string());
  // y += 1.0f * x via the dispatched axpy: the multiply by 1.0f is exact
  // for every float (including NaN/Inf), so this is the same op sequence
  // the plain += loop performed.
  simd::kernels().axpy_f32(y.data(), 1.0F, x.data(), y.numel());
}

namespace {

/// Output rows per matmul / matmul_at task; a task is this many rows of
/// one kGemmCols-column block.
constexpr std::int64_t kGemmRowBlock = 64;

/// c = A * b for A(i, kk) = a[i*a_rs + kk*a_ks] (m x k) and a row-major
/// b (k x n): the shared body of matmul_into and matmul_at_into.
///
/// Lanes across outputs, never across k (DESIGN.md §11): every output is
/// one float lane of the dispatched tile kernel, starting at +0.0 and
/// adding float(A(i, kk) * b[kk][j]) in ascending kk — the axpy ladder
/// over a zero-filled c, op for op, under every tier. No zero-skip:
/// 0 * Inf and 0 * NaN must propagate NaN per IEEE-754 (the channel
/// models rely on it). b rows are contiguous along j, so the tile reads
/// them in place and needs no scratch. Tasks are (64-row block x
/// 16-column block) pairs, row-block major so consecutive tasks reuse the
/// rows of a; each output belongs to one task, so any chunking gives the
/// same bits.
void gemm_tiles(const float* a, std::int64_t a_rs, std::int64_t a_ks,
                const float* b, float* c, std::int64_t m, std::int64_t k,
                std::int64_t n) {
  const std::int64_t row_blocks = (m + kGemmRowBlock - 1) / kGemmRowBlock;
  const std::int64_t col_blocks = (n + simd::kGemmCols - 1) / simd::kGemmCols;
  const auto tile = simd::kernels().matmul_tile;
  parallel::parallel_for(
      0, row_blocks * col_blocks,
      parallel::grain_for(kGemmRowBlock * simd::kGemmCols * k),
      [&](std::int64_t t0, std::int64_t t1) {
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t ib = t / col_blocks, jb = t % col_blocks;
      const std::int64_t j0 = jb * simd::kGemmCols;
      const std::int64_t cols = std::min(simd::kGemmCols, n - j0);
      const std::int64_t i1 = std::min(m, (ib + 1) * kGemmRowBlock);
      for (std::int64_t i = ib * kGemmRowBlock; i < i1; i += simd::kGemmRows) {
        tile(a + i * a_rs, a_rs, a_ks, std::min(simd::kGemmRows, i1 - i),
             b + j0, n, k, c + i * n + j0, n, cols);
      }
    }
  });
}

/// Output rows per matmul_bt task; a task is this many rows of one
/// 16-column block.
constexpr std::int64_t kBtRowBlock = 64;

}  // namespace

void matmul_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("matmul", a, b, out);
  check_2d(a, "matmul");
  check_2d(b, "matmul");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  FHDNN_CHECK(b.dim(0) == k, "matmul inner dims: " << a.shape_string() << " x "
                                                   << b.shape_string());
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul output shape " << out.shape_string());
  check_no_alias(out, a, "matmul");
  check_no_alias(out, b, "matmul");
  gemm_tiles(a.data(), k, 1, b.data(), out.data(), m, k, n);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul");
  check_2d(b, "matmul");
  Tensor c(Shape{a.dim(0), b.dim(1)});
  matmul_into(a, b, c);
  return c;
}

void matmul_bt_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("matmul_bt", a, b, out);
  check_2d(a, "matmul_bt");
  check_2d(b, "matmul_bt");
  const std::int64_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  FHDNN_CHECK(b.dim(1) == k, "matmul_bt inner dims: " << a.shape_string()
                                                      << " x "
                                                      << b.shape_string()
                                                      << "^T");
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul_bt output shape " << out.shape_string());
  check_no_alias(out, a, "matmul_bt");
  check_no_alias(out, b, "matmul_bt");
  const std::int64_t row_blocks = (m + kBtRowBlock - 1) / kBtRowBlock;
  const std::int64_t col_blocks = (n + simd::kTileCols - 1) / simd::kTileCols;
  const std::int64_t tasks = row_blocks * col_blocks;
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // Lanes across outputs, never across k (DESIGN.md §11): every output
  // element is one double lane of the dispatched tile kernel, starting at
  // +0.0 and adding the exact products in ascending kk, rounded to float
  // as it is stored — the sequential reduction the hexfloat goldens pin,
  // bit for bit under every tier.
  //
  // Tasks are (64-row block x 16-column block) pairs, ordered column-block
  // major so a chunk packs each panel once for all its row blocks. Each
  // output belongs to one task, so any chunking gives the same bits. At
  // most one chunk per thread, so the panels (k x 16 floats each) come
  // from the caller's arena up front and the workers allocate nothing.
  const std::int64_t slots =
      parallel::in_parallel_region() ? 1 : parallel::num_threads();
  const std::int64_t grain = std::max(
      (tasks + slots - 1) / slots,
      parallel::grain_for(kBtRowBlock * simd::kTileCols * k));
  const std::int64_t chunks = (tasks + grain - 1) / grain;
  const std::int64_t panel_len = k * simd::kTileCols;
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  float* panels = ws.floats(chunks * panel_len);
  const auto tile = simd::kernels().matmul_bt_tile;
  parallel::parallel_for(0, tasks, grain,
                         [&](std::int64_t t0, std::int64_t t1) {
    float* panel = panels + (t0 / grain) * panel_len;
    std::int64_t packed = -1;
    for (std::int64_t t = t0; t < t1; ++t) {
      const std::int64_t jb = t / row_blocks, ib = t % row_blocks;
      const std::int64_t j0 = jb * simd::kTileCols;
      const std::int64_t cols = std::min(simd::kTileCols, n - j0);
      if (jb != packed) {
        pack_bt_panel(pb + j0 * k, k, cols, panel);
        packed = jb;
      }
      const std::int64_t i1 = std::min(m, (ib + 1) * kBtRowBlock);
      for (std::int64_t i = ib * kBtRowBlock; i < i1; i += simd::kTileRows) {
        const std::int64_t rows = std::min(simd::kTileRows, i1 - i);
        double lanes[simd::kTileRows * simd::kTileCols];
        tile(pa + i * k, k, rows, panel, k, lanes, simd::kTileCols, cols);
        for (std::int64_t r = 0; r < rows; ++r) {
          float* ci = pc + (i + r) * n + j0;
          const double* lr = lanes + r * simd::kTileCols;
          for (std::int64_t j = 0; j < cols; ++j) {
            ci[j] = static_cast<float>(lr[j]);
          }
        }
      }
    }
  });
}

void pack_bt_panel(const float* b, std::int64_t k, std::int64_t cols,
                   float* panel) {
  for (std::int64_t j = 0; j < simd::kTileCols; ++j) {
    float* lane = panel + j;
    if (j < cols) {
      const float* brow = b + j * k;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        lane[kk * simd::kTileCols] = brow[kk];
      }
    } else {
      for (std::int64_t kk = 0; kk < k; ++kk) {
        lane[kk * simd::kTileCols] = 0.0F;
      }
    }
  }
}

Tensor matmul_bt(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_bt");
  check_2d(b, "matmul_bt");
  Tensor c(Shape{a.dim(0), b.dim(0)});
  matmul_bt_into(a, b, c);
  return c;
}

void matmul_at_into(ConstTensorView a, ConstTensorView b, TensorView out) {
  checked_entry("matmul_at", a, b, out);
  check_2d(a, "matmul_at");
  check_2d(b, "matmul_at");
  const std::int64_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  FHDNN_CHECK(b.dim(0) == k, "matmul_at inner dims: " << a.shape_string()
                                                      << "^T x "
                                                      << b.shape_string());
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == m && out.dim(1) == n,
              "matmul_at output shape " << out.shape_string());
  check_no_alias(out, a, "matmul_at");
  check_no_alias(out, b, "matmul_at");
  // a is (k x m), so A(i, kk) = a[kk*m + i]: row stride 1, k stride m.
  gemm_tiles(a.data(), 1, m, b.data(), out.data(), m, k, n);
}

Tensor matmul_at(const Tensor& a, const Tensor& b) {
  check_2d(a, "matmul_at");
  check_2d(b, "matmul_at");
  Tensor c(Shape{a.dim(1), b.dim(1)});
  matmul_at_into(a, b, c);
  return c;
}

void transpose_into(ConstTensorView a, TensorView out) {
  checked_entry("transpose", a, out);
  check_2d(a, "transpose");
  const std::int64_t m = a.dim(0), n = a.dim(1);
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == n && out.dim(1) == m,
              "transpose output shape " << out.shape_string());
  check_no_alias(out, a, "transpose");
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) po[j * m + i] = pa[i * n + j];
  }
}

Tensor transpose(const Tensor& a) {
  check_2d(a, "transpose");
  Tensor t(Shape{a.dim(1), a.dim(0)});
  transpose_into(a, t);
  return t;
}

void linear_forward_into(ConstTensorView x, ConstTensorView weight,
                         ConstTensorView bias, TensorView out) {
  checked_entry("linear_forward", x, weight, bias, out);
  check_2d(x, "linear_forward");
  check_2d(weight, "linear_forward");
  FHDNN_CHECK(bias.ndim() == 1 && bias.dim(0) == weight.dim(0),
              "linear bias shape " << bias.shape_string());
  check_no_alias(out, bias, "linear_forward");
  matmul_bt_into(x, weight, out);
  const std::int64_t n = out.dim(0), cols = out.dim(1);
  float* py = out.data();
  const float* pb = bias.data();
  const auto axpy = simd::kernels().axpy_f32;
  parallel::parallel_for(0, n, parallel::grain_for(cols),
                         [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      // row += 1.0f * bias — the 1.0f multiply is exact, so this matches
      // the former plain += loop bit-for-bit.
      axpy(py + i * cols, 1.0F, pb, cols);
    }
  });
}

Tensor linear_forward(const Tensor& x, const Tensor& weight,
                      const Tensor& bias) {
  check_2d(x, "linear_forward");
  check_2d(weight, "linear_forward");
  Tensor y(Shape{x.dim(0), weight.dim(0)});
  linear_forward_into(x, weight, bias, y);
  return y;
}

std::vector<std::int64_t> argmax_rows(const Tensor& logits) {
  check_2d(logits, "argmax_rows");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  std::vector<std::int64_t> out(static_cast<std::size_t>(n));
  const float* pl = logits.data().data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = pl + i * c;
    std::int64_t best = 0;
    float best_v = row[0];
    for (std::int64_t j = 1; j < c; ++j) {
      if (row[j] > best_v) {
        best_v = row[j];
        best = j;
      }
    }
    out[static_cast<std::size_t>(i)] = best;
  }
  return out;
}

void softmax_rows_into(ConstTensorView logits, TensorView out) {
  checked_entry("softmax_rows", logits, out);
  check_2d(logits, "softmax_rows");
  check_same_dims(logits, out, "softmax_rows");
  const std::int64_t n = logits.dim(0), c = logits.dim(1);
  const float* pl = logits.data();
  float* pp = out.data();
  parallel::parallel_for(0, n, parallel::grain_for(4 * c),
                         [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* lrow = pl + i * c;
      float* prow = pp + i * c;
      float mx = lrow[0];
      for (std::int64_t j = 1; j < c; ++j) mx = std::max(mx, lrow[j]);
      double z = 0.0;
      for (std::int64_t j = 0; j < c; ++j) {
        const float e = std::exp(lrow[j] - mx);
        prow[j] = e;
        z += e;
      }
      const float inv = static_cast<float>(1.0 / z);
      for (std::int64_t j = 0; j < c; ++j) prow[j] *= inv;
    }
  });
}

Tensor softmax_rows(const Tensor& logits) {
  check_2d(logits, "softmax_rows");
  Tensor p(logits.shape());
  softmax_rows_into(logits, p);
  return p;
}

void sum_rows_into(ConstTensorView a, TensorView out) {
  checked_entry("sum_rows", a, out);
  check_2d(a, "sum_rows");
  const std::int64_t n = a.dim(0), c = a.dim(1);
  FHDNN_CHECK(out.ndim() == 1 && out.dim(0) == c,
              "sum_rows output shape " << out.shape_string());
  check_no_alias(out, a, "sum_rows");
  std::fill(out.data(), out.data() + out.numel(), 0.0F);
  const float* pa = a.data();
  float* po = out.data();
  for (std::int64_t i = 0; i < n; ++i) {
    const float* row = pa + i * c;
    for (std::int64_t j = 0; j < c; ++j) po[j] += row[j];
  }
}

Tensor sum_rows(const Tensor& a) {
  check_2d(a, "sum_rows");
  Tensor out(Shape{a.dim(1)});
  sum_rows_into(a, out);
  return out;
}

double dot(const Tensor& a, const Tensor& b) {
  FHDNN_CHECK(a.numel() == b.numel(), "dot numel mismatch");
  double s = 0.0;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i) {
    s += static_cast<double>(ad[i]) * bd[i];
  }
  return s;
}

double cosine_similarity(const Tensor& a, const Tensor& b) {
  const double na = a.l2_norm();
  const double nb = b.l2_norm();
  if (na == 0.0 || nb == 0.0) return 0.0;
  return dot(a, b) / (na * nb);
}

// relu dispatches a compare-and-blend kernel: lanes where x < 0 become
// +0.0 and the rest keep x, which is std::max(x, 0.0f) for every input —
// NaN and -0.0 compare false and pass through. A vector max instruction
// would not be exact (e.g. _mm256_max_ps returns its second operand when
// either input is NaN or both are zeros), so no tier uses one.
void relu_into(ConstTensorView x, TensorView out) {
  checked_entry("relu", x, out);
  FHDNN_CHECK(x.numel() == out.numel(),
              "relu output shape " << out.shape_string());
  check_in_place_or_disjoint(out, x, "relu");
  const float* px = x.data();
  float* po = out.data();
  const auto relu = simd::kernels().relu_f32;
  parallel::parallel_for(0, x.numel(), parallel::grain_for(1),
                         [&](std::int64_t i0, std::int64_t i1) {
    relu(po + i0, px + i0, i1 - i0);
  });
}

Tensor relu(const Tensor& x) {
  Tensor y(x.shape());
  relu_into(x, y);
  return y;
}

void relu_backward_into(ConstTensorView grad_out, ConstTensorView x,
                        TensorView out) {
  checked_entry("relu_backward", grad_out, x, out);
  check_same_dims(grad_out, x, "relu_backward");
  FHDNN_CHECK(grad_out.numel() == out.numel(),
              "relu_backward output shape " << out.shape_string());
  check_in_place_or_disjoint(out, grad_out, "relu_backward");
  check_in_place_or_disjoint(out, x, "relu_backward");
  const float* pg = grad_out.data();
  const float* px = x.data();
  float* po = out.data();
  // Compare-and-blend per lane: x <= 0 (false for NaN) gives +0.0, else g.
  const auto relu_backward = simd::kernels().relu_backward_f32;
  parallel::parallel_for(0, grad_out.numel(), parallel::grain_for(1),
                         [&](std::int64_t i0, std::int64_t i1) {
    relu_backward(po + i0, pg + i0, px + i0, i1 - i0);
  });
}

Tensor relu_backward(const Tensor& grad_out, const Tensor& x) {
  FHDNN_CHECK(grad_out.same_shape(x), "relu_backward shape mismatch");
  Tensor g(grad_out.shape());
  relu_backward_into(grad_out, x, g);
  return g;
}

}  // namespace fhdnn::ops
