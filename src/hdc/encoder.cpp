#include "hdc/encoder.hpp"

#include <cmath>

#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace fhdnn::hdc {

RandomProjectionEncoder::RandomProjectionEncoder(std::int64_t feature_dim,
                                                 std::int64_t hd_dim, Rng& rng)
    : n_(feature_dim), d_(hd_dim), phi_(Shape{hd_dim, feature_dim}) {
  FHDNN_CHECK(feature_dim > 0 && hd_dim > 0,
              "encoder dims n=" << feature_dim << " d=" << hd_dim);
  // Rows uniform on the unit sphere: draw Gaussian, normalize each row.
  float* phi = phi_.data().data();
  for (std::int64_t i = 0; i < d_; ++i) {
    float* row = phi + i * n_;
    double norm_sq = 0.0;
    for (std::int64_t j = 0; j < n_; ++j) {
      const double g = rng.normal();
      row[j] = static_cast<float>(g);
      norm_sq += g * g;
    }
    // A d-row of exact zeros has probability 0 but guard anyway.
    const double norm = std::sqrt(norm_sq);
    FHDNN_CHECK(norm > 0.0, "degenerate projection row");
    const float inv = static_cast<float>(1.0 / norm);
    for (std::int64_t j = 0; j < n_; ++j) row[j] *= inv;
  }
}

void RandomProjectionEncoder::encode_linear_into(ConstTensorView z,
                                                 TensorView h) const {
  const bool batched = z.ndim() == 2;
  FHDNN_CHECK(batched || z.ndim() == 1,
              "encode expects (n) or (N, n), got " << z.shape_string());
  const std::int64_t rows = batched ? z.dim(0) : 1;
  FHDNN_CHECK(z.dim(batched ? 1 : 0) == n_,
              "feature dim " << z.dim(batched ? 1 : 0) << " != encoder n "
                             << n_);
  FHDNN_CHECK(h.numel() == rows * d_,
              "encode output shape " << h.shape_string());
  // View both sides as matrices — no reshape copies.
  const ConstTensorView z2(z.data(), {rows, n_});
  ops::matmul_bt_into(z2, phi_, TensorView(h.data(), {rows, d_}));
}

Tensor RandomProjectionEncoder::encode_linear(const Tensor& z) const {
  const bool batched = z.ndim() == 2;
  FHDNN_CHECK(batched || z.ndim() == 1,
              "encode expects (n) or (N, n), got " << shape_to_string(z.shape()));
  Tensor h(batched ? Shape{z.dim(0), d_} : Shape{d_});
  encode_linear_into(z, h);
  return h;
}

void RandomProjectionEncoder::encode_into(ConstTensorView z,
                                          TensorView h) const {
  encode_linear_into(z, h);
  float* ph = h.data();
  for (std::int64_t i = 0; i < h.numel(); ++i) {
    ph[i] = (ph[i] >= 0.0F) ? 1.0F : -1.0F;
  }
}

Tensor RandomProjectionEncoder::encode(const Tensor& z) const {
  const bool batched = z.ndim() == 2;
  FHDNN_CHECK(batched || z.ndim() == 1,
              "encode expects (n) or (N, n), got " << shape_to_string(z.shape()));
  Tensor h(batched ? Shape{z.dim(0), d_} : Shape{d_});
  encode_into(z, h);
  return h;
}

void RandomProjectionEncoder::reconstruct_into(ConstTensorView h,
                                               TensorView z) const {
  const bool batched = h.ndim() == 2;
  FHDNN_CHECK(batched || h.ndim() == 1,
              "reconstruct expects (d) or (N, d), got " << h.shape_string());
  const std::int64_t rows = batched ? h.dim(0) : 1;
  FHDNN_CHECK(h.dim(batched ? 1 : 0) == d_,
              "hd dim " << h.dim(batched ? 1 : 0) << " != encoder d " << d_);
  FHDNN_CHECK(z.numel() == rows * n_,
              "reconstruct output shape " << z.shape_string());
  // (N, d) x (d, n) -> (N, n); scale by n/d for unbiasedness.
  const TensorView z2(z.data(), {rows, n_});
  ops::matmul_into(ConstTensorView(h.data(), {rows, d_}), phi_, z2);
  ops::scale_into(z2, static_cast<float>(n_) / static_cast<float>(d_), z2);
}

Tensor RandomProjectionEncoder::reconstruct(const Tensor& h) const {
  const bool batched = h.ndim() == 2;
  FHDNN_CHECK(batched || h.ndim() == 1,
              "reconstruct expects (d) or (N, d), got "
                  << shape_to_string(h.shape()));
  Tensor z(batched ? Shape{h.dim(0), n_} : Shape{n_});
  reconstruct_into(h, z);
  return z;
}

}  // namespace fhdnn::hdc
