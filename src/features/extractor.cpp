#include "features/extractor.hpp"

#include <algorithm>
#include <cmath>

#include "nn/layers.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace fhdnn::features {

namespace {

constexpr std::int64_t kExtractBatch = 64;

}  // namespace

FrozenFeatureExtractor::FrozenFeatureExtractor(Config config)
    : config_(config) {
  FHDNN_CHECK(config_.in_channels > 0 && config_.image_hw >= 8 &&
                  config_.conv_width > 0 && config_.output_dim > 0,
              "FrozenFeatureExtractor config invalid");
  Rng rng(config_.seed);
  Rng trunk_rng = rng.fork("trunk");
  const std::int64_t w1 = config_.conv_width;
  const std::int64_t w2 = 2 * w1;
  const std::int64_t w3 = 4 * w1;
  trunk_channels_ = w3;
  trunk_ = std::make_unique<nn::Sequential>();
  trunk_->add(std::make_unique<nn::Conv2d>(config_.in_channels, w1, 3, 2, 1,
                                           trunk_rng));
  trunk_->add(std::make_unique<nn::ReLU>());
  trunk_->add(std::make_unique<nn::Conv2d>(w1, w2, 3, 2, 1, trunk_rng));
  trunk_->add(std::make_unique<nn::ReLU>());
  trunk_->add(std::make_unique<nn::Conv2d>(w2, w3, 3, 2, 1, trunk_rng));
  trunk_->add(std::make_unique<nn::ReLU>());
  trunk_->add(std::make_unique<nn::Flatten>());
  trunk_->set_training(false);

  // Final feature-map geometry: three stride-2 convs with padding 1.
  std::int64_t hw = config_.image_hw;
  for (int layer = 0; layer < 3; ++layer) hw = (hw + 2 - 3) / 2 + 1;
  trunk_out_dim_ = w3 * hw * hw;

  Rng exp_rng = rng.fork("expansion");
  // Random-features projection with tanh: scale ~ 1/sqrt(fan_in).
  expansion_ = Tensor::randn(
      Shape{config_.output_dim, trunk_out_dim_}, exp_rng,
      1.0F / std::sqrt(static_cast<float>(trunk_out_dim_)));
  expansion_bias_ = Tensor::rand(Shape{config_.output_dim}, exp_rng, -0.1F,
                                 0.1F);
  mean_ = Tensor(Shape{config_.output_dim});
  scale_ = Tensor::ones(Shape{config_.output_dim});
}

void FrozenFeatureExtractor::extract_into(const Tensor& images,
                                          TensorView out) const {
  FHDNN_CHECK(images.ndim() == 4 && images.dim(1) == config_.in_channels &&
                  images.dim(2) == config_.image_hw &&
                  images.dim(3) == config_.image_hw,
              "extract expects (N," << config_.in_channels << ","
                                    << config_.image_hw << ","
                                    << config_.image_hw << "), got "
                                    << shape_to_string(images.shape()));
  const std::int64_t n = images.dim(0);
  FHDNN_CHECK(out.ndim() == 2 && out.dim(0) == n &&
                  out.dim(1) == config_.output_dim,
              "extract output shape " << out.shape_string());
  for (std::int64_t begin = 0; begin < n; begin += kExtractBatch) {
    const std::int64_t len = std::min(kExtractBatch, n - begin);
    batch_.ensure_shape({len, config_.in_channels, config_.image_hw,
                         config_.image_hw});
    const std::int64_t per = batch_.numel() / len;
    std::copy_n(images.data().begin() + static_cast<std::ptrdiff_t>(begin * per),
                len * per, batch_.data().begin());
    const Tensor& flat = trunk_->forward(batch_);  // (len, trunk_out_dim)
    z_.ensure_shape({len, config_.output_dim});
    ops::linear_forward_into(flat, expansion_, expansion_bias_, z_);
    for (auto& v : z_.data()) v = std::tanh(v);
    if (standardized_) {
      const std::int64_t dim = config_.output_dim;
      const float* mu = mean_.data().data();
      const float* sc = scale_.data().data();
      float* pz = z_.data().data();
      for (std::int64_t i = 0; i < len; ++i) {
        float* row = pz + i * dim;
        for (std::int64_t j = 0; j < dim; ++j) {
          row[j] = (row[j] - mu[j]) * sc[j];
        }
      }
    }
    std::copy_n(z_.data().begin(), len * config_.output_dim,
                out.data() + begin * config_.output_dim);
  }
}

Tensor FrozenFeatureExtractor::extract(const Tensor& images) const {
  Tensor out(Shape{images.dim(0), config_.output_dim});
  extract_into(images, out);
  return out;
}

void FrozenFeatureExtractor::fit_standardization(
    const Tensor& calibration_images) {
  FHDNN_CHECK(!standardized_, "standardization already fit");
  const Tensor z = extract(calibration_images);
  const std::int64_t n = z.dim(0);
  FHDNN_CHECK(n >= 2, "need at least 2 calibration images");
  const std::int64_t dim = config_.output_dim;
  const float* pz = z.data().data();
  float* pmean = mean_.data().data();
  float* pscale = scale_.data().data();
  for (std::int64_t j = 0; j < dim; ++j) {
    double sum = 0.0, sum_sq = 0.0;
    for (std::int64_t i = 0; i < n; ++i) {
      const double v = pz[i * dim + j];
      sum += v;
      sum_sq += v * v;
    }
    const double mu = sum / static_cast<double>(n);
    const double var =
        std::max(0.0, sum_sq / static_cast<double>(n) - mu * mu);
    pmean[j] = static_cast<float>(mu);
    pscale[j] = static_cast<float>(1.0 / std::sqrt(var + 1e-6));
  }
  standardized_ = true;
}

std::uint64_t FrozenFeatureExtractor::macs_per_image() const {
  // Three stride-2 convs + the expansion matmul.
  std::uint64_t macs = 0;
  std::int64_t hw = config_.image_hw;
  std::int64_t ic = config_.in_channels;
  std::int64_t oc = config_.conv_width;
  for (int layer = 0; layer < 3; ++layer) {
    const std::int64_t out_hw = (hw + 2 - 3) / 2 + 1;
    macs += static_cast<std::uint64_t>(out_hw * out_hw * oc * ic * 9);
    hw = out_hw;
    ic = oc;
    oc *= 2;
  }
  macs += static_cast<std::uint64_t>(trunk_out_dim_ * config_.output_dim);
  return macs;
}

}  // namespace fhdnn::features
