#include "tensor/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

namespace fhdnn {

std::int64_t shape_numel(const Shape& shape) {
  std::int64_t n = 1;
  for (const auto d : shape) {
    FHDNN_CHECK(d > 0, "shape dim " << d << " must be positive");
    std::int64_t next = 0;
    FHDNN_CHECK(!__builtin_mul_overflow(n, d, &next),
                "shape " << shape_to_string(shape)
                         << " element count overflows int64");
    n = next;
  }
  return n;
}

std::string shape_to_string(const Shape& shape) {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor() : shape_{}, data_(1, 0.0F) {}

Tensor::Tensor(Shape shape)
    : shape_(std::move(shape)),
      data_(static_cast<std::size_t>(shape_numel(shape_)), 0.0F) {}

Tensor::Tensor(Shape shape, std::vector<float> values)
    : shape_(std::move(shape)), data_(std::move(values)) {
  FHDNN_CHECK(shape_numel(shape_) == static_cast<std::int64_t>(data_.size()),
              "shape " << shape_to_string(shape_) << " does not match "
                       << data_.size() << " values");
}

Tensor Tensor::zeros(Shape shape) { return Tensor(std::move(shape)); }

Tensor Tensor::ones(Shape shape) { return full(std::move(shape), 1.0F); }

Tensor Tensor::full(Shape shape, float value) {
  Tensor t(std::move(shape));
  t.fill(value);
  return t;
}

Tensor Tensor::randn(Shape shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  rng.fill_normal(t.vec(), 0.0F, stddev);
  return t;
}

Tensor Tensor::rand(Shape shape, Rng& rng, float lo, float hi) {
  Tensor t(std::move(shape));
  rng.fill_uniform(t.vec(), lo, hi);
  return t;
}

Tensor Tensor::from(std::initializer_list<float> values) {
  return Tensor(Shape{static_cast<std::int64_t>(values.size())},
                std::vector<float>(values));
}

std::int64_t Tensor::dim(std::int64_t i) const {
  const auto n = ndim();
  if (i < 0) i += n;
  FHDNN_CHECK(i >= 0 && i < n,
              "dim " << i << " out of range for " << shape_to_string(shape_));
  return shape_[static_cast<std::size_t>(i)];
}

void Tensor::throw_flat_range(std::int64_t i) const {
  std::ostringstream os;
  os << "flat index " << i << " out of range " << numel();
  detail::throw_check_failure("i >= 0 && i < numel()", __FILE__, __LINE__,
                              os.str());
}

void Tensor::throw_rank(std::size_t n) const {
  std::ostringstream os;
  os << "indexing " << shape_to_string(shape_) << " with " << n
     << " indices";
  detail::throw_check_failure("idx.size() == ndim()", __FILE__, __LINE__,
                              os.str());
}

void Tensor::throw_index_range(std::int64_t i, std::size_t d) const {
  std::ostringstream os;
  os << "index " << i << " out of range for dim " << d << " of "
     << shape_to_string(shape_);
  detail::throw_check_failure("idx[d] >= 0 && idx[d] < shape_[d]", __FILE__,
                              __LINE__, os.str());
}

Tensor Tensor::reshaped(Shape new_shape) const {
  FHDNN_CHECK(shape_numel(new_shape) == numel(),
              "cannot reshape " << shape_to_string(shape_) << " to "
                                << shape_to_string(new_shape));
  return Tensor(std::move(new_shape), data_);
}

void Tensor::ensure_shape(std::initializer_list<std::int64_t> dims) {
  if (shape_.size() == dims.size() &&
      std::equal(shape_.begin(), shape_.end(), dims.begin())) {
    return;
  }
  shape_.assign(dims.begin(), dims.end());
  data_.resize(static_cast<std::size_t>(shape_numel(shape_)));
}

void Tensor::ensure_shape(const Shape& shape) {
  if (shape_ == shape) return;
  shape_ = shape;
  data_.resize(static_cast<std::size_t>(shape_numel(shape_)));
}

void Tensor::assert_invariant() const {
  FHDNN_CHECK(static_cast<std::int64_t>(data_.size()) == shape_numel(shape_),
              "tensor invariant broken: shape " << shape_to_string(shape_)
                                                << " vs " << data_.size()
                                                << " elements");
}

void Tensor::fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Tensor::sum() const {
  double s = 0.0;
  for (const float v : data_) s += v;
  return s;
}

double Tensor::mean() const {
  return data_.empty() ? 0.0 : sum() / static_cast<double>(data_.size());
}

float Tensor::min() const {
  FHDNN_CHECK(!data_.empty(), "min of empty tensor");
  return *std::min_element(data_.begin(), data_.end());
}

float Tensor::max() const {
  FHDNN_CHECK(!data_.empty(), "max of empty tensor");
  return *std::max_element(data_.begin(), data_.end());
}

double Tensor::l2_norm() const {
  double s = 0.0;
  for (const float v : data_) s += static_cast<double>(v) * v;
  return std::sqrt(s);
}

void Tensor::axpy(float alpha, const Tensor& b) {
  FHDNN_CHECK(same_shape(b), "axpy shape mismatch: " << shape_to_string(shape_)
                                                     << " vs "
                                                     << shape_to_string(b.shape_));
  simd::kernels().axpy_f32(data_.data(), alpha, b.data_.data(),
                           static_cast<std::int64_t>(data_.size()));
}

void Tensor::scale(float alpha) {
  simd::kernels().scale_f32(data_.data(), data_.data(), alpha,
                            static_cast<std::int64_t>(data_.size()));
}

}  // namespace fhdnn
