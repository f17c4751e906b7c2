// Dense row-major float32 tensor.
//
// This is the numeric substrate for the CNN baselines and the HD encoder.
// Scope is deliberately small: contiguous storage, up to 4 dimensions in
// practice (N, C, H, W), value semantics, and bounds-checked indexing.
// Heavy math lives in tensor/ops.hpp and tensor/conv.hpp as free functions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

namespace fhdnn {

using Shape = std::vector<std::int64_t>;

/// Number of elements implied by a shape (1 for the empty shape). Throws
/// fhdnn::Error on non-positive dims and on int64 overflow of the product.
std::int64_t shape_numel(const Shape& shape);

/// "[2, 3, 4]" style rendering for diagnostics.
std::string shape_to_string(const Shape& shape);

class Rng;

/// Contiguous row-major float tensor with value semantics.
class Tensor {
 public:
  /// Empty 0-d tensor holding a single zero. (Convenient as a default.)
  Tensor();

  /// Zero-initialized tensor of the given shape. All dims must be positive.
  explicit Tensor(Shape shape);

  /// Tensor with the given shape adopting `values` (size must match).
  Tensor(Shape shape, std::vector<float> values);

  static Tensor zeros(Shape shape);
  static Tensor ones(Shape shape);
  static Tensor full(Shape shape, float value);
  /// I.i.d. N(0, stddev^2).
  static Tensor randn(Shape shape, Rng& rng, float stddev = 1.0F);
  /// I.i.d. U[lo, hi).
  static Tensor rand(Shape shape, Rng& rng, float lo = 0.0F, float hi = 1.0F);
  /// 1-d tensor from an explicit list.
  static Tensor from(std::initializer_list<float> values);

  const Shape& shape() const { return shape_; }
  std::int64_t ndim() const { return static_cast<std::int64_t>(shape_.size()); }
  /// Size of dimension i; negative i counts from the back.
  std::int64_t dim(std::int64_t i) const;
  std::int64_t numel() const { return static_cast<std::int64_t>(data_.size()); }

  std::span<float> data() { return data_; }
  std::span<const float> data() const { return data_; }
  /// Mutable raw vector access (for serialization layers).
  std::vector<float>& vec() { return data_; }
  const std::vector<float>& vec() const { return data_; }

  /// Flat element access, bounds-checked in every build type. The fast
  /// path is inline; only the throwing path is out of line.
  float& at(std::int64_t i) { return data_[checked_flat(i)]; }
  float at(std::int64_t i) const { return data_[checked_flat(i)]; }

  /// Multi-dimensional access, rank- and bounds-checked in every build
  /// type, up to 4 indices.
  float& operator()(std::int64_t i0) { return data_[flat_index(i0)]; }
  float& operator()(std::int64_t i0, std::int64_t i1) {
    return data_[flat_index(i0, i1)];
  }
  float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) {
    return data_[flat_index(i0, i1, i2)];
  }
  float& operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                    std::int64_t i3) {
    return data_[flat_index(i0, i1, i2, i3)];
  }
  float operator()(std::int64_t i0) const { return data_[flat_index(i0)]; }
  float operator()(std::int64_t i0, std::int64_t i1) const {
    return data_[flat_index(i0, i1)];
  }
  float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2) const {
    return data_[flat_index(i0, i1, i2)];
  }
  float operator()(std::int64_t i0, std::int64_t i1, std::int64_t i2,
                   std::int64_t i3) const {
    return data_[flat_index(i0, i1, i2, i3)];
  }

  /// Return a tensor with the same data and a new shape (numel must match).
  Tensor reshaped(Shape new_shape) const;

  /// Resize this tensor's buffer to the given shape, reusing existing
  /// capacity when possible (no heap traffic once capacity suffices —
  /// layers use this for their steady-state output/cache buffers).
  /// Contents are unspecified after a shape change and untouched when the
  /// shape already matches.
  void ensure_shape(std::initializer_list<std::int64_t> dims);
  void ensure_shape(const Shape& shape);

  /// Check the shape↔data invariant (`data_.size() == shape_numel(shape_)`)
  /// and throw fhdnn::Error if it is broken. `vec()` hands out the raw
  /// vector for serialization layers, which could resize it behind the
  /// shape's back — deserialization paths call this after touching it.
  void assert_invariant() const;

  /// In-place fills.
  void fill(float value);
  void zero() { fill(0.0F); }

  /// Sum of all elements / mean / min / max / L2 norm.
  double sum() const;
  double mean() const;
  float min() const;
  float max() const;
  double l2_norm() const;

  /// a += alpha * b elementwise (shapes must match).
  void axpy(float alpha, const Tensor& b);
  /// a *= alpha.
  void scale(float alpha);

  bool same_shape(const Tensor& other) const { return shape_ == other.shape_; }

 private:
  // Re-validated in debug and in FHDNN_CHECKED contract builds; plain
  // release builds keep only the bounds checks of the accessors.
  void revalidate() const {
#if !defined(NDEBUG) || defined(FHDNN_CHECKED)
    assert_invariant();
#endif
  }

  std::size_t checked_flat(std::int64_t i) const {
    revalidate();
    if (i < 0 || i >= numel()) [[unlikely]] throw_flat_range(i);
    return static_cast<std::size_t>(i);
  }

  template <typename... I>
  std::size_t flat_index(I... i) const {
    revalidate();
    constexpr std::size_t n = sizeof...(I);
    const std::int64_t idx[n] = {i...};
    if (shape_.size() != n) [[unlikely]] throw_rank(n);
    std::int64_t flat = 0;
    for (std::size_t d = 0; d < n; ++d) {
      if (idx[d] < 0 || idx[d] >= shape_[d]) [[unlikely]] {
        throw_index_range(idx[d], d);
      }
      flat = flat * shape_[d] + idx[d];
    }
    return static_cast<std::size_t>(flat);
  }

  // Cold failure paths of the accessors; each throws fhdnn::Error.
  [[noreturn]] void throw_flat_range(std::int64_t i) const;
  [[noreturn]] void throw_rank(std::size_t n) const;
  [[noreturn]] void throw_index_range(std::int64_t i, std::size_t d) const;

  Shape shape_;
  std::vector<float> data_;
};

}  // namespace fhdnn
