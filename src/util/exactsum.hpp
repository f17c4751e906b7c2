// Exact (error-free, associative) float32 summation (DESIGN.md §12).
//
// Floating-point addition is not associative, so a fan-in tree of plain
// `+` reductions gives a different result than a flat left-to-right sum —
// which would make hierarchical aggregation depend on tree shape and
// break the engine's bit-exactness contract. ExactSumVector sidesteps the
// problem instead of bounding it: every float32 is an integer multiple of
// 2^-149 (the subnormal quantum), so a wide fixed-point accumulator can
// represent any finite sum of float32 values exactly.
//
// Carry-save layout: each element is an integer count of 2^-149 quanta
// held as six signed radix-2^48 digits, value = sum_j d_j * 2^(48 j), in
// int64 digit planes (plane j holds digit j of every element; 48 B per
// element). A finite float32 is m * 2^shift quanta with m < 2^24 and
// shift <= 253, so it touches two adjacent digits at most. add() adds
// both parts into their planes WITHOUT propagating carries
// (simd::Kernels::exact_sum_add, one vector lane per element), so digits
// drift out of [0, 2^48) until normalize() carries them back into the
// canonical form: d_0..d_4 in [0, 2^48), d_5 signed.
//
// Normalization bound: one add unit moves any digit by less than 2^48, so
// after P pending units the low digits stay below (P + 1) * 2^48 in
// magnitude and the top digit below 2^62 + P * 2^48. A merge counts the
// other side's pending units plus one; its top digits are summed with an
// overflow check first, and a merged top digit at or past 2^62 normalizes
// at once. normalize() runs before P passes kMaxPending = 2^14, so every
// digit stays inside int64 between normalizations.
//
// Checked range: a canonical top digit lies in [-2^62, 2^62), i.e. the
// total in [-2^302, 2^302) quanta — more than 2^25 terms of FLT_MAX
// magnitude (about 2^277 quanta). A total outside it raises
// ExactSumRangeError from add() (when it normalizes), merges, round_to()
// and save(); it never wraps.
//
// Snapshot image: save() writes each element's canonical value as a
// 384-bit two's-complement integer (6 x uint64 limbs, little-endian,
// element-major), the same bytes whatever the pending carries; load()
// reads it back and rejects images outside the checked range.
//
// Digit addition is integer addition, so accumulation is exactly
// associative and commutative: any grouping of add() calls — flat, a
// fan-in-2 tree, fan-in-16, or merges of partial accumulators via
// add(const ExactSumVector&) — yields the same value and the same
// snapshot bytes, and round_to() performs the ONLY rounding step (single
// round-to-nearest-even back to float32). This is the primitive the
// hierarchical aggregation tree is pinned against.
//
// Inputs must be finite; NaN/Inf have no fixed-point image. add(span)
// validates the whole span before touching any digit, so a rejected span
// leaves the accumulator unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/snapshot.hpp"

namespace fhdnn::util {

/// A total left the checked range [-2^302, 2^302) quanta, or a snapshot
/// image holds one.
class ExactSumRangeError : public Error {
 public:
  explicit ExactSumRangeError(const std::string& what) : Error(what) {}
};

class ExactSumVector : public Snapshotable {
 public:
  /// Snapshot limbs per element: the 384-bit two's-complement image.
  static constexpr std::size_t kLimbs = 6;
  /// Pending add/merge units allowed between normalizations.
  static constexpr std::uint64_t kMaxPending = std::uint64_t{1} << 14;

  ExactSumVector() = default;
  explicit ExactSumVector(std::size_t n);

  std::size_t size() const { return n_; }

  /// Accumulate `values` element-wise (values.size() must equal size()).
  /// Error-free: the accumulator afterwards represents the exact real
  /// sum. Throws on non-finite input, leaving the accumulator unchanged.
  void add(std::span<const float> values);

  /// Merge another accumulator of the same size (digit-wise integer add).
  /// This is the fan-in-tree merge step, exact by construction.
  void add(const ExactSumVector& other);

  /// Round each element's exact sum to the nearest float32 (ties to
  /// even), writing into `out` (out.size() must equal size()). Values
  /// beyond float32 range become +/-inf. Does not modify the accumulator.
  void round_to(std::span<float> out) const;

  /// Reset all elements to zero, keeping the size.
  void clear();

  /// Snapshot the exact fixed-point state (size + canonical limbs)
  /// bit-for-bit; a restored accumulator continues mid-aggregation with
  /// no rounding.
  void save(SnapshotWriter& w) const override;
  void load(SnapshotReader& r) override;

 private:
  /// Propagate pending carries into the canonical digits. Value-preserving;
  /// throws ExactSumRangeError when an element's total is out of range.
  void normalize();

  std::int64_t* plane(std::size_t j) { return digits_.data() + j * n_; }
  const std::int64_t* plane(std::size_t j) const {
    return digits_.data() + j * n_;
  }

  std::size_t n_ = 0;
  // Digit j of element e is digits_[j * n_ + e]; the element's value is
  // sum_j digit_j * 2^(48 j) quanta of 2^-149.
  std::vector<std::int64_t> digits_;
  // Add/merge units since the digits were last canonical.
  std::uint64_t pending_ = 0;
};

}  // namespace fhdnn::util
