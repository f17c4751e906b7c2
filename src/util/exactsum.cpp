#include "util/exactsum.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <sstream>

#include "util/simd.hpp"

namespace fhdnn::util {

namespace {

constexpr std::size_t kDigits = simd::kExactSumDigits;
constexpr int kDigitBits = simd::kExactSumDigitBits;
constexpr std::uint64_t kDigitMask = (1ULL << kDigitBits) - 1;
// Canonical top digits lie in [-kTopLimit, kTopLimit): totals in
// [-2^302, 2^302) quanta.
constexpr std::int64_t kTopLimit = std::int64_t{1} << 62;

[[noreturn]] void throw_range(const char* where, std::size_t element) {
  std::ostringstream os;
  os << "ExactSumVector::" << where << ": element " << element
     << " total outside [-2^302, 2^302) quanta of 2^-149";
  throw ExactSumRangeError(os.str());
}

/// Carries one element's digits into canonical form in place. Returns false
/// (digits unspecified) when the total is outside the checked range.
bool carry(std::int64_t (&d)[kDigits]) {
  std::int64_t c = 0;
  for (std::size_t j = 0; j + 1 < kDigits; ++j) {
    const std::int64_t t = d[j] + c;
    d[j] = static_cast<std::int64_t>(static_cast<std::uint64_t>(t) &
                                     kDigitMask);
    c = t >> kDigitBits;  // floor division: the borrow of a negative digit
  }
  std::int64_t& top = d[kDigits - 1];
  return !__builtin_add_overflow(top, c, &top) && top >= -kTopLimit &&
         top < kTopLimit;
}

/// Element e of a digit-plane array (plane stride n), carried into
/// canonical form; throws when its total is out of range.
void canonical(const std::int64_t* digits, std::size_t n, std::size_t e,
               const char* where, std::int64_t (&d)[kDigits]) {
  for (std::size_t j = 0; j < kDigits; ++j) d[j] = digits[j * n + e];
  if (!carry(d)) throw_range(where, e);
}

/// Canonical digits -> the 384-bit two's-complement snapshot limbs.
void to_limbs(const std::int64_t (&d)[kDigits], std::uint64_t* limbs) {
  const auto u = [&d](std::size_t j) {
    return static_cast<std::uint64_t>(d[j]);
  };
  limbs[0] = u(0) | u(1) << 48;
  limbs[1] = u(1) >> 16 | u(2) << 32;
  limbs[2] = u(2) >> 32 | u(3) << 16;
  limbs[3] = u(4) | u(5) << 48;
  limbs[4] = static_cast<std::uint64_t>(d[5] >> 16);
  limbs[5] = static_cast<std::uint64_t>(d[5] >> 63);
}

/// Snapshot limbs -> canonical digits; false when the image is outside the
/// checked range (bits 302..383 not all equal to the sign).
bool from_limbs(const std::uint64_t* limbs, std::int64_t (&d)[kDigits]) {
  d[0] = static_cast<std::int64_t>(limbs[0] & kDigitMask);
  d[1] = static_cast<std::int64_t>((limbs[0] >> 48 | limbs[1] << 16) &
                                   kDigitMask);
  d[2] = static_cast<std::int64_t>((limbs[1] >> 32 | limbs[2] << 32) &
                                   kDigitMask);
  d[3] = static_cast<std::int64_t>(limbs[2] >> 16);
  d[4] = static_cast<std::int64_t>(limbs[3] & kDigitMask);
  d[5] = static_cast<std::int64_t>(limbs[3] >> 48 | limbs[4] << 16);
  const std::uint64_t sign = d[5] < 0 ? ~0ULL : 0ULL;
  return limbs[5] == sign && (limbs[4] >> 48) == (sign >> 48) &&
         d[5] >= -kTopLimit && d[5] < kTopLimit;
}

/// Round a 384-bit two's-complement count of 2^-149 quanta to the nearest
/// float32 (ties to even).
float round_limbs(const std::uint64_t* elem) {
  constexpr std::size_t kLimbs = ExactSumVector::kLimbs;
  // Sign from the top bit; work on the magnitude.
  const bool negative = (elem[kLimbs - 1] >> 63) != 0;
  std::uint64_t mag[kLimbs];
  if (negative) {
    std::uint64_t carry = 1;
    for (std::size_t i = 0; i < kLimbs; ++i) {
      mag[i] = ~elem[i] + carry;
      carry = (carry != 0 && mag[i] == 0) ? 1 : 0;
    }
  } else {
    for (std::size_t i = 0; i < kLimbs; ++i) mag[i] = elem[i];
  }
  // Most significant set bit, as a quantum (2^-149) bit position.
  int msb = -1;
  for (int i = static_cast<int>(kLimbs) - 1; i >= 0; --i) {
    if (mag[i] != 0) {
      msb = i * 64 + 63 - std::countl_zero(mag[i]);
      break;
    }
  }
  std::uint32_t bits = 0;
  if (msb < 0) {
    bits = 0;  // exact zero rounds to +0.0f
  } else if (msb <= 23) {
    // mag < 2^24: mag quanta encode exactly as the raw bit pattern
    // (subnormals for mag < 2^23, smallest normals just above).
    bits = static_cast<std::uint32_t>(mag[0]);
  } else {
    // Extract the top 24 bits as the significand, then round to
    // nearest (ties to even) using guard and sticky bits.
    const int lo_bit = msb - 23;
    const int li = lo_bit / 64;
    const int off = lo_bit % 64;
    std::uint64_t window = mag[li] >> off;
    if (off != 0 && li + 1 < static_cast<int>(kLimbs)) {
      window |= mag[li + 1] << (64 - off);
    }
    std::uint32_t sig = static_cast<std::uint32_t>(window & 0xFFFFFFU);
    const int guard_bit = lo_bit - 1;
    const bool guard =
        ((mag[guard_bit / 64] >> (guard_bit % 64)) & 1ULL) != 0;
    bool sticky = false;
    const int gli = guard_bit / 64;
    const int goff = guard_bit % 64;
    if (goff > 0) sticky = (mag[gli] & ((1ULL << goff) - 1)) != 0;
    for (int i = 0; i < gli && !sticky; ++i) sticky = mag[i] != 0;
    int p = msb;
    if (guard && (sticky || (sig & 1U) != 0)) {
      ++sig;
      if (sig == (1U << 24)) {  // rounded up across a power of two
        sig >>= 1;
        ++p;
      }
    }
    const int exp = p - 22;  // biased: value = sig * 2^(p-23) quanta
    if (exp >= 255) {
      bits = 0x7F800000U;  // overflow -> infinity
    } else {
      bits = (static_cast<std::uint32_t>(exp) << 23) | (sig & 0x7FFFFFU);
    }
  }
  if (negative) bits |= 0x80000000U;
  return std::bit_cast<float>(bits);
}

}  // namespace

ExactSumVector::ExactSumVector(std::size_t n)
    : n_(n), digits_(n * kDigits, 0) {}

void ExactSumVector::add(std::span<const float> values) {
  FHDNN_CHECK(values.size() == n_,
              "ExactSumVector::add size " << values.size() << " != " << n_);
  // Validate everything before the first digit moves (strong guarantee).
  const auto bad = std::find_if(values.begin(), values.end(),
                                [](float x) { return !std::isfinite(x); });
  FHDNN_CHECK(bad == values.end(),
              "ExactSumVector::add non-finite input at element "
                  << (bad - values.begin()));
  if (pending_ >= kMaxPending) normalize();
  simd::kernels().exact_sum_add(digits_.data(), static_cast<std::int64_t>(n_),
                                values.data(), static_cast<std::int64_t>(n_));
  ++pending_;
}

void ExactSumVector::add(const ExactSumVector& other) {
  FHDNN_CHECK(other.n_ == n_,
              "ExactSumVector::add(acc) size " << other.n_ << " != " << n_);
  if (pending_ + other.pending_ + 1 > kMaxPending) normalize();
  // Top digits first, read-only. An int64 overflow there means the total
  // is out of range (the low digits carry less than 2^16 into the top), so
  // throw before anything moves; a sum at or past the canonical bound
  // normalizes right after the merge.
  const std::int64_t* top = plane(kDigits - 1);
  const std::int64_t* other_top = other.plane(kDigits - 1);
  std::uint64_t overflow = 0;
  std::uint64_t wide = 0;
  for (std::size_t e = 0; e < n_; ++e) {
    const auto a = static_cast<std::uint64_t>(top[e]);
    const auto b = static_cast<std::uint64_t>(other_top[e]);
    const std::uint64_t s = a + b;
    overflow |= (a ^ s) & (b ^ s);  // sign bit: both operands differ from s
    wide |= s ^ (s << 1);           // sign bit: s outside [-2^62, 2^62)
  }
  if ((overflow >> 63) != 0) {
    throw ExactSumRangeError(
        "ExactSumVector::add(acc): merged total outside [-2^302, 2^302) "
        "quanta of 2^-149");
  }
  for (std::size_t i = 0; i < digits_.size(); ++i) {
    digits_[i] += other.digits_[i];
  }
  pending_ += other.pending_ + 1;
  if ((wide >> 63) != 0 || pending_ > kMaxPending) normalize();
}

void ExactSumVector::normalize() {
  if (pending_ == 0) return;
  for (std::size_t e = 0; e < n_; ++e) {
    std::int64_t d[kDigits];
    // The element stays untouched when it is out of range.
    canonical(digits_.data(), n_, e, "normalize", d);
    for (std::size_t j = 0; j < kDigits; ++j) plane(j)[e] = d[j];
  }
  pending_ = 0;
}

void ExactSumVector::round_to(std::span<float> out) const {
  FHDNN_CHECK(out.size() == n_,
              "ExactSumVector::round_to size " << out.size() << " != " << n_);
  for (std::size_t e = 0; e < n_; ++e) {
    std::int64_t d[kDigits];
    canonical(digits_.data(), n_, e, "round_to", d);
    std::uint64_t limbs[kLimbs];
    to_limbs(d, limbs);
    out[e] = round_limbs(limbs);
  }
}

void ExactSumVector::clear() {
  std::fill(digits_.begin(), digits_.end(), 0);
  pending_ = 0;
}

void ExactSumVector::save(SnapshotWriter& w) const {
  std::vector<std::uint64_t> limbs(n_ * kLimbs);
  for (std::size_t e = 0; e < n_; ++e) {
    std::int64_t d[kDigits];
    canonical(digits_.data(), n_, e, "save", d);
    to_limbs(d, limbs.data() + e * kLimbs);
  }
  w.write_u64(n_);
  w.write_u64s(limbs);
}

void ExactSumVector::load(SnapshotReader& r) {
  const auto n = static_cast<std::size_t>(r.read_u64());
  const std::vector<std::uint64_t> limbs = r.read_u64s();
  FHDNN_CHECK(limbs.size() % kLimbs == 0 && limbs.size() / kLimbs == n,
              "exactsum snapshot: " << limbs.size() << " limbs for " << n
                                    << " elements");
  std::vector<std::int64_t> digits(n * kDigits);
  for (std::size_t e = 0; e < n; ++e) {
    std::int64_t d[kDigits];
    if (!from_limbs(limbs.data() + e * kLimbs, d)) throw_range("load", e);
    for (std::size_t j = 0; j < kDigits; ++j) digits[j * n + e] = d[j];
  }
  n_ = n;
  digits_ = std::move(digits);
  pending_ = 0;
}

}  // namespace fhdnn::util
