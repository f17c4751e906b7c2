#include "fl/population.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "util/error.hpp"

namespace fhdnn::fl {

ClientPopulation::ClientPopulation(PopulationConfig config, const Rng& root)
    : config_(config), root_(root.fork("population")) {
  FHDNN_CHECK(config_.mean_availability > 0.0 && config_.mean_availability <= 1.0,
              "mean_availability " << config_.mean_availability);
  FHDNN_CHECK(config_.window_seconds > 0.0,
              "window_seconds " << config_.window_seconds);
  FHDNN_CHECK(config_.straggler_fraction >= 0.0 &&
                  config_.straggler_fraction <= 1.0,
              "straggler_fraction " << config_.straggler_fraction);
  FHDNN_CHECK(config_.straggler_slowdown >= 1.0,
              "straggler_slowdown " << config_.straggler_slowdown);
  FHDNN_CHECK(config_.compute_spread >= 0.0,
              "compute_spread " << config_.compute_spread);
  FHDNN_CHECK(config_.link_spread_max >= 1.0,
              "link_spread_max " << config_.link_spread_max);
}

ClientProfile ClientPopulation::profile(std::size_t client) const {
  FHDNN_CHECK(client < config_.n_registered,
              "client " << client << " >= registered " << config_.n_registered);
  // Fixed draw order from the client's named fork — the profile is a pure
  // function of (seed, client) regardless of query order or thread.
  Rng rng = root_.fork("client-" + std::to_string(client));
  ClientProfile p;
  const double a = config_.mean_availability;
  if (a >= 1.0) {
    p.availability = 1.0;
  } else {
    // duty = u^((1-a)/a) for u ~ U(0,1) has E[duty] = 1/((1-a)/a + 1) = a:
    // the fleet-mean awake fraction is exactly `mean_availability`, while
    // individual clients spread across (0, 1] — a few near-always-on
    // devices and a long tail of rarely-awake ones, the shape AIoT fleets
    // actually have.
    p.availability = std::pow(rng.uniform(), (1.0 - a) / a);
  }
  p.period_seconds = config_.window_seconds * rng.uniform(0.5, 1.5);
  p.phase_seconds = rng.uniform(0.0, p.period_seconds);
  p.compute_factor =
      rng.bernoulli(config_.straggler_fraction) ? config_.straggler_slowdown
                                                : 1.0;
  p.compute_factor *= rng.uniform(1.0, 1.0 + config_.compute_spread);
  p.link_factor = rng.uniform(1.0, config_.link_spread_max);
  return p;
}

bool ClientPopulation::available_at(std::size_t client,
                                    double t_seconds) const {
  const ClientProfile p = profile(client);
  if (p.availability >= 1.0) return true;
  const double pos = std::fmod(t_seconds + p.phase_seconds, p.period_seconds);
  return pos < p.availability * p.period_seconds;
}

std::vector<std::size_t> ClientPopulation::sample(Rng& rng,
                                                  std::size_t k) const {
  const std::size_t n = config_.n_registered;
  FHDNN_CHECK(k <= n, "sample k " << k << " > registered " << n);
  std::vector<std::size_t> out;
  if (k == 0) return out;
  out.reserve(k);
  // Rejection sampling: O(k) memory, expected O(k) draws while k << n (the
  // regime this type exists for; even k == n terminates — the last
  // acceptance needs ~n draws on average, giving O(n log n) total, still
  // without an O(n) scratch vector). Membership is a linear-probing table
  // at most half full, allocated once; one sort at the end gives the
  // ascending order callers rely on.
  std::size_t capacity = 2;
  while (capacity < 2 * k) capacity <<= 1;
  const int hash_shift = 64 - std::countr_zero(capacity);
  constexpr std::size_t kEmpty = SIZE_MAX;  // ids are < n <= SIZE_MAX
  std::vector<std::size_t> table(capacity, kEmpty);
  while (out.size() < k) {
    const auto c = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(n) - 1));
    std::size_t slot = static_cast<std::size_t>(
        (static_cast<std::uint64_t>(c) * 0x9E3779B97F4A7C15ULL) >> hash_shift);
    while (table[slot] != kEmpty && table[slot] != c) {
      slot = (slot + 1) & (capacity - 1);
    }
    if (table[slot] == c) continue;
    table[slot] = c;
    out.push_back(c);
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fhdnn::fl
