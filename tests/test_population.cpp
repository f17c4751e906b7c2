// Tests for the discrete-event federation layer (DESIGN.md §12): the
// EventQueue total order and clock contract (fl/events.hpp), the sparse
// ClientPopulation profile/availability/sampling model (fl/population.hpp),
// and the engine's population and buffered-async round modes
// (fl/engine.hpp) — including the FedBuff-style staleness buffer in
// ProtocolAdapter and thread-count invariance of the new modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "channel/transport.hpp"
#include "fl/engine.hpp"
#include "fl/events.hpp"
#include "fl/population.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

/// Restores the configured thread count when a test exits.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(parallel::num_threads()) {}
  ~ThreadGuard() { parallel::set_num_threads(saved_); }

 private:
  int saved_;
};

// ------------------------------------------------------------- EventQueue

TEST(EventQueue, PopsInTimeOrderRegardlessOfInsertionOrder) {
  const std::vector<fl::Event> events = {
      {3.0, 1, 0, fl::EventKind::kUploadArrival, 0},
      {1.0, 2, 0, fl::EventKind::kTrainDone, 1},
      {2.0, 0, 0, fl::EventKind::kUploadArrival, 2},
      {1.5, 9, 0, fl::EventKind::kTrainDone, 3},
  };
  // Every permutation of pushes yields the same pop sequence.
  std::vector<std::size_t> order = {0, 1, 2, 3};
  std::vector<double> reference;
  do {
    fl::EventQueue q;
    for (const auto i : order) q.push(events[i]);
    std::vector<double> times;
    while (!q.empty()) times.push_back(q.pop().time);
    if (reference.empty()) {
      reference = times;
      EXPECT_TRUE(std::is_sorted(reference.begin(), reference.end()));
    } else {
      EXPECT_EQ(times, reference);
    }
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(EventQueue, TiesBreakByClientThenSeq) {
  fl::EventQueue q;
  q.push({1.0, 7, 1, fl::EventKind::kUploadArrival, 0});
  q.push({1.0, 7, 0, fl::EventKind::kTrainDone, 1});
  q.push({1.0, 2, 5, fl::EventKind::kUploadArrival, 2});
  EXPECT_EQ(q.pop().client, 2U);
  const fl::Event second = q.pop();
  EXPECT_EQ(second.client, 7U);
  EXPECT_EQ(second.seq, 0U);
  EXPECT_EQ(q.pop().seq, 1U);
}

TEST(EventQueue, DeadlineSortsAfterSameInstantArrivals) {
  // kDeadline carries client = SIZE_MAX, so an upload landing exactly at
  // the deadline still pops first — the engine's `<=` acceptance rule.
  fl::EventQueue q;
  q.push({5.0, std::numeric_limits<std::size_t>::max(), 0,
          fl::EventKind::kDeadline, 0});
  q.push({5.0, 3, 1, fl::EventKind::kUploadArrival, 0});
  EXPECT_EQ(q.pop().kind, fl::EventKind::kUploadArrival);
  EXPECT_EQ(q.pop().kind, fl::EventKind::kDeadline);
}

TEST(EventQueue, ClockAdvancesAndRejectsThePast) {
  fl::EventQueue q;
  EXPECT_DOUBLE_EQ(q.now(), 0.0);
  q.push({2.0, 0, 0, fl::EventKind::kTrainDone, 0});
  q.push({4.0, 0, 1, fl::EventKind::kTrainDone, 0});
  EXPECT_EQ(q.size(), 2U);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 2.0);
  // Scheduling before now() is a contract violation...
  EXPECT_THROW(q.push({1.0, 0, 2, fl::EventKind::kTrainDone, 0}),
               Error);
  // ...as are non-finite instants.
  EXPECT_THROW(
      q.push({std::numeric_limits<double>::quiet_NaN(), 0, 2,
              fl::EventKind::kTrainDone, 0}),
      Error);
  (void)q.pop();
  EXPECT_DOUBLE_EQ(q.now(), 4.0);
  EXPECT_EQ(q.processed(), 2U);
  EXPECT_THROW(q.pop(), Error);
  q.clear(1.5);
  EXPECT_DOUBLE_EQ(q.now(), 1.5);
  EXPECT_EQ(q.processed(), 0U);
  EXPECT_THROW(q.push({1.0, 0, 0, fl::EventKind::kTrainDone, 0}),
               Error);
}

TEST(EventQueue, ThreadedPushesPopDeterministically) {
  // The pop order must not depend on which thread pushed what.
  ThreadGuard guard;
  std::vector<std::uint64_t> reference;
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    fl::EventQueue q;
    parallel::parallel_for(0, 64, 1, [&](std::int64_t i0, std::int64_t i1) {
      for (std::int64_t i = i0; i < i1; ++i) {
        const auto c = static_cast<std::size_t>((i * 37) % 64);
        q.push({static_cast<double>(i % 7), c,
                static_cast<std::uint64_t>(i), fl::EventKind::kTrainDone,
                static_cast<std::size_t>(i)});
      }
    });
    std::vector<std::uint64_t> seqs;
    while (!q.empty()) seqs.push_back(q.pop().seq);
    if (reference.empty()) {
      reference = seqs;
    } else {
      EXPECT_EQ(seqs, reference) << "at " << threads << " threads";
    }
  }
}

// ------------------------------------------------------- ClientPopulation

fl::PopulationConfig big_population() {
  fl::PopulationConfig cfg;
  cfg.n_registered = 1'000'000;
  cfg.mean_availability = 0.5;
  cfg.window_seconds = 600.0;
  cfg.straggler_fraction = 0.2;
  cfg.straggler_slowdown = 4.0;
  cfg.compute_spread = 0.5;
  cfg.link_spread_max = 3.0;
  return cfg;
}

TEST(ClientPopulation, ProfilesArePureFunctionsOfSeedAndClient) {
  const Rng root(99);
  const fl::ClientPopulation pop(big_population(), root);
  const fl::ClientPopulation again(big_population(), root);
  for (const std::size_t c : {0UL, 1UL, 123'456UL, 999'999UL}) {
    const auto p1 = pop.profile(c);
    const auto p2 = pop.profile(c);      // same object, repeated query
    const auto p3 = again.profile(c);    // fresh object, same seed
    EXPECT_DOUBLE_EQ(p1.availability, p2.availability);
    EXPECT_DOUBLE_EQ(p1.availability, p3.availability);
    EXPECT_DOUBLE_EQ(p1.period_seconds, p3.period_seconds);
    EXPECT_DOUBLE_EQ(p1.phase_seconds, p3.phase_seconds);
    EXPECT_DOUBLE_EQ(p1.compute_factor, p3.compute_factor);
    EXPECT_DOUBLE_EQ(p1.link_factor, p3.link_factor);
    // Bounds from the config.
    EXPECT_GT(p1.availability, 0.0);
    EXPECT_LE(p1.availability, 1.0);
    EXPECT_GE(p1.period_seconds, 300.0);
    EXPECT_LE(p1.period_seconds, 900.0);
    EXPECT_GE(p1.phase_seconds, 0.0);
    EXPECT_LE(p1.phase_seconds, p1.period_seconds);
    EXPECT_GE(p1.compute_factor, 1.0);
    EXPECT_LE(p1.compute_factor, 4.0 * 1.5);
    EXPECT_GE(p1.link_factor, 1.0);
    EXPECT_LE(p1.link_factor, 3.0);
  }
  EXPECT_THROW(pop.profile(1'000'000), Error);
}

TEST(ClientPopulation, DutyFactorsAverageToMeanAvailability) {
  const Rng root(7);
  const fl::ClientPopulation pop(big_population(), root);
  double sum = 0.0;
  const std::size_t n = 20'000;
  for (std::size_t c = 0; c < n; ++c) sum += pop.profile(c).availability;
  // E[u^((1-a)/a)] = a exactly; 20k draws put the sample mean well within
  // a few percent of 0.5.
  EXPECT_NEAR(sum / static_cast<double>(n), 0.5, 0.02);
}

TEST(ClientPopulation, AvailabilityWindowsMatchTheProfile) {
  const Rng root(11);
  const fl::ClientPopulation pop(big_population(), root);
  for (std::size_t c = 0; c < 200; ++c) {
    const auto p = pop.profile(c);
    // The predicate must agree with the closed-form window arithmetic at
    // arbitrary instants, and an always-on client is always available.
    for (const double t : {0.0, 17.3, 599.9, 12'345.6}) {
      const double pos = std::fmod(t + p.phase_seconds, p.period_seconds);
      const bool expected =
          p.availability >= 1.0 || pos < p.availability * p.period_seconds;
      EXPECT_EQ(pop.available_at(c, t), expected) << "client " << c << " t "
                                                  << t;
    }
    // Awake fraction over a full period ~ availability.
    int awake = 0;
    const int steps = 1000;
    for (int s = 0; s < steps; ++s) {
      const double t = p.period_seconds * static_cast<double>(s) /
                       static_cast<double>(steps);
      if (pop.available_at(c, t)) ++awake;
    }
    EXPECT_NEAR(static_cast<double>(awake) / steps, p.availability, 0.01);
  }
}

TEST(ClientPopulation, AlwaysOnFleetIsAlwaysAvailable) {
  fl::PopulationConfig cfg;
  cfg.n_registered = 1000;
  cfg.mean_availability = 1.0;
  const fl::ClientPopulation pop(cfg, Rng(3));
  for (std::size_t c = 0; c < 1000; c += 97) {
    EXPECT_TRUE(pop.available_at(c, 1e9));
  }
}

TEST(ClientPopulation, SampleDrawsSortedDistinctIdsInOkMemory) {
  const fl::ClientPopulation pop(big_population(), Rng(5));
  Rng rng(42);
  const auto picks = pop.sample(rng, 10'000);
  ASSERT_EQ(picks.size(), 10'000U);
  EXPECT_TRUE(std::is_sorted(picks.begin(), picks.end()));
  EXPECT_EQ(std::adjacent_find(picks.begin(), picks.end()), picks.end());
  EXPECT_LT(picks.back(), 1'000'000U);
  // Deterministic given the rng stream.
  Rng rng2(42);
  EXPECT_EQ(pop.sample(rng2, 10'000), picks);
  // Empty draw is empty, not clamped to 1.
  Rng rng3(1);
  EXPECT_TRUE(pop.sample(rng3, 0).empty());
  EXPECT_THROW(pop.sample(rng3, 1'000'001), Error);
}

TEST(ClientPopulation, SampleCoversTheWholeIdSpace) {
  // k == n must terminate and return every id exactly once.
  fl::PopulationConfig cfg;
  cfg.n_registered = 512;
  const fl::ClientPopulation pop(cfg, Rng(8));
  Rng rng(9);
  const auto picks = pop.sample(rng, 512);
  ASSERT_EQ(picks.size(), 512U);
  for (std::size_t i = 0; i < picks.size(); ++i) EXPECT_EQ(picks[i], i);
}

/// The sampler's former body, verbatim: rejection with a sorted accept
/// list and one vector::insert per accepted draw.
std::vector<std::size_t> sorted_insert_sample(Rng& rng, std::size_t n,
                                              std::size_t k) {
  std::vector<std::size_t> out;
  if (k == 0) return out;
  out.reserve(k);
  while (out.size() < k) {
    const auto c = static_cast<std::size_t>(
        rng.randint(0, static_cast<std::int64_t>(n) - 1));
    const auto it = std::lower_bound(out.begin(), out.end(), c);
    if (it != out.end() && *it == c) continue;
    out.insert(it, c);
  }
  return out;
}

TEST(ClientPopulation, SampleMatchesTheSortedInsertOracle) {
  // Same picks and the same stream position afterwards: the draw sequence
  // (every rejected duplicate included) is unchanged.
  const std::pair<std::size_t, std::size_t> cases[] = {
      {1, 1}, {10, 10}, {1000, 1}, {20'000, 20'000}, {1'000'000, 12'500}};
  for (const auto& [n, k] : cases) {
    SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
    fl::PopulationConfig cfg;
    cfg.n_registered = n;
    const fl::ClientPopulation pop(cfg, Rng(3));
    Rng rng(1234 + n);
    Rng oracle_rng = rng;
    EXPECT_EQ(pop.sample(rng, k), sorted_insert_sample(oracle_rng, n, k));
    EXPECT_EQ(rng.randint(0, 1'000'000'000),
              oracle_rng.randint(0, 1'000'000'000));
  }
}

// ------------------------------------------- engine: population rounds

/// Minimal protocol whose per-client transport stats are a pure function
/// of the client id, so event times are deterministic and distinct.
class StatsProtocol : public fl::RoundProtocol {
 public:
  void begin_round(const Rng& /*round_rng*/, std::size_t n) override {
    last_slots = n;
  }

  fl::ClientReport run_client(std::size_t /*slot*/, std::size_t client,
                              const Rng& /*round_rng*/,
                              bool delivered) override {
    ++clients_run;
    fl::ClientReport r;
    r.loss = 1.0;
    if (delivered) {
      r.stats.payload_bytes = 100;
      r.stats.bits_on_air = 100'000 + 10'000 * (client % 17);
    }
    return r;
  }

  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& accepted) override {
    ++reduce_calls;
    last_participants = participants;
    last_accepted = accepted;
  }

  double evaluate() override { return 0.5; }

  std::atomic<int> clients_run{0};  // run_client is concurrent
  int reduce_calls = 0;
  std::size_t last_slots = 0;
  std::vector<std::size_t> last_participants;
  std::vector<char> last_accepted;
};

fl::TimelineConfig bench_timeline() {
  fl::TimelineConfig t;
  t.update_bits = 1'000'000;
  t.fhdnn = false;
  t.compute_jitter = 0.1;
  return t;
}

fl::EngineConfig million_config() {
  fl::EngineConfig cfg;
  cfg.n_clients = 0;  // ignored: the population provides the fleet
  cfg.client_fraction = 0.00001;  // 10 of 1M
  cfg.rounds = 3;
  cfg.seed = 77;
  cfg.name = "pop";
  cfg.population.n_registered = 1'000'000;
  cfg.population.mean_availability = 0.6;
  cfg.population.straggler_fraction = 0.1;
  cfg.population.compute_spread = 0.3;
  cfg.population.link_spread_max = 2.0;
  cfg.deadline.enabled = true;
  cfg.deadline.timeline = bench_timeline();
  cfg.deadline.deadline_factor = 3.0;
  return cfg;
}

TEST(EnginePopulation, RequiresATimedMode) {
  StatsProtocol protocol;
  fl::EngineConfig cfg = million_config();
  cfg.deadline.enabled = false;
  EXPECT_THROW(fl::RoundEngine(cfg, protocol), Error);
}

TEST(EnginePopulation, SamplesFromTheRegisteredFleet) {
  StatsProtocol protocol;
  fl::RoundEngine engine(million_config(), protocol);
  ASSERT_NE(engine.population(), nullptr);
  EXPECT_EQ(engine.population()->n_registered(), 1'000'000U);
  const auto m = engine.round(1);
  EXPECT_EQ(m.sampled, 13U);  // ceil(10 * 1.25) over-selection
  EXPECT_EQ(m.clients + m.dropped + m.timed_out, m.sampled);
  EXPECT_GT(m.events, 0U);
  EXPECT_GT(m.simulated_round_seconds, 0.0);
  EXPECT_GT(engine.sim_seconds(), 0.0);
  // Participant ids span the registered space, far beyond any dense range.
  EXPECT_EQ(protocol.last_slots, 13U);
  for (const auto id : protocol.last_participants) EXPECT_LT(id, 1'000'000U);
}

TEST(EnginePopulation, AsleepClientsNeverTrainAndCountDropped) {
  StatsProtocol protocol;
  fl::EngineConfig cfg = million_config();
  // Nearly-always-off fleet: most sampled clients are asleep at t = 0.
  cfg.population.mean_availability = 0.05;
  fl::RoundEngine engine(cfg, protocol);
  const auto m = engine.round(1);
  EXPECT_EQ(m.clients + m.dropped + m.timed_out, m.sampled);
  EXPECT_GT(m.dropped, 0U);
  // run_client was skipped for the asleep majority.
  EXPECT_LT(protocol.clients_run, static_cast<int>(m.sampled));
}

TEST(EnginePopulation, HistoryIsThreadCountInvariant) {
  ThreadGuard guard;
  std::vector<fl::RoundMetrics> reference;
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    StatsProtocol protocol;
    fl::RoundEngine engine(million_config(), protocol);
    const auto h = engine.run();
    if (reference.empty()) {
      reference = h.rounds();
      continue;
    }
    ASSERT_EQ(h.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& a = reference[i];
      const auto& b = h.rounds()[i];
      EXPECT_EQ(a.clients, b.clients);
      EXPECT_EQ(a.dropped, b.dropped);
      EXPECT_EQ(a.timed_out, b.timed_out);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.bits_on_air, b.bits_on_air);
      EXPECT_EQ(a.simulated_round_seconds, b.simulated_round_seconds);
    }
  }
}

// ---------------------------------------- engine: buffered-async rounds

/// Typed seams over a trivial `double` update so the ProtocolAdapter's
/// staleness buffer is observable: the aggregator records every
/// (client, weight) fold.
class EchoLearner final : public fl::LocalLearner<double> {
 public:
  TrainResult train(std::size_t client, Rng& /*client_rng*/) override {
    return {static_cast<double>(client), 0.25};
  }
  double evaluate() override { return 0.5; }
};

class IdTransport final : public channel::Transport<double> {
 public:
  channel::TransportStats transmit(double& update, std::size_t client,
                                   Rng& /*client_rng*/,
                                   const Rng& /*round_rng*/) const override {
    (void)update;
    channel::TransportStats s;
    s.payload_bytes = 8;
    // Upload time grows with the client id: low ids arrive first.
    s.bits_on_air = 100'000 * (client + 1);
    return s;
  }
  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return scalars * 8;
  }
  std::string name() const override { return "id"; }
};

class RecordingAggregator final : public fl::Aggregator<double> {
 public:
  struct Fold {
    std::size_t client;
    double weight;
  };

  void begin_round() override { folds.emplace_back(); }
  void accumulate(std::size_t client, double&& update) override {
    accumulate_weighted(client, std::move(update), 1.0);
  }
  void accumulate_weighted(std::size_t client, double&& /*update*/,
                           double weight) override {
    folds.back().push_back({client, weight});
  }
  void commit(std::size_t /*delivered*/) override { ++commits; }
  void commit_weighted(std::size_t n_updates, double total_weight) override {
    ++commits;
    last_n = n_updates;
    last_weight = total_weight;
  }

  std::vector<std::vector<Fold>> folds;
  int commits = 0;
  std::size_t last_n = 0;
  double last_weight = 0.0;
};

fl::EngineConfig async_config() {
  fl::EngineConfig cfg;
  cfg.n_clients = 12;
  cfg.client_fraction = 0.5;  // K = 6
  cfg.rounds = 4;
  cfg.seed = 13;
  cfg.name = "async";
  cfg.async.enabled = true;
  cfg.async.timeline = bench_timeline();
  // No compute jitter: arrival order is then strictly the IdTransport's
  // per-client upload time, i.e. ascending client id.
  cfg.async.timeline.compute_jitter = 0.0;
  cfg.async.over_selection = 0.5;  // draw 9
  cfg.async.staleness_exponent = 0.5;
  cfg.async.max_staleness = 2;
  return cfg;
}

TEST(EngineAsync, FirstKArrivalsCloseTheRoundLateOnesBuffer) {
  EchoLearner learner;
  IdTransport transport;
  RecordingAggregator aggregator;
  fl::ProtocolAdapter<double> adapter(learner, transport, aggregator);
  fl::RoundEngine engine(async_config(), adapter);

  const auto m1 = engine.round(1);
  EXPECT_EQ(m1.sampled, 9U);
  EXPECT_EQ(m1.clients, 6U);               // buffer size = K = 6
  EXPECT_EQ(m1.timed_out, 3U);             // late, buffered for round 2
  EXPECT_EQ(m1.stale_accepted, 0U);
  EXPECT_EQ(m1.clients + m1.dropped + m1.timed_out, m1.sampled);
  ASSERT_EQ(aggregator.folds.size(), 1U);
  ASSERT_EQ(aggregator.folds[0].size(), 6U);
  for (const auto& fold : aggregator.folds[0]) {
    EXPECT_DOUBLE_EQ(fold.weight, 1.0);  // all fresh in round 1
  }
  // Uploads scale with client id, so the accepted six are the six
  // smallest sampled ids.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_LT(aggregator.folds[0][i - 1].client,
              aggregator.folds[0][i].client);
  }

  const auto m2 = engine.round(2);
  EXPECT_EQ(m2.stale_accepted, 3U);  // round 1's late arrivals fold in
  EXPECT_EQ(m2.clients + m2.dropped + m2.timed_out, m2.sampled);
  ASSERT_EQ(aggregator.folds.size(), 2U);
  // Stale folds come first, discounted by (1 + staleness)^-0.5.
  const double stale_w = std::pow(2.0, -0.5);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(aggregator.folds[1][i].weight, stale_w);
  }
  for (std::size_t i = 3; i < aggregator.folds[1].size(); ++i) {
    EXPECT_DOUBLE_EQ(aggregator.folds[1][i].weight, 1.0);
  }
  EXPECT_NEAR(aggregator.last_weight,
              3.0 * stale_w +
                  static_cast<double>(aggregator.folds[1].size() - 3),
              1e-12);
}

TEST(EngineAsync, ExpiresUpdatesPastMaxStaleness) {
  EchoLearner learner;
  IdTransport transport;
  RecordingAggregator aggregator;
  fl::ProtocolAdapter<double> adapter(learner, transport, aggregator);
  fl::EngineConfig cfg = async_config();
  cfg.async.max_staleness = 0;  // anything buffered expires next round
  fl::RoundEngine engine(cfg, adapter);
  (void)engine.round(1);
  const auto m2 = engine.round(2);
  EXPECT_EQ(m2.stale_accepted, 0U);  // all buffered updates expired
  // Round 2 still folds its own fresh cohort.
  ASSERT_EQ(aggregator.folds.size(), 2U);
  for (const auto& fold : aggregator.folds[1]) {
    EXPECT_DOUBLE_EQ(fold.weight, 1.0);
  }
}

TEST(EngineAsync, MutuallyExclusiveWithDeadlineRounds) {
  EchoLearner learner;
  IdTransport transport;
  RecordingAggregator aggregator;
  fl::ProtocolAdapter<double> adapter(learner, transport, aggregator);
  fl::EngineConfig cfg = async_config();
  cfg.deadline.enabled = true;
  cfg.deadline.timeline = bench_timeline();
  EXPECT_THROW(fl::RoundEngine(cfg, adapter), Error);
}

TEST(EngineAsync, HistoryIsThreadCountInvariant) {
  ThreadGuard guard;
  std::vector<fl::RoundMetrics> reference;
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    EchoLearner learner;
    IdTransport transport;
    RecordingAggregator aggregator;
    fl::ProtocolAdapter<double> adapter(learner, transport, aggregator);
    fl::RoundEngine engine(async_config(), adapter);
    const auto h = engine.run();
    if (reference.empty()) {
      reference = h.rounds();
      continue;
    }
    ASSERT_EQ(h.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      const auto& a = reference[i];
      const auto& b = h.rounds()[i];
      EXPECT_EQ(a.clients, b.clients);
      EXPECT_EQ(a.timed_out, b.timed_out);
      EXPECT_EQ(a.stale_accepted, b.stale_accepted);
      EXPECT_EQ(a.events, b.events);
      EXPECT_EQ(a.simulated_round_seconds, b.simulated_round_seconds);
    }
  }
}

}  // namespace
}  // namespace fhdnn
