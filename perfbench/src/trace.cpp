#include "trace.hpp"

#include <algorithm>

namespace perfbench {

using fhdnn::Rng;
using fhdnn::fl::ClientReport;
using fhdnn::fl::RoundProtocol;

double RoundTrace::client_section_s() const {
  bool any = false;
  Clock::time_point first{};
  Clock::time_point last{};
  for (std::size_t i = 0; i < slot_ran.size(); ++i) {
    if (!slot_ran[i]) continue;
    if (!any || slot_start[i] < first) first = slot_start[i];
    if (!any || slot_end[i] > last) last = slot_end[i];
    any = true;
  }
  return any ? seconds_between(first, last) : 0.0;
}

double RoundTrace::client_busy_s() const {
  double total = 0.0;
  for (const double s : slot_s) total += s;
  return total;
}

double RoundTrace::straggler_ratio() const {
  double total = 0.0;
  double slowest = 0.0;
  std::size_t ran = 0;
  for (std::size_t i = 0; i < slot_ran.size(); ++i) {
    if (!slot_ran[i]) continue;
    total += slot_s[i];
    slowest = std::max(slowest, slot_s[i]);
    ++ran;
  }
  if (ran == 0 || total <= 0.0) return 0.0;
  return slowest / (total / static_cast<double>(ran));
}

RoundTrace& TracingProtocol::current() {
  if (rounds_.empty()) rounds_.emplace_back();
  return rounds_.back();
}

void TracingProtocol::begin_round(const Rng& round_rng,
                                  std::size_t n_participants) {
  if (!worker_side_) rounds_.emplace_back();
  RoundTrace& t = current();
  t.slot_s.assign(n_participants, 0.0);
  t.slot_start.assign(n_participants, Clock::time_point{});
  t.slot_end.assign(n_participants, Clock::time_point{});
  t.slot_loss.assign(n_participants, 0.0);
  t.slot_client.assign(n_participants, 0);
  t.slot_ran.assign(n_participants, 0);
  t.begin_start = Clock::now();
  inner_.begin_round(round_rng, n_participants);
  t.begin_s = seconds_since(t.begin_start);
}

ClientReport TracingProtocol::run_client(std::size_t slot, std::size_t client,
                                         const Rng& round_rng,
                                         bool delivered) {
  // Concurrent across distinct slots: each call writes only its own slot's
  // entries, sized by begin_round before the parallel section.
  RoundTrace& t = rounds_.back();
  const auto start = Clock::now();
  ClientReport report = inner_.run_client(slot, client, round_rng, delivered);
  const auto end = Clock::now();
  t.slot_start[slot] = start;
  t.slot_end[slot] = end;
  t.slot_s[slot] = seconds_between(start, end);
  t.slot_loss[slot] = report.loss;
  t.slot_client[slot] = client;
  t.slot_ran[slot] = 1;
  return report;
}

void TracingProtocol::reduce(const std::vector<std::size_t>& participants,
                             const std::vector<char>& delivered) {
  const auto start = Clock::now();
  inner_.reduce(participants, delivered);
  current().reduce_s += seconds_since(start);
}

RoundProtocol::AsyncReduceStats TracingProtocol::reduce_async(
    const std::vector<std::size_t>& participants,
    const std::vector<char>& accepted, const std::vector<char>& late,
    double staleness_exponent, int max_staleness) {
  const auto start = Clock::now();
  const auto stats = inner_.reduce_async(participants, accepted, late,
                                         staleness_exponent, max_staleness);
  current().reduce_s += seconds_since(start);
  return stats;
}

double TracingProtocol::evaluate() {
  const auto start = Clock::now();
  const double acc = inner_.evaluate();
  current().eval_s += seconds_since(start);
  return acc;
}

void TracingProtocol::save_state(fhdnn::util::SnapshotWriter& w) {
  const auto start = Clock::now();
  inner_.save_state(w);
  // A checkpoint's save_state after the round is part of the snapshot
  // commit, which the workload times as a whole.
  if (in_drive_) current().save_state_s += seconds_since(start);
}

void TracingProtocol::load_state(fhdnn::util::SnapshotReader& r) {
  if (worker_side_) rounds_.emplace_back();
  const auto start = Clock::now();
  inner_.load_state(r);
  current().load_state_s += seconds_since(start);
}

void TracingProtocol::save_update(std::size_t slot,
                                  fhdnn::util::SnapshotWriter& w) {
  const auto start = Clock::now();
  inner_.save_update(slot, w);
  current().save_update_s += seconds_since(start);
}

void TracingProtocol::load_update(std::size_t slot,
                                  fhdnn::util::SnapshotReader& r) {
  const auto start = Clock::now();
  inner_.load_update(slot, r);
  current().load_update_s += seconds_since(start);
}

void RoundTimer::drive(fhdnn::fl::RoundProtocol& protocol, const Rng& round_rng,
                       int round_index,
                       const std::vector<std::size_t>& participants,
                       const std::vector<char>& delivered,
                       const std::vector<char>& awake,
                       std::vector<ClientReport>& reports) {
  if (traced_ != nullptr) traced_->set_in_drive(true);
  const auto start = Clock::now();
  inner_.drive(protocol, round_rng, round_index, participants, delivered,
               awake, reports);
  drive_s_.push_back(seconds_since(start));
  if (traced_ != nullptr) traced_->set_in_drive(false);
}

void RoundTimer::round_committed(const fhdnn::fl::RoundMetrics& metrics) {
  inner_.round_committed(metrics);
  committed_.push_back(Clock::now());
}

std::vector<double> RoundTimer::round_seconds() const {
  std::vector<double> out;
  out.reserve(committed_.size());
  Clock::time_point prev = start_;
  for (const auto& t : committed_) {
    out.push_back(seconds_between(prev, t));
    prev = t;
  }
  return out;
}

}  // namespace perfbench
