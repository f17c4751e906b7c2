// Pass-through seams that time each layer from outside the library.
//
// TracingProtocol wraps any fl::RoundProtocol and times every call the
// engine (or a WorkerLoop) makes through it; RoundTimer wraps a
// fl::RoundDriver (LocalRoundDriver or ServerRoundDriver) and stamps the
// client phase and each round's commit. Neither changes what the wrapped
// object computes, so a traced run's history equals the untraced one byte
// for byte (checked in workloads.cpp).
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"
#include "fl/engine.hpp"

namespace perfbench {

/// What one round looked like from one process-side protocol (the server
/// engine's, or one worker's).
struct RoundTrace {
  Clock::time_point begin_start{};  ///< begin_round entry
  double begin_s = 0.0;
  double reduce_s = 0.0;
  double eval_s = 0.0;
  double save_state_s = 0.0;   ///< state blob encode (server) inside drive
  double load_state_s = 0.0;   ///< state restore (worker)
  double save_update_s = 0.0;  ///< update encode (worker)
  double load_update_s = 0.0;  ///< update decode (server)
  std::vector<double> slot_s;  ///< run_client wall per slot (0: not run)
  std::vector<Clock::time_point> slot_start;
  std::vector<Clock::time_point> slot_end;
  std::vector<double> slot_loss;
  std::vector<std::size_t> slot_client;
  std::vector<char> slot_ran;

  /// Wall from the first run_client start to the last end (0 if none ran).
  double client_section_s() const;
  double client_busy_s() const;
  /// Slowest slot over the mean slot, over the slots that ran.
  double straggler_ratio() const;
};

class TracingProtocol final : public fhdnn::fl::RoundProtocol {
 public:
  /// `worker_side`: load_state opens a new round record (a WorkerLoop
  /// restores state before begin_round); otherwise begin_round does.
  TracingProtocol(fhdnn::fl::RoundProtocol& inner, bool worker_side)
      : inner_(inner), worker_side_(worker_side) {}

  void begin_round(const fhdnn::Rng& round_rng,
                   std::size_t n_participants) override;
  fhdnn::fl::ClientReport run_client(std::size_t slot, std::size_t client,
                                     const fhdnn::Rng& round_rng,
                                     bool delivered) override;
  void reduce(const std::vector<std::size_t>& participants,
              const std::vector<char>& delivered) override;
  AsyncReduceStats reduce_async(const std::vector<std::size_t>& participants,
                                const std::vector<char>& accepted,
                                const std::vector<char>& late,
                                double staleness_exponent,
                                int max_staleness) override;
  double evaluate() override;
  void save_state(fhdnn::util::SnapshotWriter& w) override;
  void load_state(fhdnn::util::SnapshotReader& r) override;
  void save_update(std::size_t slot, fhdnn::util::SnapshotWriter& w) override;
  void load_update(std::size_t slot, fhdnn::util::SnapshotReader& r) override;

  /// The round driver marks its drive() window so that a save_state
  /// inside it (the serving state blob) is told apart from the one a
  /// checkpoint makes after the round.
  void set_in_drive(bool in_drive) { in_drive_ = in_drive; }

  const std::vector<RoundTrace>& rounds() const { return rounds_; }

 private:
  RoundTrace& current();

  fhdnn::fl::RoundProtocol& inner_;
  bool worker_side_;
  bool in_drive_ = false;
  std::vector<RoundTrace> rounds_;
};

/// Pass-through driver: stamps each round's commit (the round-time
/// samples every run reports) and, when tracing, the drive() window.
class RoundTimer final : public fhdnn::fl::RoundDriver {
 public:
  /// `traced` may be null (untraced runs only need the commit stamps).
  RoundTimer(fhdnn::fl::RoundDriver& inner, TracingProtocol* traced)
      : inner_(inner), traced_(traced) {}

  /// Marks the start of the round loop (before round 1).
  void start() { start_ = Clock::now(); }

  void drive(fhdnn::fl::RoundProtocol& protocol, const fhdnn::Rng& round_rng,
             int round_index, const std::vector<std::size_t>& participants,
             const std::vector<char>& delivered,
             const std::vector<char>& awake,
             std::vector<fhdnn::fl::ClientReport>& reports) override;
  void round_committed(const fhdnn::fl::RoundMetrics& metrics) override;

  Clock::time_point loop_start() const { return start_; }
  const std::vector<Clock::time_point>& committed() const {
    return committed_;
  }
  const std::vector<double>& drive_s() const { return drive_s_; }

  /// Round r's wall time: commit(r) - commit(r-1), loop start for r = 1.
  std::vector<double> round_seconds() const;

 private:
  fhdnn::fl::RoundDriver& inner_;
  TracingProtocol* traced_;
  Clock::time_point start_{};
  std::vector<Clock::time_point> committed_;
  std::vector<double> drive_s_;
};

}  // namespace perfbench
