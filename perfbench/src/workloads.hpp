// The benchmark's four workloads (see perfbench/README.md for why each
// exists). A workload runs "campaigns": one campaign is a complete set-up
// from the seed (data, encoding, trainer build, worker handshakes) followed
// by a fixed number of federated rounds, so every campaign of a run must
// produce the same history byte for byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "fl/history.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  bool tiny = false;  ///< test-sized inputs (the benchmark's own test)
  /// Negative-test hook: corrupt the served history before it is compared
  /// with the in-process one, which the check must catch.
  bool perturb_served_history = false;
  std::string work_dir = ".";
};

/// Set-up stages, timed in traced campaigns only.
struct SetupTrace {
  double data_s = 0.0;
  double extract_s = 0.0;
  double encode_s = 0.0;
  double handshake_s = 0.0;
  std::uint64_t images = 0;
};

struct Campaign {
  bool traced = false;
  double setup_s = 0.0;
  SetupTrace setup;
  double loop_s = 0.0;  ///< wall time of the round loop
  double cpu_s = 0.0;   ///< process CPU over the round loop
  AllocCount alloc;     ///< heap traffic over the round loop
  fhdnn::fl::TrainingHistory history;
  std::vector<double> round_s;  ///< per-round wall time
  // Traced campaigns only:
  std::vector<double> drive_s;
  std::vector<Clock::time_point> committed;
  Clock::time_point loop_end{};
  std::vector<RoundTrace> server;
  std::vector<std::vector<RoundTrace>> workers;
  double refine_updates = 0.0;  ///< HD mispredict updates, all rounds
  // Served workload only:
  std::uint64_t wire_out = 0;  ///< framed bytes sent during the rounds
  std::uint64_t wire_in = 0;   ///< framed bytes received during the rounds
  std::uint64_t snapshot_bytes = 0;
  /// Output-check failures found while setting up or running.
  std::vector<std::string> failures;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Rounds per campaign (fixed, so counters repeat exactly).
  [[nodiscard]] virtual int rounds() const = 0;

  /// Test accuracy the last round must reach.
  [[nodiscard]] virtual double accuracy_floor() const = 0;

  virtual Campaign campaign(bool traced) = 0;

  /// Served workload: the same rounds run in process on the last
  /// campaign's inputs (empty for the other workloads).
  virtual std::string in_process_history() { return {}; }

  /// Single-call timings of the layers this workload exercises, on the
  /// last campaign's inputs. Layers the workload leaves idle report 0.
  virtual void probes(Metrics& out) = 0;

  /// Whether the workload checkpoints and serves (extra per-layer rows).
  [[nodiscard]] virtual bool served() const { return false; }
};

std::unique_ptr<Workload> make_workload(const Options& options);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

}  // namespace perfbench
