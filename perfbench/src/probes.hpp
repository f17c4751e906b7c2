// Probes: single-call timings of one layer's public function on a
// workload's real inputs, taken outside the timed rounds.
#pragma once

#include <algorithm>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"

namespace perfbench {

/// Milliseconds per call of `fn`: one warm-up call, then the median of
/// up to `reps` timed calls — fewer (but at least 3) once the timed calls
/// add up to a second, so slow layers do not stretch the run. `prepare`
/// runs untimed before each call.
template <typename Prepare, typename Fn>
double probe_ms(int reps, Prepare&& prepare, Fn&& fn) {
  constexpr int kMinReps = 3;
  constexpr double kBudgetMs = 1000.0;
  prepare();
  fn();
  std::vector<double> ms;
  double spent = 0.0;
  for (int i = 0; i < reps && (i < kMinReps || spent < kBudgetMs); ++i) {
    prepare();
    const auto start = Clock::now();
    fn();
    ms.push_back(seconds_since(start) * 1e3);
    spent += ms.back();
  }
  return median(ms);
}

template <typename Fn>
double probe_ms(int reps, Fn&& fn) {
  return probe_ms(reps, [] {}, fn);
}

/// tensor.matmul_bt_ms, tensor.conv2d_fwd_ms, tensor.conv2d_bwd_ms at the
/// CNN-2 layer shapes (B=10), on activations of real images from `images`.
void tensor_probes(const fhdnn::data::Dataset& images, Metrics& out);

/// nn.train_step_ms: one B=10 forward + backward + SGD step of CNN-2.
double nn_train_step_ms(const fhdnn::data::Dataset& images);

}  // namespace perfbench
