// Shared plumbing of the FHDnn benchmark: clocks, sample statistics,
// process counters, the metric record, and the deterministic history text
// the output checks compare.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "fl/history.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double seconds_since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Median of `v` (0 for an empty sample).
double median(std::vector<double> v);

/// Largest sample with at least `beyond` samples above it — the highest
/// percentile a sample of this size can state honestly. Falls back to the
/// maximum when the sample is too small for any percentile to qualify.
double tail_value(std::vector<double> v, std::size_t beyond = 10);

/// Process user+sys CPU seconds (all threads).
double process_cpu_seconds();

/// Peak resident set (VmHWM) in MiB.
double peak_rss_mib();

/// Heap counters from util/alloc_spy in the traced binary; zeros otherwise.
struct AllocCount {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCount alloc_count();
bool alloc_spy_linked();

/// One reported metric.
struct Metric {
  double value = 0.0;
  std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/// Deterministic rendering of a history: one line per round, every field
/// covered by the determinism contract (doubles in hexfloat), wall time
/// excluded. Byte-comparable across processes, deployments and repeats.
std::string history_text(const fhdnn::fl::TrainingHistory& history);

/// Number of lines (rounds) on which two history texts differ, counting
/// missing lines; 0 when the texts are identical.
std::size_t differing_rounds(const std::string& a, const std::string& b);

/// Minimal JSON helpers for the result lines.
std::string json_escape(const std::string& s);
std::string json_number(double v);

}  // namespace perfbench
