#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#ifndef PERFBENCH_ALLOC_SPY
#define PERFBENCH_ALLOC_SPY 0
#endif
#if PERFBENCH_ALLOC_SPY
#include "util/alloc_spy.hpp"
#endif

namespace perfbench {

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double tail_value(std::vector<double> v, std::size_t beyond) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  if (v.size() <= beyond) return v.back();
  return v[v.size() - 1 - beyond];
}

double process_cpu_seconds() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream is(line.substr(6));
      double kib = 0.0;
      is >> kib;
      if (kib > 0.0) return kib / 1024.0;
    }
  }
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

AllocCount alloc_count() {
#if PERFBENCH_ALLOC_SPY
  const auto s = fhdnn::util::alloc_spy_snapshot();
  return {s.count, s.bytes};
#else
  return {};
#endif
}

bool alloc_spy_linked() { return PERFBENCH_ALLOC_SPY != 0; }

std::string history_text(const fhdnn::fl::TrainingHistory& history) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const auto& m : history.rounds()) {
    out << "round=" << m.round << " acc=" << m.test_accuracy
        << " loss=" << m.train_loss << " clients=" << m.clients
        << " sampled=" << m.sampled << " dropped=" << m.dropped
        << " timed_out=" << m.timed_out << " stale=" << m.stale_accepted
        << " bytes=" << m.bytes_uplink << " bits=" << m.bits_on_air
        << " flips=" << m.bit_flips << " lost=" << m.packets_lost
        << " retx=" << m.retransmissions << " residual=" << m.residual_errors
        << " sim=" << m.simulated_round_seconds << " events=" << m.events
        << "\n";
  }
  return out.str();
}

std::size_t differing_rounds(const std::string& a, const std::string& b) {
  std::istringstream sa(a);
  std::istringstream sb(b);
  std::size_t differ = 0;
  std::string la;
  std::string lb;
  for (;;) {
    const bool ga = static_cast<bool>(std::getline(sa, la));
    const bool gb = static_cast<bool>(std::getline(sb, lb));
    if (!ga && !gb) break;
    if (ga != gb || la != lb) ++differ;
  }
  return differ;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
