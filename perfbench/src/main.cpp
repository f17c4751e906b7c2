// perfbench: the FHDnn benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S [--work-dir DIR]
//             [--tiny] [--perturb-served-history]
//
// Runs campaigns of the named workload (each a full set-up from the seed
// plus a fixed number of rounds) until S seconds have passed, checks the
// outputs, and prints one JSON result line last on stdout. The
// perfbench_traced binary (same sources plus util/alloc_spy) runs plain
// and traced campaigns alternately and prints the per-layer metrics.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage or build-guard error. perfbench/run.py builds and drives both.
#include <algorithm>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>  // fhdnn-lint: allow(raw-thread) — hardware_concurrency only
#include <vector>

#include "common.hpp"
#include "util/cpu.hpp"
#include "util/log.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_ALLOC_SPY
#define PERFBENCH_ALLOC_SPY 0
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

namespace {

using namespace perfbench;

/// Pool width every workload runs at: fixed, so runs on one host compare,
/// and never wider than the host.
constexpr int kPoolWidth = 4;

/// Campaign count cap (fleet campaigns are short).
constexpr std::size_t kMaxCampaigns = 200;

int usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "[--work-dir DIR] [--tiny] [--perturb-served-history]\n";
  return 2;
}

/// Refuses numbers from builds that do not represent the library as
/// shipped: non-Release, contract-checked, or sanitized.
std::string build_guard() {
  const std::string flags = PERFBENCH_CXX_FLAGS;
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    return std::string("build type is ") + PERFBENCH_BUILD_TYPE +
           ", not Release";
  }
#ifndef NDEBUG
  return "assertions are enabled (NDEBUG is not defined)";
#endif
#ifdef FHDNN_CHECKED
  return "FHDNN_CHECKED contract instrumentation is compiled in";
#endif
  if (PERFBENCH_SANITIZED || flags.find("-fsanitize") != std::string::npos) {
    return "sanitizer instrumentation is compiled in";
  }
  return {};
}

struct Summary {
  std::size_t rounds = 0;
  double loop_s = 0.0;
  double cpu_s = 0.0;
  AllocCount alloc;
  std::vector<double> round_s;
  std::vector<double> setup_s;
};

Summary summarize(const std::vector<Campaign>& campaigns, bool traced) {
  Summary s;
  for (const Campaign& c : campaigns) {
    if (c.traced != traced) continue;
    s.rounds += c.history.size();
    s.loop_s += c.loop_s;
    s.cpu_s += c.cpu_s;
    s.alloc.count += c.alloc.count;
    s.alloc.bytes += c.alloc.bytes;
    s.round_s.insert(s.round_s.end(), c.round_s.begin(), c.round_s.end());
    s.setup_s.push_back(c.setup_s);
  }
  return s;
}

double per_round(double total, std::size_t rounds) {
  return rounds > 0 ? total / static_cast<double>(rounds) : 0.0;
}

void end_to_end(const std::vector<Campaign>& campaigns, Metrics& m) {
  const Summary s = summarize(campaigns, false);
  const Campaign& first = campaigns.front();
  std::uint64_t uplink = 0;
  for (const auto& r : first.history.rounds()) uplink += r.bytes_uplink;
  m["setup_s"] = {median(s.setup_s), "s"};
  m["rounds_per_s"] = {s.loop_s > 0 ? s.rounds / s.loop_s : 0.0, "rounds/s"};
  m["round_p50_s"] = {median(s.round_s), "s"};
  m["cpu_s_per_round"] = {per_round(s.cpu_s, s.rounds), "s"};
  m["peak_rss_mib"] = {peak_rss_mib(), "MiB"};
  m["uplink_bytes_per_round"] = {
      per_round(static_cast<double>(uplink), first.history.size()), "B"};
  m["final_accuracy"] = {first.history.final_accuracy(), "fraction"};
}

/// Per-layer metrics from the traced campaigns (plain ones give the
/// untraced reference for trace_overhead_share).
void per_layer(const std::vector<Campaign>& campaigns, const Workload& wl,
               Metrics& m) {
  const Summary plain = summarize(campaigns, false);
  const Summary traced = summarize(campaigns, true);
  const int width = fhdnn::parallel::num_threads();

  std::vector<double> data_s, extract_s, encode_s, handshake_s;
  std::vector<double> begin_s, phase_s, busy_s, straggler, reduce_s, eval_s;
  std::vector<double> unattributed_s, commit_ms;
  std::vector<double> collect_s, state_encode_s, update_decode_s;
  std::vector<double> w_restore_s, w_busy_s, w_encode_s, wait_s;
  double images = 0.0, busy_total = 0.0, phase_total = 0.0;
  double unattributed_total = 0.0, round_total = 0.0, refine_updates = 0.0;
  double sampled = 0.0, delivered = 0.0, dropped = 0.0, timed_out = 0.0;
  double accepted = 0.0, events = 0.0, bits = 0.0, flips = 0.0, lost = 0.0;
  double wire_out = 0.0, wire_in = 0.0, snapshot_bytes = 0.0;
  std::size_t rounds = 0;

  for (const Campaign& c : campaigns) {
    if (!c.traced) continue;
    data_s.push_back(c.setup.data_s);
    extract_s.push_back(c.setup.extract_s);
    encode_s.push_back(c.setup.encode_s);
    handshake_s.push_back(c.setup.handshake_s);
    images = static_cast<double>(c.setup.images);
    refine_updates += c.refine_updates;
    wire_out += static_cast<double>(c.wire_out);
    wire_in += static_cast<double>(c.wire_in);
    snapshot_bytes = static_cast<double>(c.snapshot_bytes);
    const auto& hist = c.history.rounds();
    for (std::size_t r = 0; r < hist.size() && r < c.server.size(); ++r) {
      const RoundTrace& t = c.server[r];
      const auto& rm = hist[r];
      ++rounds;
      sampled += static_cast<double>(rm.sampled);
      delivered += static_cast<double>(rm.sampled - rm.dropped);
      dropped += static_cast<double>(rm.dropped);
      timed_out += static_cast<double>(rm.timed_out);
      accepted += static_cast<double>(rm.clients);
      events += static_cast<double>(rm.events);
      bits += static_cast<double>(rm.bits_on_air);
      flips += static_cast<double>(rm.bit_flips);
      lost += static_cast<double>(rm.packets_lost);

      // Client work: in process on the server's slots, or on the workers.
      double busy = t.client_busy_s();
      std::vector<double> slots;
      for (std::size_t i = 0; i < t.slot_ran.size(); ++i) {
        if (t.slot_ran[i]) slots.push_back(t.slot_s[i]);
      }
      double slowest_worker = 0.0;
      for (const auto& w : c.workers) {
        if (r >= w.size()) continue;
        const RoundTrace& wt = w[r];
        busy += wt.client_busy_s();
        for (std::size_t i = 0; i < wt.slot_ran.size(); ++i) {
          if (wt.slot_ran[i]) slots.push_back(wt.slot_s[i]);
        }
        w_restore_s.push_back(wt.load_state_s);
        w_busy_s.push_back(wt.client_section_s());
        w_encode_s.push_back(wt.save_update_s);
        slowest_worker = std::max(slowest_worker,
                                  wt.load_state_s + wt.begin_s +
                                      wt.client_section_s() + wt.save_update_s);
      }
      const double phase = r < c.drive_s.size() ? c.drive_s[r] : 0.0;
      busy_s.push_back(busy);
      busy_total += busy;
      phase_total += phase;
      phase_s.push_back(phase);
      if (!slots.empty()) {
        double sum = 0.0;
        for (const double v : slots) sum += v;
        const double mean = sum / static_cast<double>(slots.size());
        straggler.push_back(
            mean > 0 ? *std::max_element(slots.begin(), slots.end()) / mean
                     : 0.0);
      }
      begin_s.push_back(t.begin_s);
      reduce_s.push_back(t.reduce_s);
      eval_s.push_back(t.eval_s);

      // The checkpoint committed after round r-1 (served) falls inside
      // round r's wall sample: commit(r-1) -> begin_round(r).
      double commit = 0.0;
      if (wl.served()) {
        if (r > 0) commit = seconds_between(c.committed[r - 1], t.begin_start);
        const Clock::time_point next = r + 1 < c.server.size()
                                           ? c.server[r + 1].begin_start
                                           : c.loop_end;
        commit_ms.push_back(seconds_between(c.committed[r], next) * 1e3);
        collect_s.push_back(phase);
        state_encode_s.push_back(t.save_state_s);
        update_decode_s.push_back(t.load_update_s);
        wait_s.push_back(phase - slowest_worker);
      }
      const double round = c.round_s[r];
      const double rest =
          round - (t.begin_s + phase + t.reduce_s + t.eval_s + commit);
      unattributed_s.push_back(rest);
      unattributed_total += rest;
      round_total += round;
    }
  }

  const double n = std::max<double>(1.0, static_cast<double>(rounds));
  const auto set = [&m](const std::string& name, double v,
                        const std::string& unit) { m[name] = {v, unit}; };
  set("data.generate_s", median(data_s), "s");
  set("features.extract_s", median(extract_s), "s");
  set("features.images", images, "count");
  set("hdc.encode_s", median(encode_s), "s");
  set("serving.handshake_s", median(handshake_s), "s");
  set("fl.begin_round_s", median(begin_s), "s");
  set("fl.client_phase_s", median(phase_s), "s");
  set("fl.client_busy_s", median(busy_s), "s");
  set("fl.straggler_ratio", median(straggler), "ratio");
  set("fl.parallel_efficiency",
      phase_total > 0 ? busy_total / (width * phase_total) : 0.0, "ratio");
  set("fl.reduce_s", median(reduce_s), "s");
  set("fl.eval_s", median(eval_s), "s");
  set("fl.unattributed_s", median(unattributed_s), "s");
  set("fl.unattributed_share",
      round_total > 0 ? unattributed_total / round_total : 0.0, "fraction");
  set("fl.round_tail_s", tail_value(traced.round_s), "s");
  set("fl.round_samples", static_cast<double>(traced.round_s.size()), "count");
  set("fl.sampled", sampled / n, "count");
  set("fl.delivered", delivered / n, "count");
  set("fl.dropped", dropped / n, "count");
  set("fl.timed_out", timed_out / n, "count");
  set("fl.events_per_round", events / n, "count");
  set("fl.events_per_s", traced.loop_s > 0 ? events / traced.loop_s : 0.0,
      "1/s");
  set("fl.accepted_ratio", sampled > 0 ? accepted / sampled : 0.0, "fraction");
  set("hdc.refine_updates", refine_updates / n, "count");
  set("channel.bits_on_air", bits / n, "count");
  set("channel.bit_flips", flips / n, "count");
  set("channel.packets_lost", lost / n, "count");
  set("serving.collect_s", median(collect_s), "s");
  set("serving.state_encode_s", median(state_encode_s), "s");
  set("serving.update_decode_s", median(update_decode_s), "s");
  set("serving.worker_restore_s", median(w_restore_s), "s");
  set("serving.worker_busy_s", median(w_busy_s), "s");
  set("serving.update_encode_s", median(w_encode_s), "s");
  set("serving.wait_s", median(wait_s), "s");
  set("wire.bytes_out_per_round", wire_out / n, "B");
  set("wire.bytes_in_per_round", wire_in / n, "B");
  set("wire_bytes_per_round", (wire_out + wire_in) / n, "B");
  set("snapshot.commit_ms", median(commit_ms), "ms");
  set("snapshot.bytes", snapshot_bytes, "B");
  set("allocs_per_round",
      per_round(static_cast<double>(traced.alloc.count), traced.rounds),
      "count");
  set("alloc_bytes_per_round",
      per_round(static_cast<double>(traced.alloc.bytes), traced.rounds), "B");
  // 1 - traced rounds/s over untraced rounds/s, from median round times
  // (robust to the first campaign's cold start).
  const double plain_round = median(plain.round_s);
  const double traced_round = median(traced.round_s);
  set("trace_overhead_share",
      traced_round > 0 ? 1.0 - plain_round / traced_round : 0.0, "fraction");
  // Probes default to 0 (the layer is idle on this workload).
  for (const char* name :
       {"hdc.refine_epoch_ms", "hdc.similarities_ms", "nn.train_step_ms",
        "tensor.matmul_bt_ms", "tensor.conv2d_fwd_ms", "tensor.conv2d_bwd_ms",
        "channel.transmit_ms", "wire.frame_roundtrip_ms"}) {
    set(name, 0.0, "ms");
  }
}

/// Output checks shared by every workload. Returns the rounds they flag.
std::size_t check_outputs(const std::vector<Campaign>& campaigns,
                          Workload& wl, const Options& opt,
                          std::vector<std::string>& failures) {
  std::size_t failed = 0;
  const auto flag = [&](std::size_t rounds, const std::string& what) {
    failed += std::max<std::size_t>(1, rounds);
    failures.push_back(what);
  };
  const Campaign& first = campaigns.front();
  const std::string reference = history_text(first.history);
  for (const Campaign& c : campaigns) {
    for (const auto& f : c.failures) flag(c.history.size(), f);
    if (static_cast<int>(c.history.size()) != wl.rounds()) {
      flag(static_cast<std::size_t>(wl.rounds()),
           "campaign ran " + std::to_string(c.history.size()) + " of " +
               std::to_string(wl.rounds()) + " rounds");
    }
    // Every repeat, traced or not, must reproduce the first campaign's
    // history: accuracy, loss and every deterministic counter.
    const std::size_t differ =
        differing_rounds(reference, history_text(c.history));
    if (differ > 0) {
      flag(differ, std::string(c.traced ? "traced" : "untraced") +
                       " campaign history differs from the first campaign's");
    }
    if (c.wire_out != first.wire_out || c.wire_in != first.wire_in) {
      flag(c.history.size(), "wire byte counts differ across campaigns");
    }
  }
  if (first.history.final_accuracy() < wl.accuracy_floor()) {
    std::ostringstream os;
    os << "final accuracy " << first.history.final_accuracy()
       << " is below the floor " << wl.accuracy_floor();
    flag(1, os.str());
  }
  if (wl.served()) {
    std::string served = reference;
    if (opt.perturb_served_history && !served.empty()) {
      served[served.size() / 2] ^= 1;
    }
    const std::size_t differ =
        differing_rounds(served, wl.in_process_history());
    if (differ > 0) {
      flag(differ, "served history differs from the in-process history");
    }
  }
  return failed;
}

std::string info_line(const Options& opt, const Workload& wl,
                      const std::vector<Campaign>& campaigns) {
  const Summary s = summarize(campaigns, false);
  std::ostringstream os;
  os << "{\"info\": {\"workload\": \"" << opt.workload
     << "\", \"seed\": " << opt.seed << ", \"seconds\": "
     << json_number(opt.seconds) << ", \"traced\": "
     << (opt.traced ? "true" : "false") << ", \"tiny\": "
     << (opt.tiny ? "true" : "false")
     << ", \"campaigns\": " << campaigns.size()
     << ", \"rounds_per_campaign\": " << wl.rounds()
     << ", \"round_samples\": " << s.round_s.size()
     << ", \"round_tail_s\": " << json_number(tail_value(s.round_s))
     << ", \"pool_width\": " << fhdnn::parallel::num_threads()
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"detected_simd\": \""
     << fhdnn::util::simd_tier_name(fhdnn::util::detected_simd())
     << "\", \"active_simd\": \""
     << fhdnn::util::simd_tier_name(fhdnn::util::active_simd())
     << "\", \"compiler\": \"" << json_escape(PERFBENCH_COMPILER)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"cxx_flags\": \"" << json_escape(PERFBENCH_CXX_FLAGS)
     << "\", \"alloc_spy\": " << (alloc_spy_linked() ? "true" : "false")
     << "}}";
  return os.str();
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const Metrics& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
       << json_number(metric.value) << ", \"unit\": \"" << metric.unit
       << "\"}";
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(int argc, char** argv) {
  Options opt;
  opt.traced = PERFBENCH_ALLOC_SPY != 0;
  bool have_workload = false;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
      have_workload = true;
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
      have_seed = true;
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
      have_seconds = true;
    } else if (arg == "--work-dir") {
      opt.work_dir = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--perturb-served-history") {
      opt.perturb_served_history = true;
    } else {
      return usage("unknown argument " + arg);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || opt.seconds <= 0) {
    return usage("--workload, --seed and --seconds (> 0) are required");
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage("unknown workload " + opt.workload);
  }
  if (const std::string why = build_guard(); !why.empty()) {
    std::cerr << "perfbench: refusing to report numbers: " << why << "\n";
    return 2;
  }

  fhdnn::set_log_level(fhdnn::LogLevel::Warn);
  const int nproc = static_cast<int>(std::thread::hardware_concurrency());
  fhdnn::parallel::set_num_threads(
      nproc > 0 ? std::min(kPoolWidth, nproc) : kPoolWidth);

  auto wl = make_workload(opt);
  std::vector<Campaign> campaigns;
  std::vector<std::string> failures;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  const auto start = Clock::now();
  try {
    // Untraced runs repeat plain campaigns; traced runs alternate plain
    // and traced ones, so both kinds share the host's state equally.
    // At least two campaigns run, so the repeat checks always have a pair.
    while (campaigns.size() < 2 ||
           (seconds_since(start) < opt.seconds &&
            campaigns.size() < kMaxCampaigns)) {
      const bool traced = opt.traced && campaigns.size() % 2 == 1;
      attempted += static_cast<std::size_t>(wl->rounds());
      campaigns.push_back(wl->campaign(traced));
      const Campaign& c = campaigns.back();
      std::cerr << "perfbench: campaign " << campaigns.size()
                << (traced ? " traced" : "") << " setup_s=" << c.setup_s
                << " round_p50_s=" << median(c.round_s)
                << " cpu_s_per_round=" << per_round(c.cpu_s, c.history.size())
                << " rounds_s=";
      for (const double r : c.round_s) std::cerr << r << ",";
      std::cerr << "\n";
    }
    failed = check_outputs(campaigns, *wl, opt, failures);
  } catch (const std::exception& e) {
    failures.push_back(std::string("campaign error: ") + e.what());
    failed = attempted;
  }
  failed = std::min(failed, attempted);

  Metrics metrics;
  if (!campaigns.empty()) {
    if (opt.traced) {
      per_layer(campaigns, *wl, metrics);
      if (failures.empty()) wl->probes(metrics);
    } else {
      end_to_end(campaigns, metrics);
    }
    std::cout << info_line(opt, *wl, campaigns) << "\n";
  }
  for (const auto& f : failures) std::cerr << "perfbench: FAILED: " << f << "\n";
  const bool correct = failures.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
}
