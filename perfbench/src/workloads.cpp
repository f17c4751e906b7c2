#include "workloads.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <exception>
#include <filesystem>
#include <thread>  // fhdnn-lint: allow(raw-thread) — hosts the served workers
#include <utility>

#include "channel/channel.hpp"
#include "channel/hd_uplink.hpp"
#include "channel/transport.hpp"
#include "core/fhdnn.hpp"
#include "core/pipeline.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "fl/engine.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedhd.hpp"
#include "fl/serving.hpp"
#include "hdc/classifier.hpp"
#include "net/socket.hpp"
#include "nn/resnet.hpp"
#include "nn/serialize.hpp"
#include "probes.hpp"
#include "util/error.hpp"
#include "util/exactsum.hpp"
#include "util/snapshot.hpp"
#include "wire/messages.hpp"
#include "wire/wire.hpp"

namespace perfbench {

namespace fl = fhdnn::fl;
using fhdnn::Rng;
using fhdnn::Shape;
using fhdnn::Tensor;

namespace {

constexpr std::size_t kClients = 20;
constexpr double kClientFraction = 0.2;  // C
constexpr int kLocalEpochs = 2;          // E
constexpr std::size_t kBatch = 10;       // B (CNN)
constexpr double kTestFraction = 0.2;
constexpr int kProbeReps = 15;

/// Runs `run` (an engine's run()) as one campaign's round loop under
/// `timer`, recording wall, CPU, heap traffic and per-round samples.
template <typename Run>
void timed_loop(Campaign& c, RoundTimer& timer, Run&& run) {
  const AllocCount alloc0 = alloc_count();
  const double cpu0 = process_cpu_seconds();
  timer.start();
  c.history = run();
  c.loop_end = Clock::now();
  c.cpu_s = process_cpu_seconds() - cpu0;
  const AllocCount alloc1 = alloc_count();
  c.alloc = {alloc1.count - alloc0.count, alloc1.bytes - alloc0.bytes};
  c.loop_s = seconds_between(timer.loop_start(), c.loop_end);
  c.round_s = timer.round_seconds();
  c.drive_s = timer.drive_s();
  c.committed = timer.committed();
}

/// Mispredict updates behind each HD slot's reported error rate
/// (loss = updates / shard size).
double hd_updates(const std::vector<RoundTrace>& rounds,
                  const std::vector<fl::HdClientData>& shards) {
  double total = 0.0;
  for (const RoundTrace& t : rounds) {
    for (std::size_t s = 0; s < t.slot_ran.size(); ++s) {
      if (!t.slot_ran[s]) continue;
      const auto n = static_cast<double>(shards[t.slot_client[s]].labels.size());
      total += static_cast<double>(std::llround(t.slot_loss[s] * n));
    }
  }
  return total;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::equal(a.vec().begin(), a.vec().end(), b.vec().begin(),
                    [](float x, float y) {
                      return std::bit_cast<std::uint32_t>(x) ==
                             std::bit_cast<std::uint32_t>(y);
                    });
}

// ---------------------------------------------------------------------------
// FHDnn pipeline: synthetic FashionMNIST -> frozen extractor -> d-dim HD
// encoder -> FedHd over a bit-error uplink (AGC 16-bit).

struct FhdnnSizes {
  std::int64_t examples = 2000;
  std::int64_t hd_dim = 10'000;
  int rounds = 5;
};

class FhdnnWorkload : public Workload {
 public:
  FhdnnWorkload(const Options& opt, bool served)
      : opt_(opt), served_(served) {
    if (opt.tiny) sizes_ = {400, 1000, 2};
    model_cfg_.hd_dim = sizes_.hd_dim;
  }

  int rounds() const override { return sizes_.rounds; }
  double accuracy_floor() const override { return opt_.tiny ? 0.3 : 0.85; }
  bool served() const override { return served_; }

  Campaign campaign(bool traced) override {
    Campaign c;
    c.traced = traced;
    const auto start = Clock::now();
    build_inputs(c, traced);
    if (served_) {
      run_served(c, start, traced);
    } else {
      fl::FedHdTrainer trainer(enc_.clients, enc_.test, trainer_config());
      c.setup_s = seconds_since(start);
      fl::LocalRoundDriver local;
      if (traced) {
        TracingProtocol tp(trainer.protocol(), false);
        fl::RoundEngine engine(trainer.engine().config(), tp);
        RoundTimer timer(local, &tp);
        engine.set_round_driver(&timer);
        timed_loop(c, timer, [&] { return engine.run(); });
        c.server = tp.rounds();
        c.refine_updates = hd_updates(c.server, enc_.clients);
      } else {
        RoundTimer timer(local, nullptr);
        trainer.set_round_driver(&timer);
        timed_loop(c, timer, [&] { return trainer.run(); });
      }
      final_prototypes_ = trainer.global().prototypes();
    }
    return c;
  }

  std::string in_process_history() override {
    if (!served_) return {};
    fl::FedHdTrainer trainer(enc_.clients, enc_.test, trainer_config());
    return history_text(trainer.run());
  }

  void probes(Metrics& out) override {
    // A median-sized shard (IID shards differ by at most one example).
    std::vector<std::size_t> order(enc_.clients.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return enc_.clients[a].labels.size() < enc_.clients[b].labels.size();
    });
    const fl::HdClientData& shard = enc_.clients[order[order.size() / 2]];
    const auto k = model_cfg_.num_classes;
    const auto d = model_cfg_.hd_dim;

    fhdnn::hdc::HdClassifier local(k, d);
    out["hdc.refine_epoch_ms"] = {
        probe_ms(
            kProbeReps, [&] { local.set_prototypes(final_prototypes_); },
            [&] { (void)local.refine_epoch(shard.h, shard.labels); }),
        "ms"};
    fhdnn::hdc::HdClassifier global(k, d);
    global.set_prototypes(final_prototypes_);
    out["hdc.similarities_ms"] = {
        probe_ms(kProbeReps, [&] { (void)global.similarities(enc_.test.h); }),
        "ms"};
    Tensor model;
    Rng channel_rng(opt_.seed);
    const auto uplink = trainer_config().uplink;
    out["channel.transmit_ms"] = {
        probe_ms(
            kProbeReps, [&] { model = final_prototypes_; },
            [&] {
              (void)fhdnn::channel::transmit_hd_model(model, uplink,
                                                      channel_rng);
            }),
        "ms"};
    tensor_probes(train_, out);
    if (served_) wire_probe(out);
  }

 private:
  fl::FedHdConfig trainer_config() const {
    fl::FedHdConfig cfg;
    cfg.n_clients = enc_.clients.size();
    cfg.client_fraction = kClientFraction;
    cfg.local_epochs = kLocalEpochs;
    cfg.rounds = sizes_.rounds;
    cfg.num_classes = model_cfg_.num_classes;
    cfg.hd_dim = model_cfg_.hd_dim;
    cfg.seed = opt_.seed;
    cfg.uplink.mode = fhdnn::channel::HdUplinkMode::BitErrors;
    cfg.uplink.ber = 1e-4;
    cfg.uplink.quantizer_bits = 16;
    cfg.uplink.use_quantizer = true;
    return cfg;
  }

  /// Data generation, partitioning, calibration, extraction and encoding.
  /// Untraced campaigns call the library's pipeline entry point; traced
  /// ones time extract and encode separately and check that the
  /// composition equals the pipeline bit for bit.
  void build_inputs(Campaign& c, bool traced) {
    auto t = Clock::now();
    Rng rng(opt_.seed);
    Rng data_rng = rng.fork("data");
    auto full = fhdnn::data::synthetic_fashion(sizes_.examples, data_rng);
    auto split = fhdnn::data::train_test_split(full, kTestFraction, data_rng);
    train_ = std::move(split.train);
    test_ = std::move(split.test);
    parts_ = fhdnn::data::partition_iid(train_, kClients, data_rng);
    c.setup.data_s = seconds_since(t);
    if (!traced) {
      enc_ = fhdnn::core::encode_for_fhdnn(model_cfg_, train_, parts_, test_);
      return;
    }

    // The pipeline calibrates on the first min(256, n) training images.
    fhdnn::core::FhdnnModel model(model_cfg_);
    std::vector<std::size_t> calib(
        std::min<std::size_t>(256, static_cast<std::size_t>(train_.size())));
    for (std::size_t i = 0; i < calib.size(); ++i) calib[i] = i;
    t = Clock::now();
    model.calibrate(train_.gather(calib).x);
    c.setup.extract_s += seconds_since(t);
    c.setup.images += calib.size();
    const auto encode = [&](const fhdnn::data::Dataset& ds) {
      auto t0 = Clock::now();
      const Tensor z = model.extractor().extract(ds.x);
      c.setup.extract_s += seconds_since(t0);
      c.setup.images += static_cast<std::uint64_t>(ds.size());
      t0 = Clock::now();
      Tensor h = model.encoder().encode(z);
      c.setup.encode_s += seconds_since(t0);
      return fl::HdClientData{std::move(h), ds.labels};
    };
    enc_ = {};
    enc_.num_classes = model_cfg_.num_classes;
    enc_.hd_dim = model_cfg_.hd_dim;
    for (const auto& part : parts_) {
      enc_.clients.push_back(encode(train_.subset(part)));
    }
    enc_.test = encode(test_);

    const auto reference =
        fhdnn::core::encode_for_fhdnn(model_cfg_, train_, parts_, test_);
    bool equal = same_bits(reference.test.h, enc_.test.h) &&
                 reference.clients.size() == enc_.clients.size();
    for (std::size_t i = 0; equal && i < enc_.clients.size(); ++i) {
      equal = same_bits(reference.clients[i].h, enc_.clients[i].h);
    }
    if (!equal) {
      c.failures.push_back(
          "set-up probe composition (extract then encode) differs from "
          "encode_for_fhdnn");
    }
  }

  /// Two WorkerLoops on threads of this process, connected over TCP on
  /// 127.0.0.1; the engine commits a checkpoint after every round.
  void run_served(Campaign& c, Clock::time_point start, bool traced) {
    fl::FedHdConfig cfg = trainer_config();
    const std::string snap = opt_.work_dir + "/fhdnn_served.snap";
    cfg.checkpoint.path = snap;
    fl::FedHdTrainer server(enc_.clients, enc_.test, cfg);
    cfg.checkpoint.path.clear();
    constexpr int kWorkers = 2;
    std::vector<std::unique_ptr<fl::FedHdTrainer>> replicas;
    std::vector<std::unique_ptr<TracingProtocol>> worker_tp;
    for (int i = 0; i < kWorkers; ++i) {
      replicas.push_back(
          std::make_unique<fl::FedHdTrainer>(enc_.clients, enc_.test, cfg));
      if (traced) {
        worker_tp.push_back(
            std::make_unique<TracingProtocol>(replicas.back()->protocol(), true));
      }
    }

    std::vector<std::exception_ptr> worker_error(kWorkers);
    WorkerThreads threads;  // joined after the driver below closes its ends
    const auto hs_start = Clock::now();
    fhdnn::net::TcpListener listener("127.0.0.1", 0);
    const std::uint16_t port = listener.port();
    fl::ServerRoundDriver driver(server.config_fingerprint(), "fedhd");
    for (int i = 0; i < kWorkers; ++i) {
      fl::RoundProtocol* proto =
          traced ? static_cast<fl::RoundProtocol*>(worker_tp[i].get())
                 : &replicas[i]->protocol();
      const std::uint32_t fp = replicas[i]->config_fingerprint();
      threads.list.emplace_back([proto, fp, port, &err = worker_error[i]] {
        try {
          auto conn = fhdnn::net::connect_tcp("127.0.0.1", port, 30000);
          fl::WorkerLoop loop(*conn, *proto, fp, "fedhd");
          loop.handshake();
          (void)loop.serve();
        } catch (...) {
          err = std::current_exception();
        }
      });
    }
    int waited_ms = 0;
    while (driver.n_workers() < static_cast<std::size_t>(kWorkers)) {
      auto conn = listener.accept();
      if (!conn) {
        FHDNN_CHECK(waited_ms < 30000, "served workers did not connect");
        listener.wait_pending(10);
        waited_ms += 10;
        continue;
      }
      (void)driver.add_worker(std::move(conn));
    }
    c.setup.handshake_s = seconds_since(hs_start);
    c.setup_s = seconds_since(start);
    const std::uint64_t out0 = driver.wire_bytes_sent();
    const std::uint64_t in0 = driver.wire_bytes_received();

    if (traced) {
      TracingProtocol tp(server.protocol(), false);
      fl::RoundEngine engine(server.engine().config(), tp);
      RoundTimer timer(driver, &tp);
      engine.set_round_driver(&timer);
      timed_loop(c, timer, [&] { return engine.run(); });
      c.server = tp.rounds();
    } else {
      RoundTimer timer(driver, nullptr);
      server.set_round_driver(&timer);
      timed_loop(c, timer, [&] { return server.run(); });
    }
    c.wire_out = driver.wire_bytes_sent() - out0;
    c.wire_in = driver.wire_bytes_received() - in0;
    driver.shutdown(static_cast<std::int64_t>(c.history.size()));
    threads.join();
    for (const auto& e : worker_error) {
      if (e) std::rethrow_exception(e);
    }
    if (traced) {
      for (const auto& tp : worker_tp) c.workers.push_back(tp->rounds());
      std::vector<RoundTrace> all = c.server;
      for (const auto& w : c.workers) all.insert(all.end(), w.begin(), w.end());
      c.refine_updates = hd_updates(all, enc_.clients);
    }
    c.snapshot_bytes = std::filesystem::file_size(snap);
    final_prototypes_ = server.global().prototypes();
    // The round's broadcast blob, for the wire probe.
    fhdnn::util::SnapshotWriter w;
    w.begin_chunk("PROT");
    server.protocol().save_state(w);
    w.end_chunk();
    state_blob_ = w.finish();
  }

  /// wire.frame_roundtrip_ms: encode, CRC and decode of one RoundAssign
  /// carrying a round's state blob.
  void wire_probe(Metrics& out) {
    fhdnn::wire::RoundAssignMsg msg;
    msg.round_index = sizes_.rounds;
    msg.n_participants = 4;
    msg.rng = Rng(opt_.seed).state();
    msg.slots = {{0, 0}, {2, 1}};
    msg.state_blob = state_blob_;
    bool intact = true;
    out["wire.frame_roundtrip_ms"] = {
        probe_ms(kProbeReps,
                 [&] {
                   const fhdnn::wire::Frame f = msg.to_frame();
                   const auto bytes =
                       fhdnn::wire::encode_frame(f.type, f.payload);
                   const auto back = fhdnn::wire::RoundAssignMsg::from_frame(
                       fhdnn::wire::decode_frame(bytes.data(), bytes.size()));
                   intact = intact && back.state_blob == msg.state_blob;
                 }),
        "ms"};
    FHDNN_CHECK(intact, "wire probe: state blob changed in a round trip");
  }

  /// Joins the worker threads on every exit path; declared before the
  /// server driver so that, on an exception, the driver's destructor
  /// closes the server ends first and the workers' serve() returns.
  struct WorkerThreads {
    std::vector<std::thread> list;  // fhdnn-lint: allow(raw-thread)
    void join() {
      for (auto& t : list) {
        if (t.joinable()) t.join();
      }
    }
    ~WorkerThreads() { join(); }
  };

  Options opt_;
  bool served_;
  FhdnnSizes sizes_;
  fhdnn::core::FhdnnConfig model_cfg_;
  fhdnn::data::Dataset train_;
  fhdnn::data::Dataset test_;
  fhdnn::data::ClientIndices parts_;
  fhdnn::core::EncodedFederatedData enc_;
  Tensor final_prototypes_;
  std::vector<std::uint8_t> state_blob_;
};

// ---------------------------------------------------------------------------
// CNN baseline: synthetic MNIST, CNN-2, FedAvg over a packet-loss uplink.

class CnnWorkload final : public Workload {
 public:
  explicit CnnWorkload(const Options& opt) : opt_(opt) {
    if (opt.tiny) {
      examples_ = 400;
      rounds_ = 2;
    }
  }

  int rounds() const override { return rounds_; }
  // Test-sized inputs are too small for CNN-2 to learn in two rounds, so
  // the floor is only enforced at full size.
  double accuracy_floor() const override { return opt_.tiny ? 0.0 : 0.5; }

  Campaign campaign(bool traced) override {
    Campaign c;
    c.traced = traced;
    const auto start = Clock::now();
    Rng rng(opt_.seed);
    Rng data_rng = rng.fork("data");
    auto full = fhdnn::data::synthetic_mnist(examples_, data_rng);
    auto split = fhdnn::data::train_test_split(full, kTestFraction, data_rng);
    train_ = std::move(split.train);
    test_ = std::move(split.test);
    parts_ = fhdnn::data::partition_iid(train_, kClients, data_rng);
    c.setup.data_s = seconds_since(start);
    uplink_ = fhdnn::channel::make_packet_loss(kLossRate, kPacketBits);
    const std::int64_t channels = train_.x.dim(1);
    const std::int64_t hw = train_.x.dim(2);
    const std::int64_t classes = train_.num_classes;
    fl::ModelFactory factory = [=](Rng& r) {
      return fhdnn::nn::make_cnn2(channels, hw, classes, r);
    };
    fl::FedAvgConfig cfg;
    cfg.n_clients = kClients;
    cfg.client_fraction = kClientFraction;
    cfg.local_epochs = kLocalEpochs;
    cfg.batch_size = kBatch;
    cfg.lr = kLearningRate;
    cfg.rounds = rounds_;
    cfg.seed = opt_.seed;
    fl::FedAvgTrainer trainer(factory, train_, parts_, test_, cfg,
                              uplink_.get());
    c.setup_s = seconds_since(start);

    fl::LocalRoundDriver local;
    if (traced) {
      TracingProtocol tp(trainer.protocol(), false);
      fl::RoundEngine engine(trainer.engine().config(), tp);
      RoundTimer timer(local, &tp);
      engine.set_round_driver(&timer);
      timed_loop(c, timer, [&] { return engine.run(); });
      c.server = tp.rounds();
    } else {
      RoundTimer timer(local, nullptr);
      trainer.set_round_driver(&timer);
      timed_loop(c, timer, [&] { return trainer.run(); });
    }
    final_state_ = fhdnn::nn::get_state(trainer.global_model());
    return c;
  }

  void probes(Metrics& out) override {
    out["nn.train_step_ms"] = {nn_train_step_ms(train_), "ms"};
    tensor_probes(train_, out);
    std::vector<float> payload;
    Rng channel_rng(opt_.seed);
    out["channel.transmit_ms"] = {
        probe_ms(
            kProbeReps, [&] { payload = final_state_; },
            [&] { (void)uplink_->apply(payload, channel_rng); }),
        "ms"};
  }

 private:
  static constexpr double kLossRate = 0.1;
  static constexpr std::size_t kPacketBits = 8192;
  static constexpr float kLearningRate = 0.02F;

  Options opt_;
  std::int64_t examples_ = 2000;
  int rounds_ = 8;
  fhdnn::data::Dataset train_;
  fhdnn::data::Dataset test_;
  fhdnn::data::ClientIndices parts_;
  std::unique_ptr<fhdnn::channel::Channel> uplink_;
  std::vector<float> final_state_;
};

// ---------------------------------------------------------------------------
// Fleet scale: 1M registered clients, 10k sampled per deadline round, a
// synthetic d=1000 HD learner, exact-sum aggregation at fan-in 16 — the
// scale_million_clients configuration, built from the public fl seams.

/// Each client's update is a noisy copy of a hidden bipolar target drawn
/// from the seed, jittered from the client's rng fork: stateless across
/// clients, so the fleet scales past memory, and the aggregate's sign
/// agreement with the target gives the round an accuracy to check.
class TargetHdLearner final : public fl::LocalLearner<Tensor> {
 public:
  TargetHdLearner(std::int64_t dim, std::uint64_t seed, const Tensor& global)
      : target_(Shape{dim}), global_(global) {
    Rng rng = Rng(seed).fork("fleet-target");
    for (auto& v : target_.data()) v = rng.uniform() < 0.5 ? -1.0F : 1.0F;
  }

  TrainResult train(std::size_t /*client*/, Rng& client_rng) override {
    TrainResult r;
    r.update = Tensor(target_.shape());
    auto out = r.update.data();
    const auto target = target_.data();
    for (std::size_t i = 0; i < out.size(); ++i) {
      out[i] = static_cast<float>(target[i] + client_rng.uniform(-4.0, 4.0));
    }
    r.loss = 0.5;
    return r;
  }

  double evaluate() override {
    const auto g = global_.data();
    const auto t = target_.data();
    std::size_t agree = 0;
    for (std::size_t i = 0; i < g.size(); ++i) {
      agree += ((g[i] >= 0.0F) == (t[i] >= 0.0F)) ? 1 : 0;
    }
    return static_cast<double>(agree) / static_cast<double>(g.size());
  }

 private:
  Tensor target_;
  const Tensor& global_;
};

/// One bit per dimension on the air; the payload passes unchanged (the
/// workload measures the event machinery, not channel corruption).
class BinaryHdTransport final : public fhdnn::channel::Transport<Tensor> {
 public:
  explicit BinaryHdTransport(std::int64_t dim) : dim_(dim) {}

  fhdnn::channel::TransportStats transmit(Tensor& /*update*/,
                                          std::size_t /*client*/,
                                          Rng& /*client_rng*/,
                                          const Rng& /*round_rng*/)
      const override {
    fhdnn::channel::TransportStats s;
    s.payload_scalars = static_cast<std::uint64_t>(dim_);
    s.payload_bytes = static_cast<std::uint64_t>((dim_ + 7) / 8);
    s.bits_on_air = static_cast<std::uint64_t>(dim_);
    return s;
  }

  std::uint64_t update_bytes(std::uint64_t scalars) const override {
    return (scalars + 7) / 8;
  }

  std::string name() const override { return "binary-hd"; }

 private:
  std::int64_t dim_;
};

/// Exact-sum fan-in tree: leaves of `fan_in` updates merge into the root,
/// bit-identical to a flat sum at any fan-in (ExactSumVector is exactly
/// associative).
class TreeSumAggregator final : public fl::Aggregator<Tensor> {
 public:
  TreeSumAggregator(std::int64_t dim, std::size_t fan_in)
      : fan_in_(std::max<std::size_t>(fan_in, 2)),
        root_(static_cast<std::size_t>(dim)),
        leaf_(static_cast<std::size_t>(dim)),
        global_(Shape{dim}) {}

  void begin_round() override {
    root_.clear();
    leaf_.clear();
    leaf_count_ = 0;
  }

  void accumulate(std::size_t client, Tensor&& update) override {
    accumulate_weighted(client, std::move(update), 1.0);
  }

  void accumulate_weighted(std::size_t /*client*/, Tensor&& update,
                           double weight) override {
    if (weight != 1.0) update.scale(static_cast<float>(weight));
    leaf_.add(update.data());
    if (++leaf_count_ == fan_in_) flush_leaf();
  }

  void commit(std::size_t delivered) override {
    commit_weighted(delivered, static_cast<double>(delivered));
  }

  void commit_weighted(std::size_t /*n_updates*/,
                       double total_weight) override {
    flush_leaf();
    root_.round_to(global_.data());
    if (total_weight > 0.0) global_.scale(1.0F / static_cast<float>(total_weight));
  }

  const Tensor& global() const { return global_; }

 private:
  void flush_leaf() {
    if (leaf_count_ == 0) return;
    root_.add(leaf_);
    leaf_.clear();
    leaf_count_ = 0;
  }

  std::size_t fan_in_;
  fhdnn::util::ExactSumVector root_;
  fhdnn::util::ExactSumVector leaf_;
  std::size_t leaf_count_ = 0;
  Tensor global_;
};

class FleetWorkload final : public Workload {
 public:
  explicit FleetWorkload(const Options& opt) : opt_(opt) {
    if (opt.tiny) {
      registered_ = 20'000;
      sampled_ = 200;
      dim_ = 100;
      rounds_ = 2;
    }
  }

  int rounds() const override { return rounds_; }
  double accuracy_floor() const override { return 0.99; }

  Campaign campaign(bool traced) override {
    Campaign c;
    c.traced = traced;
    const auto start = Clock::now();
    TreeSumAggregator aggregator(dim_, kFanIn);
    TargetHdLearner learner(dim_, opt_.seed, aggregator.global());
    BinaryHdTransport transport(dim_);
    fl::ProtocolAdapter<Tensor> adapter(learner, transport, aggregator);
    TracingProtocol tp(adapter, false);
    fl::RoundProtocol& protocol =
        traced ? static_cast<fl::RoundProtocol&>(tp) : adapter;
    fl::RoundEngine engine(engine_config(), protocol);
    c.setup_s = seconds_since(start);

    fl::LocalRoundDriver local;
    RoundTimer timer(local, traced ? &tp : nullptr);
    engine.set_round_driver(&timer);
    timed_loop(c, timer, [&] { return engine.run(); });
    if (traced) c.server = tp.rounds();
    return c;
  }

  void probes(Metrics& /*out*/) override {}

 private:
  static constexpr std::size_t kFanIn = 16;

  fl::EngineConfig engine_config() const {
    fl::EngineConfig cfg;
    cfg.n_clients = 0;
    cfg.client_fraction =
        static_cast<double>(sampled_) / static_cast<double>(registered_);
    cfg.rounds = rounds_;
    cfg.eval_every = 1;
    cfg.seed = opt_.seed;
    cfg.name = "fleet";
    cfg.population.n_registered = registered_;
    cfg.population.mean_availability = 0.8;
    cfg.population.straggler_fraction = 0.1;
    cfg.population.straggler_slowdown = 4.0;
    cfg.population.compute_spread = 0.5;
    cfg.population.link_spread_max = 2.0;
    cfg.deadline.enabled = true;
    cfg.deadline.timeline.update_bits = static_cast<std::uint64_t>(dim_);
    cfg.deadline.timeline.fhdnn = true;
    cfg.deadline.timeline.compute_jitter = 0.1;
    cfg.deadline.deadline_factor = 4.0;
    return cfg;
  }

  Options opt_;
  std::size_t registered_ = 1'000'000;
  std::size_t sampled_ = 10'000;
  std::int64_t dim_ = 1000;
  int rounds_ = 10;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"fhdnn_ber", "cnn_fedavg",
                                                 "fhdnn_served", "fleet_1m"};
  return names;
}

std::unique_ptr<Workload> make_workload(const Options& options) {
  if (options.workload == "fhdnn_ber") {
    return std::make_unique<FhdnnWorkload>(options, false);
  }
  if (options.workload == "fhdnn_served") {
    return std::make_unique<FhdnnWorkload>(options, true);
  }
  if (options.workload == "cnn_fedavg") {
    return std::make_unique<CnnWorkload>(options);
  }
  if (options.workload == "fleet_1m") {
    return std::make_unique<FleetWorkload>(options);
  }
  throw fhdnn::Error("unknown workload \"" + options.workload + "\"");
}

}  // namespace perfbench
