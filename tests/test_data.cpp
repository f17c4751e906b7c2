// Tests for src/data: dataset container, synthetic generators, partitioners.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "data/dataset.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace fhdnn {
namespace {

using data::Dataset;

Dataset tiny_feature_dataset() {
  Dataset ds;
  ds.x = Tensor(Shape{6, 2}, {0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5});
  ds.labels = {0, 1, 0, 1, 0, 1};
  ds.num_classes = 2;
  ds.name = "tiny";
  return ds;
}

TEST(Dataset, CheckValidates) {
  Dataset ds = tiny_feature_dataset();
  EXPECT_NO_THROW(ds.check());
  ds.labels[0] = 5;
  EXPECT_THROW(ds.check(), Error);
  ds.labels[0] = 0;
  ds.labels.pop_back();
  EXPECT_THROW(ds.check(), Error);
}

TEST(Dataset, GatherPreservesRowsAndLabels) {
  Dataset ds = tiny_feature_dataset();
  const auto b = ds.gather({2, 5});
  EXPECT_EQ(b.x.shape(), (Shape{2, 2}));
  EXPECT_EQ(b.x(0, 0), 2.0F);
  EXPECT_EQ(b.x(1, 1), 5.0F);
  EXPECT_EQ(b.labels[0], 0);
  EXPECT_EQ(b.labels[1], 1);
  EXPECT_THROW(ds.gather({6}), Error);
  EXPECT_THROW(ds.gather({}), Error);
}

TEST(Dataset, SubsetAndHistogram) {
  Dataset ds = tiny_feature_dataset();
  const Dataset sub = ds.subset({0, 2, 4});
  EXPECT_EQ(sub.size(), 3);
  const auto hist = sub.label_histogram();
  EXPECT_EQ(hist[0], 3);
  EXPECT_EQ(hist[1], 0);
}

TEST(Dataset, TrainTestSplitPartitions) {
  Dataset ds = tiny_feature_dataset();
  Rng rng(1);
  const auto split = data::train_test_split(ds, 0.34, rng);
  EXPECT_EQ(split.train.size() + split.test.size(), ds.size());
  EXPECT_GE(split.test.size(), 1);
  EXPECT_THROW(data::train_test_split(ds, 0.0, rng), Error);
  EXPECT_THROW(data::train_test_split(ds, 1.0, rng), Error);
}

TEST(BatchIterator, CoversEveryIndexOnce) {
  Rng rng(2);
  data::BatchIterator it(10, 3, rng);
  std::multiset<std::size_t> seen;
  std::size_t batches = 0;
  while (!it.done()) {
    const auto b = it.next();
    EXPECT_LE(b.size(), 3U);
    seen.insert(b.begin(), b.end());
    ++batches;
  }
  EXPECT_EQ(batches, 4U);  // 3+3+3+1
  EXPECT_EQ(seen.size(), 10U);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(seen.count(i), 1U);
  EXPECT_TRUE(it.next().empty());
  it.reset(rng);
  EXPECT_FALSE(it.done());
}

// ------------------------------------------------------------ synthetic

TEST(SyntheticImages, ShapesAndRanges) {
  Rng rng(3);
  const auto ds = data::synthetic_mnist(100, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{100, 1, 28, 28}));
  EXPECT_EQ(ds.num_classes, 10);
  EXPECT_GE(ds.x.min(), 0.0F);
  EXPECT_LE(ds.x.max(), 1.0F);
}

TEST(SyntheticImages, BalancedLabels) {
  Rng rng(4);
  const auto ds = data::synthetic_fashion(200, rng);
  const auto hist = ds.label_histogram();
  for (const auto h : hist) EXPECT_EQ(h, 20);
}

TEST(SyntheticImages, DeterministicInSeed) {
  Rng a(5), b(5), c(6);
  const auto d1 = data::synthetic_cifar(20, a);
  const auto d2 = data::synthetic_cifar(20, b);
  const auto d3 = data::synthetic_cifar(20, c);
  EXPECT_EQ(d1.x.vec(), d2.x.vec());
  EXPECT_NE(d1.x.vec(), d3.x.vec());
}

TEST(SyntheticImages, CifarIsRgb) {
  Rng rng(7);
  const auto ds = data::synthetic_cifar(10, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{10, 3, 32, 32}));
}

TEST(SyntheticImages, SameClassMoreSimilarThanCrossClass) {
  // Class structure: intra-class distance should be below inter-class
  // distance on average.
  Rng rng(8);
  data::ImageSpec spec;
  spec.n = 60;
  spec.classes = 3;
  spec.noise = 0.05;
  const auto ds = data::make_synthetic_images(spec, rng);
  auto dist = [&](std::int64_t i, std::int64_t j) {
    double s = 0.0;
    const std::int64_t per = ds.example_numel();
    for (std::int64_t k = 0; k < per; ++k) {
      const double d = ds.x.at(i * per + k) - ds.x.at(j * per + k);
      s += d * d;
    }
    return s;
  };
  double intra = 0.0, inter = 0.0;
  int n_intra = 0, n_inter = 0;
  for (std::int64_t i = 0; i < 30; ++i) {
    for (std::int64_t j = i + 1; j < 30; ++j) {
      if (ds.labels[i] == ds.labels[j]) {
        intra += dist(i, j);
        ++n_intra;
      } else {
        inter += dist(i, j);
        ++n_inter;
      }
    }
  }
  EXPECT_LT(intra / n_intra, inter / n_inter);
}

TEST(SyntheticImages, RejectsBadSpec) {
  Rng rng(9);
  data::ImageSpec spec;
  spec.n = 5;
  spec.classes = 10;  // n < classes
  EXPECT_THROW(data::make_synthetic_images(spec, rng), Error);
}

TEST(IsoletLike, ShapeAndClasses) {
  Rng rng(10);
  data::IsoletSpec spec;
  spec.n = 260;
  const auto ds = data::make_isolet_like(spec, rng);
  EXPECT_EQ(ds.x.shape(), (Shape{260, 617}));
  EXPECT_EQ(ds.num_classes, 26);
  const auto hist = ds.label_histogram();
  for (const auto h : hist) EXPECT_EQ(h, 10);
}

TEST(IsoletLike, SeparationKnobWorks) {
  // Higher separation => higher nearest-class-mean accuracy.
  auto ncm_accuracy = [](double sep, std::uint64_t seed) {
    Rng rng(seed);
    data::IsoletSpec spec;
    spec.n = 520;
    spec.separation = sep;
    const auto ds = data::make_isolet_like(spec, rng);
    // Split halves: fit means on first half, evaluate on second.
    std::vector<std::vector<double>> means(
        26, std::vector<double>(617, 0.0));
    std::vector<int> counts(26, 0);
    for (std::int64_t i = 0; i < 260; ++i) {
      const auto y = ds.labels[static_cast<std::size_t>(i)];
      for (std::int64_t d = 0; d < 617; ++d) {
        means[static_cast<std::size_t>(y)][static_cast<std::size_t>(d)] +=
            ds.x(i, d);
      }
      ++counts[static_cast<std::size_t>(y)];
    }
    for (std::size_t k = 0; k < 26; ++k) {
      for (auto& v : means[k]) v /= counts[k];
    }
    int correct = 0;
    for (std::int64_t i = 260; i < 520; ++i) {
      double best = 1e300;
      std::size_t arg = 0;
      for (std::size_t k = 0; k < 26; ++k) {
        double d2 = 0.0;
        for (std::int64_t d = 0; d < 617; ++d) {
          const double diff = ds.x(i, d) - means[k][static_cast<std::size_t>(d)];
          d2 += diff * diff;
        }
        if (d2 < best) {
          best = d2;
          arg = k;
        }
      }
      correct += (static_cast<std::int64_t>(arg) ==
                  ds.labels[static_cast<std::size_t>(i)]);
    }
    return correct / 260.0;
  };
  EXPECT_GT(ncm_accuracy(2.0, 11), ncm_accuracy(0.2, 11));
  EXPECT_GT(ncm_accuracy(2.0, 11), 0.8);
}

// ------------------------------------------- generators vs serial oracle
//
// The generators draw each block's random numbers serially and evaluate the
// pixels in parallel. The oracle below is a verbatim copy of the former
// single-loop generators (accessor writes, draws interleaved with the pixel
// math); the datasets must match it byte for byte at 1 and 4 threads.

namespace oracle {

struct Wave {
  double fx, fy, phase, amp;
};

std::vector<std::vector<Wave>> make_template(const data::ImageSpec& spec,
                                             Rng& rng) {
  std::vector<std::vector<Wave>> chans(static_cast<std::size_t>(spec.channels));
  for (auto& waves : chans) {
    waves.resize(static_cast<std::size_t>(spec.waves));
    for (auto& w : waves) {
      w.fx = rng.uniform(0.5, spec.max_frequency);
      w.fy = rng.uniform(0.5, spec.max_frequency);
      if (rng.bernoulli(0.5)) w.fx = -w.fx;
      if (rng.bernoulli(0.5)) w.fy = -w.fy;
      w.phase = rng.uniform(0.0, 2.0 * std::numbers::pi);
      w.amp = rng.uniform(0.5, 1.0);
    }
  }
  return chans;
}

float eval_template(const std::vector<Wave>& waves, double y, double x,
                    double hw) {
  double v = 0.0;
  for (const auto& w : waves) {
    v += w.amp * std::sin(2.0 * std::numbers::pi *
                              (w.fx * x / hw + w.fy * y / hw) +
                          w.phase);
  }
  return static_cast<float>(v);
}

Dataset make_synthetic_images(const data::ImageSpec& spec, Rng& rng) {
  Rng tmpl_rng = rng.fork("templates");
  Rng sample_rng = rng.fork("samples");

  std::vector<std::vector<std::vector<Wave>>> templates;
  templates.reserve(static_cast<std::size_t>(spec.classes));
  for (std::int64_t c = 0; c < spec.classes; ++c) {
    templates.push_back(make_template(spec, tmpl_rng));
  }

  Dataset ds;
  ds.num_classes = spec.classes;
  ds.name = spec.name;
  ds.x = Tensor(Shape{spec.n, spec.channels, spec.hw, spec.hw});
  ds.labels.resize(static_cast<std::size_t>(spec.n));

  const double hw = static_cast<double>(spec.hw);
  for (std::int64_t i = 0; i < spec.n; ++i) {
    const std::int64_t c = i % spec.classes;  // balanced
    ds.labels[static_cast<std::size_t>(i)] = c;
    const double dy = sample_rng.uniform(-spec.shift, spec.shift);
    const double dx = sample_rng.uniform(-spec.shift, spec.shift);
    const double amp =
        1.0 + sample_rng.uniform(-spec.amp_jitter, spec.amp_jitter);
    for (std::int64_t ch = 0; ch < spec.channels; ++ch) {
      const auto& waves = templates[static_cast<std::size_t>(c)]
                                   [static_cast<std::size_t>(ch)];
      for (std::int64_t y = 0; y < spec.hw; ++y) {
        for (std::int64_t x = 0; x < spec.hw; ++x) {
          // Circular shift via phase offsets (periodic sinusoid templates).
          double v = amp * eval_template(waves, static_cast<double>(y) + dy,
                                         static_cast<double>(x) + dx, hw);
          // Map roughly [-waves, waves] into [0, 1] then perturb.
          v = 0.5 + 0.5 * v / static_cast<double>(spec.waves);
          v += sample_rng.normal(0.0, spec.noise);
          ds.x(i, ch, y, x) =
              static_cast<float>(std::clamp(v, 0.0, 1.0));
        }
      }
    }
  }
  ds.check();
  return ds;
}

Dataset make_isolet_like(const data::IsoletSpec& spec, Rng& rng) {
  Rng mean_rng = rng.fork("means");
  Rng cov_rng = rng.fork("cov");
  Rng sample_rng = rng.fork("samples");

  std::vector<std::vector<float>> means(static_cast<std::size_t>(spec.classes));
  for (auto& mu : means) {
    mu.resize(static_cast<std::size_t>(spec.dims));
    mean_rng.fill_normal(mu, 0.0F, static_cast<float>(spec.separation));
  }

  std::vector<float> loading(
      static_cast<std::size_t>(spec.dims * spec.rank));
  cov_rng.fill_normal(loading, 0.0F,
                      1.0F / std::sqrt(static_cast<float>(spec.rank)));

  Dataset ds;
  ds.num_classes = spec.classes;
  ds.name = "synthetic-isolet";
  ds.x = Tensor(Shape{spec.n, spec.dims});
  ds.labels.resize(static_cast<std::size_t>(spec.n));

  std::vector<float> u(static_cast<std::size_t>(spec.rank));
  for (std::int64_t i = 0; i < spec.n; ++i) {
    const std::int64_t c = i % spec.classes;
    ds.labels[static_cast<std::size_t>(i)] = c;
    sample_rng.fill_normal(u, 0.0F, 1.0F);
    const auto& mu = means[static_cast<std::size_t>(c)];
    for (std::int64_t d = 0; d < spec.dims; ++d) {
      double v = mu[static_cast<std::size_t>(d)];
      for (std::int64_t r = 0; r < spec.rank; ++r) {
        v += loading[static_cast<std::size_t>(d * spec.rank + r)] *
             u[static_cast<std::size_t>(r)];
      }
      v += sample_rng.normal(0.0, spec.noise);
      ds.x(i, d) = static_cast<float>(v);
    }
  }
  ds.check();
  return ds;
}

/// The specs of data::synthetic_mnist / _fashion / _cifar.
data::ImageSpec image_spec(const std::string& which, std::int64_t n) {
  data::ImageSpec spec;
  spec.n = n;
  spec.classes = 10;
  if (which == "mnist") {
    spec.channels = 1;
    spec.hw = 28;
    spec.waves = 5;
    spec.max_frequency = 2.5;
    spec.shift = 1.5;
    spec.noise = 0.06;
    spec.name = "synthetic-mnist";
  } else if (which == "fashion") {
    spec.channels = 1;
    spec.hw = 28;
    spec.waves = 7;
    spec.max_frequency = 3.5;
    spec.shift = 2.0;
    spec.noise = 0.10;
    spec.name = "synthetic-fashion";
  } else {
    spec.channels = 3;
    spec.hw = 32;
    spec.waves = 8;
    spec.max_frequency = 4.0;
    spec.shift = 3.0;
    spec.noise = 0.14;
    spec.name = "synthetic-cifar";
  }
  return spec;
}

}  // namespace oracle

/// FNV-1a over the pixel bytes, the labels and the class count.
std::uint64_t dataset_hash(const Dataset& ds) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* p, std::size_t len) {
    const auto* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < len; ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  };
  mix(ds.x.data().data(), ds.x.data().size() * sizeof(float));
  mix(ds.labels.data(), ds.labels.size() * sizeof(std::int64_t));
  mix(&ds.num_classes, sizeof(ds.num_classes));
  return h;
}

class GeneratorOracle : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = parallel::num_threads(); }
  void TearDown() override { parallel::set_num_threads(saved_threads_); }
  int saved_threads_ = 1;
};

TEST_F(GeneratorOracle, ImagesMatchSerialOracleAtOneAndFourThreads) {
  // 150 samples: two full 64-sample blocks and a partial one.
  const std::int64_t n = 150;
  const std::pair<std::string, Dataset (*)(std::int64_t, Rng&)> kinds[] = {
      {"mnist", data::synthetic_mnist},
      {"fashion", data::synthetic_fashion},
      {"cifar", data::synthetic_cifar}};
  for (const auto& [name, make] : kinds) {
    Rng oracle_rng(4242);
    const Dataset want =
        oracle::make_synthetic_images(oracle::image_spec(name, n), oracle_rng);
    for (const int threads : {1, 4}) {
      parallel::set_num_threads(threads);
      Rng rng(4242);
      const Dataset got = make(n, rng);
      EXPECT_EQ(got.x.shape(), want.x.shape()) << name;
      EXPECT_EQ(got.name, want.name) << name;
      EXPECT_EQ(dataset_hash(got), dataset_hash(want))
          << name << " at " << threads << " threads";
    }
  }
}

TEST_F(GeneratorOracle, IsoletMatchesSerialOracleAtOneAndFourThreads) {
  data::IsoletSpec spec;
  spec.n = 104;
  Rng oracle_rng(4343);
  const Dataset want = oracle::make_isolet_like(spec, oracle_rng);
  for (const int threads : {1, 4}) {
    parallel::set_num_threads(threads);
    Rng rng(4343);
    const Dataset got = data::make_isolet_like(spec, rng);
    EXPECT_EQ(dataset_hash(got), dataset_hash(want))
        << "isolet at " << threads << " threads";
  }
}

// ------------------------------------------------------------ partitioning

TEST(Partition, IidCoversAllDisjoint) {
  Rng rng(12);
  const auto ds = data::synthetic_mnist(103, rng);
  const auto parts = data::partition_iid(ds, 10, rng);
  ASSERT_EQ(parts.size(), 10U);
  std::set<std::size_t> seen;
  for (const auto& p : parts) {
    EXPECT_GE(p.size(), 10U);
    for (const auto i : p) {
      EXPECT_TRUE(seen.insert(i).second) << "index " << i << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 103U);
}

TEST(Partition, IidNearlyUniformLabels) {
  Rng rng(13);
  const auto ds = data::synthetic_mnist(1000, rng);
  const auto parts = data::partition_iid(ds, 5, rng);
  EXPECT_LT(data::label_skew(ds, parts), 0.2);  // 1/10 ideal
}

TEST(Partition, DirichletSkewOrdering) {
  Rng rng(14);
  const auto ds = data::synthetic_mnist(1000, rng);
  Rng r1 = rng.fork("a"), r2 = rng.fork("b");
  const auto skewed = data::partition_dirichlet(ds, 10, 0.1, r1);
  const auto mild = data::partition_dirichlet(ds, 10, 100.0, r2);
  EXPECT_GT(data::label_skew(ds, skewed), data::label_skew(ds, mild));
  // All clients non-empty; indices disjoint and complete.
  std::set<std::size_t> seen;
  for (const auto& p : skewed) {
    EXPECT_FALSE(p.empty());
    for (const auto i : p) EXPECT_TRUE(seen.insert(i).second);
  }
  EXPECT_EQ(seen.size(), 1000U);
}

TEST(Partition, ShardsLimitLabelsPerClient) {
  Rng rng(15);
  const auto ds = data::synthetic_mnist(1000, rng);
  const auto parts = data::partition_shards(ds, 10, 2, rng);
  ASSERT_EQ(parts.size(), 10U);
  for (const auto& p : parts) {
    std::set<std::int64_t> labels;
    for (const auto i : p) labels.insert(ds.labels[i]);
    EXPECT_LE(labels.size(), 3U);  // 2 shards -> at most ~2-3 labels
  }
  EXPECT_GT(data::label_skew(ds, parts), 0.4);
}

TEST(Partition, ErrorsOnBadArgs) {
  Rng rng(16);
  const auto ds = data::synthetic_mnist(20, rng);
  EXPECT_THROW(data::partition_iid(ds, 0, rng), Error);
  EXPECT_THROW(data::partition_iid(ds, 21, rng), Error);
  EXPECT_THROW(data::partition_dirichlet(ds, 5, 0.0, rng), Error);
  EXPECT_THROW(data::partition_shards(ds, 10, 3, rng), Error);
}

}  // namespace
}  // namespace fhdnn
