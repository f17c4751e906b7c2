#include "data/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "util/error.hpp"
#include "util/parallel.hpp"
#include "util/workspace.hpp"

namespace fhdnn::data {

namespace {

/// One sinusoidal component of a class template.
struct Wave {
  double fx, fy, phase, amp;
};

/// Per-class template: channels x waves.
std::vector<std::vector<Wave>> make_template(const ImageSpec& spec, Rng& rng) {
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

/// Evaluate a template at (y, x) with a circular shift.
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

/// Samples whose random draws are staged at once by make_synthetic_images.
constexpr std::int64_t kSampleBlock = 64;

}  // namespace

Dataset make_synthetic_images(const ImageSpec& spec, Rng& rng) {
  FHDNN_CHECK(spec.channels > 0 && spec.hw > 0 && spec.classes > 1 &&
                  spec.n >= spec.classes,
              "ImageSpec invalid: n=" << spec.n << " classes=" << spec.classes);
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

  // Blocks of samples: draw each block's random numbers serially, in the
  // (i, ch, y, x) order of the original single loop, so the stream is
  // unchanged; then evaluate the pixels, each a pure function of its draws,
  // in parallel.
  const double hw = static_cast<double>(spec.hw);
  const std::int64_t pixels = spec.channels * spec.hw * spec.hw;
  const std::int64_t block = std::min(kSampleBlock, spec.n);
  util::Workspace& ws = util::tls_workspace();
  const util::Workspace::Scope scope(ws);
  double* jitter = ws.doubles(3 * block);  // dy, dx, amp per sample
  double* noise = ws.doubles(block * pixels);
  float* px = ds.x.data().data();
  for (std::int64_t i0 = 0; i0 < spec.n; i0 += block) {
    const std::int64_t len = std::min(block, spec.n - i0);
    for (std::int64_t s = 0; s < len; ++s) {
      ds.labels[static_cast<std::size_t>(i0 + s)] = (i0 + s) % spec.classes;
      double* jit = jitter + 3 * s;
      jit[0] = sample_rng.uniform(-spec.shift, spec.shift);
      jit[1] = sample_rng.uniform(-spec.shift, spec.shift);
      jit[2] = 1.0 + sample_rng.uniform(-spec.amp_jitter, spec.amp_jitter);
      double* nz = noise + s * pixels;
      for (std::int64_t p = 0; p < pixels; ++p) {
        nz[p] = sample_rng.normal(0.0, spec.noise);
      }
    }
    // One task per image row (sample, channel, y).
    parallel::parallel_for(
        0, len * spec.channels * spec.hw,
        parallel::grain_for(spec.hw * spec.waves * 32),
        [&](std::int64_t r0, std::int64_t r1) {
      for (std::int64_t r = r0; r < r1; ++r) {
        const std::int64_t s = r / (spec.channels * spec.hw);
        const std::int64_t ch = (r / spec.hw) % spec.channels;
        const std::int64_t y = r % spec.hw;
        const std::int64_t c = (i0 + s) % spec.classes;  // balanced
        const auto& waves = templates[static_cast<std::size_t>(c)]
                                     [static_cast<std::size_t>(ch)];
        const double dy = jitter[3 * s], dx = jitter[3 * s + 1];
        const double amp = jitter[3 * s + 2];
        const double* nz = noise + r * spec.hw;
        float* row = px + i0 * pixels + r * spec.hw;
        for (std::int64_t x = 0; x < spec.hw; ++x) {
          // Circular shift via phase offsets (periodic sinusoid templates).
          double v = amp * eval_template(waves, static_cast<double>(y) + dy,
                                         static_cast<double>(x) + dx, hw);
          // Map roughly [-waves, waves] into [0, 1] then perturb.
          v = 0.5 + 0.5 * v / static_cast<double>(spec.waves);
          v += nz[x];
          row[x] = static_cast<float>(std::clamp(v, 0.0, 1.0));
        }
      }
    });
  }
  ds.check();
  return ds;
}

Dataset synthetic_mnist(std::int64_t n, Rng& rng) {
  ImageSpec spec;
  spec.channels = 1;
  spec.hw = 28;
  spec.classes = 10;
  spec.n = n;
  spec.waves = 5;
  spec.max_frequency = 2.5;
  spec.shift = 1.5;
  spec.noise = 0.06;
  spec.name = "synthetic-mnist";
  return make_synthetic_images(spec, rng);
}

Dataset synthetic_fashion(std::int64_t n, Rng& rng) {
  ImageSpec spec;
  spec.channels = 1;
  spec.hw = 28;
  spec.classes = 10;
  spec.n = n;
  spec.waves = 7;
  spec.max_frequency = 3.5;
  spec.shift = 2.0;
  spec.noise = 0.10;
  spec.name = "synthetic-fashion";
  return make_synthetic_images(spec, rng);
}

Dataset synthetic_cifar(std::int64_t n, Rng& rng) {
  ImageSpec spec;
  spec.channels = 3;
  spec.hw = 32;
  spec.classes = 10;
  spec.n = n;
  spec.waves = 8;
  spec.max_frequency = 4.0;
  spec.shift = 3.0;
  spec.noise = 0.14;
  spec.name = "synthetic-cifar";
  return make_synthetic_images(spec, rng);
}

Dataset make_isolet_like(const IsoletSpec& spec, Rng& rng) {
  FHDNN_CHECK(spec.dims > 0 && spec.classes > 1 && spec.n >= spec.classes &&
                  spec.rank > 0 && spec.rank <= spec.dims,
              "IsoletSpec invalid");
  Rng mean_rng = rng.fork("means");
  Rng cov_rng = rng.fork("cov");
  Rng sample_rng = rng.fork("samples");

  // Class means: random directions scaled by `separation * sqrt(dims)` so
  // pairwise distances stay O(separation) relative to unit noise.
  std::vector<std::vector<float>> means(static_cast<std::size_t>(spec.classes));
  for (auto& mu : means) {
    mu.resize(static_cast<std::size_t>(spec.dims));
    mean_rng.fill_normal(mu, 0.0F, static_cast<float>(spec.separation));
  }

  // Shared low-rank loading matrix (dims x rank), entries N(0, 1/sqrt(rank)).
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
  const float* pu = u.data();
  float* px = ds.x.data().data();
  for (std::int64_t i = 0; i < spec.n; ++i) {
    const std::int64_t c = i % spec.classes;
    ds.labels[static_cast<std::size_t>(i)] = c;
    sample_rng.fill_normal(u, 0.0F, 1.0F);
    const float* mu = means[static_cast<std::size_t>(c)].data();
    float* row = px + i * spec.dims;
    for (std::int64_t d = 0; d < spec.dims; ++d) {
      const float* load = loading.data() + d * spec.rank;
      double v = mu[d];
      for (std::int64_t r = 0; r < spec.rank; ++r) v += load[r] * pu[r];
      v += sample_rng.normal(0.0, spec.noise);
      row[d] = static_cast<float>(v);
    }
  }
  ds.check();
  return ds;
}

}  // namespace fhdnn::data
