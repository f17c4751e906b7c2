#include "probes.hpp"

#include <memory>

#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "nn/resnet.hpp"
#include "tensor/conv.hpp"
#include "tensor/ops.hpp"
#include "util/error.hpp"

namespace perfbench {

namespace {

constexpr int kReps = 15;
constexpr std::size_t kBatch = 10;

fhdnn::data::Dataset::Batch first_batch(const fhdnn::data::Dataset& ds) {
  std::vector<std::size_t> idx(std::min<std::size_t>(
      kBatch, static_cast<std::size_t>(ds.size())));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  return ds.gather(idx);
}

/// CNN-2's learnable tensors in layer order: conv1 w/b, conv2 w/b, fc1 w/b,
/// fc2 w/b.
std::vector<fhdnn::Tensor*> cnn2_weights(fhdnn::nn::Module& model) {
  std::vector<fhdnn::Tensor*> out;
  for (fhdnn::nn::Parameter* p : model.parameters()) out.push_back(&p->value);
  FHDNN_CHECK(out.size() == 8 && out[2]->ndim() == 4 && out[4]->ndim() == 2,
              "unexpected CNN-2 parameter layout");
  return out;
}

}  // namespace

void tensor_probes(const fhdnn::data::Dataset& images, Metrics& out) {
  using fhdnn::Tensor;
  namespace ops = fhdnn::ops;
  fhdnn::Rng rng(7);
  auto model = fhdnn::nn::make_cnn2(images.x.dim(1), images.x.dim(2),
                                    images.num_classes, rng);
  const auto w = cnn2_weights(*model);
  const auto batch = first_batch(images);

  // Real activations at each layer's input: conv1 -> relu -> pool gives
  // conv2's input; conv2 -> relu -> pool, flattened, gives fc1's.
  const ops::Conv2dSpec spec1{w[0]->dim(1), w[0]->dim(0), 3, 1, 1};
  const ops::Conv2dSpec spec2{w[2]->dim(1), w[2]->dim(0), 3, 1, 1};
  const Tensor a1 = ops::maxpool2d_forward(
                        ops::relu(ops::conv2d_forward(batch.x, *w[0], *w[1],
                                                      spec1)),
                        2)
                        .output;
  const Tensor a2 = ops::maxpool2d_forward(
                        ops::relu(ops::conv2d_forward(a1, *w[2], *w[3], spec2)),
                        2)
                        .output;
  const Tensor flat = a2.reshaped({a2.dim(0), a2.numel() / a2.dim(0)});
  const Tensor grad2 = ops::conv2d_forward(a1, *w[2], *w[3], spec2);

  out["tensor.matmul_bt_ms"] = {
      probe_ms(kReps, [&] { (void)ops::matmul_bt(flat, *w[4]); }), "ms"};
  out["tensor.conv2d_fwd_ms"] = {
      probe_ms(kReps,
               [&] { (void)ops::conv2d_forward(a1, *w[2], *w[3], spec2); }),
      "ms"};
  out["tensor.conv2d_bwd_ms"] = {
      probe_ms(kReps,
               [&] { (void)ops::conv2d_backward(grad2, a1, *w[2], spec2); }),
      "ms"};
}

double nn_train_step_ms(const fhdnn::data::Dataset& images) {
  fhdnn::Rng rng(7);
  auto model = fhdnn::nn::make_cnn2(images.x.dim(1), images.x.dim(2),
                                    images.num_classes, rng);
  model->set_training(true);
  fhdnn::nn::Sgd opt(*model, {0.05F, 0.9F, 0.0F});
  fhdnn::nn::CrossEntropyLoss loss_fn;
  const auto batch = first_batch(images);
  return probe_ms(kReps, [&] {
    opt.zero_grad();
    const fhdnn::Tensor& logits = model->forward(batch.x);
    (void)loss_fn.forward(logits, batch.labels);
    model->backward(loss_fn.backward());
    opt.step();
  });
}

}  // namespace perfbench
