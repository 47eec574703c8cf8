#include "core/reference.h"

#include <algorithm>
#include <cassert>

#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/pool.h"

namespace ulayer {

std::vector<Tensor> ForwardF32(const Model& m, const Tensor& input) {
  assert(m.has_weights() && "call MaterializeWeights() first");
  const Graph& g = m.graph;
  std::vector<Tensor> act(static_cast<size_t>(g.size()));
  for (const Node& n : g.nodes()) {
    Tensor& out = act[static_cast<size_t>(n.id)];
    switch (n.desc.kind) {
      case LayerKind::kInput:
        assert(input.shape() == n.out_shape);
        out = input;
        break;
      case LayerKind::kConv:
      case LayerKind::kFullyConnected: {
        const LayerWeights& w = m.weights.at(n.id);
        out = Tensor(n.out_shape, DType::kF32);
        Conv2DF32(act[static_cast<size_t>(n.inputs[0])], w.filters, w.bias, n.desc.conv, out);
        break;
      }
      case LayerKind::kDepthwiseConv: {
        const LayerWeights& w = m.weights.at(n.id);
        out = Tensor(n.out_shape, DType::kF32);
        DepthwiseConv2DF32(act[static_cast<size_t>(n.inputs[0])], w.filters, w.bias, n.desc.conv,
                           out);
        break;
      }
      case LayerKind::kPool:
        out = Tensor(n.out_shape, DType::kF32);
        Pool2DF32(act[static_cast<size_t>(n.inputs[0])], n.desc.pool, out);
        break;
      case LayerKind::kGlobalAvgPool:
        out = Tensor(n.out_shape, DType::kF32);
        GlobalAvgPoolF32(act[static_cast<size_t>(n.inputs[0])], out);
        break;
      case LayerKind::kRelu:
        out = act[static_cast<size_t>(n.inputs[0])];
        ReluF32(out);
        break;
      case LayerKind::kLrn:
        out = Tensor(n.out_shape, DType::kF32);
        LrnF32(act[static_cast<size_t>(n.inputs[0])], n.desc.lrn, out);
        break;
      case LayerKind::kConcat: {
        out = Tensor(n.out_shape, DType::kF32);
        std::vector<const Tensor*> ins;
        ins.reserve(n.inputs.size());
        for (int in : n.inputs) {
          ins.push_back(&act[static_cast<size_t>(in)]);
        }
        ConcatChannels(ins, out);
        break;
      }
      case LayerKind::kEltwiseAdd: {
        out = Tensor(n.out_shape, DType::kF32);
        EltwiseAddF32(act[static_cast<size_t>(n.inputs[0])], act[static_cast<size_t>(n.inputs[1])],
                      out, n.desc.conv.relu);
        break;
      }
      case LayerKind::kSoftmax:
        out = Tensor(n.out_shape, DType::kF32);
        Softmax(act[static_cast<size_t>(n.inputs[0])], out);
        break;
    }
  }
  return act;
}

int64_t Argmax(const Tensor& probs) {
  assert(probs.dtype() == DType::kF32);
  const float* p = probs.Data<float>();
  return std::max_element(p, p + probs.NumElements()) - p;
}

std::vector<int64_t> TopK(const Tensor& probs, int k) {
  assert(probs.dtype() == DType::kF32);
  const float* p = probs.Data<float>();
  std::vector<int64_t> idx(static_cast<size_t>(probs.NumElements()));
  for (size_t i = 0; i < idx.size(); ++i) {
    idx[i] = static_cast<int64_t>(i);
  }
  const size_t kk = std::min<size_t>(static_cast<size_t>(k), idx.size());
  std::partial_sort(idx.begin(), idx.begin() + static_cast<int64_t>(kk), idx.end(),
                    [&](int64_t a, int64_t b) { return p[a] > p[b]; });
  idx.resize(kk);
  return idx;
}

}  // namespace ulayer
