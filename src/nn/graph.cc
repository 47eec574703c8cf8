#include "nn/graph.h"

#include <cassert>

namespace ulayer {

std::string_view LayerKindName(LayerKind k) {
  switch (k) {
    case LayerKind::kInput:
      return "input";
    case LayerKind::kConv:
      return "conv";
    case LayerKind::kDepthwiseConv:
      return "dwconv";
    case LayerKind::kFullyConnected:
      return "fc";
    case LayerKind::kPool:
      return "pool";
    case LayerKind::kGlobalAvgPool:
      return "gavgpool";
    case LayerKind::kRelu:
      return "relu";
    case LayerKind::kLrn:
      return "lrn";
    case LayerKind::kConcat:
      return "concat";
    case LayerKind::kEltwiseAdd:
      return "add";
    case LayerKind::kSoftmax:
      return "softmax";
  }
  return "?";
}

int Graph::Append(LayerDesc desc, std::vector<int> inputs, Shape out_shape) {
  for ([[maybe_unused]] int in : inputs) {
    assert(in >= 0 && in < size() && "inputs must already exist (topological append)");
  }
  Node n;
  n.id = size();
  n.desc = std::move(desc);
  n.inputs = std::move(inputs);
  n.out_shape = out_shape;
  nodes_.push_back(std::move(n));
  return nodes_.back().id;
}

int Graph::AddInput(const Shape& shape, std::string name) {
  LayerDesc d;
  d.kind = LayerKind::kInput;
  d.name = std::move(name);
  return Append(std::move(d), {}, shape);
}

int Graph::AddConv(std::string name, int input, int64_t out_channels, int kernel, int stride,
                   int pad, bool relu) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = kernel;
  p.stride_h = p.stride_w = stride;
  p.pad_h = p.pad_w = pad;
  p.relu = relu;
  LayerDesc d;
  d.kind = LayerKind::kConv;
  d.name = std::move(name);
  d.conv = p;
  d.out_channels = out_channels;
  const Shape in = node(input).out_shape;
  return Append(std::move(d), {input},
                Shape(in.n, out_channels, p.OutH(static_cast<int>(in.h)),
                      p.OutW(static_cast<int>(in.w))));
}

int Graph::AddConv2D(std::string name, int input, int64_t out_channels, const Conv2DParams& p) {
  LayerDesc d;
  d.kind = LayerKind::kConv;
  d.name = std::move(name);
  d.conv = p;
  d.out_channels = out_channels;
  const Shape in = node(input).out_shape;
  return Append(std::move(d), {input},
                Shape(in.n, out_channels, p.OutH(static_cast<int>(in.h)),
                      p.OutW(static_cast<int>(in.w))));
}

int Graph::AddDepthwiseConv(std::string name, int input, int kernel, int stride, int pad,
                            bool relu) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = kernel;
  p.stride_h = p.stride_w = stride;
  p.pad_h = p.pad_w = pad;
  p.relu = relu;
  LayerDesc d;
  d.kind = LayerKind::kDepthwiseConv;
  d.name = std::move(name);
  d.conv = p;
  const Shape in = node(input).out_shape;
  d.out_channels = in.c;
  return Append(std::move(d), {input},
                Shape(in.n, in.c, p.OutH(static_cast<int>(in.h)), p.OutW(static_cast<int>(in.w))));
}

int Graph::AddFullyConnected(std::string name, int input, int64_t out_features, bool relu) {
  const Shape in = node(input).out_shape;
  // An FC layer is a convolution whose kernel spans the whole input plane
  // (paper Section 2.1).
  Conv2DParams p;
  p.kernel_h = static_cast<int>(in.h);
  p.kernel_w = static_cast<int>(in.w);
  p.stride_h = p.stride_w = 1;
  p.pad_h = p.pad_w = 0;
  p.relu = relu;
  LayerDesc d;
  d.kind = LayerKind::kFullyConnected;
  d.name = std::move(name);
  d.conv = p;
  d.out_channels = out_features;
  return Append(std::move(d), {input}, Shape(in.n, out_features, 1, 1));
}

int Graph::AddPool(std::string name, int input, PoolKind kind, int kernel, int stride, int pad,
                   bool ceil_mode) {
  Pool2DParams p;
  p.kind = kind;
  p.kernel_h = p.kernel_w = kernel;
  p.stride_h = p.stride_w = stride;
  p.pad_h = p.pad_w = pad;
  p.ceil_mode = ceil_mode;
  LayerDesc d;
  d.kind = LayerKind::kPool;
  d.name = std::move(name);
  d.pool = p;
  const Shape in = node(input).out_shape;
  return Append(std::move(d), {input},
                Shape(in.n, in.c, p.OutH(static_cast<int>(in.h)), p.OutW(static_cast<int>(in.w))));
}

int Graph::AddGlobalAvgPool(std::string name, int input) {
  LayerDesc d;
  d.kind = LayerKind::kGlobalAvgPool;
  d.name = std::move(name);
  const Shape in = node(input).out_shape;
  return Append(std::move(d), {input}, Shape(in.n, in.c, 1, 1));
}

int Graph::AddRelu(std::string name, int input) {
  LayerDesc d;
  d.kind = LayerKind::kRelu;
  d.name = std::move(name);
  return Append(std::move(d), {input}, node(input).out_shape);
}

int Graph::AddLrn(std::string name, int input, const LrnParams& p) {
  LayerDesc d;
  d.kind = LayerKind::kLrn;
  d.name = std::move(name);
  d.lrn = p;
  return Append(std::move(d), {input}, node(input).out_shape);
}

int Graph::AddConcat(std::string name, const std::vector<int>& inputs) {
  assert(!inputs.empty());
  LayerDesc d;
  d.kind = LayerKind::kConcat;
  d.name = std::move(name);
  Shape out = node(inputs[0]).out_shape;
  for (size_t i = 1; i < inputs.size(); ++i) {
    const Shape& s = node(inputs[i]).out_shape;
    assert(s.n == out.n && s.h == out.h && s.w == out.w);
    out.c += s.c;
  }
  return Append(std::move(d), inputs, out);
}

int Graph::AddEltwiseAdd(std::string name, const std::vector<int>& inputs, bool relu) {
  assert(inputs.size() == 2 && "eltwise add is binary");
  const Shape out = node(inputs[0]).out_shape;
  for ([[maybe_unused]] int in : inputs) {
    assert(node(in).out_shape == out && "eltwise add requires identical shapes");
  }
  LayerDesc d;
  d.kind = LayerKind::kEltwiseAdd;
  d.name = std::move(name);
  d.conv.relu = relu;  // Fused post-add ReLU (ResNet joins).
  return Append(std::move(d), inputs, out);
}

int Graph::AddSoftmax(std::string name, int input) {
  LayerDesc d;
  d.kind = LayerKind::kSoftmax;
  d.name = std::move(name);
  return Append(std::move(d), {input}, node(input).out_shape);
}

std::vector<int> Graph::Consumers(int id) const {
  std::vector<int> out;
  for (const Node& n : nodes_) {
    for (int in : n.inputs) {
      if (in == id) {
        out.push_back(n.id);
        break;
      }
    }
  }
  return out;
}

Graph Graph::UncheckedFromNodes(std::vector<Node> nodes) {
  Graph g;
  g.nodes_ = std::move(nodes);
  return g;
}

}  // namespace ulayer
