// Graph: a DAG of NN layers with shape inference.
//
// The graph is a pure structural description (no weights); weights live in
// models::Model. Nodes are appended in topological order, so node id order
// is a valid execution order.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/params.h"
#include "tensor/shape.h"

namespace ulayer {

enum class LayerKind : uint8_t {
  kInput,
  kConv,
  kDepthwiseConv,
  kFullyConnected,  // Lowered to a conv whose kernel covers the full input.
  kPool,
  kGlobalAvgPool,
  kRelu,
  kLrn,
  kConcat,
  kEltwiseAdd,  // Residual connections (ResNet): two inputs of one shape.
  kSoftmax,
};

// Number of LayerKind values (keep in sync with the enum above).
inline constexpr int kLayerKindCount = static_cast<int>(LayerKind::kSoftmax) + 1;

std::string_view LayerKindName(LayerKind k);

// Description of one layer. Only the fields relevant to `kind` are used.
struct LayerDesc {
  LayerKind kind = LayerKind::kInput;
  std::string name;
  Conv2DParams conv;         // kConv / kDepthwiseConv / kFullyConnected
  int64_t out_channels = 0;  // kConv / kFullyConnected
  Pool2DParams pool;         // kPool
  LrnParams lrn;             // kLrn
};

struct Node {
  int id = -1;
  LayerDesc desc;
  std::vector<int> inputs;  // Producer node ids.
  Shape out_shape;
};

class Graph {
 public:
  // All Add* methods return the new node's id and infer its output shape.
  int AddInput(const Shape& shape, std::string name = "input");
  int AddConv(std::string name, int input, int64_t out_channels, int kernel, int stride, int pad,
              bool relu);
  // Rectangular-kernel variant (used by Inception 1xN-style layers if needed).
  int AddConv2D(std::string name, int input, int64_t out_channels, const Conv2DParams& p);
  int AddDepthwiseConv(std::string name, int input, int kernel, int stride, int pad, bool relu);
  int AddFullyConnected(std::string name, int input, int64_t out_features, bool relu);
  int AddPool(std::string name, int input, PoolKind kind, int kernel, int stride, int pad = 0,
              bool ceil_mode = false);
  int AddGlobalAvgPool(std::string name, int input);
  int AddRelu(std::string name, int input);
  int AddLrn(std::string name, int input, const LrnParams& p);
  int AddConcat(std::string name, const std::vector<int>& inputs);
  // Element-wise sum of exactly two same-shaped inputs, with optional fused
  // ReLU (ResNet residual joins).
  int AddEltwiseAdd(std::string name, const std::vector<int>& inputs, bool relu = false);
  int AddSoftmax(std::string name, int input);

  const std::vector<Node>& nodes() const { return nodes_; }
  const Node& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  int size() const { return static_cast<int>(nodes_.size()); }

  // Node ids that consume `id`'s output.
  std::vector<int> Consumers(int id) const;

  // The last node (by convention the network output).
  int OutputId() const { return size() - 1; }

  // Batch dimension of the first input node (the N every activation in the
  // graph shares, per shape inference). 1 when the graph has no input node.
  int64_t BatchSize() const {
    for (const Node& n : nodes_) {
      if (n.desc.kind == LayerKind::kInput) {
        return n.out_shape.n;
      }
    }
    return 1;
  }

  // Adopts `nodes` verbatim: no shape inference, no validity checks.
  // Exists for the GraphVerifier tests, which need graphs the checked Add*
  // API refuses to build (dangling edges, wrong arity, corrupt shapes).
  static Graph UncheckedFromNodes(std::vector<Node> nodes);

 private:
  int Append(LayerDesc desc, std::vector<int> inputs, Shape out_shape);

  std::vector<Node> nodes_;
};

}  // namespace ulayer
