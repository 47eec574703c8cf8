// Model: a Graph plus (optionally materialized) F32 weights.
//
// Latency/energy experiments run in simulate-only mode and never materialize
// weights; functional experiments (numerics tests, the quantization-accuracy
// proxy) call MaterializeWeights() first. Weights are deterministic given
// the seed, He-style scaled so activations neither vanish nor explode —
// which keeps the quantization-accuracy experiment meaningful.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/graph.h"
#include "tensor/tensor.h"

namespace ulayer {

struct LayerWeights {
  Tensor filters;  // Conv/FC: [OC, IC, KH, KW]; depthwise: [C, 1, KH, KW].
  Tensor bias;     // [OC] (F32).
};

struct Model {
  std::string name;
  Graph graph;

  // node id -> weights, present only after MaterializeWeights().
  std::unordered_map<int, LayerWeights> weights;

  bool has_weights() const { return !weights.empty(); }

  // Fills `weights` for every parameterized layer with deterministic
  // pseudo-random values (He-uniform filters, small biases).
  void MaterializeWeights(uint64_t seed = 0x5eed);

  // Total parameter count of the network (weights need not be materialized).
  int64_t ParameterCount() const;
};

// Whether a layer of this kind carries filters and a bias (conv, depthwise
// conv, fully connected).
bool IsParameterized(LayerKind k);

// Filter tensor shape of a parameterized node, derived from the graph alone
// (no materialized weights needed): depthwise -> [C, 1, KH, KW], conv/FC ->
// [OC, IC, KH, KW]. Shared by weight materialization, scratch sizing and the
// static memory-access analyzer.
Shape FilterShape(const Graph& g, const Node& n);

// --- Model zoo (paper Table 1) ---------------------------------------------
//
// `image_hw` scales the input resolution (default: the resolution the
// original network was designed for). Smaller values keep functional runs
// cheap; graph structure is unchanged.

Model MakeLeNet5(int batch = 1);                       // Figure 1a example.
Model MakeAlexNet(int batch = 1, int image_hw = 227);  // Single-group variant.
Model MakeVgg16(int batch = 1, int image_hw = 224);
Model MakeGoogLeNet(int batch = 1, int image_hw = 224);
Model MakeSqueezeNetV11(int batch = 1, int image_hw = 224);
Model MakeMobileNetV1(int batch = 1, int image_hw = 224);

// Residual networks (He et al.): used by the paper's accuracy study
// (Figure 10). BatchNorm is folded into the convolutions (standard
// inference-time folding), so blocks are conv(+ReLU) chains joined by
// element-wise adds with identity or 1x1-projection shortcuts.
Model MakeResNet18(int batch = 1, int image_hw = 224);
Model MakeResNet50(int batch = 1, int image_hw = 224);

// Inception-v3 (Szegedy et al., CVPR'16): also in the paper's Figure 10
// model set. Uses asymmetric 1x7/7x1 and 1x3/3x1 factorized convolutions
// (the only rectangular-kernel network in the zoo) and nested branch
// structures that deliberately defeat simple branch-group detection.
Model MakeInceptionV3(int batch = 1, int image_hw = 299);

// The five networks of the paper's evaluation (Table 1), full resolution.
std::vector<Model> MakeEvaluationModels();

}  // namespace ulayer
