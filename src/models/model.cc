#include "models/model.h"

#include <cassert>
#include <cmath>

#include "tensor/rng.h"

namespace ulayer {

bool IsParameterized(LayerKind k) {
  return k == LayerKind::kConv || k == LayerKind::kDepthwiseConv ||
         k == LayerKind::kFullyConnected;
}

Shape FilterShape(const Graph& g, const Node& n) {
  const Shape& in = g.node(n.inputs[0]).out_shape;
  if (n.desc.kind == LayerKind::kDepthwiseConv) {
    return Shape(in.c, 1, n.desc.conv.kernel_h, n.desc.conv.kernel_w);
  }
  return Shape(n.desc.out_channels, in.c, n.desc.conv.kernel_h, n.desc.conv.kernel_w);
}

void Model::MaterializeWeights(uint64_t seed) {
  weights.clear();
  for (const Node& n : graph.nodes()) {
    if (!IsParameterized(n.desc.kind)) {
      continue;
    }
    const Shape fs = FilterShape(graph, n);
    LayerWeights lw;
    lw.filters = Tensor(fs, DType::kF32);
    // He-uniform: limit = sqrt(6 / fan_in) keeps post-ReLU activation
    // variance roughly constant through the network.
    const double fan_in = static_cast<double>(fs.c * fs.h * fs.w);
    const float limit = static_cast<float>(std::sqrt(6.0 / fan_in));
    FillUniform(lw.filters, seed ^ (static_cast<uint64_t>(n.id) * 0x9e37u), -limit, limit);

    const int64_t oc = n.desc.kind == LayerKind::kDepthwiseConv ? fs.n : n.desc.out_channels;
    lw.bias = Tensor(Shape(1, oc, 1, 1), DType::kF32);
    FillUniform(lw.bias, seed ^ (static_cast<uint64_t>(n.id) * 0x85ebu) ^ 0xb1a5, -0.05f, 0.05f);
    weights.emplace(n.id, std::move(lw));
  }
}

int64_t Model::ParameterCount() const {
  int64_t total = 0;
  for (const Node& n : graph.nodes()) {
    if (!IsParameterized(n.desc.kind)) {
      continue;
    }
    const Shape fs = FilterShape(graph, n);
    const int64_t oc = n.desc.kind == LayerKind::kDepthwiseConv ? fs.n : n.desc.out_channels;
    total += fs.NumElements() + oc;
  }
  return total;
}

Model MakeLeNet5(int batch) {
  Model m;
  m.name = "LeNet-5";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 1, 28, 28));
  const int c1 = g.AddConv("conv1", in, 6, /*kernel=*/5, /*stride=*/1, /*pad=*/2, /*relu=*/true);
  const int p1 = g.AddPool("pool1", c1, PoolKind::kMax, 2, 2);
  const int c2 = g.AddConv("conv2", p1, 16, 5, 1, 0, true);
  const int p2 = g.AddPool("pool2", c2, PoolKind::kMax, 2, 2);
  const int f3 = g.AddFullyConnected("fc3", p2, 120, true);
  const int f4 = g.AddFullyConnected("fc4", f3, 84, true);
  const int f5 = g.AddFullyConnected("fc5", f4, 10, false);
  g.AddSoftmax("prob", f5);
  return m;
}

Model MakeAlexNet(int batch, int image_hw) {
  Model m;
  m.name = "AlexNet";
  Graph& g = m.graph;
  LrnParams lrn;
  lrn.local_size = 5;
  lrn.alpha = 1e-4f;
  lrn.beta = 0.75f;
  lrn.k = 2.0f;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  // One-tower (single-group) AlexNet; the original's 2-GPU grouping was a
  // memory workaround, not an architectural feature.
  int x = g.AddConv("conv1", in, 96, 11, 4, 0, true);
  x = g.AddLrn("norm1", x, lrn);
  x = g.AddPool("pool1", x, PoolKind::kMax, 3, 2);
  x = g.AddConv("conv2", x, 256, 5, 1, 2, true);
  x = g.AddLrn("norm2", x, lrn);
  x = g.AddPool("pool2", x, PoolKind::kMax, 3, 2);
  x = g.AddConv("conv3", x, 384, 3, 1, 1, true);
  x = g.AddConv("conv4", x, 384, 3, 1, 1, true);
  x = g.AddConv("conv5", x, 256, 3, 1, 1, true);
  x = g.AddPool("pool5", x, PoolKind::kMax, 3, 2);
  x = g.AddFullyConnected("fc6", x, 4096, true);
  x = g.AddFullyConnected("fc7", x, 4096, true);
  x = g.AddFullyConnected("fc8", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

Model MakeVgg16(int batch, int image_hw) {
  Model m;
  m.name = "VGG-16";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = in;
  const struct {
    int convs;
    int64_t channels;
  } blocks[] = {{2, 64}, {2, 128}, {3, 256}, {3, 512}, {3, 512}};
  int bi = 1;
  for (const auto& b : blocks) {
    for (int i = 1; i <= b.convs; ++i) {
      x = g.AddConv("conv" + std::to_string(bi) + "_" + std::to_string(i), x, b.channels, 3, 1, 1,
                    true);
    }
    x = g.AddPool("pool" + std::to_string(bi), x, PoolKind::kMax, 2, 2);
    ++bi;
  }
  x = g.AddFullyConnected("fc6", x, 4096, true);
  x = g.AddFullyConnected("fc7", x, 4096, true);
  x = g.AddFullyConnected("fc8", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

namespace {

// One GoogLeNet Inception module (Figure 11a): four branches concatenated
// along channels.
int AddInception(Graph& g, const std::string& name, int input, int64_t c1x1, int64_t c3x3_reduce,
                 int64_t c3x3, int64_t c5x5_reduce, int64_t c5x5, int64_t pool_proj) {
  const int b0 = g.AddConv(name + "/1x1", input, c1x1, 1, 1, 0, true);
  const int b1r = g.AddConv(name + "/3x3_reduce", input, c3x3_reduce, 1, 1, 0, true);
  const int b1 = g.AddConv(name + "/3x3", b1r, c3x3, 3, 1, 1, true);
  const int b2r = g.AddConv(name + "/5x5_reduce", input, c5x5_reduce, 1, 1, 0, true);
  const int b2 = g.AddConv(name + "/5x5", b2r, c5x5, 5, 1, 2, true);
  const int b3p = g.AddPool(name + "/pool", input, PoolKind::kMax, 3, 1, 1);
  const int b3 = g.AddConv(name + "/pool_proj", b3p, pool_proj, 1, 1, 0, true);
  return g.AddConcat(name + "/output", {b0, b1, b2, b3});
}

// One SqueezeNet Fire module (Figure 11b).
int AddFire(Graph& g, const std::string& name, int input, int64_t squeeze, int64_t expand) {
  const int s = g.AddConv(name + "/squeeze1x1", input, squeeze, 1, 1, 0, true);
  const int e1 = g.AddConv(name + "/expand1x1", s, expand, 1, 1, 0, true);
  const int e3 = g.AddConv(name + "/expand3x3", s, expand, 3, 1, 1, true);
  return g.AddConcat(name + "/concat", {e1, e3});
}

}  // namespace

Model MakeGoogLeNet(int batch, int image_hw) {
  Model m;
  m.name = "GoogLeNet";
  Graph& g = m.graph;
  LrnParams lrn;
  lrn.local_size = 5;
  lrn.alpha = 1e-4f;
  lrn.beta = 0.75f;
  lrn.k = 1.0f;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = g.AddConv("conv1/7x7_s2", in, 64, 7, 2, 3, true);
  x = g.AddPool("pool1/3x3_s2", x, PoolKind::kMax, 3, 2, 0, /*ceil_mode=*/true);
  x = g.AddLrn("pool1/norm1", x, lrn);
  x = g.AddConv("conv2/3x3_reduce", x, 64, 1, 1, 0, true);
  x = g.AddConv("conv2/3x3", x, 192, 3, 1, 1, true);
  x = g.AddLrn("conv2/norm2", x, lrn);
  x = g.AddPool("pool2/3x3_s2", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddInception(g, "inception_3a", x, 64, 96, 128, 16, 32, 32);
  x = AddInception(g, "inception_3b", x, 128, 128, 192, 32, 96, 64);
  x = g.AddPool("pool3/3x3_s2", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddInception(g, "inception_4a", x, 192, 96, 208, 16, 48, 64);
  x = AddInception(g, "inception_4b", x, 160, 112, 224, 24, 64, 64);
  x = AddInception(g, "inception_4c", x, 128, 128, 256, 24, 64, 64);
  x = AddInception(g, "inception_4d", x, 112, 144, 288, 32, 64, 64);
  x = AddInception(g, "inception_4e", x, 256, 160, 320, 32, 128, 128);
  x = g.AddPool("pool4/3x3_s2", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddInception(g, "inception_5a", x, 256, 160, 320, 32, 128, 128);
  x = AddInception(g, "inception_5b", x, 384, 192, 384, 48, 128, 128);
  x = g.AddGlobalAvgPool("pool5/7x7_s1", x);
  x = g.AddFullyConnected("loss3/classifier", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

Model MakeSqueezeNetV11(int batch, int image_hw) {
  Model m;
  m.name = "SqueezeNet-v1.1";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = g.AddConv("conv1", in, 64, 3, 2, 0, true);
  x = g.AddPool("pool1", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddFire(g, "fire2", x, 16, 64);
  x = AddFire(g, "fire3", x, 16, 64);
  x = g.AddPool("pool3", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddFire(g, "fire4", x, 32, 128);
  x = AddFire(g, "fire5", x, 32, 128);
  x = g.AddPool("pool5", x, PoolKind::kMax, 3, 2, 0, true);
  x = AddFire(g, "fire6", x, 48, 192);
  x = AddFire(g, "fire7", x, 48, 192);
  x = AddFire(g, "fire8", x, 64, 256);
  x = AddFire(g, "fire9", x, 64, 256);
  x = g.AddConv("conv10", x, 1000, 1, 1, 0, true);
  x = g.AddGlobalAvgPool("pool10", x);
  g.AddSoftmax("prob", x);
  return m;
}

Model MakeMobileNetV1(int batch, int image_hw) {
  Model m;
  m.name = "MobileNet-v1";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = g.AddConv("conv0", in, 32, 3, 2, 1, true);
  const struct {
    int64_t out_channels;
    int stride;
  } blocks[] = {{64, 1},  {128, 2}, {128, 1}, {256, 2},  {256, 1},  {512, 2}, {512, 1},
                {512, 1}, {512, 1}, {512, 1}, {512, 1},  {1024, 2}, {1024, 1}};
  int i = 1;
  for (const auto& b : blocks) {
    x = g.AddDepthwiseConv("conv" + std::to_string(i) + "/dw", x, 3, b.stride, 1, true);
    x = g.AddConv("conv" + std::to_string(i) + "/pw", x, b.out_channels, 1, 1, 0, true);
    ++i;
  }
  x = g.AddGlobalAvgPool("pool", x);
  x = g.AddFullyConnected("fc", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

namespace {

// ResNet basic block (two 3x3 convs) with identity or projection shortcut.
int AddBasicBlock(Graph& g, const std::string& name, int input, int64_t channels, int stride) {
  const int c1 = g.AddConv(name + "/conv1", input, channels, 3, stride, 1, true);
  const int c2 = g.AddConv(name + "/conv2", c1, channels, 3, 1, 1, false);
  int shortcut = input;
  if (stride != 1 || g.node(input).out_shape.c != channels) {
    shortcut = g.AddConv(name + "/proj", input, channels, 1, stride, 0, false);
  }
  return g.AddEltwiseAdd(name + "/add", {c2, shortcut}, /*relu=*/true);
}

// ResNet bottleneck block (1x1 reduce, 3x3, 1x1 expand).
int AddBottleneck(Graph& g, const std::string& name, int input, int64_t mid, int64_t out,
                  int stride) {
  const int c1 = g.AddConv(name + "/conv1", input, mid, 1, 1, 0, true);
  const int c2 = g.AddConv(name + "/conv2", c1, mid, 3, stride, 1, true);
  const int c3 = g.AddConv(name + "/conv3", c2, out, 1, 1, 0, false);
  int shortcut = input;
  if (stride != 1 || g.node(input).out_shape.c != out) {
    shortcut = g.AddConv(name + "/proj", input, out, 1, stride, 0, false);
  }
  return g.AddEltwiseAdd(name + "/add", {c3, shortcut}, /*relu=*/true);
}

int AddResNetStem(Graph& g, int in) {
  const int c = g.AddConv("conv1", in, 64, 7, 2, 3, true);
  return g.AddPool("pool1", c, PoolKind::kMax, 3, 2, 1);
}

}  // namespace

Model MakeResNet18(int batch, int image_hw) {
  Model m;
  m.name = "ResNet-18";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = AddResNetStem(g, in);
  const struct {
    int64_t channels;
    int blocks;
    int stride;
  } stages[] = {{64, 2, 1}, {128, 2, 2}, {256, 2, 2}, {512, 2, 2}};
  int si = 1;
  for (const auto& st : stages) {
    for (int b = 0; b < st.blocks; ++b) {
      x = AddBasicBlock(g, "layer" + std::to_string(si) + "_" + std::to_string(b), x, st.channels,
                        b == 0 ? st.stride : 1);
    }
    ++si;
  }
  x = g.AddGlobalAvgPool("pool5", x);
  x = g.AddFullyConnected("fc", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

Model MakeResNet50(int batch, int image_hw) {
  Model m;
  m.name = "ResNet-50";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = AddResNetStem(g, in);
  const struct {
    int64_t mid;
    int64_t out;
    int blocks;
    int stride;
  } stages[] = {{64, 256, 3, 1}, {128, 512, 4, 2}, {256, 1024, 6, 2}, {512, 2048, 3, 2}};
  int si = 1;
  for (const auto& st : stages) {
    for (int b = 0; b < st.blocks; ++b) {
      x = AddBottleneck(g, "layer" + std::to_string(si) + "_" + std::to_string(b), x, st.mid,
                        st.out, b == 0 ? st.stride : 1);
    }
    ++si;
  }
  x = g.AddGlobalAvgPool("pool5", x);
  x = g.AddFullyConnected("fc", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

namespace {

// Rectangular conv helper: kernel (kh x kw), stride 1, "same" padding.
int AddRectConv(Graph& g, const std::string& name, int input, int64_t oc, int kh, int kw) {
  Conv2DParams p;
  p.kernel_h = kh;
  p.kernel_w = kw;
  p.pad_h = kh / 2;
  p.pad_w = kw / 2;
  p.relu = true;
  return g.AddConv2D(name, input, oc, p);
}

// Inception-A (35x35 grid): 1x1 / 5x5 / double-3x3 / pool-proj branches.
int AddInceptionA(Graph& g, const std::string& name, int input, int64_t pool_proj) {
  const int b0 = g.AddConv(name + "/1x1", input, 64, 1, 1, 0, true);
  const int b1r = g.AddConv(name + "/5x5_reduce", input, 48, 1, 1, 0, true);
  const int b1 = g.AddConv(name + "/5x5", b1r, 64, 5, 1, 2, true);
  const int b2r = g.AddConv(name + "/d3x3_reduce", input, 64, 1, 1, 0, true);
  const int b2a = g.AddConv(name + "/d3x3_1", b2r, 96, 3, 1, 1, true);
  const int b2 = g.AddConv(name + "/d3x3_2", b2a, 96, 3, 1, 1, true);
  const int b3p = g.AddPool(name + "/pool", input, PoolKind::kAvg, 3, 1, 1);
  const int b3 = g.AddConv(name + "/pool_proj", b3p, pool_proj, 1, 1, 0, true);
  return g.AddConcat(name + "/out", {b0, b1, b2, b3});
}

// Inception-B (17x17 grid) with factorized 7x7 convolutions.
int AddInceptionB(Graph& g, const std::string& name, int input, int64_t c7) {
  const int b0 = g.AddConv(name + "/1x1", input, 192, 1, 1, 0, true);
  int b1 = g.AddConv(name + "/7x7_reduce", input, c7, 1, 1, 0, true);
  b1 = AddRectConv(g, name + "/1x7", b1, c7, 1, 7);
  b1 = AddRectConv(g, name + "/7x1", b1, 192, 7, 1);
  int b2 = g.AddConv(name + "/7x7dbl_reduce", input, c7, 1, 1, 0, true);
  b2 = AddRectConv(g, name + "/7x1_a", b2, c7, 7, 1);
  b2 = AddRectConv(g, name + "/1x7_a", b2, c7, 1, 7);
  b2 = AddRectConv(g, name + "/7x1_b", b2, c7, 7, 1);
  b2 = AddRectConv(g, name + "/1x7_b", b2, 192, 1, 7);
  const int b3p = g.AddPool(name + "/pool", input, PoolKind::kAvg, 3, 1, 1);
  const int b3 = g.AddConv(name + "/pool_proj", b3p, 192, 1, 1, 0, true);
  return g.AddConcat(name + "/out", {b0, b1, b2, b3});
}

// Inception-C (8x8 grid): expanded 1x3/3x1 fan-outs (nested branching).
int AddInceptionC(Graph& g, const std::string& name, int input) {
  const int b0 = g.AddConv(name + "/1x1", input, 320, 1, 1, 0, true);
  const int b1r = g.AddConv(name + "/3x3_reduce", input, 384, 1, 1, 0, true);
  const int b1a = AddRectConv(g, name + "/1x3", b1r, 384, 1, 3);
  const int b1b = AddRectConv(g, name + "/3x1", b1r, 384, 3, 1);
  const int b2r = g.AddConv(name + "/d3x3_reduce", input, 448, 1, 1, 0, true);
  const int b2m = g.AddConv(name + "/d3x3", b2r, 384, 3, 1, 1, true);
  const int b2a = AddRectConv(g, name + "/d1x3", b2m, 384, 1, 3);
  const int b2b = AddRectConv(g, name + "/d3x1", b2m, 384, 3, 1);
  const int b3p = g.AddPool(name + "/pool", input, PoolKind::kAvg, 3, 1, 1);
  const int b3 = g.AddConv(name + "/pool_proj", b3p, 192, 1, 1, 0, true);
  return g.AddConcat(name + "/out", {b0, b1a, b1b, b2a, b2b, b3});
}

}  // namespace

Model MakeInceptionV3(int batch, int image_hw) {
  Model m;
  m.name = "Inception-v3";
  Graph& g = m.graph;
  const int in = g.AddInput(Shape(batch, 3, image_hw, image_hw));
  int x = g.AddConv("conv1", in, 32, 3, 2, 0, true);
  x = g.AddConv("conv2", x, 32, 3, 1, 0, true);
  x = g.AddConv("conv3", x, 64, 3, 1, 1, true);
  x = g.AddPool("pool1", x, PoolKind::kMax, 3, 2);
  x = g.AddConv("conv4", x, 80, 1, 1, 0, true);
  x = g.AddConv("conv5", x, 192, 3, 1, 0, true);
  x = g.AddPool("pool2", x, PoolKind::kMax, 3, 2);
  x = AddInceptionA(g, "mixed_5b", x, 32);
  x = AddInceptionA(g, "mixed_5c", x, 64);
  x = AddInceptionA(g, "mixed_5d", x, 64);
  // Reduction-A: 35 -> 17.
  {
    const int b0 = g.AddConv("mixed_6a/3x3", x, 384, 3, 2, 0, true);
    int b1 = g.AddConv("mixed_6a/d3x3_reduce", x, 64, 1, 1, 0, true);
    b1 = g.AddConv("mixed_6a/d3x3_1", b1, 96, 3, 1, 1, true);
    b1 = g.AddConv("mixed_6a/d3x3_2", b1, 96, 3, 2, 0, true);
    const int b2 = g.AddPool("mixed_6a/pool", x, PoolKind::kMax, 3, 2);
    x = g.AddConcat("mixed_6a/out", {b0, b1, b2});
  }
  x = AddInceptionB(g, "mixed_6b", x, 128);
  x = AddInceptionB(g, "mixed_6c", x, 160);
  x = AddInceptionB(g, "mixed_6d", x, 160);
  x = AddInceptionB(g, "mixed_6e", x, 192);
  // Reduction-B: 17 -> 8.
  {
    int b0 = g.AddConv("mixed_7a/3x3_reduce", x, 192, 1, 1, 0, true);
    b0 = g.AddConv("mixed_7a/3x3", b0, 320, 3, 2, 0, true);
    int b1 = g.AddConv("mixed_7a/7x7_reduce", x, 192, 1, 1, 0, true);
    b1 = AddRectConv(g, "mixed_7a/1x7", b1, 192, 1, 7);
    b1 = AddRectConv(g, "mixed_7a/7x1", b1, 192, 7, 1);
    b1 = g.AddConv("mixed_7a/3x3b", b1, 192, 3, 2, 0, true);
    const int b2 = g.AddPool("mixed_7a/pool", x, PoolKind::kMax, 3, 2);
    x = g.AddConcat("mixed_7a/out", {b0, b1, b2});
  }
  x = AddInceptionC(g, "mixed_7b", x);
  x = AddInceptionC(g, "mixed_7c", x);
  x = g.AddGlobalAvgPool("pool3", x);
  x = g.AddFullyConnected("fc", x, 1000, false);
  g.AddSoftmax("prob", x);
  return m;
}

std::vector<Model> MakeEvaluationModels() {
  std::vector<Model> v;
  v.push_back(MakeGoogLeNet());
  v.push_back(MakeSqueezeNetV11());
  v.push_back(MakeVgg16());
  v.push_back(MakeAlexNet());
  v.push_back(MakeMobileNetV1());
  return v;
}

}  // namespace ulayer
