#include "core/prepared.h"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "baselines/baselines.h"
#include "common/error.h"
#include "core/executor.h"
#include "core/partitioner.h"
#include "core/predictor.h"
#include "core/reference.h"
#include "kernels/pack.h"
#include "soc/timing.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

std::vector<Tensor> MakeInputs(const Shape& shape, int count, uint64_t seed) {
  std::vector<Tensor> v;
  for (int i = 0; i < count; ++i) {
    Tensor t(shape, DType::kF32);
    FillUniform(t, seed + static_cast<uint64_t>(i), -1.0f, 1.0f);
    v.push_back(std::move(t));
  }
  return v;
}

TEST(ReferenceTest, ForwardF32ProducesProbabilities) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 1, 0.0f, 1.0f);
  const auto act = ForwardF32(m, in);
  const Tensor& probs = act.back();
  EXPECT_EQ(probs.shape(), Shape(1, 10, 1, 1));
  float sum = 0.0f;
  for (int i = 0; i < 10; ++i) {
    const float p = probs.Data<float>()[i];
    EXPECT_GE(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(ReferenceTest, ArgmaxAndTopK) {
  Tensor t(Shape(1, 5, 1, 1), DType::kF32);
  const float vals[] = {0.1f, 0.5f, 0.05f, 0.3f, 0.05f};
  for (int i = 0; i < 5; ++i) {
    t.Data<float>()[i] = vals[i];
  }
  EXPECT_EQ(Argmax(t), 1);
  const auto top3 = TopK(t, 3);
  EXPECT_EQ(top3, (std::vector<int64_t>{1, 3, 0}));
}

TEST(PreparedTest, F32ModeKeepsWeightsIntact) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const PreparedModel pm(m, ExecConfig::AllF32());
  for (const auto& [id, w] : m.weights) {
    EXPECT_EQ(MaxAbsDiff(pm.Filters(id), w.filters), 0.0f);
  }
}

TEST(PreparedTest, F16ModeConvertsWeights) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const PreparedModel pm(m, ExecConfig::AllF16());
  const int id = m.weights.begin()->first;
  EXPECT_EQ(pm.Filters(id).dtype(), DType::kF16);
  const Tensor back = F16ToF32Tensor(pm.Filters(id));
  EXPECT_LT(MaxAbsDiff(back, m.weights.at(id).filters), 0.01f);
}

TEST(PreparedTest, QU8ModeQuantizesWeightsPerLayer) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const PreparedModel pm(m, ExecConfig::AllQU8());
  for (const auto& [id, w] : m.weights) {
    const Tensor& q = pm.Filters(id);
    EXPECT_EQ(q.dtype(), DType::kQUInt8);
    // Round trip within half a scale step.
    const Tensor back = DequantizeTensor(q);
    EXPECT_LE(MaxAbsDiff(back, w.filters), q.scale() * 0.5f + 1e-6f);
  }
}

TEST(PreparedTest, CalibrationSetsActivationRangesAndBiases) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  EXPECT_FALSE(pm.calibrated());
  pm.Calibrate(MakeInputs(Shape(1, 1, 28, 28), 4, 77));
  EXPECT_TRUE(pm.calibrated());
  // Every conv/fc node now has a usable activation range and an int32 bias.
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kConv || n.desc.kind == LayerKind::kFullyConnected) {
      EXPECT_GT(pm.ActivationParams(n.id).scale, 0.0f) << n.desc.name;
      EXPECT_EQ(pm.BiasI32(n.id).dtype(), DType::kInt32);
      EXPECT_EQ(pm.BiasI32(n.id).NumElements(), n.out_shape.c);
    }
  }
}

TEST(PreparedTest, CalibratedRangesCoverObservedActivations) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  const auto inputs = MakeInputs(Shape(1, 1, 28, 28), 3, 5);
  pm.Calibrate(inputs);
  // Re-run the reference on a calibration input: every activation must fall
  // inside the calibrated [min, max] of its node.
  const auto act = ForwardF32(m, inputs[0]);
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kSoftmax || n.desc.kind == LayerKind::kInput) {
      continue;
    }
    const QuantParams qp = pm.ActivationParams(n.id);
    const Tensor& a = act[static_cast<size_t>(n.id)];
    for (int64_t i = 0; i < a.NumElements(); ++i) {
      const float v = a.Data<float>()[i];
      const float lo = qp.Dequantize(0);
      const float hi = qp.Dequantize(255);
      EXPECT_GE(v, lo - qp.scale);
      EXPECT_LE(v, hi + qp.scale);
    }
  }
}

TEST(PreparedTest, MakeActivationUsesStorageDtype) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  pm.Calibrate(MakeInputs(Shape(1, 1, 28, 28), 1, 9));
  const Graph& g = m.graph;
  for (const Node& n : g.nodes()) {
    const Tensor t = pm.MakeActivation(n.id);
    if (n.desc.kind == LayerKind::kSoftmax) {
      EXPECT_EQ(t.dtype(), DType::kF32);
    } else {
      EXPECT_EQ(t.dtype(), DType::kQUInt8);
    }
    EXPECT_EQ(t.shape(), n.out_shape);
  }
}

// Prepare-time kernel caches (DESIGN.md Section 9/13): under the
// processor-friendly config every dense conv layer must come out of the
// constructor with its packed filter panels, F16 operand caches, and filter
// row sums already built — the conv kernels rely on these cache hits to skip
// per-call packing/dequantization. FC layers must NOT carry packed panels
// (GEMV gains nothing and classifier matrices dominate model size), and
// depthwise convs use neither panels nor row sums.
TEST(PreparedTest, ZooConvLayersHitPrepareTimeCaches) {
  struct ZooEntry {
    const char* name;
    Model model;
  };
  ZooEntry zoo[] = {
      {"lenet5", MakeLeNet5()},
      {"squeezenet", MakeSqueezeNetV11()},
      {"mobilenet", MakeMobileNetV1()},
      {"googlenet", MakeGoogLeNet()},
  };
  for (ZooEntry& z : zoo) {
    z.model.MaterializeWeights();
    const PreparedModel pm(z.model, ExecConfig::ProcessorFriendly());
    int convs = 0, fcs = 0;
    for (const Node& n : z.model.graph.nodes()) {
      switch (n.desc.kind) {
        case LayerKind::kConv: {
          ++convs;
          EXPECT_NE(pm.PackedFiltersQU8Ptr(n.id), nullptr)
              << z.name << ":" << n.desc.name;
          // GPU compute is F16 under ProcessorFriendly, so the via-F16
          // operand caches (and their packed form) must exist too.
          EXPECT_NE(pm.FiltersF16Ptr(n.id), nullptr) << z.name << ":" << n.desc.name;
          EXPECT_NE(pm.PackedFiltersF16Ptr(n.id), nullptr)
              << z.name << ":" << n.desc.name;
          EXPECT_NE(pm.FilterRowSumPtr(n.id), nullptr) << z.name << ":" << n.desc.name;
          if (!z.model.weights.at(n.id).bias.empty()) {
            EXPECT_NE(pm.BiasF16Ptr(n.id), nullptr) << z.name << ":" << n.desc.name;
          }
          break;
        }
        case LayerKind::kFullyConnected:
          ++fcs;
          EXPECT_EQ(pm.PackedFiltersQU8Ptr(n.id), nullptr)
              << z.name << ":" << n.desc.name;
          EXPECT_EQ(pm.PackedFiltersF16Ptr(n.id), nullptr)
              << z.name << ":" << n.desc.name;
          // Row sums and F16 operands are still cached for FC (the GEMM
          // zero-point hoist and the GPU path both want them).
          EXPECT_NE(pm.FilterRowSumPtr(n.id), nullptr) << z.name << ":" << n.desc.name;
          EXPECT_NE(pm.FiltersF16Ptr(n.id), nullptr) << z.name << ":" << n.desc.name;
          break;
        case LayerKind::kDepthwiseConv:
          EXPECT_EQ(pm.PackedFiltersQU8Ptr(n.id), nullptr)
              << z.name << ":" << n.desc.name;
          EXPECT_EQ(pm.FilterRowSumPtr(n.id), nullptr) << z.name << ":" << n.desc.name;
          break;
        default:
          break;
      }
    }
    EXPECT_GT(convs, 0) << z.name;
  }
}

// The packed QU8 panels cached at prepare time must be byte-identical to what
// PackRowPanels produces from the quantized filter tensor — kernels treat the
// cache as a drop-in replacement for packing on the fly.
TEST(PreparedTest, PackedPanelsMatchOnTheFlyPacking) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind != LayerKind::kConv) {
      continue;
    }
    const Tensor& qf = pm.Filters(n.id);
    const Shape& fs = qf.shape();
    const int64_t k = fs.c * fs.h * fs.w;
    std::vector<uint8_t> expect(static_cast<size_t>(PackedPanelElems(fs.n, k)));
    PackRowPanels(qf.Data<uint8_t>(), fs.n, k, expect.data());
    const uint8_t* cached = pm.PackedFiltersQU8Ptr(n.id);
    ASSERT_NE(cached, nullptr);
    EXPECT_EQ(std::memcmp(cached, expect.data(), expect.size()), 0) << n.desc.name;
  }
}

TEST(PreparedTest, PrepareInputQuantizesWithInputParams) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  const auto inputs = MakeInputs(Shape(1, 1, 28, 28), 2, 13);
  pm.Calibrate(inputs);
  const Tensor q = pm.PrepareInput(inputs[0]);
  EXPECT_EQ(q.dtype(), DType::kQUInt8);
  const Tensor back = DequantizeTensor(q);
  EXPECT_LT(MaxAbsDiff(back, inputs[0]), q.scale());
}

// --- Functional-input checks ---------------------------------------------------
// PrepareInput and Calibrate are the entry of every functional run; a bad
// input must surface as Error(kInvalidArgument), never as an out-of-bounds
// kernel read or a silently wrong output.

template <typename F>
void ExpectInvalidArgument(F&& f) {
  try {
    f();
    ADD_FAILURE() << "expected Error(kInvalidArgument)";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument) << e.what();
  }
}

// Runs `input` functionally through an executor on a one-processor plan.
void RunFunctional(const PreparedModel& pm, const Tensor& input) {
  Executor ex(pm, MakeExynos7420());
  ex.Run(MakeSingleProcessorPlan(pm.graph(), ProcKind::kCpu), &input);
}

TEST(InputCheckTest, LargerSpatialInputIsRejected) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const auto big = MakeInputs(Shape(1, 1, 40, 40), 1, 5);
  const PreparedModel f32(m, ExecConfig::AllF32());
  ExpectInvalidArgument([&] { RunFunctional(f32, big[0]); });
  PreparedModel pf(m, ExecConfig::ProcessorFriendly());
  ExpectInvalidArgument([&] { pf.Calibrate(big); });
}

TEST(InputCheckTest, WrongChannelCountIsRejected) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const auto rgb = MakeInputs(Shape(1, 3, 28, 28), 1, 5);
  const PreparedModel f32(m, ExecConfig::AllF32());
  ExpectInvalidArgument([&] { RunFunctional(f32, rgb[0]); });
  PreparedModel pf(m, ExecConfig::ProcessorFriendly());
  ExpectInvalidArgument([&] { pf.Calibrate(rgb); });
}

TEST(InputCheckTest, NonF32InputIsRejected) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const auto inputs = MakeInputs(Shape(1, 1, 28, 28), 2, 5);
  PreparedModel pf(m, ExecConfig::ProcessorFriendly());
  pf.Calibrate(inputs);
  const Tensor f16 = ToF16Tensor(inputs[0]);
  ExpectInvalidArgument([&] { RunFunctional(pf, f16); });
  ExpectInvalidArgument([&] { pf.Calibrate({inputs[0], f16}); });
}

TEST(InputCheckTest, QuantizedRunBeforeCalibrateIsRejected) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const auto inputs = MakeInputs(Shape(1, 1, 28, 28), 1, 5);
  for (const ExecConfig& cfg : {ExecConfig::AllQU8(), ExecConfig::ProcessorFriendly()}) {
    const PreparedModel pm(m, cfg);
    ExpectInvalidArgument([&] { RunFunctional(pm, inputs[0]); });
  }
}

TEST(InputCheckTest, EmptyCalibrationSetIsRejected) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  ExpectInvalidArgument([&] { pm.Calibrate({}); });
}

TEST(InputCheckTest, UnmaterializedWeightsAreRejected) {
  const Model m = MakeLeNet5();  // Graph only: simulate-only use.
  const auto inputs = MakeInputs(Shape(1, 1, 28, 28), 1, 5);
  PreparedModel pf(m, ExecConfig::ProcessorFriendly());
  ExpectInvalidArgument([&] { pf.Calibrate(inputs); });
  const PreparedModel f32(m, ExecConfig::AllF32());
  ExpectInvalidArgument([&] { RunFunctional(f32, inputs[0]); });
}

// Every input is checked before Calibrate changes anything: a bad input
// anywhere in the set leaves the model uncalibrated and its activation
// parameters untouched, and a rejected re-calibration keeps the old one.
TEST(InputCheckTest, FailedCalibrateLeavesStateUnchanged) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  const std::vector<QuantParams> before = pm.activation_params();
  std::vector<Tensor> set = MakeInputs(Shape(1, 1, 28, 28), 2, 5);
  set.push_back(MakeInputs(Shape(1, 1, 40, 40), 1, 9)[0]);
  ExpectInvalidArgument([&] { pm.Calibrate(set); });
  EXPECT_FALSE(pm.calibrated());
  ASSERT_EQ(pm.activation_params().size(), before.size());
  for (size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(pm.activation_params()[i].scale, before[i].scale) << i;
    EXPECT_EQ(pm.activation_params()[i].zero_point, before[i].zero_point) << i;
  }

  set.pop_back();
  pm.Calibrate(set);
  ASSERT_TRUE(pm.calibrated());
  const QuantParams calibrated_input = pm.ActivationParams(0);
  ExpectInvalidArgument([&] { pm.Calibrate({}); });
  EXPECT_TRUE(pm.calibrated());
  EXPECT_EQ(pm.ActivationParams(0).scale, calibrated_input.scale);
}

// The thread-safety contract (core/prepared.h): after construction and
// Calibrate, a PreparedModel is deeply const and may be shared by any number
// of concurrent reader threads, each running its own Executor — exactly what
// the serving layer's lane pool does. Run under TSan in CI: any lazily
// mutated cache inside the "const" surface shows up as a data race here.
TEST(PreparedTest, ConstSharedAcrossConcurrentExecutors) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const ExecConfig config = ExecConfig::ProcessorFriendly();  // All caches live.
  PreparedModel pm(m, config);
  pm.Calibrate(MakeInputs(Shape(1, 1, 28, 28), 2, 13));
  const PreparedModel& shared = pm;  // Readers get the const view.

  const TimingModel timing{MakeExynos7420()};
  const LatencyPredictor predictor(timing, config, {&m.graph});
  const Plan plan = Partitioner(m.graph, timing, config, predictor).Build();

  constexpr int kReaders = 4;
  constexpr int kRunsEach = 3;
  std::vector<std::vector<float>> outputs(kReaders);
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Executor exec(shared, MakeExynos7420());  // One executor per thread.
      Tensor in(Shape(1, 1, 28, 28), DType::kF32);
      FillUniform(in, 77);  // Same input everywhere: outputs must agree.
      for (int run = 0; run < kRunsEach; ++run) {
        const RunResult r = exec.Run(plan, &in);
        ASSERT_TRUE(r.output.has_value());
        const float* p = r.output->Data<float>();
        outputs[static_cast<size_t>(t)].assign(p, p + r.output->shape().NumElements());
      }
    });
  }
  for (std::thread& th : readers) {
    th.join();
  }
  for (int t = 1; t < kReaders; ++t) {
    EXPECT_EQ(outputs[static_cast<size_t>(t)], outputs[0]) << "reader " << t;
  }
}

}  // namespace
}  // namespace ulayer
