#include "core/executor.h"

#include <cstring>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "common/error.h"
#include "core/reference.h"
#include "core/runtime.h"
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

TEST(ExecutorTest, SimulateOnlyLatencyIsPositiveAndDeterministic) {
  const Model m = MakeGoogLeNet();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  Executor ex(pm, MakeExynos7420());
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kCpu);
  const RunResult a = ex.Run(plan);
  const RunResult b = ex.Run(plan);
  EXPECT_GT(a.latency_us, 0.0);
  EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
  EXPECT_DOUBLE_EQ(a.total_energy_mj, b.total_energy_mj);
}

TEST(ExecutorTest, SingleProcessorPlansUseOneDevice) {
  const Model m = MakeAlexNet();
  PreparedModel pm(m, ExecConfig::AllF32());
  Executor ex(pm, MakeExynos7420());
  const RunResult cpu = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu));
  EXPECT_GT(cpu.cpu_busy_us, 0.0);
  EXPECT_DOUBLE_EQ(cpu.gpu_busy_us, 0.0);
  const RunResult gpu = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kGpu));
  EXPECT_GT(gpu.gpu_busy_us, 0.0);
  EXPECT_DOUBLE_EQ(gpu.cpu_busy_us, 0.0);
  EXPECT_EQ(cpu.sync_count, 0);
}

TEST(ExecutorTest, CooperativePlanBeatsSingleProcessorOnBigLayers) {
  const Model m = MakeVgg16();
  const SocSpec soc = MakeExynos7420();
  const ExecConfig cfg = ExecConfig::ProcessorFriendly();
  PreparedModel pm(m, cfg);
  Executor ex(pm, soc);
  const double cpu = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu)).latency_us;
  const double gpu = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kGpu)).latency_us;

  const TimingModel tm(soc);
  const LatencyPredictor pred(tm, cfg, {&m.graph});
  Partitioner::Options opts;
  opts.branch_distribution = false;
  const Plan coop = Partitioner(m.graph, tm, cfg, pred, opts).Build();
  const double coop_us = ex.Run(coop).latency_us;
  EXPECT_LT(coop_us, std::min(cpu, gpu))
      << "cooperative single-layer acceleration must beat both single processors";
}

TEST(ExecutorTest, CooperativeRunsUseBothDevicesAndSync) {
  const Model m = MakeVgg16();
  const SocSpec soc = MakeExynos7420();
  ULayerRuntime rt(m, soc);
  const RunResult r = rt.Run();
  EXPECT_GT(r.cpu_busy_us, 0.0);
  EXPECT_GT(r.gpu_busy_us, 0.0);
  EXPECT_GT(r.sync_count, 0);
}

TEST(ExecutorTest, AsyncIssueBeatsSynchronousIssue) {
  const Model m = MakeGoogLeNet();
  const SocSpec soc = MakeExynos7420();
  ULayerRuntime::Options async_opts;
  ULayerRuntime::Options sync_opts;
  sync_opts.config.async_issue = false;
  ULayerRuntime rt_async(m, soc, async_opts);
  ULayerRuntime rt_sync(m, soc, sync_opts);
  EXPECT_LT(rt_async.Run().latency_us, rt_sync.Run().latency_us);
}

TEST(ExecutorTest, ZeroCopyBeatsCopyMode) {
  const Model m = MakeVgg16();
  const SocSpec soc = MakeExynos7420();
  ULayerRuntime::Options zc;
  ULayerRuntime::Options copy;
  copy.config.zero_copy = false;
  ULayerRuntime rt_zc(m, soc, zc);
  ULayerRuntime rt_copy(m, soc, copy);
  EXPECT_LT(rt_zc.Run().latency_us, rt_copy.Run().latency_us);
}

TEST(ExecutorTest, FunctionalF32MatchesReference) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::AllF32());
  Executor ex(pm, MakeExynos7420());
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 3, 0.0f, 1.0f);
  const RunResult r = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);
  ASSERT_TRUE(r.output.has_value());
  const auto ref = ForwardF32(m, in);
  EXPECT_LT(MaxAbsDiff(*r.output, ref.back()), 1e-5f);
}

TEST(ExecutorTest, CooperativeF32OutputsAreBitIdenticalToSingle) {
  // Channel-wise distribution must not change results: disjoint slices of
  // the same kernels.
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const SocSpec soc = MakeExynos7420();
  PreparedModel pm(m, ExecConfig::AllF32());
  Executor ex(pm, soc);
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 4, 0.0f, 1.0f);
  const RunResult single = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);

  Plan coop = MakeSingleProcessorPlan(m.graph, ProcKind::kCpu);
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kConv || n.desc.kind == LayerKind::kPool) {
      coop.nodes[static_cast<size_t>(n.id)] =
          NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
    }
  }
  const RunResult split = ex.Run(coop, &in);
  EXPECT_EQ(MaxAbsDiff(*single.output, *split.output), 0.0f);
}

TEST(ExecutorTest, FunctionalQU8TracksF32Reference) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  const auto calib = MakeInputs(Shape(1, 1, 28, 28), 4, 50);
  pm.Calibrate(calib);
  Executor ex(pm, MakeExynos7420());
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 99, -1.0f, 1.0f);
  const RunResult r = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);
  const auto ref = ForwardF32(m, in);
  // Quantized probabilities track the F32 reference loosely but the argmax
  // class should usually agree on a small network.
  ASSERT_TRUE(r.output.has_value());
  EXPECT_EQ(r.output->shape(), ref.back().shape());
  EXPECT_LT(RmsDiff(*r.output, ref.back()), 0.1f);
}

TEST(ExecutorTest, CooperativeQU8MergesCpuAndGpuSlices) {
  // Functional cooperative run with processor-friendly quantization: the
  // CPU computes integer slices, the GPU F16 slices; the merged output must
  // stay close to the all-CPU quantized output.
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  pm.Calibrate(MakeInputs(Shape(1, 1, 28, 28), 4, 60));
  Executor ex(pm, MakeExynos7420());
  Tensor in(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(in, 61, -1.0f, 1.0f);

  const RunResult cpu_only = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu), &in);
  Plan coop = MakeSingleProcessorPlan(m.graph, ProcKind::kCpu);
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind == LayerKind::kConv || n.desc.kind == LayerKind::kFullyConnected) {
      coop.nodes[static_cast<size_t>(n.id)] =
          NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
    }
  }
  const RunResult mixed = ex.Run(coop, &in);
  EXPECT_LT(RmsDiff(*cpu_only.output, *mixed.output), 0.05f);
}

TEST(ExecutorTest, EnergyBreakdownSumsToTotal) {
  const Model m = MakeAlexNet();
  ULayerRuntime rt(m, MakeExynos7880());
  const RunResult r = rt.Run();
  EXPECT_NEAR(r.total_energy_mj, r.cpu_energy_mj + r.gpu_energy_mj + r.idle_energy_mj, 1e-9);
  EXPECT_GT(r.total_energy_mj, 0.0);
}

TEST(ExecutorTest, BranchPlanOverlapsBranchesAcrossDevices) {
  // A hand-built two-branch graph where each branch takes T: running them on
  // different devices must take ~T (plus overheads), not 2T.
  Graph g;
  const int in = g.AddInput(Shape(1, 64, 28, 28));
  const int a = g.AddConv("a", in, 128, 3, 1, 1, true);
  const int b = g.AddConv("b", in, 128, 3, 1, 1, true);
  g.AddConcat("cat", {a, b});
  Model m;
  m.name = "two-branch";
  m.graph = g;

  PreparedModel pm(m, ExecConfig::AllF32());
  Executor ex(pm, MakeExynos7420());

  Plan serial = MakeSingleProcessorPlan(g, ProcKind::kCpu);
  const double serial_us = ex.Run(serial).latency_us;

  Plan branched = serial;
  branched.nodes[static_cast<size_t>(b)] =
      NodeAssignment{StepKind::kBranch, ProcKind::kGpu, 1.0};
  branched.nodes[static_cast<size_t>(a)] =
      NodeAssignment{StepKind::kBranch, ProcKind::kCpu, 1.0};
  const double branched_us = ex.Run(branched).latency_us;
  EXPECT_LT(branched_us, serial_us);
}


TEST(ExecutorTest, CrossProcessorDependenciesPaySyncs) {
  // Two convs forced onto alternating processors must sync at each handoff.
  Graph g;
  const int in = g.AddInput(Shape(1, 8, 16, 16));
  const int a = g.AddConv("a", in, 8, 3, 1, 1, true);
  const int b = g.AddConv("b", a, 8, 3, 1, 1, true);
  const int c = g.AddConv("c", b, 8, 3, 1, 1, true);
  (void)c;
  Model m;
  m.name = "alternating";
  m.graph = g;
  PreparedModel pm(m, ExecConfig::AllF32());
  Executor ex(pm, MakeExynos7420());

  Plan plan = MakeSingleProcessorPlan(g, ProcKind::kCpu);
  plan.nodes[static_cast<size_t>(b)] = NodeAssignment{StepKind::kSingle, ProcKind::kGpu, 1.0};
  const RunResult r = ex.Run(plan);
  // CPU->GPU before b, GPU->CPU before c.
  EXPECT_EQ(r.sync_count, 2);
  const RunResult all_cpu = ex.Run(MakeSingleProcessorPlan(g, ProcKind::kCpu));
  EXPECT_EQ(all_cpu.sync_count, 0);
}

TEST(ExecutorTest, ResidualNetworkRunsFunctionally) {
  // ResNet-18 at tiny resolution through the full quantized cooperative
  // pipeline (exercises eltwise-add joins, identity branches, standalone
  // relu fusion in the executor).
  Model m = MakeResNet18(1, 32);
  m.MaterializeWeights();
  const SocSpec soc = MakeExynos7420();
  ULayerRuntime rt(m, soc);
  std::vector<Tensor> calib;
  for (int i = 0; i < 2; ++i) {
    Tensor t(Shape(1, 3, 32, 32), DType::kF32);
    FillUniform(t, 800 + static_cast<uint64_t>(i), -1.0f, 1.0f);
    calib.push_back(std::move(t));
  }
  rt.Calibrate(calib);
  Tensor in(Shape(1, 3, 32, 32), DType::kF32);
  FillUniform(in, 900, -1.0f, 1.0f);
  const RunResult r = rt.Run(&in);
  ASSERT_TRUE(r.output.has_value());
  float sum = 0.0f;
  for (int64_t i = 0; i < r.output->NumElements(); ++i) {
    sum += r.output->Data<float>()[i];
  }
  EXPECT_NEAR(sum, 1.0f, 1e-4f);
  // Identity-shortcut groups have an empty branch (nothing to overlap), so
  // the partitioner rightly prefers channel-splitting the main path over
  // branch distribution there; the plan must still cover every node.
  EXPECT_EQ(rt.plan().nodes.size(), static_cast<size_t>(m.graph.size()));
}

TEST(ExecutorTest, TraceCoversEveryNonInputNode) {
  const Model m = MakeVgg16();
  ULayerRuntime rt(m, MakeExynos7420());
  const RunResult r = rt.Run();
  ASSERT_TRUE(r.run_trace.enabled) << "the adaptive runtime records spans";
  std::vector<bool> seen(static_cast<size_t>(m.graph.size()), false);
  for (const trace::Span& s : r.run_trace.spans) {
    if (s.kind == trace::SpanKind::kKernel) {
      seen[static_cast<size_t>(s.node)] = true;
    }
  }
  for (const Node& n : m.graph.nodes()) {
    if (n.desc.kind != LayerKind::kInput) {
      EXPECT_TRUE(seen[static_cast<size_t>(n.id)]) << n.desc.name;
    }
  }
}

TEST(ExecutorTest, LatencyNeverBelowCriticalPathOfBusiestDevice) {
  for (const Model& m : MakeEvaluationModels()) {
    ULayerRuntime rt(m, MakeExynos7880());
    const RunResult r = rt.Run();
    EXPECT_GE(r.latency_us + 1e-6, std::max(r.cpu_busy_us, r.gpu_busy_us)) << m.name;
  }
}

// Exception safety (DESIGN.md Section 10): a Run that throws mid-graph must
// leave the executor reusable — the next clean Run is byte-identical to a
// run on a freshly constructed executor.
TEST(ExecutorTest, ThrowMidRunLeavesExecutorReusable) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  Tensor input(Shape(1, 1, 28, 28), DType::kF32);
  FillUniform(input, 321, -1.0f, 1.0f);

  // Recovery is disabled, so the injected GPU fault escapes as an error.
  ExecConfig cfg = ExecConfig::AllF32();
  cfg.fault_cpu_fallback = false;
  cfg.fault_max_retries = 0;
  PreparedModel pm(m, cfg);
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kGpu);

  Executor ex(pm, soc);
  ex.SetFaultPlan(fault::FaultPlan::Parse("gpu.kernel@call:2=enqueue-failed"));
  EXPECT_THROW(ex.Run(plan, &input), Error);

  // Clear the plan; the next run must match a fresh executor bit for bit.
  ex.SetFaultPlan(fault::FaultPlan{});
  const RunResult recovered = ex.Run(plan, &input);
  Executor fresh(pm, soc);
  const RunResult want = fresh.Run(plan, &input);
  EXPECT_DOUBLE_EQ(recovered.latency_us, want.latency_us);
  EXPECT_DOUBLE_EQ(recovered.total_energy_mj, want.total_energy_mj);
  EXPECT_EQ(recovered.sync_count, want.sync_count);
  EXPECT_DOUBLE_EQ(recovered.cpu_busy_us, want.cpu_busy_us);
  EXPECT_DOUBLE_EQ(recovered.gpu_busy_us, want.gpu_busy_us);
  ASSERT_TRUE(recovered.output.has_value());
  ASSERT_TRUE(want.output.has_value());
  ASSERT_EQ(recovered.output->SizeBytes(), want.output->SizeBytes());
  EXPECT_EQ(std::memcmp(recovered.output->raw(), want.output->raw(),
                        static_cast<size_t>(want.output->SizeBytes())),
            0);
  EXPECT_FALSE(recovered.degradation.degraded());
}

// Keeping the armed fault plan across the throw also works: the injector is
// rewound at the top of every Run, so each attempt fails identically rather
// than leaking fired-rule state between runs.
TEST(ExecutorTest, FaultStreamRewindsAcrossThrowingRuns) {
  const Model m = MakeAlexNet();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.fault_cpu_fallback = false;
  cfg.fault_max_retries = 0;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  ex.SetFaultPlan(fault::FaultPlan::Parse("gpu.kernel@call:3=device-lost"));
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kGpu);
  std::string first_what;
  for (int i = 0; i < 3; ++i) {
    try {
      ex.Run(plan);
      FAIL() << "expected the armed fault to escape";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFault);
      if (i == 0) {
        first_what = e.what();
      } else {
        EXPECT_EQ(std::string(e.what()), first_what) << "identical failure every run";
      }
    }
  }
}

}  // namespace
}  // namespace ulayer
