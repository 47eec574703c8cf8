// Tests for the static Graph/Plan verifiers (src/verify): happy paths over
// the whole model zoo, one distinct diagnostic per malformed-plan fixture,
// corrupt-graph detection, sync-count coherence with the executor, and
// quantization sanity (parameters and the int32 accumulator bound).
#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "baselines/baselines.h"
#include "core/runtime.h"
#include "io/io.h"
#include "tensor/rng.h"
#include "verify/verify.h"

namespace ulayer {
namespace {

std::vector<Model> Zoo() {
  std::vector<Model> zoo;
  zoo.push_back(MakeLeNet5());
  zoo.push_back(MakeAlexNet());
  zoo.push_back(MakeVgg16());
  zoo.push_back(MakeGoogLeNet());
  zoo.push_back(MakeSqueezeNetV11());
  zoo.push_back(MakeMobileNetV1());
  zoo.push_back(MakeResNet18());
  zoo.push_back(MakeResNet50());
  zoo.push_back(MakeInceptionV3());
  return zoo;
}

int FirstConv(const Graph& g) {
  for (const Node& n : g.nodes()) {
    if (n.desc.kind == LayerKind::kConv) {
      return n.id;
    }
  }
  return -1;
}

// --- Happy paths ------------------------------------------------------------

TEST(VerifyHappyPath, ZooGraphsAreClean) {
  for (const Model& m : Zoo()) {
    const Report r = VerifyGraph(m.graph);
    EXPECT_TRUE(r.ok()) << m.name << "\n" << r.ToString();
    EXPECT_EQ(r.warning_count(), 0) << m.name;
  }
}

TEST(VerifyHappyPath, PartitionerPlansVerifyClean) {
  for (const Model& m : Zoo()) {
    for (const SocSpec& soc : {MakeExynos7420(), MakeExynos7880()}) {
      for (const ExecConfig& cfg : {ExecConfig::AllF32(), ExecConfig::ProcessorFriendly()}) {
        ULayerRuntime::Options opt;
        opt.config = cfg;
        // The runtime itself verifies (cfg.verify defaults to true); a clean
        // construction already proves the plan passes. Check the report
        // explicitly anyway so a failure prints the diagnostics.
        ULayerRuntime rt(m, soc, opt);
        const Report r = VerifyPlan(m.graph, rt.plan(), cfg);
        EXPECT_TRUE(r.ok()) << m.name << " on " << soc.name << "\n" << r.ToString();
      }
    }
  }
}

TEST(VerifyHappyPath, BaselinePlansVerifyClean) {
  const SocSpec soc = MakeExynos7420();
  const TimingModel timing(soc);
  const ExecConfig cfg = ExecConfig::AllF32();
  for (const Model& m : Zoo()) {
    for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
      const Report r = VerifyPlan(m.graph, MakeSingleProcessorPlan(m.graph, proc), cfg);
      EXPECT_TRUE(r.ok()) << m.name << " single-" << ProcKindName(proc) << "\n" << r.ToString();
    }
    const LatencyPredictor predictor(timing, cfg, {&m.graph});
    const Report r =
        VerifyPlan(m.graph, MakeLayerToProcessorPlan(m.graph, timing, cfg, predictor), cfg);
    EXPECT_TRUE(r.ok()) << m.name << " l2p\n" << r.ToString();
  }
}

// --- Malformed-plan fixtures: one distinct code each ------------------------

class MalformedPlan : public ::testing::Test {
 protected:
  MalformedPlan() : model_(MakeGoogLeNet()), soc_(MakeExynos7420()), rt_(model_, soc_) {}

  const Graph& graph() const { return model_.graph; }
  Plan BasePlan() const { return rt_.plan(); }

  Model model_;
  SocSpec soc_;
  ULayerRuntime rt_;
  ExecConfig cfg_ = ExecConfig::AllF32();
};

TEST_F(MalformedPlan, OverlappingChannelSlices) {
  Plan plan = BasePlan();
  const int id = FirstConv(graph());
  ASSERT_GE(id, 0);
  const int64_t c = graph().node(id).out_shape.c;
  ASSERT_GE(c, 2);
  NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
  a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
  a.cpu_slice = ChannelRange{0, c / 2 + 1};  // Overlaps the GPU slice by one.
  a.gpu_slice = ChannelRange{c / 2, c};
  const Report r = VerifyPlan(graph(), plan, cfg_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(DiagCode::kSliceOverlap)) << r.ToString();
  EXPECT_EQ(DiagCodeId(DiagCode::kSliceOverlap), "P106");
}

TEST_F(MalformedPlan, SplitRatiosNotSummingToOne) {
  Plan plan = BasePlan();
  const int id = FirstConv(graph());
  ASSERT_GE(id, 0);
  NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
  a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
  a.gpu_fraction = 0.75;  // 0.5 + 0.75 != 1.
  const Report r = VerifyPlan(graph(), plan, cfg_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(DiagCode::kSplitRatioNotUnity)) << r.ToString();
  EXPECT_EQ(DiagCodeId(DiagCode::kSplitRatioNotUnity), "P103");
}

TEST_F(MalformedPlan, UnassignedBranch) {
  Plan plan = BasePlan();
  ASSERT_FALSE(plan.branch_plans.empty()) << "GoogLeNet should have branch groups";
  ASSERT_FALSE(plan.branch_plans[0].assignment.empty());
  plan.branch_plans[0].assignment.pop_back();  // One branch loses its processor.
  const Report r = VerifyPlan(graph(), plan, cfg_);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(DiagCode::kBranchAssignmentMissing)) << r.ToString();
  EXPECT_EQ(DiagCodeId(DiagCode::kBranchAssignmentMissing), "P110");
}

TEST_F(MalformedPlan, ZeroQuantizationScale) {
  Report r;
  CheckQuantParams(QuantParams{0.0f, 10}, /*node=*/3, "activation", r);
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.Has(DiagCode::kQuantScaleInvalid)) << r.ToString();
  EXPECT_EQ(DiagCodeId(DiagCode::kQuantScaleInvalid), "Q301");
}

// The acceptance requirement: each seeded malformed fixture maps to its own
// diagnostic code.
TEST_F(MalformedPlan, FixtureCodesAreDistinct) {
  const std::set<std::string> ids = {
      DiagCodeId(DiagCode::kSliceOverlap), DiagCodeId(DiagCode::kSplitRatioNotUnity),
      DiagCodeId(DiagCode::kBranchAssignmentMissing), DiagCodeId(DiagCode::kQuantScaleInvalid)};
  EXPECT_EQ(ids.size(), 4u);
}

TEST_F(MalformedPlan, MoreMalformations) {
  const int id = FirstConv(graph());
  ASSERT_GE(id, 0);
  const int64_t c = graph().node(id).out_shape.c;

  {  // Plan size mismatch.
    Plan plan = BasePlan();
    plan.nodes.pop_back();
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kPlanSizeMismatch)) << r.ToString();
  }
  {  // Split fraction outside [0, 1].
    Plan plan = BasePlan();
    plan.nodes[static_cast<size_t>(id)] =
        NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 1.5};
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kBadSplitFraction)) << r.ToString();
  }
  {  // Cooperative on a non-splittable layer (softmax output).
    Plan plan = BasePlan();
    const int out = graph().OutputId();
    ASSERT_EQ(graph().node(out).desc.kind, LayerKind::kSoftmax);
    plan.nodes[static_cast<size_t>(out)] =
        NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kCoopNotSplittable)) << r.ToString();
  }
  {  // Explicit slices leaving a gap.
    Plan plan = BasePlan();
    NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
    a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
    a.cpu_slice = ChannelRange{0, 1};
    a.gpu_slice = ChannelRange{c - 1, c};  // Channels [1, c-1) computed by no one.
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kSliceGap)) << r.ToString();
  }
  {  // Explicit slice out of range.
    Plan plan = BasePlan();
    NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
    a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
    a.cpu_slice = ChannelRange{0, c};
    a.gpu_slice = ChannelRange{c, c + 4};
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kSliceOutOfRange)) << r.ToString();
  }
  {  // Branch-claimed node planned as a plain single step.
    Plan plan = BasePlan();
    ASSERT_FALSE(plan.branch_plans.empty());
    const int member = plan.branch_plans[0].group.branches[0][0];
    plan.nodes[static_cast<size_t>(member)] = NodeAssignment{StepKind::kSingle, ProcKind::kCpu};
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.Has(DiagCode::kBranchNodeNotMarked)) << r.ToString();
  }
  {  // Degenerate split is a warning, not an error.
    Plan plan = BasePlan();
    plan.nodes[static_cast<size_t>(id)] =
        NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 1.0};
    const Report r = VerifyPlan(graph(), plan, cfg_);
    EXPECT_TRUE(r.ok()) << r.ToString();
    EXPECT_TRUE(r.Has(DiagCode::kDegenerateSplit)) << r.ToString();
    EXPECT_GE(r.warning_count(), 1);
  }
  {  // QUInt8 compute on float storage is incoherent (Section 4).
    ExecConfig bad = ExecConfig::AllF32();
    bad.cpu_compute = DType::kQUInt8;
    const Report r = VerifyPlan(graph(), BasePlan(), bad);
    EXPECT_TRUE(r.Has(DiagCode::kConfigQu8OnFloat)) << r.ToString();
  }
  {  // kInt32 is an accumulator type, never a storage dtype.
    ExecConfig bad = ExecConfig::AllF32();
    bad.storage = DType::kInt32;
    const Report r = VerifyPlan(graph(), BasePlan(), bad);
    EXPECT_TRUE(r.Has(DiagCode::kConfigBadDType)) << r.ToString();
  }
  {  // Zero point outside [0, 255].
    Report r;
    CheckQuantParams(QuantParams{0.1f, 300}, 0, "activation", r);
    EXPECT_TRUE(r.Has(DiagCode::kQuantZeroPointRange)) << r.ToString();
  }
}

// --- The executor rejects malformed plans (ExecConfig::verify) --------------

TEST_F(MalformedPlan, ExecutorThrowsVerifyError) {
  Plan plan = BasePlan();
  const int id = FirstConv(graph());
  NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
  a = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
  a.gpu_fraction = 0.9;

  PreparedModel pm(model_, cfg_);
  Executor ex(pm, soc_);
  try {
    ex.Run(plan);
    FAIL() << "expected VerifyError";
  } catch (const VerifyError& e) {
    EXPECT_TRUE(e.report().Has(DiagCode::kSplitRatioNotUnity));
    EXPECT_NE(std::string(e.what()).find("P103"), std::string::npos) << e.what();
  }

  // With verification off the executor trusts the plan (measurement loops).
  ExecConfig off = cfg_;
  off.verify = false;
  PreparedModel pm_off(model_, off);
  Executor ex_off(pm_off, soc_);
  EXPECT_GT(ex_off.Run(plan).latency_us, 0.0);
}

// --- Corrupt graphs (built through the unchecked testing hook) --------------

Node MakeNode(int id, LayerKind kind, std::vector<int> inputs, const Shape& shape) {
  Node n;
  n.id = id;
  n.desc.kind = kind;
  n.desc.name = "n" + std::to_string(id);
  n.inputs = std::move(inputs);
  n.out_shape = shape;
  return n;
}

TEST(VerifyGraphErrors, EmptyGraph) {
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({}));
  EXPECT_TRUE(r.Has(DiagCode::kGraphEmpty)) << r.ToString();
}

TEST(VerifyGraphErrors, FirstNodeNotInput) {
  Node n = MakeNode(0, LayerKind::kRelu, {}, Shape(1, 1, 1, 1));
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({n}));
  EXPECT_TRUE(r.Has(DiagCode::kGraphNoInput)) << r.ToString();
}

TEST(VerifyGraphErrors, NodeIdMismatch) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 1, 4, 4));
  Node relu = MakeNode(7, LayerKind::kRelu, {0}, Shape(1, 1, 4, 4));  // id != index.
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, relu}));
  EXPECT_TRUE(r.Has(DiagCode::kNodeIdMismatch)) << r.ToString();
}

TEST(VerifyGraphErrors, EdgeOutOfRange) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 1, 4, 4));
  Node relu = MakeNode(1, LayerKind::kRelu, {5}, Shape(1, 1, 4, 4));  // Forward edge.
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, relu}));
  EXPECT_TRUE(r.Has(DiagCode::kEdgeOutOfRange)) << r.ToString();
}

TEST(VerifyGraphErrors, BadArity) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 2, 4, 4));
  Node add = MakeNode(1, LayerKind::kEltwiseAdd, {0}, Shape(1, 2, 4, 4));  // Needs >= 2.
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, add}));
  EXPECT_TRUE(r.Has(DiagCode::kBadArity)) << r.ToString();
}

TEST(VerifyGraphErrors, InvalidShape) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 0, -3, 4));
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in}));
  EXPECT_TRUE(r.Has(DiagCode::kInvalidShape)) << r.ToString();
}

TEST(VerifyGraphErrors, StoredShapeDisagreesWithInference) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 3, 8, 8));
  Node conv = MakeNode(1, LayerKind::kConv, {0}, Shape(1, 99, 8, 8));  // 99 != out_channels.
  conv.desc.out_channels = 16;
  conv.desc.conv = Conv2DParams{3, 3, 1, 1, 1, 1};
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, conv}));
  EXPECT_TRUE(r.Has(DiagCode::kShapeMismatch)) << r.ToString();
}

TEST(VerifyGraphErrors, BadLayerParams) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 3, 8, 8));
  Node conv = MakeNode(1, LayerKind::kConv, {0}, Shape(1, 16, 8, 8));
  conv.desc.out_channels = 16;
  conv.desc.conv = Conv2DParams{0, 3, 1, 1, 1, 1};  // kernel_h = 0.
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, conv}));
  EXPECT_TRUE(r.Has(DiagCode::kBadLayerParams)) << r.ToString();
}

TEST(VerifyGraphErrors, EltwiseShapeMismatch) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 2, 4, 4));
  Node relu = MakeNode(1, LayerKind::kRelu, {0}, Shape(1, 2, 4, 4));
  Node other = MakeNode(2, LayerKind::kInput, {}, Shape(1, 2, 2, 2));
  Node add = MakeNode(3, LayerKind::kEltwiseAdd, {1, 2}, Shape(1, 2, 4, 4));
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, relu, other, add}));
  EXPECT_TRUE(r.Has(DiagCode::kEltwiseShapeMismatch)) << r.ToString();
}

TEST(VerifyGraphErrors, ConcatShapeMismatch) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 2, 4, 4));
  Node other = MakeNode(1, LayerKind::kInput, {}, Shape(1, 2, 2, 2));
  Node cat = MakeNode(2, LayerKind::kConcat, {0, 1}, Shape(1, 4, 4, 4));
  const Report r = VerifyGraph(Graph::UncheckedFromNodes({in, other, cat}));
  EXPECT_TRUE(r.Has(DiagCode::kConcatShapeMismatch)) << r.ToString();
}

// Pooling splits *input* channels (Section 3.2): a cooperative pool step
// whose input channel count differs from its output channel count cannot
// mirror the split. Only constructible through the unchecked hook — the
// checked graph API always infers matching counts.
TEST(VerifyGraphErrors, CoopInputChannelMismatch) {
  Node in = MakeNode(0, LayerKind::kInput, {}, Shape(1, 8, 8, 8));
  Node pool = MakeNode(1, LayerKind::kPool, {0}, Shape(1, 4, 4, 4));  // 8 in, 4 out.
  pool.desc.pool = Pool2DParams{};
  const Graph g = Graph::UncheckedFromNodes({in, pool});
  Plan plan;
  plan.nodes.resize(2);
  plan.nodes[1] = NodeAssignment{StepKind::kCooperative, ProcKind::kCpu, 0.5};
  const Report r = VerifyPlan(g, plan, ExecConfig::AllF32());
  EXPECT_TRUE(r.Has(DiagCode::kCoopInputChannelMismatch)) << r.ToString();
}

// --- Sync-count coherence ---------------------------------------------------

TEST(VerifySyncCount, MatchesExecutorOnZooPlans) {
  const ExecConfig cfg = ExecConfig::ProcessorFriendly();
  for (Model& m : Zoo()) {
    for (const SocSpec& soc : {MakeExynos7420(), MakeExynos7880()}) {
      ULayerRuntime::Options opt;
      opt.config = cfg;
      ULayerRuntime rt(m, soc, opt);
      EXPECT_EQ(rt.Run().sync_count, ExpectedSyncCount(m.graph, rt.plan(), cfg))
          << m.name << " on " << soc.name;
    }
  }
}

TEST(VerifySyncCount, MatchesExecutorOnBaselines) {
  const ExecConfig cfg = ExecConfig::AllF32();
  Model m = MakeGoogLeNet();
  const SocSpec soc = MakeExynos7420();
  PreparedModel pm(m, cfg);
  Executor ex(pm, soc);
  for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
    const Plan plan = MakeSingleProcessorPlan(m.graph, proc);
    EXPECT_EQ(ex.Run(plan).sync_count, ExpectedSyncCount(m.graph, plan, cfg))
        << ProcKindName(proc);
  }
}

// --- Quantization verification after calibration ----------------------------

TEST(VerifyQuant, CalibratedLeNetPassesAndRuns) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  ULayerRuntime::Options opt;
  opt.config = ExecConfig::ProcessorFriendly();
  ULayerRuntime rt(m, MakeExynos7420(), opt);
  Tensor in(m.graph.node(0).out_shape, DType::kF32);
  FillUniform(in, 0x1234, -1.0f, 1.0f);
  rt.Calibrate({in});  // Throws VerifyError on bad scales.
  EXPECT_GT(rt.Run(&in).latency_us, 0.0);
}

TEST(VerifyQuant, ActivationSweepFlagsBadScales) {
  const Model m = MakeLeNet5();
  std::vector<QuantParams> act(static_cast<size_t>(m.graph.size()), QuantParams{0.05f, 128});
  EXPECT_TRUE(VerifyActivationQuantization(m.graph, act).ok());
  act[2].scale = -1.0f;
  act[3].zero_point = -7;
  const Report r = VerifyActivationQuantization(m.graph, act);
  EXPECT_TRUE(r.Has(DiagCode::kQuantScaleInvalid));
  EXPECT_TRUE(r.Has(DiagCode::kQuantZeroPointRange));
  EXPECT_EQ(r.error_count(), 2);
}

// --- Q303: the QUInt8 int32-accumulator bound --------------------------------

TEST(VerifyQuant, WideFcFixtureExceedsTheAccumulatorBound) {
  std::ifstream in(std::string(ULAYER_SOURCE_DIR) + "/tests/data/wide_fc_qu8.graph");
  if (!in) {
    GTEST_SKIP() << "tests/data/wide_fc_qu8.graph not reachable from the test binary";
  }
  std::stringstream text;
  text << in.rdbuf();
  Model m;
  m.name = "wide-fc";
  m.graph = GraphFromText(text.str());
  ASSERT_TRUE(VerifyGraph(m.graph).ok());
  for (const ExecConfig& cfg : {ExecConfig::AllQU8(), ExecConfig::ProcessorFriendly()}) {
    const Report r = VerifyAccumulatorBounds(m.graph, cfg);
    ASSERT_EQ(r.error_count(), 1) << r.ToString();
    EXPECT_EQ(r.diagnostics()[0].code, DiagCode::kQuantAccumulatorBound);
    EXPECT_EQ(r.diagnostics()[0].node, 1);
    // The runtime refuses to install a plan the integer kernels cannot run.
    ULayerRuntime::Options opts;
    opts.config = cfg;
    try {
      ULayerRuntime rt(m, MakeExynos7420(), opts);
      ADD_FAILURE() << "plan install must reject k = 40000";
    } catch (const VerifyError& e) {
      EXPECT_TRUE(e.report().Has(DiagCode::kQuantAccumulatorBound));
    }
  }
  for (const ExecConfig& cfg : {ExecConfig::AllF32(), ExecConfig::AllF16()}) {
    EXPECT_TRUE(VerifyAccumulatorBounds(m.graph, cfg).ok()) << "float kernels have no bound";
  }
}

TEST(VerifyQuant, AccumulatorBoundIsExactAndTheZooIsClean) {
  // k = 33,025 is the longest exact reduction; one more input crosses it.
  for (const int64_t c : {int64_t{33025}, int64_t{33026}}) {
    Graph g;
    const int in = g.AddInput(Shape(1, c, 1, 1), "in");
    g.AddFullyConnected("fc", in, 4, false);
    EXPECT_EQ(VerifyAccumulatorBounds(g, ExecConfig::AllQU8()).ok(), c == 33025) << c;
  }
  // The largest zoo reduction is VGG-16 fc6 at k = 25,088.
  for (const Model& m : Zoo()) {
    EXPECT_TRUE(VerifyAccumulatorBounds(m.graph, ExecConfig::AllQU8()).ok()) << m.name;
  }
}

// --- Plan serialization round-trip through the verifier ---------------------

TEST(VerifyRoundTrip, PartitionerPlanSurvivesTextRoundTrip) {
  for (const Model& m : {MakeGoogLeNet(), MakeMobileNetV1()}) {
    const SocSpec soc = MakeExynos7420();
    ULayerRuntime rt(m, soc);
    const Plan& plan = rt.plan();
    const Plan parsed = PlanFromText(PlanToText(plan, m.graph), m.graph);
    const Report r = VerifyPlan(m.graph, parsed, ExecConfig::AllF32());
    EXPECT_TRUE(r.ok()) << m.name << "\n" << r.ToString();
    // The parsed plan must execute identically.
    PreparedModel pm(m, ExecConfig::AllF32());
    Executor ex(pm, soc);
    EXPECT_DOUBLE_EQ(ex.Run(parsed).latency_us, ex.Run(plan).latency_us) << m.name;
    EXPECT_EQ(ex.Run(parsed).sync_count, ex.Run(plan).sync_count) << m.name;
  }
}

}  // namespace
}  // namespace ulayer
