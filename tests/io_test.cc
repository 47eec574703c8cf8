#include "io/io.h"

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/runtime.h"
#include "models/model.h"

namespace ulayer {
namespace {

// Structural equality of two graphs.
void ExpectSameGraph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    const Node& na = a.node(i);
    const Node& nb = b.node(i);
    EXPECT_EQ(na.desc.kind, nb.desc.kind) << i;
    EXPECT_EQ(na.desc.name, nb.desc.name) << i;
    EXPECT_EQ(na.inputs, nb.inputs) << i;
    EXPECT_EQ(na.out_shape, nb.out_shape) << i;
    EXPECT_EQ(na.desc.out_channels, nb.desc.out_channels) << i;
    EXPECT_EQ(na.desc.conv.relu, nb.desc.conv.relu) << i;
  }
}

class ZooRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ZooRoundTrip, GraphSerializationRoundTrips) {
  Model m;
  switch (GetParam()) {
    case 0:
      m = MakeLeNet5();
      break;
    case 1:
      m = MakeAlexNet();
      break;
    case 2:
      m = MakeVgg16();
      break;
    case 3:
      m = MakeGoogLeNet();
      break;
    case 4:
      m = MakeSqueezeNetV11();
      break;
    case 5:
      m = MakeMobileNetV1();
      break;
    case 6:
      m = MakeResNet18();
      break;
    default:
      m = MakeResNet50();
      break;
  }
  const std::string text = GraphToText(m.graph);
  const Graph parsed = GraphFromText(text);
  ExpectSameGraph(m.graph, parsed);
  // Round-tripping again is byte-stable.
  EXPECT_EQ(GraphToText(parsed), text);
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooRoundTrip, ::testing::Range(0, 8));

TEST(IoTest, RejectsMissingHeader) {
  EXPECT_THROW(GraphFromText("input x 1 1 1 1\n"), ParseError);
}

TEST(IoTest, RejectsUnknownOp) {
  EXPECT_THROW(GraphFromText("ulayer-graph v1\nfrobnicate x 0\n"), ParseError);
}

TEST(IoTest, RejectsForwardReferences) {
  // conv referencing node 5 before it exists.
  EXPECT_THROW(GraphFromText("ulayer-graph v1\n"
                             "input in 1 3 8 8\n"
                             "conv c 5 8 3 3 1 1 1 1 1\n"),
               ParseError);
}

TEST(IoTest, RejectsBadShapes) {
  EXPECT_THROW(GraphFromText("ulayer-graph v1\ninput in 1 0 8 8\n"), ParseError);
  EXPECT_THROW(GraphFromText("ulayer-graph v1\ninput in 1 3 8\n"), ParseError);
}

TEST(IoTest, RejectsEmptyGraph) { EXPECT_THROW(GraphFromText("ulayer-graph v1\n"), ParseError); }

TEST(IoTest, SkipsCommentsAndBlankLines) {
  const Graph g = GraphFromText(
      "ulayer-graph v1\n"
      "# a comment\n"
      "\n"
      "input in 1 3 8 8\n"
      "conv c1 0 8 3 3 1 1 1 1 1\n");
  EXPECT_EQ(g.size(), 2);
  EXPECT_EQ(g.node(1).out_shape, Shape(1, 8, 8, 8));
}

TEST(IoTest, HandWrittenGraphExecutes) {
  // The format is meant to be hand-authorable: write a net, plan it, run it.
  const Graph g = GraphFromText(
      "ulayer-graph v1\n"
      "input image 1 3 32 32\n"
      "conv stem 0 16 3 3 1 1 1 1 1\n"
      "pool p 1 max 2 2 0 0\n"
      "fc head 2 10 0\n"
      "softmax prob 3\n");
  Model m;
  m.name = "hand-written";
  m.graph = g;
  ULayerRuntime rt(m, MakeExynos7420());
  const RunResult r = rt.Run();
  EXPECT_GT(r.latency_us, 0.0);
}

TEST(IoTest, PlanToTextListsDecisionsAndGroups) {
  const Model m = MakeGoogLeNet();
  ULayerRuntime rt(m, MakeExynos7420());
  const std::string text = PlanToText(rt.plan(), m.graph);
  EXPECT_NE(text.find("branch-group"), std::string::npos);
  EXPECT_NE(text.find("inception_3a/3x3"), std::string::npos);
  // Every non-input node appears.
  EXPECT_NE(text.find("[softmax]"), std::string::npos);
}

TEST(IoTest, NamesWithSpacesAreSanitized) {
  Graph g;
  g.AddInput(Shape(1, 1, 4, 4), "my input");
  const std::string text = GraphToText(g);
  EXPECT_EQ(text.find("my input"), std::string::npos);
  const Graph parsed = GraphFromText(text);
  EXPECT_EQ(parsed.node(0).desc.name, "my_input");
}


TEST(IoTest, TraceToTextShowsBothDevicesBusy) {
  const Model m = MakeVgg16();
  ULayerRuntime rt(m, MakeExynos7420());
  const RunResult r = rt.Run();
  ASSERT_TRUE(r.run_trace.enabled) << "the adaptive runtime records spans";
  const std::string text = TraceToText(r, m.graph);
  EXPECT_NE(text.find("CPU |"), std::string::npos);
  EXPECT_NE(text.find("GPU |"), std::string::npos);
  EXPECT_NE(text.find("#"), std::string::npos);
  // The Gantt is a view over the occupying spans, whose durations sum to
  // the run's busy times (T404).
  for (const double busy : {r.cpu_busy_us, r.gpu_busy_us}) {
    const std::string pct = "| " + std::to_string(static_cast<int>(busy / r.latency_us * 100.0)) +
                            "% busy";
    EXPECT_NE(text.find(pct), std::string::npos) << pct << "\n" << text;
  }
}

TEST(IoTest, TraceSpansAreWellFormed) {
  const Model m = MakeAlexNet();
  ULayerRuntime rt(m, MakeExynos7880());
  const RunResult r = rt.Run();
  ASSERT_FALSE(r.run_trace.spans.empty());
  for (const trace::Span& s : r.run_trace.spans) {
    EXPECT_GE(s.start_us, 0.0);
    EXPECT_GE(s.end_us, s.start_us);
    if (s.kind == trace::SpanKind::kKernel) {
      EXPECT_GT(s.end_us, s.start_us);
    }
    EXPECT_LE(s.end_us, r.latency_us + 1e-9);
    EXPECT_GE(s.node, 0);
    EXPECT_LT(s.node, m.graph.size());
  }
}

TEST(IoTest, TraceToTextRejectsAnUntracedRun) {
  const Model m = MakeAlexNet();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  const RunResult r =
      Executor(pm, MakeExynos7880()).Run(MakeSingleProcessorPlan(m.graph, ProcKind::kCpu));
  ASSERT_FALSE(r.run_trace.enabled);
  try {
    TraceToText(r, m.graph);
    FAIL() << "an untraced run has no spans to draw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace ulayer
