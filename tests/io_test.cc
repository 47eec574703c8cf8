#include "io/io.h"

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "core/runtime.h"
#include "models/model.h"
#include "tensor/rng.h"
#include "verify/verify.h"

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

// Layers whose shape arithmetic would divide by zero or overflow int are
// rejected before they reach Graph::Add*.
TEST(IoTest, RejectsOutOfDomainLayers) {
  const std::string head = "ulayer-graph v1\ninput in 1 4 8 8\n";
  const char* bad[] = {
      "conv c 0 4 3 3 0 0 1 1 0",             // stride 0: SIGFPE in OutH
      "conv c 0 4 3 3 1 1 -2147483648 0 0",   // pad INT_MIN: 2 * pad overflows
      "conv c 0 4 3 3 1 1 -1 0 0",            // negative pad
      "conv c 0 4 0 3 1 1 0 0 0",             // kernel 0
      "conv c 0 4 9 9 1 1 0 0 0",             // window larger than the input
      "conv c 0 2147483648 1 1 1 1 0 0 0",    // channels beyond int
      "dwconv d 0 3 0 1 0",                   // stride 0
      "dwconv d 0 0 1 0 0",                   // kernel 0
      "pool p 0 max 2 0 0 0",                 // stride 0
      "pool p 0 avg 2 2 -1 1",                // negative pad
      "lrn l 0 0 0.0001 0.75 2",              // empty LRN window
      "concat c 2147483647 0",                // count far beyond the ids given
  };
  for (const char* line : bad) {
    EXPECT_THROW(GraphFromText(head + line + "\n"), ParseError) << line;
  }
  // An input dimension of INT_MAX: a padded window overflows int...
  EXPECT_THROW(GraphFromText("ulayer-graph v1\ninput in 1 1 2147483647 1\n"
                             "conv c 0 1 3 1 1 1 1 0 0\n"),
               ParseError);
  // ...and a dimension beyond it is rejected at the input.
  EXPECT_THROW(GraphFromText("ulayer-graph v1\ninput in 1 1 2147483648 1\n"), ParseError);
  // Concat inputs must agree outside the channel axis; add inputs entirely.
  const std::string two = head + "pool p 0 max 2 2 0 0\n";
  EXPECT_THROW(GraphFromText(two + "concat c 2 0 1\n"), ParseError);
  EXPECT_THROW(GraphFromText(two + "add a 0 2 0 1\n"), ParseError);
  // The in-domain neighbours of those lines parse.
  EXPECT_EQ(GraphFromText(head + "conv c 0 4 8 8 1 1 0 0 0\n").node(1).out_shape,
            Shape(1, 4, 1, 1));
  EXPECT_EQ(GraphFromText(two + "concat c 2 1 1\n").node(2).out_shape, Shape(1, 8, 4, 4));
  EXPECT_EQ(GraphFromText("ulayer-graph v1\ninput in 1 1 2147483647 1\nconv c 0 1 1 1 1 1 0 0 0\n")
                .node(1)
                .out_shape,
            Shape(1, 1, 2147483647, 1));
}

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

// --- Mutation properties of the text parsers --------------------------------

// Deterministic edits of a serialized graph or plan.
class TextMutator {
 public:
  explicit TextMutator(uint64_t seed) : rng_(seed) {}

  std::string Mutate(const std::string& text) {
    return rng_.Below(2) == 0 ? Bytes(text) : Tokens(text);
  }

  // Replaces, deletes or inserts 1-3 bytes.
  std::string Bytes(std::string text) {
    static constexpr char kAlphabet[] = "0123456789-+.e []()=,\n\t#acgpquxz";
    const uint64_t edits = 1 + rng_.Below(3);
    for (uint64_t e = 0; e < edits && !text.empty(); ++e) {
      const size_t pos = Below(text.size());
      const char c = kAlphabet[Below(sizeof(kAlphabet) - 1)];
      switch (rng_.Below(3)) {
        case 0:
          text[pos] = c;
          break;
        case 1:
          text.erase(pos, 1);
          break;
        default:
          text.insert(pos, 1, c);
          break;
      }
    }
    return text;
  }

  // One token-level edit: a number nudged by one, a token replaced by an edge
  // value or by another token of the text, or a whole line dropped or
  // repeated.
  std::string Tokens(std::string text) {
    static const char* const kEdge[] = {"0",          "-1",         "1",
                                        "2",          "-2147483648", "2147483647",
                                        "2147483648", "99999999999999999999",
                                        "0.5",        "1e308",      "nan",
                                        ""};
    const auto tokens = Runs(text, [](unsigned char c) { return std::isspace(c) == 0; });
    const auto numbers = Runs(text, [](unsigned char c) { return std::isdigit(c) != 0; });
    if (tokens.empty()) {
      return text;
    }
    const auto [b, e] = tokens[Below(tokens.size())];
    switch (rng_.Below(4)) {
      case 0: {
        if (numbers.empty()) {
          return text;
        }
        const auto [nb, ne] = numbers[Below(numbers.size())];
        const long long v = std::strtoll(text.substr(nb, ne - nb).c_str(), nullptr, 10);
        return text.replace(nb, ne - nb, std::to_string(rng_.Below(2) == 0 ? v + 1 : v - 1));
      }
      case 1:
        return text.replace(b, e - b, kEdge[Below(std::size(kEdge))]);
      case 2: {
        const auto [ob, oe] = tokens[Below(tokens.size())];
        return text.replace(b, e - b, text.substr(ob, oe - ob));
      }
      default: {
        const size_t lb = text.rfind('\n', b) + 1;  // npos + 1 == 0: the first line.
        const size_t nl = text.find('\n', e);
        const size_t le = nl == std::string::npos ? text.size() : nl + 1;
        return rng_.Below(2) == 0 ? text.erase(lb, le - lb)
                                  : text.insert(le, text.substr(lb, le - lb));
      }
    }
  }

 private:
  // Maximal runs [begin, end) of characters satisfying `in_run`.
  template <typename Pred>
  static std::vector<std::pair<size_t, size_t>> Runs(const std::string& text, Pred in_run) {
    std::vector<std::pair<size_t, size_t>> runs;
    for (size_t i = 0; i < text.size();) {
      size_t j = i;
      while (j < text.size() && in_run(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
      if (j > i) {
        runs.emplace_back(i, j);
        i = j;
      } else {
        ++i;
      }
    }
    return runs;
  }

  size_t Below(size_t n) { return static_cast<size_t>(rng_.Below(n)); }

  Rng rng_;
};

std::vector<Model> MutationZoo() {
  return {MakeLeNet5(), MakeAlexNet(), MakeGoogLeNet(), MakeSqueezeNetV11(), MakeResNet18()};
}

// Every mutation of a zoo graph's text either parses into a graph the
// verifier can inspect or throws a typed ParseError: no crash, no UB (the
// sanitizer CI stage runs this), no untyped exception.
TEST(IoMutationTest, MutatedGraphTextParsesOrThrowsTyped) {
  int parsed = 0;
  int rejected = 0;
  uint64_t seed = 1;
  for (const Model& m : MutationZoo()) {
    const std::string text = GraphToText(m.graph);
    TextMutator mut(seed++);
    for (int i = 0; i < 800; ++i) {
      const std::string mutant = mut.Mutate(text);
      Graph g;
      try {
        g = GraphFromText(mutant);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kParse) << mutant;
        ++rejected;
        continue;
      }
      ++parsed;
      (void)VerifyGraph(g);
      EXPECT_EQ(GraphToText(GraphFromText(GraphToText(g))), GraphToText(g)) << mutant;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

// Every mutation of a partitioner plan's text either parses or throws a
// typed ParseError; every parsed plan that passes VerifyPlan runs
// timing-only to a finite positive latency.
TEST(IoMutationTest, MutatedPlanTextParsesOrThrowsTypedAndVerifiedPlansRun) {
  const SocSpec soc = MakeExynos7420();
  const ExecConfig cfg = ExecConfig::ProcessorFriendly();
  ExecConfig no_verify = cfg;
  no_verify.verify = false;
  int rejected = 0;
  int unverified = 0;
  int ran = 0;
  uint64_t seed = 101;
  for (const Model& m : {MakeAlexNet(), MakeGoogLeNet(), MakeResNet18()}) {
    const Graph& g = m.graph;
    const std::string text = PlanToText(ULayerRuntime(m, soc).plan(), g);
    PreparedModel pm(m, no_verify);
    Executor ex(pm, soc);
    TextMutator mut(seed++);
    for (int i = 0; i < 1000; ++i) {
      const std::string mutant = mut.Mutate(text);
      Plan plan;
      try {
        plan = PlanFromText(mutant, g);
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kParse) << mutant;
        ++rejected;
        continue;
      }
      if (!VerifyPlan(g, plan, cfg).ok()) {
        ++unverified;
        continue;
      }
      const RunResult r = ex.Run(plan);
      EXPECT_TRUE(std::isfinite(r.latency_us) && r.latency_us > 0.0) << mutant;
      ++ran;
    }
  }
  EXPECT_GT(rejected, 0);
  EXPECT_GT(unverified, 0);
  EXPECT_GT(ran, 0);
}

}  // namespace
}  // namespace ulayer
