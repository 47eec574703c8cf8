#include "io/io.h"

#include <algorithm>
#include <limits>
#include <sstream>

#include "models/model.h"

namespace ulayer {
namespace {

constexpr char kHeader[] = "ulayer-graph v1";

// Names may contain '/' but no whitespace; enforce on write so the
// whitespace-delimited parser stays unambiguous.
std::string SafeName(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ' || c == '\t') {
      c = '_';
    }
  }
  return out.empty() ? "_" : out;
}

// Reads the next whitespace token, expects "key=value", returns "value"
// (empty string on mismatch, so the caller's numeric parse fails).
std::string ReadKeyValue(std::istream& is, const std::string& key) {
  std::string tok;
  if (!(is >> tok) || tok.rfind(key + "=", 0) != 0) {
    return "";
  }
  return tok.substr(key.size() + 1);
}

// Largest tensor dimension: shape inference (kernels/params.h) and the
// kernels index every axis with int.
constexpr int64_t kMaxDim = std::numeric_limits<int>::max();

bool DimsInRange(const Shape& s) {
  return s.IsValid() && s.n <= kMaxDim && s.c <= kMaxDim && s.h <= kMaxDim && s.w <= kMaxDim;
}

// Bytes of a tensor of shape `s` at 4 B per element (the widest dtype), or -1
// when the element count or the byte count overflows int64_t: every size
// derived from a shape downstream (Shape::NumElements, memory planning, the
// analyzer's pool packing) multiplies unchecked.
int64_t CheckedBytes(const Shape& s) {
  int64_t v = 1;
  for (const int64_t factor : {s.n, s.c, s.h, s.w, int64_t{4}}) {
    if (__builtin_mul_overflow(v, factor, &v)) {
      return -1;
    }
  }
  return v;
}

// One spatial output size of a conv/pool window, computed in int64_t.
// Returns 0 unless kernel >= 1, stride >= 1, pad >= 0, the window fits the
// padded input, and every intermediate of the int arithmetic in
// kernels/params.h (padded input, ceil-mode numerator) fits in an int. The
// result then lies in [1, kMaxDim].
int64_t WindowOutDim(int64_t in, int64_t kernel, int64_t stride, int64_t pad, bool ceil_mode) {
  if (kernel < 1 || stride < 1 || pad < 0) {
    return 0;
  }
  const int64_t padded = in + 2 * pad;
  const int64_t numer = padded - kernel;
  const int64_t rounded = ceil_mode ? numer + stride - 1 : numer;
  if (numer < 0 || padded > kMaxDim || rounded > kMaxDim) {
    return 0;
  }
  return rounded / stride + 1;
}

template <typename Fail>
double ParseDouble(const std::string& s, Fail fail) {
  try {
    size_t pos = 0;
    const double v = std::stod(s, &pos);
    if (pos != s.size()) {
      fail("trailing characters in number '" + s + "'");
    }
    return v;
  } catch (const std::logic_error&) {
    fail("bad number '" + s + "'");
    return 0.0;
  }
}

// Parses a "[begin,end)" channel range.
template <typename Fail>
ChannelRange ParseRange(const std::string& s, Fail fail) {
  ChannelRange r;
  char lb = 0;
  char comma = 0;
  char rb = 0;
  std::istringstream rs(s);
  if (!(rs >> lb >> r.begin >> comma >> r.end >> rb) || lb != '[' || comma != ',' || rb != ')') {
    fail("bad channel range '" + s + "'");
  }
  return r;
}

}  // namespace

std::string GraphToText(const Graph& g) {
  std::ostringstream os;
  os << kHeader << "\n";
  for (const Node& n : g.nodes()) {
    const LayerDesc& d = n.desc;
    switch (d.kind) {
      case LayerKind::kInput:
        os << "input " << SafeName(d.name) << " " << n.out_shape.n << " " << n.out_shape.c << " "
           << n.out_shape.h << " " << n.out_shape.w << "\n";
        break;
      case LayerKind::kConv:
        os << "conv " << SafeName(d.name) << " " << n.inputs[0] << " " << d.out_channels << " "
           << d.conv.kernel_h << " " << d.conv.kernel_w << " " << d.conv.stride_h << " "
           << d.conv.stride_w << " " << d.conv.pad_h << " " << d.conv.pad_w << " "
           << (d.conv.relu ? 1 : 0) << "\n";
        break;
      case LayerKind::kDepthwiseConv:
        os << "dwconv " << SafeName(d.name) << " " << n.inputs[0] << " " << d.conv.kernel_h << " "
           << d.conv.stride_h << " " << d.conv.pad_h << " " << (d.conv.relu ? 1 : 0) << "\n";
        break;
      case LayerKind::kFullyConnected:
        os << "fc " << SafeName(d.name) << " " << n.inputs[0] << " " << d.out_channels << " "
           << (d.conv.relu ? 1 : 0) << "\n";
        break;
      case LayerKind::kPool:
        os << "pool " << SafeName(d.name) << " " << n.inputs[0] << " "
           << (d.pool.kind == PoolKind::kMax ? "max" : "avg") << " " << d.pool.kernel_h << " "
           << d.pool.stride_h << " " << d.pool.pad_h << " " << (d.pool.ceil_mode ? 1 : 0) << "\n";
        break;
      case LayerKind::kGlobalAvgPool:
        os << "gavgpool " << SafeName(d.name) << " " << n.inputs[0] << "\n";
        break;
      case LayerKind::kRelu:
        os << "relu " << SafeName(d.name) << " " << n.inputs[0] << "\n";
        break;
      case LayerKind::kLrn:
        os << "lrn " << SafeName(d.name) << " " << n.inputs[0] << " " << d.lrn.local_size << " "
           << d.lrn.alpha << " " << d.lrn.beta << " " << d.lrn.k << "\n";
        break;
      case LayerKind::kConcat: {
        os << "concat " << SafeName(d.name) << " " << n.inputs.size();
        for (int in : n.inputs) {
          os << " " << in;
        }
        os << "\n";
        break;
      }
      case LayerKind::kEltwiseAdd: {
        os << "add " << SafeName(d.name) << " " << (d.conv.relu ? 1 : 0) << " "
           << n.inputs.size();
        for (int in : n.inputs) {
          os << " " << in;
        }
        os << "\n";
        break;
      }
      case LayerKind::kSoftmax:
        os << "softmax " << SafeName(d.name) << " " << n.inputs[0] << "\n";
        break;
    }
  }
  return os.str();
}

Graph GraphFromText(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != kHeader) {
    throw ParseError("missing 'ulayer-graph v1' header");
  }
  Graph g;
  int64_t graph_bytes = 0;  // Running total of every tensor's and filter's bytes.
  int line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    std::istringstream ls(line);
    std::string op, name;
    ls >> op >> name;
    auto fail = [&](const std::string& why) {
      throw ParseError("line " + std::to_string(line_no) + ": " + why + ": " + line);
    };
    auto check_input = [&](int id) {
      if (id < 0 || id >= g.size()) {
        fail("input node id out of range");
      }
      return id;
    };
    // Reads `count` input ids one token at a time, so a huge count cannot
    // allocate before the line runs out of ids.
    auto read_inputs = [&](int count, const std::string& what) {
      std::vector<int> inputs;
      for (int i = 0; i < count; ++i) {
        int id = 0;
        if (!(ls >> id)) {
          fail("bad " + what + " inputs");
        }
        inputs.push_back(check_input(id));
      }
      return inputs;
    };
    // Every windowed layer is checked before Graph::Add*, whose int shape
    // arithmetic would otherwise divide by zero or overflow.
    auto check_window = [&](int in, int kh, int kw, int sh, int sw, int ph, int pw,
                            bool ceil_mode) {
      const Shape& s = g.node(check_input(in)).out_shape;
      if (WindowOutDim(s.h, kh, sh, ph, ceil_mode) == 0 ||
          WindowOutDim(s.w, kw, sw, pw, ceil_mode) == 0) {
        fail("want kernel and stride >= 1, pad >= 0 and a window inside the padded " +
             s.ToString() + " input");
      }
    };
    if (op == "input") {
      Shape s;
      if (!(ls >> s.n >> s.c >> s.h >> s.w) || !DimsInRange(s)) {
        fail("bad input shape");
      }
      g.AddInput(s, name);
    } else if (op == "conv") {
      int in = 0, relu = 0;
      int64_t oc = 0;
      Conv2DParams p;
      if (!(ls >> in >> oc >> p.kernel_h >> p.kernel_w >> p.stride_h >> p.stride_w >> p.pad_h >>
            p.pad_w >> relu) ||
          oc <= 0) {
        fail("bad conv");
      }
      check_window(in, p.kernel_h, p.kernel_w, p.stride_h, p.stride_w, p.pad_h, p.pad_w, false);
      p.relu = relu != 0;
      g.AddConv2D(name, in, oc, p);
    } else if (op == "dwconv") {
      int in = 0, k = 0, s = 0, pad = 0, relu = 0;
      if (!(ls >> in >> k >> s >> pad >> relu)) {
        fail("bad dwconv");
      }
      check_window(in, k, k, s, s, pad, pad, false);
      g.AddDepthwiseConv(name, in, k, s, pad, relu != 0);
    } else if (op == "fc") {
      int in = 0, relu = 0;
      int64_t out = 0;
      if (!(ls >> in >> out >> relu) || out <= 0) {
        fail("bad fc");
      }
      g.AddFullyConnected(name, check_input(in), out, relu != 0);
    } else if (op == "pool") {
      int in = 0, k = 0, s = 0, pad = 0, ceil_mode = 0;
      std::string kind;
      if (!(ls >> in >> kind >> k >> s >> pad >> ceil_mode) || (kind != "max" && kind != "avg")) {
        fail("bad pool");
      }
      check_window(in, k, k, s, s, pad, pad, ceil_mode != 0);
      g.AddPool(name, in, kind == "max" ? PoolKind::kMax : PoolKind::kAvg, k, s, pad,
                ceil_mode != 0);
    } else if (op == "gavgpool") {
      int in = 0;
      if (!(ls >> in)) {
        fail("bad gavgpool");
      }
      g.AddGlobalAvgPool(name, check_input(in));
    } else if (op == "relu") {
      int in = 0;
      if (!(ls >> in)) {
        fail("bad relu");
      }
      g.AddRelu(name, check_input(in));
    } else if (op == "lrn") {
      int in = 0;
      LrnParams p;
      if (!(ls >> in >> p.local_size >> p.alpha >> p.beta >> p.k) || p.local_size < 1) {
        fail("bad lrn");
      }
      g.AddLrn(name, check_input(in), p);
    } else if (op == "concat") {
      int count = 0;
      if (!(ls >> count) || count < 1) {
        fail("bad concat");
      }
      const std::vector<int> inputs = read_inputs(count, "concat");
      const Shape& first = g.node(inputs[0]).out_shape;
      for (int id : inputs) {
        const Shape& s = g.node(id).out_shape;
        if (s.n != first.n || s.h != first.h || s.w != first.w) {
          fail("concat inputs " + first.ToString() + " and " + s.ToString() +
               " differ outside the channel axis");
        }
      }
      g.AddConcat(name, inputs);
    } else if (op == "add") {
      int relu = 0, count = 0;
      if (!(ls >> relu >> count)) {
        fail("bad add");
      }
      if (count != 2) {
        fail("add takes exactly 2 inputs, not " + std::to_string(count));
      }
      const std::vector<int> inputs = read_inputs(count, "add");
      for (int id : inputs) {
        if (g.node(id).out_shape != g.node(inputs[0]).out_shape) {
          fail("add inputs have different shapes");
        }
      }
      g.AddEltwiseAdd(name, inputs, relu != 0);
    } else if (op == "softmax") {
      int in = 0;
      if (!(ls >> in)) {
        fail("bad softmax");
      }
      g.AddSoftmax(name, check_input(in));
    } else {
      fail("unknown op '" + op + "'");
    }
    // Channel counts (conv, fc, concat) are inferred in int64_t; bound them
    // like the spatial axes.
    const Node& added = g.node(g.size() - 1);
    if (!DimsInRange(added.out_shape)) {
      fail("output shape " + added.out_shape.ToString() + " out of range");
    }
    int64_t bytes = CheckedBytes(added.out_shape);
    if (bytes >= 0 && IsParameterized(added.desc.kind)) {
      const int64_t filter_bytes = CheckedBytes(FilterShape(g, added));
      if (filter_bytes < 0 || __builtin_add_overflow(bytes, filter_bytes, &bytes)) {
        bytes = -1;
      }
    }
    if (bytes < 0 || __builtin_add_overflow(graph_bytes, bytes, &graph_bytes)) {
      fail("element or byte count of the output or filters, or the graph's byte total, "
           "overflows int64_t");
    }
  }
  if (g.size() == 0) {
    throw ParseError("empty graph");
  }
  return g;
}

std::string PlanToText(const Plan& plan, const Graph& g) {
  std::ostringstream os;
  os << "ulayer-plan v1 for " << g.size() << " nodes\n";
  if (plan.batch > 0) {
    os << "batch " << plan.batch << "\n";
  }
  for (const Node& n : g.nodes()) {
    if (n.desc.kind == LayerKind::kInput) {
      continue;
    }
    const NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    os << "  " << n.id << " " << SafeName(n.desc.name) << " [" << LayerKindName(n.desc.kind)
       << "] ";
    switch (a.kind) {
      case StepKind::kSingle:
        os << "single " << ProcKindName(a.proc);
        break;
      case StepKind::kCooperative:
        os << "coop p=" << a.cpu_fraction;
        if (a.gpu_fraction >= 0.0) {
          os << " q=" << a.gpu_fraction;
        }
        if (a.has_explicit_slices()) {
          os << " cpu=[" << a.cpu_slice.begin << "," << a.cpu_slice.end << ") gpu=["
             << a.gpu_slice.begin << "," << a.gpu_slice.end << ")";
        }
        break;
      case StepKind::kBranch:
        os << "branch " << ProcKindName(a.proc);
        break;
    }
    os << "\n";
  }
  for (size_t i = 0; i < plan.branch_plans.size(); ++i) {
    const BranchPlan& bp = plan.branch_plans[i];
    os << "branch-group " << i << ": fork=" << bp.group.fork << " join=" << bp.group.join;
    for (size_t b = 0; b < bp.assignment.size(); ++b) {
      os << " b" << b << "->" << ProcKindName(bp.assignment[b]);
    }
    os << "\n";
  }
  return os.str();
}

Plan PlanFromText(const std::string& text, const Graph& g) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line.rfind("ulayer-plan", 0) != 0) {
    throw ParseError("missing 'ulayer-plan' header");
  }
  Plan plan;
  plan.nodes.resize(static_cast<size_t>(g.size()));
  const std::vector<BranchGroup> groups = FindBranchGroups(g);

  int line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string first;
    if (!(ls >> first) || first.empty() || first[0] == '#') {
      continue;
    }
    auto fail = [&](const std::string& why) {
      throw ParseError("line " + std::to_string(line_no) + ": " + why + ": " + line);
    };
    auto parse_proc = [&](const std::string& tok) {
      if (tok == "CPU") {
        return ProcKind::kCpu;
      }
      if (tok == "GPU") {
        return ProcKind::kGpu;
      }
      fail("bad processor '" + tok + "'");
      return ProcKind::kCpu;
    };

    if (first == "batch") {
      if (!(ls >> plan.batch) || plan.batch <= 0) {
        fail("bad batch size");
      }
      continue;
    }
    if (first == "branch-group") {
      std::string idx_tok;
      int fork = -1;
      int join = -1;
      if (!(ls >> idx_tok) ||
          !(std::istringstream(ReadKeyValue(ls, "fork")) >> fork) ||
          !(std::istringstream(ReadKeyValue(ls, "join")) >> join)) {
        fail("bad branch-group header");
      }
      BranchPlan bp;
      for (const BranchGroup& grp : groups) {
        if (grp.fork == fork && grp.join == join) {
          bp.group = grp;
          break;
        }
      }
      if (bp.group.fork < 0) {
        fail("no branch group with fork=" + std::to_string(fork) +
             " join=" + std::to_string(join) + " exists in the graph");
      }
      std::string tok;
      while (ls >> tok) {
        const size_t arrow = tok.find("->");
        if (arrow == std::string::npos) {
          fail("bad branch assignment '" + tok + "'");
        }
        bp.assignment.push_back(parse_proc(tok.substr(arrow + 2)));
      }
      plan.branch_plans.push_back(std::move(bp));
      continue;
    }

    // Node line: <id> <name> [<kind>] <step...>
    int id = -1;
    if (!(std::istringstream(first) >> id) || id < 0 || id >= g.size()) {
      fail("bad node id '" + first + "'");
    }
    std::string name;
    std::string kind;
    std::string step;
    if (!(ls >> name >> kind >> step)) {
      fail("truncated node line");
    }
    const std::string expect = "[" + std::string(LayerKindName(g.node(id).desc.kind)) + "]";
    if (kind != expect) {
      fail("layer kind " + kind + " does not match the graph's " + expect);
    }
    NodeAssignment& a = plan.nodes[static_cast<size_t>(id)];
    if (step == "single" || step == "branch") {
      std::string proc;
      if (!(ls >> proc)) {
        fail("missing processor");
      }
      a = NodeAssignment{step == "single" ? StepKind::kSingle : StepKind::kBranch,
                         parse_proc(proc), 1.0};
    } else if (step == "coop") {
      a.kind = StepKind::kCooperative;
      std::string tok;
      bool saw_p = false;
      while (ls >> tok) {
        if (tok.rfind("p=", 0) == 0) {
          a.cpu_fraction = ParseDouble(tok.substr(2), fail);
          saw_p = true;
        } else if (tok.rfind("q=", 0) == 0) {
          a.gpu_fraction = ParseDouble(tok.substr(2), fail);
        } else if (tok.rfind("cpu=", 0) == 0) {
          a.cpu_slice = ParseRange(tok.substr(4), fail);
        } else if (tok.rfind("gpu=", 0) == 0) {
          a.gpu_slice = ParseRange(tok.substr(4), fail);
        } else {
          fail("unknown coop token '" + tok + "'");
        }
      }
      if (!saw_p) {
        fail("coop step without p=");
      }
    } else {
      fail("unknown step kind '" + step + "'");
    }
  }
  return plan;
}

std::string TraceToText(const RunResult& result, const Graph& g, int columns) {
  const trace::RunTrace& rt = result.run_trace;
  if (!rt.enabled) {
    throw Error(ErrorCode::kInvalidArgument,
                "TraceToText needs a traced run (ExecConfig::trace or ULAYER_TRACE)");
  }
  std::ostringstream os;
  const double total = result.latency_us;
  os << "timeline (" << total * 1e-3 << " ms total, '#' = busy)\n";
  if (total <= 0.0 || columns < 8) {
    return os.str();
  }
  const double per_col = total / columns;
  for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
    std::string row(static_cast<size_t>(columns), '.');
    // Occupying spans partition the device's busy time (T404).
    double busy = 0.0;
    for (const trace::Span& s : rt.spans) {
      if (s.proc != proc || !trace::IsOccupying(s.kind) || s.duration_us() <= 0.0) {
        continue;
      }
      busy += s.duration_us();
      const int c0 = std::max(0, static_cast<int>(s.start_us / per_col));
      const int c1 = std::min(columns - 1, static_cast<int>(s.end_us / per_col));
      for (int c = c0; c <= c1; ++c) {
        row[static_cast<size_t>(c)] = '#';
      }
    }
    os << (proc == ProcKind::kCpu ? "CPU |" : "GPU |") << row << "| "
       << static_cast<int>(busy / total * 100.0) << "% busy\n";
  }
  // Annotate the longest kernels for orientation.
  std::vector<const trace::Span*> big;
  for (const trace::Span& s : rt.spans) {
    if (s.kind == trace::SpanKind::kKernel) {
      big.push_back(&s);
    }
  }
  std::sort(big.begin(), big.end(), [](const trace::Span* a, const trace::Span* b) {
    return a->duration_us() > b->duration_us();
  });
  const size_t show = std::min<size_t>(3, big.size());
  for (size_t i = 0; i < show; ++i) {
    const trace::Span& s = *big[i];
    os << "  top-" << i + 1 << ": " << g.node(s.node).desc.name << " on " << ProcKindName(s.proc)
       << " [" << s.start_us * 1e-3 << ", " << s.end_us * 1e-3 << "] ms\n";
  }
  return os.str();
}

}  // namespace ulayer
