#include "io/io.h"

#include <algorithm>
#include <sstream>

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
    if (op == "input") {
      Shape s;
      if (!(ls >> s.n >> s.c >> s.h >> s.w) || !s.IsValid()) {
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
      p.relu = relu != 0;
      g.AddConv2D(name, check_input(in), oc, p);
    } else if (op == "dwconv") {
      int in = 0, k = 0, s = 0, pad = 0, relu = 0;
      if (!(ls >> in >> k >> s >> pad >> relu)) {
        fail("bad dwconv");
      }
      g.AddDepthwiseConv(name, check_input(in), k, s, pad, relu != 0);
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
      g.AddPool(name, check_input(in), kind == "max" ? PoolKind::kMax : PoolKind::kAvg, k, s, pad,
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
      if (!(ls >> in >> p.local_size >> p.alpha >> p.beta >> p.k)) {
        fail("bad lrn");
      }
      g.AddLrn(name, check_input(in), p);
    } else if (op == "concat") {
      int count = 0;
      if (!(ls >> count) || count < 1) {
        fail("bad concat");
      }
      std::vector<int> inputs(static_cast<size_t>(count));
      for (int& id : inputs) {
        if (!(ls >> id)) {
          fail("bad concat inputs");
        }
        check_input(id);
      }
      g.AddConcat(name, inputs);
    } else if (op == "add") {
      int relu = 0, count = 0;
      if (!(ls >> relu >> count) || count < 2) {
        fail("bad add");
      }
      std::vector<int> inputs(static_cast<size_t>(count));
      for (int& id : inputs) {
        if (!(ls >> id)) {
          fail("bad add inputs");
        }
        check_input(id);
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
