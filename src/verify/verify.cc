#include "verify/verify.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>

namespace ulayer {
namespace {

// branch_proc markers: node not claimed by any branch plan / claimed by a
// branch that has no processor assignment.
constexpr int kUnclaimed = -1;
constexpr int kUnassigned = -2;

// Mirrors the partitioner's notion of channel-splittable layers
// (Section 3.2): everything except graph inputs, concat (pure memory
// movement over heterogeneous producers) and softmax (whole-vector op).
bool Splittable(LayerKind k) {
  switch (k) {
    case LayerKind::kConv:
    case LayerKind::kDepthwiseConv:
    case LayerKind::kFullyConnected:
    case LayerKind::kPool:
    case LayerKind::kGlobalAvgPool:
    case LayerKind::kRelu:
    case LayerKind::kLrn:
    case LayerKind::kEltwiseAdd:
      return true;
    case LayerKind::kInput:
    case LayerKind::kConcat:
    case LayerKind::kSoftmax:
      return false;
  }
  return false;
}

// Layers whose output-channel split induces the same split of their *input*
// channels (the paper's pooling rule, Section 3.2): each output channel c is
// computed from input channel c only, so in/out channel counts must match.
bool InputSplit(LayerKind k) {
  switch (k) {
    case LayerKind::kDepthwiseConv:
    case LayerKind::kPool:
    case LayerKind::kGlobalAvgPool:
    case LayerKind::kRelu:
    case LayerKind::kLrn:
    case LayerKind::kEltwiseAdd:
      return true;
    default:
      return false;
  }
}

// Expected input arity per layer kind: {min, max} with max < 0 = unbounded.
std::pair<int, int> ExpectedArity(LayerKind k) {
  switch (k) {
    case LayerKind::kInput:
      return {0, 0};
    case LayerKind::kConcat:
      return {1, -1};
    case LayerKind::kEltwiseAdd:
      return {2, -1};
    default:
      return {1, 1};
  }
}

bool ConvParamsValid(const Conv2DParams& p) {
  return p.kernel_h >= 1 && p.kernel_w >= 1 && p.stride_h >= 1 && p.stride_w >= 1 &&
         p.pad_h >= 0 && p.pad_w >= 0;
}

bool PoolParamsValid(const Pool2DParams& p) {
  return p.kernel_h >= 1 && p.kernel_w >= 1 && p.stride_h >= 1 && p.stride_w >= 1 &&
         p.pad_h >= 0 && p.pad_w >= 0;
}

// Recomputes the node's output shape from its inputs' stored shapes.
// Returns nullopt when the shape is not recomputable (bad params / arity),
// in which case a more specific diagnostic has already been emitted.
std::optional<Shape> InferOutShape(const Graph& g, const Node& n, Report& out) {
  const LayerDesc& d = n.desc;
  switch (d.kind) {
    case LayerKind::kInput:
      return n.out_shape;  // Inputs carry their own shape.
    case LayerKind::kConv:
    case LayerKind::kFullyConnected: {
      const Shape& in = g.node(n.inputs[0]).out_shape;
      return Shape(in.n, d.out_channels, d.conv.OutH(static_cast<int>(in.h)),
                   d.conv.OutW(static_cast<int>(in.w)));
    }
    case LayerKind::kDepthwiseConv: {
      const Shape& in = g.node(n.inputs[0]).out_shape;
      return Shape(in.n, in.c, d.conv.OutH(static_cast<int>(in.h)),
                   d.conv.OutW(static_cast<int>(in.w)));
    }
    case LayerKind::kPool: {
      const Shape& in = g.node(n.inputs[0]).out_shape;
      return Shape(in.n, in.c, d.pool.OutH(static_cast<int>(in.h)),
                   d.pool.OutW(static_cast<int>(in.w)));
    }
    case LayerKind::kGlobalAvgPool: {
      const Shape& in = g.node(n.inputs[0]).out_shape;
      return Shape(in.n, in.c, 1, 1);
    }
    case LayerKind::kRelu:
    case LayerKind::kLrn:
    case LayerKind::kSoftmax:
      return g.node(n.inputs[0]).out_shape;
    case LayerKind::kConcat: {
      Shape s = g.node(n.inputs[0]).out_shape;
      for (size_t i = 1; i < n.inputs.size(); ++i) {
        const Shape& o = g.node(n.inputs[i]).out_shape;
        if (o.n != s.n || o.h != s.h || o.w != s.w) {
          std::ostringstream os;
          os << "concat input " << n.inputs[i] << " shape " << o.ToString()
             << " disagrees with " << s.ToString() << " in n/h/w";
          out.Error(DiagCode::kConcatShapeMismatch, n.id, os.str());
          return std::nullopt;
        }
        s.c += o.c;
      }
      return s;
    }
    case LayerKind::kEltwiseAdd: {
      const Shape& s = g.node(n.inputs[0]).out_shape;
      for (int in : n.inputs) {
        if (g.node(in).out_shape != s) {
          std::ostringstream os;
          os << "eltwise-add input " << in << " shape " << g.node(in).out_shape.ToString()
             << " != " << s.ToString();
          out.Error(DiagCode::kEltwiseShapeMismatch, n.id, os.str());
          return std::nullopt;
        }
      }
      return s;
    }
  }
  return std::nullopt;
}

std::string RangeStr(const ChannelRange& r) {
  std::ostringstream os;
  os << "[" << r.begin << "," << r.end << ")";
  return os.str();
}

}  // namespace

VerifyError::VerifyError(const std::string& context, Report report)
    : Error(ErrorCode::kVerify, context + ":\n" + report.ToString()),
      report_(std::move(report)) {}

void ThrowIfErrors(const std::string& context, const Report& report) {
  if (!report.ok()) {
    throw VerifyError(context, report);
  }
}

Report GraphVerifier::Verify() const {
  Report out;
  const Graph& g = graph_;
  if (g.size() == 0) {
    out.Error(DiagCode::kGraphEmpty, -1, "graph has no nodes");
    return out;
  }
  if (g.node(0).desc.kind != LayerKind::kInput) {
    out.Error(DiagCode::kGraphNoInput, 0, "first node must be an input layer");
  }
  for (int i = 0; i < g.size(); ++i) {
    const Node& n = g.node(i);
    const LayerDesc& d = n.desc;
    if (n.id != i) {
      std::ostringstream os;
      os << "node at index " << i << " carries id " << n.id;
      out.Error(DiagCode::kNodeIdMismatch, i, os.str());
      continue;  // Downstream checks key on ids; skip them for this node.
    }

    // Edges must point at existing earlier nodes (topological append order).
    bool edges_ok = true;
    for (int in : n.inputs) {
      if (in < 0 || in >= i) {
        std::ostringstream os;
        os << "input edge " << in << " out of range [0," << i << ")";
        out.Error(DiagCode::kEdgeOutOfRange, i, os.str());
        edges_ok = false;
      }
    }

    const auto [min_arity, max_arity] = ExpectedArity(d.kind);
    const int arity = static_cast<int>(n.inputs.size());
    if (arity < min_arity || (max_arity >= 0 && arity > max_arity)) {
      std::ostringstream os;
      os << LayerKindName(d.kind) << " has " << arity << " inputs, expected "
         << (max_arity == min_arity ? std::to_string(min_arity)
                                    : ">= " + std::to_string(min_arity));
      out.Error(DiagCode::kBadArity, i, os.str());
      edges_ok = false;
    }

    if (!n.out_shape.IsValid()) {
      out.Error(DiagCode::kInvalidShape, i, "output shape " + n.out_shape.ToString());
    }

    // Layer-parameter sanity; bad parameters also make shape inference
    // meaningless, so skip it for this node.
    bool params_ok = true;
    switch (d.kind) {
      case LayerKind::kConv:
      case LayerKind::kFullyConnected:
        params_ok = ConvParamsValid(d.conv) && d.out_channels >= 1;
        break;
      case LayerKind::kDepthwiseConv:
        params_ok = ConvParamsValid(d.conv);
        break;
      case LayerKind::kPool:
        params_ok = PoolParamsValid(d.pool);
        break;
      case LayerKind::kLrn:
        params_ok = d.lrn.local_size >= 1;
        break;
      default:
        break;
    }
    if (!params_ok) {
      out.Error(DiagCode::kBadLayerParams, i,
                std::string(LayerKindName(d.kind)) + " has invalid kernel/stride/channel params");
    }

    if (!edges_ok || !params_ok) {
      continue;
    }
    const std::optional<Shape> inferred = InferOutShape(g, n, out);
    if (inferred.has_value() && *inferred != n.out_shape) {
      std::ostringstream os;
      os << "stored shape " << n.out_shape.ToString() << " != inferred "
         << inferred->ToString();
      out.Error(DiagCode::kShapeMismatch, i, os.str());
    }
  }
  return out;
}

void PlanVerifier::VerifyConfig(Report& out) const { out.Merge(VerifyExecConfig(config_)); }

Report VerifyExecConfig(const ExecConfig& config) {
  Report out;
  const auto bad_dtype = [](DType t) { return t == DType::kInt32; };
  if (bad_dtype(config.storage) || bad_dtype(config.cpu_compute) ||
      bad_dtype(config.gpu_compute)) {
    out.Error(DiagCode::kConfigBadDType, -1,
              "kInt32 is an accumulator type, not a storage/compute dtype");
  }
  if (config.storage != DType::kQUInt8 &&
      (config.cpu_compute == DType::kQUInt8 || config.gpu_compute == DType::kQUInt8)) {
    out.Error(DiagCode::kConfigQu8OnFloat, -1,
              "QUInt8 compute requires QUInt8 storage (no quantization params otherwise)");
  }
  // The kernels implement exactly these storage -> compute combinations:
  // float storage computes in its own precision; QUInt8 storage computes in
  // integer math (CPU path) or on-the-fly F16 (GPU path, Section 4.2).
  const auto implemented = [&](DType compute) {
    switch (config.storage) {
      case DType::kF32:
        return compute == DType::kF32;
      case DType::kF16:
        return compute == DType::kF16;
      case DType::kQUInt8:
        return compute == DType::kQUInt8 || compute == DType::kF16;
      case DType::kInt32:
        return false;  // Already rejected as C201.
    }
    return false;
  };
  for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
    const DType compute = config.ComputeFor(proc);
    if (!bad_dtype(config.storage) && !bad_dtype(compute) && !implemented(compute)) {
      std::ostringstream os;
      os << "no " << (proc == ProcKind::kCpu ? "cpu" : "gpu") << " kernel computes "
         << DTypeName(compute) << " over " << DTypeName(config.storage) << " storage";
      out.Error(DiagCode::kConfigUnimplementedCompute, -1, os.str());
    }
  }
  if (config.cpu_threads < 0) {
    out.Error(DiagCode::kConfigNegativeThreads, -1,
              "cpu_threads must be >= 0 (0 = automatic), got " +
                  std::to_string(config.cpu_threads));
  }
  if (config.fault_max_retries < 0) {
    out.Error(DiagCode::kConfigBadFaultPolicy, -1,
              "fault_max_retries must be >= 0, got " +
                  std::to_string(config.fault_max_retries));
  }
  if (!std::isfinite(config.fault_backoff_us) || config.fault_backoff_us < 0.0) {
    out.Error(DiagCode::kConfigBadFaultPolicy, -1,
              "fault_backoff_us must be finite and >= 0");
  }
  return out;
}

void PlanVerifier::VerifyBranchPlans(const Plan& plan, std::vector<int>& branch_proc,
                                     Report& out) const {
  const Graph& g = graph_;
  for (size_t bi = 0; bi < plan.branch_plans.size(); ++bi) {
    const BranchPlan& bp = plan.branch_plans[bi];
    const BranchGroup& grp = bp.group;
    std::ostringstream tag;
    tag << "branch group " << bi << " (fork=" << grp.fork << " join=" << grp.join << ")";
    if (grp.fork < 0 || grp.fork >= g.size() || grp.join <= grp.fork || grp.join >= g.size() ||
        grp.branches.empty()) {
      out.Error(DiagCode::kBranchGroupInvalid, grp.fork, tag.str() + " is malformed");
      continue;
    }
    if (bp.assignment.size() != grp.branches.size()) {
      std::ostringstream os;
      os << tag.str() << " assigns " << bp.assignment.size() << " of " << grp.branches.size()
         << " branches (every branch needs exactly one processor, Section 5)";
      out.Error(DiagCode::kBranchAssignmentMissing, grp.fork, os.str());
    }
    for (size_t b = 0; b < grp.branches.size(); ++b) {
      if (grp.branches[b].empty()) {
        out.Error(DiagCode::kBranchGroupInvalid, grp.fork,
                  tag.str() + " branch " + std::to_string(b) + " is empty");
        continue;
      }
      for (int id : grp.branches[b]) {
        if (id <= grp.fork || id >= grp.join) {
          std::ostringstream os;
          os << tag.str() << " branch node " << id << " outside (fork, join)";
          out.Error(DiagCode::kBranchGroupInvalid, id, os.str());
          continue;
        }
        if (branch_proc[static_cast<size_t>(id)] != kUnclaimed) {
          out.Error(DiagCode::kBranchGroupOverlap, id,
                    tag.str() + " claims a node already claimed by another branch");
          continue;
        }
        branch_proc[static_cast<size_t>(id)] =
            b < bp.assignment.size() ? static_cast<int>(bp.assignment[b]) : kUnassigned;
      }
    }
  }
}

void PlanVerifier::VerifyCooperative(const Node& node, const NodeAssignment& a,
                                     Report& out) const {
  if (!Splittable(node.desc.kind)) {
    out.Error(DiagCode::kCoopNotSplittable, node.id,
              std::string(LayerKindName(node.desc.kind)) + " layers cannot be channel-split");
    return;
  }

  const double p = a.cpu_fraction;
  const double q = a.GpuFraction();
  bool fractions_ok = true;
  for (const double f : {p, q}) {
    if (!std::isfinite(f) || f < 0.0 || f > 1.0) {
      std::ostringstream os;
      os << "split fraction " << f << " outside [0, 1]";
      out.Error(DiagCode::kBadSplitFraction, node.id, os.str());
      fractions_ok = false;
    }
  }
  if (fractions_ok && std::abs(p + q - 1.0) > 1e-6) {
    std::ostringstream os;
    os << "CPU:GPU ratios " << p << " + " << q << " = " << p + q
       << " do not sum to 1 (Section 3.2)";
    out.Error(DiagCode::kSplitRatioNotUnity, node.id, os.str());
  }

  const int64_t channels = node.out_shape.c;
  const ResolvedSplit s = ResolveSplit(a, channels);
  bool slices_ok = true;
  for (const auto& [name, r] : {std::pair<const char*, const ChannelRange&>{"CPU", s.cpu},
                                {"GPU", s.gpu}}) {
    if (!r.empty() && (r.begin < 0 || r.end > channels)) {
      std::ostringstream os;
      os << name << " slice " << RangeStr(r) << " outside [0," << channels << ")";
      out.Error(DiagCode::kSliceOutOfRange, node.id, os.str());
      slices_ok = false;
    }
  }
  if (!s.cpu.empty() && !s.gpu.empty() && s.cpu.begin < s.gpu.end && s.gpu.begin < s.cpu.end) {
    std::ostringstream os;
    os << "CPU slice " << RangeStr(s.cpu) << " overlaps GPU slice " << RangeStr(s.gpu)
       << " (channels must be computed exactly once, Section 3.2)";
    out.Error(DiagCode::kSliceOverlap, node.id, os.str());
    slices_ok = false;
  }
  if (slices_ok) {
    const int64_t covered = std::max<int64_t>(s.cpu.size(), 0) + std::max<int64_t>(s.gpu.size(), 0);
    const int64_t lo = std::min(s.cpu.empty() ? channels : s.cpu.begin,
                                s.gpu.empty() ? channels : s.gpu.begin);
    const int64_t hi = std::max(s.cpu.empty() ? 0 : s.cpu.end, s.gpu.empty() ? 0 : s.gpu.end);
    if (covered != channels || lo != 0 || hi != channels) {
      std::ostringstream os;
      os << "slices " << RangeStr(s.cpu) << " + " << RangeStr(s.gpu) << " do not cover [0,"
         << channels << ") exactly";
      out.Error(DiagCode::kSliceGap, node.id, os.str());
    } else if (s.cpu.empty() || s.gpu.empty()) {
      out.Warn(DiagCode::kDegenerateSplit, node.id,
               "one processor's channel slice is empty; the executor degrades this "
               "cooperative step to a single-processor step");
    }
  }

  if (InputSplit(node.desc.kind)) {
    for (int in : node.inputs) {
      if (in >= 0 && in < graph_.size() && graph_.node(in).out_shape.c != channels) {
        std::ostringstream os;
        os << "input-split layer has " << graph_.node(in).out_shape.c
           << " input channels but " << channels
           << " output channels; the split cannot be mirrored onto the input (Section 3.2)";
        out.Error(DiagCode::kCoopInputChannelMismatch, node.id, os.str());
      }
    }
  }
}

Report PlanVerifier::Verify(const Plan& plan) const {
  Report out;
  VerifyConfig(out);
  const Graph& g = graph_;
  if (plan.nodes.size() != static_cast<size_t>(g.size())) {
    std::ostringstream os;
    os << "plan has " << plan.nodes.size() << " node assignments for a graph of " << g.size();
    out.Error(DiagCode::kPlanSizeMismatch, -1, os.str());
    return out;  // Per-node indexing below would be unsafe.
  }
  if (plan.batch > 0 && plan.batch != g.BatchSize()) {
    std::ostringstream os;
    os << "plan was built for batch " << plan.batch << " but the graph's input batch is "
       << g.BatchSize() << "; split ratios priced at one N are invalid at another";
    out.Error(DiagCode::kPlanBatchMismatch, -1, os.str());
  }

  // Which processor each node was claimed for by a branch plan.
  std::vector<int> branch_proc(static_cast<size_t>(g.size()), kUnclaimed);
  VerifyBranchPlans(plan, branch_proc, out);

  for (const Node& n : g.nodes()) {
    if (n.desc.kind == LayerKind::kInput) {
      continue;  // The executor ignores input-node assignments.
    }
    const NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    const int claimed = branch_proc[static_cast<size_t>(n.id)];
    if (claimed >= 0 &&
        (a.kind != StepKind::kBranch || static_cast<int>(a.proc) != claimed)) {
      out.Error(DiagCode::kBranchNodeNotMarked, n.id,
                "node belongs to an assigned branch but is not planned as a branch step on "
                "that branch's processor");
    }
    if (a.kind == StepKind::kBranch && claimed == kUnclaimed) {
      // Executes like a single-processor step; flagged because the branch
      // table no longer accounts for it.
      out.Warn(DiagCode::kBranchStepOutsideGroup, n.id,
               "branch step is not covered by any branch plan");
    }
    if (a.kind == StepKind::kCooperative) {
      VerifyCooperative(n, a, out);
    }
  }
  return out;
}

Report VerifyGraph(const Graph& graph) { return GraphVerifier(graph).Verify(); }

Report VerifyPlan(const Graph& graph, const Plan& plan, const ExecConfig& config) {
  return PlanVerifier(graph, config).Verify(plan);
}

void CheckQuantParams(const QuantParams& qp, int node, const char* what, Report& out) {
  if (!std::isfinite(qp.scale) || qp.scale <= 0.0f) {
    std::ostringstream os;
    os << what << " scale " << qp.scale << " must be positive and finite (Section 4)";
    out.Error(DiagCode::kQuantScaleInvalid, node, os.str());
  }
  if (qp.zero_point < 0 || qp.zero_point > 255) {
    std::ostringstream os;
    os << what << " zero point " << qp.zero_point << " outside [0, 255]";
    out.Error(DiagCode::kQuantZeroPointRange, node, os.str());
  }
}

Report VerifyActivationQuantization(const Graph& graph, const std::vector<QuantParams>& act) {
  Report out;
  const size_t n = std::min(act.size(), static_cast<size_t>(graph.size()));
  for (size_t i = 0; i < n; ++i) {
    CheckQuantParams(act[i], static_cast<int>(i), "activation", out);
  }
  return out;
}

Report VerifyAccumulatorBounds(const Graph& graph, const ExecConfig& config) {
  Report out;
  if (config.storage != DType::kQUInt8 ||
      (config.cpu_compute != DType::kQUInt8 && config.gpu_compute != DType::kQUInt8)) {
    return out;  // No integer kernel runs.
  }
  constexpr int64_t kMaxK = INT32_MAX / (255 * 255);
  for (const Node& n : graph.nodes()) {
    if ((n.desc.kind != LayerKind::kConv && n.desc.kind != LayerKind::kFullyConnected) ||
        n.inputs.empty() || n.inputs[0] < 0 || n.inputs[0] >= graph.size()) {
      continue;
    }
    const int64_t k = graph.node(n.inputs[0]).out_shape.c * n.desc.conv.kernel_h *
                      n.desc.conv.kernel_w;
    if (k > kMaxK) {
      std::ostringstream os;
      os << "QUInt8 reduction length k = " << k << " exceeds the int32 accumulator bound "
         << kMaxK << " (INT32_MAX / 255^2)";
      out.Error(DiagCode::kQuantAccumulatorBound, n.id, os.str());
    }
  }
  return out;
}

int ExpectedSyncCount(const Graph& graph, const Plan& plan, const ExecConfig& config) {
  (void)config;  // Sync accounting is independent of zero-copy/async settings.
  struct Avail {
    bool cpu = false;
    bool gpu = false;
  };
  std::vector<Avail> avail(static_cast<size_t>(graph.size()));
  int syncs = 0;
  for (const Node& n : graph.nodes()) {
    if (n.desc.kind == LayerKind::kInput) {
      avail[static_cast<size_t>(n.id)] = {true, true};  // Zero-copy input buffer.
      continue;
    }
    const NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    const ResolvedSplit s = ResolveSplit(a, n.out_shape.c);
    const bool coop = a.kind == StepKind::kCooperative && !s.cpu.empty() && !s.gpu.empty();
    bool on_cpu;
    bool on_gpu;
    if (coop) {
      on_cpu = on_gpu = true;
    } else {
      const ProcKind proc = a.kind == StepKind::kCooperative
                                ? (s.gpu.empty() ? ProcKind::kCpu : ProcKind::kGpu)
                                : a.proc;
      on_cpu = proc == ProcKind::kCpu;
      on_gpu = !on_cpu;
    }
    for (int in : n.inputs) {
      const Avail& d = avail[static_cast<size_t>(in)];
      if ((on_cpu && !d.cpu) || (on_gpu && !d.gpu)) {
        ++syncs;
      }
    }
    if (coop) {
      ++syncs;  // The merge synchronization after the split slices join.
      avail[static_cast<size_t>(n.id)] = {true, true};
    } else {
      avail[static_cast<size_t>(n.id)] = {on_cpu, on_gpu};
    }
  }
  return syncs;
}

Report VerifyRunTrace(const trace::RunTrace& rt) {
  Report out;
  if (!rt.enabled) {
    out.Error(DiagCode::kTraceNotEnabled, -1,
              "run trace was not recorded (enable ExecConfig::trace or ULAYER_TRACE)");
    return out;
  }
  // Durations accumulate once per Schedule call while span sums accumulate
  // (start + dur) - start, which can differ by round-off; every comparison
  // below therefore carries a 1e-9 relative tolerance.
  const auto rel_close = [](double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max({std::abs(a), std::abs(b), 1.0});
  };

  double busy_sum[2] = {0.0, 0.0};
  int sync_spans = 0;
  // The executor emits spans in issue order; per device that order is also
  // time order (the simulated queues are in-order), so the overlap check is
  // one pass over the previous occupying end time per device.
  double prev_end[2] = {0.0, 0.0};
  const bool fault_free = rt.fault_events.empty() && rt.slowdowns == 0;
  for (size_t i = 0; i < rt.spans.size(); ++i) {
    const trace::Span& sp = rt.spans[i];
    const int d = sp.proc == ProcKind::kCpu ? 0 : 1;
    std::ostringstream at;
    at << trace::SpanKindName(sp.kind) << " span #" << i << " ["
       << sp.start_us << ", " << sp.end_us << ")";
    if (!(sp.end_us >= sp.start_us) || sp.start_us < 0.0 || !std::isfinite(sp.end_us) ||
        sp.bytes < 0.0 || sp.macs < 0.0 || sp.overhead_us < 0.0 ||
        (sp.kind == trace::SpanKind::kKernel && sp.c_end >= 0 && sp.c_begin > sp.c_end)) {
      out.Error(DiagCode::kTraceSpanInvalid, sp.node, at.str() + " is malformed");
      continue;
    }
    if (sp.kind == trace::SpanKind::kSync) {
      ++sync_spans;
    }
    if (!trace::IsOccupying(sp.kind)) {
      continue;
    }
    // Zero-width spans (fail-fast attempts) anchor at the request time, not
    // the device-queue time: they occupy nothing and cannot overlap.
    if (sp.duration_us() == 0.0) {
      continue;
    }
    if (sp.start_us < prev_end[d] && !rel_close(sp.start_us, prev_end[d])) {
      std::ostringstream os;
      os << at.str() << " overlaps the previous "
         << (d == 0 ? "cpu" : "gpu") << " span ending at " << prev_end[d];
      out.Error(DiagCode::kTraceOverlap, sp.node, os.str());
    }
    prev_end[d] = std::max(prev_end[d], sp.end_us);
    busy_sum[d] += sp.duration_us();
    if (fault_free && sp.kind == trace::SpanKind::kKernel && sp.predicted_us > 0.0 &&
        !rel_close(sp.duration_us(), sp.predicted_us)) {
      std::ostringstream os;
      os << at.str() << " ran " << sp.duration_us() << "us against a fault-free prediction of "
         << sp.predicted_us << "us (ratio " << sp.duration_us() / sp.predicted_us << ")";
      out.Error(DiagCode::kTraceDrift, sp.node, os.str());
    }
  }
  for (int d = 0; d < 2; ++d) {
    const double reported = d == 0 ? rt.cpu_busy_us : rt.gpu_busy_us;
    if (!rel_close(busy_sum[d], reported)) {
      std::ostringstream os;
      os << (d == 0 ? "cpu" : "gpu") << " occupying spans sum to " << busy_sum[d]
         << "us but the run reported " << reported << "us busy";
      out.Error(DiagCode::kTraceBusyMismatch, -1, os.str());
    }
  }
  if (sync_spans != rt.sync_count) {
    std::ostringstream os;
    os << "trace has " << sync_spans << " sync spans but the run reported " << rt.sync_count
       << " syncs";
    out.Error(DiagCode::kTraceSyncMismatch, -1, os.str());
  }
  return out;
}

Report VerifyCorrectionTable(const CorrectionTable& table) {
  Report out;
  for (int kind = 0; kind < kLayerKindCount; ++kind) {
    for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
      const double scale = table.Get(static_cast<LayerKind>(kind), proc);
      if (std::isfinite(scale) && scale >= CorrectionTable::kMinScale &&
          scale <= CorrectionTable::kMaxScale) {
        continue;
      }
      std::ostringstream os;
      os << "correction " << LayerKindName(static_cast<LayerKind>(kind)) << "/"
         << ProcKindName(proc) << " = " << scale << " outside [" << CorrectionTable::kMinScale
         << ", " << CorrectionTable::kMaxScale << "]";
      out.Error(DiagCode::kAdaptCorrectionInvalid, -1, os.str());
    }
  }
  return out;
}

Report VerifyPlanCache(const Graph& graph, const PlanCache& cache, const ExecConfig& config) {
  Report out;
  const auto& entries = cache.entries();
  for (size_t i = 0; i < entries.size(); ++i) {
    const PlanCache::Entry& e = entries[i];
    for (size_t j = i + 1; j < entries.size(); ++j) {
      if (entries[j].key == e.key) {
        out.Error(DiagCode::kAdaptCacheIncoherent, -1,
                  "duplicate cache key {" + e.key.ToString() + "}");
      }
    }
    const Report plan_report = VerifyPlan(graph, e.plan, config);
    if (!plan_report.ok()) {
      out.Error(DiagCode::kAdaptCacheIncoherent, -1,
                "cached plan for {" + e.key.ToString() +
                    "} fails plan verification: " + plan_report.ToString());
    }
    if (!e.key.gpu_available) {
      for (size_t n = 0; n < e.plan.nodes.size(); ++n) {
        const NodeAssignment& a = e.plan.nodes[n];
        if (a.kind == StepKind::kCooperative || a.proc == ProcKind::kGpu) {
          std::ostringstream os;
          os << "plan cached under {" << e.key.ToString() << "} schedules GPU work";
          out.Error(DiagCode::kAdaptCacheIncoherent, static_cast<int>(n), os.str());
          break;
        }
      }
    }
  }
  return out;
}

Report VerifyDriftConvergence(const std::vector<double>& deviations, double tolerance,
                              double slack) {
  Report out;
  for (size_t i = 1; i < deviations.size(); ++i) {
    if (deviations[i] > deviations[i - 1] + slack) {
      std::ostringstream os;
      os << "drift deviation rose from " << deviations[i - 1] << " (run " << i - 1 << ") to "
         << deviations[i] << " (run " << i << ")";
      out.Error(DiagCode::kAdaptNotConverging, -1, os.str());
    }
  }
  if (!deviations.empty() && deviations.back() > tolerance) {
    std::ostringstream os;
    os << "final drift deviation " << deviations.back() << " exceeds tolerance " << tolerance;
    out.Error(DiagCode::kAdaptNotConverging, -1, os.str());
  }
  return out;
}

}  // namespace ulayer
