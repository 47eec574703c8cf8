// Static verifiers for the structural invariants μLayer's correctness rests
// on (see DESIGN.md "Static analysis & invariants"):
//
//  - GraphVerifier: the Graph is a well-formed DAG in topological order and
//    every node's stored output shape agrees with shape inference over its
//    inputs (arity, parameter and shape checks).
//  - PlanVerifier: a Plan is executable against a Graph under an ExecConfig:
//    channel splits partition [0, C_out) exactly once with ratios summing
//    to 1 (paper Section 3.2), input-split layers (pooling, depthwise, LRN)
//    have consistent channel counts, branch groups are fully assigned with
//    one processor per branch (Section 5), and the config's dtype
//    combination is coherent (Section 4).
//  - VerifyActivationQuantization: calibrated activation quantization
//    parameters are sane — positive finite scales, zero points in [0, 255]
//    (Section 4, after Jacob et al.).
//
// Verifiers report typed diagnostics and never mutate their inputs. They are
// wired into ULayerRuntime/Executor behind ExecConfig::verify and exposed
// standalone through tools/ulayer_verify.
#pragma once

#include <vector>

#include "common/error.h"
#include "core/adapt.h"
#include "core/config.h"
#include "core/plan.h"
#include "nn/graph.h"
#include "quant/quantize.h"
#include "trace/trace.h"
#include "verify/diagnostics.h"

namespace ulayer {

// Thrown by the Runtime/Executor entry points (ExecConfig::verify) when a
// verifier pass reports errors. what() embeds the full diagnostic listing.
class VerifyError : public Error {
 public:
  VerifyError(const std::string& context, Report report);

  const Report& report() const { return report_; }

 private:
  Report report_;
};

// Throws VerifyError when `report` contains error-severity diagnostics.
void ThrowIfErrors(const std::string& context, const Report& report);

class GraphVerifier {
 public:
  explicit GraphVerifier(const Graph& graph) : graph_(graph) {}

  Report Verify() const;

 private:
  const Graph& graph_;
};

class PlanVerifier {
 public:
  PlanVerifier(const Graph& graph, const ExecConfig& config) : graph_(graph), config_(config) {}

  Report Verify(const Plan& plan) const;

 private:
  void VerifyConfig(Report& out) const;
  void VerifyBranchPlans(const Plan& plan, std::vector<int>& branch_proc, Report& out) const;
  void VerifyCooperative(const Node& node, const NodeAssignment& a, Report& out) const;

  const Graph& graph_;
  const ExecConfig& config_;
};

// Convenience wrappers.
Report VerifyGraph(const Graph& graph);
Report VerifyPlan(const Graph& graph, const Plan& plan, const ExecConfig& config);

// Checks an ExecConfig in isolation: dtype coherence (C201/C202), that the
// storage/compute combination is one the kernels implement (C203), thread
// and fault-recovery knob domains (C204/C205). Run by the Runtime and
// Executor constructors so a bad config fails at build time, not mid-run;
// also folded into PlanVerifier::Verify.
Report VerifyExecConfig(const ExecConfig& config);

// Checks one (scale, zero_point) pair; appends diagnostics to `out`.
// `what` names the tensor being checked (e.g. "activation", "filter").
void CheckQuantParams(const QuantParams& qp, int node, const char* what, Report& out);

// Checks per-node activation quantization parameters (indexed by node id,
// as produced by PreparedModel calibration).
Report VerifyActivationQuantization(const Graph& graph, const std::vector<QuantParams>& act);

// Q303: the QUInt8 conv/FC kernels sum k = C_in * KH * KW products of 8-bit
// operands in int32, exact only while k <= INT32_MAX / 255^2 = 33,025. Flags
// every conv/FC node past the bound when the config computes in QUInt8 on
// either processor; fault fallback can move any step onto the CPU kernel, so
// the verdict does not depend on the plan. ULayerRuntime checks it at every
// plan install (the per-Run plan verification does not repeat it).
Report VerifyAccumulatorBounds(const Graph& graph, const ExecConfig& config);

// The exact number of CPU-GPU synchronizations the executor will charge when
// running `plan` (dependency syncs plus one merge sync per cooperative
// step). Mirrors Executor::Run's accounting so tests can cross-check
// RunResult::sync_count against the plan's structure.
int ExpectedSyncCount(const Graph& graph, const Plan& plan, const ExecConfig& config);

// Trace-invariant verifier (DESIGN.md Section 11, T4xx codes): on one device
// occupying spans never overlap and their durations sum to the reported busy
// time, sync spans agree with RunResult::sync_count, every span is
// well-formed, and — fault-free — each kernel span matches its timing-model
// prediction to 1e-9 relative tolerance. The trace must carry its run-level
// ground truth (RunTrace::{cpu,gpu}_busy_us / sync_count), which the
// executor fills in at the end of every traced run.
Report VerifyRunTrace(const trace::RunTrace& rt);

// --- Adaptation-loop invariants (DESIGN.md Section 16, H9xx codes) -----------

// H901: every correction factor is finite, positive, and inside the
// [CorrectionTable::kMinScale, kMaxScale] sanity band. The table's own
// setters clamp, so a violation means corrupted state (e.g. a bad Restore).
Report VerifyCorrectionTable(const CorrectionTable& table);

// H902: every cached plan is coherent with the health key it is stored
// under — a gpu_available=false key holds a plan with no GPU or cooperative
// work, every plan passes PlanVerifier against (graph, config), and no key
// appears twice.
Report VerifyPlanCache(const Graph& graph, const PlanCache& cache, const ExecConfig& config);

// H903: the per-run drift-deviation series of a stationary scenario (e.g.
// the committed throttle ramp) is monotonically non-increasing within
// `slack` and ends at or below `tolerance` — the EWMA correction loop must
// converge, not oscillate.
Report VerifyDriftConvergence(const std::vector<double>& deviations, double tolerance,
                              double slack = 1e-9);

}  // namespace ulayer
