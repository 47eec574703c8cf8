#include "verify/diagnostics.h"

#include <sstream>

namespace ulayer {

std::string DiagCodeId(DiagCode code) {
  // The numeric value doubles as the printed id: G004, P106, C201, Q301.
  // Keeping the group offset visible makes codes greppable and stable even
  // if groups grow past ten entries.
  const auto v = static_cast<uint16_t>(code);
  const char prefix = v < 100   ? 'G'
                      : v < 200 ? 'P'
                      : v < 300 ? 'C'
                      : v < 400 ? 'Q'
                      : v < 500 ? 'T'
                      : v < 800 ? 'A'
                                : 'H';
  std::ostringstream os;
  os << prefix;
  if (v < 10) {
    os << "00";
  } else if (v < 100) {
    os << "0";
  }
  os << v;
  return os.str();
}

std::string_view DiagCodeName(DiagCode code) {
  switch (code) {
    case DiagCode::kGraphEmpty:
      return "graph-empty";
    case DiagCode::kGraphNoInput:
      return "graph-no-input";
    case DiagCode::kNodeIdMismatch:
      return "node-id-mismatch";
    case DiagCode::kEdgeOutOfRange:
      return "edge-out-of-range";
    case DiagCode::kBadArity:
      return "bad-arity";
    case DiagCode::kInvalidShape:
      return "invalid-shape";
    case DiagCode::kShapeMismatch:
      return "shape-mismatch";
    case DiagCode::kBadLayerParams:
      return "bad-layer-params";
    case DiagCode::kEltwiseShapeMismatch:
      return "eltwise-shape-mismatch";
    case DiagCode::kConcatShapeMismatch:
      return "concat-shape-mismatch";
    case DiagCode::kPlanSizeMismatch:
      return "plan-size-mismatch";
    case DiagCode::kBadSplitFraction:
      return "bad-split-fraction";
    case DiagCode::kSplitRatioNotUnity:
      return "split-ratio-not-unity";
    case DiagCode::kCoopNotSplittable:
      return "coop-not-splittable";
    case DiagCode::kSliceOutOfRange:
      return "slice-out-of-range";
    case DiagCode::kSliceOverlap:
      return "slice-overlap";
    case DiagCode::kSliceGap:
      return "slice-gap";
    case DiagCode::kDegenerateSplit:
      return "degenerate-split";
    case DiagCode::kCoopInputChannelMismatch:
      return "coop-input-channel-mismatch";
    case DiagCode::kBranchAssignmentMissing:
      return "branch-assignment-missing";
    case DiagCode::kBranchNodeNotMarked:
      return "branch-node-not-marked";
    case DiagCode::kBranchStepOutsideGroup:
      return "branch-step-outside-group";
    case DiagCode::kBranchGroupInvalid:
      return "branch-group-invalid";
    case DiagCode::kBranchGroupOverlap:
      return "branch-group-overlap";
    case DiagCode::kPlanBatchMismatch:
      return "plan-batch-mismatch";
    case DiagCode::kConfigBadDType:
      return "config-bad-dtype";
    case DiagCode::kConfigQu8OnFloat:
      return "config-qu8-on-float-storage";
    case DiagCode::kConfigUnimplementedCompute:
      return "config-unimplemented-compute";
    case DiagCode::kConfigNegativeThreads:
      return "config-negative-threads";
    case DiagCode::kConfigBadFaultPolicy:
      return "config-bad-fault-policy";
    case DiagCode::kQuantScaleInvalid:
      return "quant-scale-invalid";
    case DiagCode::kQuantZeroPointRange:
      return "quant-zero-point-range";
    case DiagCode::kQuantAccumulatorBound:
      return "quant-accumulator-bound";
    case DiagCode::kTraceNotEnabled:
      return "trace-not-enabled";
    case DiagCode::kTraceSpanInvalid:
      return "trace-span-invalid";
    case DiagCode::kTraceOverlap:
      return "trace-overlap";
    case DiagCode::kTraceBusyMismatch:
      return "trace-busy-mismatch";
    case DiagCode::kTraceSyncMismatch:
      return "trace-sync-mismatch";
    case DiagCode::kTraceDrift:
      return "trace-drift";
    case DiagCode::kRaceWriteOverlap:
      return "race-write-overlap";
    case DiagCode::kRaceWriteReadOverlap:
      return "race-write-read-overlap";
    case DiagCode::kWriteOutsideSlice:
      return "write-outside-slice";
    case DiagCode::kLivenessUseAfterReassign:
      return "liveness-use-after-reassign";
    case DiagCode::kPoolIntervalInvalid:
      return "pool-interval-invalid";
    case DiagCode::kScratchOverflow:
      return "scratch-overflow";
    case DiagCode::kChunkWriteOverlap:
      return "chunk-write-overlap";
    case DiagCode::kChunkCoverageGap:
      return "chunk-coverage-gap";
    case DiagCode::kAccessSpecMissing:
      return "access-spec-missing";
    case DiagCode::kAdaptCorrectionInvalid:
      return "adapt-correction-invalid";
    case DiagCode::kAdaptCacheIncoherent:
      return "adapt-cache-incoherent";
    case DiagCode::kAdaptNotConverging:
      return "adapt-not-converging";
  }
  return "unknown";
}

std::string Diagnostic::ToString() const {
  std::ostringstream os;
  os << (severity == Severity::kError ? "error " : "warning ") << DiagCodeId(code) << " ("
     << DiagCodeName(code) << ")";
  if (node >= 0) {
    os << " [node " << node << "]";
  }
  os << " " << message;
  return os.str();
}

void Report::Add(DiagCode code, Severity severity, int node, std::string message) {
  if (severity == Severity::kError) {
    ++errors_;
  }
  diags_.push_back(Diagnostic{code, severity, node, std::move(message)});
}

void Report::Merge(const Report& other) {
  for (const Diagnostic& d : other.diags_) {
    Add(d.code, d.severity, d.node, d.message);
  }
}

bool Report::Has(DiagCode code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) {
      return true;
    }
  }
  return false;
}

std::string Report::ToString() const {
  std::ostringstream os;
  for (const Diagnostic& d : diags_) {
    os << d.ToString() << "\n";
  }
  return os.str();
}

}  // namespace ulayer
