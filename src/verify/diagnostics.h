// Typed diagnostics for the Graph/Plan static verifiers.
//
// Every check failure is reported as a Diagnostic carrying a stable code
// (for tests, fuzzers and CI to match on), the offending node id and a
// human-readable message. A Report aggregates the diagnostics of one
// verifier pass.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace ulayer {

// Stable diagnostic codes. Grouped by prefix: G = graph structure,
// P = plan structure, C = execution config, Q = quantization parameters,
// T = run-trace invariants, A = static memory-access analysis,
// H = adaptation-loop (device-health) invariants.
enum class DiagCode : uint16_t {
  // --- Graph (G0xx) ---------------------------------------------------------
  kGraphEmpty = 1,          // G001: graph has no nodes.
  kGraphNoInput = 2,        // G002: first node is not an input layer.
  kNodeIdMismatch = 3,      // G003: node id does not equal its index.
  kEdgeOutOfRange = 4,      // G004: input edge references a missing node or
                            //       breaks topological (append) order.
  kBadArity = 5,            // G005: wrong number of inputs for the layer kind.
  kInvalidShape = 6,        // G006: non-positive output dimensions.
  kShapeMismatch = 7,       // G007: stored out_shape disagrees with shape
                            //       inference over the node's inputs.
  kBadLayerParams = 8,      // G008: kernel/stride/channel parameters invalid.
  kEltwiseShapeMismatch = 9,  // G009: eltwise-add inputs differ in shape.
  kConcatShapeMismatch = 10,  // G010: concat inputs differ in n/h/w.

  // --- Plan (P1xx) ----------------------------------------------------------
  kPlanSizeMismatch = 101,        // P101: plan.nodes size != graph size.
  kBadSplitFraction = 102,        // P102: cooperative fraction not finite or
                                  //       outside [0, 1].
  kSplitRatioNotUnity = 103,      // P103: cpu + gpu ratios do not sum to 1.
  kCoopNotSplittable = 104,       // P104: cooperative step on a layer kind
                                  //       that cannot be channel-split.
  kSliceOutOfRange = 105,         // P105: channel slice outside [0, C_out).
  kSliceOverlap = 106,            // P106: CPU and GPU slices overlap
                                  //       (redundant work, merge is undefined).
  kSliceGap = 107,                // P107: slices do not cover [0, C_out).
  kDegenerateSplit = 108,         // P108: one side's slice is empty (warning;
                                  //       the executor degrades to single).
  kCoopInputChannelMismatch = 109,  // P109: input-split layer (pool/dw/lrn)
                                    //       whose in/out channel counts differ.
  kBranchAssignmentMissing = 110,  // P110: branch group with fewer processor
                                   //       assignments than branches.
  kBranchNodeNotMarked = 111,      // P111: node inside an assigned branch is
                                   //       not planned as a kBranch step on
                                   //       the branch's processor.
  kBranchStepOutsideGroup = 112,   // P112: kBranch step not covered by any
                                   //       branch plan (warning).
  kBranchGroupInvalid = 113,       // P113: fork/join/branch node ids invalid.
  kBranchGroupOverlap = 114,       // P114: node claimed by two branch plans.
  kPlanBatchMismatch = 115,        // P115: plan stamped for a batch size that
                                   //       differs from the graph's input N.

  // --- Config (C2xx) --------------------------------------------------------
  kConfigBadDType = 201,      // C201: kInt32 used as storage/compute dtype.
  kConfigQu8OnFloat = 202,    // C202: QUInt8 compute over float storage
                              //       (no quantization parameters exist).
  kConfigUnimplementedCompute = 203,  // C203: storage/compute combination no
                                      //       kernel implements (e.g. F32
                                      //       storage with F16 compute).
  kConfigNegativeThreads = 204,  // C204: cpu_threads is negative.
  kConfigBadFaultPolicy = 205,   // C205: fault recovery knobs out of domain
                                 //       (negative retries, non-finite or
                                 //       negative backoff).

  // --- Quantization (Q3xx) --------------------------------------------------
  kQuantScaleInvalid = 301,     // Q301: scale is zero, negative or not finite.
  kQuantZeroPointRange = 302,   // Q302: zero point outside [0, 255].
  kQuantAccumulatorBound = 303, // Q303: QUInt8 conv/FC reduction length k
                                //       exceeds INT32_MAX / 255^2 = 33,025
                                //       (the int32 accumulator can overflow).

  // --- Run trace (T4xx) -----------------------------------------------------
  kTraceNotEnabled = 401,   // T401: verifying a trace that was never recorded.
  kTraceSpanInvalid = 402,  // T402: malformed span (end < start, negative
                            //       time/bytes/MACs, bad channel slice).
  kTraceOverlap = 403,      // T403: two occupying spans overlap on one device
                            //       (the simulated timelines are in-order).
  kTraceBusyMismatch = 404, // T404: per-device occupying-span durations do
                            //       not sum to the reported busy time.
  kTraceSyncMismatch = 405, // T405: sync spans disagree with RunResult's
                            //       sync_count.
  kTraceDrift = 406,        // T406: fault-free kernel span deviates from its
                            //       timing-model prediction (ratio != 1).

  // --- Memory-access analysis (A5xx races, A6xx liveness, A7xx chunking) ----
  // Reported by src/analysis: per-step read/write byte ranges are evaluated
  // from the kernels' AccessSpecs against the packed activation pool.
  kRaceWriteOverlap = 501,   // A501: two steps that may overlap in time have
                             //       intersecting write ranges.
  kRaceWriteReadOverlap = 502,  // A502: a step may write bytes another
                                //       concurrent step reads.
  kWriteOutsideSlice = 503,  // A503: a kernel's (declared or observed) writes
                             //       escape its [c_begin, c_end) output slice.
  kLivenessUseAfterReassign = 601,  // A601: a pool interval is reused while a
                                    //       step may still read the previous
                                    //       occupant.
  kPoolIntervalInvalid = 602,  // A602: packed-pool interval out of bounds or
                               //       misaligned.
  kScratchOverflow = 603,      // A603: a kernel's declared scratch demand
                               //       exceeds the planned arena reservation
                               //       (the overflow path heap-allocates).
  kChunkWriteOverlap = 701,    // A701: ParallelFor chunks of one kernel have
                               //       intersecting write ranges.
  kChunkCoverageGap = 702,     // A702: the chunk decomposition does not cover
                               //       the kernel's declared write set.
  kAccessSpecMissing = 703,    // A703: splittable compute node without an
                               //       AccessSpec (nothing to prove).

  // --- Adaptation-loop invariants (H9xx) ------------------------------------
  // Reported by VerifyCorrectionTable / VerifyPlanCache /
  // VerifyDriftConvergence (DESIGN.md Section 16).
  kAdaptCorrectionInvalid = 901,  // H901: correction factor non-finite,
                                  //       non-positive, or outside the
                                  //       [kMinScale, kMaxScale] sanity band.
  kAdaptCacheIncoherent = 902,    // H902: cached plan contradicts its health
                                  //       key (GPU work under gpu=0, invalid
                                  //       plan, or duplicate keys).
  kAdaptNotConverging = 903,      // H903: drift-deviation series is not
                                  //       monotonically non-increasing, or
                                  //       its final value exceeds tolerance.
};

// "G004"-style stable identifier.
std::string DiagCodeId(DiagCode code);
// Short kebab-case name, e.g. "edge-out-of-range".
std::string_view DiagCodeName(DiagCode code);

enum class Severity : uint8_t { kWarning, kError };

struct Diagnostic {
  DiagCode code;
  Severity severity = Severity::kError;
  int node = -1;  // Graph node id the diagnostic anchors to, or -1.
  std::string message;

  // "error G004 [node 3] input edge 7 out of range"-style line.
  std::string ToString() const;
};

class Report {
 public:
  void Add(DiagCode code, Severity severity, int node, std::string message);
  void Error(DiagCode code, int node, std::string message) {
    Add(code, Severity::kError, node, std::move(message));
  }
  void Warn(DiagCode code, int node, std::string message) {
    Add(code, Severity::kWarning, node, std::move(message));
  }
  // Appends all diagnostics of `other`.
  void Merge(const Report& other);

  const std::vector<Diagnostic>& diagnostics() const { return diags_; }
  int error_count() const { return errors_; }
  int warning_count() const { return static_cast<int>(diags_.size()) - errors_; }
  // True when no error-severity diagnostic was recorded (warnings allowed).
  bool ok() const { return errors_ == 0; }
  bool Has(DiagCode code) const;

  // One line per diagnostic; empty string for a clean report.
  std::string ToString() const;

 private:
  std::vector<Diagnostic> diags_;
  int errors_ = 0;
};

}  // namespace ulayer
