// Structured run observability (DESIGN.md Section 11).
//
// A RunTrace is the record of one executor run. It answers "why is this run
// slow": which overheads (sync, map, enqueue issue) ate the gap, whether a
// retry storm occupied the GPU, how far the latency predictor drifted from
// the simulated schedule. It carries typed spans with that attribution:
// every occupying interval on a device timeline (kernels, failed attempts,
// issue calls, staging copies, retry backoff) plus the non-occupying latency
// gaps (syncs, zero-copy cache maintenance), each annotated with op kind,
// kernel flavor, channel slice, bytes/MACs and fault linkage.
//
// Recording is driven by ExecConfig::trace (or the ULAYER_TRACE environment
// variable) through a null-safe TraceSink: with tracing off the sink is
// empty, no span state is touched, and the executor's Schedule sequence —
// hence the simulated timeline — is bit-identical to a build without this
// subsystem.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault.h"
#include "nn/graph.h"
#include "soc/spec.h"
#include "tensor/dtype.h"

namespace ulayer::trace {

// What a span's interval represents. Occupying kinds charge device busy time
// (their durations sum to Device::TotalBusyUs, the T404 invariant);
// non-occupying kinds are latency gaps that occupy no execution unit.
enum class SpanKind : uint8_t {
  kKernel,   // A kernel that ran to completion (occupying).
  kAttempt,  // A failed GPU attempt: timeouts occupy their window, fail-fast
             // attempts are zero-width (occupying).
  kIssue,    // CPU time spent issuing the GPU command (occupying).
  kStage,    // Bandwidth-priced staging copy, zero-copy off (occupying).
  kBackoff,  // Retry backoff charged to the host thread (occupying).
  kSync,     // CPU-GPU synchronization (non-occupying latency).
  kMap,      // Zero-copy cache maintenance before a GPU kernel
             // (non-occupying latency on the GPU's ready time).
};

// Fault annotation on a span, linking the schedule back to the injector's
// FaultEvent log.
enum class FaultTag : uint8_t {
  kNone,           // Fault-free.
  kRetried,        // Kernel that succeeded after one or more failed attempts.
  kFailedAttempt,  // The aborted attempt itself (kAttempt spans).
  kFallback,       // CPU re-execution of failed GPU work.
  kRerouted,       // Step moved to the CPU by the open circuit breaker.
};

std::string_view SpanKindName(SpanKind kind);
std::string_view FaultTagName(FaultTag tag);
// True for kinds whose duration is charged as device busy time.
bool IsOccupying(SpanKind kind);

struct Span {
  int node = -1;
  ProcKind proc = ProcKind::kCpu;
  SpanKind kind = SpanKind::kKernel;
  LayerKind op = LayerKind::kInput;  // Graph op of the node (kernel spans).
  DType compute = DType::kF32;       // Kernel arithmetic flavor.
  // Output-channel slice [c_begin, c_end) the span computed (kernel spans;
  // end < 0 elsewhere).
  int64_t c_begin = 0;
  int64_t c_end = -1;
  double start_us = 0.0;
  double end_us = 0.0;
  double bytes = 0.0;         // Memory traffic attributed to the span.
  double macs = 0.0;          // Arithmetic work of the slice.
  double overhead_us = 0.0;   // Fixed overhead inside the span (kernel
                              // launch, issue call, map/sync cost).
  double predicted_us = 0.0;  // Timing-model prediction for kernel spans
                              // (launch + body); 0 when not applicable.
  FaultTag fault = FaultTag::kNone;
  int fault_event = -1;  // Index into RunTrace::fault_events, or -1.

  double duration_us() const { return end_us - start_us; }
};

// One queue-depth sample: while recording, `depth` holds the ±1 delta at
// enqueue/completion; FinalizeQueueDepth sorts the samples and converts them
// into the cumulative outstanding-command count per device.
struct QueueSample {
  ProcKind proc = ProcKind::kCpu;
  double t_us = 0.0;
  int depth = 0;
};

// The structured trace of one Executor run. Vectors keep their capacity
// across RunInto reuse; Clear() never frees.
struct RunTrace {
  bool enabled = false;
  std::vector<Span> spans;              // In issue order, devices interleaved.
  std::vector<QueueSample> queue_depth; // Cumulative after FinalizeQueueDepth.
  std::vector<fault::FaultEvent> fault_events;  // Copy of the injector log.

  // Run-level ground truth the invariant verifier checks the spans against.
  double latency_us = 0.0;
  double cpu_busy_us = 0.0;
  double gpu_busy_us = 0.0;
  int sync_count = 0;
  int64_t slowdowns = 0;          // Injected throttle faults (not in events).
  int64_t arena_high_water = 0;   // Scratch-arena high-water mark, bytes.

  void Clear();
};

// Converts the recorded ±1 queue deltas into time-ordered cumulative depth
// samples (ties resolve completions before enqueues).
void FinalizeQueueDepth(RunTrace& rt);

// Null-safe recording facade the executor writes through. With a null
// RunTrace every call is a no-op returning nullptr, so call sites stay
// branch-cheap and the timeline arithmetic never depends on tracing.
class TraceSink {
 public:
  TraceSink() = default;
  explicit TraceSink(RunTrace* rt) : rt_(rt) {}

  bool on() const { return rt_ != nullptr; }
  RunTrace* run_trace() { return rt_; }

  // Appends a span and returns it for field-by-field enrichment, or nullptr
  // when the sink is off.
  Span* AddSpan(SpanKind kind, int node, ProcKind proc, double start_us, double end_us);
  // Records an outstanding-command delta (+1 at enqueue, -1 at completion).
  void QueueDelta(ProcKind proc, double t_us, int delta);

 private:
  RunTrace* rt_ = nullptr;
};

// --- Predictor-fidelity table ------------------------------------------------

// Per-kernel-span predicted-vs-simulated latency. The simulation runs on the
// same timing model the predictor uses, so fault-free ratios are 1.0 to
// floating-point round-off; slowdown faults surface as the throttle factor
// and retried/fallback work shows the recovery cost (DESIGN.md Section 11).
struct DriftRow {
  int node = -1;
  ProcKind proc = ProcKind::kCpu;
  LayerKind op = LayerKind::kInput;
  FaultTag fault = FaultTag::kNone;
  double predicted_us = 0.0;
  double simulated_us = 0.0;
  double ratio = 0.0;  // simulated / predicted.
};

struct DriftReport {
  std::vector<DriftRow> rows;  // One per kernel span, in issue order.
  // Duration-weighted aggregate ratios; 0 when the device ran no kernels.
  double cpu_ratio = 0.0;
  double gpu_ratio = 0.0;
  double overall_ratio = 0.0;
  double max_abs_deviation = 0.0;  // max |ratio - 1| over the rows.

  // Fixed-width table (tools/ulayer_verify --metrics).
  std::string ToString(const Graph* graph = nullptr) const;
};

// Builds the table from a RunTrace's kernel spans (kAttempt spans are
// excluded: an aborted attempt has no meaningful prediction).
DriftReport BuildDriftReport(const RunTrace& rt);

// --- Drift aggregation for the adaptation loop -------------------------------

// Duration-weighted drift of one (layer kind, processor) cell: the shape the
// predictor's correction table consumes (DESIGN.md Section 16).
struct DriftCell {
  LayerKind op = LayerKind::kInput;
  ProcKind proc = ProcKind::kCpu;
  double predicted_us = 0.0;  // Sum of predictions over contributing rows.
  double simulated_us = 0.0;  // Sum of simulated durations.
  int samples = 0;
  double ratio = 0.0;  // simulated / predicted.
};

struct DriftAggregate {
  // Non-empty cells, ordered by (op, proc) — deterministic regardless of
  // span interleaving.
  std::vector<DriftCell> cells;
  double overall_ratio = 0.0;
  // False when no row contributed (e.g. a CPU-only run with prediction-less
  // spans): callers must not treat ratios as evidence then.
  bool has_evidence = false;
};

// Collapses a drift report into per-(op, proc) cells. Rows whose work moved
// to a different processor than planned (kFallback, kRerouted) are excluded:
// their ratio measures the reroute penalty, not the drift of the processor
// that ran them. kNone and kRetried rows are included — a retry storm IS
// drift the correction table should absorb.
DriftAggregate AggregateDrift(const DriftReport& report);

}  // namespace ulayer::trace
