// NN executor (paper Section 6): runs a Plan over the ucl device timelines,
// optionally computing real tensor values.
//
// Timing semantics per step:
//  - kSingle / kBranch: one kernel on the assigned device; if a producer ran
//    on the other device, the dependency pays one CPU-GPU sync.
//  - kCooperative: the CPU issues the GPU command (asynchronously when
//    config.async_issue), both devices compute their channel slices, and a
//    merge synchronization joins the timelines:
//        done = max(cpu_end, gpu_end) + sync_us.
//    With zero-copy disabled, the GPU's view of the shared input/output is
//    staged through bandwidth-priced copies (overhead-ablation path).
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/memory_plan.h"
#include "core/plan.h"
#include "core/prepared.h"
#include "fault/fault.h"
#include "memory/arena.h"
#include "trace/trace.h"
#include "ucl/ucl.h"

namespace ulayer {

// How the run ultimately executed (DESIGN.md Section 10).
enum class RunMode : uint8_t {
  kNormal,    // The planned schedule ran untouched.
  kDegraded,  // Faults were absorbed (retries/fallbacks/slowdowns/replans).
  kCpuOnly,   // The GPU circuit breaker is open; everything runs on the CPU.
};

std::string_view RunModeName(RunMode mode);

// Explicit severity lattice kNormal < kDegraded < kCpuOnly. Combining run
// modes must go through these — not std::max over the raw enum — so the
// ranking survives any reordering of the enumerators.
int RunModeSeverity(RunMode mode);
RunMode CombineRunMode(RunMode a, RunMode b);

// What fault recovery did during a run: injected faults, retries, CPU
// fallbacks, steps rerouted after the circuit breaker opened, and (at the
// runtime level) replans. All zeros on a fault-free run.
struct DegradationReport {
  int retries = 0;         // Backoff-and-retry attempts after failed enqueues.
  int fallbacks = 0;       // GPU work re-executed on the CPU after retries.
  int rerouted_steps = 0;  // Steps moved to the CPU by the open breaker.
  int replans = 0;         // Runtime-level plan rebuilds (ULayerRuntime).
  int64_t faults_injected = 0;  // Failure faults the injector fired.
  int64_t slowdowns = 0;        // Slowdown (throttle) faults applied.
  bool circuit_open = false;    // A kDeviceLost tripped the GPU breaker.
  RunMode final_mode = RunMode::kNormal;
  std::vector<fault::FaultEvent> events;  // Injected failures, in order.

  bool degraded() const {
    return retries > 0 || fallbacks > 0 || rerouted_steps > 0 || replans > 0 ||
           slowdowns > 0 || circuit_open;
  }
  // Multi-line human-readable summary (tools/ulayer_verify --faults).
  std::string ToString() const;
};

struct RunResult {
  double latency_us = 0.0;

  double cpu_busy_us = 0.0;
  double gpu_busy_us = 0.0;
  int sync_count = 0;

  double cpu_energy_mj = 0.0;
  double gpu_energy_mj = 0.0;
  double idle_energy_mj = 0.0;
  double total_energy_mj = 0.0;

  // Fault-recovery accounting for this run (all zeros when fault-free).
  DegradationReport degradation;

  // The run's record (DESIGN.md Section 11): typed spans in issue order,
  // recorded when ExecConfig::trace or ULAYER_TRACE is set; empty (enabled
  // == false) otherwise. Export with trace::ChromeTraceJson or TraceToText,
  // check invariants with VerifyRunTrace, aggregate with
  // trace::MetricsRegistry.
  trace::RunTrace run_trace;

  // Network output (softmax probabilities), present in functional runs.
  std::optional<Tensor> output;

  double latency_ms() const { return latency_us * 1e-3; }
};

class Executor {
 public:
  // `pm` must outlive the executor. Throws VerifyError when the prepared
  // config fails VerifyExecConfig (bad dtype combination, negative thread or
  // fault-policy knobs).
  Executor(const PreparedModel& pm, const SocSpec& soc);

  // Installs (or, with an empty plan, removes) the fault plan consulted by
  // every enqueue of subsequent Run calls. The injector is reset at the top
  // of each Run, so every run sees the same deterministic fault stream.
  void SetFaultPlan(fault::FaultPlan plan);
  const fault::FaultInjector* fault_injector() const { return injector_.get(); }

  // Executes `plan`. If `input` is non-null the run is functional: tensor
  // values are computed with the dtype-accurate kernels and the network
  // output is returned. Otherwise only the timing/energy simulation runs.
  //
  // Injected GPU faults are absorbed per the config's fault recovery policy
  // (retry with backoff, then CPU fallback); the outcome is reported in
  // RunResult::degradation. Unrecoverable faults (CPU-device failures, or
  // GPU failures with fault_cpu_fallback off) throw ulayer::Error(kFault);
  // the executor stays reusable and the next Run is unaffected.
  RunResult Run(const Plan& plan, const Tensor* input = nullptr);

  // Like Run, but writes into a caller-owned result whose vectors keep their
  // capacity across calls. After one warm-up call per plan shape, a
  // timing-only RunInto performs no heap allocation (the steady-state
  // contract of DESIGN.md Section 9, tested in tests/arena_test.cc) —
  // including cooperative plans with fault recovery and tracing enabled.
  // Functional runs still allocate for the cloned output tensor.
  //
  // Single-flight: an executor services one run at a time — the scratch
  // arena, packed activation pool and via-F16 staged columns
  // (StageViaF16Cols) are per-run state keyed by node only, not by request,
  // so concurrent runs through one executor would alias them. Re-entry while
  // a run is in flight throws Error(kInvalidArgument). Callers that serve
  // concurrent requests pool executors (src/serve ExecutorPool: one lane =
  // one executor) over a const-shared PreparedModel, which IS safe to share.
  void RunInto(const Plan& plan, const Tensor* input, RunResult& out);

 private:
  struct NodeDone {
    ucl::Event event;
    bool on_cpu = false;
    bool on_gpu = false;
  };

  // Dependency ready-time for running `node` on `proc` (or cooperatively on
  // both when `both` is set), charging cross-device syncs against done_ and
  // emitting kSync gap spans on `sink`.
  double ReadyTime(const Node& node, bool on_cpu, bool on_gpu, int* syncs,
                   trace::TraceSink& sink) const;

  // Prepare-time memory planning for functional runs: sizes the kernel
  // scratch arena from a dry run over the graph and packs the activation
  // tensors into one liveness-planned pool. Idempotent; runs once on the
  // first functional Run().
  void EnsureMemoryPlan();

  // Static memory-access analysis (ExecConfig::analyze, DESIGN.md §12): runs
  // analysis::AnalyzePlan over the packed layout once per plan fingerprint,
  // throwing VerifyError on A-series violations. A steady-state Run with an
  // unchanged plan re-hashes the plan (allocation-free) and returns.
  void EnsureAnalyzed(const Plan& plan);

  // Run body; RunInto wraps it so a mid-run throw leaves the executor
  // reusable.
  void RunImpl(const Plan& plan, const Tensor* input, RunResult& out);
  // Restores invariants after a mid-run throw: device timelines and the
  // scratch arena are reset and the injector rewound, so the next Run is
  // byte-identical to one on a fresh executor.
  void AbortRun();

  const PreparedModel& pm_;
  ucl::Context ctx_;
  std::unique_ptr<fault::FaultInjector> injector_;

  // Steady-state memory plan (DESIGN.md Section 9), built by
  // core/memory_plan.cc so the analyzer sees the identical layout.
  memory::ScratchArena scratch_;
  std::vector<uint8_t> act_pool_;  // Shared activation storage.
  MemoryLayout mem_layout_;        // Offsets/bytes/liveness of act_pool_.
  bool mem_ready_ = false;
  // Plan fingerprint of the last successful EnsureAnalyzed.
  uint64_t analyzed_fp_ = 0;
  bool analyzed_ = false;

  // Per-node completion state, reused across runs (capacity survives so a
  // steady-state RunInto never reallocates it).
  std::vector<NodeDone> done_;

  // Single-flight guard (see RunInto): set for the duration of a run so
  // accidental re-entry — e.g. a pooled executor handed to two requests —
  // fails loudly instead of aliasing the arena and staged columns. Atomic so
  // the misuse detection itself is race-free (the guard rejects concurrent
  // callers; it does not make the executor thread-safe).
  std::atomic<bool> in_flight_{false};
};

}  // namespace ulayer
