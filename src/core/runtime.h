// ULayerRuntime: the top-level facade (Figure 13) tying together the NN
// partitioner, the latency predictor and the NN executor.
//
// Typical use:
//   Model model = MakeGoogLeNet();
//   ULayerRuntime rt(model, MakeExynos7420());
//   RunResult r = rt.Run();                 // simulate-only
//   // functional: materialize weights, calibrate, pass an input
//   model.MaterializeWeights();
//   ULayerRuntime rt2(model, MakeExynos7420());
//   rt2.Calibrate(calibration_inputs);
//   RunResult r2 = rt2.Run(&input);
//
// Beyond one-shot execution the runtime closes the adaptation loop
// (DESIGN.md Section 16): each run's drift report feeds the predictor's
// correction table, sustained drift triggers a replan, and plans are cached
// by quantized device-health state so a revisited health state replans
// without a Partitioner::Build(). The correction table is the runtime's only
// speed-adaptation path.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/adapt.h"
#include "core/executor.h"
#include "core/partitioner.h"

namespace ulayer {

class ULayerRuntime {
 public:
  // Knobs of the drift-adaptation loop. On by default (it forces
  // ExecConfig::trace on: the loop reads the run's spans). With `enabled`
  // false the runtime never reacts to a slow device, only to failing ones
  // (no correction table, no plan cache).
  struct AdaptOptions {
    bool enabled = true;
    // EWMA weight of each run's observed per-cell ratio.
    double ewma_alpha = 0.5;
    // Replan when the duration-weighted relative deviation (observed ratio
    // vs current correction) stays above this...
    double drift_replan_threshold = 0.10;
    // ...for this many consecutive runs.
    int sustained_runs = 2;
    // Log-space quantization step for cache keys and correction
    // fingerprints: scales within half a step bucket together.
    double bucket_growth = 1.05;
  };

  struct Options {
    ExecConfig config = ExecConfig::ProcessorFriendly();
    Partitioner::Options partitioner;

    // --- Fault tolerance (DESIGN.md Section 10) -----------------------------
    // Fault plan installed on the executor. When empty, the ULAYER_FAULTS
    // environment spec is parsed instead (empty plan when unset too).
    fault::FaultPlan faults;
    // Replan CPU-only after this many consecutive runs needing
    // retries/fallbacks.
    int replan_after_failures = 2;
    // Master switch for every replan: false pins the profile-time plan
    // (no health tracking, and the adaptation loop is off too).
    bool degradation_replan = true;
    // Probation: after this many runs without GPU evidence, install an
    // optimistic plan for one probe run and judge the GPU on its outcome:
    // with the breaker open, a replan with the GPU available; when the
    // corrections planned all work off the GPU, the baseline plan. Each
    // baseline probe that finds the GPU still slow doubles the interval,
    // up to 4x. 0 disables.
    int gpu_probe_interval = 8;

    AdaptOptions adapt;

    // Observability/test seam: called with every replanned plan after it
    // verifies but before it is installed. A throwing hook aborts the
    // install (the runtime keeps its current plan and stays usable).
    std::function<void(const Plan&)> on_replan;
  };

  // Per-device health the degradation policy tracks across runs.
  struct DeviceHealth {
    int consecutive_failures = 0;  // Runs in a row with retries/fallbacks.
    bool excluded = false;         // Circuit breaker: GPU out of the plan.
    int runs_since_probe = 0;      // Evidence-free runs since the last probe.
    bool probing = false;          // The current plan is a one-run GPU probe.
    // Baseline probes in a row that found the GPU still slow; the next one
    // waits gpu_probe_interval << slow_probes evidence-free runs.
    int slow_probes = 0;
  };

  // `model` must outlive the runtime.
  ULayerRuntime(const Model& model, const SocSpec& soc, Options options);
  ULayerRuntime(const Model& model, const SocSpec& soc)
      : ULayerRuntime(model, soc, Options()) {}

  // Required before functional QUInt8 runs (no-op for other storage types).
  void Calibrate(const std::vector<Tensor>& inputs);

  const Plan& plan() const { return plan_; }
  const LatencyPredictor& predictor() const { return predictor_; }
  const PreparedModel& prepared() const { return prepared_; }
  const ExecConfig& config() const { return options_.config; }
  const DeviceHealth& gpu_health() const { return gpu_health_; }
  RunMode mode() const { return mode_; }
  int replans() const { return replans_; }

  // Adaptation-loop observability.
  const PlanCache& plan_cache() const { return plan_cache_; }
  // Full Partitioner::Build() invocations, including the constructor's
  // initial build. The other replans_ - (partitioner_builds_ - 1) replans
  // were cache hits or baseline probes.
  int64_t partitioner_builds() const { return partitioner_builds_; }
  // Duration-weighted relative drift deviation per adapted run (the series
  // VerifyDriftConvergence checks over a stationary scenario).
  const std::vector<double>& drift_history() const { return drift_history_; }
  double last_relative_deviation() const { return last_relative_deviation_; }

  // Swaps the executor's fault plan between runs (multi-phase schedules:
  // throttle ramps, recovery scenarios).
  void SetFaultPlan(fault::FaultPlan faults);
  void set_on_replan(std::function<void(const Plan&)> hook) {
    options_.on_replan = std::move(hook);
  }

  // Deterministic replay: the complete adaptive state of the runtime at a
  // point in its run sequence. Restoring it and re-running the same inputs
  // under the same fault plans reproduces the original runs exactly. The
  // plan cache is not captured: cached plans equal freshly built ones by
  // determinism, so only hit/miss statistics can differ after a Restore.
  struct AdaptSnapshot {
    CorrectionTable corrections;
    DeviceHealth health;
    RunMode mode = RunMode::kNormal;
    Plan plan;
    int replans = 0;
    int drift_streak = 0;
    bool replan_pending = false;
    double last_relative_deviation = 0.0;
    std::vector<double> drift_history;
  };
  AdaptSnapshot Snapshot() const;
  void Restore(const AdaptSnapshot& snap);

  // Runs the planned network. Functional when `input` != nullptr. After the
  // run, the degradation policy inspects the result: repeated failures or an
  // open circuit breaker exclude the GPU and replan CPU-only (with periodic
  // probation probes so a recovered GPU rejoins). With adaptation enabled,
  // the run's drift report updates the predictor's correction table and
  // sustained drift replans through the health-keyed plan cache.
  // RunResult::degradation carries the outcome.
  RunResult Run(const Tensor* input = nullptr);

 private:
  // Rebuilds plan_ with the current corrections (one Partitioner::Build +
  // verify + install).
  void Replan(bool gpu_available);
  // Replan through the plan cache: O(1) install on a health-key hit, full
  // Replan + cache insert on a miss. Falls back to Replan with adaptation
  // off.
  void InstallPlan(bool gpu_available);
  // Makes `next` the current plan, through the observer hook.
  void Commit(Plan next);
  // Install-time checks (config.verify): the plan's structure plus the
  // kernel preconditions a Run does not re-check (Q303).
  void VerifyInstall(const std::string& context, const Plan& plan) const;
  PlanCacheKey MakeCacheKey(bool gpu_available) const;
  void ApplyDegradationPolicy(const RunResult& r);
  // Feeds the run's drift aggregate into the correction table, replans on
  // sustained drift, and probes the GPU when the corrections planned it
  // out. `probe_run` marks the run of a probe plan: its GPU evidence
  // replaces the stale GPU cells instead of being averaged into them.
  void ApplyAdaptation(const RunResult& r, bool probe_run);

  static Options NormalizeOptions(Options options);

  const Model* model_;
  Options options_;
  TimingModel timing_;
  PreparedModel prepared_;
  LatencyPredictor predictor_;
  Plan baseline_plan_;  // The constructor's plan: the throttle probe.
  Plan plan_;
  Executor executor_;

  DeviceHealth gpu_health_;
  RunMode mode_ = RunMode::kNormal;
  int replans_ = 0;

  PlanCache plan_cache_;
  int64_t partitioner_builds_ = 0;
  int drift_streak_ = 0;
  // Set when sustained drift demands a replan, cleared only after one
  // succeeds: a throwing install (verification, observer hook) retries on
  // the next evidence run instead of silently running on the stale plan.
  bool replan_pending_ = false;
  double last_relative_deviation_ = 0.0;
  std::vector<double> drift_history_;
};

}  // namespace ulayer
