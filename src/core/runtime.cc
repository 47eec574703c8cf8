#include "core/runtime.h"

#include <algorithm>
#include <cmath>

#include "trace/trace.h"
#include "verify/verify.h"

namespace ulayer {

namespace {

// Plan-cache entries of an adaptive runtime.
constexpr size_t kPlanCacheCapacity = 8;
// Cap on DeviceHealth::slow_probes: the longest stale-correction probe
// interval is gpu_probe_interval << kMaxSlowProbes runs.
constexpr int kMaxSlowProbes = 2;

}  // namespace

ULayerRuntime::Options ULayerRuntime::NormalizeOptions(Options options) {
  // A runtime that may not replan has nothing to adapt.
  if (!options.degradation_replan) {
    options.adapt.enabled = false;
  }
  // The adaptation loop consumes BuildDriftReport, which needs the
  // structured trace; recording is deterministic and allocation-stable, so
  // forcing it on changes no simulated timeline.
  if (options.adapt.enabled) {
    options.config.trace = true;
  }
  return options;
}

ULayerRuntime::ULayerRuntime(const Model& model, const SocSpec& soc, Options options)
    : model_(&model),
      options_(NormalizeOptions(std::move(options))),
      timing_(soc),
      prepared_(model, options_.config),
      predictor_(timing_, options_.config, {&model.graph}),
      baseline_plan_(
          Partitioner(model.graph, timing_, options_.config, predictor_, options_.partitioner)
              .Build()),
      plan_(baseline_plan_),
      executor_(prepared_, soc),
      plan_cache_(options_.adapt.enabled ? kPlanCacheCapacity : 0) {
  partitioner_builds_ = 1;  // The initializer's Build above.
  if (options_.config.verify) {
    ThrowIfErrors("graph verification failed for " + model.name, VerifyGraph(model.graph));
    VerifyInstall("plan verification failed for ", plan_);
  }
  // Seed the cache with the healthy-state plan so the first recovery back
  // to baseline health is already a hit (a no-op with adaptation off).
  plan_cache_.Insert(MakeCacheKey(options_.partitioner.gpu_available), plan_);
  // Install the fault plan: explicit options win; otherwise the
  // ULAYER_FAULTS environment spec (empty plan when unset).
  fault::FaultPlan fp = options_.faults.empty() ? fault::FaultPlan::FromEnv() : options_.faults;
  executor_.SetFaultPlan(std::move(fp));
}

void ULayerRuntime::Calibrate(const std::vector<Tensor>& inputs) {
  if (options_.config.storage != DType::kQUInt8) {
    return;
  }
  prepared_.Calibrate(inputs);
  if (!options_.config.verify) {
    return;
  }
  // Quantization-scale sanity (Section 4): calibration must never produce
  // degenerate scales or out-of-range zero points.
  Report report =
      VerifyActivationQuantization(prepared_.graph(), prepared_.activation_params());
  for (const auto& [id, weights] : prepared_.model().weights) {
    (void)weights;
    const Tensor& filters = prepared_.Filters(id);
    CheckQuantParams(QuantParams{filters.scale(), filters.zero_point()}, id, "filter", report);
    if (options_.config.per_channel_weights) {
      for (const QuantParams& qp : prepared_.FilterChannelParams(id).channels) {
        CheckQuantParams(qp, id, "per-channel filter", report);
      }
    }
  }
  ThrowIfErrors("quantization verification failed for " + prepared_.model().name, report);
}

void ULayerRuntime::SetFaultPlan(fault::FaultPlan faults) {
  executor_.SetFaultPlan(std::move(faults));
}

void ULayerRuntime::Replan(bool gpu_available) {
  ++partitioner_builds_;
  Partitioner::Options popts = options_.partitioner;
  popts.gpu_available = gpu_available;
  Plan next = Partitioner(model_->graph, timing_, options_.config, predictor_, popts).Build();
  if (options_.config.verify) {
    VerifyInstall("replanned plan verification failed for ", next);
  }
  Commit(std::move(next));
}

void ULayerRuntime::VerifyInstall(const std::string& context, const Plan& plan) const {
  Report report = VerifyPlan(model_->graph, plan, options_.config);
  report.Merge(VerifyAccumulatorBounds(model_->graph, options_.config));
  ThrowIfErrors(context + model_->name, report);
}

void ULayerRuntime::Commit(Plan next) {
  // `next` is a local: if the observer hook (or the verification before
  // it) throws, the runtime keeps its current plan and stays usable.
  if (options_.on_replan) {
    options_.on_replan(next);
  }
  plan_ = std::move(next);
  ++replans_;
}

PlanCacheKey ULayerRuntime::MakeCacheKey(bool gpu_available) const {
  PlanCacheKey key;
  key.gpu_available = gpu_available;
  key.correction_fp = predictor_.corrections().Fingerprint(options_.adapt.bucket_growth);
  return key;
}

void ULayerRuntime::InstallPlan(bool gpu_available) {
  if (plan_cache_.capacity() == 0) {
    Replan(gpu_available);
    return;
  }
  const PlanCacheKey key = MakeCacheKey(gpu_available);
  if (const Plan* cached = plan_cache_.Lookup(key)) {
    // O(1) hot path: no Partitioner::Build. Commit takes a copy, so a
    // throwing observer leaves both the cache and plan_ untouched.
    Commit(*cached);
    return;
  }
  Replan(gpu_available);
  plan_cache_.Insert(key, plan_);
}

void ULayerRuntime::ApplyDegradationPolicy(const RunResult& r) {
  DeviceHealth& h = gpu_health_;
  const DegradationReport& d = r.degradation;
  const bool failed = d.retries > 0 || d.fallbacks > 0 || d.circuit_open;
  if (failed) {
    ++h.consecutive_failures;
  } else {
    h.consecutive_failures = 0;
  }

  // Probe verdict: the run just executed the one-run optimistic plan.
  if (h.probing) {
    h.probing = false;
    h.runs_since_probe = 0;
    if (failed) {
      // The GPU is still unreliable: back out of the plan.
      h.excluded = true;
      InstallPlan(/*gpu_available=*/false);
      mode_ = RunMode::kCpuOnly;
      return;
    }
    // Clean probe: the GPU rejoins at full trust. The adaptation loop
    // judges its speed from this run's evidence.
    h.excluded = false;
    mode_ = RunMode::kNormal;
  }

  if (!h.excluded &&
      (d.circuit_open || h.consecutive_failures >= options_.replan_after_failures)) {
    // The GPU is unreliable: open the runtime-level breaker and replan the
    // whole network CPU-only.
    h.excluded = true;
    h.runs_since_probe = 0;
    InstallPlan(/*gpu_available=*/false);
    mode_ = RunMode::kCpuOnly;
    return;
  }

  // Probation: a CPU-only plan yields no GPU evidence, so recovery can only
  // be discovered by periodically risking one optimistic probe run.
  if (h.excluded && options_.gpu_probe_interval > 0 &&
      ++h.runs_since_probe >= options_.gpu_probe_interval) {
    h.probing = true;
    h.runs_since_probe = 0;
    InstallPlan(/*gpu_available=*/true);
    // mode_ stays kCpuOnly until the probe's verdict.
  }
}

void ULayerRuntime::ApplyAdaptation(const RunResult& r, bool probe_run) {
  const trace::DriftAggregate agg = trace::AggregateDrift(trace::BuildDriftReport(r.run_trace));
  if (!agg.has_evidence) {
    return;
  }
  // Duration-weighted relative deviation of this run's observed ratios
  // against the corrections the plan was predicted with (pre-update): the
  // residual the EWMA has not absorbed yet. On a stationary fault schedule
  // this series is monotonically non-increasing (H903).
  double dev = 0.0;
  double weight = 0.0;
  for (const trace::DriftCell& cell : agg.cells) {
    const double correction = predictor_.corrections().Get(cell.op, cell.proc);
    dev += cell.predicted_us * std::abs(cell.ratio / correction - 1.0);
    weight += cell.predicted_us;
  }
  const double relative = weight > 0.0 ? dev / weight : 0.0;
  last_relative_deviation_ = relative;
  drift_history_.push_back(relative);
  // A probe's GPU evidence is the first after a gap: the GPU cells are
  // stale, so it replaces them instead of being averaged into them.
  const auto alpha = [&](ProcKind proc) {
    return probe_run && proc == ProcKind::kGpu ? 1.0 : options_.adapt.ewma_alpha;
  };
  for (const trace::DriftCell& cell : agg.cells) {
    predictor_.UpdateCorrection(cell.op, cell.proc, cell.ratio, alpha(cell.proc));
  }
  // Throttling (DVFS, thermal) is a device-wide effect, but a corrected
  // plan can stop scheduling some op kinds on the affected processor
  // entirely — their cells would then freeze at a stale correction and pin
  // the plan away from that processor forever. Steer every cell the run did
  // NOT observe toward its processor's duration-weighted aggregate ratio, so
  // all of a device's cells track its health in lockstep. Processors with
  // no evidence at all this run are left untouched: silence about a device
  // is not evidence about it.
  bool gpu_evidence = false;
  for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
    double num = 0.0;
    double den = 0.0;
    for (const trace::DriftCell& cell : agg.cells) {
      if (cell.proc == proc) {
        num += cell.predicted_us * cell.ratio;
        den += cell.predicted_us;
      }
    }
    if (den <= 0.0) {
      continue;
    }
    gpu_evidence = gpu_evidence || proc == ProcKind::kGpu;
    const double proc_ratio = num / den;
    for (size_t k = 0; k < static_cast<size_t>(kLayerKindCount); ++k) {
      const LayerKind kind = static_cast<LayerKind>(k);
      const bool observed = std::any_of(
          agg.cells.begin(), agg.cells.end(),
          [&](const trace::DriftCell& c) { return c.op == kind && c.proc == proc; });
      if (!observed) {
        predictor_.UpdateCorrection(kind, proc, proc_ratio, alpha(proc));
      }
    }
  }
  // The device state quantizes back to baseline once the corrections carry
  // an identity-bucket fingerprint.
  const double growth = options_.adapt.bucket_growth;
  const bool baseline =
      predictor_.corrections().Fingerprint(growth) == CorrectionTable().Fingerprint(growth);
  DeviceHealth& h = gpu_health_;
  if (gpu_evidence) {
    h.runs_since_probe = 0;
    h.slow_probes = probe_run && !baseline ? std::min(h.slow_probes + 1, kMaxSlowProbes) : 0;
  }
  if (relative > options_.adapt.drift_replan_threshold) {
    ++drift_streak_;
  } else {
    drift_streak_ = 0;
  }
  if (drift_streak_ >= options_.adapt.sustained_runs) {
    replan_pending_ = true;
    drift_streak_ = 0;
  }
  // A probe that found the GPU still slow: plan for what it measured.
  if (probe_run && gpu_evidence && !h.excluded && !baseline) {
    replan_pending_ = true;
  }
  if (replan_pending_) {
    // Install first, clear after: if the replan throws (verification or a
    // hook), the pending flag survives and the next evidence run retries
    // instead of silently running on the stale plan.
    InstallPlan(/*gpu_available=*/!h.excluded);
    replan_pending_ = false;
    if (!h.excluded) {
      mode_ = baseline ? RunMode::kNormal : RunMode::kDegraded;
    }
    return;
  }
  if (h.excluded) {
    return;  // The breaker's probation owns the GPU's return.
  }
  // Drift is quiescent. The EWMA keeps decaying after the last sustained
  // replan, so the installed plan can be left a few percent off the true
  // optimum; once the table is back in the baseline bucket, snap to the
  // seeded baseline plan (an O(1) cache hit on the constructor's entry).
  if (mode_ == RunMode::kDegraded && baseline) {
    InstallPlan(/*gpu_available=*/true);
    mode_ = RunMode::kNormal;
    return;
  }
  // The corrections planned the GPU out, so no run refreshes its cells and
  // a lifted throttle would go unnoticed. Probe with the baseline plan;
  // each probe that finds the GPU still slow doubles the interval.
  if (!gpu_evidence && !baseline && options_.gpu_probe_interval > 0 &&
      ++h.runs_since_probe >= options_.gpu_probe_interval << h.slow_probes) {
    h.probing = true;
    h.runs_since_probe = 0;
    Commit(baseline_plan_);
  }
}

ULayerRuntime::AdaptSnapshot ULayerRuntime::Snapshot() const {
  AdaptSnapshot snap;
  snap.corrections = predictor_.SnapshotCorrections();
  snap.health = gpu_health_;
  snap.mode = mode_;
  snap.plan = plan_;
  snap.replans = replans_;
  snap.drift_streak = drift_streak_;
  snap.replan_pending = replan_pending_;
  snap.last_relative_deviation = last_relative_deviation_;
  snap.drift_history = drift_history_;
  return snap;
}

void ULayerRuntime::Restore(const AdaptSnapshot& snap) {
  predictor_.RestoreCorrections(snap.corrections);
  gpu_health_ = snap.health;
  mode_ = snap.mode;
  plan_ = snap.plan;
  replans_ = snap.replans;
  drift_streak_ = snap.drift_streak;
  replan_pending_ = snap.replan_pending;
  last_relative_deviation_ = snap.last_relative_deviation;
  drift_history_ = snap.drift_history;
}

RunResult ULayerRuntime::Run(const Tensor* input) {
  RunResult r = executor_.Run(plan_, input);
  if (options_.degradation_replan) {
    const bool probe_run = gpu_health_.probing;
    ApplyDegradationPolicy(r);
    if (options_.adapt.enabled) {
      ApplyAdaptation(r, probe_run);
    }
  }
  r.degradation.replans = replans_;
  // The runtime's session mode can outrank the single run's view (e.g. a
  // clean run on an already CPU-only plan).
  r.degradation.final_mode = CombineRunMode(r.degradation.final_mode, mode_);
  return r;
}

}  // namespace ulayer
