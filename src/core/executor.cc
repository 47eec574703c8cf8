#include "core/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "analysis/analyzer.h"
#include "common/error.h"
#include "core/compute.h"
#include "parallel/thread_pool.h"
#include "verify/verify.h"

namespace ulayer {
namespace {

// CPU time spent making one asynchronous enqueue call (clEnqueueNDRangeKernel
// returning immediately). The GPU-side launch overhead is separate and lives
// in ProcessorSpec::kernel_launch_us.
constexpr double kIssueCallUs = 2.0;

// Failure status for a fault injected at the executor's inline map point
// (the zero-copy handoff charges map cost directly instead of calling
// ucl::EnqueueMap, so the executor consults the injector itself).
ucl::Status MapFailureStatus(fault::FaultKind kind) {
  switch (kind) {
    case fault::FaultKind::kDeviceLost:
      return ucl::Status::kDeviceLost;
    case fault::FaultKind::kEnqueueFailed:
      return ucl::Status::kEnqueueFailed;
    default:
      return ucl::Status::kMapFailed;
  }
}

// ULAYER_TRACE enables trace recording without touching the config; any
// value but "0" counts. Checked per run (getenv does not allocate).
bool TraceEnvEnabled() {
  const char* v = std::getenv("ULAYER_TRACE");
  return v != nullptr && v[0] != '\0' && !(v[0] == '0' && v[1] == '\0');
}

}  // namespace

std::string_view RunModeName(RunMode mode) {
  switch (mode) {
    case RunMode::kNormal:
      return "normal";
    case RunMode::kDegraded:
      return "degraded";
    case RunMode::kCpuOnly:
      return "cpu-only";
  }
  return "unknown";
}

int RunModeSeverity(RunMode mode) {
  switch (mode) {
    case RunMode::kNormal:
      return 0;
    case RunMode::kDegraded:
      return 1;
    case RunMode::kCpuOnly:
      return 2;
  }
  return 0;
}

RunMode CombineRunMode(RunMode a, RunMode b) {
  return RunModeSeverity(b) > RunModeSeverity(a) ? b : a;
}

std::string DegradationReport::ToString() const {
  std::ostringstream os;
  os << "mode: " << RunModeName(final_mode) << "\nfaults injected: " << faults_injected
     << "\nslowdowns: " << slowdowns << "\nretries: " << retries
     << "\nfallbacks: " << fallbacks << "\nrerouted steps: " << rerouted_steps
     << "\nreplans: " << replans
     << "\ncircuit breaker: " << (circuit_open ? "open" : "closed");
  for (const fault::FaultEvent& e : events) {
    os << "\n  " << e.ToString();
  }
  os << "\n";
  return os.str();
}

Executor::Executor(const PreparedModel& pm, const SocSpec& soc) : pm_(pm), ctx_(soc) {
  // A config the kernels cannot execute should fail at construction, not as
  // garbage tensors or a crash mid-run.
  ThrowIfErrors("exec config verification failed", VerifyExecConfig(pm.config()));
}

void Executor::SetFaultPlan(fault::FaultPlan plan) {
  if (plan.empty()) {
    ctx_.SetFaultInjector(nullptr);
    injector_.reset();
    return;
  }
  injector_ = std::make_unique<fault::FaultInjector>(std::move(plan));
  ctx_.SetFaultInjector(injector_.get());
}

void Executor::EnsureMemoryPlan() {
  if (mem_ready_) {
    return;
  }
  // Scratch sizing, liveness and the concurrency-safe pool packing live in
  // core/memory_plan.cc so the static analyzer proves invariants about the
  // exact layout the executor runs over.
  mem_layout_ = BuildMemoryLayout(pm_);
  scratch_.Reserve(static_cast<size_t>(mem_layout_.scratch_bytes));
  act_pool_.assign(static_cast<size_t>(mem_layout_.pool_bytes), 0);
  mem_ready_ = true;
}

void Executor::EnsureAnalyzed(const Plan& plan) {
  // FNV-1a over every plan field the analyzer's unit extraction consults, so
  // a steady-state Run with an unchanged plan skips the analysis entirely
  // (and allocates nothing).
  uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ull;
  };
  for (const NodeAssignment& a : plan.nodes) {
    mix(static_cast<uint64_t>(a.kind));
    mix(static_cast<uint64_t>(a.proc));
    uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(a.cpu_fraction));
    std::memcpy(&bits, &a.cpu_fraction, sizeof(bits));
    mix(bits);
    std::memcpy(&bits, &a.gpu_fraction, sizeof(bits));
    mix(bits);
    mix(static_cast<uint64_t>(a.cpu_slice.begin));
    mix(static_cast<uint64_t>(a.cpu_slice.end));
    mix(static_cast<uint64_t>(a.gpu_slice.begin));
    mix(static_cast<uint64_t>(a.gpu_slice.end));
  }
  for (const BranchPlan& bp : plan.branch_plans) {
    for (const ProcKind p : bp.assignment) {
      mix(static_cast<uint64_t>(p) + 0x9e3779b9ull);
    }
  }
  if (analyzed_ && analyzed_fp_ == h) {
    return;
  }
  ThrowIfErrors("memory-access analysis", analysis::AnalyzePlan(pm_, plan, mem_layout_));
  analyzed_ = true;
  analyzed_fp_ = h;
}

double Executor::ReadyTime(const Node& node, bool on_cpu, bool on_gpu, int* syncs,
                           trace::TraceSink& sink) const {
  double ready = 0.0;
  for (int in : node.inputs) {
    const NodeDone& d = done_[static_cast<size_t>(in)];
    double t = d.event.complete_us;
    // If this step needs the data on a device the producer did not run on,
    // the dependency crosses the CPU-GPU boundary and pays one sync.
    const bool needs_sync = (on_cpu && !d.on_cpu) || (on_gpu && !d.on_gpu);
    if (needs_sync) {
      const double sync_us = ctx_.timing().SyncUs();
      // The gap is attributed to the side that lacked the data.
      if (trace::Span* s = sink.AddSpan(
              trace::SpanKind::kSync, node.id,
              (on_cpu && !d.on_cpu) ? ProcKind::kCpu : ProcKind::kGpu, t, t + sync_us)) {
        s->op = node.desc.kind;
        s->overhead_us = sync_us;
      }
      t += sync_us;
      ++*syncs;
    }
    ready = std::max(ready, t);
  }
  return ready;
}

RunResult Executor::Run(const Plan& plan, const Tensor* input) {
  RunResult r;
  RunInto(plan, input, r);
  return r;
}

void Executor::RunInto(const Plan& plan, const Tensor* input, RunResult& out) {
  // Single-flight guard: one executor owns one arena / activation pool /
  // staged via-F16 columns, so a second run entering while one is active
  // would alias them. Serving layers must pool executors (one per lane)
  // instead of sharing one across concurrent requests.
  if (in_flight_.exchange(true, std::memory_order_acq_rel)) {
    throw Error(ErrorCode::kInvalidArgument,
                "Executor::RunInto re-entered while a run is in flight; an executor is "
                "single-flight (its scratch arena and staged columns are per-run state) — "
                "use one executor per concurrent request");
  }
  try {
    RunImpl(plan, input, out);
  } catch (...) {
    in_flight_.store(false, std::memory_order_release);
    AbortRun();
    throw;
  }
  in_flight_.store(false, std::memory_order_release);
}

void Executor::AbortRun() {
  // A mid-run throw must leave the executor reusable: rewind the device
  // timelines, the scratch arena's bump pointer and the fault stream so the
  // next Run is byte-identical to one on a freshly constructed executor.
  ctx_.Reset();
  scratch_.Reset();
  if (injector_ != nullptr) {
    injector_->ResetRun();
  }
}

void Executor::RunImpl(const Plan& plan, const Tensor* input, RunResult& out) {
  const Graph& g = pm_.graph();
  const ExecConfig& cfg = pm_.config();
  if (cfg.verify) {
    // Reject structurally invalid plans before they turn into wrong latency
    // numbers or out-of-bounds tensor writes (functional runs).
    ThrowIfErrors("plan verification failed", VerifyPlan(g, plan, cfg));
  }
  assert(plan.nodes.size() == static_cast<size_t>(g.size()));
  // Apply this run's CPU thread budget to the functional kernels. The budget
  // is process-wide; the last configured run wins (matches how a real
  // runtime pins its worker pool once per session).
  parallel::SetCpuThreads(cfg.cpu_threads);
  ctx_.Reset();
  fault::FaultInjector* fi = injector_.get();
  if (fi != nullptr) {
    fi->ResetRun();
  }
  const TimingModel& timing = ctx_.timing();

  // --- Result reset ---------------------------------------------------------
  // `out` may be a reused result (RunInto): every field is rewritten below
  // and the vectors are cleared in place so their capacity survives — after
  // one warm-up run per plan shape, a timing-only run allocates nothing.
  out.latency_us = 0.0;
  out.cpu_busy_us = out.gpu_busy_us = 0.0;
  out.sync_count = 0;
  out.cpu_energy_mj = out.gpu_energy_mj = out.idle_energy_mj = out.total_energy_mj = 0.0;
  out.output.reset();
  DegradationReport& rep = out.degradation;
  rep.retries = 0;
  rep.fallbacks = 0;
  rep.rerouted_steps = 0;
  rep.replans = 0;
  rep.faults_injected = 0;
  rep.slowdowns = 0;
  rep.circuit_open = false;
  rep.final_mode = RunMode::kNormal;
  rep.events.clear();

  // --- Tracing (DESIGN.md Section 11) ---------------------------------------
  // The sink is null when tracing is off: every recording call below is a
  // no-op and the Schedule sequence — hence the simulated timeline — is
  // bit-identical to an untraced run.
  const bool tracing = cfg.trace || TraceEnvEnabled();
  out.run_trace.Clear();
  out.run_trace.enabled = tracing;
  trace::TraceSink sink(tracing ? &out.run_trace : nullptr);

  // --- Fault recovery state (DESIGN.md Section 10) --------------------------
  bool gpu_lost = false;  // Circuit breaker; open pins the rest CPU-only.
  ucl::Device& cpu_dev = ctx_.device(ProcKind::kCpu);

  // Index of the most recent injected FaultEvent, for linking annotated
  // spans back to the injector log (-1 when none fired yet).
  const auto last_fault_event = [&]() -> int {
    return fi != nullptr && !fi->events().empty() ? static_cast<int>(fi->events().size()) - 1
                                                  : -1;
  };

  // Records one completed kernel as an enriched kernel span (when tracing).
  // `body_us` is the timing model's body prediction (pre-throttle), so
  // predicted_us stays the fault-free expectation the drift table compares
  // against.
  const auto record_kernel = [&](const Node& n, ProcKind proc, const ucl::Event& ev,
                                 const LayerWork& w, double body_us, int64_t c_begin,
                                 int64_t c_end, trace::FaultTag tag, int fault_event) {
    if (trace::Span* s = sink.AddSpan(trace::SpanKind::kKernel, n.id, proc, ev.start_us,
                                      ev.complete_us)) {
      const double launch = ctx_.device(proc).spec().kernel_launch_us;
      s->op = n.desc.kind;
      s->compute = cfg.ComputeFor(proc);
      s->c_begin = c_begin;
      s->c_end = c_end;
      s->bytes = w.TotalBytes();
      s->macs = w.macs;
      s->overhead_us = launch;
      s->predicted_us = launch + body_us;
      s->fault = tag;
      s->fault_event = fault_event;
    }
  };

  // Enqueues on the CPU queue. The CPU is the last-resort device, so a
  // failure here is unrecoverable and aborts the run.
  const auto must_cpu = [&](const Node& n, double ready, double body, DType compute,
                            double bytes) {
    sink.QueueDelta(ProcKind::kCpu, ready, +1);
    const ucl::EnqueueResult res =
        ctx_.queue(ProcKind::kCpu).EnqueueKernelAt(ready, body, compute, bytes);
    if (!res.ok()) {
      throw Error(ErrorCode::kFault,
                  "node " + std::to_string(n.id) + ": cpu enqueue failed (" +
                      std::string(ucl::StatusName(res.status)) + ") with no fallback device",
                  n.id, ProcKind::kCpu);
    }
    sink.QueueDelta(ProcKind::kCpu, res.event.complete_us, -1);
    return res.event;
  };

  // Runs one GPU attempt with bounded exponential backoff between retries.
  // The host thread owns the retry loop, so backoff is charged to the CPU
  // timeline. Each failed attempt stays on the record — a kAttempt span
  // linked to the injected fault — instead of silently vanishing from the
  // schedule. Returns nullopt when unrecovered; kDeviceLost also opens the
  // circuit breaker. `*retried` reports whether the returned success needed
  // retries.
  const auto retry_gpu = [&](const Node& n, double base, const auto& attempt,
                             bool* retried) -> std::optional<ucl::Event> {
    *retried = false;
    for (int tries = 0;; ++tries) {
      sink.QueueDelta(ProcKind::kGpu, base, +1);
      const ucl::EnqueueResult res = attempt(base);
      sink.QueueDelta(ProcKind::kGpu, res.event.complete_us, -1);
      if (res.ok()) {
        *retried = tries > 0;
        return res.event;
      }
      // The aborted attempt: timeouts occupied the device over the event's
      // window (the injector charged it); fail-fast failures are zero-width.
      const int fev = last_fault_event();
      if (trace::Span* s = sink.AddSpan(trace::SpanKind::kAttempt, n.id, ProcKind::kGpu,
                                        res.event.start_us, res.event.complete_us)) {
        s->op = n.desc.kind;
        s->compute = cfg.ComputeFor(ProcKind::kGpu);
        s->fault = trace::FaultTag::kFailedAttempt;
        s->fault_event = fev;
      }
      if (res.status == ucl::Status::kDeviceLost) {
        gpu_lost = true;
        rep.circuit_open = true;
        return std::nullopt;
      }
      if (tries >= cfg.fault_max_retries) {
        return std::nullopt;
      }
      ++rep.retries;
      const double backoff = std::ldexp(cfg.fault_backoff_us, std::min(tries, 20));
      double b0 = 0.0;
      base = cpu_dev.Schedule(std::max(base, res.event.complete_us), backoff, DType::kF32, 0.0,
                              &b0);
      if (trace::Span* s =
              sink.AddSpan(trace::SpanKind::kBackoff, n.id, ProcKind::kCpu, b0, base)) {
        s->op = n.desc.kind;
        s->overhead_us = backoff;
        s->fault_event = fev;
      }
    }
  };

  done_.assign(static_cast<size_t>(g.size()), NodeDone{});
  int syncs = 0;

  // Functional state: the activation tensors are views into a
  // liveness-planned pool and kernel staging buffers come from the
  // prepare-sized arena, so steady-state runs allocate nothing.
  std::vector<Tensor> act;
  if (input != nullptr) {
    act.resize(static_cast<size_t>(g.size()));
    act[0] = pm_.PrepareInput(*input);
    EnsureMemoryPlan();
    if (cfg.analyze) {
      EnsureAnalyzed(plan);
    }
    for (const Node& n : g.nodes()) {
      if (n.desc.kind != LayerKind::kInput) {
        act[static_cast<size_t>(n.id)] = pm_.MakeActivationView(
            n.id, act_pool_.data() + mem_layout_.offsets[static_cast<size_t>(n.id)]);
      }
    }
  }

  // Computes both channel slices of a cooperative step, the second with
  // `second`'s kernel flavor (kCpu when the GPU slice fell back). The slices
  // run one after the other on this thread, and the arena is reset between
  // them so peak use is one slice's staging buffers. When both slice flavors
  // compute in kF16 the dequantize+im2col producer is staged once above a
  // Mark and shared across the slices (see StageViaF16Cols).
  const bool share_f16_staging = cfg.ComputeFor(ProcKind::kCpu) == DType::kF16 &&
                                 cfg.ComputeFor(ProcKind::kGpu) == DType::kF16;
  const auto compute_slices = [&](const Node& n, const ResolvedSplit& split, ProcKind second) {
    scratch_.Reset();
    const Half* staged =
        share_f16_staging ? StageViaF16Cols(pm_, n.id, act, &scratch_) : nullptr;
    const memory::ScratchArena::Mark mark = scratch_.MarkPoint();
    ComputeNodeSlice(pm_, n.id, ProcKind::kCpu, act, split.cpu.begin, split.cpu.end, &scratch_,
                     staged);
    if (staged != nullptr) {
      scratch_.ResetTo(mark);  // Keep the staging, recycle slice scratch.
    } else {
      scratch_.Reset();
    }
    ComputeNodeSlice(pm_, n.id, second, act, split.gpu.begin, split.gpu.end, &scratch_, staged);
  };

  for (const Node& n : g.nodes()) {
    const NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    NodeDone& nd = done_[static_cast<size_t>(n.id)];
    if (n.desc.kind == LayerKind::kInput) {
      // The input buffer is zero-copy shared memory: visible to both devices.
      nd = NodeDone{ucl::Event{0.0}, true, true};
      continue;
    }
    if (fi != nullptr) {
      fi->set_current_node(n.id);
    }

    const int64_t oc = n.out_shape.c;
    const ResolvedSplit split = ResolveSplit(a, oc);
    bool cooperative =
        a.kind == StepKind::kCooperative && !split.cpu.empty() && !split.gpu.empty();
    // Single-processor step (kSingle, kBranch, or a degenerate split where
    // one side's channel slice is empty).
    ProcKind proc = a.kind == StepKind::kCooperative
                        ? (split.gpu.empty() ? ProcKind::kCpu : ProcKind::kGpu)
                        : a.proc;
    // Open circuit breaker: every remaining GPU-touching step reroutes to a
    // single-processor CPU step.
    trace::FaultTag tag = trace::FaultTag::kNone;
    if (gpu_lost && (cooperative || proc == ProcKind::kGpu)) {
      cooperative = false;
      proc = ProcKind::kCpu;
      ++rep.rerouted_steps;
      tag = trace::FaultTag::kRerouted;
    }
    if (!cooperative) {
      const bool gpu_step = proc == ProcKind::kGpu;
      const double ready = ReadyTime(n, !gpu_step, gpu_step, &syncs, sink);
      const LayerWork w = ComputeWork(g, n, cfg.storage);
      const double body = timing.KernelBodyUs(w, proc, cfg.ComputeFor(proc), cfg.cpu_threads);
      ucl::Event ev;
      if (gpu_step) {
        bool retried = false;
        const std::optional<ucl::Event> got = retry_gpu(n, ready,
                                                        [&](double b) {
                                                          return ctx_.queue(ProcKind::kGpu)
                                                              .EnqueueKernelAt(
                                                                  b, body,
                                                                  cfg.ComputeFor(ProcKind::kGpu),
                                                                  w.TotalBytes());
                                                        },
                                                        &retried);
        if (got.has_value()) {
          ev = *got;
          if (retried) {
            tag = trace::FaultTag::kRetried;
          }
        } else {
          // Retries exhausted (or device lost): re-execute the whole layer
          // on the CPU, paying one sync to move the inputs over.
          if (!cfg.fault_cpu_fallback) {
            throw Error(ErrorCode::kFault,
                        "node " + std::to_string(n.id) +
                            ": gpu enqueue unrecovered and cpu fallback is disabled",
                        n.id, ProcKind::kGpu);
          }
          ++rep.fallbacks;
          proc = ProcKind::kCpu;
          tag = trace::FaultTag::kFallback;
          const double fb_base = std::max(ready, cpu_dev.now_us());
          const double fb_ready = fb_base + timing.SyncUs();
          ++syncs;
          if (trace::Span* s =
                  sink.AddSpan(trace::SpanKind::kSync, n.id, ProcKind::kCpu, fb_base, fb_ready)) {
            s->op = n.desc.kind;
            s->overhead_us = timing.SyncUs();
            s->fault = trace::FaultTag::kFallback;
            s->fault_event = last_fault_event();
          }
          const double fb_body =
              timing.KernelBodyUs(w, ProcKind::kCpu, cfg.ComputeFor(ProcKind::kCpu),
                                  cfg.cpu_threads);
          ev = must_cpu(n, fb_ready, fb_body, cfg.ComputeFor(ProcKind::kCpu), w.TotalBytes());
          record_kernel(n, ProcKind::kCpu, ev, w, fb_body, 0, oc, tag, last_fault_event());
          nd = NodeDone{ev, true, false};
          if (input != nullptr) {
            scratch_.Reset();
            ComputeNode(pm_, n.id, proc, act, &scratch_);
          }
          continue;
        }
      } else {
        ev = must_cpu(n, ready, body, cfg.ComputeFor(ProcKind::kCpu), w.TotalBytes());
      }
      record_kernel(n, proc, ev, w, body, 0, oc, tag,
                    tag == trace::FaultTag::kNone ? -1 : last_fault_event());
      nd = NodeDone{ev, proc == ProcKind::kCpu, proc == ProcKind::kGpu};
      if (input != nullptr) {
        scratch_.Reset();
        ComputeNode(pm_, n.id, proc, act, &scratch_);
      }
      continue;
    }

    // --- Cooperative step: channel-wise workload distribution -------------
    const double ready = ReadyTime(n, /*on_cpu=*/true, /*on_gpu=*/true, &syncs, sink);

    const LayerWork cpu_w = ComputeWork(g, n, cfg.storage, split.cpu.begin, split.cpu.end);
    const LayerWork gpu_w = ComputeWork(g, n, cfg.storage, split.gpu.begin, split.gpu.end);

    // The CPU issues the GPU command first (Section 6). Asynchronous issue
    // costs the CPU only the enqueue call; synchronous issue blocks the CPU
    // for the whole GPU launch.
    ucl::Device& cpu = ctx_.device(ProcKind::kCpu);
    const double issue_cost = cfg.async_issue
                                  ? kIssueCallUs
                                  : ctx_.device(ProcKind::kGpu).spec().kernel_launch_us;
    double issue0 = 0.0;
    double cpu_free = cpu.Schedule(ready, issue_cost, DType::kF32, 0.0, &issue0);
    double gpu_ready = cpu_free;
    if (trace::Span* s =
            sink.AddSpan(trace::SpanKind::kIssue, n.id, ProcKind::kCpu, issue0, cpu_free)) {
      s->op = n.desc.kind;
      s->overhead_us = issue_cost;
    }

    // Shared-memory handoff: zero-copy buffers pay cache maintenance only
    // (charged inside the retried GPU attempt below, where it is also the
    // map fault-injection point); otherwise the GPU's input view and output
    // slice are staged through bandwidth-priced copies on the CPU.
    if (!cfg.zero_copy) {
      const double stage_us =
          timing.MapUs() + gpu_w.input_bytes / (ctx_.soc().copy_gb_per_s * 1e3);
      double st0 = 0.0;
      cpu_free = cpu.Schedule(cpu_free, stage_us, DType::kF32, gpu_w.input_bytes, &st0);
      if (trace::Span* s =
              sink.AddSpan(trace::SpanKind::kStage, n.id, ProcKind::kCpu, st0, cpu_free)) {
        s->op = n.desc.kind;
        s->bytes = gpu_w.input_bytes;
        s->overhead_us = timing.MapUs();
      }
      gpu_ready = cpu_free;
    }

    // One GPU attempt: the inline map (zero-copy handoff, subject to map
    // faults) followed by the kernel enqueue. Retried as a unit.
    const double gpu_body =
        timing.KernelBodyUs(gpu_w, ProcKind::kGpu, cfg.ComputeFor(ProcKind::kGpu));
    const auto gpu_attempt = [&](double base) -> ucl::EnqueueResult {
      double gr = base;
      if (cfg.zero_copy) {
        double map_us = timing.MapUs();
        if (fi != nullptr) {
          if (const auto d = fi->OnCall(ProcKind::kGpu, fault::OpKind::kMap, gr)) {
            switch (d->kind) {
              case fault::FaultKind::kSlowdown:
                map_us *= d->factor;
                break;
              case fault::FaultKind::kTimeout: {
                // The hung map occupies the GPU until the timeout expires —
                // charged through Schedule so gpu_busy_us agrees with the
                // injector's FaultEvent::charged_us (previously the window
                // moved the clock as pure latency and the busy accounting
                // silently dropped it).
                double t0 = 0.0;
                const double end =
                    ctx_.device(ProcKind::kGpu).Schedule(gr, d->timeout_us, DType::kF32, 0.0,
                                                         &t0);
                return ucl::EnqueueResult{ucl::Event{end, t0}, ucl::Status::kTimeout};
              }
              default:
                return ucl::EnqueueResult{ucl::Event{gr, gr}, MapFailureStatus(d->kind)};
            }
          }
        }
        if (trace::Span* s =
                sink.AddSpan(trace::SpanKind::kMap, n.id, ProcKind::kGpu, gr, gr + map_us)) {
          s->op = n.desc.kind;
          s->overhead_us = map_us;
        }
        gr += map_us;
      }
      return ctx_.queue(ProcKind::kGpu)
          .EnqueueKernelAt(gr, gpu_body, cfg.ComputeFor(ProcKind::kGpu), gpu_w.TotalBytes());
    };
    bool gpu_retried = false;
    const std::optional<ucl::Event> gpu_ev = retry_gpu(n, gpu_ready, gpu_attempt, &gpu_retried);
    // The CPU runs its own slice; its kernel-launch overhead applies.
    const double cpu_body = timing.KernelBodyUs(cpu_w, ProcKind::kCpu,
                                                cfg.ComputeFor(ProcKind::kCpu), cfg.cpu_threads);

    if (!gpu_ev.has_value()) {
      // Unrecovered GPU failure: the CPU runs its planned slice, then — one
      // sync later — re-executes the failed GPU channel slice itself with
      // the CPU-flavor kernel. The slices partition the output channels, so
      // the merged result is exactly what the cooperative step produces.
      if (!cfg.fault_cpu_fallback) {
        throw Error(ErrorCode::kFault,
                    "node " + std::to_string(n.id) +
                        ": gpu enqueue unrecovered and cpu fallback is disabled",
                    n.id, ProcKind::kGpu);
      }
      ++rep.fallbacks;
      const ucl::Event cpu_ev =
          must_cpu(n, cpu_free, cpu_body, cfg.ComputeFor(ProcKind::kCpu), cpu_w.TotalBytes());
      record_kernel(n, ProcKind::kCpu, cpu_ev, cpu_w, cpu_body, split.cpu.begin, split.cpu.end,
                    trace::FaultTag::kNone, -1);
      const double fb_ready = cpu_ev.complete_us + timing.SyncUs();
      ++syncs;
      if (trace::Span* s = sink.AddSpan(trace::SpanKind::kSync, n.id, ProcKind::kCpu,
                                        cpu_ev.complete_us, fb_ready)) {
        s->op = n.desc.kind;
        s->overhead_us = timing.SyncUs();
        s->fault = trace::FaultTag::kFallback;
        s->fault_event = last_fault_event();
      }
      const double fb_body = timing.KernelBodyUs(gpu_w, ProcKind::kCpu,
                                                 cfg.ComputeFor(ProcKind::kCpu),
                                                 cfg.cpu_threads);
      const ucl::Event fb_ev =
          must_cpu(n, fb_ready, fb_body, cfg.ComputeFor(ProcKind::kCpu), gpu_w.TotalBytes());
      // The re-execution of the GPU's slice is tagged: it is recovery work,
      // not part of the planned schedule (the old trace logged it as a
      // second indistinguishable CPU kernel).
      record_kernel(n, ProcKind::kCpu, fb_ev, gpu_w, fb_body, split.gpu.begin, split.gpu.end,
                    trace::FaultTag::kFallback, last_fault_event());
      nd = NodeDone{fb_ev, true, false};
      if (input != nullptr) {
        // The GPU's slice, computed with the CPU kernel flavor.
        compute_slices(n, split, ProcKind::kCpu);
      }
      continue;
    }

    const ucl::Event cpu_ev =
        must_cpu(n, cpu_free, cpu_body, cfg.ComputeFor(ProcKind::kCpu), cpu_w.TotalBytes());
    record_kernel(n, ProcKind::kGpu, *gpu_ev, gpu_w, gpu_body, split.gpu.begin, split.gpu.end,
                  gpu_retried ? trace::FaultTag::kRetried : trace::FaultTag::kNone,
                  gpu_retried ? last_fault_event() : -1);
    record_kernel(n, ProcKind::kCpu, cpu_ev, cpu_w, cpu_body, split.cpu.begin, split.cpu.end,
                  trace::FaultTag::kNone, -1);

    double merged = std::max(cpu_ev.complete_us, gpu_ev->complete_us);
    if (!cfg.zero_copy) {
      // Stage the GPU's output slice back for CPU visibility.
      const double out_stage_us = gpu_w.output_bytes / (ctx_.soc().copy_gb_per_s * 1e3);
      double st0 = 0.0;
      merged = cpu.Schedule(merged, out_stage_us, DType::kF32, gpu_w.output_bytes, &st0);
      if (trace::Span* s =
              sink.AddSpan(trace::SpanKind::kStage, n.id, ProcKind::kCpu, st0, merged)) {
        s->op = n.desc.kind;
        s->bytes = gpu_w.output_bytes;
      }
    }
    if (trace::Span* s = sink.AddSpan(trace::SpanKind::kSync, n.id, ProcKind::kCpu, merged,
                                      merged + timing.SyncUs())) {
      s->op = n.desc.kind;
      s->overhead_us = timing.SyncUs();
    }
    merged += timing.SyncUs();
    ++syncs;
    // Both devices resume from the merge point (the executor waits for the
    // GPU before the next layer, Section 6).
    ctx_.device(ProcKind::kCpu).Schedule(merged, 0.0, DType::kF32, 0.0);
    ctx_.device(ProcKind::kGpu).Schedule(merged, 0.0, DType::kF32, 0.0);
    nd = NodeDone{ucl::Event{merged}, true, true};

    if (input != nullptr) {
      compute_slices(n, split, ProcKind::kGpu);
    }
  }

  // --- Result assembly ------------------------------------------------------
  out.latency_us = ctx_.NowUs();
  out.sync_count = syncs;
  const EnergyModel energy(ctx_.soc());
  for (const ProcKind k : {ProcKind::kCpu, ProcKind::kGpu}) {
    const ucl::Device& d = ctx_.device(k);
    double e = 0.0;
    for (const DType t : {DType::kF32, DType::kF16, DType::kQUInt8}) {
      e += energy.ComputeEnergyMj(k, t, d.BusyUs(t), 0.0);
    }
    e += energy.DramEnergyMj(d.TotalBytes());
    if (k == ProcKind::kCpu) {
      out.cpu_busy_us = d.TotalBusyUs();
      out.cpu_energy_mj = e;
    } else {
      out.gpu_busy_us = d.TotalBusyUs();
      out.gpu_energy_mj = e;
    }
  }
  out.idle_energy_mj = energy.IdleEnergyMj(out.latency_us);
  out.total_energy_mj = out.cpu_energy_mj + out.gpu_energy_mj + out.idle_energy_mj;
  if (fi != nullptr) {
    rep.faults_injected = static_cast<int64_t>(fi->events().size());
    rep.slowdowns = fi->slowdown_count();
    rep.events.assign(fi->events().begin(), fi->events().end());
  }
  rep.final_mode = rep.circuit_open
                       ? RunMode::kCpuOnly
                       : (rep.degraded() ? RunMode::kDegraded : RunMode::kNormal);
  if (tracing) {
    // Ground truth the trace-invariant verifier (VerifyRunTrace) checks the
    // spans against.
    trace::RunTrace& rt = out.run_trace;
    rt.latency_us = out.latency_us;
    rt.cpu_busy_us = out.cpu_busy_us;
    rt.gpu_busy_us = out.gpu_busy_us;
    rt.sync_count = syncs;
    rt.slowdowns = fi != nullptr ? fi->slowdown_count() : 0;
    rt.arena_high_water = static_cast<int64_t>(scratch_.high_water());
    if (fi != nullptr) {
      rt.fault_events.assign(fi->events().begin(), fi->events().end());
    }
    trace::FinalizeQueueDepth(rt);
  }
  if (input != nullptr) {
    // Pooled activations are views into executor-owned storage; detach the
    // output so the result outlives this run (and the next run's reuse of
    // the pool).
    const Tensor& o = act[static_cast<size_t>(g.OutputId())];
    out.output = o.is_view() ? o.Clone() : o;
  }
}

}  // namespace ulayer
