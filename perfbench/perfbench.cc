// perfbench: the end-to-end benchmark of the ulayer runtime, on both clocks.
//
// One process runs one workload and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}; the line before
// it carries the run's provenance. perfbench/run.py builds this binary,
// pins the host thread budget, supplies the reference digests and forwards
// both lines. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1 --ref FILE
//             [--short] [--corrupt] [--rev REV]
//   perfbench --workload W --seed N --ref-out FILE [--short]
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Every span is recorded here, around calls into each layer's public
// functions (std::chrono::steady_clock); nothing inside src/ is
// instrumented. Simulated metrics come from the deterministic Exynos
// timeline and never depend on the host.
//
// --ref-out writes the reference digests of the workload's outputs (run it
// with ULAYER_CPU_THREADS=1; ULAYER_SIMD=scalar for the committed ones).
// --corrupt flips one output byte before every digest check, so every
// attempt must fail (the benchmark's own test uses it).

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "core/compute.h"
#include "core/executor.h"
#include "core/memory_plan.h"
#include "core/partitioner.h"
#include "core/predictor.h"
#include "core/prepared.h"
#include "core/runtime.h"
#include "fault/fault.h"
#include "kernels/simd.h"
#include "memory/arena.h"
#include "models/model.h"
#include "parallel/thread_pool.h"
#include "serve/request.h"
#include "serve/server.h"
#include "soc/work.h"
#include "verify/verify.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace ulayer::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- Options -----------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int setups = 1;  // Cold set-ups (DefaultSetups, 1 in short mode).
  bool short_mode = false;
  bool corrupt = false;
  std::string ref_in;
  std::string ref_out;
  std::string rev = "unknown";
  // A timed loop runs for `seconds` and, past that, until it holds
  // min_samples samples, but never longer than kMaxStretch * seconds.
  int min_samples = 100;
};

constexpr double kMaxStretch = 2.5;

// Cold set-ups per run (setup_s and the traced set-up spans are their
// medians): cheap set-ups repeat more often so their median is steady.
// adapt-throttle's setup_s instead comes from one set-up per timed pass
// (the best of them, see RunAdapt); its count here sizes the traced spans
// only.
int DefaultSetups(const std::string& workload) {
  if (workload == "adapt-throttle") {
    return 51;
  }
  return workload == "serve-mixed" ? 2 : 5;
}

// --- Small utilities -----------------------------------------------------------

// Progress on stderr: where a run's wall time goes (set-ups, references, loops).
void LogPhase(const char* what, Clock::time_point t0) {
  std::fprintf(stderr, "perfbench: %-28s %8.3f s\n", what, MsSince(t0) / 1e3);
}

// Linear-interpolation quantile (p in [0, 1]) of an unsorted sample.
double Quantile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) {
    s += x;
  }
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

uint64_t Digest(const Tensor& t) {
  return serve::Fnv1a64(t.raw(), static_cast<size_t>(t.SizeBytes()));
}

// Digest of a sequence of doubles by bit pattern (simulated timelines).
uint64_t DigestDoubles(const std::vector<double>& v) {
  return serve::Fnv1a64(v.data(), v.size() * sizeof(double));
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// Peak resident set of this process, MB (getrusage reports KiB on Linux).
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Current resident set, MB (/proc/self/statm, field 2 in pages).
double CurrentRssMb() {
  std::ifstream f("/proc/self/statm");
  long long size = 0;
  long long resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Mixes the workload seed into a sub-seed for one kind of generated input.
uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// Reference digests: "key hex" lines.
using Digests = std::map<std::string, uint64_t>;

Digests ReadDigests(const std::string& path) {
  Digests d;
  std::ifstream f(path);
  if (!f) {
    throw Error(ErrorCode::kInvalidArgument, "cannot read reference " + path);
  }
  std::string key;
  std::string hex;
  while (f >> key >> hex) {
    d[key] = std::stoull(hex, nullptr, 16);
  }
  return d;
}

void WriteDigests(const std::string& path, const Digests& d) {
  std::ofstream f(path);
  for (const auto& [k, v] : d) {
    f << k << " " << Hex(v) << "\n";
  }
  if (!f) {
    throw Error(ErrorCode::kInvalidArgument, "cannot write reference " + path);
  }
}

uint64_t RefAt(const Digests& ref, const std::string& key) {
  const auto it = ref.find(key);
  if (it == ref.end()) {
    throw Error(ErrorCode::kInvalidArgument, "reference has no digest for '" + key + "'");
  }
  return it->second;
}

// Output digest as the correctness check sees it (--corrupt flips a byte of
// a copy first, so a broken output can never pass).
uint64_t CheckedDigest(const Tensor& out, bool corrupt) {
  if (!corrupt) {
    return Digest(out);
  }
  Tensor bad = out.Clone();
  bad.raw()[0] ^= 0x5a;
  return Digest(bad);
}

// Runs `body` (returns one sample, ms) for `seconds`, then on until
// `min_samples` samples exist, capped at kMaxStretch * seconds.
std::vector<double> TimedLoop(double seconds, int min_samples,
                              const std::function<double()>& body) {
  std::vector<double> samples;
  const Clock::time_point t0 = Clock::now();
  for (;;) {
    samples.push_back(body());
    const double el = MsSince(t0) / 1e3;
    if (el >= seconds && static_cast<int>(samples.size()) >= min_samples) {
      break;
    }
    if (el >= kMaxStretch * seconds) {
      break;
    }
  }
  return samples;
}

// --- Metric sink -------------------------------------------------------------

struct Metric {
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = Metric{value, unit};
  }
  int64_t attempted = 0;
  int64_t failed = 0;

  std::string Json() const {
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (failed == 0 && attempted > 0 ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, m] : metrics_) {
      os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << (std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \"" << m.unit << "\"}";
      first = false;
    }
    os << "}}";
    return os.str();
  }

 private:
  std::map<std::string, Metric> metrics_;
};

// --- Kernel replay (per-layer host accounting) ---------------------------------

// The per-layer kernel flavours reported by name; every other op/flavour is
// folded into kernels.other.
const char* const kKernelKeys[] = {"conv.cpu-qu8", "conv.gpu-f16", "conv.gpu-qu8",
                                   "fc.cpu-qu8",   "fc.gpu-f16",   "fc.gpu-qu8"};

std::string DTypeKey(DType t) {
  switch (t) {
    case DType::kF32:
      return "f32";
    case DType::kF16:
      return "f16";
    case DType::kQUInt8:
      return "qu8";
    default:
      return "i32";
  }
}

struct KernelStat {
  double ms = 0.0;
  double calls = 0.0;
  double macs = 0.0;
  double bytes = 0.0;  // Computed from tensor shapes (soc::ComputeWork).

  void Add(const KernelStat& o, double weight) {
    ms += o.ms * weight;
    calls += o.calls * weight;
    macs += o.macs * weight;
    bytes += o.bytes * weight;
  }
};

using KernelTable = std::map<std::string, KernelStat>;

double TotalMs(const KernelTable& t) {
  double s = 0.0;
  for (const auto& [k, v] : t) {
    s += v.ms;
  }
  return s;
}

// Replays `plan` slice by slice through ComputeNodeSlice, the way the
// executor runs it (ResolveSplit slices, a prepare-sized scratch arena so
// the kernels take their cached paths), timing every slice.
class Replayer {
 public:
  Replayer(const PreparedModel& pm, const Plan& plan)
      : pm_(pm), plan_(plan), scratch_(static_cast<size_t>(BuildMemoryLayout(pm).scratch_bytes)) {
    const Graph& g = pm.graph();
    act_.resize(static_cast<size_t>(g.size()));
    for (const Node& n : g.nodes()) {
      if (n.desc.kind != LayerKind::kInput) {
        act_[static_cast<size_t>(n.id)] = pm.MakeActivation(n.id);
      }
    }
  }

  // One full replay; returns per-flavour stats and leaves the output in
  // output().
  KernelTable Run(const Tensor& input) {
    const Graph& g = pm_.graph();
    const ExecConfig& cfg = pm_.config();
    KernelTable table;
    act_[0] = pm_.PrepareInput(input);
    const auto slice = [&](const Node& n, ProcKind proc, int64_t c0, int64_t c1,
                           const Half* staged) {
      const Clock::time_point t0 = Clock::now();
      ComputeNodeSlice(pm_, n.id, proc, act_, c0, c1, &scratch_, staged);
      const double ms = MsSince(t0);
      const LayerWork w = ComputeWork(g, n, cfg.storage, c0, c1);
      const std::string op(LayerKindName(n.desc.kind));
      std::string key = op + "." + (proc == ProcKind::kCpu ? "cpu" : "gpu") + "-" +
                        DTypeKey(cfg.ComputeFor(proc));
      if (std::find(std::begin(kKernelKeys), std::end(kKernelKeys), key) ==
          std::end(kKernelKeys)) {
        key = "other";
      }
      table[key].Add(KernelStat{ms, 1.0, w.macs, w.TotalBytes()}, 1.0);
    };
    for (const Node& n : g.nodes()) {
      if (n.desc.kind == LayerKind::kInput) {
        continue;
      }
      const NodeAssignment& a = plan_.nodes[static_cast<size_t>(n.id)];
      const int64_t oc = n.out_shape.c;
      const ResolvedSplit split = ResolveSplit(a, oc);
      const bool coop =
          a.kind == StepKind::kCooperative && !split.cpu.empty() && !split.gpu.empty();
      scratch_.Reset();
      if (!coop) {
        const ProcKind proc = a.kind == StepKind::kCooperative
                                  ? (split.gpu.empty() ? ProcKind::kCpu : ProcKind::kGpu)
                                  : a.proc;
        slice(n, proc, 0, oc, nullptr);
        continue;
      }
      const Half* staged = cfg.ComputeFor(ProcKind::kCpu) == DType::kF16 &&
                                   cfg.ComputeFor(ProcKind::kGpu) == DType::kF16
                               ? StageViaF16Cols(pm_, n.id, act_, &scratch_)
                               : nullptr;
      const memory::ScratchArena::Mark mark = scratch_.MarkPoint();
      slice(n, ProcKind::kCpu, split.cpu.begin, split.cpu.end, staged);
      if (staged != nullptr) {
        scratch_.ResetTo(mark);
      } else {
        scratch_.Reset();
      }
      slice(n, ProcKind::kGpu, split.gpu.begin, split.gpu.end, staged);
    }
    return table;
  }

  const Tensor& output() const { return act_[static_cast<size_t>(pm_.graph().OutputId())]; }

 private:
  const PreparedModel& pm_;
  const Plan& plan_;
  memory::ScratchArena scratch_;
  std::vector<Tensor> act_;
};

// Median of each flavour's per-replay stats.
KernelTable MedianTable(const std::vector<KernelTable>& runs) {
  KernelTable out;
  std::map<std::string, std::vector<KernelStat>> by_key;
  for (const KernelTable& t : runs) {
    for (const auto& [k, v] : t) {
      by_key[k].push_back(v);
    }
  }
  for (const auto& [k, vs] : by_key) {
    std::vector<double> ms;
    for (const KernelStat& s : vs) {
      ms.push_back(s.ms);
    }
    out[k] = KernelStat{Median(ms), vs.front().calls, vs.front().macs, vs.front().bytes};
  }
  return out;
}

void ReportKernels(Report& rep, const KernelTable& t, double per_units) {
  const double div = per_units > 0.0 ? per_units : 1.0;
  for (const char* key : kKernelKeys) {
    const auto it = t.find(key);
    const KernelStat s = it != t.end() ? it->second : KernelStat{};
    const std::string p = std::string("kernels.") + key;
    rep.Set(p + ".ms", s.ms / div, "ms");
    rep.Set(p + ".calls", s.calls / div, "count");
    rep.Set(p + ".gmac", s.macs / div / 1e9, "GMAC");
    rep.Set(p + ".mb", s.bytes / div / 1e6, "MB");
    rep.Set(p + ".gmac_per_s", s.ms > 0.0 ? s.macs / 1e9 / (s.ms / 1e3) : 0.0, "GMAC/s");
  }
  const auto it = t.find("other");
  const KernelStat o = it != t.end() ? it->second : KernelStat{};
  rep.Set("kernels.other.ms", o.ms / div, "ms");
  rep.Set("kernels.other.calls", o.calls / div, "count");
}

// parallel.efficiency = kernel time at 1 thread / (N x kernel time at N).
double ThreadEfficiency(const std::function<double()>& kernel_ms, int reps) {
  const int n = parallel::CpuThreads();
  std::vector<double> t1;
  std::vector<double> tn;
  for (int i = 0; i < reps; ++i) {
    parallel::SetCpuThreads(1);
    t1.push_back(kernel_ms());
    parallel::SetCpuThreads(0);
    tn.push_back(kernel_ms());
  }
  parallel::SetCpuThreads(0);
  return Median(t1) / (static_cast<double>(n) * Median(tn));
}

// Timing-only span cost: host us per RunInto(plan, nullptr) with
// ULAYER_TRACE off, then on. Returns {untraced_us, traced_us, spans}.
struct SpanCost {
  double untraced_us = 0.0;
  double traced_us = 0.0;
  double spans = 0.0;
};

SpanCost MeasureSpanCost(const PreparedModel& pm, const SocSpec& soc, const Plan& plan,
                         int runs) {
  Executor exec(pm, soc);
  RunResult r;
  SpanCost c;
  for (int traced = 0; traced < 2; ++traced) {
    if (traced != 0) {
      setenv("ULAYER_TRACE", "1", 1);
    } else {
      unsetenv("ULAYER_TRACE");
    }
    exec.RunInto(plan, nullptr, r);  // Warm-up: capacities settle.
    std::vector<double> us;
    for (int i = 0; i < runs; ++i) {
      const Clock::time_point t0 = Clock::now();
      exec.RunInto(plan, nullptr, r);
      us.push_back(MsSince(t0) * 1e3);
    }
    (traced != 0 ? c.traced_us : c.untraced_us) = Median(us);
    if (traced != 0) {
      c.spans = static_cast<double>(r.run_trace.spans.size());
    }
  }
  unsetenv("ULAYER_TRACE");
  return c;
}

int CountCoop(const Plan& plan) {
  int c = 0;
  for (const NodeAssignment& a : plan.nodes) {
    c += a.kind == StepKind::kCooperative ? 1 : 0;
  }
  return c;
}

// Zero-valued defaults for the per-layer metrics a workload does not touch:
// every workload reports the full per-layer set.
void PerLayerDefaults(Report& rep) {
  for (const char* name :
       {"models.weights_ms", "core.prepare_ms", "core.calibrate_ms", "core.predictor_fit_ms",
        "core.partitioner_build_ms", "core.first_run_ms", "verify.graph_plan_ms",
        "executor.run_ms", "executor.self_ms", "serve.register_ms", "serve.batch_host_ms.b1",
        "serve.batch_host_ms.b2", "serve.batch_host_ms.b4", "serve.batch_host_ms.b8"}) {
    rep.Set(name, 0.0, "ms");
  }
  for (const char* name :
       {"executor.cpu_busy_ms", "executor.gpu_busy_ms", "serve.queue_wait_ms_p50"}) {
    rep.Set(name, 0.0, "ms_sim");
  }
  for (const char* name : {"plan.coop_steps", "plan.branch_groups", "executor.sync_count",
                           "serve.batches", "serve.shed_admission", "serve.shed_expired",
                           "adapt.replans", "adapt.partitioner_builds", "adapt.cache_hits",
                           "trace.spans_per_run", "fault.slowdowns"}) {
    rep.Set(name, 0.0, "count");
  }
  rep.Set("core.prepare_rss_mb", 0.0, "MB");
  rep.Set("memory.pool_mb", 0.0, "MB");
  rep.Set("memory.scratch_mb", 0.0, "MB");
  rep.Set("predictor.mean_abs_rel_err", 0.0, "ratio");
  rep.Set("parallel.efficiency", 0.0, "ratio");
  rep.Set("serve.batch_mean", 0.0, "requests");
  rep.Set("adapt.throttled_speedup", 0.0, "ratio");
  rep.Set("executor.timing_only_us", 0.0, "us");
  rep.Set("executor.timing_only_traced_us", 0.0, "us");
  rep.Set("trace.overhead_us", 0.0, "us");
  ReportKernels(rep, KernelTable{}, 1.0);
}

void ReportSpanCost(Report& rep, const SpanCost& c) {
  rep.Set("executor.timing_only_us", c.untraced_us, "us");
  rep.Set("executor.timing_only_traced_us", c.traced_us, "us");
  rep.Set("trace.overhead_us", c.traced_us - c.untraced_us, "us");
  rep.Set("trace.spans_per_run", c.spans, "count");
}

// Host-clock end-to-end metrics from per-unit samples (ms). host_rps is the
// median over 20 consecutive windows of units per host second, so one stall
// moves one window, not the whole figure.
void ReportHost(Report& rep, const std::vector<double>& ms) {
  const size_t per = std::max<size_t>(1, (ms.size() + 19) / 20);
  std::vector<double> rates;
  for (size_t i = 0; i + per <= ms.size(); i += per) {
    double sum = 0.0;
    for (size_t j = i; j < i + per; ++j) {
      sum += ms[j];
    }
    rates.push_back(static_cast<double>(per) / (sum / 1e3));
  }
  rep.Set("host_ms_p50", Quantile(ms, 0.5), "ms");
  rep.Set("host_ms_p90", Quantile(ms, 0.9), "ms");
  rep.Set("host_rps", Median(rates), "1/s");
  std::fprintf(stderr, "perfbench: %zu host samples, ms p10 %.4f p25 %.4f p50 %.4f p75 %.4f p90 %.4f\n",
               ms.size(), Quantile(ms, 0.1), Quantile(ms, 0.25), Quantile(ms, 0.5),
               Quantile(ms, 0.75), Quantile(ms, 0.9));
}

// --- Closed-loop functional workloads (googlenet-pf, resnet18-qu8) ------------

struct ClosedSpec {
  Model (*make)();
  ExecConfig config;
  SocSpec (*soc)();
};

Model MakeGoogLeNet224() { return MakeGoogLeNet(); }
Model MakeResNet18At224() { return MakeResNet18(); }

struct ClosedInputs {
  Tensor input;
  std::vector<Tensor> calib;
};

ClosedInputs MakeClosedInputs(const Model& model, uint64_t seed) {
  const Shape in_shape = model.graph.node(0).out_shape;
  ClosedInputs in;
  in.input = Tensor(in_shape, DType::kF32);
  FillUniform(in.input, SubSeed(seed, 1));
  for (uint64_t i = 0; i < 2; ++i) {
    Tensor t(in_shape, DType::kF32);
    FillUniform(t, SubSeed(seed, 100 + i));
    in.calib.push_back(std::move(t));
  }
  return in;
}

void RunClosed(const Options& opt, const ClosedSpec& spec, Report& rep) {
  Model model = spec.make();
  Clock::time_point t0 = Clock::now();
  model.MaterializeWeights(SubSeed(opt.seed, 7));
  const double weights_ms = MsSince(t0);
  const ClosedInputs in = MakeClosedInputs(model, opt.seed);
  const SocSpec soc = spec.soc();
  ULayerRuntime::Options ro;
  ro.config = spec.config;

  if (!opt.ref_out.empty()) {
    ULayerRuntime rt(model, soc, ro);
    rt.Calibrate(in.calib);
    const RunResult r = rt.Run(&in.input);
    WriteDigests(opt.ref_out, {{"output", Digest(*r.output)}});
    return;
  }
  const uint64_t ref = RefAt(ReadDigests(opt.ref_in), "output");
  // One attempt per run: the output must match the reference and, when
  // `sim_us` is given, the simulated latency must repeat bit-exactly.
  const auto check = [&](const Tensor& out, double sim_us = -1.0, double want_us = -1.0) {
    ++rep.attempted;
    if (CheckedDigest(out, opt.corrupt) != ref || sim_us != want_us) {
      ++rep.failed;
    }
  };

  if (!opt.trace) {
    // Cold set-ups: construct (prepare + predictor fit + plan + verify),
    // calibrate, first run. The last runtime is the one timed.
    std::vector<double> setup_s;
    std::unique_ptr<ULayerRuntime> rt;
    RunResult first;
    for (int i = 0; i < opt.setups; ++i) {
      rt.reset();
      t0 = Clock::now();
      rt = std::make_unique<ULayerRuntime>(model, soc, ro);
      rt->Calibrate(in.calib);
      first = rt->Run(&in.input);
      setup_s.push_back(MsSince(t0) / 1e3);
      check(*first.output);
    }
    const std::vector<double> ms = TimedLoop(opt.seconds, opt.min_samples, [&] {
      const Clock::time_point s0 = Clock::now();
      const RunResult r = rt->Run(&in.input);
      const double dt = MsSince(s0);
      check(*r.output, r.latency_us, first.latency_us);
      return dt;
    });
    ReportHost(rep, ms);
    rep.Set("sim_ms", first.latency_us / 1e3, "ms_sim");
    rep.Set("sim_ms_p50", first.latency_us / 1e3, "ms_sim");
    rep.Set("sim_ms_p90", first.latency_us / 1e3, "ms_sim");
    rep.Set("sim_mj", first.total_energy_mj, "mJ");
    rep.Set("sim_goodput_rps", 1e6 / first.latency_us, "1/s_sim");
    rep.Set("setup_s", Median(setup_s), "s");
    return;
  }

  // Traced run: the runtime's set-up decomposed into the same public calls
  // the ULayerRuntime constructor makes, each timed.
  PerLayerDefaults(rep);
  rep.Set("models.weights_ms", weights_ms, "ms");
  const TimingModel timing(soc);
  std::map<std::string, std::vector<double>> spans;
  std::unique_ptr<PreparedModel> pm;
  std::unique_ptr<LatencyPredictor> pred;
  std::unique_ptr<Executor> exec;
  Plan plan;
  RunResult res;
  for (int i = 0; i < opt.setups; ++i) {
    exec.reset();
    pred.reset();
    pm.reset();
    const double rss0 = CurrentRssMb();
    t0 = Clock::now();
    pm = std::make_unique<PreparedModel>(model, spec.config);
    spans["core.prepare_ms"].push_back(MsSince(t0));
    spans["core.prepare_rss_mb"].push_back(CurrentRssMb() - rss0);
    t0 = Clock::now();
    pred = std::make_unique<LatencyPredictor>(timing, spec.config,
                                              std::vector<const Graph*>{&model.graph});
    spans["core.predictor_fit_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    plan = Partitioner(model.graph, timing, spec.config, *pred).Build();
    spans["core.partitioner_build_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    ThrowIfErrors("graph", VerifyGraph(model.graph));
    ThrowIfErrors("plan", VerifyPlan(model.graph, plan, spec.config));
    spans["verify.graph_plan_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    pm->Calibrate(in.calib);
    spans["core.calibrate_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    exec = std::make_unique<Executor>(*pm, soc);
    exec->RunInto(plan, &in.input, res);
    spans["core.first_run_ms"].push_back(MsSince(t0));
    check(*res.output);
  }
  for (const auto& [name, v] : spans) {
    rep.Set(name, Median(v), name.ends_with("_mb") ? "MB" : "ms");
  }

  // Traced loop: the executor's RunInto, then the same plan replayed slice
  // by slice; the replay must reproduce the executor's output exactly.
  Replayer replay(*pm, plan);
  std::vector<double> run_ms;
  std::vector<KernelTable> tables;
  TimedLoop(opt.seconds, 1, [&] {
    const Clock::time_point s0 = Clock::now();
    exec->RunInto(plan, &in.input, res);
    run_ms.push_back(MsSince(s0));
    check(*res.output);
    tables.push_back(replay.Run(in.input));
    check(replay.output());
    return run_ms.back();
  });
  const KernelTable kt = MedianTable(tables);
  ReportKernels(rep, kt, 1.0);
  std::vector<double> kernel_total;
  for (const KernelTable& t : tables) {
    kernel_total.push_back(TotalMs(t));
  }
  rep.Set("executor.run_ms", Median(run_ms), "ms");
  rep.Set("executor.self_ms", Median(run_ms) - Median(kernel_total), "ms");
  rep.Set("parallel.efficiency",
          ThreadEfficiency([&] { return TotalMs(replay.Run(in.input)); }, opt.short_mode ? 1 : 2),
          "ratio");

  rep.Set("plan.coop_steps", CountCoop(plan), "count");
  rep.Set("plan.branch_groups", static_cast<double>(plan.branch_plans.size()), "count");
  rep.Set("executor.sync_count", res.sync_count, "count");
  rep.Set("executor.cpu_busy_ms", res.cpu_busy_us / 1e3, "ms_sim");
  rep.Set("executor.gpu_busy_ms", res.gpu_busy_us / 1e3, "ms_sim");
  rep.Set("predictor.mean_abs_rel_err", pred->Evaluate(model.graph).mean_abs_rel_err, "ratio");
  const MemoryLayout layout = BuildMemoryLayout(*pm);
  rep.Set("memory.pool_mb", static_cast<double>(layout.pool_bytes) / 1e6, "MB");
  rep.Set("memory.scratch_mb", static_cast<double>(layout.scratch_bytes) / 1e6, "MB");
  ReportSpanCost(rep, MeasureSpanCost(*pm, soc, plan, opt.short_mode ? 50 : 2000));
}

// --- serve-mixed ---------------------------------------------------------------

const std::vector<std::string> kServeFamilies = {"lenet5", "alexnet", "squeezenet"};
const std::vector<int> kServeBatches = {1, 2, 4, 8};

serve::ServerOptions ServeOptions(bool functional, uint64_t seed) {
  serve::ServerOptions so;
  so.cache.batch_sizes = kServeBatches;
  so.cache.lanes = 2;
  so.cache.functional = functional;
  so.cache.image_hw = 64;
  so.cache.calibration_seed = SubSeed(seed, 11);
  so.queue_capacity = 64;
  so.admission_control = true;
  return so;
}

// Open-loop arrivals at 2x the batch=1 saturation rate, deadlines as in
// bench/serving_bench. Families are dealt round-robin in arrival order so
// every trace serves the same mix; everything else is GenerateTrace's. A
// non-zero `payload_seed` re-seeds every request's input tensor.
std::vector<serve::Request> ServeTrace(serve::ModelCache& cache, uint64_t seed, int n,
                                       uint64_t payload_seed = 0) {
  double service_sum = 0.0;
  double service_max = 0.0;
  for (const std::string& f : kServeFamilies) {
    const double s1 = cache.ServiceUs(f, 1);
    service_sum += s1;
    service_max = std::max(service_max, s1);
  }
  const double service_mean = service_sum / static_cast<double>(kServeFamilies.size());
  serve::TraceSpec ts;
  ts.seed = seed;
  ts.num_requests = n;
  ts.duration_us = static_cast<double>(n) * service_mean / 2.0;
  ts.models = kServeFamilies;
  ts.sessions = 8;
  ts.interactive_fraction = 0.5;
  ts.interactive_deadline_us = 10.0 * service_max;
  ts.batch_deadline_us = 50.0 * service_max;
  std::vector<serve::Request> trace = serve::GenerateTrace(ts);
  for (size_t i = 0; i < trace.size(); ++i) {
    trace[i].model = kServeFamilies[i % kServeFamilies.size()];
    if (payload_seed != 0) {
      trace[i].input_seed = SubSeed(payload_seed, i);
    }
  }
  return trace;
}

std::unique_ptr<serve::Server> MakeServer(bool functional, uint64_t seed) {
  auto server = std::make_unique<serve::Server>(MakeExynos7420(), ExecConfig::ProcessorFriendly(),
                                                ServeOptions(functional, seed));
  for (const std::string& f : kServeFamilies) {
    server->RegisterModel(f);
  }
  return server;
}

void RunServe(const Options& opt, Report& rep) {
  // The functional window (host metrics, digests) and a longer
  // simulate-only trace of the same arrival process (simulated metrics).
  // The window's arrival schedule is fixed, so every seed gives the host the
  // same batches to run; its payloads and calibration come from the seed.
  const int n_func = opt.short_mode ? 12 : 24;
  const int n_sim = opt.short_mode ? 2000 : 100000;
  constexpr uint64_t kWindowSchedule = 0x5e77e;
  const uint64_t payload_seed = SubSeed(opt.seed, 21);
  const uint64_t sim_seed = SubSeed(opt.seed, 22);

  if (!opt.ref_out.empty()) {
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<serve::Server> server = MakeServer(true, opt.seed);
    LogPhase("register", t0);
    t0 = Clock::now();
    const serve::ServeReport r = server->Run(
        ServeTrace(server->cache(), kWindowSchedule, n_func, payload_seed));
    LogPhase("reference pass", t0);
    Digests d;
    for (const serve::Completion& c : r.completions) {
      if (c.outcome == serve::Outcome::kCompleted) {
        d["req" + std::to_string(c.id)] = c.output_digest;
      }
    }
    WriteDigests(opt.ref_out, d);
    return;
  }
  const Digests ref = ReadDigests(opt.ref_in);
  const auto check = [&](const serve::ServeReport& r) {
    for (const serve::Completion& c : r.completions) {
      ++rep.attempted;
      if (c.outcome != serve::Outcome::kCompleted) {
        continue;  // Shed: counted by met_frac, not a failure.
      }
      const auto it = ref.find("req" + std::to_string(c.id));
      const uint64_t got = opt.corrupt ? c.output_digest ^ 1u : c.output_digest;
      if (it == ref.end() || it->second != got) {
        ++rep.failed;
      }
    }
  };

  std::vector<double> setup_s;
  std::unique_ptr<serve::Server> server;
  const Clock::time_point t_setup = Clock::now();
  for (int i = 0; i < opt.setups; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = MakeServer(true, opt.seed);
    setup_s.push_back(MsSince(t0) / 1e3);
  }
  LogPhase("set-ups", t_setup);
  const std::vector<serve::Request> trace =
      ServeTrace(server->cache(), kWindowSchedule, n_func, payload_seed);

  // Warm-up pass: lane arenas and activation pools are built on a lane's
  // first functional run.
  Clock::time_point t_warm = Clock::now();
  const serve::ServeReport first = server->Run(trace);
  check(first);
  LogPhase("warm-up pass", t_warm);

  // Re-executes one recorded batch on its lane exactly as Server::Run did
  // (same request payloads, same plan) and checks every row's digest.
  // Returns the host ms of the batch.
  const auto replay_batch = [&](const serve::BatchRecord& br) {
    serve::ModelCache::Entry& e = server->cache().entry(br.model, br.batch);
    serve::ModelCache::Lane& lane = *e.lanes[static_cast<size_t>(br.lane)];
    const Clock::time_point t0 = Clock::now();
    const int64_t row = lane.image.SizeBytes();
    for (size_t i = 0; i < br.ids.size(); ++i) {
      FillUniform(lane.image, trace[static_cast<size_t>(br.ids[i])].input_seed);
      std::memcpy(lane.staging.raw() + static_cast<int64_t>(i) * row, lane.image.raw(),
                  static_cast<size_t>(row));
    }
    lane.exec.RunInto(e.plan, &lane.staging, lane.result);
    const double dt = MsSince(t0);
    const Tensor& out = *lane.result.output;
    const int64_t out_row = out.SizeBytes() / br.batch;
    for (size_t i = 0; i < br.ids.size(); ++i) {
      ++rep.attempted;
      const uint64_t got = serve::Fnv1a64(out.raw() + static_cast<int64_t>(i) * out_row,
                                          static_cast<size_t>(out_row));
      const auto it = ref.find("req" + std::to_string(br.ids[i]));
      if (it == ref.end() || it->second != (opt.corrupt ? got ^ 1u : got)) {
        ++rep.failed;
      }
    }
    return dt;
  };

  if (!opt.trace) {
    // Timed Server::Run passes for part of the budget; the rest replays the
    // executed batches on their lanes for per-request host latency, in whole
    // cycles over the batch list so every run samples the same request mix.
    std::vector<double> pass_rps;
    TimedLoop(opt.seconds * 0.4, 1, [&] {
      const Clock::time_point t0 = Clock::now();
      const serve::ServeReport r = server->Run(trace);
      const double ms = MsSince(t0);
      pass_rps.push_back(static_cast<double>(r.completed) / (ms / 1e3));
      check(r);
      return ms;
    });
    std::vector<double> req_ms;
    const double replay_s = opt.seconds * 0.6;
    const Clock::time_point t_replay = Clock::now();
    do {
      for (const serve::BatchRecord& br : first.batches) {
        const double dt = replay_batch(br);
        req_ms.insert(req_ms.end(), br.ids.size(), dt / static_cast<double>(br.ids.size()));
      }
    } while ((MsSince(t_replay) < replay_s * 1e3 ||
              static_cast<int>(req_ms.size()) < opt.min_samples) &&
             MsSince(t_replay) < kMaxStretch * replay_s * 1e3);
    rep.Set("host_ms_p50", Quantile(req_ms, 0.5), "ms");
    rep.Set("host_ms_p90", Quantile(req_ms, 0.9), "ms");
    rep.Set("host_rps", Median(pass_rps), "1/s");

    // Simulated metrics: the same server configuration, simulate-only, over
    // a longer trace of the same arrival process.
    const Clock::time_point t_sim = Clock::now();
    std::unique_ptr<serve::Server> sim = MakeServer(false, opt.seed);
    const serve::ServeReport s = sim->Run(ServeTrace(sim->cache(), sim_seed, n_sim));
    LogPhase("simulate-only trace", t_sim);
    std::vector<double> lat_ms;
    double energy = 0.0;
    std::map<std::pair<std::string, int>, double> batch_mj;
    for (const serve::BatchRecord& br : s.batches) {
      const auto key = std::make_pair(br.model, br.batch);
      if (batch_mj.find(key) == batch_mj.end()) {
        serve::ModelCache::Entry& e = sim->cache().entry(br.model, br.batch);
        batch_mj[key] = e.lanes[0]->exec.Run(e.plan).total_energy_mj;
      }
      energy += batch_mj[key];
    }
    for (const serve::Completion& c : s.completions) {
      if (c.outcome == serve::Outcome::kCompleted) {
        lat_ms.push_back(c.latency_us / 1e3);
      }
    }
    const double sent = static_cast<double>(s.completed + s.shed);
    rep.Set("sim_ms", Mean(lat_ms), "ms_sim");
    rep.Set("sim_ms_p50", Quantile(lat_ms, 0.5), "ms_sim");
    rep.Set("sim_ms_p90", Quantile(lat_ms, 0.9), "ms_sim");
    rep.Set("sim_mj", energy / static_cast<double>(s.completed), "mJ");
    rep.Set("sim_goodput_rps", static_cast<double>(s.deadline_met) * 1e6 / s.makespan_us,
            "1/s_sim");
    rep.Set("met_frac", static_cast<double>(s.deadline_met) / sent, "fraction");
    rep.Set("setup_s", Median(setup_s), "s");
    return;
  }

  // Traced run: serving-layer view of the functional pass, host time per
  // batch size, and the kernels of every executed (family, batch) entry.
  PerLayerDefaults(rep);
  rep.Set("serve.register_ms", Median(setup_s) * 1e3, "ms");
  std::vector<double> wait_ms;
  std::map<int64_t, double> arrival;
  for (const serve::Request& r : trace) {
    arrival[r.id] = r.arrival_us;
  }
  for (const serve::BatchRecord& br : first.batches) {
    for (int64_t id : br.ids) {
      wait_ms.push_back((br.start_us - arrival[id]) / 1e3);
    }
  }
  int64_t shed_adm = 0;
  int64_t shed_exp = 0;
  for (const serve::Completion& c : first.completions) {
    shed_adm += c.outcome == serve::Outcome::kShedDeadline ||
                c.outcome == serve::Outcome::kShedQueueFull;
    shed_exp += c.outcome == serve::Outcome::kShedExpired;
  }
  rep.Set("serve.queue_wait_ms_p50", Quantile(wait_ms, 0.5), "ms_sim");
  rep.Set("serve.batch_mean", first.MeanBatchSize(), "requests");
  rep.Set("serve.batches", static_cast<double>(first.batches.size()), "count");
  rep.Set("serve.shed_admission", static_cast<double>(shed_adm), "count");
  rep.Set("serve.shed_expired", static_cast<double>(shed_exp), "count");

  std::map<int, std::vector<double>> by_batch;
  std::map<std::pair<std::string, int>, int> entry_uses;
  size_t next = 0;
  TimedLoop(opt.seconds * 0.5, 1, [&] {
    const serve::BatchRecord& br = first.batches[next++ % first.batches.size()];
    const double dt = replay_batch(br);
    by_batch[br.batch].push_back(dt);
    return dt;
  });
  for (const auto& [b, v] : by_batch) {
    rep.Set("serve.batch_host_ms.b" + std::to_string(b), Median(v), "ms");
  }
  for (const serve::BatchRecord& br : first.batches) {
    ++entry_uses[{br.model, br.batch}];
  }

  // Kernel replay: each executed entry once, weighted by its batch count,
  // reported per completed request. The input is lane 0's last staged batch;
  // kernel time does not depend on the values.
  struct EntryReplay {
    std::unique_ptr<Replayer> replayer;
    Tensor input;
    double uses = 0.0;
  };
  std::vector<EntryReplay> entries;
  KernelTable total;
  double coop = 0.0;
  double groups = 0.0;
  double pool = 0.0;
  double scratch = 0.0;
  for (const auto& [key, uses] : entry_uses) {
    serve::ModelCache::Entry& e = server->cache().entry(key.first, key.second);
    EntryReplay& er = entries.emplace_back(EntryReplay{
        std::make_unique<Replayer>(*e.prepared, e.plan), e.lanes[0]->staging.Clone(),
        static_cast<double>(uses)});
    for (const auto& [k, v] : er.replayer->Run(er.input)) {
      total[k].Add(v, er.uses);
    }
    coop += CountCoop(e.plan);
    groups += static_cast<double>(e.plan.branch_plans.size());
    const MemoryLayout layout = BuildMemoryLayout(*e.prepared);
    const auto lanes = static_cast<double>(e.lanes.size());
    pool += static_cast<double>(layout.pool_bytes) * lanes;
    scratch += static_cast<double>(layout.scratch_bytes) * lanes;
  }
  ReportKernels(rep, total, static_cast<double>(first.completed));
  rep.Set("parallel.efficiency", ThreadEfficiency([&] {
            double ms = 0.0;
            for (EntryReplay& er : entries) {
              ms += er.uses * TotalMs(er.replayer->Run(er.input));
            }
            return ms;
          }, 1),
          "ratio");
  rep.Set("plan.coop_steps", coop, "count");
  rep.Set("plan.branch_groups", groups, "count");
  rep.Set("memory.pool_mb", pool / 1e6, "MB");
  rep.Set("memory.scratch_mb", scratch / 1e6, "MB");
  serve::ModelCache::Entry& e1 = server->cache().entry("alexnet", 1);
  ReportSpanCost(rep, MeasureSpanCost(*e1.prepared, MakeExynos7420(), e1.plan,
                                      opt.short_mode ? 50 : 2000));
}

// --- adapt-throttle ----------------------------------------------------------------

constexpr const char* kThrottleSpec = "gpu.kernel=slow:2.5";  // scripts/ci_adapt.spec

struct Phase {
  bool throttled = false;
  int runs = 0;
};

// Ramp cycles of kCycleRuns runs: clean -> throttle -> recovery, with
// seeded clean and throttle lengths. The fixed cycle length keeps the share
// of pre-replan throttled runs (2-3 per cycle) below a tenth for every seed,
// so sim_ms_p90 never flips between two latency levels; the recovery (24+
// runs) is long enough for the corrections to decay back to the baseline.
constexpr int kCycleRuns = 40;

std::vector<Phase> RampSchedule(uint64_t seed, int cycles) {
  std::vector<Phase> s;
  uint64_t x = SubSeed(seed, 31);
  const auto draw = [&x](int lo, int hi) {
    x = SubSeed(x, 1);
    return lo + static_cast<int>(x % static_cast<uint64_t>(hi - lo + 1));
  };
  for (int c = 0; c < cycles; ++c) {
    const int clean = draw(2, 4);
    const int throttled = draw(6, 12);
    s.push_back({false, clean});
    s.push_back({true, throttled});
    s.push_back({false, kCycleRuns - clean - throttled});
  }
  return s;
}

struct RampResult {
  std::vector<double> sim_us;
  std::vector<double> energy_mj;
  std::vector<double> host_ms;
  double throttled_sim_us = 0.0;
  int64_t slowdowns = 0;
};

RampResult RunRamp(ULayerRuntime& rt, const std::vector<Phase>& schedule,
                   const fault::FaultPlan& throttle) {
  RampResult out;
  const fault::FaultPlan clean;
  for (const Phase& ph : schedule) {
    rt.SetFaultPlan(ph.throttled ? throttle : clean);
    for (int i = 0; i < ph.runs; ++i) {
      const Clock::time_point t0 = Clock::now();
      const RunResult r = rt.Run();
      out.host_ms.push_back(MsSince(t0));
      out.sim_us.push_back(r.latency_us);
      out.energy_mj.push_back(r.total_energy_mj);
      out.slowdowns += r.degradation.slowdowns;
      if (ph.throttled) {
        out.throttled_sim_us += r.latency_us;
      }
    }
  }
  return out;
}

void RunAdapt(const Options& opt, Report& rep) {
  const Model model = MakeGoogLeNet();
  const SocSpec soc = MakeExynos7420();
  const std::vector<Phase> schedule = RampSchedule(opt.seed, opt.short_mode ? 4 : 40);
  const fault::FaultPlan throttle = fault::FaultPlan::Parse(kThrottleSpec);
  ULayerRuntime::Options ro;
  ro.config = ExecConfig::ProcessorFriendly();
  ro.adapt.enabled = true;

  if (!opt.ref_out.empty()) {
    ULayerRuntime rt(model, soc, ro);
    rt.Run();
    WriteDigests(opt.ref_out, {{"ramp", DigestDoubles(RunRamp(rt, schedule, throttle).sim_us)}});
    return;
  }
  const uint64_t ref = RefAt(ReadDigests(opt.ref_in), "ramp");

  // A cold set-up: construct the runtime and run it once.
  const auto setup = [&] {
    auto r = std::make_unique<ULayerRuntime>(model, soc, ro);
    r->Run();
    return r;
  };
  std::unique_ptr<ULayerRuntime> rt = setup();
  // Every pass restores the post-set-up adaptive state, so each pass must
  // reproduce the first one's simulated timeline exactly.
  const ULayerRuntime::AdaptSnapshot snap = rt->Snapshot();
  const RampResult first = RunRamp(*rt, schedule, throttle);
  const int64_t first_replans = rt->replans();
  const int64_t first_builds = rt->partitioner_builds();
  const int64_t first_hits = rt->plan_cache().stats().hits;
  const auto check_pass = [&](const RampResult& r) {
    const bool ok = (opt.corrupt ? DigestDoubles(r.sim_us) ^ 1u : DigestDoubles(r.sim_us)) == ref;
    rep.attempted += static_cast<int64_t>(r.sim_us.size());
    rep.failed += ok ? 0 : static_cast<int64_t>(r.sim_us.size());
  };
  check_pass(first);

  // On a shared host the machine's speed changes by up to 2x from one second
  // to the next with other tenants' load, so a median over every 20-us Run
  // of a run lands on either level from run to run. Each host figure is
  // therefore taken per timed pass (one ramp, about 50 ms, which rarely
  // straddles a change of level) and reported for the best pass: a change
  // to the program moves every pass alike, and the best pass is what
  // repeats. Each pass also times one cold set-up, so set-ups are sampled
  // across the whole run like the Runs are.
  std::vector<double> pass_p50;
  std::vector<double> pass_p90;
  std::vector<double> pass_rps;
  std::vector<double> pass_setup_s;
  TimedLoop(opt.seconds, 1, [&] {
    {
      const Clock::time_point t0 = Clock::now();
      const std::unique_ptr<ULayerRuntime> cold = setup();
      pass_setup_s.push_back(MsSince(t0) / 1e3);
    }
    rt->Restore(snap);
    const RampResult r = RunRamp(*rt, schedule, throttle);
    check_pass(r);
    pass_p50.push_back(Quantile(r.host_ms, 0.5));
    pass_p90.push_back(Quantile(r.host_ms, 0.9));
    const double mean_ms = Mean(r.host_ms);
    pass_rps.push_back(1e3 / mean_ms);
    return mean_ms;
  });
  const double host_p50 = std::ranges::min(pass_p50);
  std::fprintf(stderr, "perfbench: %zu passes of %zu runs, pass p50 ms min %.5f median %.5f max %.5f\n",
               pass_p50.size(), first.host_ms.size(), host_p50, Median(pass_p50),
               std::ranges::max(pass_p50));

  if (!opt.trace) {
    rep.Set("host_ms_p50", host_p50, "ms");
    rep.Set("host_ms_p90", std::ranges::min(pass_p90), "ms");
    rep.Set("host_rps", std::ranges::max(pass_rps), "1/s");
    std::vector<double> sim_ms;
    for (double x : first.sim_us) {
      sim_ms.push_back(x / 1e3);
    }
    rep.Set("sim_ms", Mean(sim_ms), "ms_sim");
    rep.Set("sim_ms_p50", Quantile(sim_ms, 0.5), "ms_sim");
    rep.Set("sim_ms_p90", Quantile(sim_ms, 0.9), "ms_sim");
    rep.Set("sim_mj", Mean(first.energy_mj), "mJ");
    rep.Set("sim_goodput_rps", 1e3 / Mean(sim_ms), "1/s_sim");
    rep.Set("setup_s", std::ranges::min(pass_setup_s), "s");
    return;
  }

  PerLayerDefaults(rep);
  // Set-up spans of the simulate-only runtime: no weights, no calibration.
  const ExecConfig cfg = ExecConfig::ProcessorFriendly();
  const TimingModel timing(soc);
  std::map<std::string, std::vector<double>> spans;
  std::unique_ptr<PreparedModel> pm;
  std::unique_ptr<LatencyPredictor> pred;
  Plan plan;
  for (int i = 0; i < opt.setups; ++i) {
    pred.reset();
    pm.reset();
    Clock::time_point t0 = Clock::now();
    pm = std::make_unique<PreparedModel>(model, cfg);
    spans["core.prepare_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    pred = std::make_unique<LatencyPredictor>(timing, cfg, std::vector<const Graph*>{&model.graph});
    spans["core.predictor_fit_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    plan = Partitioner(model.graph, timing, cfg, *pred).Build();
    spans["core.partitioner_build_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    ThrowIfErrors("graph", VerifyGraph(model.graph));
    ThrowIfErrors("plan", VerifyPlan(model.graph, plan, cfg));
    spans["verify.graph_plan_ms"].push_back(MsSince(t0));
    t0 = Clock::now();
    Executor exec(*pm, soc);
    exec.Run(plan);
    spans["core.first_run_ms"].push_back(MsSince(t0));
  }
  for (const auto& [name, v] : spans) {
    rep.Set(name, Median(v), "ms");
  }
  const RunResult base = Executor(*pm, soc).Run(plan);
  rep.Set("plan.coop_steps", CountCoop(plan), "count");
  rep.Set("plan.branch_groups", static_cast<double>(plan.branch_plans.size()), "count");
  rep.Set("executor.sync_count", base.sync_count, "count");
  rep.Set("executor.cpu_busy_ms", base.cpu_busy_us / 1e3, "ms_sim");
  rep.Set("executor.gpu_busy_ms", base.gpu_busy_us / 1e3, "ms_sim");
  rep.Set("predictor.mean_abs_rel_err", pred->Evaluate(model.graph).mean_abs_rel_err, "ratio");
  rep.Set("executor.run_ms", host_p50, "ms");
  rep.Set("executor.self_ms", host_p50, "ms");
  rep.Set("adapt.replans", static_cast<double>(first_replans), "count");
  rep.Set("adapt.partitioner_builds", static_cast<double>(first_builds), "count");
  rep.Set("adapt.cache_hits", static_cast<double>(first_hits), "count");
  rep.Set("fault.slowdowns", static_cast<double>(first.slowdowns), "count");

  // A static runtime (no replans) over the same ramp.
  ULayerRuntime::Options so = ro;
  so.adapt.enabled = false;
  so.degradation_replan = false;
  ULayerRuntime static_rt(model, soc, so);
  const RampResult st = RunRamp(static_rt, schedule, throttle);
  rep.Set("adapt.throttled_speedup", st.throttled_sim_us / first.throttled_sim_us, "ratio");
  ReportSpanCost(rep, MeasureSpanCost(*pm, soc, plan, opt.short_mode ? 200 : 20000));
}

// --- Entry point -------------------------------------------------------------------

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload googlenet-pf|resnet18-qu8|serve-mixed|adapt-throttle"
               " --seed N (--ref FILE [--seconds S] [--trace 0|1] [--corrupt]"
               " [--rev REV] | --ref-out FILE) [--short]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      opt.seed = std::stoull(argv[++i]);
    } else if (a == "--seconds" && has_value) {
      opt.seconds = std::stod(argv[++i]);
    } else if (a == "--trace" && has_value) {
      opt.trace = std::string(argv[++i]) == "1";
    } else if (a == "--ref" && has_value) {
      opt.ref_in = argv[++i];
    } else if (a == "--ref-out" && has_value) {
      opt.ref_out = argv[++i];
    } else if (a == "--rev" && has_value) {
      opt.rev = argv[++i];
    } else if (a == "--short") {
      opt.short_mode = true;
    } else if (a == "--corrupt") {
      opt.corrupt = true;
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || (opt.ref_in.empty() == opt.ref_out.empty())) {
    return Usage();
  }
  if (opt.short_mode) {
    opt.min_samples = 3;
  } else {
    opt.setups = DefaultSetups(opt.workload);
  }
#ifndef NDEBUG
  if (opt.ref_out.empty()) {
    std::fprintf(stderr,
                 "perfbench: refusing to time a build without NDEBUG (asserts and "
                 "ExecConfig::analyze are on); configure with -DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
#endif
  // The simulated clock must not see the host: ExecConfig::cpu_threads stays
  // 0 everywhere, and the host budget comes from ULAYER_CPU_THREADS alone.
  unsetenv("ULAYER_TRACE");

  std::printf(
      "{\"provenance\": {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, \"isa\": \"%s\", "
      "\"threads\": %d, \"nproc\": %u, \"build_type\": \"%s\", \"rev\": \"%s\", \"setups\": %d, "
      "\"short\": %s}}\n",
      opt.workload.c_str(), static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0,
      simd::IsaName(simd::ActiveIsa()), parallel::CpuThreads(),
      std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE, opt.rev.c_str(), opt.setups,
      opt.short_mode ? "true" : "false");
  std::fflush(stdout);

  Report rep;
  if (opt.workload == "googlenet-pf") {
    RunClosed(opt, {MakeGoogLeNet224, ExecConfig::ProcessorFriendly(), MakeExynos7420}, rep);
  } else if (opt.workload == "resnet18-qu8") {
    RunClosed(opt, {MakeResNet18At224, ExecConfig::AllQU8(), MakeExynos7880}, rep);
  } else if (opt.workload == "serve-mixed") {
    RunServe(opt, rep);
  } else if (opt.workload == "adapt-throttle") {
    RunAdapt(opt, rep);
  } else {
    return Usage();
  }
  if (!opt.ref_out.empty()) {
    return 0;
  }
  if (!opt.trace) {
    rep.Set("peak_rss_mb", PeakRssMb(), "MB");
    if (opt.workload != "serve-mixed") {
      // Closed loops have no deadline: a run meets it when it completes with
      // the reference output.
      rep.Set("met_frac",
              static_cast<double>(rep.attempted - rep.failed) /
                  static_cast<double>(std::max<int64_t>(rep.attempted, 1)),
              "fraction");
    }
  }
  std::printf("%s\n", rep.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace ulayer::perfbench

int main(int argc, char** argv) {
  try {
    return ulayer::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
