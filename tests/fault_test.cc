// Fault-tolerant execution (DESIGN.md Section 10): fault-spec parsing,
// deterministic injection, executor recovery (retry / CPU fallback /
// circuit breaker) and the runtime's degradation policy.
#include "fault/fault.h"

#include <algorithm>
#include <cctype>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "baselines/baselines.h"
#include "common/error.h"
#include "core/runtime.h"
#include "tensor/tensor.h"
#include "trace/trace.h"
#include "verify/verify.h"

namespace ulayer {
namespace {

using fault::FaultKind;
using fault::FaultPlan;
using fault::FaultRule;
using fault::OpKind;

Plan MakeHalfSplitPlan(const Graph& g) {
  Plan plan = MakeSingleProcessorPlan(g, ProcKind::kCpu);
  for (const Node& n : g.nodes()) {
    if (n.desc.kind == LayerKind::kInput || n.desc.kind == LayerKind::kSoftmax ||
        n.desc.kind == LayerKind::kConcat || n.out_shape.c < 2) {
      continue;
    }
    NodeAssignment& a = plan.nodes[static_cast<size_t>(n.id)];
    a.kind = StepKind::kCooperative;
    a.cpu_fraction = 0.5;
  }
  return plan;
}

void ExpectSameBytes(const Tensor& a, const Tensor& b) {
  ASSERT_EQ(a.SizeBytes(), b.SizeBytes());
  EXPECT_EQ(std::memcmp(a.raw(), b.raw(), static_cast<size_t>(a.SizeBytes())), 0);
}

// --- Spec parsing -----------------------------------------------------------

// ToString round-trips through Parse field by field. The awkward values
// need the shortest round-trip form: a 6-significant-digit printer turns
// slow:1.0000001 into slow:1 and timeout:1234567.5 into 1.23457e+06.
TEST(FaultSpecTest, ParseRoundTrips) {
  const std::string spec =
      "seed=18446744073709551615;gpu.kernel@call:3=enqueue-failed;"
      "gpu.any@prob:0.1=timeout:500;cpu.map@node:7@limit:2=map-failed;gpu.kernel=slow:2.5;"
      "gpu.unmap=device-lost;gpu.kernel@node:2147483647@call:9223372036854775807="
      "slow:1.0000001;cpu.any@prob:0.30000000000000004=timeout:1234567.5;"
      "gpu.map@prob:1e-300=slow:1e+300";
  const FaultPlan plan = FaultPlan::Parse(spec);
  EXPECT_EQ(plan.seed, 18446744073709551615ull);
  ASSERT_EQ(plan.rules.size(), 8u);
  EXPECT_EQ(plan.rules[0].device, ProcKind::kGpu);
  EXPECT_EQ(plan.rules[0].op, OpKind::kKernel);
  EXPECT_EQ(plan.rules[0].call, 3);
  EXPECT_EQ(plan.rules[0].kind, FaultKind::kEnqueueFailed);
  EXPECT_EQ(plan.rules[1].op, OpKind::kAny);
  EXPECT_DOUBLE_EQ(plan.rules[1].probability, 0.1);
  EXPECT_DOUBLE_EQ(plan.rules[1].timeout_us, 500.0);
  EXPECT_EQ(plan.rules[2].device, ProcKind::kCpu);
  EXPECT_EQ(plan.rules[2].node, 7);
  EXPECT_EQ(plan.rules[2].limit, 2);
  EXPECT_DOUBLE_EQ(plan.rules[3].factor, 2.5);
  EXPECT_EQ(plan.rules[4].kind, FaultKind::kDeviceLost);
  EXPECT_EQ(plan.rules[5].factor, 1.0000001);
  EXPECT_EQ(plan.rules[6].timeout_us, 1234567.5);
  // The usual values keep their short spelling.
  EXPECT_EQ(plan.rules[1].ToString(), "gpu.any@prob:0.1=timeout:500");
  EXPECT_EQ(plan.rules[3].ToString(), "gpu.kernel=slow:2.5");

  const FaultPlan again = FaultPlan::Parse(plan.ToString());
  EXPECT_EQ(again.ToString(), plan.ToString());
  EXPECT_EQ(again.seed, plan.seed);
  ASSERT_EQ(again.rules.size(), plan.rules.size());
  for (size_t i = 0; i < plan.rules.size(); ++i) {
    const FaultRule& a = plan.rules[i];
    const FaultRule& b = again.rules[i];
    EXPECT_EQ(a.device, b.device) << i;
    EXPECT_EQ(a.op, b.op) << i;
    EXPECT_EQ(a.kind, b.kind) << i;
    EXPECT_EQ(a.node, b.node) << i;
    EXPECT_EQ(a.call, b.call) << i;
    EXPECT_EQ(a.probability, b.probability) << i;
    EXPECT_EQ(a.limit, b.limit) << i;
    EXPECT_EQ(a.timeout_us, b.timeout_us) << i;
    EXPECT_EQ(a.factor, b.factor) << i;
  }
}

TEST(FaultSpecTest, EmptyAndWhitespaceSpecsAreEmptyPlans) {
  EXPECT_TRUE(FaultPlan::Parse("").empty());
  EXPECT_TRUE(FaultPlan::Parse("  \t ").empty());
  EXPECT_TRUE(FaultPlan::Parse(";;").empty());
}

TEST(FaultSpecTest, MalformedSpecsThrowTypedParseErrors) {
  const char* bad[] = {
      "gpu.kernel",                      // no effect
      "tpu.kernel=enqueue-failed",       // unknown device
      "gpu.warp=enqueue-failed",         // unknown op
      "gpu.kernel=explode",              // unknown effect
      "gpu.kernel@call:0=device-lost",   // call is 1-based
      "gpu.kernel@prob:1.5=device-lost", // prob out of (0, 1]
      "gpu.kernel@prob:abc=device-lost", // malformed value
      "gpu.kernel@soon=device-lost",     // selector without value
      "gpu.kernel=timeout",              // timeout needs an argument
      "gpu.kernel=slow:0.5",             // slow factor must be >= 1
      "seed=xyz",                        // malformed seed
      // Every number spans its whole token.
      "gpu.kernel@call:3junk=enqueue-failed",
      "gpu.kernel=timeout:100us",
      "gpu.kernel=slow:2x",
      "gpu.kernel@node:7.9=device-lost",
      "gpu.kernel@limit:2.0=device-lost",
      "gpu.kernel@prob:0.5.=device-lost",
      "gpu.kernel@call:=device-lost",
      "gpu.kernel@call:99999999999999999999=device-lost",  // out of int64 range
      "gpu.kernel@node:2147483648=device-lost",            // out of int range
      "seed=-1",
      "seed=12abc",
      "seed=",
      "seed=18446744073709551616",  // out of uint64 range
      // Only timeout and slow take an argument.
      "gpu.kernel=enqueue-failed:7",
      "gpu.map=map-failed:",
      "gpu.any=device-lost:0",
      // A selector appears at most once per rule.
      "gpu.kernel@node:3@node:4=device-lost",
      "gpu.kernel@call:1@prob:0.5@call:2=device-lost",
      // -1 marks an unset selector inside FaultRule; a written one is >= 0.
      "gpu.kernel@node:-1=device-lost",
      "gpu.kernel@limit:-1=device-lost",
      // Only the SoC's two devices are targets.
      "net.link@id:1=drop",
      "net.worker=death",
      "net.link=delay:250",
      "net.link=partition",
      "gpu.kernel=drop",
      "gpu.kernel@id:1=device-lost",
  };
  for (const char* spec : bad) {
    try {
      FaultPlan::Parse(spec);
      FAIL() << "expected parse error for: " << spec;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << spec;
      EXPECT_NE(std::string(e.what()).find("fault spec"), std::string::npos) << spec;
    }
  }
}

// --- Injector determinism ---------------------------------------------------

TEST(FaultInjectorTest, ProbabilisticStreamIsSeededAndRepeatable) {
  const FaultPlan plan = FaultPlan::Parse("seed=7;gpu.kernel@prob:0.3=enqueue-failed");
  fault::FaultInjector fi(plan);
  std::vector<int64_t> first;
  for (int i = 0; i < 64; ++i) {
    if (fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value()) {
      first.push_back(i);
    }
  }
  ASSERT_FALSE(first.empty());
  ASSERT_LT(first.size(), 64u);
  fi.ResetRun();
  std::vector<int64_t> second;
  for (int i = 0; i < 64; ++i) {
    if (fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value()) {
      second.push_back(i);
    }
  }
  EXPECT_EQ(first, second);
  // A different seed gives a different trace (overwhelmingly likely).
  FaultPlan other = plan;
  other.seed = 8;
  fault::FaultInjector fi2(other);
  std::vector<int64_t> third;
  for (int i = 0; i < 64; ++i) {
    if (fi2.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value()) {
      third.push_back(i);
    }
  }
  EXPECT_NE(first, third);
}

TEST(FaultInjectorTest, SelectorsMatchCallNodeAndLimit) {
  const FaultPlan plan =
      FaultPlan::Parse("gpu.kernel@call:2=enqueue-failed;gpu.map@node:5@limit:1=map-failed");
  fault::FaultInjector fi(plan);
  EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value());
  EXPECT_TRUE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value());
  EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value());
  // Node selector: only fires while the executor tags node 5, and the limit
  // caps it at one firing.
  EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kMap, 0.0).has_value());
  fi.set_current_node(5);
  EXPECT_TRUE(fi.OnCall(ProcKind::kGpu, OpKind::kMap, 0.0).has_value());
  EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kMap, 0.0).has_value());
  ASSERT_EQ(fi.events().size(), 2u);
  EXPECT_EQ(fi.events()[0].kind, FaultKind::kEnqueueFailed);
  EXPECT_EQ(fi.events()[1].node, 5);
}

TEST(FaultInjectorTest, DeviceCounterTableKeepsOneClockPerDeviceAndOpClass) {
  // gpu.any@call:3 counts GPU calls of every op class together.
  {
    fault::FaultInjector fi(FaultPlan::Parse("gpu.any@call:3=device-lost"));
    EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value());
    EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kMap, 0.0).has_value());
    const auto third = fi.OnCall(ProcKind::kGpu, OpKind::kUnmap, 1.0);
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->kind, FaultKind::kDeviceLost);
    EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 2.0).has_value());
    ASSERT_EQ(fi.events().size(), 1u);
    EXPECT_EQ(fi.events()[0].op, OpKind::kUnmap);
    EXPECT_EQ(fi.events()[0].call, 1) << "the event records the unmap clock";
  }
  // CPU calls never advance a GPU clock, and each op class ticks alone.
  {
    fault::FaultInjector fi(FaultPlan::Parse(
        "gpu.kernel@call:2=enqueue-failed;gpu.any@call:3=map-failed;cpu.map@call:1=map-failed"));
    for (OpKind op : {OpKind::kKernel, OpKind::kKernel, OpKind::kUnmap, OpKind::kUnmap}) {
      EXPECT_FALSE(fi.OnCall(ProcKind::kCpu, op, 0.0).has_value());
    }
    EXPECT_FALSE(fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0).has_value());
    const auto second_kernel = fi.OnCall(ProcKind::kGpu, OpKind::kKernel, 0.0);
    ASSERT_TRUE(second_kernel.has_value());
    EXPECT_EQ(second_kernel->kind, FaultKind::kEnqueueFailed);
    const auto third_any = fi.OnCall(ProcKind::kGpu, OpKind::kMap, 0.0);
    ASSERT_TRUE(third_any.has_value());
    EXPECT_EQ(third_any->kind, FaultKind::kMapFailed);
    EXPECT_EQ(fi.events().back().device, ProcKind::kGpu);
    // The CPU's first map still matches its @call:1 rule.
    const auto cpu_map = fi.OnCall(ProcKind::kCpu, OpKind::kMap, 0.0);
    ASSERT_TRUE(cpu_map.has_value());
    EXPECT_EQ(fi.events().back().device, ProcKind::kCpu);
    EXPECT_EQ(fi.events().size(), 3u);
  }
  // ResetRun rewinds all six counters.
  {
    fault::FaultInjector fi(FaultPlan::Parse(
        "cpu.kernel@call:2=enqueue-failed;cpu.map@call:2=map-failed;"
        "cpu.unmap@call:2=map-failed;gpu.kernel@call:2=enqueue-failed;"
        "gpu.map@call:2=map-failed;gpu.unmap@call:2=map-failed"));
    const auto all_calls = [&fi]() {
      int fired = 0;
      for (ProcKind dev : {ProcKind::kCpu, ProcKind::kGpu}) {
        for (OpKind op : {OpKind::kKernel, OpKind::kMap, OpKind::kUnmap}) {
          EXPECT_FALSE(fi.OnCall(dev, op, 0.0).has_value());
          fired += fi.OnCall(dev, op, 0.0).has_value() ? 1 : 0;
        }
      }
      return fired;
    };
    EXPECT_EQ(all_calls(), 6);
    EXPECT_EQ(fi.events().size(), 6u);
    fi.ResetRun();
    EXPECT_TRUE(fi.events().empty());
    EXPECT_EQ(all_calls(), 6) << "every clock restarts at call 1";
  }
}

// --- ucl-level injection ----------------------------------------------------

TEST(UclFaultTest, FailFastFaultsChargeNothing) {
  ucl::Context ctx(MakeExynos7420());
  fault::FaultInjector fi(FaultPlan::Parse("gpu.kernel@call:1=enqueue-failed"));
  ctx.SetFaultInjector(&fi);
  const ucl::EnqueueResult fail = ctx.queue(ProcKind::kGpu).EnqueueKernel(100.0, DType::kF16, 0.0);
  EXPECT_FALSE(fail.ok());
  EXPECT_EQ(fail.status, ucl::Status::kEnqueueFailed);
  EXPECT_DOUBLE_EQ(ctx.device(ProcKind::kGpu).now_us(), 0.0) << "no timeline charge";
  const ucl::EnqueueResult ok = ctx.queue(ProcKind::kGpu).EnqueueKernel(100.0, DType::kF16, 0.0);
  EXPECT_TRUE(ok.ok());
  EXPECT_GT(ok.event.complete_us, 0.0);
}

TEST(UclFaultTest, TimeoutOccupiesTheDevice) {
  ucl::Context ctx(MakeExynos7420());
  fault::FaultInjector fi(FaultPlan::Parse("gpu.kernel@call:1=timeout:500"));
  ctx.SetFaultInjector(&fi);
  const ucl::EnqueueResult res = ctx.queue(ProcKind::kGpu).EnqueueKernel(100.0, DType::kF16, 0.0);
  EXPECT_EQ(res.status, ucl::Status::kTimeout);
  EXPECT_DOUBLE_EQ(res.event.complete_us - res.event.start_us, 500.0);
  EXPECT_DOUBLE_EQ(ctx.device(ProcKind::kGpu).now_us(), 500.0) << "device busy over the window";
}

TEST(UclFaultTest, SlowdownStretchesTheKernelBody) {
  const SocSpec soc = MakeExynos7420();
  ucl::Context plain(soc);
  const double base = plain.queue(ProcKind::kGpu)
                          .EnqueueKernel(100.0, DType::kF16, 0.0)
                          .event.complete_us;
  ucl::Context throttled(soc);
  fault::FaultInjector fi(FaultPlan::Parse("gpu.kernel=slow:2"));
  throttled.SetFaultInjector(&fi);
  const ucl::EnqueueResult res =
      throttled.queue(ProcKind::kGpu).EnqueueKernel(100.0, DType::kF16, 0.0);
  EXPECT_TRUE(res.ok()) << "a throttled kernel still succeeds";
  EXPECT_DOUBLE_EQ(res.event.complete_us, base + 100.0) << "body doubled, launch unchanged";
  EXPECT_EQ(fi.slowdown_count(), 1);
}

TEST(UclFaultTest, MapFaultsHitMapAndUnmapSeparately) {
  ucl::Context ctx(MakeExynos7420());
  fault::FaultInjector fi(FaultPlan::Parse("gpu.map@call:1=map-failed"));
  ctx.SetFaultInjector(&fi);
  const auto buf = ctx.CreateBuffer(1024, ucl::MemFlag::kAllocHostPtr);
  EXPECT_EQ(ctx.queue(ProcKind::kGpu).EnqueueMap(*buf, ucl::MapAccess::kRead).status,
            ucl::Status::kMapFailed);
  EXPECT_TRUE(ctx.queue(ProcKind::kGpu).EnqueueUnmap(*buf).ok())
      << "unmap is a separate op class";
}

// --- Executor recovery ------------------------------------------------------

TEST(FaultExecutorTest, EmptyPlanIsBitIdenticalToNoPlan) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const Shape in_shape(1, 1, 28, 28);
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 777, -1.0f, 1.0f);

  PreparedModel pm(m, ExecConfig::AllF32());
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeHalfSplitPlan(m.graph);

  Executor plain(pm, soc);
  const RunResult a = plain.Run(plan, &input);
  Executor with_empty(pm, soc);
  with_empty.SetFaultPlan(FaultPlan{});
  const RunResult b = with_empty.Run(plan, &input);

  EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
  EXPECT_DOUBLE_EQ(a.total_energy_mj, b.total_energy_mj);
  EXPECT_DOUBLE_EQ(a.cpu_busy_us, b.cpu_busy_us);
  EXPECT_DOUBLE_EQ(a.gpu_busy_us, b.gpu_busy_us);
  EXPECT_EQ(a.sync_count, b.sync_count);
  EXPECT_FALSE(a.degradation.degraded());
  EXPECT_FALSE(b.degradation.degraded());
  EXPECT_EQ(b.degradation.final_mode, RunMode::kNormal);
  ExpectSameBytes(*a.output, *b.output);
}

TEST(FaultExecutorTest, SeededFaultRunsAreDeterministic) {
  const Model m = MakeGoogLeNet();
  PreparedModel pm(m, ExecConfig::ProcessorFriendly());
  Executor ex(pm, MakeExynos7420());
  ex.SetFaultPlan(FaultPlan::Parse("seed=11;gpu.any@prob:0.2=enqueue-failed"));
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kGpu);
  const RunResult a = ex.Run(plan);
  const RunResult b = ex.Run(plan);
  EXPECT_GT(a.degradation.faults_injected, 0);
  EXPECT_DOUBLE_EQ(a.latency_us, b.latency_us);
  EXPECT_EQ(a.degradation.retries, b.degradation.retries);
  EXPECT_EQ(a.degradation.fallbacks, b.degradation.fallbacks);
  EXPECT_EQ(a.degradation.faults_injected, b.degradation.faults_injected);
  ASSERT_EQ(a.degradation.events.size(), b.degradation.events.size());
  for (size_t i = 0; i < a.degradation.events.size(); ++i) {
    EXPECT_EQ(a.degradation.events[i].ToString(), b.degradation.events[i].ToString());
  }
}

TEST(FaultExecutorTest, RetriesAreBoundedAndCosted) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.fault_max_retries = 3;
  PreparedModel pm(m, cfg);
  const SocSpec soc = MakeExynos7420();
  Executor ex(pm, soc);
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kGpu);
  const double clean_us = ex.Run(plan).latency_us;

  // The first two attempts of the first GPU kernel fail; the third succeeds.
  ex.SetFaultPlan(FaultPlan::Parse("gpu.kernel@limit:2=enqueue-failed"));
  const RunResult r = ex.Run(plan);
  EXPECT_EQ(r.degradation.retries, 2);
  EXPECT_EQ(r.degradation.fallbacks, 0);
  EXPECT_EQ(r.degradation.faults_injected, 2);
  EXPECT_EQ(r.degradation.final_mode, RunMode::kDegraded);
  // Backoff is costed on the simulated timeline: 25 + 50 us by default.
  EXPECT_GT(r.latency_us, clean_us);
}

// --- Retry accounting audit (DESIGN.md Section 11) ---------------------------

// A timed-out enqueue occupies the device over its window; the injector logs
// that window as FaultEvent::charged_us. The run's gpu_busy_us must equal the
// fault-free busy time plus exactly the sum of the charged windows — no
// double-charging, no forgotten map-path timeouts.
TEST(FaultExecutorTest, TimeoutsChargeTheGpuExactlyOnce) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.fault_max_retries = 4;  // Enough headroom: every timeout is retried,
                              // no fallback re-executes work on the CPU.
  PreparedModel pm(m, cfg);
  const SocSpec soc = MakeExynos7420();
  // Cooperative steps exercise the zero-copy map path too — a GPU-only plan
  // never maps, and the map-timeout charge was the historical bug.
  const Plan plan = MakeHalfSplitPlan(m.graph);
  Executor ex(pm, soc);
  const double clean_gpu_busy = ex.Run(plan).gpu_busy_us;

  ex.SetFaultPlan(FaultPlan::Parse("gpu.kernel@limit:2=timeout:150;gpu.map@limit:1=timeout:80"));
  const RunResult r = ex.Run(plan);
  EXPECT_EQ(r.degradation.fallbacks, 0) << "a fallback would re-time the work";
  ASSERT_GT(r.degradation.faults_injected, 0);
  double charged = 0.0;
  for (const fault::FaultEvent& e : r.degradation.events) {
    EXPECT_EQ(e.kind, FaultKind::kTimeout);
    EXPECT_GT(e.charged_us, 0.0) << "timeouts occupy their window";
    charged += e.charged_us;
  }
  EXPECT_DOUBLE_EQ(charged, 2 * 150.0 + 80.0);
  EXPECT_NEAR(r.gpu_busy_us, clean_gpu_busy + charged, 1e-9 * r.gpu_busy_us)
      << "busy time must grow by exactly the injector's charged windows";
}

// Fail-fast faults (enqueue-failed, map-failed, device-lost) never reach the
// device: the injector charges nothing and gpu_busy_us stays bit-identical
// to the fault-free run even though the schedule shifted under retries.
TEST(FaultExecutorTest, FailFastFaultsChargeNoGpuTime) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.fault_max_retries = 4;
  PreparedModel pm(m, cfg);
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeSingleProcessorPlan(m.graph, ProcKind::kGpu);
  Executor ex(pm, soc);
  const double clean_gpu_busy = ex.Run(plan).gpu_busy_us;

  ex.SetFaultPlan(FaultPlan::Parse("gpu.kernel@limit:2=enqueue-failed;gpu.map@limit:1=map-failed"));
  const RunResult r = ex.Run(plan);
  EXPECT_EQ(r.degradation.fallbacks, 0);
  ASSERT_GT(r.degradation.retries, 0);
  for (const fault::FaultEvent& e : r.degradation.events) {
    EXPECT_DOUBLE_EQ(e.charged_us, 0.0) << "fail-fast faults must not charge the device";
  }
  EXPECT_DOUBLE_EQ(r.gpu_busy_us, clean_gpu_busy)
      << "retry losses are latency, never device occupancy";
}

// Regression for the pre-observability accounting bug: a CPU fallback used to
// appear as two indistinguishable CPU kernel entries, silently dropping the
// aborted GPU attempt. Under the committed CI fault spec, the trace must keep
// per-device busy-time accounting coherent (the T401-T406 invariants) and tag
// recovery work so it is distinguishable from planned work.
TEST(FaultExecutorTest, BusySpanSumsHoldUnderTheCiFaultSpec) {
  std::ifstream in(std::string(ULAYER_SOURCE_DIR) + "/scripts/ci_faults.spec");
  if (!in) {
    GTEST_SKIP() << "scripts/ci_faults.spec not reachable from the test binary";
  }
  std::string spec, line;
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] == '#') {
      continue;
    }
    for (const char c : line) {
      if (std::isspace(static_cast<unsigned char>(c)) == 0) {
        spec += c;
      }
    }
  }
  ASSERT_FALSE(spec.empty());

  const Model m = MakeGoogLeNet();
  ULayerRuntime::Options opts;
  opts.config = ExecConfig::ProcessorFriendly();
  opts.config.trace = true;
  opts.faults = FaultPlan::Parse(spec);
  ULayerRuntime rt(m, MakeExynos7420(), opts);
  const RunResult r = rt.Run();
  ASSERT_TRUE(r.run_trace.enabled);
  ASSERT_GT(r.degradation.faults_injected, 0);

  const Report report = VerifyRunTrace(r.run_trace);
  EXPECT_TRUE(report.ok()) << report.ToString();

  // Manual cross-check of the T404 invariant the verifier enforces: the
  // occupying spans partition each device's busy time.
  double busy[2] = {0.0, 0.0};
  int failed_attempts = 0;
  int fallbacks = 0;
  for (const trace::Span& sp : r.run_trace.spans) {
    if (trace::IsOccupying(sp.kind)) {
      busy[sp.proc == ProcKind::kCpu ? 0 : 1] += sp.duration_us();
    }
    if (sp.fault == trace::FaultTag::kFailedAttempt) {
      EXPECT_EQ(sp.kind, trace::SpanKind::kAttempt);
      EXPECT_GE(sp.fault_event, 0) << "attempts link back to the injector log";
      ++failed_attempts;
    }
    if (sp.fault == trace::FaultTag::kFallback && sp.kind == trace::SpanKind::kKernel) {
      EXPECT_EQ(sp.proc, ProcKind::kCpu) << "fallback re-execution runs on the CPU";
      ++fallbacks;
    }
  }
  EXPECT_NEAR(busy[0], r.cpu_busy_us, 1e-9 * std::max(1.0, r.cpu_busy_us));
  EXPECT_NEAR(busy[1], r.gpu_busy_us, 1e-9 * std::max(1.0, r.gpu_busy_us));
  EXPECT_GT(failed_attempts, 0) << "the spec injects GPU failures";
  EXPECT_EQ(fallbacks, static_cast<int>(r.degradation.fallbacks))
      << "every fallback kernel is tagged, none double-counted";
}

TEST(FaultExecutorTest, DeviceLostTripsTheCircuitBreaker) {
  const Model m = MakeGoogLeNet();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.trace = true;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  ex.SetFaultPlan(FaultPlan::Parse("gpu.kernel@call:1=device-lost"));
  const RunResult r = ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kGpu));
  EXPECT_TRUE(r.degradation.circuit_open);
  EXPECT_EQ(r.degradation.final_mode, RunMode::kCpuOnly);
  EXPECT_EQ(r.degradation.fallbacks, 1) << "the failing step falls back";
  EXPECT_GT(r.degradation.rerouted_steps, 0) << "the rest is rerouted";
  EXPECT_DOUBLE_EQ(r.gpu_busy_us, 0.0) << "fail-fast loss never occupies the GPU";
  int failed_attempts = 0;
  for (const trace::Span& s : r.run_trace.spans) {
    if (s.kind == trace::SpanKind::kAttempt) {
      // The aborted GPU enqueue stays on the record, zero-width (fail-fast).
      EXPECT_EQ(s.fault, trace::FaultTag::kFailedAttempt);
      EXPECT_EQ(s.proc, ProcKind::kGpu);
      EXPECT_DOUBLE_EQ(s.end_us, s.start_us);
      ++failed_attempts;
    } else if (s.kind == trace::SpanKind::kKernel) {
      EXPECT_EQ(s.proc, ProcKind::kCpu) << "all completed work ran on the CPU";
    }
  }
  EXPECT_EQ(failed_attempts, 1) << "one device-lost attempt, annotated";
}

TEST(FaultExecutorTest, FallbackDisabledThrowsTypedFault) {
  const Model m = MakeLeNet5();
  ExecConfig cfg = ExecConfig::ProcessorFriendly();
  cfg.fault_cpu_fallback = false;
  cfg.fault_max_retries = 0;
  PreparedModel pm(m, cfg);
  Executor ex(pm, MakeExynos7420());
  ex.SetFaultPlan(FaultPlan::Parse("gpu.kernel@call:1=enqueue-failed"));
  try {
    ex.Run(MakeSingleProcessorPlan(m.graph, ProcKind::kGpu));
    FAIL() << "expected ulayer::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kFault);
    EXPECT_GE(e.node(), 0);
    ASSERT_TRUE(e.proc().has_value());
    EXPECT_EQ(*e.proc(), ProcKind::kGpu);
  }
}

// The core robustness guarantee: under any GPU fault spec, recovery
// reproduces the fault-free output byte for byte (the channel slices
// partition the output, and with matching CPU/GPU kernel flavors the
// fallback computes the identical function).
TEST(FaultExecutorTest, FallbackOutputIsByteIdenticalAcrossZooAndPlans) {
  const char* specs[] = {
      "gpu.kernel=enqueue-failed",                 // every GPU kernel fails
      "seed=3;gpu.any@prob:0.5=enqueue-failed",    // random failures
      "gpu.kernel@call:2=device-lost",             // breaker mid-run
      "gpu.kernel@call:1=timeout:200;gpu.map@prob:0.4=map-failed",  // mixed
  };
  struct Case {
    Model model;
    Shape in_shape;
  };
  Case cases[] = {
      {MakeLeNet5(), Shape(1, 1, 28, 28)},
      {MakeSqueezeNetV11(1, 64), Shape(1, 3, 64, 64)},
  };
  const SocSpec soc = MakeExynos7420();
  for (Case& c : cases) {
    c.model.MaterializeWeights();
    Tensor input(c.in_shape, DType::kF32);
    FillUniform(input, 4242, -1.0f, 1.0f);
    PreparedModel pm(c.model, ExecConfig::AllF32());
    const Plan plans[] = {MakeSingleProcessorPlan(c.model.graph, ProcKind::kGpu),
                          MakeHalfSplitPlan(c.model.graph)};
    for (const Plan& plan : plans) {
      Executor clean(pm, soc);
      const RunResult want = clean.Run(plan, &input);
      ASSERT_TRUE(want.output.has_value());
      for (const char* spec : specs) {
        Executor faulted(pm, soc);
        faulted.SetFaultPlan(FaultPlan::Parse(spec));
        const RunResult got = faulted.Run(plan, &input);
        ASSERT_TRUE(got.output.has_value()) << c.model.name << " spec=" << spec;
        ExpectSameBytes(*want.output, *got.output);
      }
    }
  }
}

// Same guarantee for the QUInt8 integer kernels (AllQU8: both processors run
// the identical quantized kernel, so the fallback is bit-exact).
TEST(FaultExecutorTest, QuantizedFallbackIsByteIdentical) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const Shape in_shape(1, 1, 28, 28);
  std::vector<Tensor> calib;
  Tensor t(in_shape, DType::kF32);
  FillUniform(t, 900, -1.0f, 1.0f);
  calib.push_back(std::move(t));
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 901, -1.0f, 1.0f);

  PreparedModel pm(m, ExecConfig::AllQU8());
  pm.Calibrate(calib);
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeHalfSplitPlan(m.graph);
  Executor clean(pm, soc);
  const RunResult want = clean.Run(plan, &input);
  Executor faulted(pm, soc);
  faulted.SetFaultPlan(FaultPlan::Parse("gpu.kernel=enqueue-failed"));
  const RunResult got = faulted.Run(plan, &input);
  EXPECT_GT(got.degradation.fallbacks, 0);
  ExpectSameBytes(*want.output, *got.output);
}

// --- Config validation ------------------------------------------------------

TEST(ExecConfigValidationTest, ReportsTypedDiagnostics) {
  {
    ExecConfig bad = ExecConfig::AllF32();
    bad.gpu_compute = DType::kF16;  // No kernel computes F16 over F32 storage.
    const Report r = VerifyExecConfig(bad);
    EXPECT_TRUE(r.Has(DiagCode::kConfigUnimplementedCompute));
    EXPECT_FALSE(r.ok());
  }
  {
    ExecConfig bad = ExecConfig::AllF32();
    bad.cpu_threads = -2;
    const Report r = VerifyExecConfig(bad);
    EXPECT_TRUE(r.Has(DiagCode::kConfigNegativeThreads));
  }
  {
    ExecConfig bad = ExecConfig::AllF32();
    bad.fault_max_retries = -1;
    EXPECT_TRUE(VerifyExecConfig(bad).Has(DiagCode::kConfigBadFaultPolicy));
  }
  {
    ExecConfig bad = ExecConfig::AllF32();
    bad.fault_backoff_us = -5.0;
    EXPECT_TRUE(VerifyExecConfig(bad).Has(DiagCode::kConfigBadFaultPolicy));
  }
  EXPECT_TRUE(VerifyExecConfig(ExecConfig::AllF32()).ok());
  EXPECT_TRUE(VerifyExecConfig(ExecConfig::AllF16()).ok());
  EXPECT_TRUE(VerifyExecConfig(ExecConfig::AllQU8()).ok());
  EXPECT_TRUE(VerifyExecConfig(ExecConfig::ProcessorFriendly()).ok());
}

TEST(ExecConfigValidationTest, ConstructorsRejectBadConfigs) {
  const Model m = MakeLeNet5();
  ExecConfig bad = ExecConfig::AllF32();
  bad.cpu_threads = -1;
  EXPECT_THROW(
      {
        PreparedModel pm(m, bad);
        Executor ex(pm, MakeExynos7420());
      },
      VerifyError);
  ULayerRuntime::Options opts;
  opts.config = bad;
  EXPECT_THROW(ULayerRuntime(m, MakeExynos7420(), opts), VerifyError);
  // VerifyError is a ulayer::Error with the kVerify code.
  try {
    PreparedModel pm(m, bad);
    Executor ex(pm, MakeExynos7420());
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kVerify);
  }
}

// --- Runtime degradation policy ---------------------------------------------

TEST(RuntimePolicyTest, DeviceLostReplansCpuOnly) {
  const Model m = MakeGoogLeNet();
  ULayerRuntime::Options opts;
  opts.faults = FaultPlan::Parse("gpu.kernel@call:1=device-lost");
  ULayerRuntime rt(m, MakeExynos7420(), opts);
  const RunResult first = rt.Run();
  EXPECT_TRUE(first.degradation.circuit_open);
  EXPECT_EQ(rt.mode(), RunMode::kCpuOnly);
  EXPECT_TRUE(rt.gpu_health().excluded);
  EXPECT_EQ(rt.replans(), 1);
  EXPECT_EQ(first.degradation.replans, 1);
  EXPECT_EQ(first.degradation.final_mode, RunMode::kCpuOnly);
  // The rebuilt plan never touches the GPU, so the (still armed) fault rule
  // cannot fire again and the run is clean.
  const RunResult second = rt.Run();
  EXPECT_EQ(second.degradation.faults_injected, 0);
  EXPECT_FALSE(second.degradation.circuit_open);
  EXPECT_DOUBLE_EQ(second.gpu_busy_us, 0.0);
  EXPECT_EQ(second.degradation.final_mode, RunMode::kCpuOnly) << "session stays CPU-only";
  EXPECT_EQ(rt.replans(), 1) << "no further replans";
  for (const NodeAssignment& a : rt.plan().nodes) {
    EXPECT_NE(a.kind, StepKind::kCooperative);
    EXPECT_EQ(a.proc, ProcKind::kCpu);
  }
}

TEST(RuntimePolicyTest, RepeatedFailuresExcludeTheGpu) {
  const Model m = MakeGoogLeNet();
  ULayerRuntime::Options opts;
  // Every run's first GPU kernel fails over to the CPU (retries exhausted).
  opts.faults = FaultPlan::Parse("gpu.kernel@call:1=enqueue-failed;"
                                 "gpu.kernel@call:2=enqueue-failed;"
                                 "gpu.kernel@call:3=enqueue-failed;"
                                 "gpu.kernel@call:4=enqueue-failed");
  opts.replan_after_failures = 2;
  ULayerRuntime rt(m, MakeExynos7420(), opts);
  const RunResult r1 = rt.Run();
  EXPECT_GT(r1.degradation.fallbacks, 0);
  EXPECT_EQ(rt.mode(), RunMode::kNormal) << "one bad run is not enough";
  EXPECT_EQ(rt.gpu_health().consecutive_failures, 1);
  const RunResult r2 = rt.Run();
  EXPECT_GT(r2.degradation.fallbacks, 0);
  EXPECT_EQ(rt.gpu_health().consecutive_failures, 2);
  EXPECT_EQ(rt.mode(), RunMode::kCpuOnly) << "two consecutive failed runs trip the policy";
  EXPECT_EQ(rt.replans(), 1);
}

TEST(RuntimePolicyTest, FaultFreeDriftIsExactlyOne) {
  const Model m = MakeVgg16();
  ULayerRuntime rt(m, MakeExynos7420());
  const RunResult r = rt.Run();
  ASSERT_TRUE(r.run_trace.enabled);
  EXPECT_EQ(trace::BuildDriftReport(r.run_trace).gpu_ratio, 1.0)
      << "the simulation runs on the timing model, so fault-free drift is exact";
  EXPECT_EQ(rt.replans(), 0);
  EXPECT_EQ(rt.mode(), RunMode::kNormal);
}

// --- Fuzz: mutated specs either parse or throw, and never break recovery ----

TEST(FaultFuzzTest, MutatedSpecsParseOrThrowAndRecoveryHolds) {
  Model m = MakeLeNet5();
  m.MaterializeWeights();
  const Shape in_shape(1, 1, 28, 28);
  Tensor input(in_shape, DType::kF32);
  FillUniform(input, 5150, -1.0f, 1.0f);
  PreparedModel pm(m, ExecConfig::AllF32());
  const SocSpec soc = MakeExynos7420();
  const Plan plan = MakeHalfSplitPlan(m.graph);
  Executor clean(pm, soc);
  const RunResult want = clean.Run(plan, &input);

  // Every number spans its whole token, so most edits break a spec; long
  // numbers and at most two edits keep some mutants parseable.
  const std::string base =
      "seed=90210;gpu.kernel@prob:0.3125=enqueue-failed;gpu.map@call:12=timeout:50.25;"
      "gpu.any=slow:1.5;gpu.unmap@node:3@limit:10=device-lost";
  const char alphabet[] = "gpu.cpukernlmapyioh@:;=0123456789-abcdefstw ";
  uint64_t rng = 0x5eed;
  const auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  int parsed = 0;
  int rejected = 0;
  for (int iter = 0; iter < 200; ++iter) {
    std::string spec = base;
    const int edits = 1 + static_cast<int>(next() % 2);
    for (int e = 0; e < edits; ++e) {
      const size_t pos = next() % spec.size();
      switch (next() % 3) {
        case 0:  // replace
          spec[pos] = alphabet[next() % (sizeof(alphabet) - 1)];
          break;
        case 1:  // delete
          spec.erase(pos, 1);
          break;
        default:  // insert
          spec.insert(pos, 1, alphabet[next() % (sizeof(alphabet) - 1)]);
          break;
      }
      if (spec.empty()) {
        spec = ";";
      }
    }
    FaultPlan fp;
    try {
      fp = FaultPlan::Parse(spec);
      ++parsed;
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kParse) << spec;
      ++rejected;
      continue;
    }
    // Whatever parsed must round-trip and must not break recovery: the run
    // either completes with a byte-identical output or (cpu-device faults)
    // throws the typed fault error.
    EXPECT_EQ(FaultPlan::Parse(fp.ToString()).ToString(), fp.ToString()) << spec;
    Executor ex(pm, soc);
    ex.SetFaultPlan(fp);
    try {
      const RunResult got = ex.Run(plan, &input);
      ASSERT_TRUE(got.output.has_value()) << spec;
      ExpectSameBytes(*want.output, *got.output);
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kFault) << spec;
    }
  }
  // The mutator must exercise both outcomes.
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace ulayer
