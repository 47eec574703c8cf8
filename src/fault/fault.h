// Deterministic fault injection for the ucl device timelines (DESIGN.md
// Section 10).
//
// Real mobile GPU stacks fail in ways the paper's model ignores:
// driver-dependent enqueue/map errors, device resets, and DVFS/thermal
// throttling that silently invalidates the latencies the partitioner planned
// against. A FaultPlan describes such behaviour as a seeded, reproducible
// set of rules; a FaultInjector evaluates them against every ucl enqueue
// call (and the executor's staging points), so the same plan always yields
// the same fault trace, latency and DegradationReport.
//
// Spec string grammar (ULAYER_FAULTS / FaultPlan::Parse):
//   spec     := item (';' item)*
//   item     := 'seed=' uint | rule
//   rule     := target selector* '=' effect
//   target   := ('cpu'|'gpu') '.' ('kernel'|'map'|'unmap'|'any')
//   selector := '@node:' int      -- fire only on this graph node id
//             | '@call:' int      -- fire on the Nth (1-based) matching call
//             | '@prob:' float    -- fire with this probability (seeded RNG)
//             | '@limit:' int     -- fire at most N times
//   effect   := 'enqueue-failed' | 'map-failed' | 'device-lost'
//             | 'timeout:' float(us) | 'slow:' float(factor)
// Each selector appears at most once per rule, every number spans its whole
// token (`@call:3x` and `@node:7.9` are errors), and only `timeout` and
// `slow` take an argument.
// Examples:
//   gpu.kernel@call:3=enqueue-failed
//   gpu.kernel@node:7=device-lost
//   seed=42;gpu.any@prob:0.1=timeout:500
//   gpu.kernel=slow:2.5            (persistent thermal throttle)
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "soc/spec.h"

namespace ulayer::fault {

enum class FaultKind : uint8_t {
  kEnqueueFailed,  // clEnqueueNDRangeKernel returned an error.
  kMapFailed,      // clEnqueueMapBuffer / unmap returned an error.
  kDeviceLost,     // CL_DEVICE_NOT_AVAILABLE-style reset: trips the breaker.
  kTimeout,        // The command hung; the device is busy until the timeout.
  kSlowdown,       // DVFS/thermal throttle: the kernel body is stretched.
};

enum class OpKind : uint8_t { kKernel, kMap, kUnmap, kAny };

std::string_view FaultKindName(FaultKind kind);
std::string_view OpKindName(OpKind op);

struct FaultRule {
  ProcKind device = ProcKind::kGpu;
  OpKind op = OpKind::kKernel;
  FaultKind kind = FaultKind::kEnqueueFailed;
  // Selectors; negative means "unused". A rule fires only when every set
  // selector matches.
  int node = -1;              // Executor-tagged graph node id.
  int64_t call = -1;          // 1-based count of matching-target calls.
  double probability = -1.0;  // Seeded Bernoulli draw per matching call.
  int64_t limit = -1;         // Max firings of this rule; -1 = unlimited.
  double timeout_us = 0.0;    // kTimeout: device-busy window before failing.
  double factor = 1.0;        // kSlowdown: body-time multiplier.

  // Numbers print in shortest round-trip form, so Parse(ToString()) gives
  // back every field exactly.
  std::string ToString() const;
};

struct FaultPlan {
  std::vector<FaultRule> rules;
  uint64_t seed = 0x5eedULL;

  bool empty() const { return rules.empty(); }

  // Parses the spec grammar above; throws ulayer::Error (kParse) on
  // malformed input. An empty/whitespace spec yields an empty plan.
  static FaultPlan Parse(const std::string& spec);
  // Parses the ULAYER_FAULTS environment variable; empty plan when unset.
  static FaultPlan FromEnv();
  // Round-trips through Parse.
  std::string ToString() const;
};

// One injected fault occurrence, in injection order.
struct FaultEvent {
  FaultKind kind = FaultKind::kEnqueueFailed;
  ProcKind device = ProcKind::kGpu;
  OpKind op = OpKind::kKernel;
  int node = -1;         // Graph node the executor tagged, or -1.
  int64_t call = 0;      // Matching-target call count at injection time.
  double at_us = 0.0;    // Device-timeline time of the call.
  // Busy time the fault itself consumed: the timeout window for kTimeout,
  // 0 for fail-fast kinds. Lets tests audit that timeouts are charged
  // exactly once and fail-fast faults never charge (the retry accounting
  // invariant of DESIGN.md Section 11).
  double charged_us = 0.0;

  std::string ToString() const;
};

// Stateful rule evaluator. One injector serves one ucl::Context; the
// executor resets it at the top of every Run so per-run fault traces are
// reproducible regardless of how many runs share the executor. Not
// thread-safe: all calls come from the executor's issuing thread (matching
// the ucl timeline contract).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  // What a fired rule does to the call being evaluated.
  struct Decision {
    FaultKind kind = FaultKind::kEnqueueFailed;
    double timeout_us = 0.0;
    double factor = 1.0;
  };

  // Evaluates the rules against one enqueue call of class `op` (kernel, map
  // or unmap; never kAny) at device-time `now_us`. Counts the call, draws
  // probability selectors, records a FaultEvent when a rule fires, and
  // returns the first matching rule's decision.
  std::optional<Decision> OnCall(ProcKind device, OpKind op, double now_us);

  // Tags subsequent calls with the graph node being executed (-1 = none).
  void set_current_node(int node) { node_ = node; }

  // Rewinds call counts, rule firing counts, the RNG and the event log to
  // the plan's seed state. Called by the executor at the top of each Run.
  void ResetRun();

  const FaultPlan& plan() const { return plan_; }
  const std::vector<FaultEvent>& events() const { return events_; }
  // Injected slowdowns (not part of events(): a persistent throttle would
  // log one event per kernel).
  int64_t slowdown_count() const { return slowdowns_; }

 private:
  double NextUniform();  // [0, 1) from the seeded splitmix64 stream.

  FaultPlan plan_;
  int node_ = -1;
  uint64_t rng_state_ = 0;
  int64_t counts_[2][3] = {};   // Calls per [cpu, gpu] x [kernel, map, unmap].
  std::vector<int64_t> fired_;  // Per-rule firing counts.
  std::vector<FaultEvent> events_;
  int64_t slowdowns_ = 0;
};

}  // namespace ulayer::fault
