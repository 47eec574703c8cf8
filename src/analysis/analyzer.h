// Plan-level static memory-access analysis (DESIGN.md §12).
//
// Given a PreparedModel, a Plan and the packed activation-pool layout, the
// analyzer evaluates every kernel family's declared AccessSpec symbolically
// and proves three invariant families, reporting typed A-series diagnostics
// (verify/diagnostics.h) on violation:
//
//  - A5xx races: no two execution units that may overlap in time (the two
//    halves of a cooperative step; steps the in-order CPU and GPU queues may
//    pipeline against each other) have intersecting pool write ranges (A501)
//    or write/read conflicts (A502), and no unit's declared writes escape its
//    [c_begin, c_end) output slice (A503).
//  - A6xx liveness: pool intervals are only reused when every use of the
//    previous occupant happens-before the new producer along graph edges
//    (A601); every interval is in-bounds and 64-byte aligned (A602); no
//    kernel's declared scratch demand exceeds the planned arena reservation
//    (A603). The scratch arena itself is a separate allocation, so arena
//    ranges can never alias activation views by construction.
//  - A7xx chunking: ParallelFor's fixed chunk decomposition of each declared
//    loop yields pairwise-disjoint write ranges (A701) whose union equals the
//    declared write set (A702); splittable compute nodes must carry a spec at
//    all (A703).
//
// Everything here is prepare-time only: the executor runs the analysis once
// per plan fingerprint (ExecConfig::analyze) and steady-state Run() never
// re-enters it.
#pragma once

#include <functional>

#include "core/memory_plan.h"
#include "core/plan.h"
#include "core/prepared.h"
#include "kernels/access_spec.h"
#include "verify/diagnostics.h"

namespace ulayer {
namespace analysis {

struct AnalyzeOptions {
  // Test hook: rewrites the spec the analyzer derives for node `id` before
  // any checking (adversarial under/over-declaration fixtures). Identity
  // when unset.
  std::function<AccessSpec(int id, AccessSpec spec)> spec_transform;
};

// The AccessSpec ComputeNodeSlice(pm, id, proc, c0, c1) is declared to obey,
// mirroring the kernel dispatch in core/compute.cc. kInput returns an empty
// spec (has_spec == false): input nodes execute nothing.
AccessSpec NodeAccessSpec(const PreparedModel& pm, int id, ProcKind proc, int64_t c0, int64_t c1);

// A7xx checks of one spec in isolation: every declared ParallelFor loop's
// chunk write sets must be pairwise disjoint (A701) and the non-scratch
// loops' union must equal the declared writes (A702). Exposed so hand-built
// specs are provable in unit tests.
void CheckSpecLoops(const AccessSpec& spec, int node_id, Report& report);

// Full static proof of the A5xx/A6xx/A7xx invariants for `plan` over
// `layout`. Returns a Report; ok() means every invariant holds.
Report AnalyzePlan(const PreparedModel& pm, const Plan& plan, const MemoryLayout& layout,
                   const AnalyzeOptions& opts = {});

// Convenience: builds the layout with BuildMemoryLayout(pm) first.
Report AnalyzePlan(const PreparedModel& pm, const Plan& plan, const AnalyzeOptions& opts = {});

// Dynamic cross-check of the declarations themselves: executes the plan's
// units functionally (weights must be materialized and, for QUInt8 storage,
// the model calibrated), checksumming every pool byte outside each unit's
// declared write set before and after the kernel runs. A kernel that writes
// bytes its spec does not declare changes the checksum and is reported as
// A503. When built with AddressSanitizer the undeclared bytes are also
// poisoned for the duration of the call, so the offending write aborts with
// a precise stack instead of only failing the checksum.
Report CrossCheckSpecs(const PreparedModel& pm, const Plan& plan, const MemoryLayout& layout,
                       const Tensor& f32_input, const AnalyzeOptions& opts = {});

}  // namespace analysis
}  // namespace ulayer
