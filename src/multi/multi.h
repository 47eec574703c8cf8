// Multi-processor extension (paper Section 8.3): cooperative single-layer
// acceleration generalized from {CPU, GPU} to N processors, including NPUs
// and DSPs.
//
// The paper claims the three mechanisms extend naturally:
//  1. channel-wise distribution splits output channels across all N
//     processors (fraction vector instead of a single ratio p);
//  2. processor-friendly quantization assigns each processor its preferred
//     arithmetic dtype (NPUs: 8-bit linear quantization, like Google's TPU);
//  3. branch distribution maps branches onto N processors (N^B enumeration).
//
// This module is a planning/simulation study: it reuses the LayerWork cost
// model and the roofline per-processor latency, with its own N-way
// partitioner and timeline executor. Functional N-way execution would reuse
// the same QUInt8 kernels the CPU path uses (an NPU computes 8-bit integer
// MACs), so no new numerics are introduced.
#pragma once

#include <string>
#include <vector>

#include "nn/branch.h"
#include "soc/spec.h"

namespace ulayer::multi {

// One processor of an N-processor SoC plus its friendly compute dtype.
struct MultiProcessor {
  ProcessorSpec spec;
  DType compute = DType::kQUInt8;
};

struct MultiSoc {
  std::string name;
  std::vector<MultiProcessor> procs;
  double sync_us = 80.0;  // Cost of one multi-processor merge point.
  double map_us = 8.0;
  double dram_nj_per_byte = 0.4;
  double idle_w = 1.0;
};

// Exynos 7420's CPU (QUInt8) + GPU (F16) + an Edge-TPU-class NPU (QUInt8,
// high integer throughput, higher kernel-launch latency).
MultiSoc MakeExynos7420WithNpu();
// The same SoC without the NPU (for apples-to-apples comparisons).
MultiSoc MakeExynos7420Multi();

// Per-node output-channel fractions, one per processor; sums to 1.
struct MultiAssignment {
  std::vector<double> fractions;

  int ActiveProcs() const {
    int n = 0;
    for (double f : fractions) {
      n += f > 0.0 ? 1 : 0;
    }
    return n;
  }
};

struct MultiBranchPlan {
  BranchGroup group;
  std::vector<int> assignment;  // Processor index per branch.
};

struct MultiPlan {
  std::vector<MultiAssignment> nodes;  // Indexed by node id.
  std::vector<MultiBranchPlan> branch_plans;
};

struct MultiRunResult {
  double latency_us = 0.0;
  double total_energy_mj = 0.0;
  std::vector<double> busy_us;  // Per processor.
  int sync_count = 0;
};

// N-way partitioner: per layer, enumerates fraction vectors on a 0.25 grid
// over all processors (plus single-processor unit vectors) and picks the
// minimum of max-over-processors latency + merge cost. Branch groups are
// mapped by exhaustive N^B enumeration first.
class MultiPartitioner {
 public:
  struct Options {
    bool channel_distribution = true;
    bool branch_distribution = true;
    double grid_step = 0.25;
  };

  MultiPartitioner(const Graph& graph, const MultiSoc& soc, Options options);
  MultiPartitioner(const Graph& graph, const MultiSoc& soc)
      : MultiPartitioner(graph, soc, Options()) {}

  MultiPlan Build() const;

  // Estimated latency of one node under a fraction vector.
  double EstimateNodeUs(const Node& node, const MultiAssignment& a) const;

 private:
  std::vector<MultiAssignment> CandidateAssignments(bool splittable) const;

  const Graph& graph_;
  const MultiSoc& soc_;
  Options options_;
};

// Simulate-only executor over N virtual timelines.
class MultiExecutor {
 public:
  MultiExecutor(const Graph& graph, const MultiSoc& soc) : graph_(graph), soc_(soc) {}

  MultiRunResult Run(const MultiPlan& plan) const;

 private:
  const Graph& graph_;
  const MultiSoc& soc_;
};

}  // namespace ulayer::multi
