// Shared PreparedModel cache + per-entry executor lanes (DESIGN.md §14).
//
// Preparing a model (weight quantization, F16/packed-panel caches,
// calibration) is the expensive part of serving; the cache does it once per
// (family, batch) and const-shares the PreparedModel across executor lanes —
// legal by the PreparedModel thread-safety contract (core/prepared.h). For
// every registered family the cache builds one entry per configured batch
// size N: a batch-N Model (weights are deterministic given the seed and
// independent of N), a partitioner plan priced on the batch-N graph (so the
// timing model and latency predictor see N-scaled MACs/activation traffic
// against batch-invariant weight traffic), a fault-free service-time
// estimate, and a pool of executor lanes whose arenas/activation pools and
// staging tensors are allocated up front — the steady-state serving path
// never allocates.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/executor.h"
#include "core/plan.h"
#include "fault/fault.h"
#include "models/model.h"
#include "soc/spec.h"

namespace ulayer::serve {

// Builds the named zoo model at batch N. `image_hw` overrides the family's
// input resolution when positive (ignored by lenet5, which is fixed 28x28).
// Throws Error(kInvalidArgument) for an unknown family.
Model MakeZooModel(const std::string& family, int batch, int image_hw = 0);

class ModelCache {
 public:
  struct Options {
    // Batch sizes to prepare plans for, ascending; must contain 1. The
    // assembler only ever forms batches of these sizes (greedy largest-fit,
    // no padding).
    std::vector<int> batch_sizes{1, 2, 4, 8};
    // Executor lanes per (family, batch) entry. A lane is the unit of
    // single-flight execution (core/executor.h): one executor + one reused
    // RunResult + preallocated input staging. Requests are mapped to lanes by
    // session id.
    int lanes = 2;
    // Functional serving: materialize weights, calibrate QUInt8 configs, and
    // allocate staging tensors so batches carry real tensor payloads.
    // Off: simulate-only (latency/energy), no weights.
    bool functional = false;
    // Input-resolution override passed to MakeZooModel (0 = family default).
    int image_hw = 0;
    // Calibration inputs per entry (QUInt8 storage + functional only).
    int calibration_inputs = 2;
    uint64_t calibration_seed = 0xca11;
  };

  // One prepared (family, batch) execution context.
  struct Lane {
    Executor exec;
    RunResult result;  // Reused across runs; capacity survives.
    Tensor staging;    // [N,C,H,W] F32 batch assembly buffer (functional).
    Tensor image;      // [1,C,H,W] F32 per-request fill buffer (functional).

    Lane(const PreparedModel& pm, const SocSpec& soc) : exec(pm, soc) {}
  };

  struct Entry {
    int batch = 1;
    std::unique_ptr<Model> model;  // Owns graph+weights; outlives `prepared`.
    std::unique_ptr<PreparedModel> prepared;
    Plan plan;                // Partitioner plan for the batch-N graph.
    double service_us = 0.0;  // Fault-free simulated latency of one execution.
    std::vector<std::unique_ptr<Lane>> lanes;

    Lane& LaneFor(int64_t session) {
      return *lanes[static_cast<size_t>(session) % lanes.size()];
    }
  };

  // `config.cpu_threads` is normalized to 0 (the full-cluster canonical
  // timing): the thread budget changes simulated CPU kernel time, which
  // would change batch composition — serving timing must not depend on the
  // host's functional thread count for cross-thread-count determinism.
  ModelCache(const SocSpec& soc, const ExecConfig& config, Options options);

  // Prepares every (family, batch-size) entry. Idempotent. Applies the
  // current fault plan to the new lanes.
  void Register(const std::string& family);
  bool Has(const std::string& family) const;

  Entry& entry(const std::string& family, int batch);
  const Entry& entry(const std::string& family, int batch) const;

  // Fault-free service estimate of one batch-N execution.
  double ServiceUs(const std::string& family, int batch) const;
  // Optimistic per-request cost at the largest batch size:
  // service(b_max)/b_max. The admission controller prices queued work with
  // this, so feasibility reflects batched throughput, not batch=1 latency.
  double UnitUs(const std::string& family) const;

  // Largest registered batch size <= n (>= 1; size 1 is always registered).
  int LargestBatchLE(int64_t n) const;

  const std::vector<int>& batch_sizes() const { return options_.batch_sizes; }
  const Options& options() const { return options_; }
  const ExecConfig& config() const { return config_; }
  const SocSpec& soc() const { return soc_; }
  const std::vector<std::string>& families() const { return families_; }

  // Installs `plan` on every lane executor, current and future (degraded
  // serving: faults throttle throughput, never correctness). Service
  // estimates stay fault-free by design — drift under faults is what the
  // admission controller absorbs via shedding.
  void SetFaultPlan(const fault::FaultPlan& plan);

 private:
  struct FamilyEntries {
    std::vector<std::unique_ptr<Entry>> by_batch;  // Parallel to batch_sizes.
  };

  std::unique_ptr<Entry> Prepare(const std::string& family, int batch);

  SocSpec soc_;
  ExecConfig config_;
  Options options_;
  fault::FaultPlan fault_plan_;
  std::map<std::string, FamilyEntries, std::less<>> entries_;
  std::vector<std::string> families_;  // Registration order.
};

}  // namespace ulayer::serve
