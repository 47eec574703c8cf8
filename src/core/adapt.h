// Closed adaptation loop (DESIGN.md Section 16): the state the runtime
// maintains to keep the partitioner's latency model honest while the device
// drifts (thermal throttling, co-tenant contention, driver hiccups).
//
// Two pieces live here because both the predictor and the runtime need them
// without depending on each other:
//
//  - CorrectionTable: per-(layer kind, processor) multiplicative latency
//    corrections the LatencyPredictor applies on top of its fitted
//    regression. The runtime feeds it from trace::BuildDriftReport
//    aggregates (EWMA over duration-weighted observed/predicted ratios), so
//    the predictor tracks the device's *current* speed instead of the
//    profile-time speed. The identity table (all 1.0) leaves predictions
//    bit-identical to the pre-adaptation path.
//
//  - PlanCache: plans keyed by quantized device-health state
//    (gpu_available, correction-table fingerprint), so revisiting a health
//    state the runtime has already planned for is an O(1) lookup instead
//    of a full Partitioner::Build().
//    Quantization is deliberate: raw EWMA values never repeat exactly, but
//    health states a few percent apart want the same plan.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/plan.h"
#include "nn/graph.h"

namespace ulayer {

// Multiplicative latency corrections indexed by (LayerKind, processor).
// Values are clamped to [kMinScale, kMaxScale]: anything outside that band
// is not a plausible device state and would poison every later plan
// (verified as H901 by VerifyCorrectionTable).
class CorrectionTable {
 public:
  static constexpr double kMinScale = 1.0 / 64.0;
  static constexpr double kMaxScale = 64.0;

  CorrectionTable();

  double Get(LayerKind kind, ProcKind proc) const;
  // Sets the factor directly (clamped into the sanity band).
  void Set(LayerKind kind, ProcKind proc, double scale);
  // EWMA step toward `observed_ratio` (simulated/predicted from a drift
  // aggregate): scale <- (1 - alpha) * scale + alpha * observed_ratio.
  void Update(LayerKind kind, ProcKind proc, double observed_ratio, double alpha);

  // True when every cell is exactly 1.0 (the bit-identical baseline).
  bool IsIdentity() const;

  // Log-space quantization bucket of one factor: round(log(scale) /
  // log(growth)). Bucket 0 spans scales within half a growth step of 1.0.
  static int32_t BucketOf(double scale, double growth);
  // FNV-1a over the per-cell buckets. Two tables land on the same
  // fingerprint exactly when every cell quantizes to the same bucket — the
  // plan-cache key treats them as the same device state.
  uint64_t Fingerprint(double growth) const;

  // One line per non-identity cell ("conv/gpu 2.5"); "identity" when clean.
  std::string ToString() const;

  bool operator==(const CorrectionTable&) const = default;

 private:
  // [kind][0=cpu, 1=gpu].
  std::array<std::array<double, 2>, static_cast<size_t>(kLayerKindCount)> scale_;
};

// Quantized device-health state a cached plan was built for.
struct PlanCacheKey {
  bool gpu_available = true;  // Circuit breaker / probation state.
  uint64_t correction_fp = 0; // CorrectionTable::Fingerprint(growth).

  bool operator==(const PlanCacheKey&) const = default;
  std::string ToString() const;
};

struct PlanCacheStats {
  int64_t hits = 0;
  int64_t misses = 0;
  int64_t insertions = 0;
  int64_t evictions = 0;
};

// Bounded LRU map from health key to plan. Deterministic: lookup order is
// the only clock, so identical call sequences produce identical hit/miss/
// eviction traces at any thread count.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity);

  // Returns the cached plan (bumping its recency) or nullptr; counts the
  // outcome either way.
  const Plan* Lookup(const PlanCacheKey& key);
  // Inserts (or replaces) the plan for `key`, evicting the least recently
  // used entry when at capacity. A capacity of 0 disables caching.
  void Insert(const PlanCacheKey& key, Plan plan);
  void Clear();

  struct Entry {
    PlanCacheKey key;
    Plan plan;
    uint64_t last_use = 0;
  };

  const std::vector<Entry>& entries() const { return entries_; }
  const PlanCacheStats& stats() const { return stats_; }
  size_t size() const { return entries_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  uint64_t tick_ = 0;
  std::vector<Entry> entries_;
  PlanCacheStats stats_;
};

}  // namespace ulayer
