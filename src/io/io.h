// Text serialization for graphs and execution plans.
//
// Graphs round-trip through a line-based format ("ulayer-graph v1") so
// models can be stored next to deployments and plans can be inspected or
// diffed. Weights are deliberately not serialized — they are deterministic
// from Model::MaterializeWeights(seed) in this reproduction; a real
// deployment would ship a standard weights container alongside.
#pragma once

#include <string>

#include "common/error.h"
#include "core/executor.h"
#include "core/plan.h"
#include "nn/graph.h"

namespace ulayer {

// Thrown by the parser on malformed input.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(ErrorCode::kParse, what) {}
};

// Serializes the graph structure. Node ids equal line order, so the format
// is also a readable architecture listing.
std::string GraphToText(const Graph& g);

// Parses a graph produced by GraphToText (or written by hand).
Graph GraphFromText(const std::string& text);

// Plan listing ("ulayer-plan v1"): one line per node with its step kind,
// processor / split ratio (explicit GPU ratios and channel slices included
// when present), plus the branch-group table. Round-trips through
// PlanFromText, so plans can be stored, diffed and fed to tools/ulayer_verify.
std::string PlanToText(const Plan& plan, const Graph& g);

// Parses a plan produced by PlanToText (or written by hand) against the
// graph it plans. Branch-group node membership is re-derived from
// FindBranchGroups(g) by matching fork/join ids. Unlisted nodes default to
// single-processor CPU steps. Throws ParseError on malformed input; the
// result is *not* verified — run it through PlanVerifier.
Plan PlanFromText(const std::string& text, const Graph& g);

// ASCII Gantt chart of a traced run, a view over RunResult::run_trace: one
// row per device, time bucketed into `columns` cells, '#' where an occupying
// span keeps the device busy. Shows the CPU/GPU overlap that cooperative
// execution and branch distribution create; each row's busy share is its
// occupying spans' total, i.e. cpu_busy_us / gpu_busy_us (T404). Throws
// Error(kInvalidArgument) when the run was not traced.
std::string TraceToText(const RunResult& result, const Graph& g, int columns = 72);

}  // namespace ulayer
