// Declared memory-access specifications for the kernel families.
//
// Every compute kernel in src/kernels declares, next to its implementation, a
// small AccessSpec: the byte ranges it reads from each input tensor, the byte
// ranges it writes into the output tensor, its scratch-arena demand, and the
// exact ParallelFor loops it runs — all as affine functions of the layer
// shape, the channel slice [c_begin, c_end) and the chunk decomposition. The
// static analyzer (src/analysis) evaluates these specs symbolically per plan
// to prove the A5xx/A6xx/A7xx invariants of DESIGN.md §12, and a debug-build
// dynamic cross-check (memory/shadow.h) verifies at run time that no kernel
// touches pool bytes outside its declaration — so an under-declaring spec
// fails loudly instead of silently weakening the proof.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/shape.h"

namespace ulayer {

// Half-open byte interval [begin, end) relative to a tensor's first byte.
struct AccessRange {
  int64_t begin = 0;
  int64_t end = 0;

  int64_t size() const { return end - begin; }
  bool empty() const { return end <= begin; }
};

// One ParallelFor(begin, end, grain, ...) whose body writes memory. The
// model is affine: iteration i (a raw domain index — absolute channel for
// channel-domain loops, zero-based row/element index otherwise) writes
// [base + i * stride_bytes, base + i * stride_bytes + iter_bytes) for every
// base in `bases`. Kernels that rerun the same loop per batch (or write the
// same rows of several batches per iteration, like depthwise conv and
// pooling) list one base per instance. The analyzer enumerates
// parallel::ChunkBounds over the domain to prove chunk write sets pairwise
// disjoint (A701) and their union equal to the declared writes (A702).
struct LoopSpec {
  int64_t begin = 0;
  int64_t end = 0;
  int64_t grain = 1;
  int64_t stride_bytes = 0;
  int64_t iter_bytes = 0;
  std::vector<int64_t> bases;
  // True when the loop writes kernel scratch (arena) instead of the output
  // tensor. Scratch loops get the A701 disjointness check only; their bases
  // are scratch-relative and never alias the activation pool (A6xx covers
  // the arena/pool separation).
  bool writes_scratch = false;
};

// A kernel invocation's declared accesses for one (node, slice) step.
struct AccessSpec {
  // False when no spec exists for the node kind/dtype combination; the
  // analyzer reports A703 for splittable compute nodes without one.
  bool has_spec = false;

  // Bytes written into the output tensor (relative to its first byte).
  std::vector<AccessRange> writes;
  // reads[i] = bytes read from input ordinal i (Node::inputs order),
  // relative to that input tensor's first byte.
  std::vector<std::vector<AccessRange>> reads;

  // Worst-case scratch-arena bytes the call may request (alignment slack
  // included), checked against the executor's reservation (A603).
  int64_t scratch_bytes = 0;

  // The ParallelFor loops the kernel runs, in program order.
  std::vector<LoopSpec> loops;
};

// The flat element-wise loop shared by the quantize family
// (QuantizeTensor / DequantizeTensor / F16 conversions in src/quant), ReLU,
// and eltwise-add: ParallelFor(0, elems, GrainForOps(1.0)) where element i
// occupies elem_bytes at base_bytes + i * elem_bytes. Declared here because
// src/quant cannot depend on src/kernels.
LoopSpec ElementwiseLoopSpec(int64_t elems, int64_t elem_bytes, int64_t base_bytes);

// Per-batch byte ranges covering channels [c_begin, c_end) of a tensor with
// shape `s`: one [Offset(ni, c_begin, 0, 0), Offset(ni, c_end, 0, 0)) * elem
// range per batch.
std::vector<AccessRange> ChannelSliceRanges(const Shape& s, int64_t elem_bytes, int64_t c_begin,
                                            int64_t c_end);

// One base offset per batch: the first byte of batch ni.
std::vector<int64_t> BatchBases(const Shape& s, int64_t elem_bytes);

}  // namespace ulayer
