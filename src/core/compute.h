// Functional execution of one node slice under an ExecConfig.
//
// This is where processor-friendly quantization becomes concrete: with
// QUInt8 storage, a processor whose compute dtype is kQUInt8 runs the
// integer kernels (CPU path) while a processor whose compute dtype is kF16
// runs the on-the-fly-F16 kernels (GPU path). Both write disjoint channel
// slices of the same output tensor, so cooperative results merge for free.
#pragma once

#include <vector>

#include "core/prepared.h"
#include "memory/arena.h"
#include "soc/spec.h"

namespace ulayer {

// Computes output channels [c0, c1) of node `id` into act[id]. `act` is
// indexed by node id; producers must already be computed. For kConcat and
// kSoftmax the range must cover all channels (they are never split).
//
// `scratch`, when non-null, supplies kernel staging buffers (im2col, F16
// conversions) from a prepare-sized arena; the caller must Reset() it
// between kernel invocations. Null: kernels heap-allocate per call (the
// src/net coordinator runs this way). The PreparedModel's weight caches are
// forwarded to the kernels whenever present.
//
// `staged_cols`, when non-null, is the via-F16 staged input columns built by
// StageViaF16Cols for this node — forwarded as ConvAux::staged_cols so the
// via-F16 conv skips its per-call dequantize + im2col. Only meaningful for
// dense conv/FC slices whose compute dtype is kF16; ignored otherwise.
void ComputeNodeSlice(const PreparedModel& pm, int id, ProcKind proc, std::vector<Tensor>& act,
                      int64_t c0, int64_t c1, memory::ScratchArena* scratch = nullptr,
                      const Half* staged_cols = nullptr);

// Convenience: computes the full node on one processor.
void ComputeNode(const PreparedModel& pm, int id, ProcKind proc, std::vector<Tensor>& act,
                 memory::ScratchArena* scratch = nullptr);

// Builds the via-F16 staged input columns of node `id` into `arena`
// (kernels/conv.h Conv2DQU8ViaF16StageCols) — the dequantize + im2col
// producer work every via-F16 slice of the node would otherwise redo
// identically. Returns null (and allocates nothing) unless the node is a
// dense conv/FC under QUInt8 storage and `arena` is non-null. The executor
// calls this once per node when BOTH cooperative slices compute in kF16,
// takes an arena Mark, and ResetTo()s it between slices.
const Half* StageViaF16Cols(const PreparedModel& pm, int id, const std::vector<Tensor>& act,
                            memory::ScratchArena* arena);

// Worst-case scratch bytes one ComputeNodeSlice call on `n` may request, over
// every processor/compute-dtype this config could route it to — including the
// staged-columns pattern above when this config can trigger it (staging plus
// the per-slice residual share the arena).
int64_t NodeScratchBytes(const PreparedModel& pm, const Node& n);

}  // namespace ulayer
