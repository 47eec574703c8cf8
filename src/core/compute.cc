#include "core/compute.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "kernels/conv.h"
#include "kernels/elementwise.h"
#include "kernels/pool.h"

namespace ulayer {
namespace {

// Copies channels [c0, c1) of `src` into `dst` (same shape and dtype).
void CopyChannelSlice(const Tensor& src, Tensor& dst, int64_t c0, int64_t c1) {
  const Shape& s = src.shape();
  const int64_t elem = DTypeSize(src.dtype());
  for (int64_t ni = 0; ni < s.n; ++ni) {
    const int64_t off = s.Offset(ni, c0, 0, 0) * elem;
    const int64_t len = (c1 - c0) * s.h * s.w * elem;
    std::memcpy(dst.raw() + off, src.raw() + off, static_cast<size_t>(len));
  }
}

}  // namespace

void ComputeNodeSlice(const PreparedModel& pm, int id, ProcKind proc, std::vector<Tensor>& act,
                      int64_t c0, int64_t c1, memory::ScratchArena* scratch,
                      const Half* staged_cols) {
  const Graph& g = pm.graph();
  const Node& n = g.node(id);
  const ExecConfig& cfg = pm.config();
  const DType storage = cfg.storage;
  const DType compute = cfg.ComputeFor(proc);
  Tensor& out = act[static_cast<size_t>(id)];
  const Tensor& in0 = act[static_cast<size_t>(n.inputs.empty() ? id : n.inputs[0])];

  // Prepare-time caches; every pointer is null when the cache is absent
  // (pre-Calibrate or degenerate quant params), in which case the kernels
  // compute the value per call.
  ConvAux aux;
  aux.scratch = scratch;
  aux.requant = pm.RequantPtr(id);
  aux.requant_per_channel = pm.PerChannelRequantPtr(id);
  aux.filter_rowsum = pm.FilterRowSumPtr(id);
  aux.filters_f16 = pm.FiltersF16Ptr(id);
  aux.bias_f16 = pm.BiasF16Ptr(id);
  aux.filters_packed_qu8 = pm.PackedFiltersQU8Ptr(id);
  aux.filters_packed_f32 = pm.PackedFiltersF32Ptr(id);
  aux.filters_packed_f16 = pm.PackedFiltersF16Ptr(id);
  aux.staged_cols = compute == DType::kF16 ? staged_cols : nullptr;

  switch (n.desc.kind) {
    case LayerKind::kInput:
      return;  // Filled by the caller via PrepareInput().
    case LayerKind::kConv:
    case LayerKind::kFullyConnected: {
      if (storage == DType::kF32) {
        Conv2DF32(in0, pm.Filters(id), pm.Bias(id), n.desc.conv, out, c0, c1, aux);
      } else if (storage == DType::kF16) {
        Conv2DF16(in0, pm.Filters(id), pm.Bias(id), n.desc.conv, out, c0, c1, aux);
      } else if (compute == DType::kF16) {
        // GPU path: QUInt8 storage, on-the-fly F16 arithmetic (Section 4.2).
        Conv2DQU8ViaF16(in0, pm.Filters(id), pm.BiasF32(id), n.desc.conv, out, c0, c1, aux);
      } else if (cfg.per_channel_weights) {
        // CPU path with per-output-channel filter quantization (extension).
        Conv2DQU8PerChannel(in0, pm.Filters(id), pm.FilterChannelParams(id), pm.BiasI32(id),
                            n.desc.conv, out, c0, c1, aux);
      } else {
        // CPU path: integer arithmetic with int32 accumulation.
        Conv2DQU8(in0, pm.Filters(id), pm.BiasI32(id), n.desc.conv, out, c0, c1, aux);
      }
      return;
    }
    case LayerKind::kDepthwiseConv: {
      if (storage == DType::kF32) {
        DepthwiseConv2DF32(in0, pm.Filters(id), pm.Bias(id), n.desc.conv, out, c0, c1);
      } else if (storage == DType::kF16) {
        DepthwiseConv2DF16(in0, pm.Filters(id), pm.Bias(id), n.desc.conv, out, c0, c1);
      } else if (compute == DType::kF16) {
        DepthwiseConv2DQU8ViaF16(in0, pm.Filters(id), pm.BiasF32(id), n.desc.conv, out, c0, c1,
                                 aux);
      } else {
        DepthwiseConv2DQU8(in0, pm.Filters(id), pm.BiasI32(id), n.desc.conv, out, c0, c1, aux);
      }
      return;
    }
    case LayerKind::kPool: {
      // Pooling is monotonic / integer-friendly: run in the storage dtype on
      // both processors (no F16 conversion needed on the GPU path).
      if (storage == DType::kF32) {
        Pool2DF32(in0, n.desc.pool, out, c0, c1);
      } else if (storage == DType::kF16) {
        Pool2DF16(in0, n.desc.pool, out, c0, c1);
      } else {
        Pool2DQU8(in0, n.desc.pool, out, c0, c1);
      }
      return;
    }
    case LayerKind::kGlobalAvgPool: {
      if (storage == DType::kF32) {
        GlobalAvgPoolF32(in0, out, c0, c1);
      } else if (storage == DType::kF16) {
        GlobalAvgPoolF16(in0, out, c0, c1);
      } else {
        GlobalAvgPoolQU8(in0, out, c0, c1);
      }
      return;
    }
    case LayerKind::kRelu: {
      CopyChannelSlice(in0, out, c0, c1);
      if (storage == DType::kF32) {
        ReluF32(out, c0, c1);
      } else if (storage == DType::kF16) {
        ReluF16(out, c0, c1);
      } else {
        ReluQU8(out, c0, c1);
      }
      return;
    }
    case LayerKind::kLrn: {
      if (storage == DType::kF32) {
        LrnF32(in0, n.desc.lrn, out, c0, c1);
      } else if (storage == DType::kF16) {
        LrnF16(in0, n.desc.lrn, out, c0, c1);
      } else {
        LrnQU8(in0, n.desc.lrn, out, c0, c1);
      }
      return;
    }
    case LayerKind::kConcat: {
      assert(c0 == 0 && c1 == n.out_shape.c && "concat is never channel-split");
      std::vector<const Tensor*> ins;
      ins.reserve(n.inputs.size());
      for (int in : n.inputs) {
        ins.push_back(&act[static_cast<size_t>(in)]);
      }
      ConcatChannels(ins, out);
      return;
    }
    case LayerKind::kEltwiseAdd: {
      assert(n.inputs.size() == 2 && "executor supports binary residual adds");
      const Tensor& in1 = act[static_cast<size_t>(n.inputs[1])];
      if (storage == DType::kF32) {
        EltwiseAddF32(in0, in1, out, n.desc.conv.relu, c0, c1);
      } else if (storage == DType::kF16) {
        EltwiseAddF16(in0, in1, out, n.desc.conv.relu, c0, c1);
      } else {
        EltwiseAddQU8(in0, in1, out, n.desc.conv.relu, c0, c1);
      }
      return;
    }
    case LayerKind::kSoftmax: {
      assert(c0 == 0 && c1 == n.out_shape.c && "softmax is never channel-split");
      Softmax(in0, out);
      return;
    }
  }
}

void ComputeNode(const PreparedModel& pm, int id, ProcKind proc, std::vector<Tensor>& act,
                 memory::ScratchArena* scratch) {
  ComputeNodeSlice(pm, id, proc, act, 0, pm.graph().node(id).out_shape.c, scratch);
}

const Half* StageViaF16Cols(const PreparedModel& pm, int id, const std::vector<Tensor>& act,
                            memory::ScratchArena* arena) {
  if (arena == nullptr || pm.config().storage != DType::kQUInt8) {
    return nullptr;
  }
  const Graph& g = pm.graph();
  const Node& n = g.node(id);
  if (n.desc.kind != LayerKind::kConv && n.desc.kind != LayerKind::kFullyConnected) {
    return nullptr;
  }
  const Tensor& in0 = act[static_cast<size_t>(n.inputs[0])];
  return Conv2DQU8ViaF16StageCols(in0, FilterShape(g, n), n.desc.conv, arena);
}

int64_t NodeScratchBytes(const PreparedModel& pm, const Node& n) {
  // Only the dense conv/FC kernels use the scratch arena (im2col and F16
  // staging buffers); everything else computes in place or element-wise.
  if (n.desc.kind != LayerKind::kConv && n.desc.kind != LayerKind::kFullyConnected) {
    return 0;
  }
  const ExecConfig& cfg = pm.config();
  const Graph& g = pm.graph();
  const Shape& in_shape = g.node(n.inputs[0]).out_shape;
  // Graph-derived filter shape: identical to pm.Filters(n.id).shape() when
  // weights are materialized, but also available weight-free (the analyzer
  // and ulayer_verify --analyze size layouts without weights).
  const Shape filter_shape = FilterShape(g, n);
  // The plan decides at Run() time which processor (hence compute dtype)
  // executes the node; size for the worst case over both.
  int64_t bytes = 0;
  for (const ProcKind proc : {ProcKind::kCpu, ProcKind::kGpu}) {
    bytes = std::max(bytes, Conv2DScratchBytes(cfg.storage, cfg.ComputeFor(proc), in_shape,
                                               filter_shape, n.desc.conv));
  }
  // When every cooperative slice of this node would compute in kF16, the
  // executor stages the input columns once and shares them across slices;
  // the arena then holds the staging plus the (smaller) per-slice residual.
  if (cfg.storage == DType::kQUInt8 && cfg.ComputeFor(ProcKind::kCpu) == DType::kF16 &&
      cfg.ComputeFor(ProcKind::kGpu) == DType::kF16) {
    bytes = std::max(bytes,
                     Conv2DViaF16StagedColsBytes(in_shape, filter_shape, n.desc.conv) +
                         Conv2DScratchBytes(cfg.storage, DType::kF16, in_shape, filter_shape,
                                            n.desc.conv, /*staged_cols=*/true));
  }
  return bytes;
}

}  // namespace ulayer
