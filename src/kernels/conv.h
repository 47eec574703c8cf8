// Convolution kernels (im2col + GEMM lowering) in F32, F16, QUInt8 and the
// processor-friendly-quantization GPU path (QUInt8 storage, F16 arithmetic).
//
// Every kernel accepts an output-channel range [oc_begin, oc_end) and writes
// only that slice of the (full-size) output tensor. This is the primitive
// behind channel-wise workload distribution (paper Section 3.2): the CPU and
// the GPU run the same kernel on disjoint channel ranges of a shared output
// buffer, so the merge step is free.
//
// Every kernel additionally accepts a ConvAux of prepare-time caches and a
// scratch arena (DESIGN.md Section 9). All ConvAux fields are optional: a
// default-constructed aux reproduces the self-contained per-call behavior
// (used by tests and the calibration forward pass), while the executor
// passes the PreparedModel caches so steady-state runs recompute and
// heap-allocate nothing.
#pragma once

#include "kernels/access_spec.h"
#include "kernels/params.h"
#include "memory/arena.h"
#include "quant/half.h"
#include "quant/quantize.h"
#include "tensor/tensor.h"

namespace ulayer {

// Optional prepare-time context for the conv kernels. Pointers are non-owning
// and may be null independently; indices are absolute output channels (the
// caches cover the full tensor, kernels offset by oc_begin themselves).
struct ConvAux {
  // Scratch arena for im2col / staging buffers. Null: kernels fall back to
  // per-call heap vectors (calibration's ForwardF32 and the kernel unit tests
  // run this way).
  memory::ScratchArena* scratch = nullptr;

  // QUInt8 paths: per-tensor requantization multiplier
  // (in_scale * w_scale / out_scale), precomputed by PreparedModel::Calibrate.
  const RequantScale* requant = nullptr;
  // Per-channel mode: one multiplier per absolute output channel.
  const RequantScale* requant_per_channel = nullptr;
  // Raw filter row sums: sum_k filters[oc, k] of the quantized uint8 weights,
  // one per absolute output channel (the zero-point hoist, see GemmQU8).
  const int32_t* filter_rowsum = nullptr;

  // Via-F16 paths: dequantized filter values Half(w_scale * (w - w_zp)) in
  // filter layout, and Half-converted F32 bias, cached at prepare time
  // instead of being rebuilt on every call. Without them the kernel converts
  // into per-call heap vectors, which the arena sizing does not cover.
  const Half* filters_f16 = nullptr;
  const Half* bias_f16 = nullptr;

  // Prepare-time packed filter panels (kernels/pack.h): the full filter
  // matrix [OC, IC*KH*KW] repacked into kRowTile-interleaved panels, indexed
  // by absolute output channel. Used only when oc_begin is tile-aligned
  // (cooperative split grains are; odd slices fall back to the row-major
  // filters). filters_packed_f16 packs the filters_f16 cache above.
  const uint8_t* filters_packed_qu8 = nullptr;
  const float* filters_packed_f32 = nullptr;
  const Half* filters_packed_f16 = nullptr;

  // Via-F16 cooperative staging: the dequantized-and-im2col'd input columns
  // for ALL batches, [N][IC*KH*KW][OH*OW] in Half, built once per node by
  // Conv2DQU8ViaF16StageCols. When set, Conv2DQU8ViaF16 skips its per-call
  // image dequantize + im2col — the producer work both cooperative slices
  // would otherwise redo identically.
  const Half* staged_cols = nullptr;
};

// F32 convolution. filters: [OC, IC, KH, KW]; bias: [OC] (may be empty).
// oc_end == -1 means "all output channels".
void Conv2DF32(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin = 0, int64_t oc_end = -1,
               const ConvAux& aux = {});

// F16 convolution; all tensors kF16. Arithmetic rounds to binary16 per
// operation (native-F16-ALU semantics).
void Conv2DF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin = 0, int64_t oc_end = -1,
               const ConvAux& aux = {});

// Quantized convolution (the CPU path of processor-friendly quantization).
// input/filters/output: kQUInt8 with quant params in tensor metadata;
// bias: kInt32 quantized with scale in_scale*filter_scale, zero_point 0.
void Conv2DQU8(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin = 0, int64_t oc_end = -1,
               const ConvAux& aux = {});

// Per-output-channel quantized convolution (extension; see
// quant/quantize.h). Each output channel oc uses its own filter quant
// params `w_params.channels[oc]`, its own requantization multiplier, and a
// per-channel int32 bias quantized at scale in_scale * w_scale[oc].
void Conv2DQU8PerChannel(const Tensor& input, const Tensor& filters,
                         const PerChannelParams& w_params, const Tensor& bias,
                         const Conv2DParams& p, Tensor& output, int64_t oc_begin = 0,
                         int64_t oc_end = -1, const ConvAux& aux = {});

// The GPU path of processor-friendly quantization (paper Section 4.2):
// loads QUInt8 input and filters, converts them on the fly to F16, performs
// all arithmetic in F16, and requantizes the result to the QUInt8 output.
// bias: kF32 (dequantized filter bias), converted to F16 on the fly.
void Conv2DQU8ViaF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                     const Conv2DParams& p, Tensor& output, int64_t oc_begin = 0,
                     int64_t oc_end = -1, const ConvAux& aux = {});

// Depthwise convolution (MobileNet): one filter [C, KH, KW] per channel;
// channel c of the output depends only on channel c of the input, so the
// channel range distributes both input and output.
void DepthwiseConv2DF32(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin = 0,
                        int64_t c_end = -1);
void DepthwiseConv2DF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin = 0,
                        int64_t c_end = -1);
void DepthwiseConv2DQU8(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin = 0,
                        int64_t c_end = -1, const ConvAux& aux = {});
void DepthwiseConv2DQU8ViaF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                              const Conv2DParams& p, Tensor& output, int64_t c_begin = 0,
                              int64_t c_end = -1, const ConvAux& aux = {});

// Builds the via-F16 staged input columns for all batches into `arena`:
// dequantizes the QU8 input image to Half and im2cols it, laid out
// [N][IC*KH*KW][OH*OW]. Pass the result as ConvAux::staged_cols to every
// cooperative slice of the node (take an arena Mark right after staging and
// ResetTo it between slices so the staging survives while per-slice scratch
// is recycled). Returns null when `arena` is null.
const Half* Conv2DQU8ViaF16StageCols(const Tensor& input, const Shape& filter_shape,
                                     const Conv2DParams& p,
                                     memory::ScratchArena* arena);

// Arena bytes Conv2DQU8ViaF16StageCols allocates (cols for all batches plus
// the Half image staging buffer, with alignment slack).
int64_t Conv2DViaF16StagedColsBytes(const Shape& input_shape, const Shape& filter_shape,
                                    const Conv2DParams& p);

// Worst-case scratch-arena bytes one call of the QUInt8/F16/F32 conv kernels
// may request for the given shapes under `storage`/`compute` dtypes
// (includes per-buffer alignment slack). Used by the executor's prepare-time
// dry run to size the arena. With `staged_cols` true, returns the (smaller)
// per-call need of a via-F16 call that receives ConvAux::staged_cols — the
// image and column buffers are excluded.
int64_t Conv2DScratchBytes(DType storage, DType compute, const Shape& input_shape,
                           const Shape& filter_shape, const Conv2DParams& p,
                           bool staged_cols = false);

// --- Declared access specifications (kernels/access_spec.h) -----------------

// AccessSpec of one dense conv/FC call on output channels [oc_begin, oc_end)
// under the given storage/compute dtypes. Mirrors the variant dispatch in
// core/compute.cc (F32/F16 storage; QU8 storage with F16 compute = via-F16
// GPU path; otherwise integer QU8, per-channel when `per_channel`). Ranges
// are relative to each tensor's first byte; reads[0] covers the one
// activation input (weights live outside the activation pool).
AccessSpec Conv2DAccessSpec(DType storage, DType compute, bool per_channel,
                            const Shape& input_shape, const Shape& filter_shape,
                            const Conv2DParams& p, const Shape& out_shape, int64_t oc_begin,
                            int64_t oc_end);

// AccessSpec of one depthwise conv call: channel c of the output depends
// only on channel c of the input, so both reads and writes cover exactly
// channels [c_begin, c_end) of every batch.
AccessSpec DepthwiseConv2DAccessSpec(DType storage, const Shape& input_shape,
                                     const Conv2DParams& p, const Shape& out_shape,
                                     int64_t c_begin, int64_t c_end);

}  // namespace ulayer
