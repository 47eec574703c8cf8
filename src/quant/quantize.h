// Linear (affine) 8-bit quantization, following Jacob et al. (CVPR'18) and
// gemmlowp: real = scale * (q - zero_point), q in [0, 255].
//
// Also provides the fixed-point requantization pipeline used to bring the
// 32-bit accumulators of a QUInt8 GEMM back to 8 bits, and min/max range
// observers used for post-training ("fake quant") calibration.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "tensor/tensor.h"

namespace ulayer {

// Affine quantization parameters for a tensor.
struct QuantParams {
  float scale = 1.0f;
  int32_t zero_point = 0;

  float Dequantize(uint8_t q) const {
    return scale * static_cast<float>(static_cast<int32_t>(q) - zero_point);
  }
  // round_half_even(real / scale) + zero_point, clamped to [0, 255]; NaN
  // maps to 0.
  uint8_t Quantize(float real) const;

  bool operator==(const QuantParams&) const = default;
};

// Chooses (scale, zero_point) so that [min_val, max_val] maps onto [0, 255]
// with zero exactly representable (required so zero-padding is exact).
// The range is widened to include 0 if it does not already.
QuantParams ChooseQuantParams(float min_val, float max_val);

// Quantizes an F32 tensor into a QUInt8 tensor with the given parameters.
// The result carries (scale, zero_point) in its tensor metadata.
Tensor QuantizeTensor(const Tensor& f32, const QuantParams& qp);

// Dequantizes a QUInt8 tensor (using its embedded parameters) back to F32.
Tensor DequantizeTensor(const Tensor& q);

// Converts an F32 tensor to F16 storage (round-to-nearest-even per element).
Tensor ToF16Tensor(const Tensor& f32);

// Converts an F16 tensor back to F32.
Tensor F16ToF32Tensor(const Tensor& f16);

// --- Requantization -------------------------------------------------------
//
// A QUInt8 GEMM accumulates uint8*uint8 products into int32. Bringing the
// accumulator back to uint8 requires multiplying by the real-valued ratio
//   M = (input_scale * filter_scale) / output_scale,  usually < 1,
// which gemmlowp expresses as a normalized int32 fixed-point multiplier and
// a shift: M = M0 * 2^-shift, M0 in [2^30, 2^31). M >= 1 (large input or
// filter scales relative to the output scale) yields a negative shift,
// applied as a saturating left shift before the fixed-point multiply.
struct RequantScale {
  int32_t multiplier = 0;  // Q31 fixed-point mantissa in [2^30, 2^31).
  int shift = 0;           // Right shift; negative = left shift (M >= 1).
};

// Decomposes a positive real multiplier into (multiplier, shift). Throws
// ulayer::Error (kQuantization) if the multiplier is non-positive,
// non-finite, or outside the representable range [2^-32, 2^31).
RequantScale ComputeRequantScale(double real_multiplier);

// Rounding doubling high multiply + rounding right shift, exactly the
// gemmlowp/NEON SQRDMULH + RSHL sequence.
int32_t SaturatingRoundingDoublingHighMul(int32_t a, int32_t b);
int32_t RoundingDivideByPOT(int32_t x, int exponent);

// Applies the full requantization of one accumulator value:
//   q = clamp(zero_point_out + round(acc * M), 0, 255).
uint8_t RequantizeOne(int32_t acc, const RequantScale& rs, int32_t output_zero_point);

// --- Per-channel weight quantization ---------------------------------------
//
// The paper quantizes filters per layer (one scale for the whole tensor).
// Modern integer stacks (TFLite, QNNPACK) quantize conv filters per output
// channel, which tightens each channel's range and markedly reduces accuracy
// loss. Provided here as an extension; see bench/per_channel_quant.

struct PerChannelParams {
  std::vector<QuantParams> channels;  // One per output channel.
};

// Quantizes a filter tensor [OC, IC, KH, KW] with an independent min/max
// range per output channel. The returned tensor's embedded (scale, zp) are
// those of channel 0; real parameters live in `params`.
Tensor QuantizeFiltersPerChannel(const Tensor& f32, PerChannelParams& params);

// Dequantizes a per-channel-quantized filter tensor.
Tensor DequantizeFiltersPerChannel(const Tensor& q, const PerChannelParams& params);

// --- Range calibration -----------------------------------------------------

// Tracks the running min/max of values it observes. Used for post-training
// range calibration: run a calibration set through the F32 network, observe
// every activation tensor, then derive QuantParams from the observed range.
// This plays the role of TensorFlow's "fake quantization" range learning
// (Section 4.3): naive single-batch ranges lose accuracy; calibrated ranges
// recover it.
class MinMaxObserver {
 public:
  void Observe(const Tensor& f32);
  void Observe(float v);

  bool seen() const { return seen_; }
  float min_val() const { return min_; }
  float max_val() const { return max_; }
  QuantParams Params() const { return ChooseQuantParams(min_, max_); }

  // Expands the tracked range by keeping only the central `fraction` of the
  // magnitude (simple percentile-style clipping used by some calibrators).
  void ShrinkRange(float fraction);

 private:
  bool seen_ = false;
  float min_ = std::numeric_limits<float>::max();
  float max_ = std::numeric_limits<float>::lowest();
};

}  // namespace ulayer
