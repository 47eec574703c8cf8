#include "quant/quantize.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>

#include "common/error.h"
#include "parallel/thread_pool.h"
#include "quant/half.h"

namespace ulayer {

uint8_t QuantParams::Quantize(float real) const {
  const float q = std::nearbyint(real / scale) + static_cast<float>(zero_point);
  // std::max(0.0f, NaN) is 0.0f, so a NaN maps to 0 rather than reaching the
  // (undefined) float -> uint8_t conversion.
  return static_cast<uint8_t>(std::min(std::max(0.0f, q), 255.0f));
}

QuantParams ChooseQuantParams(float min_val, float max_val) {
  // Widen to include zero so that zero padding quantizes exactly.
  min_val = std::min(min_val, 0.0f);
  max_val = std::max(max_val, 0.0f);
  if (min_val == max_val) {
    // Degenerate all-zero range; any scale works.
    return QuantParams{1.0f, 0};
  }
  QuantParams qp;
  qp.scale = (max_val - min_val) / 255.0f;
  // Nudge the zero point to the nearest integer so 0.0 is exactly
  // representable (Jacob et al., Section 3).
  const float zp_real = -min_val / qp.scale;
  qp.zero_point = static_cast<int32_t>(std::clamp(std::nearbyint(zp_real), 0.0f, 255.0f));
  return qp;
}

Tensor QuantizeTensor(const Tensor& f32, const QuantParams& qp) {
  assert(f32.dtype() == DType::kF32);
  Tensor q(f32.shape(), DType::kQUInt8);
  q.set_quant_params(qp.scale, qp.zero_point);
  const float* src = f32.Data<float>();
  uint8_t* dst = q.Data<uint8_t>();
  parallel::ParallelFor(0, f32.NumElements(), parallel::GrainForOps(1.0),
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            dst[i] = qp.Quantize(src[i]);
                          }
                        });
  return q;
}

Tensor DequantizeTensor(const Tensor& q) {
  assert(q.dtype() == DType::kQUInt8);
  Tensor f(q.shape(), DType::kF32);
  const QuantParams qp{q.scale(), q.zero_point()};
  const uint8_t* src = q.Data<uint8_t>();
  float* dst = f.Data<float>();
  parallel::ParallelFor(0, q.NumElements(), parallel::GrainForOps(1.0),
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            dst[i] = qp.Dequantize(src[i]);
                          }
                        });
  return f;
}

Tensor ToF16Tensor(const Tensor& f32) {
  assert(f32.dtype() == DType::kF32);
  Tensor h(f32.shape(), DType::kF16);
  const float* src = f32.Data<float>();
  Half* dst = h.Data<Half>();
  parallel::ParallelFor(0, f32.NumElements(), parallel::GrainForOps(1.0),
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            dst[i] = Half(src[i]);
                          }
                        });
  return h;
}

Tensor F16ToF32Tensor(const Tensor& f16) {
  assert(f16.dtype() == DType::kF16);
  Tensor f(f16.shape(), DType::kF32);
  const Half* src = f16.Data<Half>();
  float* dst = f.Data<float>();
  parallel::ParallelFor(0, f16.NumElements(), parallel::GrainForOps(1.0),
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            dst[i] = src[i].ToFloat();
                          }
                        });
  return f;
}

RequantScale ComputeRequantScale(double real_multiplier) {
  // A zero, negative, or non-finite multiplier cannot come out of valid
  // quantization parameters; reject it with a real error instead of an
  // assert, which release builds compile away (leaving garbage shifts and
  // silent corruption).
  if (!std::isfinite(real_multiplier) || real_multiplier <= 0.0) {
    throw Error(ErrorCode::kQuantization,
                "ComputeRequantScale: multiplier must be positive and finite, got " +
                    std::to_string(real_multiplier));
  }
  RequantScale rs;
  int exponent = 0;
  const double mantissa = std::frexp(real_multiplier, &exponent);
  // mantissa in [0.5, 1), real = mantissa * 2^exponent. Multipliers >= 1
  // (large input/filter scales relative to the output scale) have
  // exponent >= 1 and decompose into a *left* shift, gemmlowp-style.
  auto q31 = static_cast<int64_t>(std::llround(mantissa * (1ll << 31)));
  if (q31 == (1ll << 31)) {
    q31 /= 2;
    ++exponent;
  }
  rs.multiplier = static_cast<int32_t>(q31);
  rs.shift = -exponent;
  if (rs.shift < -31 || rs.shift > 31) {
    throw Error(ErrorCode::kQuantization,
                "ComputeRequantScale: multiplier " + std::to_string(real_multiplier) +
                    " is out of the representable range [2^-32, 2^31)");
  }
  return rs;
}

int32_t SaturatingRoundingDoublingHighMul(int32_t a, int32_t b) {
  const bool overflow = (a == b) && (a == std::numeric_limits<int32_t>::min());
  if (overflow) {
    return std::numeric_limits<int32_t>::max();
  }
  const int64_t ab = static_cast<int64_t>(a) * static_cast<int64_t>(b);
  const int32_t nudge = ab >= 0 ? (1 << 30) : (1 - (1 << 30));
  return static_cast<int32_t>((ab + nudge) / (1ll << 31));
}

int32_t RoundingDivideByPOT(int32_t x, int exponent) {
  assert(exponent >= 0 && exponent <= 31);
  if (exponent == 0) {
    return x;
  }
  const int32_t mask = static_cast<int32_t>((1ll << exponent) - 1);
  const int32_t remainder = x & mask;
  int32_t threshold = mask >> 1;
  if (x < 0) {
    ++threshold;
  }
  return (x >> exponent) + (remainder > threshold ? 1 : 0);
}

uint8_t RequantizeOne(int32_t acc, const RequantScale& rs, int32_t output_zero_point) {
  // Negative shift = left shift (multiplier >= 1): pre-scale the accumulator
  // by 2^-shift with saturation, then the usual doubling-high-mul. This is
  // gemmlowp's MultiplyByQuantizedMultiplier with our sign convention.
  int32_t x = acc;
  if (rs.shift < 0) {
    const int64_t shifted = static_cast<int64_t>(acc) << -rs.shift;
    x = static_cast<int32_t>(
        std::clamp<int64_t>(shifted, std::numeric_limits<int32_t>::min(),
                            std::numeric_limits<int32_t>::max()));
  }
  const int32_t scaled = RoundingDivideByPOT(SaturatingRoundingDoublingHighMul(x, rs.multiplier),
                                             rs.shift > 0 ? rs.shift : 0);
  const int32_t q = scaled + output_zero_point;
  return static_cast<uint8_t>(std::clamp(q, 0, 255));
}

Tensor QuantizeFiltersPerChannel(const Tensor& f32, PerChannelParams& params) {
  assert(f32.dtype() == DType::kF32);
  const Shape& s = f32.shape();  // [OC, IC, KH, KW]
  params.channels.resize(static_cast<size_t>(s.n));
  Tensor q(s, DType::kQUInt8);
  const int64_t per_channel = s.c * s.h * s.w;
  for (int64_t oc = 0; oc < s.n; ++oc) {
    const float* src = f32.Data<float>() + oc * per_channel;
    MinMaxObserver obs;
    for (int64_t i = 0; i < per_channel; ++i) {
      obs.Observe(src[i]);
    }
    const QuantParams qp = obs.Params();
    params.channels[static_cast<size_t>(oc)] = qp;
    uint8_t* dst = q.Data<uint8_t>() + oc * per_channel;
    for (int64_t i = 0; i < per_channel; ++i) {
      dst[i] = qp.Quantize(src[i]);
    }
  }
  if (!params.channels.empty()) {
    q.set_quant_params(params.channels[0].scale, params.channels[0].zero_point);
  }
  return q;
}

Tensor DequantizeFiltersPerChannel(const Tensor& q, const PerChannelParams& params) {
  assert(q.dtype() == DType::kQUInt8);
  const Shape& s = q.shape();
  assert(params.channels.size() == static_cast<size_t>(s.n));
  Tensor f(s, DType::kF32);
  const int64_t per_channel = s.c * s.h * s.w;
  for (int64_t oc = 0; oc < s.n; ++oc) {
    const QuantParams& qp = params.channels[static_cast<size_t>(oc)];
    const uint8_t* src = q.Data<uint8_t>() + oc * per_channel;
    float* dst = f.Data<float>() + oc * per_channel;
    for (int64_t i = 0; i < per_channel; ++i) {
      dst[i] = qp.Dequantize(src[i]);
    }
  }
  return f;
}

void MinMaxObserver::Observe(const Tensor& f32) {
  assert(f32.dtype() == DType::kF32);
  const float* p = f32.Data<float>();
  for (int64_t i = 0; i < f32.NumElements(); ++i) {
    Observe(p[i]);
  }
}

void MinMaxObserver::Observe(float v) {
  seen_ = true;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

void MinMaxObserver::ShrinkRange(float fraction) {
  assert(fraction > 0.0f && fraction <= 1.0f);
  min_ *= fraction;
  max_ *= fraction;
}

}  // namespace ulayer
