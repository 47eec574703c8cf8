#include "quant/quantize.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "common/error.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

TEST(QuantParamsTest, ChooseCoversRangeWithZeroExact) {
  const QuantParams qp = ChooseQuantParams(-1.0f, 3.0f);
  // 0.0 must quantize exactly (required for zero padding).
  const uint8_t zero_q = qp.Quantize(0.0f);
  EXPECT_EQ(zero_q, qp.zero_point);
  EXPECT_FLOAT_EQ(qp.Dequantize(zero_q), 0.0f);
  // Range endpoints land on the code extremes (within scale/2).
  EXPECT_NEAR(qp.Dequantize(qp.Quantize(-1.0f)), -1.0f, qp.scale);
  EXPECT_NEAR(qp.Dequantize(qp.Quantize(3.0f)), 3.0f, qp.scale);
}

TEST(QuantParamsTest, AllPositiveRangeWidensToIncludeZero) {
  const QuantParams qp = ChooseQuantParams(2.0f, 6.0f);
  EXPECT_EQ(qp.zero_point, 0);
  EXPECT_FLOAT_EQ(qp.scale, 6.0f / 255.0f);
}

TEST(QuantParamsTest, AllNegativeRangeWidensToIncludeZero) {
  const QuantParams qp = ChooseQuantParams(-5.0f, -1.0f);
  EXPECT_EQ(qp.zero_point, 255);
  EXPECT_FLOAT_EQ(qp.scale, 5.0f / 255.0f);
}

TEST(QuantParamsTest, DegenerateRange) {
  const QuantParams qp = ChooseQuantParams(0.0f, 0.0f);
  EXPECT_EQ(qp.Quantize(0.0f), qp.zero_point);
}

TEST(QuantParamsTest, QuantizeSaturates) {
  const QuantParams qp = ChooseQuantParams(-1.0f, 1.0f);
  EXPECT_EQ(qp.Quantize(100.0f), 255);
  EXPECT_EQ(qp.Quantize(-100.0f), 0);
}

// Infinities saturate like any out-of-range value; NaN maps to 0 instead of
// reaching an undefined float -> uint8_t conversion.
TEST(QuantParamsTest, QuantizeMapsInfinitiesToEndsAndNanToZero) {
  const QuantParams qp{0.5f, 128};
  EXPECT_EQ(qp.Quantize(std::numeric_limits<float>::infinity()), 255);
  EXPECT_EQ(qp.Quantize(-std::numeric_limits<float>::infinity()), 0);
  EXPECT_EQ(qp.Quantize(std::numeric_limits<float>::quiet_NaN()), 0);
  EXPECT_EQ(qp.Quantize(-std::numeric_limits<float>::quiet_NaN()), 0);
}

TEST(QuantizeTensorTest, RoundTripErrorBoundedByHalfScale) {
  Tensor t(Shape(1, 4, 8, 8), DType::kF32);
  FillUniform(t, 11, -2.0f, 2.0f);
  const QuantParams qp = ChooseQuantParams(-2.0f, 2.0f);
  const Tensor q = QuantizeTensor(t, qp);
  EXPECT_EQ(q.dtype(), DType::kQUInt8);
  const Tensor back = DequantizeTensor(q);
  EXPECT_LE(MaxAbsDiff(t, back), qp.scale * 0.5f + 1e-6f);
}

TEST(QuantizeTensorTest, ParamsEmbeddedInTensor) {
  Tensor t(Shape(1, 1, 2, 2), DType::kF32);
  FillUniform(t, 3, -1.0f, 1.0f);
  const QuantParams qp = ChooseQuantParams(-1.0f, 1.0f);
  const Tensor q = QuantizeTensor(t, qp);
  EXPECT_FLOAT_EQ(q.scale(), qp.scale);
  EXPECT_EQ(q.zero_point(), qp.zero_point);
}

TEST(F16TensorTest, RoundTripF16) {
  Tensor t(Shape(1, 2, 4, 4), DType::kF32);
  FillUniform(t, 5, -10.0f, 10.0f);
  const Tensor h = ToF16Tensor(t);
  EXPECT_EQ(h.dtype(), DType::kF16);
  const Tensor back = F16ToF32Tensor(h);
  // Relative error bounded by 2^-11.
  for (int64_t i = 0; i < t.NumElements(); ++i) {
    const float orig = t.Data<float>()[i];
    EXPECT_NEAR(back.Data<float>()[i], orig, std::fabs(orig) / 1024.0f + 1e-7f);
  }
}

TEST(RequantTest, ScaleDecompositionReconstructs) {
  for (const double m : {0.5, 0.25, 0.1, 0.0123, 0.9999, 3e-5}) {
    const RequantScale rs = ComputeRequantScale(m);
    EXPECT_GE(rs.multiplier, 1 << 30);
    const double recon =
        static_cast<double>(rs.multiplier) / (1ll << 31) * std::pow(2.0, -rs.shift);
    EXPECT_NEAR(recon, m, m * 1e-8);
  }
}

TEST(RequantTest, MultiplierAtLeastOneUsesLeftShift) {
  // M >= 1 arises when in_scale * w_scale > out_scale (e.g. a layer whose
  // output range collapses). The decomposition must produce a negative
  // shift (left shift) and still reconstruct, instead of tripping an assert
  // (debug) or fabricating a garbage shift (release).
  for (const double m : {1.0, 1.5, 2.5, 7.9, 100.0, 1e6}) {
    const RequantScale rs = ComputeRequantScale(m);
    EXPECT_GE(rs.multiplier, 1 << 30);
    EXPECT_LT(rs.shift, 0) << "m=" << m;
    const double recon =
        static_cast<double>(rs.multiplier) / (1ll << 31) * std::pow(2.0, -rs.shift);
    EXPECT_NEAR(recon, m, m * 1e-8);
  }
}

TEST(RequantTest, RequantizeOneHandlesMultiplierAtLeastOne) {
  Rng rng(123);
  for (const double m : {1.0, 1.75, 3.5, 12.0}) {
    const RequantScale rs = ComputeRequantScale(m);
    for (int i = 0; i < 2000; ++i) {
      const int32_t acc = static_cast<int32_t>(rng.Below(512)) - 256;
      const int32_t zp = 128;
      const double expect = std::round(acc * m) + zp;
      const double clamped = std::min(255.0, std::max(0.0, expect));
      EXPECT_NEAR(RequantizeOne(acc, rs, zp), clamped, 1.0) << "acc=" << acc << " m=" << m;
    }
  }
}

TEST(RequantTest, InvalidMultipliersThrow) {
  EXPECT_THROW(ComputeRequantScale(0.0), Error);
  EXPECT_THROW(ComputeRequantScale(-0.5), Error);
  EXPECT_THROW(ComputeRequantScale(std::numeric_limits<double>::infinity()), Error);
  EXPECT_THROW(ComputeRequantScale(std::numeric_limits<double>::quiet_NaN()), Error);
  // Magnitudes outside the representable shift range are errors, not UB.
  EXPECT_THROW(ComputeRequantScale(1e300), Error);
  EXPECT_THROW(ComputeRequantScale(1e-300), Error);
  // The typed error carries a stable code callers can route on.
  try {
    ComputeRequantScale(0.0);
    FAIL() << "expected ulayer::Error";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kQuantization);
  }
}

TEST(RequantTest, RoundingDoublingHighMulMatchesReference) {
  // SQRDMULH reference: round(a*b*2 / 2^32).
  EXPECT_EQ(SaturatingRoundingDoublingHighMul(1 << 30, 1 << 30), 1 << 29);
  EXPECT_EQ(SaturatingRoundingDoublingHighMul(INT32_MIN, INT32_MIN), INT32_MAX);  // Saturation.
  EXPECT_EQ(SaturatingRoundingDoublingHighMul(0, 12345), 0);
}

TEST(RequantTest, RoundingDivideByPOT) {
  EXPECT_EQ(RoundingDivideByPOT(8, 2), 2);
  EXPECT_EQ(RoundingDivideByPOT(10, 2), 3);   // 2.5 rounds away from zero.
  EXPECT_EQ(RoundingDivideByPOT(9, 2), 2);    // 2.25 rounds down.
  EXPECT_EQ(RoundingDivideByPOT(-10, 2), -3);
  EXPECT_EQ(RoundingDivideByPOT(-9, 2), -2);
  EXPECT_EQ(RoundingDivideByPOT(7, 0), 7);
}

TEST(RequantTest, RequantizeOneMatchesFloatReference) {
  // Property: the fixed-point pipeline tracks round(acc * M) + zp within 1.
  Rng rng(99);
  const double multipliers[] = {0.37, 0.004, 0.81};
  for (const double m : multipliers) {
    const RequantScale rs = ComputeRequantScale(m);
    for (int i = 0; i < 2000; ++i) {
      const int32_t acc = static_cast<int32_t>(rng.Below(200000)) - 100000;
      const int32_t zp = 128;
      const double expect = std::round(acc * m) + zp;
      const double clamped = std::min(255.0, std::max(0.0, expect));
      EXPECT_NEAR(RequantizeOne(acc, rs, zp), clamped, 1.0) << "acc=" << acc << " m=" << m;
    }
  }
}

TEST(ObserverTest, TracksMinMax) {
  MinMaxObserver obs;
  EXPECT_FALSE(obs.seen());
  obs.Observe(1.0f);
  obs.Observe(-3.0f);
  obs.Observe(2.0f);
  EXPECT_TRUE(obs.seen());
  EXPECT_FLOAT_EQ(obs.min_val(), -3.0f);
  EXPECT_FLOAT_EQ(obs.max_val(), 2.0f);
}

TEST(ObserverTest, ObservesTensorsAndShrinks) {
  Tensor t(Shape(1, 1, 4, 4), DType::kF32);
  FillUniform(t, 21, -4.0f, 4.0f);
  MinMaxObserver obs;
  obs.Observe(t);
  const float old_max = obs.max_val();
  obs.ShrinkRange(0.5f);
  EXPECT_FLOAT_EQ(obs.max_val(), old_max * 0.5f);
}

}  // namespace
}  // namespace ulayer
