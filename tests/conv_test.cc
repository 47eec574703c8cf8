#include "kernels/conv.h"

#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/pack.h"
#include "kernels/simd.h"
#include "memory/arena.h"
#include "quant/quantize.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

// Naive direct convolution in double precision (the oracle).
Tensor RefConv(const Tensor& in, const Tensor& w, const Tensor& bias, const Conv2DParams& p) {
  const Shape& is = in.shape();
  const Shape& fs = w.shape();
  const int oh = p.OutH(static_cast<int>(is.h));
  const int ow = p.OutW(static_cast<int>(is.w));
  Tensor out(Shape(is.n, fs.n, oh, ow), DType::kF32);
  for (int64_t ni = 0; ni < is.n; ++ni) {
    for (int64_t oc = 0; oc < fs.n; ++oc) {
      for (int y = 0; y < oh; ++y) {
        for (int x = 0; x < ow; ++x) {
          double acc = bias.empty() ? 0.0 : static_cast<double>(bias.Data<float>()[oc]);
          for (int64_t ic = 0; ic < is.c; ++ic) {
            for (int kh = 0; kh < p.kernel_h; ++kh) {
              for (int kw = 0; kw < p.kernel_w; ++kw) {
                const int ih = y * p.stride_h - p.pad_h + kh;
                const int iw = x * p.stride_w - p.pad_w + kw;
                if (ih < 0 || ih >= is.h || iw < 0 || iw >= is.w) {
                  continue;
                }
                acc += static_cast<double>(in.Data<float>()[is.Offset(ni, ic, ih, iw)]) *
                       static_cast<double>(w.Data<float>()[fs.Offset(oc, ic, kh, kw)]);
              }
            }
          }
          if (p.relu) {
            acc = std::max(acc, 0.0);
          }
          out.Data<float>()[out.shape().Offset(ni, oc, y, x)] = static_cast<float>(acc);
        }
      }
    }
  }
  return out;
}

struct ConvCase {
  int64_t n, ic, h, w, oc;
  int kernel, stride, pad;
  bool relu;
};

class ConvF32Param : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvF32Param, MatchesDirectReference) {
  const ConvCase cc = GetParam();
  Conv2DParams p;
  p.kernel_h = p.kernel_w = cc.kernel;
  p.stride_h = p.stride_w = cc.stride;
  p.pad_h = p.pad_w = cc.pad;
  p.relu = cc.relu;
  Tensor in(Shape(cc.n, cc.ic, cc.h, cc.w), DType::kF32);
  Tensor w(Shape(cc.oc, cc.ic, cc.kernel, cc.kernel), DType::kF32);
  Tensor bias(Shape(1, cc.oc, 1, 1), DType::kF32);
  FillUniform(in, 1);
  FillUniform(w, 2, -0.5f, 0.5f);
  FillUniform(bias, 3, -0.1f, 0.1f);
  const Tensor ref = RefConv(in, w, bias, p);
  Tensor out(ref.shape(), DType::kF32);
  Conv2DF32(in, w, bias, p, out);
  EXPECT_LT(MaxAbsDiff(out, ref), 1e-4f);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvF32Param,
    ::testing::Values(ConvCase{1, 1, 5, 5, 1, 3, 1, 0, false},   // minimal
                      ConvCase{1, 3, 8, 8, 4, 3, 1, 1, true},    // pad + relu
                      ConvCase{1, 4, 9, 9, 6, 3, 2, 1, false},   // stride 2
                      ConvCase{2, 2, 7, 7, 3, 5, 1, 2, true},    // batch + 5x5
                      ConvCase{1, 8, 6, 6, 8, 1, 1, 0, true},    // 1x1 conv
                      ConvCase{1, 2, 11, 11, 5, 7, 4, 0, false}  // AlexNet-ish
                      ));

TEST(ConvF32Test, ChannelSlicesComposeExactly) {
  // Property: computing [0,k) and [k,oc) slices into one buffer must equal a
  // full-channel run bit-for-bit (this is what makes the cooperative merge
  // free and lossless).
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 6, 10, 10), DType::kF32);
  Tensor w(Shape(8, 6, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 8, 1, 1), DType::kF32);
  FillUniform(in, 4);
  FillUniform(w, 5, -0.3f, 0.3f);
  FillUniform(bias, 6, -0.1f, 0.1f);
  Tensor full(Shape(1, 8, 10, 10), DType::kF32);
  Conv2DF32(in, w, bias, p, full);
  for (const int64_t split : {1, 3, 4, 7}) {
    Tensor split_out(Shape(1, 8, 10, 10), DType::kF32);
    Conv2DF32(in, w, bias, p, split_out, 0, split);
    Conv2DF32(in, w, bias, p, split_out, split, 8);
    EXPECT_EQ(MaxAbsDiff(full, split_out), 0.0f) << "split=" << split;
  }
}

TEST(ConvF16Test, TracksF32WithinHalfPrecision) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 4, 8, 8), DType::kF32);
  Tensor w(Shape(4, 4, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 4, 1, 1), DType::kF32);
  FillUniform(in, 7, -0.5f, 0.5f);
  FillUniform(w, 8, -0.3f, 0.3f);
  FillUniform(bias, 9, -0.1f, 0.1f);
  const Tensor ref = RefConv(in, w, bias, p);
  Tensor out16(ref.shape(), DType::kF16);
  Conv2DF16(ToF16Tensor(in), ToF16Tensor(w), ToF16Tensor(bias), p, out16);
  const Tensor out = F16ToF32Tensor(out16);
  // 36-term dot products in F16: allow ~2% relative error.
  for (int64_t i = 0; i < ref.NumElements(); ++i) {
    const float r = ref.Data<float>()[i];
    EXPECT_NEAR(out.Data<float>()[i], r, std::fabs(r) * 0.03f + 0.02f);
  }
}

TEST(ConvQU8Test, MatchesF32ReferenceWithinScale) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  p.relu = true;
  Tensor in(Shape(1, 4, 8, 8), DType::kF32);
  Tensor w(Shape(6, 4, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 6, 1, 1), DType::kF32);
  FillUniform(in, 10, -1.0f, 1.0f);
  FillUniform(w, 11, -0.4f, 0.4f);
  FillUniform(bias, 12, -0.2f, 0.2f);
  const Tensor ref = RefConv(in, w, bias, p);

  // Quantize operands and the output range (from the reference, as a
  // calibrated runtime would).
  const QuantParams in_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams w_qp = ChooseQuantParams(-0.4f, 0.4f);
  MinMaxObserver obs;
  obs.Observe(ref);
  const QuantParams out_qp = obs.Params();

  const Tensor in_q = QuantizeTensor(in, in_qp);
  const Tensor w_q = QuantizeTensor(w, w_qp);
  Tensor bias_i32(bias.shape(), DType::kInt32);
  for (int64_t i = 0; i < bias.NumElements(); ++i) {
    bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
        std::lround(bias.Data<float>()[i] / (in_qp.scale * w_qp.scale)));
  }
  Tensor out_q(ref.shape(), DType::kQUInt8);
  out_q.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8(in_q, w_q, bias_i32, p, out_q);

  const Tensor out = DequantizeTensor(out_q);
  // Input-quantization error propagates through the 36-term dot product;
  // bound by a few output scales.
  EXPECT_LT(MaxAbsDiff(out, ref), out_qp.scale * 2.0f + 0.15f);
  EXPECT_LT(RmsDiff(out, ref), 0.06f);
}

TEST(ConvQU8Test, ChannelSlicesComposeExactly) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 4, 6, 6), DType::kF32);
  Tensor w(Shape(8, 4, 3, 3), DType::kF32);
  FillUniform(in, 13, -1.0f, 1.0f);
  FillUniform(w, 14, -0.5f, 0.5f);
  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
  const Tensor w_q = QuantizeTensor(w, ChooseQuantParams(-0.5f, 0.5f));
  const QuantParams out_qp = ChooseQuantParams(-6.0f, 6.0f);
  Tensor bias;

  Tensor full(Shape(1, 8, 6, 6), DType::kQUInt8);
  full.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8(in_q, w_q, bias, p, full);
  Tensor split_out(Shape(1, 8, 6, 6), DType::kQUInt8);
  split_out.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8(in_q, w_q, bias, p, split_out, 0, 3);
  Conv2DQU8(in_q, w_q, bias, p, split_out, 3, 8);
  EXPECT_EQ(std::memcmp(full.raw(), split_out.raw(), static_cast<size_t>(full.SizeBytes())), 0);
}

TEST(ConvQU8ViaF16Test, GpuPathApproximatesCpuPath) {
  // The processor-friendly GPU path (u8 storage, F16 math) must produce
  // outputs close to the CPU integer path — this is the paper's claim that
  // cooperative slices from different processors merge into one tensor.
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  p.relu = true;
  Tensor in(Shape(1, 4, 8, 8), DType::kF32);
  Tensor w(Shape(6, 4, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 6, 1, 1), DType::kF32);
  FillUniform(in, 15, -1.0f, 1.0f);
  FillUniform(w, 16, -0.4f, 0.4f);
  FillUniform(bias, 17, -0.1f, 0.1f);

  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
  const Tensor w_q = QuantizeTensor(w, ChooseQuantParams(-0.4f, 0.4f));
  const Tensor ref = RefConv(in, w, bias, p);
  MinMaxObserver obs;
  obs.Observe(ref);
  const QuantParams out_qp = obs.Params();

  Tensor bias_i32(bias.shape(), DType::kInt32);
  for (int64_t i = 0; i < bias.NumElements(); ++i) {
    bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
        std::lround(bias.Data<float>()[i] / (in_q.scale() * w_q.scale())));
  }

  Tensor cpu_out(ref.shape(), DType::kQUInt8);
  cpu_out.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8(in_q, w_q, bias_i32, p, cpu_out);
  Tensor gpu_out(ref.shape(), DType::kQUInt8);
  gpu_out.set_quant_params(out_qp.scale, out_qp.zero_point);
  Conv2DQU8ViaF16(in_q, w_q, bias, p, gpu_out);

  // Compare in the real domain: both paths see identical u8 inputs, so they
  // differ only by F16 rounding vs int32 exactness.
  const Tensor a = DequantizeTensor(cpu_out);
  const Tensor b = DequantizeTensor(gpu_out);
  EXPECT_LT(MaxAbsDiff(a, b), out_qp.scale * 3.0f);
}

TEST(DepthwiseConvTest, F32MatchesPerChannelReference) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  p.stride_h = p.stride_w = 2;
  Tensor in(Shape(1, 4, 9, 9), DType::kF32);
  Tensor w(Shape(4, 1, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 4, 1, 1), DType::kF32);
  FillUniform(in, 18);
  FillUniform(w, 19, -0.5f, 0.5f);
  FillUniform(bias, 20, -0.1f, 0.1f);
  Tensor out(Shape(1, 4, 5, 5), DType::kF32);
  DepthwiseConv2DF32(in, w, bias, p, out);

  // Per-channel reference: each channel is an ic=1 convolution.
  for (int64_t c = 0; c < 4; ++c) {
    Tensor in_c(Shape(1, 1, 9, 9), DType::kF32);
    std::memcpy(in_c.raw(), in.raw() + in.shape().Offset(0, c, 0, 0) * 4, 9 * 9 * 4);
    Tensor w_c(Shape(1, 1, 3, 3), DType::kF32);
    std::memcpy(w_c.raw(), w.raw() + c * 9 * 4, 9 * 4);
    Tensor b_c(Shape(1, 1, 1, 1), DType::kF32);
    b_c.Data<float>()[0] = bias.Data<float>()[c];
    const Tensor ref = RefConv(in_c, w_c, b_c, p);
    for (int64_t i = 0; i < ref.NumElements(); ++i) {
      EXPECT_NEAR(out.Data<float>()[out.shape().Offset(0, c, i / 5, i % 5)],
                  ref.Data<float>()[i], 1e-5f);
    }
  }
}

TEST(DepthwiseConvTest, ChannelSlicesComposeExactly) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 6, 8, 8), DType::kF32);
  Tensor w(Shape(6, 1, 3, 3), DType::kF32);
  Tensor bias(Shape(1, 6, 1, 1), DType::kF32);
  FillUniform(in, 21);
  FillUniform(w, 22, -0.5f, 0.5f);
  FillUniform(bias, 23, -0.1f, 0.1f);
  Tensor full(Shape(1, 6, 8, 8), DType::kF32);
  DepthwiseConv2DF32(in, w, bias, p, full);
  Tensor split_out(Shape(1, 6, 8, 8), DType::kF32);
  DepthwiseConv2DF32(in, w, bias, p, split_out, 0, 2);
  DepthwiseConv2DF32(in, w, bias, p, split_out, 2, 6);
  EXPECT_EQ(MaxAbsDiff(full, split_out), 0.0f);
}

TEST(DepthwiseConvTest, QU8QuantizedPaddingIsExactZero) {
  // With a nonzero input zero_point, padded positions must contribute
  // exactly zero (in_zp - in_zp), not a bias.
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 3;
  p.pad_h = p.pad_w = 1;
  Tensor in(Shape(1, 1, 3, 3), DType::kF32);
  in.Zero();  // All real zeros.
  Tensor w(Shape(1, 1, 3, 3), DType::kF32);
  for (int i = 0; i < 9; ++i) {
    w.Data<float>()[i] = 1.0f;
  }
  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));  // zp = 128.
  const Tensor w_q = QuantizeTensor(w, ChooseQuantParams(-1.0f, 1.0f));
  Tensor bias;
  Tensor out(Shape(1, 1, 3, 3), DType::kQUInt8);
  const QuantParams out_qp = ChooseQuantParams(-1.0f, 1.0f);
  out.set_quant_params(out_qp.scale, out_qp.zero_point);
  DepthwiseConv2DQU8(in_q, w_q, bias, p, out);
  for (int64_t i = 0; i < out.NumElements(); ++i) {
    EXPECT_EQ(out.Data<uint8_t>()[i], static_cast<uint8_t>(out_qp.zero_point));
  }
}

// ---- SIMD dispatch + prepare-time cache equivalence -------------------------
// The conv drivers must produce byte-identical outputs under every dispatched
// ISA, with and without packed filter panels, for tile-aligned AND unaligned
// cooperative oc slices (unaligned slices fall back to row-major filters),
// and — for the via-F16 path — with and without pre-staged input columns.

class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::ForceIsa(isa); }
  ~IsaGuard() { simd::ResetForcedIsa(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

struct QU8ConvFixture {
  Conv2DParams p;
  Tensor in_q, w_q, bias_f32, bias_i32;
  QuantParams out_qp;
  std::vector<uint8_t> w_packed;

  QU8ConvFixture() {
    p.kernel_h = p.kernel_w = 3;
    p.pad_h = p.pad_w = 1;
    p.relu = true;
    Tensor in(Shape(2, 5, 7, 7), DType::kF32);
    Tensor w(Shape(11, 5, 3, 3), DType::kF32);  // Odd oc: partial last tile.
    bias_f32 = Tensor(Shape(1, 11, 1, 1), DType::kF32);
    FillUniform(in, 51, -1.0f, 1.0f);
    FillUniform(w, 52, -0.4f, 0.4f);
    FillUniform(bias_f32, 53, -0.1f, 0.1f);
    in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
    w_q = QuantizeTensor(w, ChooseQuantParams(-0.4f, 0.4f));
    bias_i32 = Tensor(bias_f32.shape(), DType::kInt32);
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
          std::lround(bias_f32.Data<float>()[i] / (in_q.scale() * w_q.scale())));
    }
    out_qp = ChooseQuantParams(-4.0f, 4.0f);
    const int64_t k = w.shape().c * w.shape().h * w.shape().w;
    w_packed.resize(static_cast<size_t>(PackedPanelElems(w.shape().n, k)));
    PackRowPanels(w_q.Data<uint8_t>(), w.shape().n, k, w_packed.data());
  }

  Tensor MakeOut() const {
    Tensor out(Shape(2, 11, 7, 7), DType::kQUInt8);
    out.set_quant_params(out_qp.scale, out_qp.zero_point);
    return out;
  }
};

bool SameBytes(const Tensor& a, const Tensor& b) {
  return a.SizeBytes() == b.SizeBytes() &&
         std::memcmp(a.raw(), b.raw(), static_cast<size_t>(a.SizeBytes())) == 0;
}

TEST(ConvSimdDispatchTest, QU8SlicesByteIdenticalAcrossIsas) {
  const QU8ConvFixture f;
  Tensor want = f.MakeOut();
  {
    const IsaGuard g(simd::Isa::kScalar);
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, want);
  }
  for (const simd::Isa isa : simd::SupportedIsas()) {
    const IsaGuard g(isa);
    Tensor got = f.MakeOut();
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, got);
    EXPECT_TRUE(SameBytes(want, got)) << simd::IsaName(isa);

    // Cooperative slices with packed panels: [0, 8) is tile-aligned and uses
    // the panels; [8, 11) is the partial tail tile; a [3, 11) split is
    // unaligned and must silently fall back to the row-major filters.
    ConvAux aux;
    aux.filters_packed_qu8 = f.w_packed.data();
    Tensor sliced = f.MakeOut();
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, sliced, 0, 8, aux);
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, sliced, 8, 11, aux);
    EXPECT_TRUE(SameBytes(want, sliced)) << simd::IsaName(isa) << " packed slices";
    Tensor unaligned = f.MakeOut();
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, unaligned, 0, 3, aux);
    Conv2DQU8(f.in_q, f.w_q, f.bias_i32, f.p, unaligned, 3, 11, aux);
    EXPECT_TRUE(SameBytes(want, unaligned)) << simd::IsaName(isa) << " unaligned slices";
  }
}

TEST(ConvSimdDispatchTest, ViaF16ByteIdenticalAcrossIsas) {
  const QU8ConvFixture f;
  Tensor want = f.MakeOut();
  {
    const IsaGuard g(simd::Isa::kScalar);
    Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, want);
  }
  for (const simd::Isa isa : simd::SupportedIsas()) {
    const IsaGuard g(isa);
    Tensor got = f.MakeOut();
    Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, got);
    EXPECT_TRUE(SameBytes(want, got)) << simd::IsaName(isa);
    Tensor sliced = f.MakeOut();
    Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, sliced, 0, 4);
    Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, sliced, 4, 11);
    EXPECT_TRUE(SameBytes(want, sliced)) << simd::IsaName(isa) << " slices";
  }
}

// An FC layer as the zoo models it: a conv whose kernel covers the whole
// input (k = 64*4*4 = 1024) with a 1x1 output, oc = 1000, at batch 2. The
// conv kernels send it to the GEMV slots. Whole and as the slices [0, 250) +
// [250, 1000), whose boundary falls mid-tile, every ISA must reproduce the
// scalar ISA's bytes on the per-tensor, per-channel and via-F16 paths.
TEST(ConvSimdDispatchTest, FullyConnectedByteIdenticalAcrossIsas) {
  Conv2DParams p;
  p.kernel_h = p.kernel_w = 4;
  p.relu = true;
  Tensor in(Shape(2, 64, 4, 4), DType::kF32);
  Tensor w(Shape(1000, 64, 4, 4), DType::kF32);
  Tensor bias_f32(Shape(1, 1000, 1, 1), DType::kF32);
  FillUniform(in, 61, -1.0f, 1.0f);
  FillUniform(w, 62, -0.05f, 0.05f);
  FillUniform(bias_f32, 63, -0.1f, 0.1f);
  const Tensor in_q = QuantizeTensor(in, ChooseQuantParams(-1.0f, 1.0f));
  const Tensor w_q = QuantizeTensor(w, ChooseQuantParams(-0.05f, 0.05f));
  PerChannelParams pc;
  const Tensor w_pc = QuantizeFiltersPerChannel(w, pc);
  Tensor bias_i32(bias_f32.shape(), DType::kInt32);
  for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
    bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
        std::lround(bias_f32.Data<float>()[i] / (in_q.scale() * w_q.scale())));
  }
  const QuantParams out_qp = ChooseQuantParams(-2.0f, 2.0f);
  const auto make_out = [&] {
    Tensor out(Shape(2, 1000, 1, 1), DType::kQUInt8);
    out.set_quant_params(out_qp.scale, out_qp.zero_point);
    return out;
  };
  const auto run = [&](int path, int64_t oc_begin, int64_t oc_end, Tensor& out) {
    if (path == 0) {
      Conv2DQU8(in_q, w_q, bias_i32, p, out, oc_begin, oc_end);
    } else if (path == 1) {
      Conv2DQU8PerChannel(in_q, w_pc, pc, bias_i32, p, out, oc_begin, oc_end);
    } else {
      Conv2DQU8ViaF16(in_q, w_q, bias_f32, p, out, oc_begin, oc_end);
    }
  };
  for (int path = 0; path < 3; ++path) {
    Tensor want = make_out();
    {
      const IsaGuard g(simd::Isa::kScalar);
      run(path, 0, 1000, want);
    }
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      Tensor whole = make_out();
      run(path, 0, 1000, whole);
      EXPECT_TRUE(SameBytes(want, whole)) << simd::IsaName(isa) << " path " << path;
      Tensor sliced = make_out();
      run(path, 0, 250, sliced);
      run(path, 250, 1000, sliced);
      EXPECT_TRUE(SameBytes(want, sliced)) << simd::IsaName(isa) << " path " << path
                                           << " slices";
    }
  }
}

TEST(ConvQU8ViaF16Test, StagedColsMatchUnstagedExactly) {
  // The cooperative staging path (dequantize + im2col hoisted out of the
  // per-slice calls) must not change a single output byte, for aligned and
  // unaligned slices alike.
  const QU8ConvFixture f;
  Tensor want = f.MakeOut();
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, want);

  memory::ScratchArena arena(static_cast<size_t>(
      Conv2DViaF16StagedColsBytes(f.in_q.shape(), f.w_q.shape(), f.p) +
      Conv2DScratchBytes(DType::kQUInt8, DType::kF16, f.in_q.shape(), f.w_q.shape(), f.p,
                         /*staged_cols=*/true)));
  const Half* staged = Conv2DQU8ViaF16StageCols(f.in_q, f.w_q.shape(), f.p, &arena);
  ASSERT_NE(staged, nullptr);
  const memory::ScratchArena::Mark mark = arena.MarkPoint();

  ConvAux aux;
  aux.scratch = &arena;
  aux.staged_cols = staged;
  Tensor got = f.MakeOut();
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, got, 0, 4, aux);
  arena.ResetTo(mark);
  Conv2DQU8ViaF16(f.in_q, f.w_q, f.bias_f32, f.p, got, 4, 11, aux);
  EXPECT_TRUE(SameBytes(want, got));

  // Null arena must decline to stage (legacy heap path keeps working).
  EXPECT_EQ(Conv2DQU8ViaF16StageCols(f.in_q, f.w_q.shape(), f.p, nullptr), nullptr);
}

}  // namespace
}  // namespace ulayer
