#include "kernels/gemm.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "kernels/pack.h"
#include "kernels/simd.h"
#include "quant/half.h"
#include "quant/quantize.h"
#include "tensor/rng.h"

namespace ulayer {
namespace {

// Naive reference GEMM in double precision.
std::vector<double> RefGemm(const std::vector<float>& a, const std::vector<float>& b, int64_t m,
                            int64_t n, int64_t k, const std::vector<float>* bias) {
  std::vector<double> c(static_cast<size_t>(m * n), 0.0);
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = bias != nullptr ? static_cast<double>((*bias)[static_cast<size_t>(i)]) : 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        acc += static_cast<double>(a[static_cast<size_t>(i * k + kk)]) *
               static_cast<double>(b[static_cast<size_t>(kk * n + j)]);
      }
      c[static_cast<size_t>(i * n + j)] = acc;
    }
  }
  return c;
}

std::vector<float> RandomVec(size_t n, uint64_t seed, float lo = -1.0f, float hi = 1.0f) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) {
    x = rng.Uniform(lo, hi);
  }
  return v;
}

TEST(GemmF32Test, MatchesReference) {
  const int64_t m = 7, n = 13, k = 19;
  const auto a = RandomVec(static_cast<size_t>(m * k), 1);
  const auto b = RandomVec(static_cast<size_t>(k * n), 2);
  const auto bias = RandomVec(static_cast<size_t>(m), 3);
  std::vector<float> c(static_cast<size_t>(m * n));
  GemmF32(a.data(), b.data(), c.data(), m, n, k, bias.data(), false);
  const auto ref = RefGemm(a, b, m, n, k, &bias);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], ref[i], 1e-4) << i;
  }
}

TEST(GemmF32Test, ReluClampsNegatives) {
  const int64_t m = 4, n = 6, k = 8;
  const auto a = RandomVec(static_cast<size_t>(m * k), 4);
  const auto b = RandomVec(static_cast<size_t>(k * n), 5);
  std::vector<float> c(static_cast<size_t>(m * n));
  GemmF32(a.data(), b.data(), c.data(), m, n, k, nullptr, true);
  const auto ref = RefGemm(a, b, m, n, k, nullptr);
  bool saw_clamp = false;
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c[i], std::max(ref[i], 0.0), 1e-4);
    saw_clamp |= ref[i] < 0.0;
  }
  EXPECT_TRUE(saw_clamp) << "test vector should exercise the clamp";
}

TEST(GemmF32Test, NoBiasMeansZeroInit) {
  const int64_t m = 2, n = 2, k = 1;
  const float a[] = {1.0f, 2.0f};
  const float b[] = {3.0f, 4.0f};
  float c[4] = {99.0f, 99.0f, 99.0f, 99.0f};  // Stale values must be overwritten.
  GemmF32(a, b, c, m, n, k, nullptr, false);
  EXPECT_FLOAT_EQ(c[0], 3.0f);
  EXPECT_FLOAT_EQ(c[1], 4.0f);
  EXPECT_FLOAT_EQ(c[2], 6.0f);
  EXPECT_FLOAT_EQ(c[3], 8.0f);
}

TEST(GemmF16Test, SmallValuesMatchF32Closely) {
  const int64_t m = 3, n = 5, k = 7;
  const auto a = RandomVec(static_cast<size_t>(m * k), 6, -0.5f, 0.5f);
  const auto b = RandomVec(static_cast<size_t>(k * n), 7, -0.5f, 0.5f);
  std::vector<Half> ah, bh;
  for (float v : a) ah.emplace_back(v);
  for (float v : b) bh.emplace_back(v);
  std::vector<Half> ch(static_cast<size_t>(m * n));
  GemmF16(ah.data(), bh.data(), ch.data(), m, n, k, nullptr, false);
  const auto ref = RefGemm(a, b, m, n, k, nullptr);
  for (size_t i = 0; i < ch.size(); ++i) {
    // F16 relative error per op ~2^-11; 7-term dot products stay within ~1%.
    EXPECT_NEAR(ch[i].ToFloat(), ref[i], std::fabs(ref[i]) * 0.02 + 0.01);
  }
}

TEST(GemmF16Test, AccumulationIsF16NotF32) {
  // Sum of 32 copies of 128.03125: in F16 the accumulator rounds each step,
  // diverging from the exact 4097. This pins the native-F16-ALU semantics.
  const int64_t k = 32;
  std::vector<Half> a(static_cast<size_t>(k), Half(128.03125f));
  std::vector<Half> b(static_cast<size_t>(k), Half(1.0f));
  Half c;
  GemmF16(a.data(), b.data(), &c, 1, 1, k, nullptr, false);
  EXPECT_NE(c.ToFloat(), 128.03125f * 32.0f);
  EXPECT_NEAR(c.ToFloat(), 4097.0f, 8.0f);
}

TEST(GemmQU8Test, MatchesDequantizedReference) {
  const int64_t m = 6, n = 9, k = 12;
  // Real-valued operands in [-1, 1], quantized with symmetric-ish ranges.
  const auto a_real = RandomVec(static_cast<size_t>(m * k), 8);
  const auto b_real = RandomVec(static_cast<size_t>(k * n), 9);
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams c_qp = ChooseQuantParams(-6.0f, 6.0f);

  std::vector<uint8_t> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
  for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
  for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);

  const RequantScale rs =
      ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                          static_cast<double>(c_qp.scale));
  std::vector<uint8_t> c(static_cast<size_t>(m * n));
  GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, c.data(), c_qp.zero_point, rs, m,
          n, k, nullptr, false);

  // Reference on the *dequantized* operands (so only requantization error
  // and output rounding remain).
  std::vector<float> a_dq(a.size()), b_dq(b.size());
  for (size_t i = 0; i < a.size(); ++i) a_dq[i] = a_qp.Dequantize(a[i]);
  for (size_t i = 0; i < b.size(); ++i) b_dq[i] = b_qp.Dequantize(b[i]);
  const auto ref = RefGemm(a_dq, b_dq, m, n, k, nullptr);
  for (size_t i = 0; i < c.size(); ++i) {
    const float got = c_qp.Dequantize(c[i]);
    EXPECT_NEAR(got, ref[i], static_cast<double>(c_qp.scale) * 1.5) << i;
  }
}

TEST(GemmQU8Test, BiasIsAppliedInAccumulatorDomain) {
  const QuantParams a_qp{0.5f, 10};
  const QuantParams b_qp{0.25f, 20};
  const QuantParams c_qp{0.5f, 0};
  const int64_t k = 1;
  const uint8_t a = 14;  // real 2.0
  const uint8_t b = 28;  // real 2.0
  const int32_t bias = 8;  // real: 8 * (0.5*0.25) = 1.0
  const RequantScale rs = ComputeRequantScale(0.5 * 0.25 / 0.5);
  uint8_t c = 0;
  GemmQU8(&a, a_qp.zero_point, &b, b_qp.zero_point, &c, c_qp.zero_point, rs, 1, 1, k, &bias,
          false);
  // Expected real output: 2*2 + 1 = 5.0 -> q = 10.
  EXPECT_EQ(c, 10);
}

TEST(GemmQU8Test, QuantizedReluClampsAtZeroPoint) {
  const QuantParams qp{0.1f, 128};
  const int64_t k = 1;
  const uint8_t a = 100;  // real -2.8
  const uint8_t b = 200;  // real  7.2 -> product -20.16
  const RequantScale rs = ComputeRequantScale(0.1 * 0.1 / 0.1);
  uint8_t c_no_relu = 0, c_relu = 0;
  GemmQU8(&a, qp.zero_point, &b, qp.zero_point, &c_no_relu, qp.zero_point, rs, 1, 1, k, nullptr,
          false);
  GemmQU8(&a, qp.zero_point, &b, qp.zero_point, &c_relu, qp.zero_point, rs, 1, 1, k, nullptr,
          true);
  EXPECT_LT(c_no_relu, 128);  // Negative real value.
  EXPECT_EQ(c_relu, 128);     // Clamped to quantized zero.
}

// Property sweep: quantized GEMM error stays bounded across sizes.
class GemmQU8Property : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(GemmQU8Property, ErrorBounded) {
  const auto [m, n, k] = GetParam();
  const auto a_real = RandomVec(static_cast<size_t>(m * k), static_cast<uint64_t>(m * 31 + n));
  const auto b_real = RandomVec(static_cast<size_t>(k * n), static_cast<uint64_t>(k * 17 + m));
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  const float out_range = static_cast<float>(k) * 0.6f;
  const QuantParams c_qp = ChooseQuantParams(-out_range, out_range);
  std::vector<uint8_t> a(a_real.size()), b(b_real.size());
  for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
  for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);
  const RequantScale rs =
      ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                          static_cast<double>(c_qp.scale));
  std::vector<uint8_t> c(static_cast<size_t>(m) * static_cast<size_t>(n));
  GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, c.data(), c_qp.zero_point, rs, m,
          n, k, nullptr, false);
  std::vector<float> a_dq(a.size()), b_dq(b.size());
  for (size_t i = 0; i < a.size(); ++i) a_dq[i] = a_qp.Dequantize(a[i]);
  for (size_t i = 0; i < b.size(); ++i) b_dq[i] = b_qp.Dequantize(b[i]);
  const auto ref = RefGemm(a_dq, b_dq, m, n, k, nullptr);
  for (size_t i = 0; i < c.size(); ++i) {
    EXPECT_NEAR(c_qp.Dequantize(c[i]), ref[i], static_cast<double>(c_qp.scale) * 1.5);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, GemmQU8Property,
                         ::testing::Values(std::make_tuple(1, 1, 64),
                                           std::make_tuple(16, 16, 16),
                                           std::make_tuple(3, 32, 128),
                                           std::make_tuple(32, 3, 9),
                                           std::make_tuple(8, 64, 27)));

// ---- SIMD dispatch matrix (DESIGN.md Section 13) ----------------------------
// Every ISA variant must reproduce the scalar reference exactly: the QU8 and
// F32 outputs byte-identical, the F16 output bit-identical per element. The
// shapes cover full 4-row tiles, partial tiles, vector-width column
// remainders, GEMVs (n == 1 with row-major A), single elements and empty
// ranges; the packed-panel variant must match the row-major one on every ISA
// too. Every operand is allocated at its exact size, so an ASan build catches
// a remainder or GEMV that touches a byte past column n or row m.

class IsaGuard {
 public:
  explicit IsaGuard(simd::Isa isa) { simd::ForceIsa(isa); }
  ~IsaGuard() { simd::ResetForcedIsa(); }
  IsaGuard(const IsaGuard&) = delete;
  IsaGuard& operator=(const IsaGuard&) = delete;
};

struct GemmShape {
  int64_t m, n, k;
};

// The fixed cases, then the grids where the remainder blocks and the GEMV
// slots engage: ragged n around the 8- and 16-wide blocks, m around the 4-row
// tiles and 8-row GEMV groups, odd and even k around the k-pair and 8-k
// GEMV chunks, plus one classifier-sized GEMV; then the AVX-512 F16 tile's
// block, remainder and strip edges.
std::vector<GemmShape> DispatchShapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},     // single element
      {3, 5, 7},     // partial row tile + column remainder
      {4, 16, 32},   // exact tiles
      {5, 257, 40},  // 4+1 rows, 16-wide blocks + 8-block + 1-col remainder
      {8, 260, 33},  // remainder columns, odd k
      {0, 8, 8},     // empty m
      {4, 8, 0},     // empty k (bias passthrough)
      {7, 129, 65},  // everything misaligned
      {64, 48, 96},  // several chunks worth of rows
      {64, 1, 4096},  // GEMV with a long k
      {7, 1, 17},     // GEMV: a 3-row tile, a partial 8-row group, k tail
      {46, 1, 33},    // GEMV: 4 groups + 1 + a 6-row group, a 2-row tile
  };
  for (const int64_t n : {1, 2, 7, 9, 15, 17}) {
    for (const int64_t m : {1, 8, 9, 33, 64}) {
      for (const int64_t k : {1, 2, 3, 9, 300}) {
        shapes.push_back({m, n, k});
      }
    }
  }
  // Every row count, with n around the AVX-512 F16 tile's 32-lane masked
  // remainder and 64-column block and k around its 256-step A strip.
  for (const int64_t n : {1, 31, 32, 33, 63, 64, 65, 127}) {
    for (const int64_t k : {255, 256, 257, 513}) {
      for (int64_t m = 1; m <= simd::kRowTile; ++m) {
        shapes.push_back({m, n, k});
      }
    }
  }
  return shapes;
}

template <typename T>
bool BytesEqual(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

// Naive oracles: plain loops that state each GEMM's arithmetic contract
// directly. The dispatch tests below compare the scalar table's output with
// them byte for byte, so every tier is checked against an independent
// statement of the contract, not only against the scalar table.

// int32 sum of (a - a_zp)(b - b_zp) plus bias, requantized, ReLU at c_zp.
std::vector<uint8_t> NaiveGemmQU8(const std::vector<uint8_t>& a, int32_t a_zp,
                                  const std::vector<uint8_t>& b, int32_t b_zp, int32_t c_zp,
                                  const RequantScale& rs, const GemmShape& s,
                                  const std::vector<int32_t>& bias) {
  std::vector<uint8_t> c(static_cast<size_t>(s.m * s.n));
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) {
      int32_t acc = bias[static_cast<size_t>(i)];
      for (int64_t kk = 0; kk < s.k; ++kk) {
        acc += (a[static_cast<size_t>(i * s.k + kk)] - a_zp) *
               (b[static_cast<size_t>(kk * s.n + j)] - b_zp);
      }
      c[static_cast<size_t>(i * s.n + j)] =
          std::max(RequantizeOne(acc, rs, c_zp), static_cast<uint8_t>(c_zp));
    }
  }
  return c;
}

// i-k-j from the bias, skipping a == 0 terms, then ReLU.
std::vector<float> NaiveGemmF32(const std::vector<float>& a, const std::vector<float>& b,
                                const GemmShape& s, const std::vector<float>& bias) {
  std::vector<float> c(static_cast<size_t>(s.m * s.n));
  for (int64_t i = 0; i < s.m; ++i) {
    float* crow = c.data() + i * s.n;
    std::fill(crow, crow + s.n, bias[static_cast<size_t>(i)]);
    for (int64_t kk = 0; kk < s.k; ++kk) {
      const float av = a[static_cast<size_t>(i * s.k + kk)];
      if (av == 0.0f) {
        continue;
      }
      for (int64_t j = 0; j < s.n; ++j) {
        crow[j] += av * b[static_cast<size_t>(kk * s.n + j)];
      }
    }
    for (int64_t j = 0; j < s.n; ++j) {
      crow[j] = std::max(crow[j], 0.0f);
    }
  }
  return c;
}

// Per element, a Half chain from the bias: c = RN16(c + RN16(a*b)) over
// ascending k, then ReLU.
std::vector<Half> NaiveGemmF16(const std::vector<Half>& a, const std::vector<Half>& b,
                               const GemmShape& s, const std::vector<Half>& bias) {
  const Half zero(0.0f);
  std::vector<Half> c(static_cast<size_t>(s.m * s.n));
  for (int64_t i = 0; i < s.m; ++i) {
    for (int64_t j = 0; j < s.n; ++j) {
      Half acc = bias[static_cast<size_t>(i)];
      for (int64_t kk = 0; kk < s.k; ++kk) {
        acc += a[static_cast<size_t>(i * s.k + kk)] * b[static_cast<size_t>(kk * s.n + j)];
      }
      c[static_cast<size_t>(i * s.n + j)] = acc < zero ? zero : acc;
    }
  }
  return c;
}

// One ladder, best first: avx512, avx2, scalar. An ARM or pre-AVX2 host lists
// scalar alone.
TEST(SimdDispatchTest, SupportedIsasEndsWithScalar) {
  const char* const ladder[] = {"avx512", "avx2", "scalar"};
  const auto isas = simd::SupportedIsas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), simd::Isa::kScalar);
  // Each listed ISA is a rung strictly below the one listed before it.
  const char* const* rung = std::begin(ladder);
  for (const simd::Isa isa : isas) {
    const std::string name = simd::IsaName(isa);
    rung = std::find_if(rung, std::end(ladder), [&](const char* r) { return name == r; });
    ASSERT_NE(rung, std::end(ladder)) << name << " is not a rung below the previous one";
    ++rung;
    EXPECT_EQ(simd::GemmMicroKernelsFor(isa).isa, isa) << name;
  }
}

// Forcing the AVX-512 tier selects it where it is supported (listed first,
// as the best tier) and otherwise falls back to the best supported tier,
// never to a table the CPU cannot run.
TEST(SimdDispatchTest, ForcedAvx512FallsBackWhereUnsupported) {
  EXPECT_STREQ(simd::IsaName(simd::Isa::kAvx512), "avx512");
  const auto isas = simd::SupportedIsas();
  const bool has = std::find(isas.begin(), isas.end(), simd::Isa::kAvx512) != isas.end();
  if (has) {
    EXPECT_EQ(isas.front(), simd::Isa::kAvx512);
  }
  EXPECT_EQ(simd::GemmMicroKernelsFor(simd::Isa::kAvx512).isa,
            has ? simd::Isa::kAvx512 : simd::Isa::kScalar);
  const IsaGuard g(simd::Isa::kAvx512);
  EXPECT_EQ(simd::ActiveIsa(), has ? simd::Isa::kAvx512 : isas.front());
  EXPECT_EQ(simd::ActiveGemmMicroKernels().isa, simd::ActiveIsa());
}

TEST(SimdDispatchTest, F32ByteIdenticalAcrossIsas) {
  for (const GemmShape& s : DispatchShapes()) {
    auto a = RandomVec(static_cast<size_t>(s.m * s.k), 11);
    // Sprinkle exact zeros so the per-(row, k) skip path fires on some rows
    // while others stay zero-free (the prescanned fast path).
    for (size_t i = 0; i < a.size(); i += 7) {
      a[i] = 0.0f;
    }
    const auto b = RandomVec(static_cast<size_t>(s.k * s.n), 12);
    const auto bias = RandomVec(static_cast<size_t>(s.m), 13);
    std::vector<float> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
    PackRowPanels(a.data(), s.m, s.k, ap.data());
    std::vector<float> want(static_cast<size_t>(s.m * s.n));
    {
      const IsaGuard g(simd::Isa::kScalar);
      GemmF32(a.data(), b.data(), want.data(), s.m, s.n, s.k, bias.data(), true);
    }
    EXPECT_TRUE(BytesEqual(NaiveGemmF32(a, b, s, bias), want))
        << "scalar vs naive m=" << s.m << " n=" << s.n << " k=" << s.k;
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      EXPECT_EQ(simd::ActiveGemmMicroKernels().isa, isa);
      std::vector<float> got(want.size(), -1.0f);
      GemmF32(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias.data(), true);
      EXPECT_TRUE(BytesEqual(want, got))
          << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      std::vector<float> got_packed(want.size(), -2.0f);
      GemmF32(a.data(), b.data(), got_packed.data(), s.m, s.n, s.k, bias.data(), true,
              ap.empty() ? nullptr : ap.data());
      EXPECT_TRUE(BytesEqual(want, got_packed))
          << simd::IsaName(isa) << " packed m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(SimdDispatchTest, F16BitIdenticalAcrossIsas) {
  for (const GemmShape& s : DispatchShapes()) {
    const auto af = RandomVec(static_cast<size_t>(s.m * s.k), 21);
    const auto bf = RandomVec(static_cast<size_t>(s.k * s.n), 22);
    const auto biasf = RandomVec(static_cast<size_t>(s.m), 23);
    std::vector<Half> a(af.size()), b(bf.size()), bias(biasf.size());
    for (size_t i = 0; i < af.size(); ++i) a[i] = Half(af[i]);
    for (size_t i = 0; i < bf.size(); ++i) b[i] = Half(bf[i]);
    for (size_t i = 0; i < biasf.size(); ++i) bias[i] = Half(biasf[i]);
    std::vector<Half> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
    PackRowPanels(a.data(), s.m, s.k, ap.data());
    std::vector<Half> want(static_cast<size_t>(s.m * s.n));
    {
      const IsaGuard g(simd::Isa::kScalar);
      GemmF16(a.data(), b.data(), want.data(), s.m, s.n, s.k, bias.data(), true);
    }
    EXPECT_TRUE(BytesEqual(NaiveGemmF16(a, b, s, bias), want))
        << "scalar vs naive m=" << s.m << " n=" << s.n << " k=" << s.k;
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      std::vector<Half> got(want.size(), Half(-1.0f));
      GemmF16(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias.data(), true);
      EXPECT_TRUE(BytesEqual(want, got))
          << simd::IsaName(isa) << " m=" << s.m << " n=" << s.n << " k=" << s.k;
      std::vector<Half> got_packed(want.size(), Half(-2.0f));
      GemmF16(a.data(), b.data(), got_packed.data(), s.m, s.n, s.k, bias.data(), true,
              ap.empty() ? nullptr : ap.data());
      EXPECT_TRUE(BytesEqual(want, got_packed))
          << simd::IsaName(isa) << " packed m=" << s.m << " n=" << s.n << " k=" << s.k;
    }
  }
}

TEST(SimdDispatchTest, QU8ByteIdenticalAcrossIsas) {
  const QuantParams a_qp = ChooseQuantParams(-1.0f, 1.0f);
  const QuantParams b_qp = ChooseQuantParams(-1.0f, 1.0f);
  for (const GemmShape& s : DispatchShapes()) {
    const auto a_real = RandomVec(static_cast<size_t>(s.m * s.k), 31);
    const auto b_real = RandomVec(static_cast<size_t>(s.k * s.n), 32);
    std::vector<uint8_t> a(a_real.size()), b(b_real.size());
    for (size_t i = 0; i < a.size(); ++i) a[i] = a_qp.Quantize(a_real[i]);
    for (size_t i = 0; i < b.size(); ++i) b[i] = b_qp.Quantize(b_real[i]);
    std::vector<int32_t> bias(static_cast<size_t>(s.m));
    for (size_t i = 0; i < bias.size(); ++i) bias[i] = static_cast<int32_t>(i * 3) - 5;
    const QuantParams c_qp = ChooseQuantParams(-static_cast<float>(s.k) * 0.6f - 1.0f,
                                               static_cast<float>(s.k) * 0.6f + 1.0f);
    const RequantScale rs =
        ComputeRequantScale(static_cast<double>(a_qp.scale) * static_cast<double>(b_qp.scale) /
                            static_cast<double>(c_qp.scale));
    std::vector<uint8_t> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
    PackRowPanels(a.data(), s.m, s.k, ap.data());
    std::vector<int32_t> rowsum(static_cast<size_t>(s.m), 0);
    for (size_t i = 0; i < a.size(); ++i) rowsum[i / static_cast<size_t>(s.k)] += a[i];
    std::vector<uint8_t> want(static_cast<size_t>(s.m * s.n));
    {
      const IsaGuard g(simd::Isa::kScalar);
      GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, want.data(),
              c_qp.zero_point, rs, s.m, s.n, s.k, bias.data(), true);
    }
    EXPECT_TRUE(BytesEqual(NaiveGemmQU8(a, a_qp.zero_point, b, b_qp.zero_point,
                                        c_qp.zero_point, rs, s, bias),
                           want))
        << "scalar vs naive m=" << s.m << " n=" << s.n << " k=" << s.k;
    const int32_t* const rowsums[] = {nullptr, rowsum.data()};
    const uint8_t* const panels[] = {nullptr, ap.empty() ? nullptr : ap.data()};
    for (const simd::Isa isa : simd::SupportedIsas()) {
      const IsaGuard g(isa);
      for (const int32_t* sums : rowsums) {
        for (const uint8_t* packed : panels) {
          std::vector<uint8_t> got(want.size(), 0xAA);
          GemmQU8(a.data(), a_qp.zero_point, b.data(), b_qp.zero_point, got.data(),
                  c_qp.zero_point, rs, s.m, s.n, s.k, bias.data(), true, sums, packed);
          EXPECT_TRUE(BytesEqual(want, got))
              << simd::IsaName(isa) << " rowsum=" << (sums != nullptr)
              << " packed=" << (packed != nullptr) << " m=" << s.m << " n=" << s.n
              << " k=" << s.k;
        }
      }
    }
  }
}

// F16 edge values. The tiny palette (subnormal inputs among them) gives
// subnormal products and sums and signed zeros; the huge one overflows to
// +-inf and, where infinities of both signs meet, to NaN. NaN payloads are
// not part of the contract, so NaN compares by class; every other element
// compares by bits.
bool SameHalf(Half want, Half got) {
  const bool want_nan = std::isnan(want.ToFloat());
  const bool got_nan = std::isnan(got.ToFloat());
  return want_nan || got_nan ? want_nan == got_nan : want.bits() == got.bits();
}

TEST(SimdDispatchTest, F16EdgeValuesBitIdenticalAcrossIsas) {
  const std::vector<float> palettes[] = {
      {0.0f, -0.0f, 0.0078125f, -0.00390625f, 0.000244140625f, -0.000244140625f,
       0.0000152587890625f, -0.0000017881393f, 0.333f},
      {0.0f, -0.0f, 1.0f, -2.0f, 255.0f, -300.0f, 60000.0f, -60000.0f}};
  const GemmShape shapes[] = {{9, 17, 9},   {8, 7, 3}, {9, 9, 1},   {13, 1, 9},
                              {33, 1, 300}, {1, 2, 2}, {5, 257, 40}, {64, 1, 4096}};
  for (const std::vector<float>& palette : palettes) {
    uint64_t seed = 91;
    const auto pick = [&]() {
      seed = seed * 6364136223846793005ull + 1442695040888963407ull;
      return Half(palette[(seed >> 33) % palette.size()]);
    };
    for (const GemmShape& s : shapes) {
      std::vector<Half> a(static_cast<size_t>(s.m * s.k)), b(static_cast<size_t>(s.k * s.n));
      std::vector<Half> bias(static_cast<size_t>(s.m));
      for (Half& v : a) v = pick();
      for (Half& v : b) v = pick();
      for (Half& v : bias) v = pick();
      std::vector<Half> ap(static_cast<size_t>(PackedPanelElems(s.m, s.k)));
      PackRowPanels(a.data(), s.m, s.k, ap.data());
      for (const bool relu : {false, true}) {
        std::vector<Half> want(static_cast<size_t>(s.m * s.n));
        {
          const IsaGuard g(simd::Isa::kScalar);
          GemmF16(a.data(), b.data(), want.data(), s.m, s.n, s.k, bias.data(), relu);
        }
        for (const simd::Isa isa : simd::SupportedIsas()) {
          const IsaGuard g(isa);
          for (const bool packed : {false, true}) {
            std::vector<Half> got(want.size(), Half(-1.0f));
            GemmF16(a.data(), b.data(), got.data(), s.m, s.n, s.k, bias.data(), relu,
                    packed ? ap.data() : nullptr);
            for (size_t i = 0; i < want.size(); ++i) {
              ASSERT_TRUE(SameHalf(want[i], got[i]))
                  << simd::IsaName(isa) << (packed ? " packed" : "") << " m=" << s.m
                  << " n=" << s.n << " k=" << s.k << " relu=" << relu << " i=" << i
                  << ": want 0x" << std::hex << want[i].bits() << " got 0x"
                  << got[i].bits();
            }
          }
        }
      }
    }
  }
}

// The QU8 slots at the int32 accumulator, before requantization can round a
// difference away: zero points 0 and 255 drive a - zp to +-255 in the int16
// lanes of the paired-k tile and the GEMV. A, B and acc are sized exactly
// (ldb = jn, acc_ld = jn).
TEST(SimdDispatchTest, QU8AccumulatorsIdenticalAcrossIsasAtExtremeZeroPoints) {
  const GemmShape shapes[] = {{4, 17, 9},   {3, 7, 300},  {4, 33, 2},  {2, 1, 1},
                              {4, 16, 3},   {1, 9, 4096}, {33, 1, 300}, {9, 1, 17},
                              {4, 23, 513}, {3, 1, 513}};
  for (const GemmShape& s : shapes) {
    std::vector<uint8_t> a(static_cast<size_t>(s.m * s.k)), b(static_cast<size_t>(s.k * s.n));
    uint64_t st = 7 + static_cast<uint64_t>(s.m * 1000 + s.n * 10 + s.k);
    for (uint8_t& v : a) {
      st = st * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint8_t>(st >> 56);
    }
    for (uint8_t& v : b) {
      st = st * 6364136223846793005ull + 1442695040888963407ull;
      v = static_cast<uint8_t>(st >> 56);
    }
    // Extremes in every row, so both zero points reach |a - zp| = 255.
    for (int64_t i = 0; i < s.m; ++i) {
      a[static_cast<size_t>(i * s.k)] = 0;
      a[static_cast<size_t>(i * s.k + s.k - 1)] = 255;
    }
    for (const int32_t zp : {0, 255}) {
      const std::vector<int32_t> zps(static_cast<size_t>(s.m), zp);
      const auto run = [&](const simd::GemmMicroKernels& mk, bool gemv) {
        std::vector<int32_t> acc(static_cast<size_t>(s.m * s.n));
        for (size_t i = 0; i < acc.size(); ++i) acc[i] = static_cast<int32_t>(i % 13) - 6;
        if (gemv) {
          mk.qu8_gemv(a.data(), s.k, zps.data(), b.data(), s.m, s.k, acc.data(), s.n);
          return acc;
        }
        for (int64_t i0 = 0; i0 < s.m; i0 += simd::kRowTile) {
          const int64_t rows = std::min(simd::kRowTile, s.m - i0);
          const uint8_t* a_rows[simd::kRowTile];
          for (int64_t r = 0; r < rows; ++r) a_rows[r] = a.data() + (i0 + r) * s.k;
          mk.qu8(a_rows, 1, zps.data(), b.data(), s.n, rows, s.n, s.k, acc.data() + i0 * s.n,
                 s.n);
        }
        return acc;
      };
      const std::vector<int32_t> want = run(simd::GemmMicroKernelsFor(simd::Isa::kScalar), false);
      for (const simd::Isa isa : simd::SupportedIsas()) {
        const simd::GemmMicroKernels& mk = simd::GemmMicroKernelsFor(isa);
        EXPECT_EQ(want, run(mk, false))
            << simd::IsaName(isa) << " qu8 zp=" << zp << " m=" << s.m << " n=" << s.n
            << " k=" << s.k;
        if (s.n == 1) {
          EXPECT_EQ(want, run(mk, true))
              << simd::IsaName(isa) << " qu8_gemv zp=" << zp << " m=" << s.m << " k=" << s.k;
        }
      }
    }
  }
}

// Chain steps whose rounding is the whole point: products and sums that land
// on binary16 subnormals, overflow to +-inf, and exact ties that must round
// to even. Each case is one row c = RN16(c0 + RN16(a*b)) (k = 1) over 65
// columns, so the 64-column block and the masked remainder both see it, and
// every ISA must produce the stated bits.
TEST(SimdDispatchTest, F16RoundingEdgesMatchExpectedBits) {
  struct Case {
    uint16_t c0, a, b, want;
    const char* what;
  };
  const Case cases[] = {
      {0x0000, 0x0C00, 0x0C00, 0x0001, "2^-12 * 2^-12 = 2^-24, the least subnormal"},
      {0x0000, 0x0800, 0x0C00, 0x0000, "2^-25 ties between 0 and 2^-24: even is 0"},
      {0x0000, 0x0E00, 0x0C00, 0x0002, "1.5 * 2^-24 ties between 2^-24 and 2^-23: even is 2^-23"},
      {0x0001, 0x0C00, 0x0C00, 0x0002, "subnormal + subnormal = 2^-23"},
      {0x8000, 0x8800, 0x0C00, 0x8000, "-0 + (-2^-25 -> -0) stays -0"},
      {0x0000, 0x8800, 0x0C00, 0x0000, "+0 + -0 is +0"},
      {0x0000, 0x5C00, 0x5C00, 0x7C00, "256 * 256 = 65536 overflows to +inf"},
      {0x0000, 0xDC00, 0x5C00, 0xFC00, "-256 * 256 overflows to -inf"},
      {0x7BFF, 0x4C00, 0x3C00, 0x7C00, "65504 + 16 = 65520 ties to even: +inf"},
      {0x7BFF, 0x4800, 0x3C00, 0x7BFF, "65504 + 8 rounds back to 65504"},
      {0x6800, 0x3C00, 0x3C00, 0x6800, "2048 + 1 ties between 2048 and 2050: 2048"},
      {0x6801, 0x3C00, 0x3C00, 0x6802, "2050 + 1 ties between 2050 and 2052: 2052"},
      {0x0000, 0x3C01, 0x3E00, 0x3E02, "(1 + 2^-10) * 1.5 ties in the product: 1.5 + 2^-9"},
  };
  constexpr int64_t kCols = 65;
  for (const Case& cs : cases) {
    const Half a = Half::FromBits(cs.a);
    const std::vector<Half> b(kCols, Half::FromBits(cs.b));
    const Half* a_rows[1] = {&a};
    for (const simd::Isa isa : simd::SupportedIsas()) {
      std::vector<Half> c(kCols, Half::FromBits(cs.c0));
      Half* c_rows[1] = {c.data()};
      simd::GemmMicroKernelsFor(isa).f16(a_rows, 1, b.data(), kCols, 1, kCols, 1, c_rows);
      for (int64_t j = 0; j < kCols; ++j) {
        ASSERT_EQ(c[static_cast<size_t>(j)].bits(), cs.want)
            << simd::IsaName(isa) << " j=" << j << ": " << cs.what;
      }
    }
  }
}

// The requantize slot on every binary16 pattern (subnormals, infinities and
// NaNs included) against QuantParams::Quantize, over scales from 1e-8 to 123
// and zero points from 0 to 255. Odd-length slices from an exactly sized
// buffer exercise the masked tail, so an ASan build catches a tail that
// touches a byte past n.
TEST(SimdDispatchTest, F16ToQu8MatchesQuantizeOnEveryHalf) {
  std::vector<Half> all(65536);
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = Half::FromBits(static_cast<uint16_t>(i));
  }
  const float scales[] = {1e-8f, 1e-3f, 0.0078125f, 0.1f, 1.0f, 3.7f, 123.0f};
  const int32_t zps[] = {0, 1, 128, 254, 255};
  for (const float scale : scales) {
    for (const int32_t zp : zps) {
      const QuantParams qp{scale, zp};
      std::vector<uint8_t> want(all.size());
      for (size_t i = 0; i < all.size(); ++i) {
        want[i] = qp.Quantize(all[i].ToFloat());
      }
      for (const simd::Isa isa : simd::SupportedIsas()) {
        const simd::GemmMicroKernels& mk = simd::GemmMicroKernelsFor(isa);
        std::vector<uint8_t> got(all.size(), 0xA5);
        mk.f16_to_qu8(all.data(), static_cast<int64_t>(all.size()), scale, zp, got.data());
        ASSERT_EQ(want, got) << simd::IsaName(isa) << " scale=" << scale << " zp=" << zp;
        for (const int64_t n : {1, 15, 17, 33}) {
          const std::vector<Half> in(all.begin() + 0x7BF0, all.begin() + 0x7BF0 + n);
          std::vector<uint8_t> out(static_cast<size_t>(n), 0xA5);
          mk.f16_to_qu8(in.data(), n, scale, zp, out.data());
          EXPECT_TRUE(std::equal(out.begin(), out.end(), want.begin() + 0x7BF0))
              << simd::IsaName(isa) << " n=" << n << " scale=" << scale << " zp=" << zp;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ulayer
