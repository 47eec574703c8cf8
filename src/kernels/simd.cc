#include "kernels/simd.h"

#include <cstdlib>
#include <cstring>

#include "kernels/simd_internal.h"
#include "quant/quantize.h"

namespace ulayer::simd {
namespace {

// The table an ISA's translation unit compiled to: nullptr when the compiler
// lacked its flags (see simd_internal.h). Scalar has no table of its own.
const GemmMicroKernels* CompiledTable(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return nullptr;
    case Isa::kAvx2:
      return detail::Avx2Table();
    case Isa::kAvx512:
      return detail::Avx512Table();
  }
  return nullptr;
}

// Whether the CPU reports every feature the ISA's table executes.
bool CpuHas(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return true;
#if defined(__x86_64__) || defined(__i386__)
    case Isa::kAvx2:
      // The F16 tile converts per step with F16C; every AVX2 part ships it,
      // but check both to be safe.
      return __builtin_cpu_supports("avx2") != 0 && __builtin_cpu_supports("f16c") != 0;
    case Isa::kAvx512:
      // The table reuses the AVX2 tiles for every slot but the F16 ones.
      return CpuHas(Isa::kAvx2) && __builtin_cpu_supports("avx512f") != 0 &&
             __builtin_cpu_supports("avx512bw") != 0 &&
             __builtin_cpu_supports("avx512vl") != 0 &&
             __builtin_cpu_supports("avx512fp16") != 0;
#else
    case Isa::kAvx2:
    case Isa::kAvx512:
      return false;
#endif
  }
  return false;
}

// Usable: the CPU can run it and its table exists, so dispatch never hands
// out the scalar table in place of a stubbed tier.
bool Supported(Isa isa) {
  return isa == Isa::kScalar || (CpuHas(isa) && CompiledTable(isa) != nullptr);
}

// The one ladder, best first.
constexpr Isa kIsaPreference[] = {Isa::kAvx512, Isa::kAvx2, Isa::kScalar};

Isa DetectBestIsa() {
  for (const Isa isa : kIsaPreference) {
    if (Supported(isa)) {
      return isa;
    }
  }
  return Isa::kScalar;
}

// ULAYER_SIMD names a tier as IsaName spells it, or "auto". Read once; "auto",
// unknown values and unsupported requests fall back to detection (a typo must
// not change results, only possibly speed).
Isa ResolveFromEnv() {
  const char* env = std::getenv("ULAYER_SIMD");
  if (env != nullptr) {
    for (const Isa isa : kIsaPreference) {
      if (std::strcmp(env, IsaName(isa)) == 0 && Supported(isa)) {
        return isa;
      }
    }
  }
  return DetectBestIsa();
}

bool g_forced = false;
Isa g_forced_isa = Isa::kScalar;

}  // namespace

const char* IsaName(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2:
      return "avx2";
    case Isa::kAvx512:
      return "avx512";
  }
  return "unknown";
}

Isa ActiveIsa() {
  if (g_forced) {
    return g_forced_isa;
  }
  static const Isa resolved = ResolveFromEnv();
  return resolved;
}

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> out;
  for (const Isa isa : kIsaPreference) {
    if (Supported(isa)) {
      out.push_back(isa);
    }
  }
  return out;
}

void ForceIsa(Isa isa) {
  g_forced = true;
  g_forced_isa = Supported(isa) ? isa : DetectBestIsa();
}

void ResetForcedIsa() { g_forced = false; }

// The scalar reference micro-kernels: the arithmetic contract every SIMD
// tier must reproduce (bit-identical QU8/F32, value-identical F16).
namespace {

void Qu8Scalar(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
               const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
               int32_t* acc, int64_t acc_ld) {
  constexpr int64_t kKUnroll = 4;
  for (int64_t r = 0; r < rows; ++r) {
    const uint8_t* arow = a_rows[r];
    const int32_t zp = a_zp[r];
    int32_t* ar = acc + r * acc_ld;
    int64_t kk = 0;
    for (; kk + kKUnroll <= k; kk += kKUnroll) {
      const int32_t av0 = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
      const int32_t av1 = static_cast<int32_t>(arow[(kk + 1) * a_kstride]) - zp;
      const int32_t av2 = static_cast<int32_t>(arow[(kk + 2) * a_kstride]) - zp;
      const int32_t av3 = static_cast<int32_t>(arow[(kk + 3) * a_kstride]) - zp;
      const uint8_t* b0p = b + kk * ldb;
      const uint8_t* b1p = b0p + ldb;
      const uint8_t* b2p = b1p + ldb;
      const uint8_t* b3p = b2p + ldb;
      for (int64_t j = 0; j < jn; ++j) {
        ar[j] += av0 * static_cast<int32_t>(b0p[j]) +
                 av1 * static_cast<int32_t>(b1p[j]) +
                 av2 * static_cast<int32_t>(b2p[j]) +
                 av3 * static_cast<int32_t>(b3p[j]);
      }
    }
    for (; kk < k; ++kk) {
      const int32_t av = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
      const uint8_t* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        ar[j] += av * static_cast<int32_t>(brow[j]);
      }
    }
  }
}

void F32Scalar(const float* const* a_rows, int64_t a_kstride, const float* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows) {
  constexpr int64_t kKUnroll = 4;
  for (int64_t r = 0; r < rows; ++r) {
    const float* arow = a_rows[r];
    float* crow = c_rows[r];
    int64_t kk = 0;
    for (; kk + kKUnroll <= k; kk += kKUnroll) {
      const float av0 = arow[kk * a_kstride];
      const float av1 = arow[(kk + 1) * a_kstride];
      const float av2 = arow[(kk + 2) * a_kstride];
      const float av3 = arow[(kk + 3) * a_kstride];
      const float* b0p = b + kk * ldb;
      const float* b1p = b0p + ldb;
      const float* b2p = b1p + ldb;
      const float* b3p = b2p + ldb;
      if (av0 != 0.0f && av1 != 0.0f && av2 != 0.0f && av3 != 0.0f) {
        for (int64_t j = 0; j < jn; ++j) {
          float t = crow[j];
          t += av0 * b0p[j];
          t += av1 * b1p[j];
          t += av2 * b2p[j];
          t += av3 * b3p[j];
          crow[j] = t;
        }
      } else {
        for (int64_t u = 0; u < kKUnroll; ++u) {
          const float av = arow[(kk + u) * a_kstride];
          if (av == 0.0f) {
            continue;
          }
          const float* brow = b + (kk + u) * ldb;
          for (int64_t j = 0; j < jn; ++j) {
            crow[j] += av * brow[j];
          }
        }
      }
    }
    for (; kk < k; ++kk) {
      const float av = arow[kk * a_kstride];
      if (av == 0.0f) {
        continue;
      }
      const float* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void F16Scalar(const Half* const* a_rows, int64_t a_kstride, const Half* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows) {
  // i-k-j with the C row as the running Half accumulator: per element this is
  // the chain c = RN16(c + RN16(a*b)) with ascending k — the exact op
  // sequence of the naive j-outer/k-inner register accumulator, but with B
  // streamed row-wise instead of strided column loads.
  for (int64_t r = 0; r < rows; ++r) {
    const Half* arow = a_rows[r];
    Half* crow = c_rows[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      const Half av = arow[kk * a_kstride];
      const Half* brow = b + kk * ldb;
      for (int64_t j = 0; j < jn; ++j) {
        crow[j] += av * brow[j];
      }
    }
  }
}

void Qu8GemvScalar(const uint8_t* a, int64_t lda, const int32_t* a_zp, const uint8_t* x,
                   int64_t rows, int64_t k, int32_t* acc, int64_t acc_ld) {
  for (int64_t r = 0; r < rows; ++r) {
    const uint8_t* arow = a + r * lda;
    int32_t sum = 0;
    for (int64_t kk = 0; kk < k; ++kk) {
      sum += (static_cast<int32_t>(arow[kk]) - a_zp[r]) * static_cast<int32_t>(x[kk]);
    }
    acc[r * acc_ld] += sum;
  }
}

void F16GemvScalar(const Half* a, int64_t lda, const Half* x, int64_t rows, int64_t k,
                   Half* y) {
  for (int64_t r = 0; r < rows; ++r) {
    const Half* arow = a + r * lda;
    Half c = y[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      c += arow[kk] * x[kk];
    }
    y[r] = c;
  }
}

}  // namespace

namespace detail {

void F16ToQu8Scalar(const Half* in, int64_t n, float scale, int32_t zp, uint8_t* out) {
  const QuantParams qp{scale, zp};
  for (int64_t i = 0; i < n; ++i) {
    out[i] = qp.Quantize(in[i].ToFloat());
  }
}

}  // namespace detail

const GemmMicroKernels& GemmMicroKernelsFor(Isa isa) {
  static const GemmMicroKernels scalar = {Isa::kScalar,  Qu8Scalar,     F32Scalar,
                                          F16Scalar,     Qu8GemvScalar, F16GemvScalar,
                                          detail::F16ToQu8Scalar};
  // Never hand out a table the CPU cannot execute.
  return Supported(isa) && isa != Isa::kScalar ? *CompiledTable(isa) : scalar;
}

const GemmMicroKernels& ActiveGemmMicroKernels() {
  return GemmMicroKernelsFor(ActiveIsa());
}

}  // namespace ulayer::simd
