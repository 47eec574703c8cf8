// AVX2 + F16C micro-kernels. Compiled with -mavx2 -mf16c -ffp-contract=off
// on x86 (the table degrades to a nullptr stub anywhere those flags are
// absent; no -mfma: contraction would fuse the separate mul+add below and
// break bit-identity with the scalar reference). Only dispatched to when the
// CPU reports both avx2 and f16c.
#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

constexpr int kRoundNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// Every per-row loop below runs R <= 4 iterations and is forced fully
// unrolled: without the pragma GCC 12 at -O2 leaves the loops rolled, which
// keeps the __m256 accumulator arrays addressable — they spill to the stack
// and the hot k loop round-trips every accumulator through memory per step
// (verified in the generated assembly). Unrolling scalarizes the arrays into
// ymm registers. It does not reorder any arithmetic: rows are independent and
// each row's op sequence is unchanged, so bit-identity is preserved.
#define ULAYER_UNROLL_R _Pragma("GCC unroll 4")

// ---- QU8: int32 accumulate tiles (exact in any order) ----------------------

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  const uint8_t* arp[R];
  int32_t azp[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    arp[r] = a_rows[r];
    azp[r] = a_zp[r];
  }
  int64_t jb = 0;
  for (; jb + 16 <= jn; jb += 16) {
    __m256i acc0[R];
    __m256i acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* arow = acc + r * acc_ld + jb;
      acc0[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow));
      acc1[r] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(arow + 8));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const uint8_t* brow = b + kk * ldb + jb;
      const __m256i bv0 = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(brow)));
      const __m256i bv1 = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(brow + 8)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(arp[r][kk * a_kstride]) - azp[r];
        const __m256i avv = _mm256_set1_epi32(av);
        acc0[r] = _mm256_add_epi32(acc0[r], _mm256_mullo_epi32(avv, bv0));
        acc1[r] = _mm256_add_epi32(acc1[r], _mm256_mullo_epi32(avv, bv1));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* arow = acc + r * acc_ld + jb;
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow), acc0[r]);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow + 8), acc1[r]);
    }
  }
  for (; jb + 8 <= jn; jb += 8) {
    __m256i accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(acc + r * acc_ld + jb));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256i bv = _mm256_cvtepu8_epi32(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + kk * ldb + jb)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(arp[r][kk * a_kstride]) - azp[r];
        accv[r] = _mm256_add_epi32(
            accv[r], _mm256_mullo_epi32(_mm256_set1_epi32(av), bv));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(acc + r * acc_ld + jb),
                          accv[r]);
    }
  }
  if (jb < jn) {
    for (int r = 0; r < R; ++r) {
      const uint8_t* arow = a_rows[r];
      const int32_t zp = a_zp[r];
      int32_t* ar = acc + r * acc_ld;
      for (int64_t kk = 0; kk < k; ++kk) {
        const int32_t av = static_cast<int32_t>(arow[kk * a_kstride]) - zp;
        const uint8_t* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          ar[j] += av * static_cast<int32_t>(brow[j]);
        }
      }
    }
  }
}

void Qu8Avx2(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
             int32_t* acc, int64_t acc_ld) {
  switch (rows) {
    case 1:
      Qu8Tile<1>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 2:
      Qu8Tile<2>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 3:
      Qu8Tile<3>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    case 4:
      Qu8Tile<4>(a_rows, a_kstride, a_zp, b, ldb, jn, k, acc, acc_ld);
      break;
    default:
      break;
  }
}

// ---- F32: separate mul+add, per-(row,k) zero skip --------------------------

// CHECK selects whether the per-(row, k) av == 0 skip test is emitted. The
// caller prescans the A tile: when no value is zero the skip can never fire,
// so the unchecked body executes the identical op sequence — but without
// four data-dependent branches per k step the compiler keeps the accumulator
// arrays in ymm registers and the loop runs at port throughput.
template <int R, bool CHECK>
void F32TileImpl(const float* const* a_rows, int64_t a_kstride, const float* b,
                 int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  const float* ar[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ar[r] = a_rows[r];
  }
  int64_t jb = 0;
  for (; jb + 16 <= jn; jb += 16) {
    __m256 acc0[R];
    __m256 acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc0[r] = _mm256_loadu_ps(c_rows[r] + jb);
      acc1[r] = _mm256_loadu_ps(c_rows[r] + jb + 8);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb + jb;
      const __m256 bv0 = _mm256_loadu_ps(brow);
      const __m256 bv1 = _mm256_loadu_ps(brow + 8);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = ar[r][kk * a_kstride];
        if (!CHECK || av != 0.0f) {
          const __m256 avv = _mm256_set1_ps(av);
          acc0[r] = _mm256_add_ps(acc0[r], _mm256_mul_ps(avv, bv0));
          acc1[r] = _mm256_add_ps(acc1[r], _mm256_mul_ps(avv, bv1));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c_rows[r] + jb, acc0[r]);
      _mm256_storeu_ps(c_rows[r] + jb + 8, acc1[r]);
    }
  }
  for (; jb + 8 <= jn; jb += 8) {
    __m256 accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm256_loadu_ps(c_rows[r] + jb);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_loadu_ps(b + kk * ldb + jb);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = ar[r][kk * a_kstride];
        if (!CHECK || av != 0.0f) {
          accv[r] = _mm256_add_ps(accv[r], _mm256_mul_ps(_mm256_set1_ps(av), bv));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm256_storeu_ps(c_rows[r] + jb, accv[r]);
    }
  }
  if (jb < jn) {
    for (int r = 0; r < R; ++r) {
      const float* arow = a_rows[r];
      float* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * a_kstride];
        if (CHECK && av == 0.0f) {
          continue;
        }
        const float* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  }
}

template <int R>
void F32Tile(const float* const* a_rows, int64_t a_kstride, const float* b,
             int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  bool any_zero = false;
  for (int r = 0; r < R && !any_zero; ++r) {
    const float* arow = a_rows[r];
    for (int64_t kk = 0; kk < k; ++kk) {
      if (arow[kk * a_kstride] == 0.0f) {
        any_zero = true;
        break;
      }
    }
  }
  if (any_zero) {
    F32TileImpl<R, true>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
  } else {
    F32TileImpl<R, false>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
  }
}

void F32Avx2(const float* const* a_rows, int64_t a_kstride, const float* b,
             int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows) {
  switch (rows) {
    case 1:
      F32Tile<1>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 2:
      F32Tile<2>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 3:
      F32Tile<3>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 4:
      F32Tile<4>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    default:
      break;
  }
}

// ---- F16: per-step round-to-binary16 via F16C ------------------------------
//
// Software Half computes c += a*b as
//   p = RN16(RN32(ToFloat(a) * ToFloat(b)))   (RN32 is exact: 11-bit mantissas)
//   c = RN16(RN32(ToFloat(c) + ToFloat(p)))
// which is exactly mul_ps / cvtps_ph / cvtph_ps / add_ps / cvtps_ph here —
// F16C conversions are IEEE round-to-nearest-even, the same rounding
// Half::FromFloat implements (half_test pins that equivalence).

template <int R>
void F16Tile(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t jn, int64_t k, Half* const* c_rows) {
  const Half* ar[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    ar[r] = a_rows[r];
  }
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    __m256 acc[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc[r] = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(c_rows[r] + jb)));
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_cvtph_ps(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + kk * ldb + jb)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const __m256 avv = _mm256_cvtph_ps(_mm_set1_epi16(
            static_cast<int16_t>(ar[r][kk * a_kstride].bits())));
        const __m256 prod = _mm256_mul_ps(avv, bv);
        const __m256 prod16 =
            _mm256_cvtph_ps(_mm256_cvtps_ph(prod, kRoundNearest));
        const __m256 sum = _mm256_add_ps(acc[r], prod16);
        acc[r] = _mm256_cvtph_ps(_mm256_cvtps_ph(sum, kRoundNearest));
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      _mm_storeu_si128(reinterpret_cast<__m128i*>(c_rows[r] + jb),
                       _mm256_cvtps_ph(acc[r], kRoundNearest));
    }
  }
  if (jb < jn) {
    for (int r = 0; r < R; ++r) {
      const Half* arow = a_rows[r];
      Half* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const Half av = arow[kk * a_kstride];
        const Half* brow = b + kk * ldb;
        for (int64_t j = jb; j < jn; ++j) {
          crow[j] += av * brow[j];
        }
      }
    }
  }
}

void F16Avx2(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows) {
  switch (rows) {
    case 1:
      F16Tile<1>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 2:
      F16Tile<2>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 3:
      F16Tile<3>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    case 4:
      F16Tile<4>(a_rows, a_kstride, b, ldb, jn, k, c_rows);
      break;
    default:
      break;
  }
}

}  // namespace

const GemmMicroKernels* Avx2Table() {
  static const GemmMicroKernels table = {Isa::kAvx2, Qu8Avx2, F32Avx2, F16Avx2};
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !(__AVX2__ && __F16C__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* Avx2Table() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // __AVX2__ && __F16C__
