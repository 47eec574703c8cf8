// NEON (aarch64) micro-kernels. Compiled with -ffp-contract=off; the F32
// tile uses separate vmulq/vaddq (never vmlaq/vfmaq, which fuse) so results
// stay bit-identical to the scalar reference. There is no NEON F16 tile: the
// per-step-rounded Half chain stays on the scalar software path, which is
// the semantic contract. Both GEMV slots use the scalar references too.
#if defined(__aarch64__)

#include <arm_neon.h>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    int32x4_t acc0[R];
    int32x4_t acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* ar = acc + r * acc_ld + jb;
      acc0[r] = vld1q_s32(ar);
      acc1[r] = vld1q_s32(ar + 4);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const uint8x8_t braw = vld1_u8(b + kk * ldb + jb);
      const uint16x8_t b16 = vmovl_u8(braw);
      const int32x4_t bv0 =
          vreinterpretq_s32_u32(vmovl_u16(vget_low_u16(b16)));
      const int32x4_t bv1 =
          vreinterpretq_s32_u32(vmovl_u16(vget_high_u16(b16)));
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t av =
            static_cast<int32_t>(a_rows[r][kk * a_kstride]) - a_zp[r];
        const int32x4_t avv = vdupq_n_s32(av);
        // Integer multiply-accumulate is exact; vmlaq is fine here.
        acc0[r] = vmlaq_s32(acc0[r], avv, bv0);
        acc1[r] = vmlaq_s32(acc1[r], avv, bv1);
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      int32_t* ar = acc + r * acc_ld + jb;
      vst1q_s32(ar, acc0[r]);
      vst1q_s32(ar + 4, acc1[r]);
    }
  }
  if (jb < jn) {
    ULAYER_UNROLL_R
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

void Qu8Neon(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
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

template <int R>
void F32Tile(const float* const* a_rows, int64_t a_kstride, const float* b,
             int64_t ldb, int64_t jn, int64_t k, float* const* c_rows) {
  int64_t jb = 0;
  for (; jb + 8 <= jn; jb += 8) {
    float32x4_t acc0[R];
    float32x4_t acc1[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc0[r] = vld1q_f32(c_rows[r] + jb);
      acc1[r] = vld1q_f32(c_rows[r] + jb + 4);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const float* brow = b + kk * ldb + jb;
      const float32x4_t bv0 = vld1q_f32(brow);
      const float32x4_t bv1 = vld1q_f32(brow + 4);
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const float av = a_rows[r][kk * a_kstride];
        if (av != 0.0f) {
          const float32x4_t avv = vdupq_n_f32(av);
          acc0[r] = vaddq_f32(acc0[r], vmulq_f32(avv, bv0));
          acc1[r] = vaddq_f32(acc1[r], vmulq_f32(avv, bv1));
        }
      }
    }
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      vst1q_f32(c_rows[r] + jb, acc0[r]);
      vst1q_f32(c_rows[r] + jb + 4, acc1[r]);
    }
  }
  if (jb < jn) {
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const float* arow = a_rows[r];
      float* crow = c_rows[r];
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = arow[kk * a_kstride];
        if (av == 0.0f) {
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

void F32Neon(const float* const* a_rows, int64_t a_kstride, const float* b,
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

}  // namespace

const GemmMicroKernels* NeonTable() {
  static const GemmMicroKernels table = {
      Isa::kNeon,    Qu8Neon,       F32Neon,       F16Scalar,
      Qu8GemvScalar, F16GemvScalar, F16ToQu8Scalar};
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !defined(__aarch64__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* NeonTable() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // aarch64
