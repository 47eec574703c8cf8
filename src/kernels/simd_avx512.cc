// AVX-512 micro-kernels: a native binary16 F16 tile and the F16 -> QU8
// requantize. Every other slot is the AVX2 table's. Compiled with -mavx512f
// -mavx512bw -mavx512vl -mavx512fp16 -ffp-contract=off on x86 (the table
// degrades to a nullptr stub anywhere those flags are absent). Only
// dispatched to when the CPU reports all four plus avx2 and f16c.
//
// The ragged column remainder runs under a mask register: masked-off lanes
// load zeros and are never stored, so no variant reads or writes a byte
// past column jn.
#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__) && \
    defined(__AVX512FP16__)

#include <immintrin.h>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

// ---- F16: native binary16 arithmetic ----------------------------------------
//
// vmulph rounds the exact product of two binary16 values once to binary16,
// and vaddph rounds the exact sum once, so per lane a step is
// c = RN16(c + RN16(a*b)): the value software Half computes through binary32
// (DESIGN.md Section 13 shows why the double rounding there is innocuous).
// -ffp-contract=off keeps GCC from fusing the pair into vfmadd*ph, which
// would round only once.
//
// A is staged per k strip as binary16, each value twice in one 32-bit word,
// and broadcast from memory with vpbroadcastd: a load-port uop, where
// vpbroadcastw from memory would add a port-5 shuffle that competes with
// vmulph/vaddph (the word-broadcast tile measured 5-15% slower). B and C are
// read and written as binary16 with no conversion. Full blocks are 64
// columns, two zmm per row, which gives 8 independent chains at R = 4. The
// remainder runs 32-column blocks under a __mmask32.

// k steps per strip: 256 x kRowTile words = 4 KB of stack.
constexpr int64_t kF16Strip = 256;

ULAYER_INLINE __m512h Madd(__m512h acc, __m512h a, __m512h b) {
  return _mm512_add_ph(acc, _mm512_mul_ph(a, b));
}

// `pair` holds one binary16 value in both halves.
ULAYER_INLINE __m512h Broadcast(const uint32_t& pair) {
  return _mm512_castsi512_ph(_mm512_set1_epi32(static_cast<int>(pair)));
}

ULAYER_INLINE __m512h LoadHalf32(const Half* p) {
  return _mm512_castsi512_ph(_mm512_loadu_si512(p));
}

ULAYER_INLINE void StoreHalf32(Half* p, __m512h v) {
  _mm512_storeu_si512(p, _mm512_castph_si512(v));
}

// Columns [jb, jb + 64) of R rows over the kn steps of one strip.
template <int R>
ULAYER_INLINE void F16Block64(const uint32_t (*ah)[kRowTile], const Half* bs, int64_t ldb,
                              int64_t jb, int64_t kn, Half* const* c_rows) {
  __m512h acc0[R];
  __m512h acc1[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    acc0[r] = LoadHalf32(c_rows[r] + jb);
    acc1[r] = LoadHalf32(c_rows[r] + jb + 32);
  }
  for (int64_t kk = 0; kk < kn; ++kk) {
    const Half* brow = bs + kk * ldb + jb;
    const __m512h bv0 = LoadHalf32(brow);
    const __m512h bv1 = LoadHalf32(brow + 32);
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const __m512h av = Broadcast(ah[kk][r]);
      acc0[r] = Madd(acc0[r], av, bv0);
      acc1[r] = Madd(acc1[r], av, bv1);
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    StoreHalf32(c_rows[r] + jb, acc0[r]);
    StoreHalf32(c_rows[r] + jb + 32, acc1[r]);
  }
}

// Columns [jb, jb + 32) of R rows, moving only the lanes set in `m`.
template <int R>
ULAYER_INLINE void F16Block32(const uint32_t (*ah)[kRowTile], const Half* bs, int64_t ldb,
                              int64_t jb, __mmask32 m, int64_t kn, Half* const* c_rows) {
  __m512h acc[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    acc[r] = _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, c_rows[r] + jb));
  }
  for (int64_t kk = 0; kk < kn; ++kk) {
    const __m512h bv = _mm512_castsi512_ph(_mm512_maskz_loadu_epi16(m, bs + kk * ldb + jb));
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc[r] = Madd(acc[r], Broadcast(ah[kk][r]), bv);
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    _mm512_mask_storeu_epi16(c_rows[r] + jb, m, _mm512_castph_si512(acc[r]));
  }
}

template <int R>
void F16Tile(const Half* const* a_rows, int64_t a_kstride, const Half* b, int64_t ldb,
             int64_t jn, int64_t k, Half* const* c_rows) {
  alignas(64) uint32_t ah[kF16Strip][kRowTile];
  for (int64_t ks = 0; ks < k; ks += kF16Strip) {
    const int64_t kn = k - ks < kF16Strip ? k - ks : kF16Strip;
    for (int64_t kk = 0; kk < kn; ++kk) {
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        ah[kk][r] = a_rows[r][(ks + kk) * a_kstride].bits() * 0x10001u;
      }
    }
    const Half* bs = b + ks * ldb;
    int64_t jb = 0;
    for (; jb + 64 <= jn; jb += 64) {
      F16Block64<R>(ah, bs, ldb, jb, kn, c_rows);
    }
    for (; jb < jn; jb += 32) {
      const int64_t w = jn - jb < 32 ? jn - jb : 32;
      const __mmask32 m = _cvtu32_mask32(w == 32 ? ~0u : (1u << w) - 1u);
      F16Block32<R>(ah, bs, ldb, jb, m, kn, c_rows);
    }
  }
}

void F16Avx512(const Half* const* a_rows, int64_t a_kstride, const Half* b, int64_t ldb,
               int64_t rows, int64_t jn, int64_t k, Half* const* c_rows) {
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

// ---- F16 -> QU8 requantize ----------------------------------------------------
//
// QuantParams::Quantize lane by lane: widen (exact), divide by the scale
// (vdivps rounds like the scalar division), round half to even (vrndscaleps,
// like nearbyint in the default rounding mode), add the zero point, clamp to
// [0, 255] with NaN to 0 (vmaxps returns its second operand when either is
// NaN), truncate and narrow. The unmasked forms of the conversions, the
// rounding and the clamps raise -Wmaybe-uninitialized in GCC 12 through
// _mm512_undefined_*, so they use the zero-masking forms with a full mask.
void F16ToQu8Avx512(const Half* in, int64_t n, float scale, int32_t zp, uint8_t* out) {
  constexpr __mmask16 kAll = 0xFFFF;
  const __m512 scale_v = _mm512_set1_ps(scale);
  const __m512 zp_v = _mm512_set1_ps(static_cast<float>(zp));
  const __m512 lo = _mm512_setzero_ps();
  const __m512 hi = _mm512_set1_ps(255.0f);
  for (int64_t i = 0; i < n; i += 16) {
    const int64_t w = n - i < 16 ? n - i : 16;
    const __mmask16 m = w == 16 ? kAll : _cvtu32_mask16((1u << w) - 1u);
    __m512 x = _mm512_maskz_cvtph_ps(kAll, _mm256_maskz_loadu_epi16(m, in + i));
    x = _mm512_div_ps(x, scale_v);
    x = _mm512_maskz_roundscale_ps(kAll, x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    x = _mm512_add_ps(x, zp_v);
    x = _mm512_maskz_min_ps(kAll, _mm512_maskz_max_ps(kAll, x, lo), hi);
    const __m128i q = _mm512_maskz_cvtusepi32_epi8(kAll, _mm512_maskz_cvttps_epi32(kAll, x));
    _mm_mask_storeu_epi8(out + i, m, q);
  }
}

}  // namespace

const GemmMicroKernels* Avx512Table() {
  if (Avx2Table() == nullptr) {
    return nullptr;  // Every slot but the two F16 ones is an AVX2 tile.
  }
  static const GemmMicroKernels table = [] {
    GemmMicroKernels t = *Avx2Table();
    t.isa = Isa::kAvx512;
    t.f16 = F16Avx512;
    t.f16_to_qu8 = F16ToQu8Avx512;
    return t;
  }();
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__ && __AVX512FP16__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* Avx512Table() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // __AVX512F__ && __AVX512BW__ && __AVX512VL__ && __AVX512FP16__
