// AVX2 + F16C micro-kernels. Compiled with -mavx2 -mf16c -ffp-contract=off
// on x86 (the table degrades to a nullptr stub anywhere those flags are
// absent; no -mfma: contraction would fuse the separate mul+add below and
// break bit-identity with the scalar reference). Only dispatched to when the
// CPU reports both avx2 and f16c.
//
// Every column block, including the last ragged one, runs on the vector
// units: a remainder block repeats the full block's per-lane op sequence on
// zero-padded operands, moving exactly the bytes of columns [jb, jn) in and
// out (LoadPartial / StorePartial / masked loads below), so it reads or
// writes no byte past column jn.
#if defined(__AVX2__) && defined(__F16C__)

#include <immintrin.h>

#include <cstring>

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
namespace {

constexpr int kRoundNearest = _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC;

// ---- Partial loads and stores for the remainder blocks ---------------------

// Bytes [0, n) at p, n <= 8, zero-extended. The branches depend only on n,
// which is fixed for a whole k loop, so they predict perfectly.
ULAYER_INLINE uint64_t LoadBytes8(const uint8_t* p, int64_t n) {
  uint64_t v = 0;
  if (n == 8) {
    std::memcpy(&v, p, 8);
    return v;
  }
  int64_t off = 0;
  if ((n & 4) != 0) {
    uint32_t t;
    std::memcpy(&t, p, 4);
    v = t;
    off = 4;
  }
  if ((n & 2) != 0) {
    uint16_t t;
    std::memcpy(&t, p + off, 2);
    v |= uint64_t{t} << (8 * off);
    off += 2;
  }
  if ((n & 1) != 0) {
    v |= uint64_t{p[off]} << (8 * off);
  }
  return v;
}

// Bytes [0, n) at p, n <= 16, in the low bytes of the vector; the rest zero.
ULAYER_INLINE __m128i LoadPartial(const void* p, int64_t n) {
  const auto* q = static_cast<const uint8_t*>(p);
  const uint64_t lo = LoadBytes8(q, n < 8 ? n : 8);
  const uint64_t hi = n > 8 ? LoadBytes8(q + 8, n - 8) : 0;
  return _mm_set_epi64x(static_cast<long long>(hi), static_cast<long long>(lo));
}

// Stores the low n bytes of v (n <= 16) to p.
ULAYER_INLINE void StorePartial(void* p, __m128i v, int64_t n) {
  alignas(16) uint8_t buf[16];
  _mm_store_si128(reinterpret_cast<__m128i*>(buf), v);
  std::memcpy(p, buf, static_cast<size_t>(n));
}

// Selects the first w (<= 8) 32-bit lanes for masked loads and stores, which
// touch no memory in the unselected lanes.
ULAYER_INLINE __m256i LaneMask(int64_t w) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

// ---- QU8: int32 accumulate tiles (exact in any order) ----------------------
//
// vpmaddwd over k pairs: B rows kk and kk+1 are byte-interleaved and widened
// to int16 lanes (b0[j], b1[j]); A's (a0 - zp, a1 - zp) is one broadcast
// int32 holding two int16s; one vpmaddwd then yields b0[j]*(a0-zp) +
// b1[j]*(a1-zp) per int32 lane. |a - zp| <= 255 and b <= 255 fit int16, and a
// pair sums to at most 2*255*255 = 130050, so nothing saturates and the sum
// is exact. An odd k ends with one unpaired step (b1 = 0, a1 - zp = 0).
//
// The A pairs of one k strip are built once per tile into a small stack
// table, so every column block broadcasts them straight from memory (a
// load-port uop) instead of rebuilding them from bytes per block. The
// accumulators round-trip through acc between strips, which integer
// arithmetic does not notice.

// k pairs per strip: R x 128 int32 = at most 2 KB of stack.
constexpr int64_t kPairStrip = 128;

ULAYER_INLINE int32_t APair(int32_t a0, int32_t a1) {
  return static_cast<int32_t>((static_cast<uint32_t>(a0) & 0xFFFFu) |
                              (static_cast<uint32_t>(a1) << 16));
}

// 16 columns: b0/b1 hold 16 bytes of B rows kk and kk + 1; ap holds the R
// rows' pairs for that step.
template <int R>
ULAYER_INLINE void Qu8Step16(__m128i b0, __m128i b1, const int32_t* ap, __m256i (&acc0)[R],
                             __m256i (&acc1)[R]) {
  const __m256i lo = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(b0, b1));
  const __m256i hi = _mm256_cvtepu8_epi16(_mm_unpackhi_epi8(b0, b1));
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    const __m256i av = _mm256_set1_epi32(ap[r]);
    acc0[r] = _mm256_add_epi32(acc0[r], _mm256_madd_epi16(av, lo));
    acc1[r] = _mm256_add_epi32(acc1[r], _mm256_madd_epi16(av, hi));
  }
}

// 8 columns: the low 8 bytes of b0/b1 hold B rows kk and kk + 1.
template <int R>
ULAYER_INLINE void Qu8Step8(__m128i b0, __m128i b1, const int32_t* ap, __m256i (&acc)[R]) {
  const __m256i bp = _mm256_cvtepu8_epi16(_mm_unpacklo_epi8(b0, b1));
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(_mm256_set1_epi32(ap[r]), bp));
  }
}

template <int R>
void Qu8Tile(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
             const uint8_t* b, int64_t ldb, int64_t jn, int64_t k, int32_t* acc,
             int64_t acc_ld) {
  const __m128i zero = _mm_setzero_si128();
  alignas(32) int32_t ap[kPairStrip][R];
  for (int64_t ks = 0; ks < k; ks += 2 * kPairStrip) {
    const int64_t kn = k - ks < 2 * kPairStrip ? k - ks : 2 * kPairStrip;
    // Full pairs; an odd kn (only the last strip of an odd k) adds one
    // unpaired step, staged with a1 - zp = 0.
    const int64_t pairs = kn / 2;
    for (int64_t p = 0; p < (kn + 1) / 2; ++p) {
      const int64_t kk = ks + 2 * p;
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        const int32_t a0 = static_cast<int32_t>(a_rows[r][kk * a_kstride]) - a_zp[r];
        const int32_t a1 =
            p < pairs ? static_cast<int32_t>(a_rows[r][(kk + 1) * a_kstride]) - a_zp[r] : 0;
        ap[p][r] = APair(a0, a1);
      }
    }
    const uint8_t* bs = b + ks * ldb;
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
      const uint8_t* brow = bs + jb;
      for (int64_t p = 0; p < pairs; ++p, brow += 2 * ldb) {
        Qu8Step16<R>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)),
                     _mm_loadu_si128(reinterpret_cast<const __m128i*>(brow + ldb)), ap[p],
                     acc0, acc1);
      }
      if (pairs * 2 < kn) {
        Qu8Step16<R>(_mm_loadu_si128(reinterpret_cast<const __m128i*>(brow)), zero, ap[pairs],
                     acc0, acc1);
      }
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        int32_t* arow = acc + r * acc_ld + jb;
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow), acc0[r]);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(arow + 8), acc1[r]);
      }
    }
    // One 8-column block, then the remainder: same ops, w <= 8 columns moved.
    for (; jb < jn; jb += 8) {
      const int64_t w = jn - jb < 8 ? jn - jb : 8;
      const __m256i mask = LaneMask(w);
      __m256i accv[R];
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        accv[r] = _mm256_maskload_epi32(acc + r * acc_ld + jb, mask);
      }
      const uint8_t* brow = bs + jb;
      for (int64_t p = 0; p < pairs; ++p, brow += 2 * ldb) {
        Qu8Step8<R>(_mm_cvtsi64_si128(static_cast<long long>(LoadBytes8(brow, w))),
                    _mm_cvtsi64_si128(static_cast<long long>(LoadBytes8(brow + ldb, w))),
                    ap[p], accv);
      }
      if (pairs * 2 < kn) {
        Qu8Step8<R>(_mm_cvtsi64_si128(static_cast<long long>(LoadBytes8(brow, w))), zero,
                    ap[pairs], accv);
      }
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        _mm256_maskstore_epi32(acc + r * acc_ld + jb, mask, accv[r]);
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

// QU8 GEMV: k in lanes. Each row's (a - zp) and x are widened to int16 and
// vpmaddwd sums adjacent k pairs into 8 int32 lanes (same bound as the tile);
// the lanes are summed once per row at the end. Integer sums are exact in any
// order. The k remainder loads zero-padded x, so its padding adds
// (0 - zp) * 0 = 0.
template <int R>
void Qu8GemvRows(const uint8_t* a, int64_t lda, const int32_t* a_zp, const uint8_t* x,
                 int64_t k, int32_t* acc, int64_t acc_ld) {
  __m256i sum[R];
  __m256i zp16[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    sum[r] = _mm256_setzero_si256();
    zp16[r] = _mm256_set1_epi16(static_cast<int16_t>(a_zp[r]));
  }
  int64_t kk = 0;
  for (; kk + 16 <= k; kk += 16) {
    const __m256i xv =
        _mm256_cvtepu8_epi16(_mm_loadu_si128(reinterpret_cast<const __m128i*>(x + kk)));
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const __m256i av = _mm256_sub_epi16(
          _mm256_cvtepu8_epi16(
              _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + r * lda + kk))),
          zp16[r]);
      sum[r] = _mm256_add_epi32(sum[r], _mm256_madd_epi16(av, xv));
    }
  }
  if (kk < k) {
    const int64_t w = k - kk;
    const __m256i xv = _mm256_cvtepu8_epi16(LoadPartial(x + kk, w));
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const __m256i av =
          _mm256_sub_epi16(_mm256_cvtepu8_epi16(LoadPartial(a + r * lda + kk, w)), zp16[r]);
      sum[r] = _mm256_add_epi32(sum[r], _mm256_madd_epi16(av, xv));
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    __m128i s = _mm_add_epi32(_mm256_castsi256_si128(sum[r]),
                              _mm256_extracti128_si256(sum[r], 1));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
    s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
    acc[r * acc_ld] += _mm_cvtsi128_si32(s);
  }
}

void Qu8GemvAvx2(const uint8_t* a, int64_t lda, const int32_t* a_zp, const uint8_t* x,
                 int64_t rows, int64_t k, int32_t* acc, int64_t acc_ld) {
  int64_t r0 = 0;
  for (; r0 + 4 <= rows; r0 += 4) {
    Qu8GemvRows<4>(a + r0 * lda, lda, a_zp + r0, x, k, acc + r0 * acc_ld, acc_ld);
  }
  switch (rows - r0) {
    case 1:
      Qu8GemvRows<1>(a + r0 * lda, lda, a_zp + r0, x, k, acc + r0 * acc_ld, acc_ld);
      break;
    case 2:
      Qu8GemvRows<2>(a + r0 * lda, lda, a_zp + r0, x, k, acc + r0 * acc_ld, acc_ld);
      break;
    case 3:
      Qu8GemvRows<3>(a + r0 * lda, lda, a_zp + r0, x, k, acc + r0 * acc_ld, acc_ld);
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
  // One 8-column block, then the remainder: masked loads and stores move w
  // <= 8 columns; the masked-off lanes compute on zeros and are dropped.
  for (; jb < jn; jb += 8) {
    const __m256i mask = LaneMask(jn - jb);
    __m256 accv[R];
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      accv[r] = _mm256_maskload_ps(c_rows[r] + jb, mask);
    }
    for (int64_t kk = 0; kk < k; ++kk) {
      const __m256 bv = _mm256_maskload_ps(b + kk * ldb + jb, mask);
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
      _mm256_maskstore_ps(c_rows[r] + jb, mask, accv[r]);
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
//
// Each step's two conversion round trips sit on the shuffle port, so the
// tile keeps that port for them: A is converted to float once per k strip
// into a stack table and broadcast from memory (a load-port uop), and full
// blocks are 16 columns wide, which also doubles the independent chains
// that hide a step's latency. The accumulators round-trip through C between
// strips; they always hold exact binary16 values, so that is lossless.

// k steps per strip: R x 256 floats = at most 4 KB of stack.
constexpr int64_t kF16Strip = 256;

// 8 Halfs at p as floats; a TAIL load moves only the first w.
template <bool TAIL>
ULAYER_INLINE __m256 LoadHalf8(const Half* p, int64_t w) {
  return _mm256_cvtph_ps(TAIL ? LoadPartial(p, 2 * w)
                              : _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// Rounds v to binary16 and stores it; a TAIL store moves only the first w.
template <bool TAIL>
ULAYER_INLINE void StoreHalf8(Half* p, __m256 v, int64_t w) {
  const __m128i h = _mm256_cvtps_ph(v, kRoundNearest);
  if (TAIL) {
    StorePartial(p, h, 2 * w);
  } else {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), h);
  }
}

// The per-lane F16 chain step: acc = RN16(acc + RN16(a * b)).
ULAYER_INLINE __m256 F16Madd(__m256 acc, __m256 a, __m256 b) {
  const __m256 prod16 = _mm256_cvtph_ps(_mm256_cvtps_ph(_mm256_mul_ps(a, b), kRoundNearest));
  return _mm256_cvtph_ps(_mm256_cvtps_ph(_mm256_add_ps(acc, prod16), kRoundNearest));
}

// Columns [jb, jb + 16) of R rows over the kn steps of one strip.
template <int R>
ULAYER_INLINE void F16Block16(const float (*af)[kRowTile], const Half* bs, int64_t ldb,
                              int64_t jb, int64_t kn, Half* const* c_rows) {
  __m256 acc0[R];
  __m256 acc1[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    acc0[r] = LoadHalf8<false>(c_rows[r] + jb, 8);
    acc1[r] = LoadHalf8<false>(c_rows[r] + jb + 8, 8);
  }
  for (int64_t kk = 0; kk < kn; ++kk) {
    const Half* brow = bs + kk * ldb + jb;
    const __m256 bv0 = LoadHalf8<false>(brow, 8);
    const __m256 bv1 = LoadHalf8<false>(brow + 8, 8);
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      const __m256 avv = _mm256_broadcast_ss(&af[kk][r]);
      acc0[r] = F16Madd(acc0[r], avv, bv0);
      acc1[r] = F16Madd(acc1[r], avv, bv1);
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    StoreHalf8<false>(c_rows[r] + jb, acc0[r], 8);
    StoreHalf8<false>(c_rows[r] + jb + 8, acc1[r], 8);
  }
}

// Columns [jb, jb + 8) of R rows; the TAIL instance covers the final w < 8.
template <int R, bool TAIL>
ULAYER_INLINE void F16Block8(const float (*af)[kRowTile], const Half* bs, int64_t ldb,
                             int64_t jb, int64_t w, int64_t kn, Half* const* c_rows) {
  __m256 acc[R];
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    acc[r] = LoadHalf8<TAIL>(c_rows[r] + jb, w);
  }
  for (int64_t kk = 0; kk < kn; ++kk) {
    const __m256 bv = LoadHalf8<TAIL>(bs + kk * ldb + jb, w);
    ULAYER_UNROLL_R
    for (int r = 0; r < R; ++r) {
      acc[r] = F16Madd(acc[r], _mm256_broadcast_ss(&af[kk][r]), bv);
    }
  }
  ULAYER_UNROLL_R
  for (int r = 0; r < R; ++r) {
    StoreHalf8<TAIL>(c_rows[r] + jb, acc[r], w);
  }
}

template <int R>
void F16Tile(const Half* const* a_rows, int64_t a_kstride, const Half* b,
             int64_t ldb, int64_t jn, int64_t k, Half* const* c_rows) {
  alignas(32) float af[kF16Strip][kRowTile];
  for (int64_t ks = 0; ks < k; ks += kF16Strip) {
    const int64_t kn = k - ks < kF16Strip ? k - ks : kF16Strip;
    for (int64_t kk = 0; kk < kn; ++kk) {
      ULAYER_UNROLL_R
      for (int r = 0; r < R; ++r) {
        af[kk][r] = _cvtsh_ss(a_rows[r][(ks + kk) * a_kstride].bits());
      }
    }
    const Half* bs = b + ks * ldb;
    int64_t jb = 0;
    for (; jb + 16 <= jn; jb += 16) {
      F16Block16<R>(af, bs, ldb, jb, kn, c_rows);
    }
    if (jb + 8 <= jn) {
      F16Block8<R, false>(af, bs, ldb, jb, 8, kn, c_rows);
      jb += 8;
    }
    if (jb < jn) {
      F16Block8<R, true>(af, bs, ldb, jb, jn - jb, kn, c_rows);
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

// F16 GEMV: rows in lanes. Each row's chain is sequential in k, so a vector
// holds 8 rows at one k: 8 rows x 8 k of row-major A are loaded and
// transposed in registers (three rounds of 16/32/64-bit unpacks), after which
// vector kk holds column kk. The chain step's latency (two conversion round
// trips per k) is hidden by running G = 4 independent 8-row groups; the
// remaining rows run one group at a time. Rows past `rows` are zero lanes
// that are never stored, and the k remainder's zero padding is never stepped.
ULAYER_INLINE void Transpose8x8(__m128i (&v)[8]) {
  const __m128i t0 = _mm_unpacklo_epi16(v[0], v[1]);
  const __m128i t1 = _mm_unpackhi_epi16(v[0], v[1]);
  const __m128i t2 = _mm_unpacklo_epi16(v[2], v[3]);
  const __m128i t3 = _mm_unpackhi_epi16(v[2], v[3]);
  const __m128i t4 = _mm_unpacklo_epi16(v[4], v[5]);
  const __m128i t5 = _mm_unpackhi_epi16(v[4], v[5]);
  const __m128i t6 = _mm_unpacklo_epi16(v[6], v[7]);
  const __m128i t7 = _mm_unpackhi_epi16(v[6], v[7]);
  const __m128i u0 = _mm_unpacklo_epi32(t0, t2);
  const __m128i u1 = _mm_unpackhi_epi32(t0, t2);
  const __m128i u2 = _mm_unpacklo_epi32(t1, t3);
  const __m128i u3 = _mm_unpackhi_epi32(t1, t3);
  const __m128i u4 = _mm_unpacklo_epi32(t4, t6);
  const __m128i u5 = _mm_unpackhi_epi32(t4, t6);
  const __m128i u6 = _mm_unpacklo_epi32(t5, t7);
  const __m128i u7 = _mm_unpackhi_epi32(t5, t7);
  v[0] = _mm_unpacklo_epi64(u0, u4);
  v[1] = _mm_unpackhi_epi64(u0, u4);
  v[2] = _mm_unpacklo_epi64(u1, u5);
  v[3] = _mm_unpackhi_epi64(u1, u5);
  v[4] = _mm_unpacklo_epi64(u2, u6);
  v[5] = _mm_unpackhi_epi64(u2, u6);
  v[6] = _mm_unpacklo_epi64(u3, u7);
  v[7] = _mm_unpackhi_epi64(u3, u7);
}

// G groups of 8 rows; `rows` is 8 * G, or 1..8 when G == 1.
template <int G>
void F16GemvGroups(const Half* a, int64_t lda, const Half* x, int64_t rows, int64_t k,
                   Half* y) {
  const bool full = rows == 8 * G;
  __m256 acc[G];
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    acc[g] = full ? LoadHalf8<false>(y + 8 * g, 8) : LoadHalf8<true>(y, rows);
  }
  alignas(32) float xs[8];
  __m128i cols[G][8];
  for (int64_t k0 = 0; k0 < k; k0 += 8) {
    const int64_t kw = k - k0 < 8 ? k - k0 : 8;
    const bool kfull = kw == 8;
    _mm256_store_ps(xs, kfull ? LoadHalf8<false>(x + k0, 8) : LoadHalf8<true>(x + k0, kw));
    ULAYER_UNROLL_R
    for (int g = 0; g < G; ++g) {
      _Pragma("GCC unroll 8")
      for (int i = 0; i < 8; ++i) {
        const int64_t row = 8 * g + i;
        const Half* p = a + row * lda + k0;
        cols[g][i] = row >= rows ? _mm_setzero_si128()
                     : kfull     ? _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))
                                 : LoadPartial(p, 2 * kw);
      }
      Transpose8x8(cols[g]);
    }
    for (int64_t kk = 0; kk < kw; ++kk) {
      const __m256 xv = _mm256_broadcast_ss(&xs[kk]);
      ULAYER_UNROLL_R
      for (int g = 0; g < G; ++g) {
        acc[g] = F16Madd(acc[g], _mm256_cvtph_ps(cols[g][kk]), xv);
      }
    }
  }
  ULAYER_UNROLL_R
  for (int g = 0; g < G; ++g) {
    if (full) {
      StoreHalf8<false>(y + 8 * g, acc[g], 8);
    } else {
      StoreHalf8<true>(y, acc[g], rows);
    }
  }
}

void F16GemvAvx2(const Half* a, int64_t lda, const Half* x, int64_t rows, int64_t k,
                 Half* y) {
  constexpr int64_t kGroups = 4;
  int64_t r0 = 0;
  for (; r0 + 8 * kGroups <= rows; r0 += 8 * kGroups) {
    F16GemvGroups<kGroups>(a + r0 * lda, lda, x, 8 * kGroups, k, y + r0);
  }
  for (; r0 < rows; r0 += 8) {
    F16GemvGroups<1>(a + r0 * lda, lda, x, rows - r0 < 8 ? rows - r0 : 8, k, y + r0);
  }
}

}  // namespace

const GemmMicroKernels* Avx2Table() {
  static const GemmMicroKernels table = {Isa::kAvx2, Qu8Avx2,     F32Avx2,       F16Avx2,
                                         Qu8GemvAvx2, F16GemvAvx2, F16ToQu8Scalar};
  return &table;
}

}  // namespace ulayer::simd::detail

#else  // !(__AVX2__ && __F16C__)

#include "kernels/simd_internal.h"

namespace ulayer::simd::detail {
const GemmMicroKernels* Avx2Table() { return nullptr; }
}  // namespace ulayer::simd::detail

#endif  // __AVX2__ && __F16C__
