// Internal plumbing between simd.cc and the per-ISA translation units.
// Not part of the public kernel API.
#pragma once

#include "kernels/simd.h"

// Every per-row loop in the SIMD tiles runs R <= 4 iterations and is forced
// fully unrolled: without the pragma GCC 12 at -O2 leaves the loops rolled,
// which keeps the vector accumulator arrays addressable — they spill to the
// stack and the hot k loop round-trips every accumulator through memory per
// step (verified in the generated assembly). Unrolling scalarizes the arrays
// into registers. It does not reorder any arithmetic: rows are independent
// and each row's op sequence is unchanged, so bit-identity is preserved.
#define ULAYER_UNROLL_R _Pragma("GCC unroll 4")

// Helpers called from the unrolled loops must inline, or the accumulator
// arrays they take by reference become addressable again.
#define ULAYER_INLINE inline __attribute__((always_inline))

namespace ulayer::simd::detail {

// Scalar reference micro-kernels — the arithmetic contract every SIMD
// variant must reproduce (bit-identical QU8/F32, value-identical F16).
// Shared with the SSE4.1 table, which has no F16C and reuses the scalar F16
// and both scalar GEMVs, and with the NEON table. Every table but AVX-512's
// uses the scalar F16 -> QU8 requantize.
void Qu8Scalar(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
               const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
               int32_t* acc, int64_t acc_ld);
void F32Scalar(const float* const* a_rows, int64_t a_kstride, const float* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows);
void F16Scalar(const Half* const* a_rows, int64_t a_kstride, const Half* b,
               int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows);
void Qu8GemvScalar(const uint8_t* a, int64_t lda, const int32_t* a_zp, const uint8_t* x,
                   int64_t rows, int64_t k, int32_t* acc, int64_t acc_ld);
void F16GemvScalar(const Half* a, int64_t lda, const Half* x, int64_t rows, int64_t k,
                   Half* y);
void F16ToQu8Scalar(const Half* in, int64_t n, float scale, int32_t zp, uint8_t* out);

// Per-ISA dispatch tables. Each returns nullptr when the variant is not
// compiled into this binary: every TU is built on every architecture and
// stubs its table to nullptr unless its feature macros are defined.
const GemmMicroKernels* Sse41Table();
const GemmMicroKernels* Avx2Table();
const GemmMicroKernels* Avx512Table();
const GemmMicroKernels* NeonTable();

}  // namespace ulayer::simd::detail
