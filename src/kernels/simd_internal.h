// Internal plumbing between simd.cc and the per-ISA translation units.
// Not part of the public kernel API.
#pragma once

#include "kernels/simd.h"

namespace ulayer::simd::detail {

// Scalar reference micro-kernels — the arithmetic contract every SIMD
// variant must reproduce (bit-identical QU8/F32, value-identical F16).
// Shared with the SSE4.1 table, which has no F16C and reuses the scalar F16
// and both scalar GEMVs, and with the NEON table.
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

// Per-ISA dispatch tables. Each returns nullptr when the variant is not
// compiled into this binary (the TU is only added on matching
// architectures); simd.cc provides the nullptr stubs for the others.
const GemmMicroKernels* Sse41Table();
const GemmMicroKernels* Avx2Table();
const GemmMicroKernels* NeonTable();

}  // namespace ulayer::simd::detail
