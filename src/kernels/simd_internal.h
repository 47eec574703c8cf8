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

// The scalar F16 -> QU8 requantize (simd.cc), shared by the AVX2 table.
void F16ToQu8Scalar(const Half* in, int64_t n, float scale, int32_t zp, uint8_t* out);

// Per-ISA dispatch tables. Each returns nullptr when the variant is not
// compiled into this binary: every TU is built on every architecture and
// stubs its table to nullptr unless its feature macros are defined.
const GemmMicroKernels* Avx2Table();
const GemmMicroKernels* Avx512Table();

}  // namespace ulayer::simd::detail
