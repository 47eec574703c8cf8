// Runtime SIMD dispatch for the GEMM micro-kernels (DESIGN.md Section 13).
//
// One binary carries one x86 ladder of inner GEMM tiles: scalar, AVX2(+F16C)
// and AVX-512 (with FP16). The best tier the CPU supports is picked once at
// startup (overridable with the ULAYER_SIMD environment variable, or
// ForceIsa() from tests); an ARM or pre-AVX2 host runs the scalar tier. Every
// tier implements the *same arithmetic contract* as the scalar reference —
// byte-identical QU8/F32 results and value-identical per-step-rounded F16
// results — so dispatch never changes output bytes.
#pragma once

#include <cstdint>
#include <vector>

#include "quant/half.h"

namespace ulayer::simd {

enum class Isa { kScalar, kAvx2, kAvx512 };

// Human-readable name ("scalar", "avx2", "avx512") — the ULAYER_SIMD value
// that selects the tier, recorded in BENCH_kernels.json provenance.
const char* IsaName(Isa isa);

// The ISA micro-kernels dispatch to. Resolution order: ForceIsa() override if
// set, else the ULAYER_SIMD env var (scalar|avx2|avx512|auto, read once),
// else the best ISA the CPU reports. "auto", unknown values and requests for
// an unsupported ISA fall back to the best supported one. An ISA is supported
// only when the CPU reports its features and its translation unit was
// compiled in.
Isa ActiveIsa();

// All ISAs usable on this machine, best first; always ends with kScalar.
// Tests iterate this to run the dispatch matrix.
std::vector<Isa> SupportedIsas();

// Test and bench hook: pin dispatch to `isa` (clamped to a supported ISA)
// until ResetForcedIsa(). Not thread-safe; call only while no kernel runs.
void ForceIsa(Isa isa);
void ResetForcedIsa();

// A-rows processed together by one micro-kernel tile; packed filter panels
// (kernels/pack.h) interleave rows in groups of kRowTile.
inline constexpr int64_t kRowTile = 4;

// Micro-kernel tile contracts. Common conventions:
//  - `a_rows[r]` points at element k=0 of A-row r; consecutive k elements are
//    `a_kstride` elements apart (1 for plain row-major A, kRowTile for packed
//    panels). 1 <= rows <= kRowTile.
//  - `b` is the row-major B panel top-left for this column block; B row kk
//    starts at b + kk*ldb. `jn` columns are produced, over `k` accumulation
//    steps.
//  - Accumulators are read-modify-write: callers pre-fill with bias.
//  - Every variant reads no byte of A past row `rows` or element k-1, no
//    byte of B past column `jn`, and writes nothing past column `jn`.
//
// The two GEMV slots cover n == 1 with row-major A (every FC layer): A row r
// starts at a + r*lda, `x` holds the k values of the single B column, and
// `rows` is unbounded (the variants group rows internally).
struct GemmMicroKernels {
  Isa isa = Isa::kScalar;

  // QU8: acc[r*acc_ld + j] += sum_kk (a_rows[r][kk*a_kstride] - a_zp[r]) * b.
  // Pure int32 arithmetic — any summation order, exact by construction.
  // a_zp is per-row so the per-channel conv kernel can reuse the tile.
  void (*qu8)(const uint8_t* const* a_rows, int64_t a_kstride, const int32_t* a_zp,
              const uint8_t* b, int64_t ldb, int64_t rows, int64_t jn, int64_t k,
              int32_t* acc, int64_t acc_ld);

  // F32: c_rows[r][j] += a*b with ascending-k single-add order per element
  // and the av == 0.0f skip preserved per (row, k) — bit-identical to the
  // naive i-k-j loop (variants are built with -ffp-contract=off; no FMA).
  void (*f32)(const float* const* a_rows, int64_t a_kstride, const float* b,
              int64_t ldb, int64_t rows, int64_t jn, int64_t k, float* const* c_rows);

  // F16: per element, c = RN16(c + RN16(a*b)) ascending k — every
  // multiply-accumulate rounds to binary16 exactly like software Half
  // arithmetic (F16C conversions and native AVX-512 FP16 arithmetic both
  // implement the identical round-to-nearest-even; see DESIGN.md Section 13).
  void (*f16)(const Half* const* a_rows, int64_t a_kstride, const Half* b,
              int64_t ldb, int64_t rows, int64_t jn, int64_t k, Half* const* c_rows);

  // QU8 GEMV: acc[r*acc_ld] += sum_kk (a[r*lda + kk] - a_zp[r]) * x[kk], the
  // qu8 contract at jn == 1.
  void (*qu8_gemv)(const uint8_t* a, int64_t lda, const int32_t* a_zp, const uint8_t* x,
                   int64_t rows, int64_t k, int32_t* acc, int64_t acc_ld);

  // F16 GEMV: per row, y[r] = RN16(y[r] + RN16(a[r*lda + kk] * x[kk])) over
  // ascending kk, the f16 contract at jn == 1.
  void (*f16_gemv)(const Half* a, int64_t lda, const Half* x, int64_t rows, int64_t k,
                   Half* y);

  // F16 -> QU8 requantize: out[i] = QuantParams{scale, zp}.Quantize(in[i].ToFloat())
  // for i in [0, n), byte-identical to that scalar expression (NaN maps to 0).
  void (*f16_to_qu8)(const Half* in, int64_t n, float scale, int32_t zp, uint8_t* out);
};

// The table for ActiveIsa(). Resolve once per kernel call (cheap), before
// entering ParallelFor.
const GemmMicroKernels& ActiveGemmMicroKernels();

// The table for a specific ISA (scalar is always available; unsupported ISAs
// return the scalar table). Exposed for the dispatch-matrix tests.
const GemmMicroKernels& GemmMicroKernelsFor(Isa isa);

}  // namespace ulayer::simd
