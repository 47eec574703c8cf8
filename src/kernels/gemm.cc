#include "kernels/gemm.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

#include "kernels/simd.h"
#include "parallel/thread_pool.h"

namespace ulayer {
namespace {

// Blocking parameters (DESIGN.md Sections 9 and 13).
//
// All three GEMMs process kRowTile A-rows per micro-kernel tile so each B
// panel read is amortized over four output rows. The QU8 kernel additionally
// blocks columns over kColTileQ-wide int32 accumulator tiles kept on the
// stack (1 KB per row: L1-resident, and no per-call heap allocation). The
// inner tiles themselves live in kernels/simd.h and are runtime-dispatched
// to the best available ISA.
constexpr int64_t kRowTile = simd::kRowTile;
constexpr int64_t kColTileQ = 256;

// Rounds a ParallelFor grain up to a multiple of kRowTile so chunk boundaries
// do not split row tiles (GrainForOps returns 1 for large n*k), then floors it
// at kMinGrainRows: the cache blocking below amortizes its B panel staging
// over every row tile of a chunk, so a 4-row chunk (what GrainForOps alone
// yields on any real layer) would re-stream the panel once per tile and never
// hit the packed path. 32 rows = 8 row tiles per chunk still splits typical
// layer oc counts across a multi-core budget, and the grain stays a pure
// function of the shape — chunk boundaries never depend on the thread count
// (the determinism contract in parallel/thread_pool.h).
constexpr int64_t kMinGrainRows = 32;

int64_t RowTileGrain(double ops_per_row) {
  const int64_t g = parallel::GrainForOps(ops_per_row);
  const int64_t tiles = ((g + kRowTile - 1) / kRowTile) * kRowTile;
  return std::max(tiles, kMinGrainRows);
}

// Resolves the kRowTile row pointers for the tile starting at row i0: either
// into the packed panel (k-major interleaved groups of kRowTile rows,
// kernels/pack.h) or into plain row-major A. Returns the element stride
// between consecutive k values.
template <typename T>
int64_t TileRowPointers(const T* a, const T* a_packed, int64_t i0, int64_t rows,
                        int64_t k, const T* rows_out[]) {
  if (a_packed != nullptr) {
    assert(i0 % kRowTile == 0 && "packed panels require tile-aligned rows");
    const T* panel = a_packed + (i0 / kRowTile) * (kRowTile * k);
    for (int64_t r = 0; r < rows; ++r) {
      rows_out[r] = panel + r;
    }
    return kRowTile;
  }
  for (int64_t r = 0; r < rows; ++r) {
    rows_out[r] = a + (i0 + r) * k;
  }
  return 1;
}

}  // namespace

void GemmF32(const float* a, const float* b, float* c, int64_t m, int64_t n, int64_t k,
             const float* bias, bool relu, const float* a_packed) {
  // Rows are independent: parallelize over m in kRowTile groups. Within the
  // micro-kernel every C element accumulates over ascending k with one
  // sequential += per term and the naive kernel's av == 0 skip preserved per
  // (row, k), so float results stay bit-identical to the naive i-k-j loop
  // regardless of the dispatched ISA (skipping matters only for the sign of
  // zero, but the baseline skipped, so every variant must too).
  //
  // Cache blocking, two levels. Columns: one B panel (k x jtile floats,
  // jtile capped so a strip fits L1) stays L2-resident across all row tiles
  // of a chunk — without it the full B matrix streams from memory once per
  // row tile. k: each micro-kernel call covers a kKStripF32-row strip of B
  // (kstrip x jtile x 4B ~ 32 KB, L1-resident across the strip's column
  // sub-blocks; a full-k walk at row stride n*4 costs a TLB miss per touch
  // on large layers). Blocking only reorders whole (row, column, k-range)
  // units of work: each C element still accumulates its terms in ascending
  // k — partial sums round-trip through C exactly — and sees one bias-fill
  // and one relu, so outputs stay bit-identical to the unblocked loop.
  //
  // When the chunk spans enough row tiles to amortize the copy, each B panel
  // is additionally packed into a contiguous (k x jn) buffer before use: at
  // large n the strided panel spans one 4 KB page per couple of B rows, so a
  // k-strip walk touches more pages than the L1 dTLB holds and every row
  // load stalls on a translation. The packed panel is dense (a 32 KB strip
  // covers 8 pages) and prefetch-friendly. Packing is pure data movement —
  // the kernels consume the same values in the same order via ldb.
  constexpr int64_t kBPanelElems = int64_t{1} << 18;  // 1 MiB of floats.
  constexpr int64_t kKStripF32 = 64;
  int64_t jtile = (kBPanelElems / std::max<int64_t>(k, 1)) & ~int64_t{15};
  jtile = std::min<int64_t>(std::max<int64_t>(jtile, 16), 128);
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  parallel::ParallelFor(
      0, m, RowTileGrain(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        const float* a_rows[kRowTile];
        const float* a_rows_ks[kRowTile];
        float* c_rows[kRowTile];
        const bool pack_b = i_end - i_begin >= 4 * kRowTile;
        std::vector<float> bpanel(pack_b ? static_cast<size_t>(jtile * k) : 0);
        for (int64_t jc = 0; jc < n; jc += jtile) {
          const int64_t jn = std::min(jtile, n - jc);
          const float* bp = b + jc;
          int64_t bldb = n;
          if (pack_b) {
            for (int64_t kk = 0; kk < k; ++kk) {
              std::copy_n(b + kk * n + jc, jn, bpanel.data() + kk * jn);
            }
            bp = bpanel.data();
            bldb = jn;
          }
          // k strips outermost within the column block: one 32 KB B strip
          // stays L1-resident across every row tile instead of re-streaming
          // the whole panel from L2 once per tile. Each C element still sees
          // bias first, then its k terms in ascending order (strips ascend,
          // kk ascends within a strip), then one relu.
          for (int64_t i = i_begin; i < i_end; ++i) {
            float* crow = c + i * n + jc;
            const float b0 = bias != nullptr ? bias[i] : 0.0f;
            std::fill(crow, crow + jn, b0);
          }
          for (int64_t ks = 0; ks < k; ks += kKStripF32) {
            const int64_t kn = std::min(kKStripF32, k - ks);
            for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
              const int64_t rows = std::min(kRowTile, i_end - i0);
              const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
              for (int64_t r = 0; r < rows; ++r) {
                a_rows_ks[r] = a_rows[r] + ks * a_kstride;
                c_rows[r] = c + (i0 + r) * n + jc;
              }
              mk.f32(a_rows_ks, a_kstride, bp + ks * bldb, bldb, rows, jn, kn, c_rows);
            }
          }
          if (relu) {
            for (int64_t i = i_begin; i < i_end; ++i) {
              float* crow = c + i * n + jc;
              for (int64_t j = 0; j < jn; ++j) {
                crow[j] = std::max(crow[j], 0.0f);
              }
            }
          }
        }
      });
}

void GemmF16(const Half* a, const Half* b, Half* c, int64_t m, int64_t n, int64_t k,
             const Half* bias, bool relu, const Half* a_packed) {
  // Same row-tiled structure as GemmF32; the C row doubles as the running
  // Half accumulator, so per element the op chain is c = RN16(c + RN16(a*b))
  // over ascending k — exactly the naive register-accumulator sequence, and
  // the F16C variant implements the identical per-step rounding in hardware.
  //
  // n == 1 with row-major A (every FC layer) is a GEMV: the whole chunk goes
  // to the f16_gemv slot, which puts rows in vector lanes (DESIGN.md §13).
  const Half zero(0.0f);
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  const bool gemv = n == 1 && a_packed == nullptr;
  const auto relu_clamp = [&](Half* p, int64_t count) {
    for (int64_t j = 0; j < count; ++j) {
      if (p[j] < zero) {
        p[j] = zero;
      }
    }
  };
  parallel::ParallelFor(
      0, m, RowTileGrain(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        if (gemv) {
          for (int64_t i = i_begin; i < i_end; ++i) {
            c[i] = bias != nullptr ? bias[i] : zero;
          }
          mk.f16_gemv(a + i_begin * k, k, b, i_end - i_begin, k, c + i_begin);
          if (relu) {
            relu_clamp(c + i_begin, i_end - i_begin);
          }
          return;
        }
        const Half* a_rows[kRowTile];
        Half* c_rows[kRowTile];
        for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
          const int64_t rows = std::min(kRowTile, i_end - i0);
          for (int64_t r = 0; r < rows; ++r) {
            c_rows[r] = c + (i0 + r) * n;
            const Half b0 = bias != nullptr ? bias[i0 + r] : zero;
            std::fill(c_rows[r], c_rows[r] + n, b0);
          }
          const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
          mk.f16(a_rows, a_kstride, b, n, rows, n, k, c_rows);
          if (relu) {
            for (int64_t r = 0; r < rows; ++r) {
              relu_clamp(c_rows[r], n);
            }
          }
        }
      });
}

void GemmQU8(const uint8_t* a, int32_t a_zp, const uint8_t* b, int32_t b_zp, uint8_t* c,
             int32_t c_zp, const RequantScale& rs, int64_t m, int64_t n, int64_t k,
             const int32_t* bias, bool relu, const int32_t* a_rowsum,
             const uint8_t* a_packed) {
  // Accumulation bound: every partial sum of (a - a_zp) * b terms is within
  // |bias| + 255*255*k, the same bound as the naive (a-a_zp)(b-b_zp) kernel,
  // because the b_zp correction is applied only after the k loop.
  // Plan installs reject larger k (Q303, VerifyAccumulatorBounds).
  assert(k <= INT32_MAX / (255 * 255) && "int32 accumulator would overflow");
  // n == 1 with row-major A (every FC layer) is a GEMV: each row tile goes to
  // the qu8_gemv slot, which puts k in vector lanes (DESIGN.md §13).
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  const bool gemv = n == 1 && a_packed == nullptr;
  parallel::ParallelFor(
      0, m, RowTileGrain(static_cast<double>(n) * static_cast<double>(k)),
      [&](int64_t i_begin, int64_t i_end) {
        // Stack tiles: no per-chunk heap allocation (DESIGN.md Section 9).
        int32_t acc[kRowTile][kColTileQ];
        int32_t srow[kRowTile];  // Signed row sums: sum_k (a[i,k] - a_zp).
        int32_t zps[kRowTile];
        const uint8_t* a_rows[kRowTile];
        std::fill(zps, zps + kRowTile, a_zp);
        for (int64_t i0 = i_begin; i0 < i_end; i0 += kRowTile) {
          const int64_t rows = std::min(kRowTile, i_end - i0);
          const int64_t a_kstride = TileRowPointers(a, a_packed, i0, rows, k, a_rows);
          for (int64_t r = 0; r < rows; ++r) {
            int32_t raw = 0;
            if (a_rowsum != nullptr) {
              raw = a_rowsum[i0 + r];
            } else {
              const uint8_t* arow = a_rows[r];
              for (int64_t kk = 0; kk < k; ++kk) {
                raw += static_cast<int32_t>(arow[kk * a_kstride]);
              }
            }
            srow[r] = raw - static_cast<int32_t>(k) * a_zp;
          }
          for (int64_t jb = 0; jb < n; jb += kColTileQ) {
            const int64_t jn = std::min(kColTileQ, n - jb);
            for (int64_t r = 0; r < rows; ++r) {
              const int32_t b0 = bias != nullptr ? bias[i0 + r] : 0;
              std::fill(acc[r], acc[r] + jn, b0);
            }
            if (gemv) {
              mk.qu8_gemv(a_rows[0], k, zps, b, rows, k, &acc[0][0], kColTileQ);
            } else {
              mk.qu8(a_rows, a_kstride, zps, b + jb, n, rows, jn, k, &acc[0][0],
                     kColTileQ);
            }
            for (int64_t r = 0; r < rows; ++r) {
              const int32_t corr = b_zp * srow[r];
              uint8_t* crow = c + (i0 + r) * n + jb;
              for (int64_t j = 0; j < jn; ++j) {
                uint8_t q = RequantizeOne(acc[r][j] - corr, rs, c_zp);
                if (relu && q < c_zp) {
                  // Quantized ReLU: real zero is stored as c_zp.
                  q = static_cast<uint8_t>(c_zp);
                }
                crow[j] = q;
              }
            }
          }
        }
      });
}

LoopSpec GemmWriteLoopSpec(DType dtype, int64_t m, int64_t n, int64_t k, int64_t c_base_bytes) {
  const double ops = static_cast<double>(n) * static_cast<double>(k);
  LoopSpec loop;
  loop.begin = 0;
  loop.end = m;
  loop.grain = RowTileGrain(ops);  // All three GEMMs are row-tiled now.
  loop.stride_bytes = n * DTypeSize(dtype);
  loop.iter_bytes = n * DTypeSize(dtype);
  loop.bases = {c_base_bytes};
  return loop;
}

}  // namespace ulayer
