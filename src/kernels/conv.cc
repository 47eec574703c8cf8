#include "kernels/conv.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/simd.h"
#include "parallel/thread_pool.h"
#include "quant/half.h"
#include "quant/quantize.h"

namespace ulayer {
namespace {

// Resolves oc_end == -1 and validates the range.
int64_t ResolveEnd(int64_t end, int64_t limit) {
  const int64_t e = end < 0 ? limit : end;
  assert(e <= limit);
  return e;
}

int64_t AlignUp64(int64_t bytes) { return (bytes + 63) & ~int64_t{63}; }

// Mirror of the GEMM blocking (see gemm.cc) for the per-channel kernel.
constexpr int64_t kRowTile = simd::kRowTile;
constexpr int64_t kColTileQ = 256;

// Slice view into the prepare-time packed filter panels (kernels/pack.h):
// panels interleave absolute output channels in groups of kRowTile, so a
// slice can only enter at a tile boundary. Cooperative split grains are
// kRowTile-aligned; an odd oc_begin (tests, hand-built plans) falls back to
// the row-major filters by returning null.
template <typename T>
const T* PackedSlice(const T* packed, int64_t oc_begin, int64_t k) {
  if (packed == nullptr || oc_begin % kRowTile != 0) {
    return nullptr;
  }
  return packed + (oc_begin / kRowTile) * (kRowTile * k);
}

// Rounds a ParallelFor grain up to a multiple of kRowTile so chunk boundaries
// do not split row tiles (GrainForOps returns 1 for large per-row op counts).
int64_t RowTileGrain(double ops_per_row) {
  const int64_t g = parallel::GrainForOps(ops_per_row);
  return ((g + kRowTile - 1) / kRowTile) * kRowTile;
}

// Scratch buffer: arena-backed when an arena is supplied (no heap
// allocation, contents uninitialized), per-call heap vector otherwise (see
// ConvAux::scratch). Every user below fully overwrites the buffer before
// reading it, so the uninitialized arena contents are never observed.
template <typename T>
class ScratchVec {
 public:
  ScratchVec(memory::ScratchArena* arena, size_t n) {
    if (arena != nullptr) {
      ptr_ = arena->AllocN<T>(n);
    } else {
      own_.resize(n);
      ptr_ = own_.data();
    }
  }
  T* data() { return ptr_; }

 private:
  T* ptr_ = nullptr;
  std::vector<T> own_;
};

// The via-F16 producer for one QUInt8 image: dequantizes it to F16 through a
// 256-entry table filled with the exact per-element expression
// Half(in_qp.Dequantize(q)), then im2cols it. The per-call path and
// Conv2DQU8ViaF16StageCols share it, so their columns are byte-identical.
void DequantizeIm2ColF16(const uint8_t* img, const Shape& is, const QuantParams& in_qp,
                         const Conv2DParams& p, Half* img16, Half* cols) {
  Half lut[256];
  for (int q = 0; q < 256; ++q) {
    lut[q] = Half(in_qp.Dequantize(static_cast<uint8_t>(q)));
  }
  parallel::ParallelFor(0, is.c * is.h * is.w, parallel::GrainForOps(1.0),
                        [&](int64_t b, int64_t e) {
                          for (int64_t i = b; i < e; ++i) {
                            img16[i] = lut[img[i]];
                          }
                        });
  Im2ColF16(img16, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
            cols);
}

}  // namespace

void Conv2DF32(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin, int64_t oc_end,
               const ConvAux& aux) {
  assert(input.dtype() == DType::kF32 && filters.dtype() == DType::kF32);
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();  // [OC, IC, KH, KW]
  assert(fs.c == is.c && fs.h == p.kernel_h && fs.w == p.kernel_w);
  oc_end = ResolveEnd(oc_end, fs.n);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  assert(output.shape() == Shape(is.n, fs.n, out_h, out_w));

  const int64_t k = fs.c * fs.h * fs.w;           // GEMM depth
  const int64_t spatial = int64_t{out_h} * out_w;  // GEMM columns
  ScratchVec<float> cols(aux.scratch, static_cast<size_t>(k * spatial));

  const float* bias_ptr = bias.empty() ? nullptr : bias.Data<float>() + oc_begin;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const float* img = input.Data<float>() + ni * is.c * is.h * is.w;
    Im2ColF32(img, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
              cols.data());
    float* out = output.Data<float>() + output.shape().Offset(ni, oc_begin, 0, 0);
    const float* w = filters.Data<float>() + oc_begin * k;
    GemmF32(w, cols.data(), out, oc_end - oc_begin, spatial, k, bias_ptr, p.relu,
            PackedSlice(aux.filters_packed_f32, oc_begin, k));
  }
}

void Conv2DF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin, int64_t oc_end,
               const ConvAux& aux) {
  assert(input.dtype() == DType::kF16 && filters.dtype() == DType::kF16);
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  oc_end = ResolveEnd(oc_end, fs.n);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  assert(output.shape() == Shape(is.n, fs.n, out_h, out_w));

  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  ScratchVec<Half> cols(aux.scratch, static_cast<size_t>(k * spatial));

  const Half* bias_ptr = bias.empty() ? nullptr : bias.Data<Half>() + oc_begin;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const Half* img = input.Data<Half>() + ni * is.c * is.h * is.w;
    Im2ColF16(img, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
              cols.data());
    Half* out = output.Data<Half>() + output.shape().Offset(ni, oc_begin, 0, 0);
    const Half* w = filters.Data<Half>() + oc_begin * k;
    GemmF16(w, cols.data(), out, oc_end - oc_begin, spatial, k, bias_ptr, p.relu,
            PackedSlice(aux.filters_packed_f16, oc_begin, k));
  }
}

void Conv2DQU8(const Tensor& input, const Tensor& filters, const Tensor& bias,
               const Conv2DParams& p, Tensor& output, int64_t oc_begin, int64_t oc_end,
               const ConvAux& aux) {
  assert(input.dtype() == DType::kQUInt8 && filters.dtype() == DType::kQUInt8);
  assert(output.dtype() == DType::kQUInt8);
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  oc_end = ResolveEnd(oc_end, fs.n);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  assert(output.shape() == Shape(is.n, fs.n, out_h, out_w));

  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  ScratchVec<uint8_t> cols(aux.scratch, static_cast<size_t>(k * spatial));

  const RequantScale rs =
      aux.requant != nullptr
          ? *aux.requant
          : ComputeRequantScale(static_cast<double>(input.scale()) *
                                static_cast<double>(filters.scale()) /
                                static_cast<double>(output.scale()));
  const uint8_t in_pad = static_cast<uint8_t>(input.zero_point());
  const int32_t* rowsum =
      aux.filter_rowsum != nullptr ? aux.filter_rowsum + oc_begin : nullptr;

  const int32_t* bias_ptr = bias.empty() ? nullptr : bias.Data<int32_t>() + oc_begin;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const uint8_t* img = input.Data<uint8_t>() + ni * is.c * is.h * is.w;
    Im2ColQU8(img, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
              cols.data(), in_pad);
    uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, oc_begin, 0, 0);
    const uint8_t* w = filters.Data<uint8_t>() + oc_begin * k;
    GemmQU8(w, filters.zero_point(), cols.data(), input.zero_point(), out, output.zero_point(), rs,
            oc_end - oc_begin, spatial, k, bias_ptr, p.relu, rowsum,
            PackedSlice(aux.filters_packed_qu8, oc_begin, k));
  }
}

void Conv2DQU8PerChannel(const Tensor& input, const Tensor& filters,
                         const PerChannelParams& w_params, const Tensor& bias,
                         const Conv2DParams& p, Tensor& output, int64_t oc_begin,
                         int64_t oc_end, const ConvAux& aux) {
  assert(input.dtype() == DType::kQUInt8 && filters.dtype() == DType::kQUInt8);
  assert(output.dtype() == DType::kQUInt8);
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  oc_end = ResolveEnd(oc_end, fs.n);
  assert(w_params.channels.size() == static_cast<size_t>(fs.n));
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  assert(output.shape() == Shape(is.n, fs.n, out_h, out_w));

  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  // Plan installs reject larger k (Q303, VerifyAccumulatorBounds).
  assert(k <= INT32_MAX / (255 * 255) && "int32 accumulator would overflow");
  ScratchVec<uint8_t> cols(aux.scratch, static_cast<size_t>(k * spatial));
  const uint8_t in_pad = static_cast<uint8_t>(input.zero_point());
  const int32_t in_zp = input.zero_point();
  const int32_t out_zp = output.zero_point();

  // Per-channel requantization multipliers: prepare-time cache (absolute
  // output-channel indexing) or a per-call table over this slice.
  std::vector<RequantScale> rs_local;
  if (aux.requant_per_channel == nullptr) {
    rs_local.resize(static_cast<size_t>(oc_end - oc_begin));
    for (int64_t oc = oc_begin; oc < oc_end; ++oc) {
      rs_local[static_cast<size_t>(oc - oc_begin)] =
          ComputeRequantScale(static_cast<double>(input.scale()) *
                              static_cast<double>(w_params.channels[static_cast<size_t>(oc)].scale) /
                              static_cast<double>(output.scale()));
    }
  }
  const auto requant_for = [&](int64_t oc) -> const RequantScale& {
    return aux.requant_per_channel != nullptr
               ? aux.requant_per_channel[oc]
               : rs_local[static_cast<size_t>(oc - oc_begin)];
  };

  const uint8_t* wdata = filters.Data<uint8_t>();
  // Absolute-indexed packed panels: chunk starts are oc_begin plus a multiple
  // of the kRowTile-aligned grain, so every tile start is tile-aligned
  // whenever oc_begin is.
  const uint8_t* packed =
      oc_begin % kRowTile == 0 ? aux.filters_packed_qu8 : nullptr;
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const uint8_t* img = input.Data<uint8_t>() + ni * is.c * is.h * is.w;
    Im2ColQU8(img, static_cast<int>(is.c), static_cast<int>(is.h), static_cast<int>(is.w), p,
              cols.data(), in_pad);
    // Output channels are independent; each chunk works on stack tiles (same
    // blocked shape and zero-point hoist as GemmQU8, but with per-row filter
    // zero points and requant multipliers).
    parallel::ParallelFor(
        oc_begin, oc_end,
        RowTileGrain(static_cast<double>(k) * static_cast<double>(spatial)),
        [&](int64_t ob, int64_t oe) {
          int32_t acc[kRowTile][kColTileQ];
          int32_t w_zp[kRowTile];
          int32_t srow[kRowTile];  // sum_k (w[oc,k] - w_zp[oc])
          int32_t b0[kRowTile];
          const uint8_t* w_rows[kRowTile];
          for (int64_t oc0 = ob; oc0 < oe; oc0 += kRowTile) {
            const int64_t rows = std::min(kRowTile, oe - oc0);
            int64_t w_kstride = 1;
            if (packed != nullptr) {
              assert(oc0 % kRowTile == 0);
              const uint8_t* panel = packed + (oc0 / kRowTile) * (kRowTile * k);
              for (int64_t r = 0; r < rows; ++r) {
                w_rows[r] = panel + r;
              }
              w_kstride = kRowTile;
            } else {
              for (int64_t r = 0; r < rows; ++r) {
                w_rows[r] = wdata + (oc0 + r) * k;
              }
            }
            for (int64_t r = 0; r < rows; ++r) {
              const int64_t oc = oc0 + r;
              w_zp[r] = w_params.channels[static_cast<size_t>(oc)].zero_point;
              int32_t raw = 0;
              if (aux.filter_rowsum != nullptr) {
                raw = aux.filter_rowsum[oc];
              } else {
                const uint8_t* wrow = w_rows[r];
                for (int64_t kk = 0; kk < k; ++kk) {
                  raw += static_cast<int32_t>(wrow[kk * w_kstride]);
                }
              }
              srow[r] = raw - static_cast<int32_t>(k) * w_zp[r];
              b0[r] = bias.empty() ? 0 : bias.Data<int32_t>()[oc];
            }
            for (int64_t jb = 0; jb < spatial; jb += kColTileQ) {
              const int64_t jn = std::min(kColTileQ, spatial - jb);
              for (int64_t r = 0; r < rows; ++r) {
                std::fill(acc[r], acc[r] + jn, b0[r]);
              }
              if (spatial == 1 && packed == nullptr) {  // FC: the GEMV slot.
                mk.qu8_gemv(w_rows[0], k, w_zp, cols.data(), rows, k, &acc[0][0],
                            kColTileQ);
              } else {
                mk.qu8(w_rows, w_kstride, w_zp, cols.data() + jb, spatial, rows, jn,
                       k, &acc[0][0], kColTileQ);
              }
              for (int64_t r = 0; r < rows; ++r) {
                const int64_t oc = oc0 + r;
                const int32_t corr = in_zp * srow[r];
                const RequantScale& rs = requant_for(oc);
                uint8_t* out =
                    output.Data<uint8_t>() + output.shape().Offset(ni, oc, 0, 0) + jb;
                for (int64_t j = 0; j < jn; ++j) {
                  uint8_t q = RequantizeOne(acc[r][j] - corr, rs, out_zp);
                  if (p.relu && q < out_zp) {
                    q = static_cast<uint8_t>(out_zp);
                  }
                  out[j] = q;
                }
              }
            }
          }
        });
  }
}

void Conv2DQU8ViaF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                     const Conv2DParams& p, Tensor& output, int64_t oc_begin, int64_t oc_end,
                     const ConvAux& aux) {
  assert(input.dtype() == DType::kQUInt8 && filters.dtype() == DType::kQUInt8);
  assert(output.dtype() == DType::kQUInt8);
  assert(bias.empty() || bias.dtype() == DType::kF32);
  const Shape& is = input.shape();
  const Shape& fs = filters.shape();
  oc_end = ResolveEnd(oc_end, fs.n);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  assert(output.shape() == Shape(is.n, fs.n, out_h, out_w));

  const QuantParams in_qp{input.scale(), input.zero_point()};
  const QuantParams w_qp{filters.scale(), filters.zero_point()};
  const QuantParams out_qp{output.scale(), output.zero_point()};

  const int64_t k = fs.c * fs.h * fs.w;
  const int64_t spatial = int64_t{out_h} * out_w;

  // F16 operands: the PreparedModel cache when available (built once at
  // prepare time), otherwise dequantized per call — exactly the values a GPU
  // kernel would produce per load. The packed panels hold the same cached
  // Half values in tile order, so when they apply the per-call
  // dequantization is skipped entirely. Every PreparedModel run has the
  // caches, so the per-call fallback serves only direct kernel calls without
  // them (the kernel tests): it takes heap vectors, and the arena reserves
  // nothing for it.
  const Half* w_packed = PackedSlice(aux.filters_packed_f16, oc_begin, k);
  const Half* w16 = nullptr;
  std::vector<Half> w16_own;
  if (aux.filters_f16 != nullptr) {
    w16 = aux.filters_f16 + oc_begin * k;
  } else if (w_packed == nullptr) {
    const uint8_t* wq = filters.Data<uint8_t>() + oc_begin * k;
    w16_own.resize(static_cast<size_t>((oc_end - oc_begin) * k));
    for (size_t i = 0; i < w16_own.size(); ++i) {
      w16_own[i] = Half(w_qp.Dequantize(wq[i]));
    }
    w16 = w16_own.data();
  }
  const Half* bias16 = nullptr;
  std::vector<Half> bias16_own;
  if (!bias.empty()) {
    if (aux.bias_f16 != nullptr) {
      bias16 = aux.bias_f16 + oc_begin;
    } else {
      const float* bp = bias.Data<float>() + oc_begin;
      bias16_own.resize(static_cast<size_t>(oc_end - oc_begin));
      for (size_t i = 0; i < bias16_own.size(); ++i) {
        bias16_own[i] = Half(bp[i]);
      }
      bias16 = bias16_own.data();
    }
  }

  // The dequantize+im2col producer: per-call buffers, unless the executor
  // staged the columns once for the whole node (cooperative slices would
  // otherwise redo this identically per slice).
  const Half* staged = aux.staged_cols;
  ScratchVec<Half> img16(aux.scratch,
                         staged != nullptr ? 0 : static_cast<size_t>(is.c * is.h * is.w));
  ScratchVec<Half> cols(aux.scratch,
                        staged != nullptr ? 0 : static_cast<size_t>(k * spatial));
  ScratchVec<Half> out16(aux.scratch, static_cast<size_t>((oc_end - oc_begin) * spatial));
  const int64_t img_elems = is.c * is.h * is.w;
  const int64_t out_elems = (oc_end - oc_begin) * spatial;
  const simd::GemmMicroKernels& mk = simd::ActiveGemmMicroKernels();
  for (int64_t ni = 0; ni < is.n; ++ni) {
    const Half* cols_ptr;
    if (staged != nullptr) {
      cols_ptr = staged + ni * k * spatial;
    } else {
      DequantizeIm2ColF16(input.Data<uint8_t>() + ni * img_elems, is, in_qp, p, img16.data(),
                          cols.data());
      cols_ptr = cols.data();
    }
    GemmF16(w16, cols_ptr, out16.data(), oc_end - oc_begin, spatial, k, bias16, p.relu,
            w_packed);
    // Requantize the F16 results back to the shared QUInt8 output buffer.
    uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, oc_begin, 0, 0);
    parallel::ParallelFor(0, out_elems, parallel::GrainForOps(1.0),
                          [&](int64_t b, int64_t e) {
                            mk.f16_to_qu8(out16.data() + b, e - b, out_qp.scale,
                                          out_qp.zero_point, out + b);
                          });
  }
}

const Half* Conv2DQU8ViaF16StageCols(const Tensor& input, const Shape& filter_shape,
                                     const Conv2DParams& p,
                                     memory::ScratchArena* arena) {
  if (arena == nullptr) {
    return nullptr;
  }
  assert(input.dtype() == DType::kQUInt8);
  const Shape& is = input.shape();
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  const int64_t k = filter_shape.c * filter_shape.h * filter_shape.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  const int64_t img_elems = is.c * is.h * is.w;
  const QuantParams in_qp{input.scale(), input.zero_point()};

  Half* cols = arena->AllocN<Half>(static_cast<size_t>(is.n * k * spatial));
  Half* img16 = arena->AllocN<Half>(static_cast<size_t>(img_elems));
  for (int64_t ni = 0; ni < is.n; ++ni) {
    DequantizeIm2ColF16(input.Data<uint8_t>() + ni * img_elems, is, in_qp, p, img16,
                        cols + ni * k * spatial);
  }
  return cols;
}

int64_t Conv2DViaF16StagedColsBytes(const Shape& input_shape, const Shape& filter_shape,
                                    const Conv2DParams& p) {
  const int out_h = p.OutH(static_cast<int>(input_shape.h));
  const int out_w = p.OutW(static_cast<int>(input_shape.w));
  const int64_t k = filter_shape.c * filter_shape.h * filter_shape.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  const int64_t img_elems = input_shape.c * input_shape.h * input_shape.w;
  return AlignUp64(input_shape.n * k * spatial * int64_t{sizeof(Half)}) +
         AlignUp64(img_elems * int64_t{sizeof(Half)});
}

namespace {

template <typename T, typename Acc>
void DepthwiseImpl(const Tensor& input, const Tensor& filters, const Tensor& bias,
                   const Conv2DParams& p, Tensor& output, int64_t c_begin, int64_t c_end,
                   T pad_value) {
  const Shape& is = input.shape();
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));
  const double ops_per_channel =
      static_cast<double>(out_h) * out_w * p.kernel_h * p.kernel_w;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    parallel::ParallelFor(c_begin, c_end, parallel::GrainForOps(ops_per_channel), [&](
                              int64_t cb, int64_t ce) {
      for (int64_t c = cb; c < ce; ++c) {
        const T* in_c = input.Data<T>() + is.Offset(ni, c, 0, 0);
        const T* w = filters.Data<T>() + c * p.kernel_h * p.kernel_w;
        const Acc b0 = bias.empty() ? Acc(0.0f) : Acc(bias.Data<T>()[c]);
        T* out = output.Data<T>() + output.shape().Offset(ni, c, 0, 0);
        for (int oh = 0; oh < out_h; ++oh) {
          for (int ow = 0; ow < out_w; ++ow) {
            Acc acc = b0;
            for (int kh = 0; kh < p.kernel_h; ++kh) {
              const int ih = oh * p.stride_h - p.pad_h + kh;
              for (int kw = 0; kw < p.kernel_w; ++kw) {
                const int iw = ow * p.stride_w - p.pad_w + kw;
                const T v = (ih < 0 || ih >= is.h || iw < 0 || iw >= is.w)
                                ? pad_value
                                : in_c[ih * is.w + iw];
                acc += Acc(v) * Acc(w[kh * p.kernel_w + kw]);
              }
            }
            if (p.relu && acc < Acc(0.0f)) {
              acc = Acc(0.0f);
            }
            out[oh * out_w + ow] = T(acc);
          }
        }
      }
    });
  }
}

}  // namespace

void DepthwiseConv2DF32(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin, int64_t c_end) {
  assert(input.dtype() == DType::kF32);
  c_end = ResolveEnd(c_end, input.shape().c);
  DepthwiseImpl<float, float>(input, filters, bias, p, output, c_begin, c_end, 0.0f);
}

void DepthwiseConv2DF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin, int64_t c_end) {
  assert(input.dtype() == DType::kF16);
  c_end = ResolveEnd(c_end, input.shape().c);
  DepthwiseImpl<Half, Half>(input, filters, bias, p, output, c_begin, c_end, Half(0.0f));
}

void DepthwiseConv2DQU8(const Tensor& input, const Tensor& filters, const Tensor& bias,
                        const Conv2DParams& p, Tensor& output, int64_t c_begin, int64_t c_end,
                        const ConvAux& aux) {
  assert(input.dtype() == DType::kQUInt8 && output.dtype() == DType::kQUInt8);
  const Shape& is = input.shape();
  c_end = ResolveEnd(c_end, is.c);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));

  const RequantScale rs =
      aux.requant != nullptr
          ? *aux.requant
          : ComputeRequantScale(static_cast<double>(input.scale()) *
                                static_cast<double>(filters.scale()) /
                                static_cast<double>(output.scale()));
  const int32_t in_zp = input.zero_point();
  const int32_t w_zp = filters.zero_point();
  const int32_t out_zp = output.zero_point();

  const double ops_per_channel =
      static_cast<double>(out_h) * out_w * p.kernel_h * p.kernel_w;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    parallel::ParallelFor(c_begin, c_end, parallel::GrainForOps(ops_per_channel), [&](
                              int64_t cb, int64_t ce) {
      for (int64_t c = cb; c < ce; ++c) {
        const uint8_t* in_c = input.Data<uint8_t>() + is.Offset(ni, c, 0, 0);
        const uint8_t* w = filters.Data<uint8_t>() + c * p.kernel_h * p.kernel_w;
        const int32_t b0 = bias.empty() ? 0 : bias.Data<int32_t>()[c];
        uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, c, 0, 0);
        for (int oh = 0; oh < out_h; ++oh) {
          for (int ow = 0; ow < out_w; ++ow) {
            int32_t acc = b0;
            for (int kh = 0; kh < p.kernel_h; ++kh) {
              const int ih = oh * p.stride_h - p.pad_h + kh;
              for (int kw = 0; kw < p.kernel_w; ++kw) {
                const int iw = ow * p.stride_w - p.pad_w + kw;
                // Padding contributes (in_zp - in_zp) = 0 exactly.
                const int32_t v = (ih < 0 || ih >= is.h || iw < 0 || iw >= is.w)
                                      ? in_zp
                                      : in_c[ih * is.w + iw];
                acc += (v - in_zp) * (static_cast<int32_t>(w[kh * p.kernel_w + kw]) - w_zp);
              }
            }
            uint8_t q = RequantizeOne(acc, rs, out_zp);
            if (p.relu && q < out_zp) {
              q = static_cast<uint8_t>(out_zp);
            }
            out[oh * out_w + ow] = q;
          }
        }
      }
    });
  }
}

void DepthwiseConv2DQU8ViaF16(const Tensor& input, const Tensor& filters, const Tensor& bias,
                              const Conv2DParams& p, Tensor& output, int64_t c_begin,
                              int64_t c_end, const ConvAux& aux) {
  assert(input.dtype() == DType::kQUInt8 && output.dtype() == DType::kQUInt8);
  assert(bias.empty() || bias.dtype() == DType::kF32);
  const Shape& is = input.shape();
  c_end = ResolveEnd(c_end, is.c);
  const int out_h = p.OutH(static_cast<int>(is.h));
  const int out_w = p.OutW(static_cast<int>(is.w));

  const QuantParams in_qp{input.scale(), input.zero_point()};
  const QuantParams w_qp{filters.scale(), filters.zero_point()};
  const QuantParams out_qp{output.scale(), output.zero_point()};

  const double ops_per_channel =
      static_cast<double>(out_h) * out_w * p.kernel_h * p.kernel_w;
  for (int64_t ni = 0; ni < is.n; ++ni) {
    parallel::ParallelFor(c_begin, c_end, parallel::GrainForOps(ops_per_channel), [&](
                              int64_t cb, int64_t ce) {
      for (int64_t c = cb; c < ce; ++c) {
        const uint8_t* in_c = input.Data<uint8_t>() + is.Offset(ni, c, 0, 0);
        const int64_t ksize = int64_t{p.kernel_h} * p.kernel_w;
        const uint8_t* w = filters.Data<uint8_t>() + c * ksize;
        // Cached dequantized weights/bias produce the exact same Half values
        // as the inline conversion (they were built with the same
        // expressions at prepare time).
        const Half* w16 = aux.filters_f16 != nullptr ? aux.filters_f16 + c * ksize : nullptr;
        const Half b0 = bias.empty()
                            ? Half(0.0f)
                            : (aux.bias_f16 != nullptr ? aux.bias_f16[c]
                                                       : Half(bias.Data<float>()[c]));
        uint8_t* out = output.Data<uint8_t>() + output.shape().Offset(ni, c, 0, 0);
        for (int oh = 0; oh < out_h; ++oh) {
          for (int ow = 0; ow < out_w; ++ow) {
            Half acc = b0;
            for (int kh = 0; kh < p.kernel_h; ++kh) {
              const int ih = oh * p.stride_h - p.pad_h + kh;
              for (int kw = 0; kw < p.kernel_w; ++kw) {
                const int iw = ow * p.stride_w - p.pad_w + kw;
                const float v = (ih < 0 || ih >= is.h || iw < 0 || iw >= is.w)
                                    ? 0.0f
                                    : in_qp.Dequantize(in_c[ih * is.w + iw]);
                const Half wv = w16 != nullptr
                                    ? w16[kh * p.kernel_w + kw]
                                    : Half(w_qp.Dequantize(w[kh * p.kernel_w + kw]));
                acc += Half(v) * wv;
              }
            }
            float r = acc.ToFloat();
            if (p.relu) {
              r = std::max(r, 0.0f);
            }
            out[oh * out_w + ow] = out_qp.Quantize(r);
          }
        }
      }
    });
  }
}

int64_t Conv2DScratchBytes(DType storage, DType compute, const Shape& input_shape,
                           const Shape& filter_shape, const Conv2DParams& p,
                           bool staged_cols) {
  const int out_h = p.OutH(static_cast<int>(input_shape.h));
  const int out_w = p.OutW(static_cast<int>(input_shape.w));
  const int64_t k = filter_shape.c * filter_shape.h * filter_shape.w;
  const int64_t spatial = int64_t{out_h} * out_w;
  const int64_t oc = filter_shape.n;
  switch (storage) {
    case DType::kF32:
      return AlignUp64(k * spatial * int64_t{sizeof(float)});
    case DType::kF16:
      return AlignUp64(k * spatial * int64_t{sizeof(Half)});
    case DType::kQUInt8: {
      if (compute == DType::kF16) {
        // img16 + cols + out16. With staged_cols the image and column buffers
        // come from ConvAux::staged_cols instead.
        const int64_t img_elems = input_shape.c * input_shape.h * input_shape.w;
        const int64_t per_call = staged_cols
                                     ? 0
                                     : AlignUp64(img_elems * int64_t{sizeof(Half)}) +
                                           AlignUp64(k * spatial * int64_t{sizeof(Half)});
        return per_call + AlignUp64(oc * spatial * int64_t{sizeof(Half)});
      }
      return AlignUp64(k * spatial);
    }
    case DType::kInt32:
      break;
  }
  return 0;
}

AccessSpec Conv2DAccessSpec(DType storage, DType compute, bool per_channel,
                            const Shape& input_shape, const Shape& filter_shape,
                            const Conv2DParams& p, const Shape& out_shape, int64_t oc_begin,
                            int64_t oc_end) {
  oc_end = ResolveEnd(oc_end, out_shape.c);
  const int64_t k = filter_shape.c * filter_shape.h * filter_shape.w;
  const int64_t spatial = int64_t{out_shape.h} * out_shape.w;
  const int64_t m = oc_end - oc_begin;
  const int64_t out_elem = DTypeSize(storage);

  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = ChannelSliceRanges(out_shape, out_elem, oc_begin, oc_end);
  // Dense conv/FC reads every input channel (im2col unfolds the full image).
  spec.reads.push_back(
      {AccessRange{0, input_shape.NumElements() * DTypeSize(storage)}});
  spec.scratch_bytes = Conv2DScratchBytes(storage, compute, input_shape, filter_shape, p);

  if (storage == DType::kF32 || storage == DType::kF16) {
    // Im2Col fills scratch serially, then the GEMM row loop writes the output.
    LoopSpec gemm = GemmWriteLoopSpec(storage, m, spatial, k, 0);
    gemm.bases.clear();
    for (int64_t ni = 0; ni < out_shape.n; ++ni) {
      gemm.bases.push_back(out_shape.Offset(ni, oc_begin, 0, 0) * out_elem);
    }
    spec.loops.push_back(gemm);
  } else if (compute == DType::kF16) {
    // Via-F16 GPU path: the image-dequantize loop and the F16 GEMM write
    // scratch (img16 / out16); only the final requantize loop touches the
    // output tensor.
    LoopSpec img =
        ElementwiseLoopSpec(input_shape.c * input_shape.h * input_shape.w,
                            int64_t{sizeof(Half)}, 0);
    img.writes_scratch = true;
    spec.loops.push_back(img);
    LoopSpec gemm = GemmWriteLoopSpec(DType::kF16, m, spatial, k, 0);
    gemm.writes_scratch = true;
    spec.loops.push_back(gemm);
    LoopSpec requant = ElementwiseLoopSpec(m * spatial, 1, 0);
    requant.bases.clear();
    for (int64_t ni = 0; ni < out_shape.n; ++ni) {
      requant.bases.push_back(out_shape.Offset(ni, oc_begin, 0, 0));
    }
    spec.loops.push_back(requant);
  } else if (per_channel) {
    // Conv2DQU8PerChannel iterates absolute output channels with the
    // row-tile-aligned grain; channel oc writes its spatial row.
    LoopSpec loop;
    loop.begin = oc_begin;
    loop.end = oc_end;
    loop.grain = RowTileGrain(static_cast<double>(k) * static_cast<double>(spatial));
    loop.stride_bytes = spatial;
    loop.iter_bytes = spatial;
    loop.bases = BatchBases(out_shape, 1);
    spec.loops.push_back(loop);
  } else {
    LoopSpec gemm = GemmWriteLoopSpec(DType::kQUInt8, m, spatial, k, 0);
    gemm.bases.clear();
    for (int64_t ni = 0; ni < out_shape.n; ++ni) {
      gemm.bases.push_back(out_shape.Offset(ni, oc_begin, 0, 0));
    }
    spec.loops.push_back(gemm);
  }
  return spec;
}

AccessSpec DepthwiseConv2DAccessSpec(DType storage, const Shape& input_shape,
                                     const Conv2DParams& p, const Shape& out_shape,
                                     int64_t c_begin, int64_t c_end) {
  c_end = ResolveEnd(c_end, out_shape.c);
  const int64_t elem = DTypeSize(storage);
  AccessSpec spec;
  spec.has_spec = true;
  spec.writes = ChannelSliceRanges(out_shape, elem, c_begin, c_end);
  spec.reads.push_back(ChannelSliceRanges(input_shape, elem, c_begin, c_end));
  LoopSpec loop;
  loop.begin = c_begin;
  loop.end = c_end;
  loop.grain = parallel::GrainForOps(static_cast<double>(out_shape.h) *
                                     static_cast<double>(out_shape.w) * p.kernel_h *
                                     p.kernel_w);
  loop.stride_bytes = out_shape.h * out_shape.w * elem;
  loop.iter_bytes = out_shape.h * out_shape.w * elem;
  loop.bases = BatchBases(out_shape, elem);
  spec.loops.push_back(loop);
  return spec;
}

}  // namespace ulayer
