// Kernel microbenchmark: the dispatched SIMD tier vs the scalar table
// (DESIGN.md Sections 9 and 13).
//
// Measures GemmQU8 / GemmF32 and the QUInt8 conv paths at representative
// layer shapes (AlexNet conv2 and fc7, VGG-16 conv3_1, GoogLeNet inception
// 3a and 4a, ResNet-18 layer3) on a single thread. Each case's call — the
// same operands, prepare-time caches and scratch arena — is timed twice:
// with dispatch forced to the scalar micro-kernel table, the arithmetic
// contract every tier must reproduce, and on the active tier. Reports ns/op,
// effective GB/s and speedup, writes a machine-readable JSON summary, and
// exits non-zero if the active tier fails to reproduce the scalar table's
// output bytes.
//
// Flags:
//   --quick       1 trial x 1 iteration per case (CI smoke mode)
//   --out PATH    JSON output path (default: BENCH_kernels.json)

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "kernels/conv.h"
#include "kernels/gemm.h"
#include "kernels/pack.h"
#include "kernels/simd.h"
#include "memory/arena.h"
#include "parallel/thread_pool.h"
#include "quant/half.h"
#include "quant/quantize.h"
#include "tensor/tensor.h"

namespace ulayer {
namespace {

struct ConvCase {
  const char* name;
  int64_t ic, hw, oc;
  int kernel, pad;
  // FC layer: row-major filters, as PreparedModel keeps them (it never packs
  // FC filters), so n == 1 takes the GEMV slots.
  bool fc;
  // Also time the via-F16 (emulated GPU) conv path.
  bool via_f16;
};

// Representative layers from the paper's workload set. The last three put
// the remainder blocks and the GEMV slots on the clock.
constexpr ConvCase kCases[] = {
    {"alexnet_conv2", 96, 31, 256, 5, 0, false, false},         // k=2400, spatial=729
    {"vgg16_conv3_1", 128, 56, 256, 3, 1, false, false},        // k=1152, spatial=3136
    {"googlenet_3a_3x3", 96, 28, 128, 3, 1, false, true},       // k=864,  spatial=784
    {"googlenet_4a_3x3", 96, 14, 208, 3, 1, false, true},       // spatial=196: ragged
    {"resnet18_layer3_3x3", 256, 14, 256, 3, 1, false, false},  // k=2304: paired-k QU8
    {"alexnet_fc7", 4096, 1, 4096, 1, 0, true, true},           // n=1: the GEMVs
};

// Quantized conv operands plus every prepare-time cache, built the same way
// PreparedModel builds them.
struct Operands {
  Conv2DParams p;
  Tensor in_q, w_q, bias_i32, bias_f32;
  QuantParams out_qp;
  RequantScale rs;
  std::vector<int32_t> rowsum;
  std::vector<Half> w16, b16;
  std::vector<uint8_t> w_packed_q;  // Packed filter panels (kernels/pack.h),
  std::vector<Half> w_packed_16;    // as PreparedModel caches them; empty for FC.
  int64_t m, n, k;

  explicit Operands(const ConvCase& c, uint64_t seed) {
    p.kernel_h = p.kernel_w = c.kernel;
    p.pad_h = p.pad_w = c.pad;
    p.relu = true;
    Tensor in(Shape(1, c.ic, c.hw, c.hw), DType::kF32);
    Tensor w(Shape(c.oc, c.ic, c.kernel, c.kernel), DType::kF32);
    bias_f32 = Tensor(Shape(1, c.oc, 1, 1), DType::kF32);
    FillUniform(in, seed, -1.0f, 1.0f);
    FillUniform(w, seed + 1, -0.4f, 0.4f);
    FillUniform(bias_f32, seed + 2, -0.2f, 0.2f);
    const QuantParams in_qp = ChooseQuantParams(-1.0f, 1.0f);
    const QuantParams w_qp = ChooseQuantParams(-0.4f, 0.4f);
    in_q = QuantizeTensor(in, in_qp);
    w_q = QuantizeTensor(w, w_qp);
    bias_i32 = Tensor(bias_f32.shape(), DType::kInt32);
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      bias_i32.Data<int32_t>()[i] = static_cast<int32_t>(
          std::lround(bias_f32.Data<float>()[i] / (in_qp.scale * w_qp.scale)));
    }
    out_qp = ChooseQuantParams(-8.0f, 8.0f);
    rs = ComputeRequantScale(static_cast<double>(in_qp.scale) *
                             static_cast<double>(w_qp.scale) /
                             static_cast<double>(out_qp.scale));
    m = c.oc;
    k = int64_t{c.ic} * c.kernel * c.kernel;
    n = int64_t{p.OutH(static_cast<int>(c.hw))} * p.OutW(static_cast<int>(c.hw));
    rowsum.resize(static_cast<size_t>(m));
    for (int64_t oc = 0; oc < m; ++oc) {
      int32_t raw = 0;
      for (int64_t kk = 0; kk < k; ++kk) {
        raw += static_cast<int32_t>(w_q.Data<uint8_t>()[oc * k + kk]);
      }
      rowsum[static_cast<size_t>(oc)] = raw;
    }
    w16.resize(static_cast<size_t>(w_q.NumElements()));
    for (int64_t i = 0; i < w_q.NumElements(); ++i) {
      w16[static_cast<size_t>(i)] = Half(w_qp.Dequantize(w_q.Data<uint8_t>()[i]));
    }
    b16.resize(static_cast<size_t>(bias_f32.NumElements()));
    for (int64_t i = 0; i < bias_f32.NumElements(); ++i) {
      b16[static_cast<size_t>(i)] = Half(bias_f32.Data<float>()[i]);
    }
    if (!c.fc) {
      w_packed_q.resize(static_cast<size_t>(PackedPanelElems(m, k)));
      PackRowPanels(w_q.Data<uint8_t>(), m, k, w_packed_q.data());
      w_packed_16.resize(static_cast<size_t>(PackedPanelElems(m, k)));
      PackRowPanels(w16.data(), m, k, w_packed_16.data());
    }
  }

  const uint8_t* PackedQ() const { return w_packed_q.empty() ? nullptr : w_packed_q.data(); }
  const Half* Packed16() const { return w_packed_16.empty() ? nullptr : w_packed_16.data(); }

  Tensor MakeOut() const {
    const Shape& is = in_q.shape();
    Tensor out(Shape(1, m, p.OutH(static_cast<int>(is.h)), p.OutW(static_cast<int>(is.w))),
               DType::kQUInt8);
    out.set_quant_params(out_qp.scale, out_qp.zero_point);
    return out;
  }

  ConvAux IntAux(memory::ScratchArena* arena) const {
    ConvAux aux;
    aux.scratch = arena;
    aux.requant = &rs;
    aux.filter_rowsum = rowsum.data();
    aux.filters_packed_qu8 = PackedQ();
    return aux;
  }

  ConvAux F16Aux(memory::ScratchArena* arena) const {
    ConvAux aux;
    aux.scratch = arena;
    aux.filters_f16 = w16.data();
    aux.bias_f16 = b16.data();
    aux.filters_packed_f16 = Packed16();
    return aux;
  }
};

// Minimum wall time of `iters` consecutive calls across `trials` timed runs
// (one untimed warmup), in ns per call.
double BestNsPerCall(const std::function<void()>& fn, int iters, int trials) {
  fn();
  double best = 1e30;
  for (int t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) {
      fn();
    }
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
        iters;
    best = std::min(best, ns);
  }
  return best;
}

struct Result {
  std::string name;
  int64_t m, n, k;
  int64_t bytes;  // Raw bytes moved per call — gbps without precision loss.
  double scalar_ns, new_ns, speedup, gbps;
  bool identical;
};

// Times `fn`, which overwrites the `out_bytes` bytes at `out`, on the scalar
// table and then on the active tier, and compares the two outputs. Before
// the active tier runs, `out` is poisoned with the complement of the scalar
// bytes, so a byte the tier leaves unwritten cannot pass.
Result TimeBothTiers(const std::function<void()>& fn, void* out, size_t out_bytes, int iters,
                     int trials) {
  Result r;
  simd::ForceIsa(simd::Isa::kScalar);
  r.scalar_ns = BestNsPerCall(fn, iters, trials);
  simd::ResetForcedIsa();
  std::vector<uint8_t> want(out_bytes);
  std::memcpy(want.data(), out, out_bytes);
  auto* got = static_cast<uint8_t*>(out);
  for (size_t i = 0; i < out_bytes; ++i) {
    got[i] = static_cast<uint8_t>(~want[i]);
  }
  r.new_ns = BestNsPerCall(fn, iters, trials);
  r.identical = std::memcmp(want.data(), out, out_bytes) == 0;
  return r;
}

void FillBytes(std::vector<uint8_t>& v, uint64_t seed) {
  uint64_t s = seed * 6364136223846793005ull + 1442695040888963407ull;
  for (auto& b : v) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    b = static_cast<uint8_t>(s >> 56);
  }
}

}  // namespace
}  // namespace ulayer

int main(int argc, char** argv) {
  using namespace ulayer;
  bool quick = false;
  std::string out_path = "BENCH_kernels.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out PATH]\n", argv[0]);
      return 2;
    }
  }
  // Single-thread: the kernels under test are the per-core primitives; thread
  // scaling is benchmarked elsewhere (fig05/fig16).
  parallel::SetCpuThreads(1);
  const char* isa = simd::IsaName(simd::ActiveIsa());
  std::printf("simd isa: %s\n", isa);

  // Quick mode still takes the min of two trials: single-shot timings on a
  // busy CI machine are too noisy to gate on.
  const int iters = quick ? 1 : 3;
  const int trials = quick ? 2 : 3;
  std::vector<Result> results;

  const auto measure = [&](const std::string& name, int64_t m, int64_t n, int64_t k,
                           int64_t bytes, const std::function<void()>& fn, void* out,
                           size_t out_bytes, int case_iters, int case_trials) {
    Result r = TimeBothTiers(fn, out, out_bytes, case_iters, case_trials);
    r.name = name;
    r.m = m;
    r.n = n;
    r.k = k;
    r.bytes = bytes;
    r.speedup = r.scalar_ns / r.new_ns;
    r.gbps = static_cast<double>(bytes) / r.new_ns;  // bytes/ns == GB/s
    results.push_back(r);
    std::printf("%-28s m=%-4lld n=%-5lld k=%-5lld  scalar %10.0f ns  %s %10.0f ns  "
                "speedup %5.2fx  %8.4g GB/s  %s\n",
                name.c_str(), static_cast<long long>(m), static_cast<long long>(n),
                static_cast<long long>(k), r.scalar_ns, isa, r.new_ns, r.speedup, r.gbps,
                r.identical ? "bytes-identical" : "MISMATCH");
  };

  for (const ConvCase& c : kCases) {
    const Operands ops(c, 1000 + static_cast<uint64_t>(&c - kCases));
    const int64_t m = ops.m, n = ops.n, k = ops.k;

    // --- GemmQU8 with the cached row sums and packed panels.
    {
      std::vector<uint8_t> b(static_cast<size_t>(k * n));
      FillBytes(b, 77);
      std::vector<uint8_t> out(static_cast<size_t>(m * n));
      const uint8_t* a = ops.w_q.Data<uint8_t>();
      const int32_t a_zp = ops.w_q.zero_point();
      const int32_t b_zp = 5, c_zp = 3;
      const int32_t* bias = ops.bias_i32.Data<int32_t>();
      measure(
          std::string("gemm_qu8_") + c.name, m, n, k, m * k + k * n + m * n,
          [&] {
            GemmQU8(a, a_zp, b.data(), b_zp, out.data(), c_zp, ops.rs, m, n, k, bias, true,
                    ops.rowsum.data(), ops.PackedQ());
          },
          out.data(), out.size(), iters, trials);
    }

    // --- GemmF32, column-blocked over packed panels.
    {
      std::vector<float> a(static_cast<size_t>(m * k)), b(static_cast<size_t>(k * n));
      std::vector<float> out(static_cast<size_t>(m * n));
      Tensor af(Shape(1, 1, m, k), DType::kF32), bf(Shape(1, 1, k, n), DType::kF32);
      FillUniform(af, 31, -1.0f, 1.0f);
      FillUniform(bf, 32, -1.0f, 1.0f);
      std::memcpy(a.data(), af.Data<float>(), a.size() * sizeof(float));
      std::memcpy(b.data(), bf.Data<float>(), b.size() * sizeof(float));
      std::vector<float> a_packed(c.fc ? 0 : static_cast<size_t>(PackedPanelElems(m, k)));
      if (!c.fc) {
        PackRowPanels(a.data(), m, k, a_packed.data());
      }
      measure(
          std::string("gemm_f32_") + c.name, m, n, k, (m * k + k * n + m * n) * 4,
          [&] {
            GemmF32(a.data(), b.data(), out.data(), m, n, k, nullptr, true,
                    c.fc ? nullptr : a_packed.data());
          },
          out.data(), out.size() * sizeof(float), iters, trials);
    }

    // --- Conv2DQU8 end to end, with the prepare-time caches and a scratch arena.
    {
      Tensor out = ops.MakeOut();
      memory::ScratchArena arena(static_cast<size_t>(
          Conv2DScratchBytes(DType::kQUInt8, DType::kQUInt8, ops.in_q.shape(), ops.w_q.shape(),
                             ops.p)));
      const ConvAux aux = ops.IntAux(&arena);
      measure(
          std::string("conv_qu8_") + c.name, m, n, k, m * k + k * n + m * n,
          [&] {
            arena.Reset();
            Conv2DQU8(ops.in_q, ops.w_q, ops.bias_i32, ops.p, out, 0, -1, aux);
          },
          out.raw(), static_cast<size_t>(out.SizeBytes()), iters, trials);
    }
  }

  // --- Conv2DQU8ViaF16 (the GPU-emulation path), with the prepare-time F16
  // caches. The scalar table computes every F16 step in software `Half`, so
  // these cases run one iteration per trial.
  for (const ConvCase& c : kCases) {
    if (!c.via_f16) {
      continue;
    }
    const Operands ops(c, 2000 + static_cast<uint64_t>(&c - kCases));
    Tensor out = ops.MakeOut();
    memory::ScratchArena arena(static_cast<size_t>(
        Conv2DScratchBytes(DType::kQUInt8, DType::kF16, ops.in_q.shape(), ops.w_q.shape(),
                           ops.p)));
    const ConvAux aux = ops.F16Aux(&arena);
    measure(
        std::string("conv_qu8_via_f16_") + c.name, ops.m, ops.n, ops.k,
        ops.m * ops.k + ops.k * ops.n + ops.m * ops.n,
        [&] {
          arena.Reset();
          Conv2DQU8ViaF16(ops.in_q, ops.w_q, ops.bias_f32, ops.p, out, 0, -1, aux);
        },
        out.raw(), static_cast<size_t>(out.SizeBytes()), 1, quick ? 1 : 2);
  }

  // JSON summary.
  FILE* f = std::fopen(out_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", out_path.c_str());
    return 2;
  }
  std::fprintf(f, "{\n  \"schema\": \"ulayer-kernel-bench-v3\",\n  \"isa\": \"%s\",\n"
                  "  \"quick\": %s,\n  \"threads\": 1,\n  \"results\": [\n",
               isa, quick ? "true" : "false");
  for (size_t i = 0; i < results.size(); ++i) {
    const Result& r = results[i];
    // %.6g for gbps: %.3f truncated slow (software-F16) kernels to 0.000.
    // Each row repeats the run provenance (isa/quick/threads) so rows stay
    // self-describing when results from different runs are merged.
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
                 "\"bytes\": %lld, \"scalar_ns\": %.0f, \"new_ns\": %.0f, "
                 "\"speedup\": %.3f, \"gbps\": %.6g, \"bytes_identical\": %s, "
                 "\"isa\": \"%s\", \"quick\": %s, \"threads\": 1}%s\n",
                 r.name.c_str(), static_cast<long long>(r.m), static_cast<long long>(r.n),
                 static_cast<long long>(r.k), static_cast<long long>(r.bytes), r.scalar_ns,
                 r.new_ns, r.speedup, r.gbps, r.identical ? "true" : "false", isa,
                 quick ? "true" : "false", i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out_path.c_str());

  for (const Result& r : results) {
    if (!r.identical) {
      std::fprintf(stderr, "FAIL: %s output on the %s tier differs from the scalar table\n",
                   r.name.c_str(), isa);
      return 1;
    }
  }
  return 0;
}
