// ExecConfig: how tensors are stored and how each processor computes.
//
// Processor-friendly quantization (paper Section 4.2) is expressed as one
// configuration: storage QUInt8, CPU computes QUInt8, GPU computes F16.
#pragma once

#include "tensor/dtype.h"
#include "soc/spec.h"

namespace ulayer {

struct ExecConfig {
  // Storage dtype of every network tensor (activations and filters) — this
  // is what memory traffic is priced at.
  DType storage = DType::kF32;
  // Arithmetic dtype per processor. With QUInt8 storage, a processor whose
  // compute dtype is kF16 converts values on the fly (the GPU path).
  DType cpu_compute = DType::kF32;
  DType gpu_compute = DType::kF32;

  // Implementation optimizations of Section 6 (both on for real ulayer;
  // switchable for the overhead-ablation bench).
  bool zero_copy = true;    // Shared CPU-GPU memory via CL_MEM_ALLOC_HOST_PTR.
  bool async_issue = true;  // Overlap GPU command issuing with CPU-side work.

  // Extension: quantize conv/FC filters per output channel instead of per
  // tensor (QUInt8 storage only). Improves accuracy at identical speed; see
  // bench/per_channel_quant.
  bool per_channel_weights = false;

  // CPU threads used by the functional kernels (src/parallel) and assumed by
  // the simulated CPU kernel-body time. 0 = automatic: the ULAYER_CPU_THREADS
  // environment override when set, otherwise the host's hardware concurrency
  // (functional side) and the full CPU cluster (timing side). 1 restores the
  // single-threaded behavior; outputs are byte-identical for any value (see
  // DESIGN.md "Parallel execution model").
  int cpu_threads = 0;

  // Run the Graph/Plan static verifiers (src/verify) at the Runtime and
  // Executor entry points; invariant violations throw VerifyError instead of
  // silently producing wrong latencies or garbage tensors. The passes are
  // O(nodes) — cheap next to any real run — so they stay on by default;
  // latency-measurement loops may switch them off.
  bool verify = true;

  // Record a structured RunTrace (src/trace, DESIGN.md Section 11): typed
  // spans with overhead/fault attribution, queue-depth samples and the
  // injector's event log, surfaced on RunResult::run_trace and exportable as
  // Chrome trace-event JSON. The ULAYER_TRACE environment variable (any
  // value but "0") enables it without touching the config. Off by default:
  // recording only reads the timelines, so the simulated schedule is
  // bit-identical either way, but spans cost memory and time to collect.
  bool trace = false;

  // Static memory-access analysis (src/analysis, DESIGN.md §12): at the first
  // functional Run() of each plan, prove the A5xx/A6xx/A7xx invariants of the
  // packed pool layout against the kernels' declared AccessSpecs and throw
  // VerifyError on violation. Prepare-time only — the result is cached per
  // plan fingerprint, so steady-state runs stay allocation-free and
  // bit-identical. On by default in debug/sanitizer builds, off in release.
#ifdef NDEBUG
  bool analyze = false;
#else
  bool analyze = true;
#endif

  // --- Fault recovery policy (DESIGN.md Section 10) -------------------------
  // A failed GPU enqueue is retried this many times with exponential backoff
  // before the executor falls back to the CPU.
  int fault_max_retries = 2;
  // Base backoff before the first retry; doubles per attempt. Charged to the
  // CPU timeline (the host thread owns the retry loop).
  double fault_backoff_us = 25.0;
  // After retries are exhausted, re-execute the failed GPU channel slice on
  // the CPU (paying a sync plus the CPU-flavor kernel time). When off, an
  // unrecovered GPU fault aborts the run with ulayer::Error(kFault).
  bool fault_cpu_fallback = true;

  DType ComputeFor(ProcKind k) const { return k == ProcKind::kCpu ? cpu_compute : gpu_compute; }

  // --- Common configurations ---
  // Everything in F32 (the mobile-framework default).
  static ExecConfig AllF32() { return ExecConfig{}; }
  // Everything in F16.
  static ExecConfig AllF16() {
    return ExecConfig{DType::kF16, DType::kF16, DType::kF16, true, true};
  }
  // Everything in QUInt8 (TFLite-style; both processors run integer math).
  static ExecConfig AllQU8() {
    return ExecConfig{DType::kQUInt8, DType::kQUInt8, DType::kQUInt8, true, true};
  }
  // Processor-friendly quantization: QUInt8 storage, CPU integer math,
  // GPU F16 math (Section 4.2).
  static ExecConfig ProcessorFriendly() {
    return ExecConfig{DType::kQUInt8, DType::kQUInt8, DType::kF16, true, true};
  }
};

}  // namespace ulayer
