#!/usr/bin/env bash
# CI pipeline: warnings-as-errors build + tier-1 tests, a kernel-benchmark
# smoke run (regenerates BENCH_kernels.json and verifies the dispatched SIMD
# tier reproduces the scalar table's bytes), a forced-scalar rerun of the
# kernel and analysis suites (ULAYER_SIMD=scalar, exercising the scalar
# micro-kernels and dispatch fallback) and a forced-AVX2 rerun of the kernel
# and whole-model suites plus the kernel-benchmark smoke, ASan/UBSan test
# run, a TSan run of the threaded kernel/integration tests with a
# multi-thread CPU budget, a static memory-access analysis stage
# (ulayer_verify --analyze across the full zoo x config x partition-plan
# matrix, which must report zero A-series
# diagnostics), a fault-injection stage (fault_test plus the committed
# scripts/ci_faults.spec driven through ULAYER_FAULTS, under both
# sanitizers), a serving-layer stage (serving_bench --quick regenerating
# BENCH_serving.json under ASan, plus a cross-thread-count determinism diff
# of the ulayer_verify --serve-smoke batch/completion logs), an observability
# stage (traced runs exported as Chrome trace JSON, checked against the T4xx
# trace invariants, metrics written to BENCH_trace.json), an adaptation-loop
# stage (adapt_test under ASan and TSan, the committed scripts/ci_adapt.spec and
# scripts/ci_adapt_severe.spec throttle ramps driven through ulayer_verify
# --adapt with the output diffed byte-identical across CPU thread budgets,
# and adapt_bench --quick regenerating BENCH_adapt.json), a clang-format
# check and
# clang-tidy over src/, bench/
# and tools/ (both skipped with a notice when the binary is not installed —
# the reference container ships gcc only).
#
# Usage: scripts/ci.sh [--skip-sanitize] [--skip-tidy]
set -euo pipefail
cd "$(dirname "$0")/.."

SKIP_SANITIZE=0
SKIP_TIDY=0
for arg in "$@"; do
  case "$arg" in
    --skip-sanitize) SKIP_SANITIZE=1 ;;
    --skip-tidy) SKIP_TIDY=1 ;;
    *) echo "unknown argument: $arg" >&2; exit 2 ;;
  esac
done

JOBS="$(nproc 2>/dev/null || echo 4)"

echo "==> [1/12] warnings-as-errors build + tier-1 tests"
cmake -B build-werror -S . -DULAYER_WERROR=ON >/dev/null
cmake --build build-werror -j "$JOBS"
ctest --test-dir build-werror --output-on-failure -j "$JOBS"

echo "==> [2/12] kernel benchmark smoke (dispatched-vs-scalar byte identity)"
# Times every case on the scalar micro-kernel table and on the dispatched
# tier, and fails if their output bytes differ; --quick keeps it to one
# iteration per case.
./build-werror/bench/kernel_bench --quick --out BENCH_kernels.json

echo "==> [3/12] forced-ISA runs (ULAYER_SIMD=scalar and avx2 dispatch checks)"
# Re-runs the kernel and analysis suites, and arena_test's golden output
# digests, with SIMD dispatch forced to the scalar micro-kernels. The QU8/F32
# paths are bit-exact across ISAs by contract, so everything that passed
# stage [1] must pass unchanged; this catches scalar-reference and
# dispatch-table regressions that the best-tier-only stage [1] would hide,
# and runs whole models on the scalar tier an ARM or pre-AVX2 host would
# pick. Where the CPU has AVX-512 FP16, auto dispatch picks the avx512 tier,
# so the kernel and whole-model suites and the benchmark smoke run once more
# on the AVX2 table (elsewhere avx2 is already the auto tier, or falls back
# to the best supported one).
ULAYER_SIMD=scalar ctest --test-dir build-werror --output-on-failure -j "$JOBS" \
  -R 'gemm_test|conv_test|arena_test|im2col_test|analysis_test|integration_test'
ULAYER_SIMD=avx2 ctest --test-dir build-werror --output-on-failure -j "$JOBS" \
  -R 'gemm_test|conv_test|arena_test|integration_test'
ULAYER_SIMD=avx2 ./build-werror/bench/kernel_bench --quick \
  --out BENCH_kernels_avx2.json >/dev/null
rm -f BENCH_kernels_avx2.json

echo "==> [4/12] static memory-access analysis: zoo x config x plan matrix"
# The A5xx/A6xx/A7xx proofs must hold for every model, quantization config
# and partition strategy; ulayer_verify exits 1 on any A-series diagnostic.
for model in lenet5 alexnet vgg16 googlenet squeezenet mobilenet resnet18 resnet50 inceptionv3; do
  for config in pf f32; do
    for plan_flags in "" "--single cpu" "--single gpu" "--l2p"; do
      # shellcheck disable=SC2086
      ./build-werror/tools/ulayer_verify --model "$model" --config "$config" \
        $plan_flags --analyze >/dev/null
    done
  done
done
echo "analyzer matrix clean (9 models x 2 configs x 4 plans)"
if [ "$SKIP_SANITIZE" -eq 0 ]; then
  echo "==> [5/12] ASan + UBSan build + tests"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DULAYER_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$JOBS"
  # halt_on_error is implied by -fno-sanitize-recover=all; detect leaks too.
  # A multi-thread CPU budget exercises the pool handoffs (and the arena /
  # activation-pool sharing across workers) under ASan even on 1-core CI.
  ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

  echo "==> [6/12] TSan build + threaded kernel/integration tests"
  # TSan is incompatible with ASan, hence the separate build. Force a
  # multi-thread CPU budget so the pool's worker handoffs actually run, even
  # on single-core CI machines.
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=Debug \
    -DULAYER_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$JOBS"
  ULAYER_CPU_THREADS=4 ctest --test-dir build-tsan --output-on-failure -j "$JOBS" \
    -R 'parallel_test|gemm_test|conv_test|pool_test|elementwise_test|quantize_test|integration_test|executor_test|prepared_test|arena_test|fault_test|analysis_test|serve_test'

  echo "==> [7/12] fault injection under ASan + TSan (scripts/ci_faults.spec)"
  # fault_test (its specs are embedded in the tests) runs under both
  # sanitizers with a multi-thread CPU budget; the committed deterministic
  # spec is then driven through the sanitizer-built ulayer_verify fault
  # simulation, and two runs must print the identical DegradationReport.
  FAULT_SPEC="$(grep -v '^#' scripts/ci_faults.spec | tr -d '[:space:]')"
  ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -R 'fault_test'
  ULAYER_CPU_THREADS=4 \
    ctest --test-dir build-tsan --output-on-failure -R 'fault_test'
  ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 \
    ./build-asan/tools/ulayer_verify --model googlenet --config pf \
    --faults "$FAULT_SPEC" > fault_report_a.txt
  ULAYER_CPU_THREADS=4 \
    ./build-tsan/tools/ulayer_verify --model googlenet --config pf \
    --faults "$FAULT_SPEC" > fault_report_b.txt
  diff fault_report_a.txt fault_report_b.txt
  rm -f fault_report_a.txt fault_report_b.txt
else
  echo "==> [5/12] sanitizers skipped (--skip-sanitize)"
  echo "==> [6/12] TSan skipped (--skip-sanitize)"
  echo "==> [7/12] fault injection skipped (--skip-sanitize)"
fi

echo "==> [8/12] serving layer: bench smoke + cross-thread determinism"
# The serving bench replays deterministic request traces through the
# multi-tenant server (batched vs batch=1) and writes BENCH_serving.json;
# under sanitizers it runs from the ASan build. The --serve-smoke output
# (batch composition, execution order and functional output digests) must be
# byte-identical across CPU thread budgets.
if [ "$SKIP_SANITIZE" -eq 0 ]; then
  SERVE_BENCH=./build-asan/bench/serving_bench
  SERVE_TOOL=./build-asan/tools/ulayer_verify
else
  SERVE_BENCH=./build-werror/bench/serving_bench
  SERVE_TOOL=./build-werror/tools/ulayer_verify
fi
ASAN_OPTIONS=detect_leaks=1 "$SERVE_BENCH" --quick --out BENCH_serving.json
ULAYER_CPU_THREADS=1 ASAN_OPTIONS=detect_leaks=1 "$SERVE_TOOL" --serve-smoke > serve_smoke_t1.txt
ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 "$SERVE_TOOL" --serve-smoke > serve_smoke_t4.txt
diff serve_smoke_t1.txt serve_smoke_t4.txt
rm -f serve_smoke_t1.txt serve_smoke_t4.txt

echo "==> [9/12] observability: trace export + invariant check + metrics"
# Traced runs of one zoo model — clean and under the committed fault spec —
# exported as Chrome trace JSON and checked against the T4xx trace
# invariants (ulayer_verify exits 1 when they fail); the aggregated metrics
# registry lands in BENCH_trace.json at the repo root. Uses the ASan build
# when sanitizers are on, so the whole recording/export path runs
# instrumented.
FAULT_SPEC="$(grep -v '^#' scripts/ci_faults.spec | tr -d '[:space:]')"
if [ "$SKIP_SANITIZE" -eq 0 ]; then
  TRACE_TOOL=./build-asan/tools/ulayer_verify
else
  TRACE_TOOL=./build-werror/tools/ulayer_verify
fi
ASAN_OPTIONS=detect_leaks=1 "$TRACE_TOOL" --model googlenet --config pf \
  --trace-out trace_googlenet.json --metrics-out BENCH_trace.json
ASAN_OPTIONS=detect_leaks=1 "$TRACE_TOOL" --model googlenet --config pf \
  --faults "$FAULT_SPEC" --trace-out trace_googlenet_faults.json >/dev/null
rm -f trace_googlenet.json trace_googlenet_faults.json

echo "==> [10/12] adaptation loop: tests under sanitizers + ramp smoke + bench"
# The closed adaptation loop (drift-fed predictor corrections, health-keyed
# plan cache, baseline probes for a plan with no GPU work) runs its test
# suite under ASan and TSan, then drives the committed throttle ramps
# through ulayer_verify --adapt: the mild one (scripts/ci_adapt.spec) and
# the severe one (scripts/ci_adapt_severe.spec), which plans the GPU out.
# ulayer_verify exits 1 on an H-series error or when the recovery does not
# restore the baseline plan. Each printed ramp — per-run latencies,
# correction table, cache statistics, H-series verdicts — must be
# byte-identical across CPU thread budgets (the loop is timing-only; the
# thread budget only affects functional kernels). adapt_bench --quick
# regenerates BENCH_adapt.json and exits 1 if the adaptive runtime fails to
# beat the static one while throttled, fails to converge, or fails to
# return to the baseline plan.
if [ "$SKIP_SANITIZE" -eq 0 ]; then
  ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir build-asan --output-on-failure -R 'adapt_test'
  ULAYER_CPU_THREADS=4 \
    ctest --test-dir build-tsan --output-on-failure -R 'adapt_test'
  ADAPT_TOOL=./build-asan/tools/ulayer_verify
  ADAPT_BENCH=./build-asan/bench/adapt_bench
else
  ADAPT_TOOL=./build-werror/tools/ulayer_verify
  ADAPT_BENCH=./build-werror/bench/adapt_bench
fi
for spec_file in scripts/ci_adapt.spec scripts/ci_adapt_severe.spec; do
  ADAPT_SPEC="$(grep -v '^#' "$spec_file" | tr -d '[:space:]')"
  ULAYER_CPU_THREADS=1 ASAN_OPTIONS=detect_leaks=1 \
    "$ADAPT_TOOL" --adapt --config pf --faults "$ADAPT_SPEC" > adapt_ramp_t1.txt
  ULAYER_CPU_THREADS=4 ASAN_OPTIONS=detect_leaks=1 \
    "$ADAPT_TOOL" --adapt --config pf --faults "$ADAPT_SPEC" > adapt_ramp_t4.txt
  diff adapt_ramp_t1.txt adapt_ramp_t4.txt
  rm -f adapt_ramp_t1.txt adapt_ramp_t4.txt
done
ASAN_OPTIONS=detect_leaks=1 "$ADAPT_BENCH" --quick --out BENCH_adapt.json

if command -v clang-format >/dev/null 2>&1; then
  echo "==> [11/12] clang-format check (.clang-format, check-only)"
  mapfile -t FMT_FILES < <(git ls-files '*.cc' '*.h')
  clang-format --dry-run -Werror "${FMT_FILES[@]}"
else
  echo "==> [11/12] clang-format not installed; skipping format check"
fi

if [ "$SKIP_TIDY" -eq 0 ]; then
  if command -v clang-tidy >/dev/null 2>&1; then
    echo "==> [12/12] clang-tidy over src/, bench/ and tools/"
    # build-werror exports compile_commands.json (CMAKE_EXPORT_COMPILE_COMMANDS).
    mapfile -t SOURCES < <(git ls-files 'src/*.cc' 'bench/*.cc' 'tools/*.cc')
    clang-tidy -p build-werror --quiet "${SOURCES[@]}"
  else
    echo "==> [12/12] clang-tidy not installed; skipping lint stage"
  fi
else
  echo "==> [12/12] clang-tidy skipped (--skip-tidy)"
fi

echo "CI pipeline passed."
