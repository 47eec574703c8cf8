#!/usr/bin/env python3
"""End-to-end benchmark of the ulayer runtime (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload googlenet-pf --seed 3 --seconds 8 --trace 0

Builds perfbench/ (and the ulayer libraries under src/) in Release mode into
.bench_build/perfbench, obtains the reference output digests for the seed,
runs the workload in a fresh process with a pinned host thread budget, and
prints two lines: the run's provenance, then the result object
{"correct", "attempted", "failed", "metrics"}.

--make-reference regenerates the committed reference digests of the default
seed (scalar ISA, one thread).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
REF_DIR = os.path.join(HERE, "reference")
REF_CACHE = os.path.join(ROOT, ".bench_build", "refs")

WORKLOADS = ["googlenet-pf", "resnet18-qu8", "serve-mixed", "adapt-throttle"]
DEFAULT_SEED = 1
# Host threads for the timed process (never more than nproc). Every layer's
# ParallelFor waits for its slowest thread, so on a shared machine a stall of
# any one thread stretches the whole run: with 2 threads GoogLeNet's
# run-to-run spread was about a third of what it was with 3 or 4.
HOST_THREADS = 2
# Environment that would change what the program computes or records.
SCRUBBED_ENV = ("ULAYER_TRACE", "ULAYER_FAULTS", "ULAYER_SIMD", "ULAYER_CPU_THREADS")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def base_env():
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    return env


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=subprocess.DEVNULL, stderr=sys.stderr)
    if not os.path.exists(BINARY):
        raise RuntimeError("build produced no perfbench binary")


def git_rev():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def binary_hash():
    h = hashlib.sha1()
    with open(BINARY, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def make_reference(workload, seed, short, path, scalar):
    env = base_env()
    env["ULAYER_CPU_THREADS"] = "1"
    if scalar:
        env["ULAYER_SIMD"] = "scalar"
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--ref-out", path]
    if short:
        cmd.append("--short")
    subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL,
                   timeout=RUN_TIMEOUT_S)


def reference_path(workload, seed, short):
    """Committed digests for the default seed; otherwise an untimed
    one-thread run of the same binary, cached per (binary, seed)."""
    committed = os.path.join(REF_DIR, workload + ".txt")
    if seed == DEFAULT_SEED and not short and os.path.exists(committed):
        return committed
    os.makedirs(REF_CACHE, exist_ok=True)
    path = os.path.join(REF_CACHE, "%s-%d%s-%s.txt" % (workload, seed, "-short" if short else "",
                                                       binary_hash()))
    if not os.path.exists(path):
        tmp = path + ".tmp"
        make_reference(workload, seed, short, tmp, scalar=False)
        os.replace(tmp, path)
    return path


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {r["name"]: r["unit"] for r in rows}


def run(args):
    build()
    ref = reference_path(args.workload, args.seed, args.short)
    env = base_env()
    env["ULAYER_CPU_THREADS"] = str(args.threads)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--ref", ref, "--rev", git_rev()]
    if args.short:
        cmd.append("--short")
    if args.corrupt:
        cmd.append("--corrupt")
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError("perfbench exited with code %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    provenance = json.loads(lines[0])
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        raise RuntimeError("metric set differs from BENCHMARK.json: missing %s, extra %s, "
                           "unit mismatches %s" % (
                               sorted(set(want) - set(got)), sorted(set(got) - set(want)),
                               sorted(k for k in want if k in got and got[k] != want[k])))
    print(json.dumps(provenance))
    print(json.dumps(result))


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=8.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=min(HOST_THREADS, os.cpu_count() or 1),
                   help="host thread budget (ULAYER_CPU_THREADS), at most nproc")
    p.add_argument("--short", action="store_true", help="brief run of fixed, smaller work")
    p.add_argument("--corrupt", action="store_true",
                   help="flip one output byte before each digest check (must fail)")
    p.add_argument("--make-reference", action="store_true",
                   help="regenerate perfbench/reference/ for the default seed")
    args = p.parse_args()
    args.threads = max(1, min(args.threads, os.cpu_count() or 1))
    try:
        if args.make_reference:
            build()
            os.makedirs(REF_DIR, exist_ok=True)
            for w in WORKLOADS if args.workload is None else [args.workload]:
                make_reference(w, DEFAULT_SEED, False, os.path.join(REF_DIR, w + ".txt"),
                               scalar=True)
            return 0
        if args.workload is None:
            p.error("--workload is required")
        run(args)
    except (OSError, RuntimeError, ValueError, KeyError, IndexError,
            subprocess.SubprocessError) as e:
        log("perfbench: %s" % e)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
