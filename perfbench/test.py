#!/usr/bin/env python3
"""Self-test of the benchmark, in short mode (about two minutes).

Run from the repository root:  python3 perfbench/test.py

Checks that
  * every workload runs briefly, untraced and traced, with every metric
    BENCHMARK.json names present with its unit and every output correct;
  * the digest check fails when an output is corrupted;
  * the simulated metrics are bit-identical across two host thread budgets.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
WORKLOADS = ["googlenet-pf", "resnet18-qu8", "serve-mixed", "adapt-throttle"]
SIM_METRICS = ["sim_ms", "sim_ms_p50", "sim_ms_p90", "sim_mj", "sim_goodput_rps", "met_frac"]
SEED = 7

failures = []


def run(workload, trace=0, threads=None, extra=()):
    cmd = RUN + ["--workload", workload, "--seed", str(SEED), "--seconds", "0.5",
                 "--trace", str(trace), "--short"] + list(extra)
    if threads is not None:
        cmd += ["--threads", str(threads)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(cmd), proc.returncode,
                                                    proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def expect(cond, what):
    print("%s  %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        failures.append(what)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for trace, rows in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        want = {r["name"]: r["unit"] for r in rows}
        for w in WORKLOADS:
            res = run(w, trace=trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            expect(got == want, "%s trace=%d reports every metric with its unit" % (w, trace))
            expect(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                   "%s trace=%d outputs match the reference (%d attempted)"
                   % (w, trace, res["attempted"]))
            if trace == 0:
                zero = [k for k, v in res["metrics"].items() if v["value"] == 0]
                expect(not zero, "%s end-to-end metrics are non-zero %s" % (w, zero or ""))

    for w in WORKLOADS:
        res = run(w, extra=["--corrupt"])
        expect(not res["correct"] and res["failed"] > 0,
               "%s corrupted outputs fail the digest check (%d/%d failed)"
               % (w, res["failed"], res["attempted"]))

    nproc = os.cpu_count() or 1
    for w in WORKLOADS:
        a = run(w, threads=1)["metrics"]
        b = run(w, threads=max(2, min(4, nproc)))["metrics"]
        same = all(a[k]["value"] == b[k]["value"] for k in SIM_METRICS)
        expect(same, "%s simulated metrics bit-identical at 1 and %d threads"
               % (w, max(2, min(4, nproc))))

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
