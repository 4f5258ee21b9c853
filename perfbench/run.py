"""Benchmark of the gerbes workbench: three seeded workloads, exact checks.

Run from the root of a source checkout (the package is imported from
./src, never from an installed copy):

    python3 perfbench/run.py --workload mh-cyclic --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``): ``mh-cyclic``, ``bands-cli`` and
``cochain-identities``.  Each run is a closed loop with one client in a
fresh worker process, started with OMP_NUM_THREADS, OPENBLAS_NUM_THREADS
and MKL_NUM_THREADS set to 1.

A run cycles through the workload's schedule of ops in whole passes until
``--seconds`` have gone by.  With ``--trace 0`` the last output line
reports the end-to-end metrics: ops_per_s (ops completed per second of
the timed loop), op_p50_s (median op latency), op_tail_s (latency at the
highest whole percentile with at least ten samples beyond it), setup_s
(median of three set-ups, each in a fresh process) and peak_rss_mb.  With ``--trace 1`` it reports
the per-layer metrics of a traced run instead, and the spans go to
.bench_out/spans-<workload>-seed<seed>.jsonl.gz.  The line before it
records the environment, the sample counts, the calls and busy time of
every traced callable, and any correctness problems.  Every op
result is checked exactly; a mismatch makes ``correct`` false, counts in
``failed`` and ends the command with exit code 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 2
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(HERE, "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it."""
    s = sorted(latencies)
    n = len(s)
    pct = math.floor(100 * (n - 10) / n) if n > 10 else 0
    # Nearest-rank value at that percentile: ceil(pct/100 * n) samples at or below it.
    rank = max(1, math.ceil(pct * n / 100))
    return pct, s[rank - 1]


def worker(args, *extra: str, timeout: float) -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), *extra,
    ]
    if args.tiny:
        cmd.append("--tiny")
    if args.expected:
        cmd += ["--expected", args.expected]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def environment() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=("mh-cyclic", "bands-cli", "cochain-identities"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small instances, for the smoke test")
    ap.add_argument("--expected", default=None, help="expected-values file (default perfbench/expected.json)")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join("src", "gerbes", "cli.py")):
        print("run from the root of a gerbes checkout: src/gerbes is missing", file=sys.stderr)
        return 2
    start = time.monotonic()

    def left() -> float:
        return DEADLINE_S - (time.monotonic() - start)

    details = {"workload": args.workload, "seed": args.seed, "env": environment()}
    if args.trace:
        res = worker(args, "--trace", timeout=left())
        # A layer callable the workload never reaches reports 0.
        metrics = {
            name: {"value": res["per_layer"].get(name, 0), "unit": unit}
            for name, unit in per_layer_units().items()
        }
        details.update(traced_ops=res["traced_ops"], per_layer_all=res["per_layer"])
    else:
        setups = [worker(args, "--setup-only", timeout=left())["setup_s"] for _ in range(SETUP_PROBES)]
        res = worker(args, timeout=left())
        setups.append(res["setup_s"])
        lat = res["latencies"]
        pct, tail_s = tail(lat)
        values = {
            "ops_per_s": len(lat) / res["wall_s"],
            "op_p50_s": statistics.median(lat),
            "op_tail_s": tail_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        details.update(
            samples=len(lat), passes=res["passes"], tail_percentile=pct, setup_samples=setups,
        )
    details.update(
        failed_ratio=res["failed"] / res["attempted"], attempted=res["attempted"], problems=res["problems"],
    )
    correct = res["failed"] == 0
    print(json.dumps(details))
    print(json.dumps({
        "correct": correct, "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
