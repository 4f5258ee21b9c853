"""Cross-check of single m_H ops against the ROADMAP baseline table.

Run from the root of the checkout:

    python3 perfbench/crosscheck.py [--reps 3]

Times ``gerbes gerbe mh DOC --output json`` in process on the mh-cyclic
documents for C10 and C14 (the ROADMAP lists 0.49 s and 4.5 s for them)
and prints one JSON line per size with every timing, the median and the
ROADMAP figure.  Each op parses its document afresh, so no cache carries
over from one repetition to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from workloads import MhCyclic, cyclic_document  # noqa: E402

ROADMAP_S = {10: 0.49, 14: 4.5}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--reps", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    os.makedirs(".bench_out", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="crosscheck-", dir=".bench_out")
    try:
        wl = MhCyclic(args.seed, False, workdir, {})
        rng = random.Random(args.seed)
        for n in (2, *ROADMAP_S):
            wl.add_document(f"C{n}", cyclic_document(n, rng))
        wl.call(["gerbe", "mh", wl.paths["C2"], "--output", "json"])
        for n, roadmap in ROADMAP_S.items():
            times = []
            for _ in range(args.reps):
                t0 = perf_counter()
                rc, text = wl.call(["gerbe", "mh", wl.paths[f"C{n}"], "--output", "json"])
                times.append(perf_counter() - t0)
                if rc != 0 or json.loads(text)["result"]["values"] != ["0/1"]:
                    raise SystemExit(f"C{n}: unexpected result (exit {rc})")
            print(json.dumps({
                "n": n, "seconds": times, "median_s": statistics.median(times),
                "roadmap_s": roadmap,
            }))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
