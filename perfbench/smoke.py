"""Smoke test of the benchmark itself, at tiny sizes (a minute or two).

Run from the root of the checkout:

    python3 perfbench/smoke.py

It asserts that, on every workload,

* untraced and traced runs succeed with ``failed`` = 0, and the traced run
  found the traced and untraced op outputs byte-identical (a difference
  counts as a failure);
* every metric name matches [A-Za-z0-9_.-]+, carries a unit, and the set
  of names is exactly the one BENCHMARK.json declares;

and that the gate is live: a deliberately wrong expected m_H value makes
the command exit nonzero with ``correct`` false, and a directory holding
only BENCHMARK.json and perfbench/ makes it exit nonzero without a result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = ("mh-cyclic", "bands-cli", "cochain-identities")


def bench(*args: str, cwd: str = ".") -> tuple[int, list[str]]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), *args]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc.returncode, proc.stdout.strip().splitlines()


def check_metrics(result: dict, declared: list[dict]) -> None:
    names = {m["name"]: m["unit"] for m in declared}
    assert set(result["metrics"]) == set(names), (sorted(result["metrics"]), sorted(names))
    for name, metric in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert metric["unit"] == names[name], (name, metric)
        assert isinstance(metric["value"], (int, float)), (name, metric)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            rc, lines = bench("--workload", workload, "--seed", "7", "--seconds", "2",
                              "--trace", trace, "--tiny")
            assert rc == 0, (workload, trace, lines[-2:])
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            check_metrics(result, spec["end_to_end"] if trace == "0" else spec["per_layer"])
            print(f"ok {workload} trace={trace}: {result['attempted']} checked, 0 failed")

    os.makedirs(".bench_out", exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="smoke-", dir=".bench_out")
    try:
        with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
            wrong = json.load(fh)
        wrong["mh_values"]["witness"] = ["1/4"]
        wrong_path = os.path.join(scratch, "wrong.json")
        with open(wrong_path, "w", encoding="utf-8") as fh:
            json.dump(wrong, fh)
        rc, lines = bench("--workload", "bands-cli", "--seed", "7", "--seconds", "2",
                          "--trace", "0", "--tiny", "--expected", wrong_path)
        result = json.loads(lines[-1])
        assert rc != 0 and not result["correct"] and result["failed"] > 0, (rc, result)
        print(f"ok wrong expected value: exit {rc}, {result['failed']} failed")

        bare = os.path.join(scratch, "bare")
        os.makedirs(bare)
        shutil.copy("BENCHMARK.json", bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        rc, lines = bench("--workload", "bands-cli", "--seed", "7", "--seconds", "2",
                          "--trace", "0", cwd=bare)
        assert rc != 0 and not any(line.startswith('{"correct"') for line in lines), (rc, lines)
        print(f"ok without the package: exit {rc}, no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
