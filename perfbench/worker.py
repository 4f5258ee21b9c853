"""One benchmark run of one workload, in its own process.

``run.py`` starts this with the thread limits in its environment and reads
the JSON object printed on the last line of its output.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        [--trace] [--setup-only] [--tiny] [--expected FILE]

Set-up (import plus seeded input generation, up to the first timed op) is
timed from the top of this file.  The untraced run cycles through the
workload's op schedule for the given seconds.  The traced run times the
same number of ops twice, first untraced and then with spans installed,
so it can report the tracing overhead and check that both passes produce
identical bytes.
"""

from time import perf_counter

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import gerbes  # noqa: E402
import gerbes.cli  # noqa: E402,F401  (also loads gerbes.document, which the tracer wraps)
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_ops(workload, schedule, *, seconds=None, count=None, tracer=None, keep=False):
    """Closed loop over the schedule, one op at a time.

    Stops after ``count`` ops, or else at the end of the first whole pass
    over the schedule once ``seconds`` of wall time have gone by, so a run
    times each op of the schedule equally often.  Returns the wall time,
    per-op latencies and per-op (op, summary, output), with the output
    rendered as text only when ``keep`` is set.
    """
    latencies, records = [], []
    start = perf_counter()
    i = 0
    while (i < count) if count is not None else (
        i % len(schedule) or perf_counter() - start < seconds
    ):
        op = schedule[i % len(schedule)]
        if tracer is not None:
            tracer.op = i
        t0 = perf_counter()
        try:
            rc, result, extra = op.fn(i // len(schedule))
        except Exception as exc:  # a raising op counts as failed, the run goes on
            rc, result, extra = None, f"{type(exc).__name__}: {exc}", None
        latencies.append(perf_counter() - t0)
        if rc is None:
            summary, text = {"rc": None, "error": result}, result
        else:
            try:
                summary = workload.summarize(op, rc, result, extra)
            except (ValueError, KeyError, TypeError) as exc:  # unreadable output is a wrong answer
                summary = {"rc": rc, "unreadable": f"{type(exc).__name__}: {exc}"}
            text = workload.render(result) if keep else None
        records.append((op, summary, text))
        i += 1
    return perf_counter() - start, latencies, records


def check_records(workload, records) -> list[str | None]:
    """One entry per op: None if its result is right, else the problem."""
    problems = []
    for op, summary, _ in records:
        if summary["rc"] is None:
            problems.append(f"{op.key}: raised {summary['error']}")
        else:
            problems.append(workload.check(op, summary))
    return problems


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    args = ap.parse_args()

    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(gerbes.__file__).startswith(src + os.sep):
        print(f"gerbes was imported from {gerbes.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(args.expected, encoding="utf-8") as fh:
        expected = json.load(fh)

    os.makedirs(".bench_out", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".bench_out")
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir, expected)
        schedule = workload.setup()
        setup_s = perf_counter() - _T0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        out = {"setup_s": setup_s}
        if not args.trace:
            wall, latencies, records = run_ops(workload, schedule, seconds=args.seconds)
            out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["wall_s"] = wall
            out["passes"] = len(records) // len(schedule)
            out["latencies"] = latencies
            problems = check_records(workload, records)
        else:
            wall_u, _, plain = run_ops(workload, schedule, seconds=0.4 * args.seconds, keep=True)
            tracer = Tracer()
            tracer.install()
            wall_t, _, traced = run_ops(
                workload, schedule, count=len(plain), tracer=tracer, keep=True
            )
            problems = check_records(workload, plain)
            for i, (problem, (op, _, a), (_, _, b)) in enumerate(
                zip(check_records(workload, traced), plain, traced)
            ):
                if problem is None and a != b:
                    problem = f"op {i} ({op.key}): traced output differs from untraced"
                problems.append(problem)
            layers = tracer.summary()
            layers["trace.overhead_ratio"] = wall_t / wall_u - 1
            out["per_layer"] = layers
            out["traced_ops"] = len(traced)
            tracer.write(os.path.join(".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl.gz"))
        problems += workload.extra_checks()
        failures = [p for p in problems if p]
        out["attempted"] = len(problems)
        out["failed"] = len(failures)
        out["problems"] = failures[:20]
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
