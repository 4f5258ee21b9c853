"""Spans around calls into each layer of the package, for the traced run.

The package itself is not edited: ``Tracer.install`` replaces the public
callables listed in ``SPANS`` in every ``gerbes.*`` namespace that binds
them (``from .linalg import snf`` makes a separate binding in ``cochain``
and ``arith``), and wraps ``__init__`` for classes.  Per-entry helpers
such as ``FinAb`` methods or ``Cochain.value`` are left alone; ``Cochain``
construction is counted without a span.

Each span records its name, start, end, parent span and op id, and stays
in memory until ``write`` dumps them at the end of the run.  Counters that
cost time to compute (such as the bit length of SNF transforms) run after
their span closes, and the time they take is subtracted from every span
still open, so it lands in no layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# (span name, module, attribute path); a dotted path wraps a class method.
SPANS = [
    ("linalg.snf", "gerbes.linalg", "snf"),
    ("linalg.howell_reduce_rows", "gerbes.linalg", "howell_reduce_rows"),
    ("linalg.kernel_mod", "gerbes.linalg", "kernel_mod"),
    ("linalg.solve_mod", "gerbes.linalg", "solve_mod"),
    ("linalg.hermite_column_basis", "gerbes.linalg", "hermite_column_basis"),
    ("cochain.cohomology", "gerbes.cochain", "cohomology"),
    ("cochain.CohomologyGroup", "gerbes.cochain", "CohomologyGroup.__init__"),
    ("cochain.cup", "gerbes.cochain", "cup"),
    ("cochain.differential", "gerbes.cochain", "differential"),
    ("cochain.restriction", "gerbes.cochain", "restriction"),
    ("cochain.solve_coboundary", "gerbes.cochain", "solve_coboundary"),
    ("arith.ArithmeticModel", "gerbes.arith", "ArithmeticModel.__init__"),
    ("arith.check_axioms", "gerbes.arith", "check_axioms"),
    ("arith.sha", "gerbes.arith", "sha"),
    ("arith.inv_eval", "gerbes.arith", "ArithmeticModel.inv_eval"),
    ("gerbe.GerbeExtension", "gerbes.gerbe", "GerbeExtension.__init__"),
    ("gerbe.gerbe_dual", "gerbes.gerbe", "gerbe_dual"),
    ("gerbe.brauer_manin", "gerbes.gerbe", "brauer_manin"),
    ("gerbe.verify_factorization", "gerbes.gerbe", "verify_factorization"),
    ("gerbe.local_sections", "gerbes.gerbe", "local_sections"),
    ("groups.FiniteGroup", "gerbes.groups", "FiniteGroup.__init__"),
    ("groups.quotient_group", "gerbes.groups", "quotient_group"),
    ("groups.abelianization", "gerbes.groups", "abelianization"),
    ("modules.GModule", "gerbes.modules", "GModule.__init__"),
    ("modules.restrict_module", "gerbes.modules", "restrict_module"),
    ("modules.dual_module", "gerbes.modules", "dual_module"),
    ("modules.Pairing", "gerbes.modules", "Pairing.__init__"),
    ("document.load_document", "gerbes.document", "load_document"),
    ("document.parse_document", "gerbes.document", "parse_document"),
    ("document.echo_document", "gerbes.document", "echo_document"),
    ("document.canonical_json", "gerbes.document", "canonical_json"),
    ("cli.run", "gerbes.cli", "run"),
]

LAYERS = ("linalg", "cochain", "arith", "gerbe", "groups", "modules", "document", "cli")


def _max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m for x in row), default=0)


def _after_snf(counters, args, kwargs, res) -> None:
    m = args[0]
    cells = len(m) * (len(m[0]) if len(m) else 0)
    counters["linalg.snf.max_cells"] = max(counters["linalg.snf.max_cells"], cells)
    bits = _max_bits((res.U, res.V, res.U_inv, res.V_inv))
    counters["linalg.snf.max_entry_bits"] = max(counters["linalg.snf.max_entry_bits"], bits)


def _after_howell(counters, args, kwargs, res) -> None:
    counters["linalg.howell_reduce_rows.rows_in"] += len(args[0])


def _after_solve_mod(counters, args, kwargs, res) -> None:
    counters["linalg.solve_mod.unsolvable"] += res[0] is None


def _after_cohomology_group(counters, args, kwargs, res) -> None:
    module = args[1] if len(args) > 1 else kwargs["module"]
    degree = args[2] if len(args) > 2 else kwargs["degree"]
    q, k = module.group.order - 1, module.rank
    in_dim = q**degree * k
    counters["cochain.CohomologyGroup.max_in_dim"] = max(
        counters["cochain.CohomologyGroup.max_in_dim"], in_dim
    )
    # The cocycle differential d_n is (q^(n+1) k) x (q^n k) int64 entries.
    counters["cochain.CohomologyGroup.max_matrix_bytes"] = max(
        counters["cochain.CohomologyGroup.max_matrix_bytes"], q * in_dim * in_dim * 8
    )


def _after_local_sections(counters, args, kwargs, res) -> None:
    counters["gerbe.local_sections.splittings"] += sum(len(v) for v in res.values())


def _after_finite_group(counters, args, kwargs, res) -> None:
    table = args[1] if len(args) > 1 else kwargs["table"]
    counters["groups.FiniteGroup.max_order"] = max(
        counters["groups.FiniteGroup.max_order"], len(table)
    )


def _after_canonical_json(counters, args, kwargs, res) -> None:
    counters["document.canonical_json.bytes"] += len(res.encode("utf-8"))


AFTER: dict[str, Callable] = {
    "linalg.snf": _after_snf,
    "linalg.howell_reduce_rows": _after_howell,
    "linalg.solve_mod": _after_solve_mod,
    "cochain.CohomologyGroup": _after_cohomology_group,
    "gerbe.local_sections": _after_local_sections,
    "groups.FiniteGroup": _after_finite_group,
    "document.canonical_json": _after_canonical_json,
}


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self) -> None:
        # [name, start, end, parent index, op id, excluded at start, excluded at end]
        self.spans: list[list[Any]] = []
        self.stack: list[int] = []
        self.op = -1
        self.excluded = 0.0
        self.counters: dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        after = AFTER.get(name)
        spans, stack, counters = self.spans, self.stack, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, self.excluded, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                rec[6] = self.excluded
            if after is not None:
                t0 = perf_counter()
                after(counters, args, kwargs, result)
                self.excluded += perf_counter() - t0
            return result

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of the listed callables in gerbes.* modules."""
        import gerbes.cochain

        modules = [m for n, m in sys.modules.items() if n == "gerbes" or n.startswith("gerbes.")]
        for name, home, path in SPANS:
            owner = sys.modules[home]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._wrap(name, cls.__dict__[attr]))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        cochain_cls = gerbes.cochain.Cochain
        cochain_cls.__init__ = self._count("cochain.Cochain.created", cochain_cls.__init__)

    def durations(self) -> list[float]:
        """Each span's time with post-span counting removed."""
        return [(s[2] - s[1]) - (s[6] - s[5]) for s in self.spans]

    def summary(self) -> dict[str, float]:
        """Per-callable calls and busy time, per-layer self time and share."""
        spans = self.spans
        dur = self.durations()
        child = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        out: dict[str, float] = defaultdict(float)
        layer_self = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(spans):
            name = s[0]
            out[f"{name}.calls"] += 1
            # busy_s counts a recursive call only once, at its outermost span.
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                out[f"{name}.busy_s"] += dur[i]
            layer_self[name.split(".")[0]] += dur[i] - child[i]
        for key, value in self.counters.items():
            out[key] = value
        total = sum(layer_self.values())
        for layer, value in layer_self.items():
            out[f"{layer}.self_s"] = value
            out[f"{layer}.self_share"] = value / total if total > 0 else 0.0
        calls = out["cochain.cohomology.calls"]
        builds = out["cochain.CohomologyGroup.calls"]
        out["cochain.cohomology.builds"] = builds
        out["cochain.cohomology.hit_ratio"] = (calls - builds) / calls if calls else 0.0
        out["groups.FiniteGroup.built"] = out["groups.FiniteGroup.calls"]
        out["modules.GModule.built"] = out["modules.GModule.calls"]
        out["trace.spans"] = len(spans)
        return out

    def write(self, path: str) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s, d in zip(self.spans, self.durations()):
                fh.write(json.dumps([s[0], s[1], s[2], d, s[3], s[4]]) + "\n")
