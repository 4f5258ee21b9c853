"""JSON documents describing groups, modules, extensions, and models.

One input format only: a UTF-8 JSON object with the optional top-level
sections ``groups``, ``modules``, ``extensions``, ``model``, and ``tasks``.
Entities refer to each other by string identifiers.  Example:

    {
      "groups": {
        "G": {"table": [[0, 1], [1, 0]]},
        "H": {"permutations": [[1, 2, 0]]}
      },
      "modules": {
        "M": {"group": "G", "factors": [2], "action": {}}
      },
      "extensions": {
        "E": {"total": "T", "quotient": "G", "kernel": "H",
               "projection": [0, 1, ...], "injection": [0, ...]}
      },
      "model": {
        "group": "G",
        "mu": {"modulus": 8, "character": {"1": 7}},
        "places": [{"name": "v0", "subgroup": [0, 1], "inv": ["1/2"]}],
        "chebotarev_complete": false
      },
      "tasks": {"cohomology": {"module": "M", "degree": 2}}
    }

Omitted action entries mean the identity matrix (trivial-action shorthand);
place invariants align with the canonical H^2 generator order, which the
cochain machinery fixes deterministically.  Q/Z values are always reduced
fraction strings, never floats.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Any, Callable, Iterator

import numpy as np

from .arith import ArithmeticModel, AxiomReport, Place, ShaResult
from .cochain import Cochain, CohomologyGroup
from .errors import GerbesError, InputError, SizeBound
from .finab import FinAb, QmodZ
from .gerbe import BMFunctional, BMTrace, FactorizationReport, GerbeExtension
from .groups import DEFAULT_CLOSURE_BOUND, FiniteGroup, GroupHom, Subgroup, build_group
from .modules import GModule, cyclic_module

_INT = {int}
_MALFORMED = (TypeError, ValueError, AttributeError, IndexError, KeyError)


@dataclass
class Document:
    """Parsed and fully resolved input document."""

    groups: dict[str, FiniteGroup]
    modules: dict[str, GModule]
    extensions: dict[str, GerbeExtension]
    model: ArithmeticModel | None
    tasks: dict[str, Any]

    def group(self, name: str) -> FiniteGroup:
        return _lookup(self.groups, name, "group")

    def module(self, name: str) -> GModule:
        return _lookup(self.modules, name, "module")

    def extension(self, name: str) -> GerbeExtension:
        return _lookup(self.extensions, name, "extension")

    def require_model(self) -> ArithmeticModel:
        if self.model is None:
            raise InputError("this command needs a 'model' section in the document")
        return self.model


def _lookup(table: dict, name: str, kind: str):
    if name not in table:
        raise InputError(f"unresolved {kind} reference {name!r}")
    return table[name]


def load_document(path: str, max_group_order: int = DEFAULT_CLOSURE_BOUND) -> Document:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_document(raw, max_group_order=max_group_order)


def parse_document(raw: dict[str, Any], max_group_order: int = DEFAULT_CLOSURE_BOUND) -> Document:
    """Resolve a raw document; a malformed entry raises InputError, or the
    GerbesError of the validation it fails, with its entity named (``_entity``).

    Each group that acts on coefficients (module groups, extension
    quotients, the model group) must have order at most
    ``max_group_order``, checked before any cohomology is computed.
    Permutation closures stop at ``max(max_group_order,
    DEFAULT_CLOSURE_BOUND)`` elements.
    """
    if not isinstance(raw, dict):
        raise InputError("document root must be a JSON object")
    known = {"groups", "modules", "extensions", "model", "tasks"}
    for key in raw:
        if key not in known:
            raise InputError(f"unknown top-level section {key!r}")
    closure_bound = max(max_group_order, DEFAULT_CLOSURE_BOUND)
    groups, modules, extensions, model = {}, {}, {}, None
    try:
        for name, spec in (raw.get("groups") or {}).items():
            with _entity(f"group {name!r}"):
                groups[name] = build_group(spec, max_order=closure_bound, name=name)
        for name, spec in (raw.get("modules") or {}).items():
            with _entity(f"module {name!r}"):
                modules[name] = _parse_module(name, spec, groups, max_group_order)
        for name, spec in (raw.get("extensions") or {}).items():
            with _entity(f"extension {name!r}"):
                extensions[name] = _parse_extension(spec, groups, max_group_order)
        if raw.get("model") is not None:
            with _entity("model"):
                model = _parse_model(raw["model"], groups, max_group_order)
    except _MALFORMED as exc:  # the shape of a section, such as "groups": 5
        raise InputError(f"malformed document: {type(exc).__name__}: {exc}") from exc
    tasks = raw.get("tasks") or {}
    if not isinstance(tasks, dict) or not all(isinstance(t, dict) for t in tasks.values()):
        raise InputError("'tasks' must be an object whose entries are objects")
    for command, task in tasks.items():
        for key in ("module", "extension"):
            if key in task and not isinstance(task[key], str):
                raise InputError(f"task {command!r}: {key!r} must be a string")
        if "degree" in task:
            _integer(task["degree"], f"task {command!r} degree")
    return Document(groups, modules, extensions, model, tasks)


@contextmanager
def _entity(label: str) -> Iterator[None]:
    """Put ``label`` in front of the message of a GerbesError raised inside, keeping
    its type and so its exit code; a ``_MALFORMED`` error of a spec becomes InputError.
    Labels nest: a place's refusal reads ``model: place 'v0': ...``."""
    try:
        yield
    except GerbesError as exc:
        exc.args = (f"{label}: {exc}",)
        raise
    except _MALFORMED as exc:
        raise InputError(f"{label}: malformed: {type(exc).__name__}: {exc}") from exc


def _integer(value: Any, field: str) -> int:
    """A JSON integer; floats, booleans and strings are rejected, not truncated."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{field} must be an integer, got {value!r}")
    return value


def _fraction(value: Any, field: str) -> QmodZ:
    """A Q/Z value: a JSON string ``a`` or ``a/b`` of ASCII digits, b >= 1, gcd(a, b) = 1."""
    parts = value.split("/") if isinstance(value, str) else []
    if not 1 <= len(parts) <= 2 or not all(p.isascii() and p.isdecimal() for p in parts):
        raise InputError(f"{field} values must be strings 'a' or 'a/b' of decimal digits, got {value!r}")
    num, den = int(parts[0]), int(parts[-1]) if len(parts) == 2 else 1
    if den < 1 or gcd(num, den) != 1:
        raise InputError(f"{field} value {value!r} is not a reduced fraction")
    return QmodZ.make(num, den)


def _element(key: str, field: str) -> int:
    """An object key naming a group element: a decimal string."""
    if not (key.isascii() and key.isdecimal()):
        raise InputError(f"{field} key {key!r} is not a decimal element index")
    return int(key)


def _acting_group(groups: dict[str, FiniteGroup], name: str, bound: int) -> FiniteGroup:
    group = _lookup(groups, name, "group")
    if group.order > bound:
        raise SizeBound(
            f"group {name!r} of order {group.order} acts on coefficients; the bound is {bound}"
        )
    return group


def _parse_module(name: str, spec: dict[str, Any], groups: dict[str, FiniteGroup], bound: int) -> GModule:
    if "group" not in spec:
        raise InputError("missing its 'group' reference")
    group = _acting_group(groups, spec["group"], bound)
    action = {_element(k, "action"): mat for k, mat in (spec.get("action") or {}).items()}
    return GModule(group, FinAb(spec.get("factors", [])), action or None, name=name)


def _parse_extension(spec: dict[str, Any], groups: dict[str, FiniteGroup], bound: int) -> GerbeExtension:
    for key in ("total", "quotient", "kernel", "projection", "injection"):
        if key not in spec:
            raise InputError(f"missing {key!r}")
    total = _lookup(groups, spec["total"], "group")
    quotient = _acting_group(groups, spec["quotient"], bound)
    kernel = _lookup(groups, spec["kernel"], "group")
    with _entity("projection"):
        proj = GroupHom(total, quotient, spec["projection"])
    with _entity("injection"):
        incl = GroupHom(kernel, total, spec["injection"])
    return GerbeExtension(proj, incl)


def _parse_model(spec: dict[str, Any], groups: dict[str, FiniteGroup], bound: int) -> ArithmeticModel:
    if "group" not in spec:
        raise InputError("missing its 'group' reference")
    group = _acting_group(groups, spec["group"], bound)
    with _entity("mu"):
        mu_spec = spec.get("mu") or {}
        character = {_element(k, "character"): v for k, v in (mu_spec.get("character") or {}).items()}
        mu = cyclic_module(group, mu_spec.get("modulus", 0), character or None, name="mu")
    places = []
    for i, pspec in enumerate(spec.get("places") or []):
        pname = pspec.get("name", f"v{i}")
        if not isinstance(pname, str):
            raise InputError(f"place {i} name must be a string, got {pname!r}")
        with _entity(f"place {pname!r}"):
            sub = Subgroup(group, pspec.get("subgroup", [0]))
            raw_inv = pspec.get("inv", [])
            if not isinstance(raw_inv, list):
                raise InputError(f"inv must be a list, got {raw_inv!r}")
            places.append(Place(pname, sub, tuple(_fraction(v, "inv") for v in raw_inv)))
    complete = spec.get("chebotarev_complete", False)
    if not isinstance(complete, bool):
        raise InputError("'chebotarev_complete' must be true or false")
    return ArithmeticModel(group, mu, places, chebotarev_complete=complete)


# -- serialization ------------------------------------------------------------


def canonical_json(obj: Any) -> str:
    """Sorted-key JSON with a trailing newline; byte-stable across runs.

    The text is exactly ``json.dumps(obj, sort_keys=True, indent=2) + "\\n"``
    for every JSON-serializable tree, and an object the standard encoder
    refuses raises the standard encoder's exception.  With ``indent`` set
    the standard library encodes in pure Python; ``_write`` appends the
    pieces to one list instead, joined once, and fills a list of exact
    ints, or a rectangular list of such lists, into one template.  It
    knows only what payloads hold (str, int, bool, None, lists, tuples and
    str-keyed dicts) and hands any other tree to the standard encoder.
    """
    parts: list[str] = []
    try:
        _write(obj, "\n", parts.append)
    except (TypeError, RecursionError):
        # A float, a non-string key or a foreign object raises TypeError in
        # ``_write``; circular containers raise ValueError in the standard
        # encoder, too-deep ones RecursionError.
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"
    parts.append("\n")
    return "".join(parts)


_INDENT = "  "
_intstr = int.__repr__
_encode_str = json.encoder.encode_basestring_ascii
_LIST = {list}


def _write(o: Any, nl: str, out: Callable[[str], None]) -> None:
    """Pass ``o``, as the standard encoder writes it with indent 2, to ``out``
    in pieces; ``nl`` is the newline and indentation of the line ``o`` is on.

    Dispatch follows ``json.encoder._make_iterencode``: str, None, True,
    False, int, list or tuple, dict.  Only the fast paths test exact types
    (a bool is not an exact int), so subclasses take the general path, as
    there.  Anything else, a float or a key that is not a str included,
    raises TypeError.
    """
    if isinstance(o, str):
        out(_encode_str(o))
    elif o is None:
        out("null")
    elif o is True:
        out("true")
    elif o is False:
        out("false")
    elif isinstance(o, int):
        out(_intstr(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out("[]")
            return
        inner = nl + _INDENT
        if type(o) is list or type(o) is tuple:
            # Exact ints, or rectangular rows of them, fill one printf-style
            # template: %d spells an exact int as int.__repr__ does.
            kinds = set(map(type, o))
            if kinds == _INT:
                cells = ("," + inner).join(["%d"] * len(o))
                out(f"[{inner}{cells}{nl}]" % tuple(o))
                return
            widths = set(map(len, o)) if kinds == _LIST else ()
            if len(widths) == 1 and 0 not in widths:
                flat = tuple(chain.from_iterable(o))
                if set(map(type, flat)) == _INT:
                    cell = inner + _INDENT
                    row = ("," + cell).join(["%d"] * len(o[0]))
                    rows = f"{inner}],{inner}[{cell}".join([row] * len(o))
                    out(f"[{inner}[{cell}{rows}{inner}]{nl}]" % flat)
                    return
        sep = "[" + inner
        for x in o:
            out(sep)
            sep = "," + inner
            _write(x, inner, out)
        out(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out("{}")
            return
        inner = nl + _INDENT
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"key {k!r} is not a str")
            out(f"{sep}{_encode_str(k)}: ")
            sep = "," + inner
            _write(v, inner, out)
        out(nl + "}")
    else:
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def group_json(group: FiniteGroup) -> dict[str, Any]:
    return {"table": [list(row) for row in group.table]}


def module_json(module: GModule, group_name: str) -> dict[str, Any]:
    moved = (module.action != np.eye(module.rank, dtype=np.int64)).any(axis=(1, 2))
    return {
        "group": group_name,
        "factors": list(module.carrier.factors),
        "action": {str(g): module.action[g].tolist() for g in np.flatnonzero(moved).tolist()},
    }


def model_json(model: ArithmeticModel, group_name: str = "G") -> dict[str, Any]:
    character = {str(g): u for g, u in enumerate(model.mu.action[:, 0, 0].tolist()) if u != 1}
    return {
        "group": group_name,
        "mu": {"modulus": model.modulus, "character": character},
        "places": [
            {
                "name": p.name,
                "subgroup": list(p.subgroup.elements),
                "inv": [str(v) for v in p.inv],
            }
            for p in model.places
        ],
        "chebotarev_complete": model.chebotarev_complete,
    }


def echo_document(
    document: Document,
    module_names: tuple[str, ...] = (),
    extension_names: tuple[str, ...] = (),
    include_model: bool = False,
    tasks: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """A re-ingestable document built from the resolved entities.

    Ingesting the result reproduces the same computation outputs, which is
    the round-trip contract of ``--output json``.
    """

    def name_of(group: FiniteGroup) -> str:
        for n, obj in document.groups.items():
            if obj is group:
                return n
        raise InputError("cannot echo a group that is not part of the document")

    groups: dict[str, Any] = {}
    modules: dict[str, Any] = {}
    extensions: dict[str, Any] = {}
    for name in module_names:
        module = document.module(name)
        gname = name_of(module.group)
        groups[gname] = group_json(module.group)
        modules[name] = module_json(module, gname)
    for name in extension_names:
        ext = document.extension(name)
        tname, qname, kname = (
            name_of(ext.total),
            name_of(ext.quotient),
            name_of(ext.kernel_group),
        )
        for n, g in ((tname, ext.total), (qname, ext.quotient), (kname, ext.kernel_group)):
            groups[n] = group_json(g)
        extensions[name] = {
            "total": tname,
            "quotient": qname,
            "kernel": kname,
            "projection": list(ext.proj.images),
            "injection": list(ext.incl.images),
        }
    out: dict[str, Any] = {"groups": groups}
    if modules:
        out["modules"] = modules
    if extensions:
        out["extensions"] = extensions
    if include_model:
        model = document.require_model()
        gname = name_of(model.group)
        groups[gname] = group_json(model.group)
        out["model"] = model_json(model, gname)
    if tasks:
        out["tasks"] = tasks
    return out


def cochain_json(c: Cochain) -> dict[str, Any]:
    return {"degree": c.degree, "values": c.array.tolist()}


def cohomology_json(h: CohomologyGroup, certificates: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {
        "degree": h.degree,
        "invariant_factors": list(h.factors),
        "order": h.order,
    }
    if certificates:
        out["representatives"] = [cochain_json(r) for r in h.representatives]
    return out


def axiom_report_json(report: AxiomReport) -> dict[str, Any]:
    return {
        "passed": report.passed,
        "a1": [
            {
                "place": e.place,
                "generator": e.generator,
                "generator_order": e.generator_order,
                "value": str(e.value),
                "ok": e.ok,
            }
            for e in report.a1
        ],
        "a2": [
            {
                "generator": e.generator,
                "contributions": [[p, str(v)] for p, v in e.contributions],
                "total": str(e.total),
                "ok": e.ok,
            }
            for e in report.a2
        ],
        "a3": {
            "checked": report.a3.checked,
            "uncovered": [list(u) for u in report.a3.uncovered],
            "ok": report.a3.ok,
        },
    }


def sha_json(result: ShaResult, certificates: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {
        "degree": result.degree,
        "ambient_factors": list(result.ambient.factors),
        "invariant_factors": list(result.factors),
        "order": result.order,
    }
    if certificates:
        out["generators"] = [
            {
                "order": g.order,
                "ambient_coords": list(g.ambient_coords),
                "cochain": cochain_json(g.cochain),
                "local_primitives": {
                    name: cochain_json(c) for name, c in g.local_primitives
                },
            }
            for g in result.generators
        ]
    return out


def trace_json(trace: BMTrace) -> dict[str, Any]:
    return {
        "class_cochain": cochain_json(trace.e),
        "generators": [
            {
                "b": cochain_json(g.b),
                "cup": cochain_json(g.u),
                "gamma": cochain_json(g.gamma),
                "places": [
                    {
                        "place": p.place,
                        "c_v": cochain_json(p.c_v),
                        "w_v": cochain_json(p.w_v),
                        "contribution": str(p.contribution),
                    }
                    for p in g.places
                ],
            }
            for g in trace.generators
        ],
    }


def functional_json(f: BMFunctional, certificates: bool = False) -> dict[str, Any]:
    out: dict[str, Any] = {
        "domain_factors": list(f.sha.factors),
        "values": [str(v) for v in f.values],
        "mu_modulus": f.modulus,
        "is_zero": f.is_zero(),
    }
    if certificates:
        out["domain"] = sha_json(f.sha, certificates=True)
        if f.trace is not None:
            out["trace"] = trace_json(f.trace)
    return out


def factorization_json(rep: FactorizationReport, certificates: bool = False) -> dict[str, Any]:
    return {
        "holds": rep.equal,
        "via_extension": functional_json(rep.via_extension, certificates),
        "via_pushout": functional_json(rep.via_pushout, certificates),
        "differences": [
            {"generator": j, "extension": str(a), "pushout": str(b)}
            for j, a, b in rep.differences
        ],
    }
