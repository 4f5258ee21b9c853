"""Command-line front end.

Commands operate on a JSON document (see :mod:`gerbes.document` for the
format) and print a human-readable report or, with ``--output json``, a
canonical machine-readable document with sorted keys.

Exit codes: 0 success / property holds; 1 a computation found an
obstruction (no local section, an H^3 obstruction, nonzero m_H under
``--expect-zero``, a factorization mismatch); 2 input error, including an
input past a size bound; 3 model axiom failure; 4 internal error, a failed
certificate or self-check, which no input should reach.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Sequence

from . import document as doc
from .arith import check_axioms, search_inv_assignments, sha
from .cochain import cohomology
from .errors import (
    GerbesError,
    GlobalH3Obstruction,
    InputError,
    ModelAxiomFailure,
    NotLocallyNeutral,
)
from .gerbe import (
    GerbeExtension,
    brauer_a,
    brauer_manin,
    class_2cocycle,
    gerbe_dual,
    local_sections,
    verify_factorization,
)


def _positive_int(text: str) -> int:
    """An argparse type: an integer n >= 1, else a usage error (exit 2)."""
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return n


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--certificates", action="store_true",
                        help="include representative cocycles and traces")
    common.add_argument("--expect-zero", action="store_true",
                        help="exit 1 when the computed invariant is nonzero")
    common.add_argument("--max-group-order", type=_positive_int, default=64,
                        help="largest order of a group that acts on coefficients: module "
                             "groups, extension quotients, the model group (default 64)")
    common.add_argument("--mu-enlarge-bound", type=_positive_int, default=1,
                        help="retry H^3 obstructions with mu enlarged up to this factor")
    common.add_argument("--quiet", action="store_true", help="suppress output")

    parser = argparse.ArgumentParser(prog="gerbes", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cohomology", parents=[common], help="H^n(G, M)")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--degree", type=int)

    p = sub.add_parser("dual", parents=[common], help="Hom(H^ab, mu) of a gerbe")
    p.add_argument("file")
    p.add_argument("--extension")

    p = sub.add_parser("sha", parents=[common], help="Tate-Shafarevich kernel")
    p.add_argument("file")
    p.add_argument("--module")
    p.add_argument("--extension")
    p.add_argument("--degree", type=int)

    p = sub.add_parser("model", parents=[common], help="arithmetic model commands")
    p.add_argument("action", choices=("check", "search-inv"))
    p.add_argument("file")
    p.add_argument("--bound", type=_positive_int, default=1_000_000)

    p = sub.add_parser("gerbe", parents=[common], help="gerbe/extension commands")
    p.add_argument("action", choices=("class", "local-sections", "brauer", "mh"))
    p.add_argument("file")
    p.add_argument("--extension")

    p = sub.add_parser("verify", parents=[common], help="verification harnesses")
    p.add_argument("action", choices=("factorization",))
    p.add_argument("file")
    p.add_argument("--extension")

    p = sub.add_parser("selftest", parents=[common], help="run the acceptance suite")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for randomized property tests (never affects results)")
    return parser


def _task_key(args) -> str:
    """The ``tasks`` entry a command reads: its action (``gerbe mh`` reads
    ``mh``), else its name."""
    return getattr(args, "action", args.command)


def _task(args, document: doc.Document, key: str, default=None):
    """The ``--key`` option, else ``key`` in the command's tasks entry, else ``default``."""
    value = getattr(args, key)
    if value is None:
        value = document.tasks.get(_task_key(args), {}).get(key, default)
    return value


def _only(table: dict[str, Any], kind: str, name: str | None):
    if name is not None:
        return name
    if len(table) == 1:
        return next(iter(table))
    raise InputError(
        f"document has {len(table)} {kind} entries; pick one with --{kind} or a tasks entry"
    )


def _extension(args, document: doc.Document) -> tuple[str, GerbeExtension]:
    """The name and the extension a command runs on."""
    name = _only(document.extensions, "extension", _task(args, document, "extension"))
    return name, document.extension(name)


def _report(
    args,
    document: doc.Document,
    result: dict[str, Any],
    text_lines: list[str],
    *,
    task: dict[str, Any] | None = None,
    inputs: dict[str, Any] | None = None,
    model: bool = True,
) -> None:
    """Print a document command's output; under ``--quiet`` print nothing.

    ``--output text`` prints ``text_lines``.  ``--output json`` prints the
    payload of every document command: ``command`` (``gerbe mh``), then
    ``inputs``, which holds the resolved names (``inputs``, by default the
    ``task``) and the echoed ``document``, then ``result``.  The echo, built
    only here, holds the module or extension that ``task`` names, the model
    when ``model``, and ``task`` as its ``tasks`` entry, so running the
    command on it again prints the same bytes.
    """
    if args.quiet:
        return
    if args.output == "text":
        for line in text_lines:
            print(line)
        return
    task = task or {}
    action = getattr(args, "action", None)
    echo = doc.echo_document(
        document,
        module_names=(task["module"],) if "module" in task else (),
        extension_names=(task["extension"],) if "extension" in task else (),
        include_model=model,
        tasks={_task_key(args): task} if task else None,
    )
    sys.stdout.write(doc.canonical_json({
        "command": f"{args.command} {action}" if action else args.command,
        "inputs": {**(task if inputs is None else inputs), "document": echo},
        "result": result,
    }))


def _factors_text(factors: Sequence[int]) -> str:
    if not factors:
        return "0"
    return " x ".join(f"Z/{d}" for d in factors)


def _cmd_cohomology(args, document: doc.Document) -> int:
    name = _only(document.modules, "module", _task(args, document, "module"))
    degree = _task(args, document, "degree", 1)
    h = cohomology(document.module(name), degree)
    _report(args, document, doc.cohomology_json(h, args.certificates), [
        f"H^{degree}(G, {name}) = {_factors_text(h.factors)}",
    ], task={"module": name, "degree": degree}, model=False)
    return 0


def _cmd_dual(args, document: doc.Document) -> int:
    name, ext = _extension(args, document)
    model = document.require_model()
    dd = gerbe_dual(ext, model.mu)
    _report(args, document, doc.module_json(dd.dual, "G"), [
        f"Hom(H^ab, mu) = {_factors_text(dd.dual.carrier.factors)} with Galois action",
    ], task={"extension": name}, inputs={"extension": name, "mu_modulus": model.modulus})
    return 0


def _cmd_sha(args, document: doc.Document) -> int:
    model = document.require_model()
    degree = _task(args, document, "degree", 1)
    label = _task(args, document, "module")
    if label:
        module, task = document.module(label), {"module": label}
    else:
        ext_name, ext = _extension(args, document)
        module, task = gerbe_dual(ext, model.mu).dual, {"extension": ext_name}
        label = f"dual({ext_name})"
    result = sha(model, module, degree)
    _report(args, document, doc.sha_json(result, args.certificates), [
        f"Sha^{degree}(G, {label}) = {_factors_text(result.factors)} "
        f"inside H^{degree} = {_factors_text(result.ambient.factors)}",
    ], task={**task, "degree": degree}, inputs={"module": label, "degree": degree})
    return 0


def _cmd_model(args, document: doc.Document) -> int:
    model = document.require_model()
    if args.action == "check":
        report = check_axioms(model)
        _report(args, document, doc.axiom_report_json(report), [f"axioms: {report.summary()}"])
        return 0 if report.passed else 3
    subgroups = [p.subgroup for p in model.places]
    models = search_inv_assignments(
        model.group, model.mu, subgroups, bound=args.bound,
        chebotarev_complete=model.chebotarev_complete,
    )
    # The library names its places v0, v1, ...; label them as the document does.
    assignments = [
        [[q.name, [str(v) for v in p.inv]] for q, p in zip(model.places, m.places)] for m in models
    ]
    _report(args, document, {"count": len(models), "assignments": assignments}, [
        f"{len(models)} reciprocity-consistent assignments",
        *("  " + "; ".join(f"{name}: {values}" for name, values in a) for a in assignments),
    ])
    return 0


def _cmd_gerbe(args, document: doc.Document) -> int:
    name, ext = _extension(args, document)
    task = {"extension": name}
    if args.action == "class":
        cls = class_2cocycle(ext)
        h2 = cohomology(cls.module, 2)
        coords = list(h2.reduce(cls.cochain))
        result = {
            "kernel_abelianization": list(cls.module.carrier.factors),
            "h2_factors": list(h2.factors),
            "class_coords": coords,
            "is_trivial": not any(coords),
        }
        if args.certificates:
            result["cocycle"] = doc.cochain_json(cls.cochain)
        _report(args, document, result, [
            f"[{name}] in H^2(G, H^ab) = {_factors_text(h2.factors)}: coordinates {coords}",
        ], task=task, model=False)
        return 0
    model = document.require_model()
    if args.action == "local-sections":
        secs = local_sections(ext, model)
        missing = [p.name for p in model.places if not secs[p.name]]
        result = {"counts": {k: len(v) for k, v in secs.items()}, "not_locally_neutral": missing}
        if args.certificates:
            result["sections"] = {k: [list(s.images) for s in v] for k, v in secs.items()}
        _report(args, document, result, [
            *(f"{p.name}: {len(secs[p.name])} splittings" for p in model.places),
            *([f"NOT locally neutral at: {', '.join(missing)}"] if missing else []),
        ], task=task)
        return 1 if missing else 0
    if args.action == "brauer":
        h1 = brauer_a(ext, model.mu)
        _report(args, document, doc.cohomology_json(h1, args.certificates), [
            f"Br_a = H^1(G, Hom(H^ab, mu)) = {_factors_text(h1.factors)}",
        ], task=task)
        return 0
    functional = brauer_manin(
        ext, model,
        mu_enlarge_bound=args.mu_enlarge_bound,
        keep_trace=args.certificates,
    )
    _report(args, document, doc.functional_json(functional, args.certificates), [
        f"Sha^1 domain: {_factors_text(functional.sha.factors)}",
        "m_H values: " + (", ".join(str(v) for v in functional.values) or "(empty functional)"),
    ], task=task)
    return 1 if args.expect_zero and not functional.is_zero() else 0


def _cmd_verify(args, document: doc.Document) -> int:
    name, ext = _extension(args, document)
    report = verify_factorization(ext, document.require_model(), args.mu_enlarge_bound, args.certificates)
    _report(args, document, doc.factorization_json(report, args.certificates), [
        "factorization holds" if report.equal else "factorization FAILS",
        f"m_H values: {[str(v) for v in report.via_extension.values]}",
    ], task={"extension": name})
    return 0 if report.equal else 1


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    report = run_selftest(seed=args.seed)
    results = report.pop("_results")
    if not args.quiet:
        if args.output == "json":
            sys.stdout.write(doc.canonical_json(report))
        else:
            for r in results:
                print(r.line())
            passed = sum(1 for r in results if r.passed)
            print(f"scoreboard: {passed}/{len(results)} criteria passed")
    return 0 if report["all_passed"] else 1


_COMMANDS = {
    "cohomology": _cmd_cohomology,
    "dual": _cmd_dual,
    "sha": _cmd_sha,
    "model": _cmd_model,
    "gerbe": _cmd_gerbe,
    "verify": _cmd_verify,
}


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        document = doc.load_document(args.file, max_group_order=args.max_group_order)
        return _COMMANDS[args.command](args, document)
    except ModelAxiomFailure as exc:
        if not args.quiet:
            print(f"model axiom failure: {exc}", file=sys.stderr)
        return 3
    except (NotLocallyNeutral, GlobalH3Obstruction) as exc:
        if not args.quiet:
            print(f"obstruction: {exc}", file=sys.stderr)
        return 1
    except InputError as exc:
        if not args.quiet:
            print(f"input error: {exc}", file=sys.stderr)
        return 2
    except GerbesError as exc:
        internal = type(exc) is GerbesError
        if not args.quiet:
            print(f"{'internal error' if internal else 'error'}: {exc}", file=sys.stderr)
        return 4 if internal else 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
