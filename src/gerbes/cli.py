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
    brauer_a,
    brauer_manin,
    class_2cocycle,
    gerbe_dual,
    local_sections,
    verify_factorization,
)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; ``parse_args`` leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("text", "json"), default="text")
    common.add_argument("--certificates", action="store_true",
                        help="include representative cocycles and traces")
    common.add_argument("--expect-zero", action="store_true",
                        help="exit 1 when the computed invariant is nonzero")
    common.add_argument("--max-group-order", type=int, default=64,
                        help="largest order of a group that acts on coefficients: module "
                             "groups, extension quotients, the model group (default 64)")
    common.add_argument("--mu-enlarge-bound", type=int, default=1,
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
    p.add_argument("--bound", type=int, default=1_000_000)

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


def _task(document: doc.Document, command: str, key: str, cli_value, default=None):
    if cli_value is not None:
        return cli_value
    task = document.tasks.get(command) or {}
    if key in task:
        return task[key]
    return default


def _only(table: dict[str, Any], kind: str, name: str | None):
    if name is not None:
        return name
    if len(table) == 1:
        return next(iter(table))
    raise InputError(
        f"document has {len(table)} {kind} entries; pick one with --{kind} or a tasks entry"
    )


def _emit(args, payload: dict[str, Any], text_lines: list[str]) -> None:
    if args.quiet:
        return
    if args.output == "json":
        sys.stdout.write(doc.canonical_json(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_cohomology(args, document: doc.Document) -> int:
    name = _only(document.modules, "module", _task(document, "cohomology", "module", args.module))
    degree = _task(document, "cohomology", "degree", args.degree, 1)
    module = document.module(name)
    h = cohomology(module, degree)
    payload = {
        "command": "cohomology",
        "inputs": {
            "module": name,
            "degree": degree,
            "document": doc.echo_document(
                document, module_names=(name,),
                tasks={"cohomology": {"module": name, "degree": degree}},
            ),
        },
        "result": doc.cohomology_json(h, args.certificates),
    }
    _emit(args, payload, [
        f"H^{degree}(G, {name}) = {_factors_text(h.factors)}",
    ])
    return 0


def _factors_text(factors: Sequence[int]) -> str:
    if not factors:
        return "0"
    return " x ".join(f"Z/{d}" for d in factors)


def _cmd_dual(args, document: doc.Document) -> int:
    name = _only(document.extensions, "extension", _task(document, "dual", "extension", args.extension))
    ext = document.extension(name)
    model = document.require_model()
    dd = gerbe_dual(ext, model.mu)
    payload = {
        "command": "dual",
        "inputs": {
            "extension": name,
            "mu_modulus": model.modulus,
            "document": doc.echo_document(
                document, extension_names=(name,), include_model=True,
                tasks={"dual": {"extension": name}},
            ),
        },
        "result": doc.module_json(dd.dual, "G"),
    }
    _emit(args, payload, [
        f"Hom(H^ab, mu) = {_factors_text(dd.dual.carrier.factors)} with Galois action",
    ])
    return 0


def _cmd_sha(args, document: doc.Document) -> int:
    model = document.require_model()
    degree = _task(document, "sha", "degree", args.degree, 1)
    mod_name = _task(document, "sha", "module", args.module)
    ext_name = _task(document, "sha", "extension", args.extension)
    if mod_name:
        module = document.module(mod_name)
        label = mod_name
    else:
        ext_name = _only(document.extensions, "extension", ext_name)
        module = gerbe_dual(document.extension(ext_name), model.mu).dual
        label = f"dual({ext_name})"
    result = sha(model, module, degree)
    task = {"module": mod_name, "degree": degree} if mod_name else {"extension": ext_name, "degree": degree}
    payload = {
        "command": "sha",
        "inputs": {
            "module": label,
            "degree": degree,
            "document": doc.echo_document(
                document,
                module_names=(mod_name,) if mod_name else (),
                extension_names=() if mod_name else (ext_name,),
                include_model=True,
                tasks={"sha": task},
            ),
        },
        "result": doc.sha_json(result, args.certificates),
    }
    _emit(args, payload, [
        f"Sha^{degree}(G, {label}) = {_factors_text(result.factors)} "
        f"inside H^{degree} = {_factors_text(result.ambient.factors)}",
    ])
    return 0


def _cmd_model(args, document: doc.Document) -> int:
    model = document.require_model()
    if args.action == "check":
        report = check_axioms(model)
        payload = {
            "command": "model check",
            "inputs": {"document": doc.echo_document(document, include_model=True)},
            "result": doc.axiom_report_json(report),
        }
        _emit(args, payload, [f"axioms: {report.summary()}"])
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
    payload = {
        "command": "model search-inv",
        "inputs": {"document": doc.echo_document(document, include_model=True)},
        "result": {"count": len(models), "assignments": assignments},
    }
    _emit(args, payload, [f"{len(models)} reciprocity-consistent assignments"] + [
        "  " + "; ".join(f"{name}: {values}" for name, values in a) for a in assignments
    ])
    return 0


def _cmd_gerbe(args, document: doc.Document) -> int:
    name = _only(document.extensions, "extension", _task(document, args.action, "extension", args.extension))
    ext = document.extension(name)
    if args.action == "class":
        cls = class_2cocycle(ext)
        h2 = cohomology(cls.module, 2)
        coords = h2.reduce(cls.cochain)
        payload = {
            "command": "gerbe class",
            "inputs": {
                "extension": name,
                "document": doc.echo_document(
                    document, extension_names=(name,),
                    tasks={"class": {"extension": name}},
                ),
            },
            "result": {
                "kernel_abelianization": list(cls.module.carrier.factors),
                "h2_factors": list(h2.factors),
                "class_coords": list(coords),
                "is_trivial": not any(coords),
            },
        }
        if args.certificates:
            payload["result"]["cocycle"] = doc.cochain_json(cls.cochain)
        _emit(args, payload, [
            f"[{name}] in H^2(G, H^ab) = {_factors_text(h2.factors)}: coordinates {list(coords)}",
        ])
        return 0
    model = document.require_model()
    if args.action == "local-sections":
        secs = local_sections(ext, model)
        missing = [p.name for p in model.places if not secs[p.name]]
        payload = {
            "command": "gerbe local-sections",
            "inputs": {
                "extension": name,
                "document": doc.echo_document(
                    document, extension_names=(name,), include_model=True,
                    tasks={"local-sections": {"extension": name}},
                ),
            },
            "result": {
                "counts": {k: len(v) for k, v in secs.items()},
                "not_locally_neutral": missing,
            },
        }
        if args.certificates:
            payload["result"]["sections"] = {
                k: [list(s.images) for s in v] for k, v in secs.items()
            }
        _emit(args, payload, [
            f"{p.name}: {len(secs[p.name])} splittings" for p in model.places
        ] + ([f"NOT locally neutral at: {', '.join(missing)}"] if missing else []))
        return 1 if missing else 0
    if args.action == "brauer":
        h1 = brauer_a(ext, model.mu)
        payload = {
            "command": "gerbe brauer",
            "inputs": {
                "extension": name,
                "document": doc.echo_document(
                    document, extension_names=(name,), include_model=True,
                    tasks={"brauer": {"extension": name}},
                ),
            },
            "result": doc.cohomology_json(h1, args.certificates),
        }
        _emit(args, payload, [f"Br_a = H^1(G, Hom(H^ab, mu)) = {_factors_text(h1.factors)}"])
        return 0
    functional = brauer_manin(
        ext, model,
        mu_enlarge_bound=args.mu_enlarge_bound,
        keep_trace=args.certificates,
    )
    payload = {
        "command": "gerbe mh",
        "inputs": {
            "extension": name,
            "document": doc.echo_document(
                document, extension_names=(name,), include_model=True,
                tasks={"mh": {"extension": name}},
            ),
        },
        "result": doc.functional_json(functional, args.certificates),
    }
    lines = [
        f"Sha^1 domain: {_factors_text(functional.sha.factors)}",
        "m_H values: " + (", ".join(str(v) for v in functional.values) or "(empty functional)"),
    ]
    _emit(args, payload, lines)
    if args.expect_zero and not functional.is_zero():
        return 1
    return 0


def _cmd_verify(args, document: doc.Document) -> int:
    name = _only(document.extensions, "extension", _task(document, "factorization", "extension", args.extension))
    ext = document.extension(name)
    model = document.require_model()
    report = verify_factorization(ext, model, args.mu_enlarge_bound, args.certificates)
    payload = {
        "command": "verify factorization",
        "inputs": {
            "extension": name,
            "document": doc.echo_document(
                document, extension_names=(name,), include_model=True,
                tasks={"factorization": {"extension": name}},
            ),
        },
        "result": doc.factorization_json(report, args.certificates),
    }
    lines = [
        "factorization holds" if report.equal else "factorization FAILS",
        f"m_H values: {[str(v) for v in report.via_extension.values]}",
    ]
    _emit(args, payload, lines)
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


def run(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "selftest":
            return _cmd_selftest(args)
        document = doc.load_document(args.file, max_group_order=args.max_group_order)
        if args.command == "cohomology":
            return _cmd_cohomology(args, document)
        if args.command == "dual":
            return _cmd_dual(args, document)
        if args.command == "sha":
            return _cmd_sha(args, document)
        if args.command == "model":
            return _cmd_model(args, document)
        if args.command == "gerbe":
            return _cmd_gerbe(args, document)
        if args.command == "verify":
            return _cmd_verify(args, document)
        raise InputError(f"unknown command {args.command!r}")
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
