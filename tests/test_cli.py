import contextlib
import copy
import hashlib
import io
import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbes.cli import run
from gerbes.document import canonical_json


@pytest.fixture()
def witness_path(tmp_path):
    raw = resources.files("gerbes.data").joinpath("witness_document.json").read_text()
    path = tmp_path / "witness.json"
    path.write_text(raw)
    return str(path)


@pytest.fixture()
def bad_model_path(tmp_path):
    doc = {
        "groups": {"G": {"table": [[0, 1], [1, 0]]}},
        "model": {
            "group": "G",
            "mu": {"modulus": 2},
            "places": [{"name": "v", "subgroup": [0, 1], "inv": ["1/2"]}],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(canonical_json(doc))
    return str(path)


def test_model_check_exit_codes(witness_path, bad_model_path, capsys):
    assert run(["model", "check", witness_path]) == 0
    assert run(["model", "check", bad_model_path]) == 3
    out = capsys.readouterr().out
    assert "A2 FAIL" in out


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    assert run(["model", "check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


def test_unresolved_reference_exit_code(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"groups": {}, "tasks": {"cohomology": {"module": "M"}}}))
    assert run(["cohomology", str(path)]) == 2


def test_cohomology_command(witness_path, capsys):
    path = witness_path
    # No module in the witness doc; use an explicit small document instead.
    doc = {
        "groups": {"G": {"table": [[0, 1], [1, 0]]}},
        "modules": {"M": {"group": "G", "factors": [2]}},
        "tasks": {"cohomology": {"module": "M", "degree": 1}},
    }
    import os

    p2 = os.path.join(os.path.dirname(path), "coh.json")
    with open(p2, "w") as fh:
        json.dump(doc, fh)
    assert run(["cohomology", p2]) == 0
    assert "Z/2" in capsys.readouterr().out
    assert run(["cohomology", p2, "--degree", "2", "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["invariant_factors"] == [2]


def test_mh_and_expect_zero(witness_path, capsys):
    assert run(["gerbe", "mh", witness_path]) == 0
    assert "1/2" in capsys.readouterr().out
    assert run(["gerbe", "mh", witness_path, "--expect-zero", "--quiet"]) == 1


def test_verify_factorization_command(witness_path, capsys):
    assert run(["verify", "factorization", witness_path]) == 0
    assert "factorization holds" in capsys.readouterr().out


def test_local_sections_and_class(witness_path, capsys):
    assert run(["gerbe", "local-sections", witness_path]) == 0
    capsys.readouterr()
    assert run(["gerbe", "class", witness_path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["class_coords"] == [2]
    assert payload["result"]["is_trivial"] is False


def test_not_locally_neutral_exit(tmp_path, capsys):
    doc = {
        "groups": {
            "G": {"table": [[0, 1], [1, 0]]},
            "H": {"table": [[0, 1], [1, 0]]},
            "T": {"table": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]},
        },
        "extensions": {
            "E": {"total": "T", "quotient": "G", "kernel": "H",
                   "projection": [0, 1, 0, 1], "injection": [0, 2]}
        },
        "model": {
            "group": "G",
            "mu": {"modulus": 2},
            "places": [
                {"name": "v1", "subgroup": [0, 1], "inv": ["1/2"]},
                {"name": "v2", "subgroup": [0, 1], "inv": ["1/2"]},
            ],
        },
    }
    path = tmp_path / "nonneutral.json"
    path.write_text(json.dumps(doc))
    assert run(["gerbe", "local-sections", str(path)]) == 1
    capsys.readouterr()
    assert run(["gerbe", "mh", str(path), "--quiet"]) == 1


def test_verify_factorization_honours_mu_enlarge_bound(tmp_path, capsys):
    """Z/4 over Z/2 with mu = Z/2 and one trivial place: the cup cocycle
    only becomes a coboundary with mu enlarged to Z/4, on both sides."""
    c2 = [[0, 1], [1, 0]]
    doc = {
        "groups": {
            "G": {"table": c2},
            "H": {"table": c2},
            "T": {"table": [[(i + j) % 4 for j in range(4)] for i in range(4)]},
        },
        "extensions": {
            "E": {"total": "T", "quotient": "G", "kernel": "H",
                  "projection": [0, 1, 0, 1], "injection": [0, 2]}
        },
        "model": {
            "group": "G",
            "mu": {"modulus": 2},
            "places": [{"name": "t", "subgroup": [0], "inv": []}],
        },
    }
    path = tmp_path / "h3.json"
    path.write_text(json.dumps(doc))
    argv = [str(path), "--mu-enlarge-bound", "2", "--output", "json"]
    assert run(["gerbe", "mh", *argv]) == 0
    mh = json.loads(capsys.readouterr().out)["result"]
    assert mh["mu_modulus"] == 4 and mh["is_zero"]
    assert run(["verify", "factorization", *argv]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["holds"] is True
    for side in ("via_extension", "via_pushout"):
        assert result[side] == mh
    assert run(["verify", "factorization", str(path), "--quiet"]) == 1


def test_json_outputs_are_deterministic(witness_path, capsys):
    outs = []
    for _ in range(2):
        assert run(["gerbe", "mh", witness_path, "--output", "json", "--certificates"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    for _ in range(2):
        assert run(["sha", witness_path, "--output", "json", "--certificates"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[2] == outs[3]


def test_dual_and_search_inv(witness_path, capsys):
    assert run(["dual", witness_path]) == 0
    assert "Z/4" in capsys.readouterr().out
    assert run(["model", "search-inv", witness_path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["count"] == 2


def test_q8_document_commands(tmp_path, capsys):
    raw = resources.files("gerbes.data").joinpath("q8_document.json").read_text()
    path = tmp_path / "q8.json"
    path.write_text(raw)
    assert run(["verify", "factorization", str(path)]) == 0
    assert "factorization holds" in capsys.readouterr().out
    assert run(["gerbe", "mh", str(path), "--expect-zero", "--quiet"]) == 0
    assert run(["dual", str(path)]) == 0
    assert "Z/2 x Z/2" in capsys.readouterr().out
    assert run(["gerbe", "class", str(path), "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result"]["is_trivial"] is True  # semidirect products split
    # search-inv labels assignments with the document's place names.
    assert run(["model", "search-inv", str(path), "--output", "json"]) == 0
    assignments = json.loads(capsys.readouterr().out)["result"]["assignments"]
    assert assignments and all([name for name, _ in a] == ["p1", "p2", "p3"] for a in assignments)
    assert run(["model", "search-inv", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    assert lines and all(line.startswith("  p1: ") for line in lines)


def test_json_output_round_trips(witness_path, tmp_path, capsys):
    """Re-ingesting the echoed inputs reproduces identical results."""
    assert run(["gerbe", "mh", witness_path, "--output", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    echoed = payload["inputs"]["document"]
    path = tmp_path / "echo.json"
    path.write_text(json.dumps(echoed))
    assert run(["gerbe", "mh", str(path), "--output", "json"]) == 0
    payload2 = json.loads(capsys.readouterr().out)
    assert payload2["result"] == payload["result"]

    assert run(["sha", witness_path, "--output", "json", "--certificates"]) == 0
    payload = json.loads(capsys.readouterr().out)
    path2 = tmp_path / "echo2.json"
    path2.write_text(json.dumps(payload["inputs"]["document"]))
    assert run(["sha", str(path2), "--output", "json", "--certificates"]) == 0
    payload2 = json.loads(capsys.readouterr().out)
    assert payload2["result"] == payload["result"]

    # Every document command on both shipped documents: the echoed document
    # alone reproduces the whole stdout, inputs included, byte for byte.
    for docname, command in sorted(TEXT_DIGESTS):
        argv = [*command.split(), "--output", "json", "--certificates"]
        raw = resources.files("gerbes.data").joinpath(f"{docname}_document.json").read_text()
        path = tmp_path / "shipped.json"
        path.write_text(raw)
        assert run([*argv, str(path)]) == 0
        out = capsys.readouterr().out
        path = tmp_path / "echoed.json"
        path.write_text(json.dumps(json.loads(out)["inputs"]["document"]))
        assert run([*argv, str(path)]) == 0
        assert capsys.readouterr().out == out, (docname, command)


DOCUMENT_COMMANDS = [
    ["cohomology"], ["dual"], ["sha"], ["model", "check"], ["model", "search-inv"],
    ["gerbe", "class"], ["gerbe", "local-sections"], ["gerbe", "brauer"], ["gerbe", "mh"],
    ["verify", "factorization"],
]


def _set(path, value):
    def mutate(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    mutate.path = path
    return mutate


def _named(path):
    """The entity that a refusal of the witness document's field at ``path``
    must name, as ``gerbes.document`` labels it."""
    section, *rest = path
    if section == "tasks":
        return "task"
    if section != "model":
        maps = [key for key in rest[1:2] if key in ("projection", "injection")]
        return ": ".join([f"{section[:-1]} {rest[0]!r}", *maps])
    if rest[:1] == ["mu"]:
        return "model: mu"
    if rest[:1] == ["places"] and len(rest) > 2:
        return f"model: place {rest[1]}" if rest[2] == "name" else f"model: place 'v{rest[1]}'"
    return "model"


MALFORMED = {
    "place-as-list": _set(["model", "places"], [[0, 1]]),
    "mu-as-number": _set(["model", "mu"], 5),
    "non-integer-factor": _set(["modules", "M", "factors"], ["x"]),
    "float-invariant": _set(["model", "places", 0, "inv"], [0.5]),
    "subgroup-out-of-range": _set(["model", "places", 0, "subgroup"], [0, 99]),
    "character-key": _set(["model", "mu", "character"], {"x": 3}),
    "task-not-object": _set(["tasks"], {"mh": 3}),
    "chebotarev-not-boolean": _set(["model", "chebotarev_complete"], "no"),
    "task-degree-string": _set(["tasks", "cohomology", "degree"], "x"),
    "task-degree-null": _set(["tasks", "cohomology", "degree"], None),
    "task-sha-degree-string": _set(["tasks", "sha", "degree"], "x"),
    "task-extension-list": _set(["tasks", "mh", "extension"], []),
    "place-name-number": _set(["model", "places", 0, "name"], 0),
    "modulus-float": _set(["model", "mu", "modulus"], 4.5),
    "subgroup-float": _set(["model", "places", 0, "subgroup"], [0, 2.9]),
    "character-float": _set(["model", "mu", "character", "1"], 3.9),
    "character-key-signed": _set(["model", "mu", "character"], {"+1": 3, "3": 3}),
    "action-float": _set(["modules", "M", "action", "1"], [[3.2]]),
    "action-key-signed": _set(["modules", "M", "action"], {"+1": [[3]], "3": [[3]]}),
    "action-entry-string": _set(["modules", "M", "action", "1"], [["3"]]),
    "action-entry-null": _set(["modules", "M", "action", "1"], [[None]]),
    "action-entry-nested": _set(["modules", "M", "action", "1"], [[[3]]]),
    "character-string": _set(["model", "mu", "character", "1"], "3"),
    "character-list": _set(["model", "mu", "character", "1"], [3]),
    "character-null": _set(["model", "mu", "character", "1"], None),
    "character-bool": _set(["model", "mu", "character", "1"], True),
    "factor-float": _set(["modules", "M", "factors"], [4.0]),
    "projection-float": _set(["extensions", "E", "projection", 1], 1.5),
    "injection-float": _set(["extensions", "E", "injection", 1], 4.0),
    "table-float": _set(["groups", "G", "table", 1, 1], 2.0),
    "table-half": _set(["groups", "G", "table", 1, 1], 0.5),
    "table-bool": _set(["groups", "G", "table", 1, 0], True),
    "table-string": _set(["groups", "G", "table", 1, 1], "0"),
    "permutations-float": _set(["groups", "P"], {"permutations": [[1.0, 0]]}),
    "permutations-bool": _set(["groups", "P"], {"permutations": [[True, 0]]}),
    "permutations-string": _set(["groups", "P"], {"permutations": [["1", "0"]]}),
    "invariant-number": _set(["model", "places", 0, "inv"], [3]),
    "invariant-signed-denominator": _set(["model", "places", 0, "inv"], ["1/-2"]),
    "invariant-non-ascii-digit": _set(["model", "places", 0, "inv"], ["\u0661/2"]),
    "invariant-unreduced": _set(["model", "places", 0, "inv"], ["2/4"]),
    "invariant-string": _set(["model", "places", 0, "inv"], "0"),
    "invariant-object": _set(["model", "places", 0, "inv"], {"0": 1}),
    "factor-huge": _set(["modules", "M", "factors"], [10**30]),
    "table-non-associative": _set(["groups", "Q"], {"table": [[0, 1, 2], [1, 0, 2], [2, 2, 0]]}),
    "permutations-past-bound": _set(
        ["groups", "P"], {"permutations": [[1, 2, 3, 4, 5, 6, 7, 0], [1, 0, 2, 3, 4, 5, 6, 7]]}
    ),
    "subgroup-not-closed": _set(["model", "places", 1, "subgroup"], [0, 3]),
    "projection-not-homomorphism": _set(["extensions", "E", "projection", 1], 2),
    "injection-not-homomorphism": _set(["extensions", "E", "injection", 1], 0),
}


@pytest.mark.parametrize("probe", sorted(MALFORMED))
def test_malformed_document_exits_2(probe, tmp_path, capsys):
    doc = json.loads(resources.files("gerbes.data").joinpath("witness_document.json").read_text())
    MALFORMED[probe](doc)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(["gerbe", "mh", str(path), "--expect-zero"]) == 2
    err = capsys.readouterr().err
    assert "error" in err
    assert _named(MALFORMED[probe].path) in err, err


def _stdout(doc, argv, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    rc = run([*argv, str(path), "--output", "json"])
    return rc, capsys.readouterr().out


def test_unreduced_action_entries_act_as_their_residues(tmp_path, capsys):
    doc = json.loads(resources.files("gerbes.data").joinpath("witness_document.json").read_text())
    want = _stdout(doc, ["cohomology"], tmp_path, capsys)
    # 2**64 + 3 == 3 mod 4: the same module, past the int64 range.
    doc["modules"]["M"]["action"] = {"1": [[2**64 + 3]], "3": [[2**64 + 3]]}
    assert _stdout(doc, ["cohomology"], tmp_path, capsys) == want
    assert want[0] == 0


@pytest.mark.parametrize("entry", [2**63 - 1, 10**30 + 1])
def test_large_action_entries_give_the_factors_of_their_residues(entry, tmp_path, capsys):
    def factors(e, degree):
        doc = {
            "groups": {"G": {"table": [[0, 1], [1, 0]]}},
            "modules": {"M": {"group": "G", "factors": [3, 9], "action": {"1": [[e, 0], [0, 8]]}}},
        }
        rc, out = _stdout(doc, ["cohomology", "--degree", str(degree)], tmp_path, capsys)
        assert rc == 0
        return json.loads(out)["result"]["invariant_factors"]

    for degree in (0, 1, 2):
        assert factors(entry, degree) == factors(entry % 3, degree)


def test_internal_errors_exit_4(witness_path, monkeypatch, capsys):
    import gerbes.cli
    from gerbes.errors import GerbesError, SizeBound

    def fail(*args, **kwargs):
        raise GerbesError("x")

    monkeypatch.setattr(gerbes.cli, "sha", fail)
    assert run(["sha", witness_path]) == 4
    assert "internal error: x" in capsys.readouterr().err

    def bound(*args, **kwargs):
        raise SizeBound("y")

    monkeypatch.setattr(gerbes.cli, "sha", bound)
    assert run(["sha", witness_path]) == 2
    assert "internal error" not in capsys.readouterr().err


def test_a_named_refusal_keeps_its_exit_code(witness_path, monkeypatch, capsys):
    """The entity label goes in front of a refusal's message and leaves its
    type alone, so an internal error while building a map still exits 4."""
    import gerbes.document
    from gerbes.errors import GerbesError

    def fail(*args, **kwargs):
        raise GerbesError("x")

    monkeypatch.setattr(gerbes.document, "GroupHom", fail)
    assert run(["gerbe", "mh", witness_path]) == 4
    assert "internal error: extension 'E': projection: x" in capsys.readouterr().err



def test_a_dropped_column_operation_exits_4(witness_path, monkeypatch, capsys):
    """A Smith elimination that skips one column operation on V and V_inv
    (inside ``kernel_mod``, which tracks no U) fails the kernel certificate,
    which the CLI reports as an internal error."""
    from gerbes import cochain, linalg

    inside, dropped = [], []
    kernel_mod, reduce = linalg.kernel_mod, linalg._Transform.reduce

    def kernel(a, e):
        inside.append(True)
        try:
            return kernel_mod(a, e)
        finally:
            inside.pop()

    def skip_first(self, t, q):
        if inside and not dropped:
            dropped.append(t)
            return
        reduce(self, t, q)

    monkeypatch.setattr(cochain, "kernel_mod", kernel)
    monkeypatch.setattr(linalg._Transform, "reduce", skip_first)
    assert run(["model", "check", witness_path]) == 4
    assert dropped
    assert "internal error: kernel" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["model", "search-inv", "--bound", "-1"],
        ["model", "check", "--max-group-order", "0"],
        ["gerbe", "mh", "--mu-enlarge-bound", "-3"],
        ["gerbe", "mh", "--mu-enlarge-bound", "two"],
    ],
)
def test_count_flags_below_one_are_usage_errors(argv, witness_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run([*argv[:-2], witness_path, *argv[-2:]])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {argv[-2]}: expected an integer >= 1, got '{argv[-1]}'" in err


def test_splitting_search_bound_names_its_count(witness_path, monkeypatch, capsys):
    """The crossed-homomorphism search is refused before it enumerates,
    with its candidate count and the bound in the message."""
    import gerbes.gerbe

    monkeypatch.setattr(gerbes.gerbe, "SPLITTING_SEARCH_BOUND", 3)
    assert run(["gerbe", "local-sections", witness_path]) == 2
    assert "has 4 candidates, past SPLITTING_SEARCH_BOUND = 3" in capsys.readouterr().err

SHIPPED = {
    name: json.loads(resources.files("gerbes.data").joinpath(f"{name}_document.json").read_text())
    for name in ("witness", "q8")
}
FUZZ_VALUES = ["x", -1, 10**30, None, [], {}, 1.5, True, 2**64 + 3]


@st.composite
def fuzzed_documents(draw):
    """A shipped document with one JSON path set to a junk value.

    The path is a random walk from the root that stops at each level with
    probability 1/2, so shallow fields are not drowned out by table cells.
    """
    doc = copy.deepcopy(SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))])
    node, path = doc, []
    while isinstance(node, (dict, list)) and node and not (path and draw(st.booleans())):
        path.append(draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node)))))
        node = node[path[-1]]
    _set(path, draw(st.sampled_from(FUZZ_VALUES)))(doc)
    return doc


@given(fuzzed_documents(), st.sampled_from(DOCUMENT_COMMANDS))
@settings(derandomize=True, deadline=None, max_examples=600)
def test_fuzzed_document_exits_cleanly(doc, command):
    """No mutated document makes a command raise or leave the exit-code range."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = run([*command, path, "--output", "json"])
    assert rc in (0, 1, 2, 3)


@pytest.mark.parametrize("command", DOCUMENT_COMMANDS, ids=" ".join)
def test_max_group_order_bounds_every_command(command, witness_path, capsys):
    assert run([*command, witness_path, "--max-group-order", "2"]) == 2
    assert "order 4" in capsys.readouterr().err


# SHA-256 of stdout for `COMMAND DOC --output json --certificates` on the
# shipped documents and on the C10 document of the mh-cyclic benchmark
# (tests/data): the byte-stable output contract.  Change a digest only with
# a deliberate change of the output.  q8 has no module for `cohomology`.
TEST_DATA = Path(__file__).parent / "data"
OUTPUT_DIGESTS = {
    ("cyclic_c10", "gerbe mh"): "532faf1d6c796a172132765c0f73939dc7c82ef477aec39e97a9a7994ca48034",
    ("cyclic_c10", "verify factorization"): "849187e8a2e046186e356bf56cb2c394bd06bc3c46fe7eb21114ca921b39e2d4",
    ("cyclic_c10", "model check"): "e250dd21ef59f4f0af1099a7a4d9147a946d0d251f4c0eb9792faaea02020cb0",
    ("witness", "cohomology"): "7ad14cd84edce23cd574a8d999b3e99bae0eda8ff6e27ae97eeb0a8ef6e196de",
    ("witness", "dual"): "f796ab6d43e3e10bb47d48f528ff9ef687cda944580dcb4e99bc608e4c6e4218",
    ("witness", "sha"): "ba4572842c9f3a556c65bc8a2d08e3407adab9e3de3249c2096ffb83404ced93",
    ("witness", "model check"): "f5ca0bcfba56d1c252b91727b446756fbb275411605aa89d397da7329d455c0f",
    ("witness", "model search-inv"): "1348179d54b6dc8af89595ef8bcdaa65758adcdeeafd4852414dbdd2af7ae929",
    ("witness", "gerbe class"): "60a388bed60f3e7ec443835cc6a635b0542c8b4fb7141aab1fa1597def7a9bc0",
    ("witness", "gerbe local-sections"): "5da04d8e1e14ed1e192a1a8f5b19d2758cd177b536e15b6aee279bbf7abca818",
    ("witness", "gerbe brauer"): "a13b9dee5b393e14bbae78e78fce7b429c32d5464c1af82226eb267565ddd1fa",
    ("witness", "gerbe mh"): "6b8ebd4d157d43b5d31ea06838bbb6be86f9b6f1c7e9fd8dad21feaf16697fa6",
    ("witness", "verify factorization"): "29047c4435fcb4013cfefa7f52a103e818d24f4ef96c0773420c363bd5620480",
    ("q8", "dual"): "9cb03fd96d5e69449558167d8aadd84524964dc968559245ed80f0817c98f6af",
    ("q8", "sha"): "ff8d3fe9ff422b0e64ba1fa8acc6f578597699a4f69aa63f3db2dd4039f4892b",
    ("q8", "model check"): "306e0f28c9c3d8a420989fa01e3f9676cea70de741669ef17adb43c63d2ff4d4",
    ("q8", "model search-inv"): "ff3af4d7db83f94daa586ada39f99d5200f560b393df65838e3040d5956aed9f",
    ("q8", "gerbe class"): "2d0d0fad4a5646a6c12e1a85e4472acaf62f270728bfc42ddb26d67b35b8cbdf",
    ("q8", "gerbe local-sections"): "ac8d2a9e48529fb5cf03870abb4df0f8438d7e504981c26e6b36852f9f916c88",
    ("q8", "gerbe brauer"): "f2cc54faecb8ffb2704ad4ae57bbea336c57cb97ac8e867e57a4f0c5d8cda69a",
    ("q8", "gerbe mh"): "da554e69ec482c7f3d95d5e636bd20684900ca93e867380d835c58f414d5af12",
    ("q8", "verify factorization"): "921b1682ac2f918f427849ea2bfb62634852d7838d785f7f8c707afc87868174",
}


@pytest.mark.parametrize("key", sorted(OUTPUT_DIGESTS), ids=lambda k: "-".join(k))
def test_json_certificate_output_bytes(key, tmp_path, capsys):
    docname, command = key
    data = TEST_DATA if docname == "cyclic_c10" else resources.files("gerbes.data")
    raw = data.joinpath(f"{docname}_document.json").read_text()
    path = tmp_path / "doc.json"
    path.write_text(raw)
    assert run([*command.split(), str(path), "--output", "json", "--certificates"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[key]


# SHA-256 of stdout for `COMMAND DOC --output text` on the shipped documents;
# change one only with a deliberate change of the text.
TEXT_DIGESTS = {
    ("witness", "cohomology"): "6be44784fe76017a922877fcaea59654cb94006c020dab7fcb0c00f677449b16",
    ("witness", "dual"): "59acc6d0258882ba4f3b460b9d3bc5782d913bd175bd2931aebcc1cbeffeda44",
    ("witness", "sha"): "8e62e9ccc56d09196a76ac025dfa946eee7fd786be3294955dd6269b707fcd32",
    ("witness", "model check"): "9d2e3f183152933323a12d54f25d9d94ecf42194d2c8a1f3737d330f98dabe73",
    ("witness", "model search-inv"): "f5c48d24acce4502d7675562d3bce917a6b0e8a5a1c89aff1278fdb8fbf89098",
    ("witness", "gerbe class"): "113d1c50835ef2473217e5f0b407c51ebdb1561b7719cadf0dc456b68105a8df",
    ("witness", "gerbe local-sections"): "3ec5f1e6e6c5a7c03612faabf7a19e43454b87474472a4ac4b37c325d6c97405",
    ("witness", "gerbe brauer"): "00d5fb12e49c65e011b1c90b305b027101da46768faba532606bb03fefbacf41",
    ("witness", "gerbe mh"): "a3553540290518b24bf4f524a6006966d748fac03ef344e9936ad7efcf57b3fe",
    ("witness", "verify factorization"): "793269c3a5254c2a9afabbf4e1f409b21cf16d13829c5c8e695e274908983644",
    ("q8", "dual"): "ee0d7d7ea2db23c8798985ef0ec8a8d8fdf1c33c8f8ed092f4eb70dae3d92438",
    ("q8", "sha"): "07ad87de74a1f74c25bee098c5885bbd78320b4b82781df1c11345f6921f2f33",
    ("q8", "model check"): "9d2e3f183152933323a12d54f25d9d94ecf42194d2c8a1f3737d330f98dabe73",
    ("q8", "model search-inv"): "9eae1c95d87b2c0ebda0f6b7693c8cf58f051f618dda5550c7131b164c60c71d",
    ("q8", "gerbe class"): "b0d4fa0f24a2411ba2da14028a96c0bb7ce287893ba6d8312707468b680b9265",
    ("q8", "gerbe local-sections"): "04ed17fb3353ec52eed94b45d2195da1e7351e8ac394790184933adc8cd3383b",
    ("q8", "gerbe brauer"): "00d5fb12e49c65e011b1c90b305b027101da46768faba532606bb03fefbacf41",
    ("q8", "gerbe mh"): "8603ceae7b29df94481aac8a29c58be5e487f5c0c5ea2cb956526474ae8d63e4",
    ("q8", "verify factorization"): "3ab3bd52d7747706061b309b09572322740a9c5311f4c1f5a23834da3b5e04de",
}


@pytest.mark.parametrize("key", sorted(TEXT_DIGESTS), ids=lambda k: "-".join(k))
def test_text_output_bytes(key, tmp_path, capsys):
    docname, command = key
    raw = resources.files("gerbes.data").joinpath(f"{docname}_document.json").read_text()
    path = tmp_path / "doc.json"
    path.write_text(raw)
    assert run([*command.split(), str(path), "--output", "text"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == TEXT_DIGESTS[key]


def test_cli_import_loads_only_the_pipeline_modules():
    """Importing the front end loads the modules a document command needs and
    no more: the selftest, its fixtures, the search and the oracle load only
    when a command asks for them."""
    import subprocess
    import sys

    import gerbes

    src = str(Path(gerbes.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = "import sys, gerbes.cli; print(*sorted(m for m in sys.modules if m.startswith('gerbes.')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    loaded = {m.removeprefix("gerbes.") for m in proc.stdout.split()}
    assert loaded == {
        "arith", "cli", "cochain", "document", "errors", "finab", "gerbe", "groups", "linalg", "modules",
    }


def test_parser_is_built_once_per_process():
    from gerbes import cli

    assert cli._parser() is cli._parser()


def test_seed_is_a_selftest_option(witness_path):
    """Only selftest reads --seed, so only selftest accepts it."""
    from gerbes import cli

    assert cli._parser().parse_args(["selftest", "--seed", "3"]).seed == 3
    for command in DOCUMENT_COMMANDS:
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli._parser().parse_args([*command, witness_path, "--seed", "3"])
        assert exc.value.code == 2, command


def _cyclic_model_document(n: int) -> dict:
    """A model over C_n (n = 2 mod 4) with mu = Z/4, odd elements acting by -1,
    places at the index-2 subgroup (odd order, so its H^2 vanishes) and at 1."""
    return {
        "groups": {"G": {"table": [[(a + b) % n for b in range(n)] for a in range(n)]}},
        "model": {
            "group": "G",
            "mu": {"modulus": 4, "character": {str(x): 3 for x in range(1, n, 2)}},
            "places": [
                {"name": "v0", "subgroup": list(range(0, n, 2)), "inv": []},
                {"name": "v1", "subgroup": [0], "inv": []},
            ],
        },
    }


def test_model_check_past_the_column_bound_exits_2_fast(tmp_path, capsys):
    """The global H^2(C22, Z/4(-1)) has 441 cochain coordinates, past the
    kernel column bound, so `model check` is refused instead of running for
    more than ten minutes."""
    import time

    path = tmp_path / "c22.json"
    path.write_text(canonical_json(_cyclic_model_document(22)))
    start = time.perf_counter()
    assert run(["model", "check", str(path)]) == 2
    assert time.perf_counter() - start < 2.0
    assert "441 cochain coordinates" in capsys.readouterr().err


WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _benchmark_workloads():
    """perfbench/workloads.py loaded by path, with its sibling imports."""
    import importlib.util
    import sys

    added = [name for name in ("inputs", "oracle") if name not in sys.modules]
    sys.path.insert(0, str(WORKLOADS.parent))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
        workloads = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        sys.path.remove(str(WORKLOADS.parent))
        for name in added:
            sys.modules.pop(name, None)
    return workloads


def test_mh_and_factorization_cope_at_c62(tmp_path, capsys):
    """m_H on the benchmark's C62 document.  Its degree-3 solve has 61
    generator coordinates, and its cocycle check reads 61^3 slots, not the
    61^4 that passed the plan bound."""
    import random
    import time

    doc = _benchmark_workloads().cyclic_document(62, random.Random(0))
    path = tmp_path / "c62.json"
    path.write_text(canonical_json(doc))
    start = time.perf_counter()
    assert run(["gerbe", "mh", str(path), "--output", "json"]) == 0
    mh = json.loads(capsys.readouterr().out)["result"]
    assert run(["verify", "factorization", str(path), "--output", "json"]) == 0
    check = json.loads(capsys.readouterr().out)["result"]
    assert time.perf_counter() - start < 60.0
    assert mh["domain_factors"] == [2] and mh["values"] == ["0/1"]
    assert check["holds"]
    for side in (check["via_extension"], check["via_pushout"]):
        assert side["domain_factors"] == [2] and side["values"] == ["0/1"]


@pytest.mark.parametrize("docname", ["witness", "q8", "cyclic_c22"])
def test_json_output_is_the_stdlib_encoding_of_itself(docname, tmp_path, capsys):
    """Every command's `--output json --certificates` stdout equals the
    standard library's sorted, indent-2 encoding of its own parse, the
    echoed inputs.document included."""
    import random

    if docname == "cyclic_c22":
        raw = canonical_json(_benchmark_workloads().cyclic_document(22, random.Random(0)))
    else:
        raw = resources.files("gerbes.data").joinpath(f"{docname}_document.json").read_text()
    path = tmp_path / "doc.json"
    path.write_text(raw)
    printed = 0
    for command in DOCUMENT_COMMANDS:
        rc = run([*command, str(path), "--output", "json", "--certificates"])
        out = capsys.readouterr().out
        if rc == 2:  # refused before any output
            assert out == ""
            continue
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n", command
        printed += 1
    assert printed >= 8
