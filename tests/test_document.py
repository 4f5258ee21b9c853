import json
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbes.cochain import cohomology
from gerbes.document import (
    canonical_json,
    group_json,
    load_document,
    model_json,
    module_json,
    parse_document,
)
from gerbes.errors import InputError
from gerbes.gerbe import brauer_manin


def witness_raw():
    return json.loads(
        resources.files("gerbes.data").joinpath("witness_document.json").read_text()
    )


def test_parse_witness_document():
    doc = parse_document(witness_raw())
    assert doc.group("G").order == 4
    assert doc.extension("E").total.order == 16
    model = doc.require_model()
    assert model.modulus == 4
    assert [p.name for p in model.places] == ["v0", "v1"]


def test_parse_errors():
    with pytest.raises(InputError):
        parse_document({"nonsense": {}})
    with pytest.raises(InputError):
        parse_document({"modules": {"M": {"factors": [2]}}})  # missing group
    with pytest.raises(InputError):
        parse_document({"modules": {"M": {"group": "nope", "factors": [2]}}})
    with pytest.raises(InputError):
        parse_document({"groups": {"G": {"rows": []}}})
    with pytest.raises(InputError):
        parse_document({"model": {"group": "G"}})


def test_load_reports_line_and_column(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "groups": {,}\n}\n')
    with pytest.raises(InputError) as info:
        load_document(str(path))
    assert "line 2" in str(info.value)


def test_roundtrip_reproduces_results(tmp_path):
    doc = parse_document(witness_raw())
    model = doc.require_model()
    ext = doc.extension("E")
    base = brauer_manin(ext, model)

    dumped = {
        "groups": {
            "G": group_json(model.group),
            "H": group_json(ext.kernel_group),
            "T": group_json(ext.total),
        },
        "extensions": {
            "E": {
                "total": "T",
                "quotient": "G",
                "kernel": "H",
                "projection": list(ext.proj.images),
                "injection": list(ext.incl.images),
            }
        },
        "model": model_json(model),
    }
    path = tmp_path / "roundtrip.json"
    path.write_text(canonical_json(dumped))
    doc2 = load_document(str(path))
    again = brauer_manin(doc2.extension("E"), doc2.require_model())
    assert again.values == base.values
    assert again.sha.factors == base.sha.factors


def test_module_json_roundtrip():
    from gerbes.groups import cyclic_group
    from gerbes.modules import cyclic_module

    z4 = cyclic_group(4)
    m = cyclic_module(z4, 8, {1: 7, 2: 1, 3: 7})
    spec = module_json(m, "G")
    doc = parse_document({"groups": {"G": group_json(z4)}, "modules": {"M": spec}})
    m2 = doc.module("M")
    assert m2.carrier.factors == m.carrier.factors
    assert cohomology(m2, 2).factors == cohomology(m, 2).factors


def test_canonical_json_is_sorted_and_stable():
    a = canonical_json({"b": 1, "a": [2, 1]})
    b = canonical_json({"a": [2, 1], "b": 1})
    assert a == b
    assert a.endswith("\n")


class _Dict(dict):
    pass


class _List(list):
    pass


class _Int(int):
    def __repr__(self):
        return "not an int"


class _Float(float):
    def __repr__(self):
        return "not a float"


_ints = st.one_of(st.integers(-50, 50), st.integers(-(2**200), 2**200))
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e300, 5e-324]),
    st.text(),
    st.sampled_from(["\x00\x1f\x7f", "\u00e9\u2603\U0001f600", "\ud800", '"\\/\b\f\n\r\t']),
    _ints.map(_Int),
    st.floats(allow_nan=True, allow_infinity=True).map(_Float),
)
# Each dict draws its keys from one of these, so its keys stay comparable.
_key_kinds = (
    st.text(),
    _ints,
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.one_of(st.integers(-3, 3), st.floats(-3, 3), st.booleans()),
)
_int_rows = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(_ints, min_size=k, max_size=k), min_size=1, max_size=6)
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5).map(_List),
        *(st.dictionaries(keys, children, max_size=5) for keys in _key_kinds),
        st.dictionaries(st.none(), children, max_size=1),
        st.dictionaries(st.text(), children, max_size=5).map(_Dict),
        st.lists(st.one_of(_ints, st.booleans()), max_size=6),
        st.lists(_ints, max_size=6).map(tuple),
        _int_rows,
        _int_rows.map(lambda rows: [tuple(r) for r in rows]),
        st.lists(st.lists(_ints, max_size=4), min_size=1, max_size=6),
        st.lists(st.lists(st.one_of(_ints, st.booleans()), min_size=2, max_size=2), min_size=1, max_size=4),
    )


def _stdlib(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _assert_same_as_stdlib(obj):
    try:
        want = _stdlib(obj)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            canonical_json(obj)
        assert str(info.value) == str(exc)
        return
    assert canonical_json(obj) == want


@given(st.recursive(_scalars, _containers, max_leaves=40))
@settings(derandomize=True, deadline=None, max_examples=600)
def test_canonical_json_is_the_stdlib_encoding(obj):
    """Byte for byte json.dumps(obj, sort_keys=True, indent=2) + newline, or
    the same exception when the standard encoder refuses the tree."""
    _assert_same_as_stdlib(obj)


def test_canonical_json_on_fixed_trees():
    for obj in (
        [],
        {},
        [[]],
        [[], []],
        [{}],
        [[1], [2, 3]],
        [[1, 2], [3, 4]],
        [[7]] * 3,
        [[True], [1]],
        [1, True, None],
        {"a": [[1, 2], [3, 4]], "b": {"c": (5, 6)}},
        {2: "x", 1.5: "y", True: "z"},
        {None: [float("nan")]},
        _List([1, 2]),
        _Dict(b=1, a=2),
        [_Int(3), _Int(-4)],
        {_Float(0.5): _Float(-0.0)},
        {"x": [[-(2**70), 2**70]]},
        "caf\u00e9",
        3,
        None,
        _nested(300),
    ):
        _assert_same_as_stdlib(obj)


def _nested(depth):
    tree = {"leaf": [[1]]}
    for i in range(depth):
        tree = [tree] if i % 2 else {"k": tree}
    return tree


@pytest.mark.parametrize(
    "obj",
    [
        np.int64(3),
        [1, np.int64(2)],
        {"a": Fraction(1, 3)},
        [[1, 2], {1, 2}],
        {(1, 2): 1},
        {"a": 1, 2: 3},
        [10 ** 5000],
        object(),
    ],
    ids=["int64", "int64-in-list", "fraction", "set", "tuple-key", "mixed-keys", "huge-int", "object"],
)
def test_canonical_json_refuses_what_the_stdlib_refuses(obj):
    with pytest.raises((TypeError, ValueError)) as want:
        _stdlib(obj)
    with pytest.raises(want.type) as got:
        canonical_json(obj)
    assert str(got.value) == str(want.value)


def test_canonical_json_on_a_circular_tree():
    loop = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        canonical_json({"a": loop})


def test_integers_fast_path_keeps_the_messages():
    from gerbes.finab import integer_tuple

    assert integer_tuple([3, -1, 2**70], "f") == (3, -1, 2**70)
    for bad, shown in (([1, True], "True"), ([1, 2.0], "2.0"), ([1, "2"], "'2'"), ("12", "'1'")):
        with pytest.raises(InputError, match=f"f must be integers, got {shown}"):
            integer_tuple(bad, "f")
