import itertools
import random

import numpy as np
import pytest

from gerbes.errors import GerbesError, InputError, NonCyclicCoefficients, NonEquivariantPairing
from gerbes.finab import FinAb
from gerbes.groups import (
    Subgroup,
    abelian_table_group,
    alternating_group,
    cyclic_group,
    klein_four_group,
    symmetric_group,
)
from gerbes.modules import (
    GModule,
    Pairing,
    cyclic_module,
    dual_module,
    evaluation_pairing,
    restrict_module,
    trivial_module,
)


def _act(module, g, v):
    """The carrier vector ``v`` moved by ``module.action[g]``."""
    return tuple((module.action[g] @ np.asarray(v, dtype=np.int64) % module.carrier.factors).tolist())


def test_gmodule_validation():
    z2 = cyclic_group(2)
    GModule(z2, FinAb((4,)), {1: [[3]]})
    with pytest.raises(InputError):
        GModule(z2, FinAb((4,)), {1: [[2]]})  # not an automorphism
    z4 = cyclic_group(4)
    with pytest.raises(InputError):
        GModule(z4, FinAb((8,)), {1: [[3]], 2: [[3]], 3: [[3]]})  # not a homomorphism
    with pytest.raises(InputError):
        GModule(z2, FinAb((2, 4)), {1: [[1, 1], [1, 1]]})  # ill-defined endo


def test_action_keys_outside_the_group_are_refused():
    """A mapping key names a group element: -1 does not alias the last
    element, and |G| or more is an input error, not an IndexError."""
    z2 = cyclic_group(2)
    for key in (-1, 2, 7):
        with pytest.raises(InputError, match=f"action key {key} is not an element of a group of order 2"):
            GModule(z2, FinAb((4,)), {key: [[3]]})
    with pytest.raises(InputError, match="action key 7"):
        cyclic_module(z2, 4, {7: 3})


def test_cyclic_module_character():
    z4 = cyclic_group(4)
    m = cyclic_module(z4, 8, {1: 7, 2: 1, 3: 7})
    assert _act(m, 1, (3,)) == (5,)
    with pytest.raises(InputError):
        cyclic_module(z4, 8, {1: 2})


def test_restrict_examples():
    z4 = cyclic_group(4)
    # Z/3 with inversion through the quotient Z/4 -> Z/2.
    m = cyclic_module(z4, 3, {1: 2, 3: 2})
    sub = Subgroup(z4, (0, 2))
    r = restrict_module(m, sub)
    assert r.is_trivial_action
    assert restrict_module(m, Subgroup.trivial(z4)).is_trivial_action
    whole = restrict_module(m, Subgroup.whole(z4))
    assert whole.carrier == m.carrier
    assert [whole.action[g].tolist() for g in range(4)] == [m.action[g].tolist() for g in range(4)]
    # Memoized: same subgroup gives the same object.
    assert restrict_module(m, sub) is restrict_module(m, Subgroup(z4, (0, 2)))


def _trivial_outer(h, g):
    return [list(range(h.order))] * g.order


def test_dual_examples():
    z2 = cyclic_group(2)
    a5 = alternating_group(5)
    mu = cyclic_module(z2, 4)
    dd = dual_module(a5, _trivial_outer(a5, z2), mu)
    assert dd.dual.carrier.factors == ()

    z6 = cyclic_group(6)
    dd2 = dual_module(z6, _trivial_outer(z6, z2), mu)
    assert dd2.dual.carrier.factors == (2,)

    s3 = symmetric_group(3)
    mu6 = cyclic_module(z2, 6)
    dd3 = dual_module(s3, _trivial_outer(s3, z2), mu6)
    assert dd3.dual.carrier.factors == (2,)

    with pytest.raises(NonCyclicCoefficients):
        dual_module(z6, _trivial_outer(z6, z2), trivial_module(z2, (2, 2)))


def _equivariant_iso_exists(a: GModule, b: GModule) -> bool:
    if a.carrier.factors != b.carrier.factors:
        return False
    car = a.carrier
    k = car.rank
    if k == 0:
        return True
    entries = [range(car.factors[i]) for i in range(k) for _ in range(k)]
    elems = list(car.elements())
    for flat in itertools.product(*entries):
        mat = [[flat[i * k + j] for j in range(k)] for i in range(k)]

        def apply(v):
            return tuple(
                sum(mat[i][j] * v[j] for j in range(k)) % car.factors[i] for i in range(k)
            )

        if len({apply(v) for v in elems}) != car.order:
            continue
        if all(
            apply(_act(a, g, v)) == _act(b, g, apply(v))
            for g in range(a.group.order)
            for v in elems
        ):
            return True
    return False


@pytest.mark.parametrize("h_name", ["z8", "v4", "s3", "q8"])
def test_double_dual(h_name):
    from gerbes.groups import quaternion_group

    z2 = cyclic_group(2)
    h = {
        "z8": cyclic_group(8),
        "v4": klein_four_group(),
        "s3": symmetric_group(3),
        "q8": quaternion_group(),
    }[h_name]
    from gerbes.groups import abelianization

    exp = abelianization(h).target.exponent
    mu = cyclic_module(z2, max(exp, 2))
    dd = dual_module(h, _trivial_outer(h, z2), mu)
    dual_group = abelian_table_group(dd.dual.carrier)
    perms = []
    elems = list(dd.dual.carrier.elements())
    index = {e: i for i, e in enumerate(elems)}
    for g in range(z2.order):
        perms.append([index[_act(dd.dual, g, e)] for e in elems])
    dd2 = dual_module(dual_group, perms, mu)
    assert dd2.dual.carrier.order == dd.source.carrier.order
    assert _equivariant_iso_exists(dd2.dual, dd.source)


def test_action_compatibility_exhaustive():
    v4 = klein_four_group()
    mu = cyclic_module(v4, 8, {1: 3, 2: 5, 3: 7})
    z8 = cyclic_group(8)
    perms = [[u * h % 8 for h in range(8)] for u in (1, 3, 5, 7)]
    dd = dual_module(z8, perms, mu)
    for g in range(4):
        for h in range(4):
            gh = v4.table[g][h]
            for i in range(dd.dual.rank):
                v = dd.dual.carrier.basis_vector(i)
                assert _act(dd.dual, g, _act(dd.dual, h, v)) == _act(dd.dual, gh, v)


def test_pairing_validation_and_evaluation():
    z2 = cyclic_group(2)
    m = cyclic_module(z2, 4, {1: 3})
    triv = cyclic_module(z2, 4)
    # Multiplication into the twisted target is equivariant.
    Pairing(m, triv, m, [[(1,)]])
    # But into the trivial target it is not.
    with pytest.raises(NonEquivariantPairing):
        Pairing(m, triv, triv, [[(1,)]])
    with pytest.raises(InputError):
        Pairing(triv, triv, cyclic_module(z2, 8), [[(1,)]])  # order mismatch


def test_evaluation_pairing_values():
    z2 = cyclic_group(2)
    z6 = cyclic_group(6)
    mu = cyclic_module(z2, 4)
    dd = dual_module(z6, _trivial_outer(z6, z2), mu)
    pair = evaluation_pairing(dd)
    # Hom(Z/6, Z/4) = Z/2, generated by x -> 2 * (3x mod 6 reduced): check
    # the generator pairs the H^ab generator to an order-2 value of mu.
    val = tuple(pair.table[0, dd.kept[0]].tolist())
    assert val == (2,)


_SWAP, _ID2 = [[0, 1], [1, 0]], [[1, 0], [0, 1]]
_Z2, _Z3, _V4 = cyclic_group(2), cyclic_group(3), klein_four_group()


def _v4_swaps(first):
    """V4 on (Z/2)^2: element ``first`` and 3 swap the coordinates."""
    return GModule(_V4, FinAb((2, 2)), {first: _SWAP, 3 - first: _ID2, 3: _SWAP})


# (label, construction, exception type, exact message).  Where several
# entries fail, the first in (g, i, j) order is named; the homomorphism law
# runs over generators h of ``FiniteGroup.tree`` and then over g, and
# equivariance over generators g and then (i, j).
_VALIDATION_FAILURES = [
    ("matrix-size", lambda: GModule(_Z2, FinAb((4,)), {1: [[3, 0]]}),
     InputError, "action matrix must be 1x1"),
    ("matrix-row-size", lambda: GModule(_Z2, FinAb((2, 4)), {1: [[1, 0], [0]]}),
     InputError, "action matrix must be 2x2"),
    ("matrix-count-short", lambda: GModule(_Z2, FinAb((4,)), [[[1]]]),
     InputError, "action must give one matrix per group element"),
    ("matrix-count-long", lambda: GModule(_Z2, FinAb((4,)), [[[1]], [[3]], [[1]]]),
     InputError, "action must give one matrix per group element"),
    ("key-range", lambda: GModule(_Z2, FinAb((4,)), {2: [[3]]}),
     InputError, "action key 2 is not an element of a group of order 2"),
    ("endomorphism-first-g", lambda: GModule(
        _Z3, FinAb((2, 4, 8)),
        {1: [[1, 0, 0], [0, 1, 0], [0, 1, 1]], 2: [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}),
     InputError, "action(1) entry (2,1) does not define an endomorphism"),
    ("endomorphism-first-ij", lambda: GModule(
        _Z3, FinAb((2, 4, 8)),
        {1: [[1, 0, 0], [0, 1, 0], [1, 1, 1]], 2: [[1, 0, 0], [1, 1, 0], [1, 0, 1]]}),
     InputError, "action(1) entry (2,0) does not define an endomorphism"),
    ("identity", lambda: GModule(_Z2, FinAb((4,)), {0: [[3]]}),
     InputError, "action of the identity is not the identity map"),
    ("law-square", lambda: GModule(_Z2, FinAb((2, 2)), [_ID2, [[1, 1], [1, 1]]]),
     InputError, "action is not a homomorphism: action(1)action(1) != action(1*1)"),
    ("law-second-generator", lambda: cyclic_module(_V4, 5, {1: 4, 2: 2, 3: 3}),
     InputError, "action is not a homomorphism: action(2)action(2) != action(2*2)"),
    ("law-generator-before-element", lambda: cyclic_module(_V4, 3, {1: 1, 2: 2, 3: 1}),
     InputError, "action is not a homomorphism: action(2)action(1) != action(2*1)"),
    ("pairing-groups", lambda: Pairing(
        cyclic_module(_Z3, 4), cyclic_module(_Z2, 4),
        cyclic_module(_Z2, 4), [[(1,)]]),
     InputError, "pairing modules must share one acting group"),
    ("pairing-rows", lambda: Pairing(*[cyclic_module(_Z2, 4)] * 3, [[(1,)], [(1,)]]),
     InputError, "pairing table shape does not match module ranks"),
    ("pairing-columns", lambda: Pairing(*[cyclic_module(_Z2, 4)] * 3, [[(1,), (1,)]]),
     InputError, "pairing table shape does not match module ranks"),
    ("pairing-ragged", lambda: Pairing(
        trivial_module(_Z2, (2, 4)), trivial_module(_Z2, (2, 4)),
        cyclic_module(_Z2, 4), [[(1,), (1,)], [(1,)]]),
     InputError, "pairing table shape does not match module ranks"),
    ("pairing-vector-long", lambda: Pairing(*[cyclic_module(_Z2, 4)] * 3, [[(1, 2)]]),
     InputError, "vector length 2 != rank 1"),
    ("pairing-vector-empty", lambda: Pairing(*[cyclic_module(_Z2, 4)] * 3, [[()]]),
     InputError, "vector length 0 != rank 1"),
    ("pairing-vector-first", lambda: Pairing(
        trivial_module(_Z2, (2, 4)), trivial_module(_Z2, (2, 4)),
        cyclic_module(_Z2, 4), [[(1,), (1, 2, 3)], [(1, 2), (1,)]]),
     InputError, "vector length 3 != rank 1"),
    ("pairing-order", lambda: Pairing(*[cyclic_module(_Z2, 4)] * 2, cyclic_module(_Z2, 8), [[(1,)]]),
     InputError, "pairing value at (0,0) has incompatible order"),
    ("pairing-order-first-ij", lambda: Pairing(
        trivial_module(_Z2, (2, 4)), trivial_module(_Z2, (2, 4)),
        cyclic_module(_Z2, 4), [[(0,), (1,)], [(1,), (0,)]]),
     InputError, "pairing value at (0,1) has incompatible order"),
    ("pairing-order-second-row", lambda: Pairing(
        trivial_module(_Z2, (2, 4)), trivial_module(_Z2, (2, 4)),
        cyclic_module(_Z2, 4), [[(0,), (0,)], [(1,), (1,)]]),
     InputError, "pairing value at (1,0) has incompatible order"),
    ("equivariance", lambda: Pairing(
        cyclic_module(_Z2, 4, {1: 3}), cyclic_module(_Z2, 4),
        cyclic_module(_Z2, 4), [[(1,)]]),
     NonEquivariantPairing, "pair(g.e_0, g.e_0) != g.pair(e_0, e_0) for g=1"),
    ("equivariance-first-generator", lambda: Pairing(
        _v4_swaps(1), _v4_swaps(2), trivial_module(_V4, (2,)), [[(0,), (1,)], [(0,), (0,)]]),
     NonEquivariantPairing, "pair(g.e_0, g.e_1) != g.pair(e_0, e_1) for g=1"),
    ("equivariance-first-ij", lambda: Pairing(
        _v4_swaps(1), _v4_swaps(2), trivial_module(_V4, (2,)), [[(0,), (0,)], [(0,), (1,)]]),
     NonEquivariantPairing, "pair(g.e_0, g.e_1) != g.pair(e_0, e_1) for g=1"),
    ("equivariance-second-generator", lambda: Pairing(
        _v4_swaps(1), _v4_swaps(2), trivial_module(_V4, (2,)), [[(0,), (1,)], [(0,), (1,)]]),
     NonEquivariantPairing, "pair(g.e_0, g.e_0) != g.pair(e_0, e_0) for g=2"),
]


@pytest.mark.parametrize("build, kind, message", [c[1:] for c in _VALIDATION_FAILURES],
                         ids=[c[0] for c in _VALIDATION_FAILURES])
def test_validation_failures_name_the_first_failing_element(build, kind, message):
    with pytest.raises(GerbesError) as info:
        build()
    assert type(info.value) is kind
    assert str(info.value) == message


def test_non_integer_inputs_are_refused_not_truncated():
    """Floats and bools are refused wherever a module or pairing takes
    integers; integers of any size, numpy's included, reduce exactly."""
    z2 = cyclic_group(2)
    actions = (
        {1: [[3.7]]}, {1: [[True]]}, [[[1]], [[3.0]]], [[[1]], np.array([[3.0]])],
        {True: [[3]]}, {1.9: [[3]]}, {"1": [[3]]},
    )
    for action in actions:
        with pytest.raises(InputError):
            GModule(z2, FinAb((4,)), action)
    with pytest.raises(InputError):
        GModule(z2, FinAb((2, 2)), {1: [[0, 1], [True, 0]]})
    for character in ({1: 7.9}, {1.0: 7}, {1: True}):
        with pytest.raises(InputError):
            cyclic_module(z2, 8, character)
    t = cyclic_module(z2, 4)
    for table in ([[(1.5,)]], [[(True,)]], [[(2.0,)]]):
        with pytest.raises(InputError):
            Pairing(t, t, t, table)
    assert GModule(z2, FinAb((4,)), {np.int64(1): [[np.int64(7)]]}).action[1, 0, 0] == 3
    assert cyclic_module(z2, 8, {1: 2**70 - 1}).action[1, 0, 0] == 7
    assert Pairing(t, t, t, [[(2**70 + 2,)]]).table.tolist() == [[[2]]]


def test_module_and_pairing_arrays_are_read_only():
    z2 = cyclic_group(2)
    m = cyclic_module(z2, 4, {1: 3})
    pair = Pairing(m, cyclic_module(z2, 4), m, [[(1,)]])
    for array, shape in ((m.action, (2, 1, 1)), (trivial_module(z2, (2, 4)).action, (2, 2, 2)), (pair.table, (1, 1, 1))):
        assert array.dtype == np.int64 and array.shape == shape
        with pytest.raises(ValueError):
            array[0, 0, 0] = 0


def test_equivariance_is_exact_past_int64():
    """C2 acting on (Z/2^27)^250 by [[1, 0], [v, -1]], paired into
    Z/(3 2^28) by the bits b of a table of halves: the sums of
    pair(g.e_i, g.e_j) pass 2^63, and the pairing is equivariant exactly
    when sum v_a b_a is even."""
    z2 = cyclic_group(2)
    k, e, et = 250, 2**27, 3 * 2**28
    rng = random.Random(7)
    right, target = trivial_module(z2, (e,)), trivial_module(z2, (et,))
    outcomes = set()
    for _ in range(6):
        v = [rng.randrange(3 * e // 4, e) for _ in range(k - 1)]
        b = [1] + [int(rng.random() < 0.95) for _ in range(k - 1)]
        act = np.zeros((k, k), dtype=np.int64)
        act[0, 0], act[1:, 0] = 1, v
        act[range(1, k), range(1, k)] = -1
        left = GModule(z2, FinAb((e,) * k), [np.eye(k, dtype=np.int64), act])
        table = [[(bit * et // 2,)] for bit in b]
        even = sum(x * y for x, y in zip(v, b[1:])) % 2 == 0
        outcomes.add(even)
        if even:
            Pairing(left, right, target, table)
        else:
            with pytest.raises(NonEquivariantPairing):
                Pairing(left, right, target, table)
    assert outcomes == {True, False}
