import itertools

import pytest

from gerbes.errors import InputError, NonCyclicCoefficients, NonEquivariantPairing
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
    assert m.apply(1, (3,)) == (5,)
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
    assert [whole.matrix(g) for g in range(4)] == [m.matrix(g) for g in range(4)]
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
            apply(a.apply(g, v)) == b.apply(g, apply(v))
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
        perms.append([index[dd.dual.apply(g, e)] for e in elems])
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
                assert dd.dual.apply(g, dd.dual.apply(h, v)) == dd.dual.apply(gh, v)


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
    val = pair.apply((1,), dd.source.carrier.basis_vector(dd.kept[0]))
    assert val == (2,)
