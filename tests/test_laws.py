"""Group laws decided on the spanning-tree generators, against all-pairs checks.

Every homomorphism, crossed-homomorphism, normality and equivariance law is
checked on right products by the generators of ``FiniteGroup.tree``.  The
references here check the same laws on every pair of elements, so each
test shows the generator-only check accepts exactly what they accept.
"""

import hashlib
import itertools
import random
import time
from math import gcd

import numpy as np
import pytest

from gerbes.cochain import cohomology
from gerbes.document import canonical_json, functional_json
from gerbes.errors import GerbesError, InputError, InvalidSubgroup, SizeBound
from gerbes.finab import FinAb
from gerbes.fixtures import (
    h3_obstruction_model,
    oracle_groups,
    split_fixture_matrix,
    thm41_fixture_matrix,
    z4_extension_of_z2,
)
from gerbes.gerbe import _character_lifts, brauer_manin, splitting_images
from gerbes.groups import (
    GroupHom,
    Subgroup,
    cyclic_group,
    klein_four_group,
    quotient_group,
    symmetric_group,
)
from gerbes.modules import GModule, Pairing, cyclic_module, trivial_module


def _accepts(build) -> bool:
    try:
        build()
    except GerbesError:
        return False
    return True


def _is_hom(dom, cod, images) -> bool:
    return all(
        images[dom.table[a][b]] == cod.table[images[a]][images[b]]
        for a in range(dom.order)
        for b in range(dom.order)
    )


def _true_homs(dom, cod) -> list[list[int]]:
    """Homomorphisms found by extending generator images, kept by the all-pairs law."""
    gens, steps = dom.tree
    out = []
    for combo in itertools.product(range(cod.order), repeat=len(gens)):
        im = [0] * dom.order
        for y, x, i in steps:
            im[y] = cod.table[im[x]][combo[i]]
        if _is_hom(dom, cod, im):
            out.append(im)
    return out


def test_group_hom_matches_all_pairs_law():
    rng = random.Random(8)
    groups = [g for _, g in oracle_groups()]
    accepted = 0
    for dom, cod in itertools.product(groups, repeat=2):
        homs = _true_homs(dom, cod)
        assert homs  # the trivial homomorphism at least
        tables = list(homs)
        for im in homs[:4]:
            bad = list(im)
            a = rng.randrange(1, dom.order)
            bad[a] = rng.randrange(cod.order)
            tables.append(bad)
        for _ in range(4):
            tables.append([0] + [rng.randrange(cod.order) for _ in range(dom.order - 1)])
        for im in tables:
            want = _is_hom(dom, cod, im)
            assert _accepts(lambda: GroupHom(dom, cod, im)) == want, (dom, cod, im)
            accepted += want
    assert accepted > len(groups) ** 2


def _reference_module(group, factors, mats) -> bool:
    """Well-defined endomorphisms, identity at 0, the law on all pairs, bijective."""
    k = len(factors)

    def apply(m, v):
        return tuple(sum(m[i][j] * v[j] for j in range(k)) % factors[i] for i in range(k))

    for m in mats:
        for i, j in itertools.product(range(k), repeat=2):
            if m[i][j] % (factors[i] // gcd(factors[i], factors[j])):
                return False
    carrier = list(itertools.product(*(range(d) for d in factors)))
    if any(apply(mats[0], v) != v for v in carrier):
        return False
    for g, h in itertools.product(range(group.order), repeat=2):
        gh = group.table[g][h]
        if any(apply(mats[g], apply(mats[h], v)) != apply(mats[gh], v) for v in carrier):
            return False
    return all(len({apply(m, v) for v in carrier}) == len(carrier) for m in mats)


def _random_matrix(rng, factors):
    return [[rng.randrange(d) for _ in factors] for d in factors]


def _matmul(a, b, factors):
    k = len(factors)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) % factors[i] for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("factors", [(4,), (9,), (2, 2), (2, 4)])
def test_gmodule_matches_all_pairs_law(factors):
    rng = random.Random(f"gmodule:{factors}")
    accepted = 0
    for group in (cyclic_group(4), klein_four_group(), symmetric_group(3)):
        gens, steps = group.tree
        k = len(factors)
        ident = [[int(i == j) for j in range(k)] for i in range(k)]
        for trial in range(60):
            # Extend random generator matrices along the tree, so that many
            # candidates are homomorphisms; perturb some afterwards.
            at_gens = [_random_matrix(rng, factors) for _ in gens]
            mats = [ident] * group.order
            for y, x, i in steps:
                mats[y] = _matmul(mats[x], at_gens[i], factors)
            if trial % 3 == 2:
                mats = list(mats)
                mats[rng.randrange(1, group.order)] = _random_matrix(rng, factors)
            want = _reference_module(group, factors, mats)
            got = _accepts(lambda: GModule(group, FinAb(factors), mats))
            assert got == want, (group, factors, mats)
            accepted += want
    assert accepted


def test_pairing_matches_all_pairs_law():
    rng = random.Random(81)
    v4 = klein_four_group()
    swap = [[0, 1], [1, 0]]
    modules = [
        GModule(v4, FinAb((2, 2)), {1: swap, 3: swap}),
        GModule(v4, FinAb((2, 2)), {2: swap, 3: swap}),
        trivial_module(v4, (2, 2)),
    ]
    targets = [trivial_module(v4, (2,)), trivial_module(v4, (4,)), cyclic_module(v4, 4, {1: 3, 3: 3})]
    accepted = 0
    for left, right, target in itertools.product(modules, modules, targets):
        for _ in range(12):
            table = [[(rng.randrange(target.carrier.factors[0]),) for _ in range(2)] for _ in range(2)]
            want = _equivariant_everywhere(left, right, target, table)
            got = _accepts(lambda: Pairing(left, right, target, table))
            assert got == want
            accepted += want
    assert accepted


def _act(module, g, v):
    """The carrier vector ``v`` moved by ``module.action[g]``."""
    return tuple((module.action[g] @ np.asarray(v, dtype=np.int64) % module.carrier.factors).tolist())


def _equivariant_everywhere(left, right, target, table) -> bool:
    d = target.carrier.factors[0]
    if any((2 * v[0]) % d for row in table for v in row):
        return False

    def pair(x, y):
        return (sum(x[i] * y[j] * table[i][j][0] for i in range(2) for j in range(2)) % d,)

    elems = list(itertools.product(range(2), range(2)))
    return all(
        pair(_act(left, g, x), _act(right, g, y)) == _act(target, g, pair(x, y))
        for g in range(left.group.order)
        for x in elems
        for y in elems
    )


def test_quotient_group_normality_on_every_subgroup_of_s4():
    s4 = symmetric_group(4)
    subgroups = {
        Subgroup.generated_by(s4, pair).elements
        for pair in itertools.combinations_with_replacement(range(s4.order), 2)
    }
    assert len(subgroups) == 30
    normal = 0
    for elems in sorted(subgroups):
        sub = Subgroup(s4, elems)
        want = all(s4.conjugate(g, x) in set(elems) for g in range(s4.order) for x in elems)
        try:
            quot, _ = quotient_group(s4, sub)
        except InvalidSubgroup:
            assert not want, elems
        else:
            assert want and quot.order * len(elems) == 24
            normal += 1
    assert normal == 4  # 1, V4, A4, S4


def _all_pairs_splittings(ext, sub):
    dgroup, embed = sub.as_group()
    gens, steps = dgroup.tree
    table = ext.total.table
    found = []
    for combo in itertools.product(*(ext.fiber(embed[g]) for g in gens)):
        im = [0] * dgroup.order
        for y, x, i in steps:
            im[y] = table[im[x]][combo[i]]
        if all(ext.proj(im[a]) == embed[a] for a in range(dgroup.order)) and all(
            im[dgroup.table[a][b]] == table[im[a]][im[b]]
            for a in range(dgroup.order)
            for b in range(dgroup.order)
        ):
            found.append(tuple(im))
    return sorted(found)


def test_splitting_images_match_all_pairs_filter():
    seen = 0
    for _, ext, model in thm41_fixture_matrix() + split_fixture_matrix():
        for place in model.places:
            want = _all_pairs_splittings(ext, place.subgroup)
            assert splitting_images(ext, place.subgroup) == want
            seen += len(want)
    assert seen


def test_character_lifts_keep_their_order():
    c4 = cyclic_group(4)
    assert _character_lifts(c4, 4, 2, [1, 3, 1, 3]) == [
        {0: 1, 1: 3, 2: 1, 3: 3},
        {0: 1, 1: 7, 2: 1, 3: 7},
    ]
    assert _character_lifts(c4, 4, 2, [1, 1, 1, 1]) == [
        {0: 1, 1: 1, 2: 1, 3: 1},
        {0: 1, 1: 5, 2: 1, 3: 5},
    ]


def test_enlarged_model_choice_is_pinned():
    # The first enlarged model that clears the H^3 obstruction wins, so the
    # certificate bytes pin the order in which character lifts are tried.
    f = brauer_manin(z4_extension_of_z2(), h3_obstruction_model(), mu_enlarge_bound=2, keep_trace=True)
    digest = hashlib.sha256(canonical_json(functional_json(f, True)).encode()).hexdigest()
    assert digest == "e4496253866dc830471d2dfd536248e3246f1c4f6c20f882e3c361be9837999c"


def test_large_cyclic_modules_need_no_carrier_enumeration():
    c16 = cyclic_group(16)
    odd = {g: -1 for g in range(1, 16, 2)}
    start = time.perf_counter()
    cyclic_module(c16, 2**16, odd)
    assert time.perf_counter() - start < 0.5
    assert cohomology(cyclic_module(c16, 2**17, odd), 1).factors == (2,)


@pytest.mark.parametrize("factors", [(2**30,), (10**30,), (2**29,) * 16])
def test_carriers_past_the_int64_bounds_raise_size_bound(factors):
    with pytest.raises(SizeBound):
        trivial_module(cyclic_group(2), factors)


def test_action_entries_are_stored_reduced():
    z2 = cyclic_group(2)
    big = GModule(z2, FinAb((3, 9)), {1: [[2**64 + 1, 0], [0, 8 - 9 * 10**30]]})
    small = GModule(z2, FinAb((3, 9)), {1: [[2, 0], [0, 8]]})
    assert np.array_equal(big.action, small.action)
    with pytest.raises(InputError):
        GModule(z2, FinAb((3, 9)), {1: [[1, 0], [0, 3 + 9 * 2**70]]})  # 3 * 3 != 1 mod 9
