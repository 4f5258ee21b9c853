import itertools

import pytest

from gerbes import fixtures
from gerbes.arith import (
    ArithmeticModel,
    Place,
    axioms_hold,
    check_axioms,
    reciprocity_certificate,
    require_axioms,
    search_inv_assignments,
    sha,
)
from gerbes.cochain import Cochain, cohomology, differential, restriction
from gerbes.errors import InputError, ModelAxiomFailure, SearchSpaceExceeded
from gerbes.finab import QmodZ
from gerbes.fixtures import (
    bad_reciprocity_model,
    gw_model,
    gw_module,
    witness_model,
)
from gerbes.finab import FinAb
from gerbes.groups import FiniteGroup, Subgroup, cyclic_group, klein_four_group
from gerbes.modules import GModule, cyclic_module, trivial_module


def test_place_length_validation():
    z2 = cyclic_group(2)
    mu = cyclic_module(z2, 2)
    with pytest.raises(InputError):
        ArithmeticModel(z2, mu, [Place("v", Subgroup.whole(z2), ())])


def test_axioms_single_place_failure_certificate():
    report = check_axioms(bad_reciprocity_model())
    assert not report.passed
    bad = [e for e in report.a2 if not e.ok]
    assert bad and bad[0].total == QmodZ.make(1, 2)
    with pytest.raises(ModelAxiomFailure):
        require_axioms(bad_reciprocity_model())


def test_axioms_two_place_telescoping():
    z2 = cyclic_group(2)
    mu = cyclic_module(z2, 2)
    whole = Subgroup.whole(z2)
    model = ArithmeticModel(
        z2, mu,
        [Place("a", whole, (QmodZ.make(1, 2),)), Place("b", whole, (QmodZ.make(1, 2),))],
    )
    assert check_axioms(model).passed


def test_a1_violation_reported():
    z2 = cyclic_group(2)
    mu = cyclic_module(z2, 4)
    whole = Subgroup.whole(z2)
    h2 = cohomology(mu.restrict(whole), 2)
    assert h2.factors == (2,)
    model = ArithmeticModel(z2, mu, [Place("v", whole, (QmodZ.make(1, 8),))])
    report = check_axioms(model)
    assert not all(e.ok for e in report.a1)
    # Without A1, inv_v is no map on H^2(D_v, mu), so A2 is not evaluated.
    assert report.a2 == () and "A2 skipped" in report.summary()
    with pytest.raises(InputError, match="A1"):
        model.inv_functional(model.places[0])


def test_a3_uncovered():
    z4 = cyclic_group(4)
    mu = cyclic_module(z4, 8, {1: 7, 2: 1, 3: 7})
    model = ArithmeticModel(
        z4, mu, [Place("p", Subgroup(z4, (0, 2)), (QmodZ.zero(),))],
        chebotarev_complete=True,
    )
    report = check_axioms(model)
    assert not report.a3.ok
    assert (0, 1, 2, 3) in report.a3.uncovered


def test_inv_eval_linearity_and_coboundaries():
    model = witness_model()
    p = model.places[0]
    h2 = model.local_h2(p)
    gen = h2.representatives[0]
    assert model.inv_eval(p, gen) == QmodZ.make(1, 2)
    assert model.inv_eval(p, gen + gen).is_zero()
    import random

    rng = random.Random(0)
    c = Cochain.random(model.local_mu(p), 1, rng)
    assert model.inv_eval(p, gen + differential(c)) == model.inv_eval(p, gen)


def test_inv_v_is_one_memoized_functional_per_place(monkeypatch):
    """inv_eval agrees with the sum of invariant values over class
    coordinates, and the A2 report and certificate read the memoized lambda_v."""
    import random

    from gerbes.cochain import CohomologyGroup, random_cocycle

    model = witness_model()
    lams = {p.name: model.inv_functional(p) for p in model.places}
    calls = []
    functional = CohomologyGroup.functional
    monkeypatch.setattr(
        CohomologyGroup, "functional", lambda *args: calls.append(args) or functional(*args)
    )
    rng = random.Random(5)
    for p in model.places:
        assert model.inv_functional(p) is lams[p.name]
        h2 = model.local_h2(p)
        for _ in range(10):
            z = random_cocycle(h2, rng)
            want = QmodZ.zero()
            for c, v in zip(h2.reduce(z), p.inv):
                want = want + QmodZ.make(c * v.num, v.den)
            assert model.inv_eval(p, z) == want
    assert check_axioms(model).passed
    assert reciprocity_certificate(model) is not None
    assert calls == []


def test_sha_trivial_cases():
    z2 = cyclic_group(2)
    mu = cyclic_module(z2, 2)
    model = ArithmeticModel(
        z2, mu,
        [Place("a", Subgroup.whole(z2), (QmodZ.zero(),))],
    )
    assert sha(model, trivial_module(z2, (2,)), 1).factors == ()
    v4 = klein_four_group()
    mu4 = cyclic_module(v4, 2)
    places = []
    for i, e in enumerate(((0, 1), (0, 2), (0, 3))):
        sub = Subgroup(v4, e)
        n = len(cohomology(mu4.restrict(sub), 2).factors)
        places.append(Place(f"c{i}", sub, tuple(QmodZ.zero() for _ in range(n))))
    model4 = ArithmeticModel(v4, mu4, places, chebotarev_complete=True)
    assert check_axioms(model4).passed
    assert sha(model4, trivial_module(v4, (2,)), 1).factors == ()


def test_sha_witness_and_certificates():
    result = sha(gw_model(), gw_module(), 1)
    assert result.factors == (2,)
    gen = result.generators[0]
    assert len(gen.local_primitives) == 3
    for pname, prim in gen.local_primitives:
        place = next(p for p in gw_model().places if p.name == pname)
        res = restriction(gen.cochain, place.subgroup)
        assert differential(prim) == res


def test_sha_place_permutation_invariance():
    model = gw_model()
    permuted = ArithmeticModel(
        model.group, model.mu,
        [model.places[1], model.places[2], model.places[0]],
        chebotarev_complete=True,
    )
    a = sha(model, gw_module(), 1)
    b = sha(permuted, gw_module(), 1)
    assert a.factors == b.factors
    assert [g.cochain.values for g in a.generators] == [g.cochain.values for g in b.generators]

    # Sha^2 of V4 with M = (Z/4)^2 at the three order-2 subgroups.  A
    # Hermite pass that depended on generator order put the lattice basis
    # off the lattice for four of these six orders.
    v4 = FiniteGroup([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])
    m = GModule(v4, FinAb((4, 4)), {1: [[1, 0], [0, 3]], 2: [[1, 0], [0, 3]]})
    mu = cyclic_module(v4, 2)
    places = [Place(f"c{i}", Subgroup(v4, (0, i)), (QmodZ.zero(),)) for i in (1, 2, 3)]
    results = [
        sha(ArithmeticModel(v4, mu, [places[i] for i in order]), m, 2)
        for order in itertools.permutations(range(3))
    ]
    assert {r.factors for r in results} == {(2,)}
    assert len({tuple(g.cochain.values for g in r.generators) for r in results}) == 1


def test_sha_degree_two():
    model = witness_model()
    a_mod = trivial_module(model.group, (8,))
    result = sha(model, a_mod, 2)
    assert result.factors == (2,)  # the witness class is exactly the kernel


def test_search_inv_examples():
    z2 = cyclic_group(2)
    mu = cyclic_module(z2, 2)
    whole = Subgroup.whole(z2)
    only_zero = search_inv_assignments(z2, mu, [whole])
    assert len(only_zero) == 1 and only_zero[0].places[0].inv[0].is_zero()
    pairs = search_inv_assignments(z2, mu, [whole, whole])
    assert len(pairs) == 2
    empty = search_inv_assignments(z2, mu, [Subgroup.trivial(z2)])
    assert len(empty) == 1 and empty[0].places[0].inv == ()
    with pytest.raises(SearchSpaceExceeded):
        search_inv_assignments(z2, mu, [whole, whole], bound=3)


def _every_assignment(model):
    """The model with each A1-consistent inv assignment, in lexicographic order."""
    factors = [model.local_h2(p).factors for p in model.places]
    per_place = [itertools.product(*(range(d) for d in f)) for f in factors]
    for combo in itertools.product(*per_place):
        places = [
            Place(p.name, p.subgroup, tuple(QmodZ.make(a, d) for a, d in zip(c, f)))
            for p, c, f in zip(model.places, combo, factors)
        ]
        yield ArithmeticModel(model.group, model.mu, places, model.chebotarev_complete)


def _four_place_model(n, character, steps):
    """C_n with mu = Z/4 and one place at each subgroup generated by a step."""
    g = cyclic_group(n)
    mu = cyclic_module(g, 4, character)
    places = []
    for step in steps:
        sub = Subgroup(g, tuple(range(0, n, step)))
        zeros = tuple(QmodZ.zero() for _ in cohomology(mu.restrict(sub), 2).factors)
        places.append(Place(f"d{step}", sub, zeros))
    return ArithmeticModel(g, mu, places)


def test_reciprocity_membership_matches_check_axioms():
    """The membership verdict equals the A2 verdict of check_axioms on every
    assignment of every fixture model and of two four-place cyclic models."""
    models = [getattr(fixtures, name)() for name in dir(fixtures) if name.endswith("_model")]
    models += [
        _four_place_model(12, None, (2, 3, 4, 6)),
        _four_place_model(16, {x: 3 for x in range(1, 16, 2)}, (2, 4, 8, 16)),
    ]
    verdicts = []
    for model in models:
        passing = []
        for cand in _every_assignment(model):
            report = check_axioms(cand)
            want = all(e.ok for e in report.a2)
            assert (reciprocity_certificate(cand) is not None) == want, cand.places
            assert axioms_hold(cand) == report.passed
            verdicts.append(want)
            if want and all(e.ok for e in report.a1):
                passing.append([p.inv for p in cand.places])
        found = search_inv_assignments(
            model.group, model.mu, [p.subgroup for p in model.places],
            chebotarev_complete=model.chebotarev_complete,
        )
        assert [[p.inv for p in m.places] for m in found] == passing
    assert True in verdicts and False in verdicts
