import hashlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbes.cochain import (
    Cochain,
    cohomology,
    cup,
    differential,
    is_cocycle,
    random_cocycle,
    restriction,
    solve_coboundary,
)
from gerbes.errors import DegreeTooHigh, GerbesError, InputError, NotACocycle, SizeBound
from gerbes.finab import FinAb
from gerbes.groups import Subgroup, cyclic_group, dihedral_group, klein_four_group, symmetric_group
from gerbes.modules import GModule, Pairing, cyclic_module, trivial_module


def test_differential_trivial_cases():
    z2 = cyclic_group(2)
    m = trivial_module(z2, (2,))
    zero = Cochain.zero(m, 1)
    assert differential(zero).is_zero()
    const = Cochain(m, 0, [(1,)])
    assert differential(const).is_zero()  # g.m - m = 0 for trivial action
    c = Cochain(m, 1, [(1,)])
    assert differential(c).is_zero()  # the nontrivial 1-cocycle on Z/2


def test_differential_degree_cap():
    z2 = cyclic_group(2)
    m = trivial_module(z2, (2,))
    c3 = Cochain.zero(m, 3)
    with pytest.raises(DegreeTooHigh):
        differential(c3)
    assert is_cocycle(c3)


def test_cohomology_known_values():
    z2 = cyclic_group(2)
    z3 = cyclic_group(3)
    assert cohomology(trivial_module(z2, (2,)), 1).factors == (2,)
    assert cohomology(trivial_module(z3, (2,)), 1).factors == ()
    assert cohomology(trivial_module(z2, (2,)), 2).factors == (2,)
    assert cohomology(trivial_module(z2, (2,)), 0).factors == (2,)
    m = cyclic_module(cyclic_group(4), 3, {1: 2, 3: 2})
    assert cohomology(m, 0).factors == ()  # no invariants under inversion


def test_cohomology_size_bound(monkeypatch):
    """The dense d_n is refused before allocation, and nothing is cached."""
    from gerbes import cochain

    m = trivial_module(cyclic_group(6), (2,))
    # The generator rows of d_2 over C6 with Z/2 are 25 x 25 int64 entries,
    # 5,000 bytes.
    monkeypatch.setattr(cochain, "_MATRIX_BYTE_BOUND", 4_999)
    with pytest.raises(SizeBound, match="5000 bytes"):
        cohomology(m, 2)
    assert m._memo == {}
    monkeypatch.undo()
    assert cohomology(m, 2).factors == (2,)


def test_cohomology_column_bound_refuses_c64_fast():
    """H^2(C64, Z/2) would pass the byte bound with generator rows, but its
    3,969-column Smith step is refused before any matrix is built."""
    import time

    m = trivial_module(cyclic_group(64), (2,))
    start = time.perf_counter()
    with pytest.raises(SizeBound, match="3969 cochain coordinates"):
        cohomology(m, 2)
    assert time.perf_counter() - start < 1.0
    assert m._memo == {}


def test_generator_rows_have_the_howell_form_of_d():
    """The generator rows of the scaled d_n reduce to the same Howell rows
    as the whole scaled d_n, so kernels and solves are unchanged."""
    import numpy as np

    from gerbes.cochain import _differential_matrix, _scaled_differential
    from gerbes.fixtures import oracle_groups, oracle_modules
    from gerbes.linalg import howell_reduce_rows

    for _, group in oracle_groups():
        q = group.order - 1
        for _, module in oracle_modules(group):
            factors = np.asarray(module.carrier.factors, dtype=np.int64)
            for deg in (0, 1, 2):
                rows, _, e = _scaled_differential(module, deg)
                full = _differential_matrix(module, deg)
                assert len(rows) < len(full) or q <= 1
                full = full * np.tile(e // factors, q ** (deg + 1))[:, None] % e
                got, want = howell_reduce_rows(rows, e), howell_reduce_rows(full, e)
                assert np.array_equal(got, want), (group.name, module.carrier.factors, deg)


def test_trivial_group_and_trivial_module_edges():
    one = cyclic_group(1)
    m = trivial_module(one, (4,))
    assert cohomology(m, 0).factors == (4,)
    assert cohomology(m, 1).factors == ()
    assert cohomology(m, 2).factors == ()
    zero_mod = trivial_module(cyclic_group(2), ())
    assert cohomology(zero_mod, 1).factors == ()
    assert cohomology(zero_mod, 1).reduce(Cochain.zero(zero_mod, 1)) == ()


def test_reduce_is_homomorphism_and_coboundary_invariant():
    rng = random.Random(7)
    g = dihedral_group(4)
    m = trivial_module(g, (4,))
    h2 = cohomology(m, 2)
    for _ in range(20):
        z1 = random_cocycle(h2, rng)
        z2 = random_cocycle(h2, rng)
        assert h2.reduce(z1 + z2) == tuple(
            (a + b) % d for a, b, d in zip(h2.reduce(z1), h2.reduce(z2), h2.factors)
        )
        c = Cochain.random(m, 1, rng)
        assert h2.reduce(z1 + differential(c)) == h2.reduce(z1)
    with pytest.raises(NotACocycle):
        while True:
            c = Cochain.random(m, 2, rng)
            if not is_cocycle(c):
                h2.reduce(c)
                break


def test_representatives_reduce_to_basis():
    m = trivial_module(dihedral_group(4), (2, 2))
    h = cohomology(m, 2)
    for i, rep in enumerate(h.representatives):
        want = tuple(1 if j == i else 0 for j in range(len(h.factors)))
        assert h.reduce(rep) == want


def test_restriction_examples():
    z4 = cyclic_group(4)
    m = trivial_module(z4, (2,))
    h2 = cohomology(m, 2)
    gen = h2.representatives[0]
    sub = Subgroup(z4, (0, 2))
    res = restriction(gen, sub)
    loc = cohomology(res.module, 2)
    assert loc.reduce(res) == (1,)
    triv_res = restriction(gen, Subgroup.trivial(z4))
    assert triv_res.is_zero()
    whole = restriction(gen, Subgroup.whole(z4))
    assert whole.values == gen.values


def test_cup_examples():
    z2 = cyclic_group(2)
    m = trivial_module(z2, (2,))
    pair = Pairing(m, m, m, [[(1,)]])
    x = cohomology(m, 1).representatives[0]
    assert cohomology(m, 2).reduce(cup(x, x, pair)) == (1,)
    zero = Cochain.zero(m, 1)
    assert cup(zero, x, pair).is_zero()
    assert cup(x, zero, pair).is_zero()
    # Degree-0 cup acts pointwise.
    c0 = Cochain(m, 0, [(1,)])
    assert cup(c0, x, pair).values == x.values
    with pytest.raises(DegreeTooHigh):
        cup(cup(x, x, pair), cup(x, x, pair), pair)


def test_cup_descends_to_classes():
    rng = random.Random(11)
    g = klein_four_group()
    m = trivial_module(g, (2,))
    pair = Pairing(m, m, m, [[(1,)]])
    h1 = cohomology(m, 1)
    h2 = cohomology(m, 2)
    for _ in range(15):
        a = random_cocycle(h1, rng)
        b = random_cocycle(h1, rng)
        c = Cochain.random(m, 0, rng)
        assert h2.reduce(cup(a + differential(c), b, pair)) == h2.reduce(cup(a, b, pair))


def test_solve_coboundary_examples():
    rng = random.Random(3)
    g = symmetric_group(3)
    m = trivial_module(g, (4,))
    zero = Cochain.zero(m, 2)
    res = solve_coboundary(zero)
    assert res.primitive is not None and res.primitive.is_zero()
    # A nontrivial class has no primitive and certifies itself.
    z2m = trivial_module(cyclic_group(2), (2,))
    gen = cohomology(z2m, 2).representatives[0]
    out = solve_coboundary(gen)
    assert out.primitive is None
    assert out.certificate.class_coords == (1,)
    # Round trips at every degree, including 3.
    for deg in (1, 2, 3):
        for _ in range(5):
            c0 = Cochain.random(m, deg - 1, rng)
            y = differential(c0)
            got = solve_coboundary(y)
            assert got.primitive is not None
            assert differential(got.primitive) == y
    with pytest.raises(NotACocycle):
        while True:
            c = Cochain.random(m, 2, rng)
            if not is_cocycle(c):
                solve_coboundary(c)
                break


def test_degree3_certificate_is_congruence_based():
    z2 = cyclic_group(2)
    m = trivial_module(z2, (2,))
    x = cohomology(m, 1).representatives[0]
    pair = Pairing(m, m, m, [[(1,)]])
    u = cup(cup(x, x, pair), x, pair)  # x^3 != 0 in H^3(Z/2, Z/2)
    assert is_cocycle(u)
    out = solve_coboundary(u)
    assert out.primitive is None
    assert out.certificate.degree == 3
    assert out.certificate.class_coords is None
    assert out.certificate.congruences


def test_dd_zero_with_twisted_action():
    rng = random.Random(5)
    g = cyclic_group(4)
    m = cyclic_module(g, 8, {1: 7, 2: 1, 3: 7})
    for deg in (0, 1, 2):
        for _ in range(25):
            assert is_cocycle(differential(Cochain.random(m, deg, rng)))


def test_dd_zero_exhaustive_on_small_groups():
    """d.d vanishes as an operator: the composed matrices are zero mod the
    carrier, which covers every cochain at once (d is linear)."""
    import numpy as np

    from gerbes.cochain import _differential_matrix
    from gerbes.fixtures import oracle_groups, oracle_modules

    rng = random.Random(13)
    for _, group in oracle_groups():
        q = group.order - 1
        for _, module in oracle_modules(group):
            factors = np.asarray(module.carrier.factors, dtype=np.int64)
            for deg in (0, 1, 2):
                up = _differential_matrix(module, deg + 1)
                down = _differential_matrix(module, deg)
                prod = up @ down
                moduli = np.tile(factors, q ** (deg + 2))
                assert not (prod % moduli[:, None]).any(), (group.name, deg)
                # The matrix agrees with the cochain differential.
                for _ in range(3):
                    c = Cochain.random(module, deg, rng)
                    got = down @ c.array.ravel() % np.tile(factors, q ** (deg + 1))
                    assert np.array_equal(got, differential(c).array.ravel()), (group.name, deg)


def _seeded_batch_digest() -> str:
    """sha256 over repr((degree, values)) of a seeded batch on the criterion-3 family.

    The batch runs every cochain operation and every seeded draw in a fixed
    order, so a change in any value, or in the order the draws consume the
    rng, changes the digest.
    """
    from gerbes.selftest import _criterion3_modules

    rng = random.Random(20260)
    h = hashlib.sha256()

    def emit(c):
        h.update(repr((c.degree, c.values)).encode())

    for size in (4, 6, 8, 12, 16):
        group, module, pairing = _criterion3_modules(size)
        sub = next(
            s
            for s in (Subgroup.generated_by(group, [x]) for x in range(1, group.order))
            if s.order < group.order
        )
        for deg in (0, 1, 2):
            a = Cochain.random(module, deg, rng)
            b = Cochain.random(module, deg, rng)
            for c in (a, a + b, a - b, -a, a.scaled(rng.randrange(-7, 40)), restriction(a, sub)):
                emit(c)
            emit(differential(a))
        for p, q in ((0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 0)):
            emit(cup(Cochain.random(module, p, rng), Cochain.random(module, q, rng), pairing))
        for deg in (0, 1, 2) if size <= 8 else (0, 1):
            coh = cohomology(module, deg)
            emit(random_cocycle(coh, rng))
            emit(coh.cochain_from_coords([rng.randrange(-d, 2 * d) for d in coh.factors]))
    return h.hexdigest()


def test_seeded_cochain_batch_is_unchanged():
    """Recorded when cochains still stored tuples of tuples."""
    assert _seeded_batch_digest() == "01a4dc001c326cadb2a3dd02ccced56f44db7fb9a499a5f1617ab6c26735ce29"


_ARITH_MODULES = (
    trivial_module(klein_four_group(), (2, 4)),
    cyclic_module(cyclic_group(6), 3, {1: 2, 3: 2, 5: 2}),
    cyclic_module(cyclic_group(4), 8, {1: 7, 3: 7}),
    trivial_module(cyclic_group(3), ()),
)
_ENTRIES = st.one_of(st.integers(-(2**80), 2**80), st.integers(-50, 50))


@st.composite
def _cochain_values(draw, module, degree):
    slots = (module.group.order - 1) ** degree
    k = module.rank
    return [tuple(draw(_ENTRIES) for _ in range(k)) for _ in range(slots)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_vector_arithmetic_matches_a_per_slot_reference(data):
    module = data.draw(st.sampled_from(_ARITH_MODULES))
    degree = data.draw(st.integers(0, 2))
    raw_a = data.draw(_cochain_values(module, degree))
    raw_b = data.draw(_cochain_values(module, degree))
    n = data.draw(_ENTRIES)
    factors = module.carrier.factors

    def ref(rows):
        return tuple(tuple(x % d for x, d in zip(row, factors)) for row in rows)

    a, b = Cochain(module, degree, raw_a), Cochain(module, degree, raw_b)
    assert a.values == ref(raw_a) and b.values == ref(raw_b)
    assert (a + b).values == ref([[x + y for x, y in zip(u, v)] for u, v in zip(raw_a, raw_b)])
    assert (a - b).values == ref([[x - y for x, y in zip(u, v)] for u, v in zip(raw_a, raw_b)])
    assert (-a).values == ref([[-x for x in u] for u in raw_a])
    assert a.scaled(n).values == ref([[n * x for x in u] for u in raw_a])
    assert (a - b).is_zero() == (a == b) == (ref(raw_a) == ref(raw_b))


def test_constructor_reduces_exactly_and_checks_its_input():
    m = trivial_module(klein_four_group(), (2, 4))
    c = Cochain(m, 1, [(-1, -1), (2**70 + 1, 2**70 + 1), (3, -6)])
    assert c.values == ((1, 3), (1, 1), (1, 2))
    assert c.array.dtype == np.int64
    big = np.asarray([[2**70 + 1, -(2**70) - 1]] * 3, dtype=object)
    assert Cochain(m, 1, big).values == ((1, 3),) * 3
    assert Cochain(m, 1, np.full((3, 2), 2**64 - 1, dtype=np.uint64)).values == ((1, 3),) * 3
    with pytest.raises(InputError, match="expected 3 value slots"):
        Cochain(m, 1, [(0, 0)] * 2)
    with pytest.raises(InputError, match="rank"):
        Cochain(m, 1, [(0,)] * 3)
    with pytest.raises(InputError, match="rank"):
        Cochain(m, 1, [(0, 0), (0,), (0, 0)])
    with pytest.raises(InputError, match="dtype"):
        Cochain(m, 1, np.zeros((3, 2)))
    with pytest.raises(InputError, match="dtype"):
        Cochain(m, 1, [(0.5, 0)] * 3)
    with pytest.raises(ValueError):
        c.array[0, 0] = 0
    twin = Cochain(m, 1, [(1, 3), (1, 1), (1, 2)])
    assert twin == c and hash(twin) == hash(c)
    assert {c: 1}[twin] == 1
    assert Cochain(trivial_module(cyclic_group(1), (2,)), 2, []).array.shape == (0, 1)


def _twisted_modules(group, odd):
    """Z/4(-1), Z/8(-1) and Z/2 x Z/4 with the Z/4 twisted, the elements of ``odd`` acting by -1."""
    return [
        cyclic_module(group, 4, {g: 3 for g in odd}),
        cyclic_module(group, 8, {g: 7 for g in odd}),
        GModule(group, FinAb((2, 4)), {g: [[1, 0], [0, 3]] for g in odd}),
    ]


def _class_cases():
    """(module, degrees): the oracle family, twisted cyclic modules over C4..C16
    and D4 with Z/2 x Z/4, in every degree whose H^n has at most 100 coordinates."""
    from gerbes.fixtures import oracle_groups, oracle_modules

    for _, group in oracle_groups():
        for _, module in oracle_modules(group):
            yield module, (0, 1, 2)
    for n in (4, 6, 8, 10, 12, 16):
        for module in _twisted_modules(cyclic_group(n), range(1, n, 2)):
            yield module, tuple(d for d in (0, 1, 2) if (n - 1) ** d * module.rank <= 100)
    d4 = dihedral_group(4)
    rotations = next(
        s for s in (Subgroup.generated_by(d4, [x]) for x in range(d4.order)) if s.order == 4
    )
    yield trivial_module(d4, (2, 4)), (0, 1, 2)
    odd = [g for g in range(d4.order) if g not in rotations.elements]
    yield _twisted_modules(d4, odd)[2], (0, 1, 2)


def test_reduce_on_a_seeded_batch_is_unchanged():
    """sha256 of reduce on seeded random cocycles; recorded when reduce still
    went through the kernel basis and the Smith reducers."""
    rng = random.Random(2026)
    h = hashlib.sha256()
    for module, degrees in _class_cases():
        for deg in degrees:
            coh = cohomology(module, deg)
            for _ in range(8):
                h.update(repr((deg, coh.factors, coh.reduce(random_cocycle(coh, rng)))).encode())
    assert h.hexdigest() == "a734a7ee82419133a2192d601a2eaaec922c5d8b93a01adc53d83744cc62dc17"


def test_functional_matches_weighted_reduce():
    rng = random.Random(7)
    for module in _ARITH_MODULES:
        e = module.carrier.exponent
        for deg in (0, 1, 2):
            coh = cohomology(module, deg)
            for modulus in (e, 2 * e, 3 * e):
                for _ in range(3):
                    weights = [modulus // d * rng.randrange(-20, 20) for d in coh.factors]
                    lam = coh.functional(weights, modulus)
                    assert lam.shape == ((module.group.order - 1) ** deg * module.rank,)
                    for _ in range(3):
                        z = random_cocycle(coh, rng)
                        lhs = sum(int(a) * int(x) for a, x in zip(lam, z.array.ravel()))
                        rhs = sum(w * c for w, c in zip(weights, coh.reduce(z)))
                        assert (lhs - rhs) % modulus == 0, (module, deg, modulus)
            if coh.factors:
                ones = [1] * len(coh.factors)
                with pytest.raises(GerbesError):
                    coh.functional(ones, e + 1)  # not a multiple of the carrier exponent
                with pytest.raises(GerbesError):
                    coh.functional(ones, 2 * e)  # 2e does not divide 1 * d_i
                with pytest.raises(GerbesError):
                    coh.functional(ones[1:], e)


def test_class_matrix_contract(monkeypatch):
    """A built group keeps only its factors, representatives and int64 class
    matrix; reduce and functional need neither solves nor kernel coordinates."""
    from gerbes import cochain
    from gerbes.linalg import LatticeKernel

    groups = [cochain.CohomologyGroup(module, deg) for module in _ARITH_MODULES for deg in (0, 1, 2)]

    def forbidden(*args, **kwargs):
        raise AssertionError("reached the Smith data after construction")

    monkeypatch.setattr(cochain, "solve_mod", forbidden)
    monkeypatch.setattr(LatticeKernel, "coordinates", forbidden)
    rng = random.Random(3)
    for coh in groups:
        state = {name: getattr(coh, name) for name in getattr(coh, "__slots__", ())}
        state.update(getattr(coh, "__dict__", {}))
        assert set(state) == {"module", "degree", "factors", "representatives", "classes"}
        assert not any(isinstance(v, np.ndarray) and v.dtype == object for v in state.values())
        module = coh.module
        e = module.carrier.exponent
        assert coh.classes.dtype == np.int64
        assert coh.classes.shape == (len(coh.factors), (module.group.order - 1) ** coh.degree * module.rank)
        assert ((0 <= coh.classes) & (coh.classes < e)).all()
        for i, rep in enumerate(coh.representatives):
            assert coh.reduce(rep) == tuple(int(i == j) for j in range(len(coh.factors)))
        z = random_cocycle(coh, rng)
        coords = coh.reduce(z)
        lam = coh.functional([e // d for d in coh.factors], e)
        want = sum(e // d * c for d, c in zip(coh.factors, coords)) % e
        assert int((lam * z.array.ravel() % e).sum()) % e == want
