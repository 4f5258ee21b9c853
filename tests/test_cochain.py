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


@pytest.fixture()
def no_kernel(monkeypatch):
    """Fail the test on any call of ``cochain.kernel_mod``."""
    from gerbes import cochain

    def refuse(*args, **kwargs):
        raise AssertionError("kernel_mod was called")

    monkeypatch.setattr(cochain, "kernel_mod", refuse)


def test_coprime_cohomology_is_built_without_elimination(no_kernel):
    """For n >= 1, |G| and the carrier exponent both kill H^n, so when they
    are coprime H^n = 0 is built without any elimination, at any size."""
    cases = [
        (trivial_module(cyclic_group(15), (4,)), (1, 2)),
        (trivial_module(cyclic_group(9), (2, 4)), (1, 2)),
        # 3,844 coordinates, far past the kernel column bound.
        (trivial_module(cyclic_group(63), (4,)), (2,)),
    ]
    for module, degrees in cases:
        q = module.group.order - 1
        for deg in degrees:
            h = cohomology(module, deg)
            assert h.factors == () and h.representatives == ()
            assert h.classes.dtype == np.int64 and not h.classes.flags.writeable
            assert h.classes.shape == (0, q**deg * module.rank)
            assert h.reduce(Cochain.zero(module, deg)) == ()


def test_column_bound_refuses_twisted_z8_over_c18(no_kernel):
    """H^2(C18, Z/8(-1)) has 289 coordinates, under the bound for Z/4 but
    weighted by the 4 bits of 8 past it: its Smith step took 224 s."""
    m = cyclic_module(cyclic_group(18), 8, {x: 7 for x in range(1, 18, 2)})
    with pytest.raises(SizeBound, match="289 cochain coordinates"):
        cohomology(m, 2)
    assert m._memo == {}


def test_column_bound_refuses_twisted_z4_over_c20(no_kernel):
    """H^2(C20, Z/4(-1)) has 361 coordinates; its Smith step takes minutes,
    so it is refused before the kernel is computed and nothing is cached."""
    m = cyclic_module(cyclic_group(20), 4, {x: 3 for x in range(1, 20, 2)})
    with pytest.raises(SizeBound, match="361 cochain coordinates"):
        cohomology(m, 2)
    assert m._memo == {}


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

    from gerbes import oracle
    from gerbes.cochain import _differential_matrix
    from gerbes.fixtures import oracle_groups, oracle_modules

    rng = random.Random(13)
    for _, group in oracle_groups():
        q = group.order - 1
        for _, module in oracle_modules(group):
            factors = np.asarray(module.carrier.factors, dtype=np.int64)
            e, k = module.carrier.exponent, module.rank
            for deg in (0, 1, 2):
                up = _differential_matrix(module, deg + 1)
                down = _differential_matrix(module, deg)
                prod = up @ down
                moduli = np.tile(factors, q ** (deg + 2))
                assert not (prod % moduli[:, None]).any(), (group.name, deg)
                # The oracle's independent builder gives the same normalized
                # complex (every oracle module has equal factors e).
                bar = oracle._bar_matrix(group, e, k, deg, normalized=True)
                assert np.array_equal(bar, down % e), (group.name, module.carrier.factors, deg)
                if deg <= 1:
                    full_up = oracle._bar_matrix(group, e, k, deg + 1, normalized=False)
                    full_down = oracle._bar_matrix(group, e, k, deg, normalized=False)
                    assert not (full_up @ full_down % e).any(), (group.name, module.carrier.factors, deg)
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
    # numpy infers float64 for lists whose ints straddle 2**63.
    for raw, want in (((0, 2**63), (0, 0)), ((2**63, 1), (0, 1)), ((-1, 2**64 - 1), (1, 3))):
        assert Cochain(m, 1, [raw] * 3).values == (want,) * 3
    with pytest.raises(InputError, match="dtype"):
        Cochain(m, 1, [(0.5, 1)] * 3)
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


def _d4_odd():
    """The elements of D4 outside its cyclic subgroup of order 4."""
    d4 = dihedral_group(4)
    rotations = next(
        s for s in (Subgroup.generated_by(d4, [x]) for x in range(d4.order)) if s.order == 4
    )
    return d4, [g for g in range(d4.order) if g not in rotations.elements]


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
    d4, odd = _d4_odd()
    yield trivial_module(d4, (2, 4)), (0, 1, 2)
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


def _solve_cases():
    """The oracle family, Z/4(-1) and Z/8(-1) over C4..C16, and Z/2 x Z/4,
    trivial and twisted, over C8 and D4."""
    from gerbes.fixtures import oracle_groups, oracle_modules

    for _, group in oracle_groups():
        for _, module in oracle_modules(group):
            yield module
    for n in (4, 6, 8, 10, 12, 16):
        yield from _twisted_modules(cyclic_group(n), range(1, n, 2))[:2]
    c8 = cyclic_group(8)
    d4, odd = _d4_odd()
    yield trivial_module(c8, (2, 4))
    yield _twisted_modules(c8, range(1, 8, 2))[2]
    yield trivial_module(d4, (2, 4))
    yield _twisted_modules(d4, odd)[2]


def _bar_solve(y):
    """solve_coboundary as a solve on the bar coordinates of the generator rows of d_{n-1}."""
    from gerbes.cochain import CoboundaryResult, ObstructionCertificate, _scaled_differential
    from gerbes.linalg import solve_mod

    module, n = y.module, y.degree
    rows, slots, e = _scaled_differential(module, n - 1)
    scale = e // np.asarray(module.carrier.factors, dtype=np.int64)
    x, failed = solve_mod(rows, (y.array[slots] * scale % e).ravel(), e)
    if x is None:
        coords = cohomology(module, n).reduce(y) if n <= 2 else None
        return CoboundaryResult(None, ObstructionCertificate(n, coords, tuple(failed)))
    return CoboundaryResult(np.reshape(x, (-1, module.rank)), None)


def test_solve_coboundary_equals_the_bar_coordinate_solve():
    """The primitive is the one a bar-coordinate solve returns, unreduced
    entries included, and an obstruction carries the same certificate."""
    rng = random.Random(13)
    for module in _solve_cases():
        cocycles = []
        for n in (1, 2, 3):
            cocycles += [differential(Cochain.random(module, n - 1, rng)) for _ in range(2)]
        q = module.group.order - 1
        for n in (1, 2) if q**2 * module.rank <= 64 else (1,):
            coh = cohomology(module, n)
            cocycles += [random_cocycle(coh, rng) for _ in range(2)]
        if q <= 7 and module.rank == 1 and all(m == module.matrix(0) for m in module.action):
            pair = Pairing(module, module, module, [[(1,)]])
            h1, h2 = cohomology(module, 1), cohomology(module, 2)
            cocycles += [cup(random_cocycle(h1, rng), random_cocycle(h2, rng), pair) for _ in range(2)]
        for y in cocycles:
            got, want = solve_coboundary(y), _bar_solve(y)
            assert got.certificate == want.certificate, (module, y.degree)
            if want.primitive is not None:
                assert np.array_equal(got.primitive.array, want.primitive), (module, y.degree)


def test_generator_coordinate_paths_skip_the_bar_rows(monkeypatch):
    """A successful solve and both membership tests build no bar-coordinate
    rows of d_{n-1}, and a solve eliminates on one column per generator
    coordinate of the primitive: q^(n-2) |S| k, or k in degree 1."""
    from gerbes import cochain
    from gerbes.cochain import _scaled_differential, cocycle_annihilator, cocycle_relations

    widths = []
    real = cochain.solve_mod

    def spy(a, y, e):
        widths.append(a.shape[1])
        return real(a, y, e)

    monkeypatch.setattr(cochain, "solve_mod", spy)
    rng = random.Random(5)
    d4, odd = _d4_odd()
    for module in (
        _twisted_modules(cyclic_group(10), range(1, 10, 2))[0],
        _twisted_modules(d4, odd)[2],
    ):
        q, k, s = module.group.order - 1, module.rank, len(module.group.tree[0])
        for n in (1, 2, 3):
            widths.clear()
            assert solve_coboundary(differential(Cochain.random(module, n - 1, rng))).primitive is not None
            assert widths == [q ** (n - 2) * s * k if n >= 2 else k]
            assert (_scaled_differential, n - 1) not in module._memo
        phi = np.zeros(q**2 * k, dtype=np.int64)
        assert cocycle_annihilator(module, 2, phi) is not None
        cocycle_relations(module, 2, phi[None, :], np.ones((1, 1), dtype=np.int64))
        assert (_scaled_differential, 2) not in module._memo


def test_generator_row_cocycle_check_agrees_with_d3():
    """is_cocycle on degree-3 cochains reads only the generator rows of d_3,
    yet agrees with the whole matrix, and never builds the full d_3 plan."""
    from gerbes.cochain import _DiffPlan, _differential_matrix

    rng = random.Random(17)
    d4, odd = _d4_odd()
    for module in (
        trivial_module(cyclic_group(6), (2,)),
        _twisted_modules(cyclic_group(8), range(1, 8, 2))[1],
        _twisted_modules(d4, odd)[2],
        trivial_module(symmetric_group(3), (2, 2)),
    ):
        q = module.group.order - 1
        cochains = [Cochain.random(module, 3, rng) for _ in range(4)]
        for _ in range(4):
            dc = differential(Cochain.random(module, 2, rng))
            # A coboundary changed at one slot whose first argument is no
            # generator, which only the other rows see directly.
            slot = rng.randrange((q - 1) * q**2, q**3) if q > 1 else 0
            bump = np.zeros_like(dc.array)
            bump[slot, 0] = 1
            cochains += [dc, dc + Cochain(module, 3, bump)]
        verdicts = [is_cocycle(c) for c in cochains]
        plans = [p for p in module._memo.values() if isinstance(p, _DiffPlan) and p.degree == 3]
        assert plans and all(len(p.slots) < q**4 for p in plans)
        full = _differential_matrix(module, 3)
        moduli = np.tile(np.asarray(module.carrier.factors, dtype=np.int64), q**4)
        want = [not (full @ c.array.ravel() % moduli).any() for c in cochains]
        assert verdicts == want and any(want) and not all(want)


def test_membership_on_empty_cochain_spaces():
    """Over the trivial group, or with the zero module, the cochain space
    has no coordinates (degree 0 over the trivial group aside): the zero
    functional kills every cocycle and every tag is a relation."""
    from gerbes.cochain import cocycle_annihilator, cocycle_relations

    for module in (trivial_module(cyclic_group(1), (2,)), trivial_module(cyclic_group(2), ())):
        q, k = module.group.order - 1, module.rank
        for deg in (0, 1, 2):
            width = q**deg * k
            assert cocycle_annihilator(module, deg, np.zeros(width, dtype=np.int64)) is not None
            tags = np.ones((1, 1), dtype=np.int64)
            rel = cocycle_relations(module, deg, np.zeros((1, width), dtype=np.int64), tags)
            assert rel.tolist() == [[1]]
    point = trivial_module(cyclic_group(1), (2,))
    assert cocycle_annihilator(point, 0, [1]) is None


def test_consistency_rows_equal_the_dense_product():
    """A, d_n applied to the lift at the slots off the tree, is the dense
    product rows @ lift mod e with the scaled off-tree rows of d_n, on the
    oracle family in degrees 0-2 and on S4 with Z/2 x Z/4, whose degree-2
    rows are 2254 x 1058."""
    from gerbes.cochain import _differential_matrix, _tree_coordinates
    from gerbes.fixtures import oracle_groups, oracle_modules

    cases = [
        (module, deg)
        for _, group in oracle_groups()
        for _, module in oracle_modules(group)
        for deg in (0, 1, 2)
    ]
    cases.append((trivial_module(symmetric_group(4), (2, 4)), 2))
    for module, deg in cases:
        tc = _tree_coordinates(module, deg)
        factors = np.asarray(module.carrier.factors, dtype=np.int64)
        full = _differential_matrix(module, deg, "off_tree")
        rows = full * np.tile(tc.e // factors, len(full) // module.rank)[:, None] % tc.e
        assert tc.consistency.dtype == np.int64
        assert np.array_equal(tc.consistency, rows @ tc.lift % tc.e), (module, deg)


def _evaluator_cases():
    """The oracle family and the twisted Z/2 x Z/4 over C8 and D4."""
    from gerbes.fixtures import oracle_groups, oracle_modules

    for _, group in oracle_groups():
        for _, module in oracle_modules(group):
            yield module
    d4, odd = _d4_odd()
    yield _twisted_modules(cyclic_group(8), range(1, 8, 2))[2]
    yield _twisted_modules(d4, odd)[2]


def test_every_slot_set_is_rows_of_the_full_matrix():
    """For every named slot set, the d-matrix and the evaluator on a random
    batch are the rows of the whole d_n at those slots, exactly and
    unreduced, in degrees 0-3; the whole d_n is the oracle's bar matrix."""
    from gerbes import oracle
    from gerbes.cochain import _apply_d, _differential_matrix, _slot_set

    rng = np.random.default_rng(11)
    for module in _evaluator_cases():
        group, k, e = module.group, module.rank, module.carrier.exponent
        q = group.order - 1
        for deg in (0, 1, 2, 3):
            full = _differential_matrix(module, deg).reshape(q ** (deg + 1), k, q**deg * k)
            if module.is_trivial_action and len(set(module.carrier.factors)) == 1:
                bar = oracle._bar_matrix(group, e, k, deg, normalized=True)
                assert np.array_equal(full.reshape(bar.shape) % e, bar), (module, deg)
            for rows in ("all", "generators", "off_tree"):
                slots = _slot_set(module, deg, rows)
                assert np.array_equal(slots, np.unique(slots)), (module, deg, rows)
                mat = _differential_matrix(module, deg, rows)
                assert np.array_equal(mat, full[slots].reshape(mat.shape)), (module, deg, rows)
                batch = rng.integers(0, e, size=(q**deg, k, 3))
                got = _apply_d(module, deg, rows, batch)
                want = mat @ batch.reshape(q**deg * k, 3)
                assert np.array_equal(got.reshape(want.shape), want), (module, deg, rows)


def test_plan_slot_bound(monkeypatch):
    """A plan past the slot bound is refused with its slot count, and nothing is cached."""
    from gerbes import cochain

    m = trivial_module(cyclic_group(6), (2,))
    c = Cochain.zero(m, 3)
    # The generator rows of d_3 over C6 are 5^3 = 125 slots.
    monkeypatch.setattr(cochain, "_PLAN_SLOT_BOUND", 124)
    with pytest.raises(SizeBound, match="125 generators output slots, past the plan bound of 124"):
        is_cocycle(c)
    assert m._memo == {}
    monkeypatch.undo()
    assert is_cocycle(c)


def test_degree_3_solve_builds_no_full_degree_2_plan():
    """A degree-3 solve checks its primitive on the generator rows, so no
    degree-2 plan over all q^3 slots is built."""
    from gerbes.cochain import _DiffPlan

    module = _twisted_modules(cyclic_group(22), range(1, 22, 2))[0]
    q = module.group.order - 1
    y = differential(Cochain.random(module, 2, random.Random(3)))
    module._memo.clear()
    assert solve_coboundary(y).primitive is not None
    plans = [p for p in module._memo.values() if isinstance(p, _DiffPlan) and p.degree == 2]
    assert plans and all(len(p.slots) < q**3 for p in plans)
