import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbes import linalg
from gerbes.errors import GerbesError
from gerbes.linalg import (
    hermite_column_basis,
    howell_reduce_rows,
    howell_relations,
    kernel_mod,
    smith_quotient,
    snf,
    solve_column_basis,
    solve_mod,
    xgcd,
)

small_matrix = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert s * a + t * b == g
    assert g >= 0
    if a or b:
        assert a % g == 0 and b % g == 0


@given(small_matrix)
@settings(max_examples=200, deadline=None)
def test_snf_roundtrip_and_chain(m):
    res = snf(m)
    # U M V = D is re-verified inside snf; check the divisibility chain here.
    diag = [d for d in res.diag if d]
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0
    assert all(d >= 0 for d in res.diag)


def test_snf_examples():
    assert snf([[0, 0], [0, 0]]).diag == (0, 0)
    assert snf([[2, 0], [0, 3]]).diag == (1, 6)
    assert snf([[4, 0], [0, 6]]).diag == (2, 12)


def test_snf_empty_and_rectangular():
    assert snf([]).diag == ()
    res = snf([[2, 4, 6]])
    assert res.diag == (2,)


def _transforms(res):
    return [t.tolist() for t in (res.U, res.V, res.U_inv, res.V_inv)]


def _all_python_ints(res):
    return all(type(x) is int for t in _transforms(res) for row in t for x in row)


def test_snf_transforms_are_pinned():
    """Pivot order and elementary operations fix the transforms exactly."""
    res = snf([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    assert res.diag == (2, 6, 12)
    assert _transforms(res) == [
        [[1, 0, 0], [2, -1, -1], [3, -4, -3]],
        [[1, -2, 2], [0, 1, -2], [0, 0, 1]],
        [[1, 0, 0], [-3, 3, -1], [5, -4, 1]],
        [[1, 2, 2], [0, 1, 2], [0, 0, 1]],
    ]
    assert _all_python_ints(res)


def test_snf_transforms_past_int64_are_pinned():
    rng = random.Random(0)
    m = [
        [rng.choice((1, -1)) * rng.randrange(10**9 - 10**3, 10**9 + 10**3) for _ in range(6)]
        for _ in range(6)
    ]
    res = snf(np.asarray(m, dtype=np.int64))
    assert res.diag[-1] == 11432002161677145457883849913202423337359125250204
    assert max(abs(x) for t in _transforms(res) for row in t for x in row) > 2**63
    assert _all_python_ints(res)
    digest = hashlib.sha256(repr((res.diag, *_transforms(res))).encode()).hexdigest()
    assert digest == "8d61a6b77bdc4ad55e3e0e944187fbc9972f578aa68eede26595b20ad9604ef1"


def _is_hermite(basis):
    """Echelon with one pivot per coordinate, positive pivots, entries above them reduced."""
    for c, vec in enumerate(basis):
        if any(vec[:c]) or vec[c] <= 0:
            return False
        if any(not 0 <= basis[k][c] < vec[c] for k in range(c)):
            return False
    return True


def test_hermite_basis_is_canonical():
    gens = [[2, 0], [0, 3], [2, 3]]
    b1 = hermite_column_basis(gens, 6)
    b2 = hermite_column_basis(list(reversed(gens)), 6)
    assert b1 == b2
    for g in gens:
        coeffs = solve_column_basis(b1, g)
        got = [sum(b1[j][i] * coeffs[j] for j in range(len(b1))) for i in range(2)]
        assert got == g

    # A lattice of index 56 with quotient Z/2 x Z/2 x Z/14, so it contains
    # 14 Z^3: every ordering of its generators gives one Hermite basis.
    gens = [[4, 0, 2], [2, 2, 0], [0, 6, 4], [6, 2, 2]]
    bases = {
        tuple(map(tuple, hermite_column_basis(list(order), 14)))
        for order in itertools.permutations(gens)
    }
    assert bases == {((2, 0, 8), (0, 2, 6), (0, 0, 14))}
    basis = [list(v) for v in bases.pop()]
    assert _is_hermite(basis)
    for g in gens:
        solve_column_basis(basis, g)


@given(
    st.lists(st.lists(st.integers(-20, 20), min_size=3, max_size=3), min_size=1, max_size=5),
    st.sampled_from([1, 2, 4, 6, 8, 12]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_hermite_basis_of_seeded_lattices(gens, e, rng):
    """The lattice spanned by gens and e Z^3 has one Hermite basis, whatever
    the generator order, and the basis spans exactly that lattice."""
    basis = hermite_column_basis(gens, e)
    assert _is_hermite(basis)
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert hermite_column_basis(shuffled, e) == basis
    for v in [*gens, *(e * np.identity(3, dtype=int)).tolist()]:
        solve_column_basis(basis, v)
    assert basis[0][0] * basis[1][1] * basis[2][2] == _index(gens, e)


def _index(gens, e):
    """|Z^3 / (span(gens) + e Z^3)| by counting the span mod e."""
    span = {(0, 0, 0)}
    for g in gens:
        span = {tuple((x + k * y) % e for x, y in zip(v, g)) for v in span for k in range(e)}
    return e**3 // len(span)


@given(
    st.lists(st.lists(st.integers(0, 5), min_size=4, max_size=4), min_size=1, max_size=4),
    st.sampled_from([2, 4, 6]),
)
@settings(max_examples=100, deadline=None)
def test_howell_relations_match_bruteforce(rows, e):
    """howell_relations(a, b, e) spans {c @ b : c @ a == 0 mod e}."""
    m = np.asarray(rows, dtype=np.int64)
    a, b = m[:, :2], m[:, 2:]
    rel = howell_relations(a, b, e)
    want = {
        tuple(np.asarray(c) @ b % e)
        for c in itertools.product(range(e), repeat=len(rows))
        if not (np.asarray(c) @ a % e).any()
    }
    got = {
        tuple(np.asarray(c, dtype=np.int64) @ rel.reshape(-1, 2) % e)
        for c in itertools.product(range(e), repeat=len(rel))
    }
    assert got == want


def test_solve_column_basis_rejects_outside():
    basis = hermite_column_basis([[2, 0], [0, 2]], 2)
    with pytest.raises(GerbesError):
        solve_column_basis(basis, [1, 0])


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=3, max_size=3), min_size=2, max_size=5
    ),
    st.sampled_from([2, 3, 4, 6, 8]),
)
@settings(max_examples=150, deadline=None)
def test_kernel_mod_matches_bruteforce(rows, e):
    a = np.asarray(rows, dtype=np.int64)
    V, V_inv, m = kernel_mod(a, e)
    brute = {
        x
        for x in __import__("itertools").product(range(e), repeat=3)
        if not (a @ np.asarray(x) % e).any()
    }
    basis = V * m
    spanned = set()
    for coeffs in __import__("itertools").product(range(e), repeat=3):
        v = tuple(
            sum(basis[i][j] * coeffs[j] for j in range(3)) % e for i in range(3)
        )
        spanned.add(v)
    assert spanned == brute
    for x in brute:
        assert not (V_inv @ np.asarray(x) % m).any()  # kernel members have integer coordinates


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=3, max_size=3), min_size=1, max_size=4
    ),
    st.lists(st.integers(0, 7), min_size=3, max_size=3),
    st.sampled_from([2, 4, 8, 6]),
)
@settings(max_examples=150, deadline=None)
def test_solve_mod_matches_bruteforce(rows, xs, e):
    a = np.asarray(rows, dtype=np.int64)
    y = [int(v) for v in (a @ np.asarray(xs[: a.shape[1]]) % e)]
    x, failed = solve_mod(a, y, e)
    assert x is not None and not failed
    assert [int(v) for v in (a @ np.asarray(x) % e)] == y


def test_solve_mod_certificate():
    a = np.asarray([[2]], dtype=np.int64)
    x, failed = solve_mod(a, [1], 4)
    assert x is None and failed
    # The failed congruence really is unsatisfiable.
    cong = failed[0]
    assert all((cong.coefficient * t - cong.rhs) % cong.modulus for t in range(cong.modulus))


def test_solve_mod_needs_howell_closure():
    # 2x + y = 1 mod 4 is solvable only with the annihilator row present.
    a = np.asarray([[2, 1]], dtype=np.int64)
    x, failed = solve_mod(a, [1], 4)
    assert x is not None
    assert (2 * x[0] + x[1]) % 4 == 1


def _seeded_relations(seed, modulus):
    """R = [A | N I] for a seeded A, so N Z^rows lies in the column span of R."""
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 6), rng.randint(0, 6)
    a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
    return np.hstack([np.array(a, dtype=object).reshape(rows, cols), modulus * np.identity(rows, dtype=object)])


def _c2xc4_global_h2_relations(monkeypatch):
    """The relations and modulus that the global H^2(C2 x C4, Z/4(chi)) of a
    model over C2 x C4 passes to smith_quotient; chi is -1 on the C2 factor."""
    from gerbes import cochain
    from gerbes.groups import FiniteGroup
    from gerbes.modules import cyclic_module

    table = [[4 * ((i // 4 + j // 4) % 2) + (i + j) % 4 for j in range(8)] for i in range(8)]
    mu = cyclic_module(FiniteGroup(table), 4, {x: 3 for x in range(4, 8)})
    seen = []

    def spy(relations, modulus):
        seen.append((relations, modulus))
        return smith_quotient(relations, modulus)

    monkeypatch.setattr(cochain, "smith_quotient", spy)
    assert cochain.CohomologyGroup(mu, 2).factors == (2, 2, 2)
    assert len(seen) == 1
    return seen[0]


def _assert_quotient_matches_snf(relations, modulus):
    factors, generators, reducers = smith_quotient(relations, modulus)
    res = snf(relations)
    keep = [i for i in range(res.rows) if res.diagonal_at(i) >= 2]
    assert factors == tuple(res.diag[i] for i in keep)
    assert ((reducers - res.U[keep]) % modulus == 0).all()
    assert ((generators - res.U_inv[:, keep]) % modulus == 0).all()
    assert all(0 <= x < modulus for x in [*reducers.ravel(), *generators.ravel()])


@pytest.mark.parametrize("seed", range(40))
def test_smith_quotient_matches_exact_snf(seed):
    modulus = (4, 12, 16, 30)[seed % 4]
    _assert_quotient_matches_snf(_seeded_relations(seed, modulus), modulus)


def test_smith_quotient_promotes_a_growing_pivot_matrix(monkeypatch):
    """Entries below 2**41 whose first row update passes 2**63: the pivot
    matrix leaves int64 in place and the result still matches snf."""
    promoted = []
    room = linalg._Rows._room

    def spy(self, grow):
        before = self.x.dtype
        room(self, grow)
        if not self.modulus and before != object and self.x.dtype == object:
            promoted.append(self.x.shape)

    monkeypatch.setattr(linalg._Rows, "_room", spy)
    big = 2**40
    a = np.array([[3, big, 7], [big + 1, 5, big - 3], [11, big + 5, 2**39]], dtype=object)
    relations = np.hstack([a, 12 * np.identity(3, dtype=object)])
    _assert_quotient_matches_snf(relations, 12)
    assert (3, 6) in promoted


def test_smith_quotient_of_a_c2xc4_global_h2(monkeypatch):
    relations, modulus = _c2xc4_global_h2_relations(monkeypatch)
    assert modulus == 16 and relations.shape == (49, 56)
    _assert_quotient_matches_snf(relations, modulus)


def test_smith_quotient_refuses_a_modulus_that_misses_the_quotient():
    with pytest.raises(GerbesError, match="free part"):
        smith_quotient(np.zeros((1, 2), dtype=object), 4)
    with pytest.raises(GerbesError, match="not killed by 4"):
        smith_quotient(np.array([[8]], dtype=object), 4)


@pytest.mark.parametrize("seed", range(30))
def test_kernel_mod_matches_snf_of_the_howell_rows(seed):
    rng = random.Random(seed)
    e = rng.choice((2, 4, 6, 8, 12))
    rows, cols = rng.randint(1, 8), rng.randint(1, 7)
    a = np.array([[rng.randrange(e) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    V, V_inv, m = kernel_mod(a, e)
    howell = howell_reduce_rows(a, e)
    if not len(howell):
        assert (V == np.identity(cols)).all() and (V_inv == V).all() and (m == 1).all()
        return
    res = snf(howell)
    mult = [e // math.gcd(res.diagonal_at(i), e) for i in range(cols)]
    assert np.array_equal(V, res.V) and np.array_equal(V_inv, res.V_inv)
    assert m.dtype == np.int64 and m.tolist() == mult


def _drop_first_column_operation(monkeypatch, cols):
    """Make the Smith elimination skip one column operation on V and V_inv.

    The dropped operation is the first one on a transform of size ``cols``;
    V and V_inv stay inverse to each other, so only a check against the
    matrix itself can notice.
    """
    reduce = linalg._Transform.reduce
    dropped = []

    def skip_first(self, t, q):
        if not dropped and len(self.fwd.x) == cols:
            dropped.append(t)
            return
        reduce(self, t, q)

    monkeypatch.setattr(linalg._Transform, "reduce", skip_first)
    return dropped


def test_kernel_certificate_catches_a_dropped_column_operation(monkeypatch):
    a = np.array([[1, 2, 3, 2], [2, 0, 1, 3]], dtype=np.int64)
    kernel_mod(a, 4)
    dropped = _drop_first_column_operation(monkeypatch, 4)
    with pytest.raises(GerbesError, match="kernel"):
        kernel_mod(a, 4)
    assert dropped


def test_quotient_check_catches_a_dropped_column_operation(monkeypatch):
    relations = np.array([[2, 3, 4, 0], [1, 2, 0, 4]], dtype=object)
    smith_quotient(relations, 4)
    dropped = _drop_first_column_operation(monkeypatch, 4)
    with pytest.raises(GerbesError, match="smith quotient"):
        smith_quotient(relations, 4)
    assert dropped
