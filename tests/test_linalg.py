import hashlib
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gerbes.errors import GerbesError
from gerbes.linalg import (
    hermite_column_basis,
    howell_relations,
    kernel_mod,
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
    kern = kernel_mod(a, e)
    brute = {
        x
        for x in __import__("itertools").product(range(e), repeat=3)
        if not (a @ np.asarray(x) % e).any()
    }
    basis = kern.basis
    spanned = set()
    for coeffs in __import__("itertools").product(range(e), repeat=3):
        v = tuple(
            sum(basis[i][j] * coeffs[j] for j in range(3)) % e for i in range(3)
        )
        spanned.add(v)
    assert spanned == brute
    for x in brute:
        kern.coordinates(list(x))  # must not raise for kernel members


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
