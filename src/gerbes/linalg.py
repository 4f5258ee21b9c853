"""Exact integer linear algebra: Smith, Howell and Hermite forms, kernels mod n.

Exact matrices are numpy arrays of dtype ``object`` holding Python
integers, so results are exact at any size; row reduction mod a small
modulus uses int64 arrays, where every intermediate value stays far below
2**63.

``snf`` returns unimodular ``U``, ``V`` with ``U @ M @ V`` diagonal, plus
their exact inverses, tracked by mirroring every elementary operation.
Pivot selection is deterministic (smallest nonzero absolute value,
row-major tie break), so identical inputs produce identical transforms on
every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .errors import GerbesError, SizeBound


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b), g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class SNFResult:
    """U @ M @ V = D with U, V unimodular; diag holds the diagonal of D.

    The four transforms are object arrays of Python integers.
    """

    rows: int
    cols: int
    diag: tuple[int, ...]
    U: np.ndarray
    V: np.ndarray
    U_inv: np.ndarray
    V_inv: np.ndarray

    def diagonal_at(self, i: int) -> int:
        return self.diag[i] if i < len(self.diag) else 0


def _verify_snf(m: np.ndarray, res: SNFResult) -> None:
    d = np.zeros((res.rows, res.cols), dtype=object)
    at = np.arange(len(res.diag))
    d[at, at] = res.diag
    if not np.array_equal(res.U @ m @ res.V, d):
        raise GerbesError("smith normal form round-trip check failed")
    for mat, inv in ((res.U, res.U_inv), (res.V, res.V_inv)):
        if not np.array_equal(mat @ inv, np.identity(len(mat), dtype=object)):
            raise GerbesError("smith normal form transform inverse check failed")


def snf(m: Sequence[Sequence[int]] | np.ndarray) -> SNFResult:
    """Smith normal form with transforms and their exact inverses.

    ``m`` is a list of rows or an integer array; an object array must hold
    Python ints, since an ``np.int64`` entry would overflow silently.  The
    returned diagonal satisfies d_i >= 0 and d_i | d_{i+1}.  The
    factorization is re-verified exactly before returning.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    m = np.array(m, dtype=object).reshape(rows, cols)
    a = m.copy()
    u, u_inv = np.identity(rows, dtype=object), np.identity(rows, dtype=object)
    v, v_inv = np.identity(cols, dtype=object), np.identity(cols, dtype=object)
    for t in range(min(rows, cols)):
        while True:
            block = np.abs(a[t:, t:]).ravel()
            live = np.flatnonzero(block)
            if live.size == 0:
                break
            i, j = divmod(int(live[np.argmin(block[live])]), cols - t)
            if i:
                i += t
                a[[t, i]] = a[[i, t]]
                u[[t, i]] = u[[i, t]]
                u_inv[:, [t, i]] = u_inv[:, [i, t]]
            if j:
                j += t
                a[:, [t, j]] = a[:, [j, t]]
                v[:, [t, j]] = v[:, [j, t]]
                v_inv[[t, j]] = v_inv[[j, t]]
            p = a[t, t]
            # Reduce column t, then row t, against the pivot: row_i += q_i row_t
            # for every i > t, then col_j += q_j col_t for every j > t.
            q = -(a[t + 1 :, t] // p)
            if q.any():
                a[t + 1 :] += q[:, None] * a[t]
                u[t + 1 :] += q[:, None] * u[t]
                u_inv[:, t] -= u_inv[:, t + 1 :] @ q
            if a[t + 1 :, t].any():
                continue  # a remainder smaller than |p| appeared
            q = -(a[t, t + 1 :] // p)
            if q.any():
                a[:, t + 1 :] += a[:, t, None] * q
                v[:, t + 1 :] += v[:, t, None] * q
                v_inv[t] -= q @ v_inv[t + 1 :]
            if a[t, t + 1 :].any():
                continue
            # Make the pivot divide every remaining entry, so the final
            # diagonal satisfies the chain with no post-processing.
            bad = np.flatnonzero((a[t + 1 :, t + 1 :] % p).any(axis=1))
            if bad.size == 0:
                break
            b = t + 1 + int(bad[0])
            a[t] += a[b]
            u[t] += u[b]
            u_inv[:, b] -= u_inv[:, t]
        if live.size == 0:
            break
        if a[t, t] < 0:
            a[t] = -a[t]
            u[t] = -u[t]
            u_inv[:, t] = -u_inv[:, t]

    diag = tuple(a[i, i] for i in range(min(rows, cols)))
    res = SNFResult(rows, cols, diag, u, v, u_inv, v_inv)
    _verify_snf(m, res)
    return res


def smith_quotient(relations: np.ndarray) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Z^dim modulo the lattice spanned by the columns of ``relations``.

    Returns the invariant factors d >= 2 of the quotient, the generator
    columns (from ``U_inv``) and the reducer rows (from ``U``): the class of
    y has coordinates ``reducers @ y`` mod the factors, and the k-th
    generator column has coordinates e_k.  Raises if the quotient is
    infinite.
    """
    res = snf(relations)
    diag = [res.diagonal_at(i) for i in range(res.rows)]
    if 0 in diag:
        raise GerbesError("quotient has a free part; relations are missing")
    keep = [i for i, d in enumerate(diag) if d >= 2]
    return tuple(diag[i] for i in keep), res.U_inv[:, keep], res.U[keep]


def hermite_column_basis(generators: np.ndarray | Sequence[Sequence[int]], modulus: int) -> list[list[int]]:
    """Hermite basis of the lattice spanned by ``generators`` and ``modulus`` Z^dim.

    ``generators`` are vectors of length dim, one per row.  The result has
    one vector per coordinate c, whose first nonzero entry (the pivot) is
    positive and at c, and every earlier vector's entry at c lies in
    [0, pivot); a lattice of full rank has exactly one such basis.  The
    Howell rows mod ``modulus``, with ``modulus`` e_c at each column
    without a pivot, are a basis of the lattice; they are reduced here.
    """
    howell = howell_reduce_rows(np.asarray(generators), modulus)
    basis = modulus * np.identity(howell.shape[1], dtype=object)
    for row in howell:
        basis[np.flatnonzero(row)[0]] = row
    for c in range(len(basis)):
        basis[:c] -= (basis[:c, c] // basis[c, c])[:, None] * basis[c]
    return basis.tolist()


def solve_column_basis(basis: Sequence[Sequence[int]], target: Sequence[int]) -> list[int]:
    """Express ``target`` in an echelon column basis; exact, raises if outside."""
    pivots = []
    for col in basis:
        r = next((i for i, x in enumerate(col) if x), None)
        pivots.append(r)
    work = list(target)
    coeffs = [0] * len(basis)
    for i, (col, p) in enumerate(zip(basis, pivots)):
        if p is None:
            continue
        if work[p] % col[p]:
            raise GerbesError("vector lies outside the lattice")
        q = work[p] // col[p]
        coeffs[i] = q
        work = [x - q * y for x, y in zip(work, col)]
    if any(work):
        raise GerbesError("vector lies outside the lattice")
    return coeffs


def _unit_scaling(a: int, e: int) -> int:
    """A unit u mod e with u*a == gcd(a, e) mod e."""
    g = gcd(a, e)
    a1, e1 = a // g, e // g
    u = pow(a1, -1, e1) if e1 > 1 else 1
    while gcd(u, e) != 1:
        u += e1
    return u % e


def howell_reduce_rows(a: np.ndarray, e: int) -> np.ndarray:
    """Howell form (Howell 1986), unreduced above the pivots, of the rows of ``a`` over Z/e.

    The output rows span the same Z/e-module as the input rows, are in
    echelon order with one pivot per column, each pivot a divisor of e,
    and include the annihilator closure: (e/g) r lies in the span of the
    later rows for each row r with pivot g.  So for every k the rows with
    pivot at or after column k span all of the span that vanishes before
    column k, which makes greedy back-substitution complete for solving
    and membership.  Entries stay reduced into [0, e), so int64 arithmetic
    is exact for any e below 2**30.  Returns an int64 array with one row
    per pivot and as many columns as ``a``.
    """
    if e >= 1 << 30:
        raise SizeBound("modulus too large for the int64 reduction path")
    pivots: dict[int, np.ndarray] = {}
    stack: list[np.ndarray] = [np.mod(np.asarray(raw, dtype=np.int64), e) for raw in a]
    stack.reverse()
    while stack:
        row = stack.pop()
        while True:
            nz = np.nonzero(row)[0]
            if nz.size == 0:
                break
            c = int(nz[0])
            x = int(row[c])
            p = pivots.get(c)
            if p is None:
                u = _unit_scaling(x, e)
                placed = (row * u) % e
                pivots[c] = placed
                g = int(placed[c])
                if g != 1:
                    # Annihilator closure keeps later-column spans saturated.
                    stack.append(((e // g) * placed) % e)
                break
            b = int(p[c])
            if x % b == 0:
                row = (row - (x // b) * p) % e
                continue
            g, s, t = xgcd(b, x)
            new_p = (s * p + t * row) % e
            row = ((b // g) * row - (x // g) * p) % e
            pivots[c] = new_p
            if g != 1:
                stack.append(((e // g) * new_p) % e)
    rows = [pivots[c] for c in sorted(pivots)]
    return np.array(rows, dtype=np.int64).reshape(len(rows), np.shape(a)[1])


def howell_relations(a: np.ndarray, b: np.ndarray, e: int) -> np.ndarray:
    """Rows spanning {c @ b : c @ a == 0 (mod e)} over Z/e, in Howell form.

    They are the ``b`` parts of the rows of the Howell form of [a | b]
    whose ``a`` part is zero, which span exactly the vectors of the row
    span that vanish on the ``a`` columns.
    """
    width = np.shape(a)[1]
    rows = howell_reduce_rows(np.hstack([a, b]), e)
    return rows[~rows[:, :width].any(axis=1), width:]


@dataclass(frozen=True)
class LatticeKernel:
    """K = {x in Z^cols : A x == 0 mod e}, with exact object arrays.

    The basis columns are V @ diag(m); coordinates come from V_inv.
    """

    basis: np.ndarray
    V_inv: np.ndarray
    multipliers: np.ndarray

    def coordinates(self, x: Sequence[int] | np.ndarray) -> np.ndarray:
        """Coordinates in ``basis`` of a vector, or of each column of a matrix."""
        y = self.V_inv @ np.asarray(x, dtype=object)
        m = self.multipliers if y.ndim == 1 else self.multipliers[:, None]
        if (y % m).any():
            raise GerbesError("vector is not in the kernel lattice")
        return y // m


def kernel_mod(a: np.ndarray, e: int) -> LatticeKernel:
    """Kernel lattice of ``a`` mod ``e`` (rows may exceed columns freely)."""
    cols = int(a.shape[1])
    reduced = howell_reduce_rows(a, e)
    if not len(reduced):
        ident = np.identity(cols, dtype=object)
        return LatticeKernel(ident, ident, np.ones(cols, dtype=object))
    res = snf(reduced)
    mult = np.array([e // gcd(res.diagonal_at(i), e) for i in range(cols)], dtype=object)
    return LatticeKernel(res.V * mult, res.V_inv, mult)


@dataclass(frozen=True)
class Congruence:
    """One unsatisfiable reduced relation: lhs * x_col == rhs mod e."""

    column: int | None
    coefficient: int
    rhs: int
    modulus: int


def solve_mod(a: np.ndarray, y: Sequence[int], e: int) -> tuple[list[int] | None, list[Congruence]]:
    """Deterministic minimal solution of A x == y (mod e), or certificates.

    Returns (x, []) on success with every free coordinate zero and every
    pivot coordinate minimal nonnegative, or (None, failed) where ``failed``
    lists the reduced congruences that admit no solution.
    """
    cols = int(a.shape[1])
    aug = np.concatenate([a.astype(np.int64), np.asarray([y], dtype=np.int64).T], axis=1)
    rows = howell_reduce_rows(aug, e).tolist()
    x = [0] * cols
    failed: list[Congruence] = []
    for row in reversed(rows):
        p = next(i for i, v in enumerate(row) if v)
        if p == cols:
            failed.append(Congruence(None, 0, row[cols], e))
            continue
        rhs = (row[cols] - sum(row[j] * x[j] for j in range(p + 1, cols))) % e
        coeff = row[p]
        g = gcd(coeff, e)
        if rhs % g:
            failed.append(Congruence(p, coeff, rhs, e))
            continue
        x[p] = (rhs // g) * pow(coeff // g, -1, e // g) % (e // g) if e // g > 1 else 0
    if failed:
        return None, failed
    return x, []
