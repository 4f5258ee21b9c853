"""Exact integer linear algebra: Smith and Hermite forms, kernels mod n.

Everything here works over plain Python integers, so results are exact at
any size.  The only numpy use is a fast path for row reduction mod a small
modulus, where every intermediate value stays far below 2**63.

Conventions: a matrix is a list of rows; ``snf`` returns unimodular ``U``,
``V`` with ``U @ M @ V`` diagonal, plus their exact inverses, tracked by
mirroring every elementary operation.  Pivot selection is deterministic
(smallest nonzero absolute value, row-major tie break), so identical inputs
produce identical transforms on every platform.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence

import numpy as np

from .errors import GerbesError

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    bt = list(zip(*b)) if b else []
    return [[sum(ra[k] * bc[k] for k in range(inner)) for bc in bt] for ra in a]


def mat_vec(a: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


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
    """U @ M @ V = D with U, V unimodular; diag holds the diagonal of D."""

    rows: int
    cols: int
    diag: tuple[int, ...]
    U: Matrix
    V: Matrix
    U_inv: Matrix
    V_inv: Matrix

    def diagonal_at(self, i: int) -> int:
        return self.diag[i] if i < len(self.diag) else 0


def _verify_snf(m: Matrix, res: SNFResult) -> None:
    d = mat_mul(mat_mul(res.U, m), res.V) if m else []
    for i in range(res.rows):
        for j in range(res.cols):
            want = res.diag[i] if i == j and i < len(res.diag) else 0
            if d[i][j] != want:
                raise GerbesError("smith normal form round-trip check failed")
    for mat, inv in ((res.U, res.U_inv), (res.V, res.V_inv)):
        prod = mat_mul(mat, inv)
        n = len(mat)
        for i in range(n):
            for j in range(n):
                if prod[i][j] != (1 if i == j else 0):
                    raise GerbesError("smith normal form transform inverse check failed")


def snf(m: Sequence[Sequence[int]]) -> SNFResult:
    """Smith normal form with transforms and their exact inverses.

    The returned diagonal satisfies d_i >= 0 and d_i | d_{i+1}.  The
    factorization is re-verified exactly before returning.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    a = [list(row) for row in m]
    u, u_inv = identity_matrix(rows), identity_matrix(rows)
    v, v_inv = identity_matrix(cols), identity_matrix(cols)

    def row_swap(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        for r in u_inv:
            r[i], r[j] = r[j], r[i]

    def col_swap(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        v_inv[i], v_inv[j] = v_inv[j], v_inv[i]

    def row_add(i, j, q):
        # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in u_inv:
            r[j] -= q * r[i]

    def col_add(i, j, q):
        # col_i += q * col_j
        for r in a:
            r[i] += q * r[j]
        for r in v:
            r[i] += q * r[j]
        v_inv[j] = [x - q * y for x, y in zip(v_inv[j], v_inv[i])]

    def row_negate(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        for r in u_inv:
            r[i] = -r[i]

    def find_pivot(t: int) -> tuple[int, int] | None:
        best = None
        where = None
        for i in range(t, rows):
            row = a[i]
            for j in range(t, cols):
                x = row[j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    where = (i, j)
                    if best == 1:
                        return where
        return where

    n = min(rows, cols)
    for t in range(n):
        while True:
            where = find_pivot(t)
            if where is None:
                break
            if where[0] != t:
                row_swap(t, where[0])
            if where[1] != t:
                col_swap(t, where[1])
            p = a[t][t]
            # Reduce column t, then row t, against the pivot.
            for i in range(t + 1, rows):
                if a[i][t]:
                    row_add(i, t, -(a[i][t] // p))
            if any(a[i][t] for i in range(t + 1, rows)):
                continue  # a remainder smaller than |p| appeared
            for j in range(t + 1, cols):
                if a[t][j]:
                    col_add(j, t, -(a[t][j] // p))
            if any(a[t][j] for j in range(t + 1, cols)):
                continue
            # Make the pivot divide every remaining entry, so the final
            # diagonal satisfies the chain with no post-processing.
            bad = None
            for i in range(t + 1, rows):
                row = a[i]
                for j in range(t + 1, cols):
                    if row[j] % p:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_add(t, bad, 1)
        if where is None:
            break
        if a[t][t] < 0:
            row_negate(t)

    diag = tuple(a[i][i] for i in range(n))
    res = SNFResult(rows, cols, diag, u, v, u_inv, v_inv)
    _verify_snf([list(row) for row in m], res)
    return res


def hermite_column_basis(generators: Sequence[Sequence[int]]) -> Matrix:
    """Canonical column-Hermite basis of the lattice spanned by ``generators``.

    ``generators`` are column vectors (each a list of length ``dim``).  The
    result is a list of basis columns, in echelon order with positive pivots
    and entries to the right of each pivot reduced; it depends only on the
    spanned lattice, not on generator order.
    """
    cols = [list(g) for g in generators]
    dim = len(cols[0]) if cols else 0
    basis: list[list[int]] = []
    pivots: list[int] = []
    for col in cols:
        work = col
        for b, p in zip(basis, pivots):
            if work[p]:
                g, s, t = xgcd(b[p], work[p])
                nb = [s * x + t * y for x, y in zip(b, work)]
                work = [(b[p] // g) * y - (work[p] // g) * x for x, y in zip(b, work)]
                b[:] = nb
        r = next((i for i, x in enumerate(work) if x), None)
        if r is not None:
            if work[r] < 0:
                work = [-x for x in work]
            basis.append(work)
            pivots.append(r)
    order = sorted(range(len(basis)), key=lambda i: pivots[i])
    basis = [basis[i] for i in order]
    pivots = [pivots[i] for i in order]
    # Second pass: full echelon (clear above pivots) for canonicality.
    for i in range(len(basis) - 1, -1, -1):
        p = pivots[i]
        for j in range(i):
            if basis[j][p]:
                q = basis[j][p] // basis[i][p]
                basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
    return basis


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


def howell_reduce_rows(a: np.ndarray, e: int) -> Matrix:
    """Howell-style row reduction of the rows of ``a`` over Z/e.

    The output rows span the same Z/e-module as the input rows, are in
    echelon order with one pivot per column, and include the annihilator
    closure: together these make greedy back-substitution complete for
    solving and membership.  Entries stay reduced into [0, e), so int64
    arithmetic is exact for any e below 2**30.
    """
    if e >= 1 << 30:
        raise GerbesError("modulus too large for the int64 reduction path")
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
    return [[int(x) for x in pivots[c]] for c in sorted(pivots)]


@dataclass(frozen=True)
class LatticeKernel:
    """Basis data for K = {x in Z^cols : A x == 0 mod e}.

    The basis is V @ diag(m); membership coordinates come from V_inv.
    """

    cols: int
    modulus: int
    V: Matrix
    V_inv: Matrix
    multipliers: tuple[int, ...]

    def basis_matrix(self) -> Matrix:
        return [
            [self.V[i][j] * self.multipliers[j] for j in range(self.cols)]
            for i in range(self.cols)
        ]

    def coordinates(self, x: Sequence[int]) -> list[int]:
        y = mat_vec(self.V_inv, x)
        out = []
        for yi, mi in zip(y, self.multipliers):
            if yi % mi:
                raise GerbesError("vector is not in the kernel lattice")
            out.append(yi // mi)
        return out

    def from_coordinates(self, c: Sequence[int]) -> list[int]:
        scaled = [ci * mi for ci, mi in zip(c, self.multipliers)]
        return mat_vec(self.V, scaled)


def kernel_mod(a: np.ndarray, e: int) -> LatticeKernel:
    """Kernel lattice of ``a`` mod ``e`` (rows may exceed columns freely)."""
    cols = int(a.shape[1])
    reduced = howell_reduce_rows(a, e)
    if not reduced:
        mult = tuple(1 for _ in range(cols))
        return LatticeKernel(cols, e, identity_matrix(cols), identity_matrix(cols), mult)
    res = snf(reduced)
    mult = tuple(e // gcd(res.diagonal_at(i), e) for i in range(cols))
    return LatticeKernel(cols, e, res.V, res.V_inv, mult)


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
    rows = howell_reduce_rows(aug, e)
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
