"""Exact integer linear algebra: Smith, Howell and Hermite forms, kernels mod n.

Exact results are numpy arrays of dtype ``object`` holding Python
integers, so they are exact at any size; row reduction mod a small
modulus uses int64 arrays, where every intermediate value stays far below
2**63.

One Smith elimination, ``_smith``, serves ``snf``, ``kernel_mod`` and
``smith_quotient``.  Its pivot is the smallest nonzero absolute value,
ties broken row-major, so identical inputs give identical transforms on
every platform.  Its pivot matrix is exact: int64 while a per-step bound
proves the next update exact, promoted in place to Python ints past it.
It tracks only the transforms its caller reads, each with its inverse, by
mirroring every elementary operation:

- ``snf`` tracks U, V, U_inv and V_inv exactly and re-verifies them in
  Python ints (``_verify_snf``);
- ``kernel_mod`` tracks V and V_inv exactly and no U, and certifies its
  kernel by V V_inv = I, the kernel congruence and the index;
- ``smith_quotient`` tracks all four reduced mod N, a multiple of the
  quotient's exponent named by its caller, and checks them mod N, which
  decides the quotient exactly (the lemma in its docstring).

Tracking the transforms modulo a multiple of the exponent is the modular
method of Domich, Kannan and Trotter (Math. Oper. Res. 12, 1987) and of
Storjohann and Mulders, "Fast algorithms for linear algebra modulo N"
(ESA 1998).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
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

    The four transforms are exact object arrays of Python integers, which
    ``snf`` re-verifies; ``kernel_mod`` and ``smith_quotient`` build none.
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


_INT64 = 1 << 63


def _absmax(x: np.ndarray) -> int:
    return int(np.abs(x).max()) if x.size else 0


def product_mod(a: np.ndarray, b: np.ndarray, e: int) -> np.ndarray:
    """a @ b mod e, exactly, for entries in [0, e).

    In int64 while the inner dimension times (e - 1)**2 stays below 2**63,
    in Python ints otherwise; the result is int64.
    """
    if a.shape[-1] * (e - 1) ** 2 < _INT64:
        return a @ b % e
    return (a.astype(object) @ b.astype(object) % e).astype(np.int64)


def _exact_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b exactly: in int64 when a bound on every partial sum fits, in Python ints otherwise."""
    if a.shape[-1] * _absmax(a) * _absmax(b) < _INT64:
        return a.astype(np.int64) @ b.astype(np.int64)
    return a.astype(object) @ b.astype(object)


class _Rows:
    """An integer matrix under row operations, exact or reduced mod ``modulus``.

    An exact matrix is held in int64 while ``bound``, a bound on its
    entries, proves the next update exact, and is promoted in place to
    Python ints once it cannot.  A matrix mod N (``modulus`` N > 0) keeps
    its entries and scalars in [0, N), so an update of n rows stays below
    n N^2, and it is held in int64 when that bound fits.
    """

    __slots__ = ("x", "modulus", "bound")

    def __init__(self, x: np.ndarray, modulus: int = 0) -> None:
        self.modulus = modulus
        if modulus and len(x) * modulus**2 >= _INT64:
            x = x.astype(object)
        self.x = x
        self.bound = 0 if modulus else _absmax(x)

    def _room(self, grow: int) -> None:
        """Make room for an update whose entries are at most ``grow`` times the bound."""
        if self.x.dtype == object or self.modulus:
            return
        if self.bound * grow >= _INT64:
            self.bound = _absmax(self.x)
        if self.bound * grow >= _INT64:
            self.x = self.x.astype(object)
        else:
            self.bound *= grow

    def _scalars(self, q: np.ndarray, terms: int) -> np.ndarray:
        """``q``, reduced mod N, in this matrix's dtype, with room for a sum of ``terms`` multiples."""
        if self.modulus:
            q = q % self.modulus
        else:
            self._room(1 + terms * _absmax(q))
        return q.astype(self.x.dtype, copy=False)

    def _reduce(self, at: slice | int) -> None:
        if self.modulus:
            self.x[at] %= self.modulus

    def swap(self, t: int, i: int) -> None:
        self.x[[t, i]] = self.x[[i, t]]

    def axpy(self, t: int, q: np.ndarray) -> None:
        """row_i += q_i row_t for every i > t."""
        q = self._scalars(q, 1)
        self.x[t + 1 :] += q[:, None] * self.x[t]
        self._reduce(slice(t + 1, None))

    def dot(self, t: int, q: np.ndarray) -> None:
        """row_t -= sum_i q_i row_i over i > t."""
        q = self._scalars(q, len(q))
        self.x[t] -= q @ self.x[t + 1 :]
        self._reduce(t)

    def add(self, t: int, b: int, sign: int) -> None:
        """row_t += sign row_b."""
        self._room(2)
        self.x[t] += sign * self.x[b]
        self._reduce(t)

    def negate(self, t: int) -> None:
        self.x[t] = -self.x[t]
        self._reduce(t)


class _Transform:
    """A transform T and its inverse, under the operations of one side of the elimination.

    It holds T and the transpose of T^-1, both as ``_Rows``: an elementary
    operation E sends T to E T and T^-1 to T^-1 E^-1, so the second matrix
    takes E^-T, which is again a row operation.  For U the operations are
    the elimination's row operations; for V, held as V^T and V_inv, they
    are its column operations, transposed.
    """

    __slots__ = ("fwd", "inv")

    def __init__(self, n: int, modulus: int) -> None:
        self.fwd = _Rows(np.eye(n, dtype=np.int64), modulus)
        self.inv = _Rows(np.eye(n, dtype=np.int64), modulus)

    def swap(self, t: int, i: int) -> None:
        self.fwd.swap(t, i)
        self.inv.swap(t, i)

    def reduce(self, t: int, q: np.ndarray) -> None:
        """line_i += q_i line_t for every i > t."""
        self.fwd.axpy(t, q)
        self.inv.dot(t, q)

    def add(self, t: int, b: int) -> None:
        """line_t += line_b."""
        self.fwd.add(t, b, 1)
        self.inv.add(b, t, -1)

    def negate(self, t: int) -> None:
        self.fwd.negate(t)
        self.inv.negate(t)


_Pair = tuple[np.ndarray, np.ndarray]


def _smith(
    m: np.ndarray, left: bool, modulus: int = 0
) -> tuple[tuple[int, ...], _Pair | None, _Pair]:
    """The Smith elimination of ``m``: its exact diagonal and its transforms.

    ``m`` is an object array of Python ints or an int64 array with no
    entry -2**63.  The pivot is the smallest nonzero
    |entry| of the remaining block, ties broken row-major, so identical
    inputs give identical transforms on every platform.  The pivot matrix
    is exact (``_Rows``, int64 until an update could overflow).  The right
    transform (V) is always tracked and the left one (U) only when
    ``left``, exactly or, when ``modulus`` N > 0, reduced mod N; they are
    returned as (U, U_inv), or None, and (V, V_inv).
    """
    rows, cols = m.shape
    fits = m.dtype != object or _absmax(m) < _INT64 >> 1
    a = _Rows(m.astype(np.int64) if fits else m.copy())
    u = _Transform(rows, modulus) if left else None
    v = _Transform(cols, modulus)
    for t in range(min(rows, cols)):
        while True:
            block = np.abs(a.x[t:, t:]).ravel()
            live = np.flatnonzero(block)
            if live.size == 0:
                break
            a.bound = int(block.max())
            i, j = divmod(int(live[np.argmin(block[live])]), cols - t)
            if i:
                a.swap(t, t + i)
                if u:
                    u.swap(t, t + i)
            if j:
                a.x[:, [t, t + j]] = a.x[:, [t + j, t]]
                v.swap(t, t + j)
            p = a.x[t, t]
            # Reduce column t, then row t, against the pivot: row_i += q_i row_t
            # for every i > t, then col_j += q_j col_t for every j > t.
            q = -(a.x[t + 1 :, t] // p)
            if q.any():
                a.axpy(t, q)
                if u:
                    u.reduce(t, q)
            if a.x[t + 1 :, t].any():
                continue  # a remainder smaller than |p| appeared
            q = -(a.x[t, t + 1 :] // p)
            if q.any():
                # Column t is p e_t now, so the column operations change row t only.
                a.x[t, t + 1 :] %= p
                v.reduce(t, q)
            if a.x[t, t + 1 :].any():
                continue
            # Make the pivot divide every remaining entry, so the final
            # diagonal satisfies the chain with no post-processing.
            bad = np.flatnonzero((a.x[t + 1 :, t + 1 :] % p).any(axis=1))
            if bad.size == 0:
                break
            b = t + 1 + int(bad[0])
            a.add(t, b, 1)
            if u:
                u.add(t, b)
        if live.size == 0:
            break
        if a.x[t, t] < 0:
            a.negate(t)
            if u:
                u.negate(t)
    diag = tuple(int(a.x[i, i]) for i in range(min(rows, cols)))
    return diag, u and (u.fwd.x, u.inv.x.T), (v.fwd.x.T, v.inv.x)


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
    diag, (U, U_inv), (V, V_inv) = _smith(m, left=True)
    res = SNFResult(rows, cols, diag, *(x.astype(object) for x in (U, V, U_inv, V_inv)))
    _verify_snf(m, res)
    return res


def smith_quotient(
    relations: np.ndarray, modulus: int
) -> tuple[tuple[int, ...], np.ndarray, np.ndarray]:
    """Z^dim modulo the lattice L spanned by the columns of ``relations``.

    The caller guarantees that N = ``modulus`` kills the quotient, that is
    N Z^dim is inside L.  Returns the invariant factors d >= 2 of the
    quotient, the generator columns (from ``U_inv``) and the reducer rows
    (from ``U``), both int64 in [0, N) for N below 2**63: the class of y
    has coordinates ``reducers @ y`` mod the factors, and the k-th
    generator column has coordinates e_k.  Raises if some diagonal entry is 0 or does not divide
    N, which N Z^dim inside L rules out.

    The diagonal comes from the exact pivot matrix; the transforms are
    tracked mod N only, and checked: U R V == D, U U_inv == I and
    V V_inv == I mod N.  Lemma: when N Z^dim is inside L, these checks
    decide Z^dim / L exactly.  Proof: Z^dim / L = (Z/N)^dim / (L / N Z^dim),
    and L / N Z^dim is the column span of R mod N.  V is invertible mod N,
    so R V spans it too, and so does D = U R V after the automorphism U of
    (Z/N)^dim.  So x -> U x mod N induces Z^dim / L = (+)_i Z/d_i, with
    the inverse sending e_k to the column k of U_inv.
    """
    rows, cols = relations.shape
    diag, (U, U_inv), (V, V_inv) = _smith(relations, left=True, modulus=modulus)
    diag += (0,) * (rows - len(diag))
    if 0 in diag:
        raise GerbesError("quotient has a free part; relations are missing")
    if any(modulus % d for d in diag):
        raise GerbesError(f"the quotient is not killed by {modulus}")
    d = np.zeros((rows, cols), dtype=np.int64)
    d[np.arange(rows), np.arange(rows)] = [x % modulus for x in diag]
    r = np.asarray(relations % modulus, dtype=np.int64)
    if not np.array_equal(product_mod(product_mod(U, r, modulus), V, modulus), d):
        raise GerbesError("smith quotient round-trip check failed")
    for mat, inv in ((U, U_inv), (V, V_inv)):
        if not np.array_equal(product_mod(mat, inv, modulus), np.eye(len(mat), dtype=np.int64)):
            raise GerbesError("smith quotient transform inverse check failed")
    keep = [i for i, x in enumerate(diag) if x >= 2]
    return tuple(diag[i] for i in keep), U_inv[:, keep].astype(np.int64), U[keep].astype(np.int64)


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


def kernel_mod(a: np.ndarray, e: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """K = {x in Z^cols : a x == 0 mod e} as ``(V, V_inv, m)`` (rows may exceed columns freely).

    The columns of V diag(m) are a basis of K, so x in K has the integer
    coordinates diag(1/m) V_inv x.  V and V_inv are exact and inverse to
    each other (int64, or object arrays of Python ints past int64), and m
    is int64.  The Smith elimination of the Howell rows of ``a`` tracks V
    and V_inv and no U; m_j = e / gcd(d_j, e) for its diagonal d.  The
    result is certified exactly: V V_inv = I, so V is unimodular;
    a V diag(m) == 0 mod e, so the basis spans a sublattice of K; and
    prod m_j equals prod e / g_i over the Howell pivots g_i, which is the
    size of the row span of ``a`` mod e and so the index of K in Z^cols.
    A sublattice of the same index is K itself.
    """
    cols = int(a.shape[1])
    reduced = howell_reduce_rows(a, e)
    if not len(reduced):
        ident = np.identity(cols, dtype=np.int64)
        return ident, ident, np.ones(cols, dtype=np.int64)
    diag, _, (V, V_inv) = _smith(reduced, left=False)
    diag += (0,) * (cols - len(diag))
    mult = np.asarray([e // gcd(d, e) for d in diag], dtype=np.int64)
    if not np.array_equal(_exact_product(V, V_inv), np.eye(cols, dtype=np.int64)):
        raise GerbesError("kernel transform inverse check failed")
    if product_mod(np.mod(a, e), np.mod(V, e).astype(np.int64) * mult % e, e).any():
        raise GerbesError("kernel basis vector is not in the kernel")
    pivots = reduced[np.arange(len(reduced)), (reduced != 0).argmax(axis=1)]
    if prod(int(x) for x in mult) != prod(e // int(g) for g in pivots):
        raise GerbesError("kernel basis has the wrong index")
    return V, V_inv, mult


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
