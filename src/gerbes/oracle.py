"""Independent cohomology oracles used to cross-check the main pipeline.

Two deliberately separate computations of H^n(G, M) for trivial actions,
both reading the bar differential from one builder, ``_bar_matrix``:

* ``enumerated_cohomology`` reads the normalized complex (tuples with an
  identity entry dropped).  It applies d to every assignment of the
  cochain space in one integer product, keeps the cocycles, enumerates the
  coboundaries, and reads the quotient structure off its Cayley table.
  Exponential, so only feasible for tiny groups.

* ``modular_cohomology`` reads the FULL (unnormalized) complex and uses
  its own small row-reduction over Z/e, counting kernels, images, and
  2-torsion.

The oracles differ in the complex they read and in their method
(enumeration or elimination).  Neither shares the complex or the linear
algebra with the main pipeline (``gerbes.cochain``, ``gerbes.linalg``), so
agreement is a real check, including of the standard normalized-versus-full
comparison.

Both raise SizeBound rather than running forever.
"""

from __future__ import annotations

import itertools
from math import gcd

import numpy as np

from .errors import InputError, SizeBound
from .finab import abelian_structure
from .groups import FiniteGroup

ENUMERATION_BOUND = 50_000


def _check_uniform(factors: tuple[int, ...]) -> int:
    if not factors:
        raise InputError("oracle needs a nontrivial module")
    if any(d != factors[0] for d in factors):
        raise InputError("oracle modules must have equal invariant factors")
    return factors[0]


def _bar_matrix(group: FiniteGroup, e: int, k: int, degree: int, normalized: bool) -> np.ndarray:
    """Matrix of d_degree mod e for the trivial action on (Z/e)^k.

    Rows are (output tuple, coordinate) and columns (input tuple,
    coordinate), tuples in lexicographic order over 1..|G|-1 on the
    normalized complex or 0..|G|-1 on the full one.  Face i adds (-1)^i;
    on the normalized complex a face with an identity entry is zero, so it
    is dropped.
    """
    elements = range(1, group.order) if normalized else range(group.order)
    in_index = {t: i for i, t in enumerate(itertools.product(elements, repeat=degree))}
    out_tuples = list(itertools.product(elements, repeat=degree + 1))
    mat = np.zeros((len(out_tuples), len(in_index)), dtype=np.int64)
    for r, t in enumerate(out_tuples):
        merged = [t[: i - 1] + (group.table[t[i - 1]][t[i]],) + t[i + 1 :] for i in range(1, degree + 1)]
        for i, face in enumerate((t[1:], *merged, t[:-1])):
            col = in_index.get(face)
            if col is not None:
                mat[r, col] += (-1) ** i
    return np.kron(mat, np.eye(k, dtype=np.int64)) % e


# -- exhaustive enumeration on the normalized complex -----------------------


def _structure_of_quotient(elements: list[tuple], sub: set, e: int, k: int) -> tuple[int, ...]:
    """Invariant factors of (span elements)/(sub) from an explicit coset table."""

    def add(a, b):
        return tuple((x + y) % e for x, y in zip(a, b))

    # Representatives of cosets.
    reps: list[tuple] = []
    seen: set[tuple] = set()
    for z in elements:
        if z in seen:
            continue
        reps.append(z)
        for b in sub:
            seen.add(add(z, b))
    index = {}
    for i, r in enumerate(reps):
        for b in sub:
            index[add(r, b)] = i
    table = [[index[add(a, b)] for b in reps] for a in reps]
    return abelian_structure(table).group.factors


def _all_vectors(e: int, n: int) -> np.ndarray:
    """Every vector of (Z/e)^n, one per row, in ``itertools.product`` order."""
    return np.indices((e,) * n, dtype=np.int64).reshape(n, e**n).T


def enumerated_cohomology(group: FiniteGroup, factors: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """H^degree by exhaustive normalized cochain enumeration (degree 1 or 2)."""
    e = _check_uniform(factors)
    k = len(factors)
    q = group.order - 1
    if degree not in (1, 2):
        raise InputError("the enumeration oracle covers degrees 1 and 2")
    slots = q**degree
    count = (e**k) ** slots
    if count > ENUMERATION_BOUND:
        raise SizeBound(
            f"enumeration space {count} exceeds the oracle bound ENUMERATION_BOUND = {ENUMERATION_BOUND}"
        )
    up = _bar_matrix(group, e, k, degree, normalized=True)
    down = _bar_matrix(group, e, k, degree - 1, normalized=True)
    assignments = _all_vectors(e, slots * k)
    cocycles = assignments[~(assignments @ up.T % e).any(axis=1)]
    images = _all_vectors(e, q ** (degree - 1) * k) @ down.T % e
    boundaries = set(map(tuple, images.tolist()))
    return _structure_of_quotient(list(map(tuple, cocycles.tolist())), boundaries, e, k)


# -- full-complex modular elimination ---------------------------------------


def _howell_rows(rows: np.ndarray, e: int) -> list[tuple[int, np.ndarray]]:
    """Echelon + annihilator closure over Z/e; returns (pivot, row) pairs."""
    pivots: dict[int, np.ndarray] = {}
    stack = [np.mod(np.asarray(r, dtype=np.int64), e) for r in rows]
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
                g = gcd(x, e)
                u = _unit_for(x, e)
                pivots[c] = row * u % e
                if g != 1:
                    stack.append((e // g) * pivots[c] % e)
                break
            b = int(p[c])
            if x % b == 0:
                row = (row - (x // b) * p) % e
                continue
            g, s, t = _xgcd(b, x)
            new_p = (s * p + t * row) % e
            row = ((b // g) * row - (x // g) * p) % e
            pivots[c] = new_p
            if g != 1:
                stack.append((e // g) * new_p % e)
    return sorted(pivots.items())


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    old_r, r, old_s, s, old_t, t = a, b, 1, 0, 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return (old_r, old_s, old_t) if old_r >= 0 else (-old_r, -old_s, -old_t)


def _unit_for(a: int, e: int) -> int:
    g = gcd(a, e)
    a1, e1 = a // g, e // g
    u = pow(a1, -1, e1) if e1 > 1 else 1
    while gcd(u, e) != 1:
        u += e1
    return u % e


def _span_size(rows: np.ndarray, e: int) -> int:
    size = 1
    for _, row in _howell_rows(rows, e):
        lead = int(row[np.nonzero(row)[0][0]])
        size *= e // gcd(lead, e)
    return size


def modular_cohomology(group: FiniteGroup, factors: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """H^degree over the full bar complex by row reduction mod e.

    Supports e prime or 4 (the oracle modules); derives the invariant
    factors from the group order and, for e = 4, the 2-torsion count.
    """
    e = _check_uniform(factors)
    k = len(factors)
    if degree not in (1, 2):
        raise InputError("the modular oracle covers degrees 1 and 2")
    n = group.order
    d_up = _bar_matrix(group, e, k, degree, normalized=False)
    d_down = _bar_matrix(group, e, k, degree - 1, normalized=False)
    vars_in = (n**degree) * k
    im_up = _span_size(d_up.T, e)
    z_size = (e**vars_in) // im_up
    b_size = _span_size(d_down.T, e)
    h_size = z_size // b_size
    if h_size == 1:
        return ()
    if e in (2, 3, 5, 7):
        d = 0
        while e**d < h_size:
            d += 1
        return (e,) * d
    if e != 4:
        raise InputError(f"unsupported oracle modulus {e}")
    # Count {z : d z = 0 and 2 z in B}: combined homogeneous system in (z, w).
    w_vars = (n ** (degree - 1)) * k
    top = np.concatenate([d_up, np.zeros((d_up.shape[0], w_vars), dtype=np.int64)], axis=1)
    bottom = np.concatenate([2 * np.eye(vars_in, dtype=np.int64), (-d_down) % e], axis=1)
    combined = np.concatenate([top, bottom], axis=0)
    sol_size = (e ** (vars_in + w_vars)) // _span_size(combined.T, e)
    ker_b = (e**w_vars) // b_size
    t_size = sol_size // ker_b
    two_torsion = t_size // b_size
    # h_size = 2^(a+2b), two_torsion = 2^(a+b)
    ab_exp = two_torsion.bit_length() - 1
    total_exp = h_size.bit_length() - 1
    b_count = total_exp - ab_exp
    a_count = ab_exp - b_count
    return (2,) * a_count + (4,) * b_count
