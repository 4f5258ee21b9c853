"""Normalized bar-resolution cochains, cohomology, cup products, solvers.

A degree-n cochain stores one int64 row per n-tuple of non-identity group
elements (value zero whenever an argument is the identity), indexed
lexicographically, in one read-only (q^n, rank) array whose entry i of each
row is reduced mod the carrier factor d_i.  The differential is the
inhomogeneous bar formula

    (dc)(g_1,...,g_{n+1}) = g_1.c(g_2,...,g_{n+1})
                            + sum_i (-1)^i c(..., g_i g_{i+1}, ...)
                            + (-1)^{n+1} c(g_1,...,g_n)

evaluated exactly.  Cohomology is computed by integer SNF on the kernel
lattice {x : d_n x == 0 mod carrier factors} against the image lattice of
d_{n-1} plus the carrier relations; canonical representatives come from the
deterministic pivot order, so identical inputs give identical certificates.
That Smith data is read once, at construction, into the group's class
matrix ``classes``: an int64 matrix over Z/e, e the carrier exponent, whose
row i sends every cocycle z to (e/d_i) reduce(z)_i mod e.  It is integral
because a class depends on z only modulo the carrier factors.  ``reduce``
is one product with it and ``functional`` one combination of its rows.
Kernels and coboundary solves use only the generator rows of d_n (see
``_generator_slots``), which cut out the same cocycles.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DegreeTooHigh,
    GerbesError,
    InputError,
    NotACocycle,
    SizeBound,
)
from .groups import Subgroup, memo
from .linalg import Congruence, howell_relations, kernel_mod, smith_quotient, solve_mod
from .modules import GModule, Pairing, restrict_module

MAX_DEGREE = 3
_PLAN_SLOT_BOUND = 4_000_000
# Dense d_n matrices are the one allocation that grows without bound in |G|
# (|G| = 64, degree 2 would take 7.4 GiB); 1 GiB is far above any shipped use.
_MATRIX_BYTE_BOUND = 1 << 30
# The object SNF behind H^n grows faster than cubically in the number of
# cochain coordinates q^n * rank, its column count, and its cost depends on
# the coefficients.  H^2 on a 2-core host:
#   Z/2:      361 columns 23 s, 441 42 s, 529 69 s, 625 150 s;
#   Z/4:      361 columns (C20) 66 s;
#   Z/4(-1):  225 columns (C16) 11 s, 289 (C18) 33 s, 361 (C20) 160 s,
#             441 (C22) over 595 s;
#   Z/8(-1):  225 columns 27 s, 289 224 s.
# The bound is the largest column count at which the twisted Z/4, the mu of
# the shipped witness and of the cyclic benchmark documents, stays within
# about two minutes.  Z/8(-1) passes two minutes sooner, at 289 columns.
_KERNEL_COLUMN_BOUND = 289


class Cochain:
    """An immutable normalized cochain of degree 0..3; ``array`` is its only storage."""

    __slots__ = ("module", "degree", "array")

    def __init__(self, module: GModule, degree: int, values: Sequence[Sequence[int]] | np.ndarray) -> None:
        if not 0 <= degree <= MAX_DEGREE:
            raise DegreeTooHigh(f"cochain degree {degree} outside 0..{MAX_DEGREE}")
        slots = (module.group.order - 1) ** degree
        if len(values) != slots:
            raise InputError(f"expected {slots} value slots, got {len(values)}")
        self.module = module
        self.degree = degree
        self.array = _reduced(values, module.carrier.factors, slots)

    @staticmethod
    def zero(module: GModule, degree: int) -> Cochain:
        q = module.group.order - 1
        return Cochain(module, degree, np.zeros((q**degree, module.rank), dtype=np.int64))

    @staticmethod
    def from_function(module: GModule, degree: int, fn: Callable[[tuple[int, ...]], Sequence[int]]) -> Cochain:
        q = module.group.order - 1
        vals = [fn(t) for t in itertools.product(range(1, q + 1), repeat=degree)]
        return Cochain(module, degree, vals)

    @staticmethod
    def random(module: GModule, degree: int, rng: random.Random) -> Cochain:
        q = module.group.order - 1
        d = module.carrier.factors
        vals = [
            tuple(rng.randrange(di) for di in d) for _ in range(q**degree)
        ]
        return Cochain(module, degree, vals)

    @property
    def values(self) -> tuple[tuple[int, ...], ...]:
        """The slot vectors as tuples of ints, derived from ``array``."""
        return tuple(map(tuple, self.array.tolist()))

    def _other(self, other: Cochain) -> np.ndarray:
        if other.module is not self.module or other.degree != self.degree:
            raise InputError("cochain mismatch in arithmetic")
        return other.array

    def __add__(self, other: Cochain) -> Cochain:
        return Cochain(self.module, self.degree, self.array + self._other(other))

    def __sub__(self, other: Cochain) -> Cochain:
        return Cochain(self.module, self.degree, self.array - self._other(other))

    def __neg__(self) -> Cochain:
        return Cochain(self.module, self.degree, -self.array)

    def scaled(self, n: int) -> Cochain:
        # Every factor divides the exponent, and GModule keeps exponent**2
        # inside int64.
        return Cochain(self.module, self.degree, n % self.module.carrier.exponent * self.array)

    def is_zero(self) -> bool:
        return not self.array.any()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Cochain)
            and other.module is self.module
            and other.degree == self.degree
            and np.array_equal(other.array, self.array)
        )

    def __hash__(self) -> int:
        return hash((self.module, self.degree, self.array.tobytes()))

    def __repr__(self) -> str:
        return f"Cochain(deg={self.degree}, {self.module!r})"


def _reduced(values: Sequence[Sequence[int]] | np.ndarray, factors: tuple[int, ...], slots: int) -> np.ndarray:
    """The read-only (slots, rank) int64 array of ``values``, entry i of each row mod factors[i].

    Integer entries of any size reduce exactly: unsigned and object arrays
    (Python ints past int64) are reduced as Python ints.
    """
    try:
        raw = np.asarray(values).reshape(slots, len(factors))
    except ValueError:
        raise InputError(f"cochain values are not {slots} vectors of rank {len(factors)}") from None
    if raw.size == 0 or raw.dtype.kind == "i":
        out = raw.astype(np.int64, copy=False) % np.asarray(factors, dtype=np.int64)
    elif raw.dtype.kind in "uO" and all(isinstance(x, (int, np.integer)) for x in raw.flat):
        out = (raw.astype(object) % np.asarray(factors, dtype=object)).astype(np.int64)
    else:
        raise InputError(f"cochain values have dtype {raw.dtype}, not integers")
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class _DiffPlan:
    """Precomputed index arrays for one differential degree."""

    degree: int
    out_slots: int
    in_slots: int
    middle: tuple[tuple[int, np.ndarray], ...]  # (sign, input index per output slot)
    last_sign: int
    last_idx: np.ndarray


def _digits(count: int, positions: int, q: int) -> np.ndarray:
    """Digit array (count x positions) of tuple ranks, digits in 1..q."""
    idx = np.arange(count, dtype=np.int64)
    out = np.empty((count, positions), dtype=np.int64)
    for p in range(positions - 1, -1, -1):
        out[:, p] = idx % q + 1
        idx //= q
    return out


def _rank_of_digits(dig: np.ndarray, q: int) -> np.ndarray:
    out = np.zeros(dig.shape[0], dtype=np.int64)
    for p in range(dig.shape[1]):
        out = out * q + (dig[:, p] - 1)
    return out


def _diff_plan(module: GModule, degree: int) -> _DiffPlan:
    q = module.group.order - 1
    n = degree
    out_slots = q ** (n + 1)
    if out_slots > _PLAN_SLOT_BOUND:
        raise SizeBound(f"differential target has {out_slots} slots; raise the bound or shrink the group")
    in_slots = q**n
    mt = np.asarray(module.group.table, dtype=np.int64)
    dig = _digits(out_slots, n + 1, q)
    middle = []
    sentinel = in_slots  # extra zero row in the padded value array
    for i in range(1, n + 1):
        merged = mt[dig[:, i - 1], dig[:, i]]
        cols = [dig[:, j] for j in range(i - 1)] + [merged] + [dig[:, j] for j in range(i + 1, n + 1)]
        stack = np.stack(cols, axis=1) if cols else np.zeros((out_slots, 0), dtype=np.int64)
        killed = merged == 0
        safe = stack.copy()
        safe[killed] = 1
        idx = _rank_of_digits(safe, q)
        idx[killed] = sentinel
        middle.append(((-1) ** i, idx))
    last_idx = (
        _rank_of_digits(dig[:, :n], q) if n else np.zeros(out_slots, dtype=np.int64)
    )
    return _DiffPlan(n, out_slots, in_slots, tuple(middle), (-1) ** (n + 1), last_idx)


def _differential_array(c: Cochain) -> np.ndarray:
    """Raw value table of dc (degree + 1), before wrapping in a Cochain."""
    module = c.module
    n = c.degree
    q = module.group.order - 1
    k = module.rank
    plan = memo(module, n, _diff_plan, module, n)
    if q == 0 or k == 0:
        return np.zeros((plan.out_slots, k), dtype=np.int64)
    vals = c.array
    padded = np.vstack([vals, np.zeros((1, k), dtype=np.int64)])
    out = np.zeros((plan.out_slots, k), dtype=np.int64)
    block = plan.in_slots
    for g in range(1, q + 1):
        p = np.asarray(module.matrix(g), dtype=np.int64)
        out[(g - 1) * block : g * block] += vals @ p.T
    for sign, idx in plan.middle:
        out += sign * padded[idx]
    out += plan.last_sign * padded[plan.last_idx]
    factors = np.asarray(module.carrier.factors, dtype=np.int64)
    return np.mod(out, factors)


def differential(c: Cochain) -> Cochain:
    """The bar differential, for input degrees 0..2."""
    if c.degree >= MAX_DEGREE:
        raise DegreeTooHigh("differential of a degree-3 cochain leaves the supported range")
    return Cochain(c.module, c.degree + 1, _differential_array(c))


def is_cocycle(c: Cochain) -> bool:
    """d c == 0, for degrees 0..3."""
    return not _differential_array(c).any()


def _restriction_slots(sub: Subgroup, degree: int) -> np.ndarray:
    group, embed = sub.as_group()
    q = group.order - 1
    local = _digits(q**degree, degree, q)
    return _rank_of_digits(np.asarray(embed, dtype=np.int64)[local], sub.parent.order - 1)


def restriction_slots(sub: Subgroup, degree: int) -> np.ndarray:
    """For each slot of a degree-n cochain on the subgroup, its slot on the parent.

    Local slot (a_1, ..., a_n) is parent slot (embed[a_1], ..., embed[a_n]),
    so restriction is a gather through this map and pulling a row vector
    back from the subgroup is a scatter through it.
    """
    return memo(sub.parent, (sub.elements, degree), _restriction_slots, sub, degree)


def restriction(z: Cochain, sub: Subgroup) -> Cochain:
    """Pull a cochain back to a subgroup (values on tuples from the subgroup)."""
    return Cochain(restrict_module(z.module, sub), z.degree, z.array[restriction_slots(sub, z.degree)])


def cup(a: Cochain, b: Cochain, pairing: Pairing) -> Cochain:
    """Cup product (a u b)(g_1..g_{p+q}) = pair(a(g_1..g_p), (g_1..g_p).b(rest))."""
    p, q_deg = a.degree, b.degree
    if p + q_deg > MAX_DEGREE:
        raise DegreeTooHigh(f"cup degree {p + q_deg} exceeds {MAX_DEGREE}")
    if not pairing.left.compatible_with(a.module) or not pairing.right.compatible_with(b.module):
        raise InputError("cup arguments do not match the pairing's modules")
    group = pairing.left.group
    act, pair = pairing.right.apply, pairing.apply
    b_rows = b.array.tolist()
    vals = []
    # Slots are lexicographic, so the head (g_1..g_p) runs over a's slots in
    # order and, for each, the tail over b's.
    heads = itertools.product(range(1, group.order), repeat=p)
    for head, a_row in zip(heads, a.array.tolist()):
        prefix = 0
        for g in head:
            prefix = group.table[prefix][g]
        vals.extend(pair(a_row, act(prefix, b_row)) for b_row in b_rows)
    return Cochain(pairing.target, p + q_deg, vals)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Evidence that a cocycle is not a coboundary.

    For degrees 1 and 2 this is the nonzero class in canonical coordinates;
    for degree 3 it is the list of unsatisfiable reduced congruences.
    """

    degree: int
    class_coords: tuple[int, ...] | None
    congruences: tuple[Congruence, ...]


@dataclass(frozen=True)
class CoboundaryResult:
    primitive: Cochain | None
    certificate: ObstructionCertificate | None


def _generator_slots(module: GModule, degree: int) -> np.ndarray:
    """Output slots of d_degree whose first argument is a generator.

    The generators S are those of ``FiniteGroup.tree``, in increasing
    order, so the slots form one contiguous block per generator, in the
    order of the full matrix.

    Lemma: for a normalized cochain x, dx = 0 exactly when
    (dx)(s, g_2, ..., g_{n+1}) = 0 for every s in S.  Proof: v = dx is a
    normalized cocycle.  In (dv)(s, b, c_1, ..., c_n) = 0 every term but
    s.v(b, c) - v(sb, c) has first argument s, so if v vanishes on S x G^n
    then v(sb, c) = s.v(b, c).  Since v(1, c) = 0 and S generates G, the
    induction of the lemma in ``FiniteGroup.tree`` gives v = 0.  So the
    generator rows of d_n have the kernel of d_n, hence the same row span
    mod e (Z/e is quasi-Frobenius), and a solve of dc = y for a cocycle y
    needs only those rows, because dc - y is a cocycle too.
    """
    block = (module.group.order - 1) ** degree
    gens = np.asarray(module.group.tree[0], dtype=np.int64)
    return ((gens[:, None] - 1) * block + np.arange(block)).ravel()


def _differential_matrix(module: GModule, degree: int, slots: np.ndarray | None = None) -> np.ndarray:
    """Integer matrix of d_degree on flattened coordinates (int64).

    Only the rows of the output ``slots`` are built, all of them by default.
    Raises SizeBound, before allocating, when the matrix would pass
    ``_MATRIX_BYTE_BOUND`` bytes.
    """
    q = module.group.order - 1
    k = module.rank
    out_slot = np.arange(q ** (degree + 1)) if slots is None else slots
    in_dim = (q**degree) * k
    out_dim = len(out_slot) * k
    if out_dim * in_dim * 8 > _MATRIX_BYTE_BOUND:
        raise SizeBound(
            f"d_{degree} over a group of order {q + 1} is a {out_dim} x {in_dim} int64 matrix "
            f"of {out_dim * in_dim * 8} bytes, past the bound of {_MATRIX_BYTE_BOUND} bytes"
        )
    mat = np.zeros((out_dim, in_dim), dtype=np.int64)
    if in_dim == 0 or out_dim == 0:
        return mat
    plan = memo(module, degree, _diff_plan, module, degree)
    # Every plan term sends an output slot to at most one input slot, so
    # each fancy-indexed add below touches every entry at most once.
    comp = np.arange(k)
    rows = np.arange(len(out_slot))[:, None] * k + comp
    acting = np.asarray([module.matrix(g) for g in range(q + 1)], dtype=np.int64)
    in_cols = (out_slot % plan.in_slots)[:, None] * k + comp
    mat[rows[:, :, None], in_cols[:, None, :]] += acting[out_slot // plan.in_slots + 1]
    for sign, idx in (*plan.middle, (plan.last_sign, plan.last_idx)):
        idx = idx[out_slot]
        live = idx != plan.in_slots
        mat[rows[live], idx[live, None] * k + comp] += sign
    return mat


def _scaled_differential(module: GModule, degree: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Generator rows of d_degree over Z/e, e = max(exponent, 2), row i scaled by e / d_i.

    Returns the matrix, its output slots (``_generator_slots``) and e; x is
    a cocycle modulo the carrier factors exactly when the matrix sends it to
    0 mod e.
    """
    e = max(module.carrier.exponent, 2)
    slots = _generator_slots(module, degree)
    scale = np.tile(e // np.asarray(module.carrier.factors, dtype=np.int64), len(slots))
    return (_differential_matrix(module, degree, slots) * scale[:, None]) % e, slots, e


class CohomologyGroup:
    """H^n(G, M) with canonical representatives and its class matrix.

    ``classes`` is the int64 class matrix over Z/e, e the carrier
    exponent: row i sends every cocycle z to (e/d_i) reduce(z)_i mod e.
    It is all that ``reduce`` and ``functional`` read.
    """

    __slots__ = ("module", "degree", "factors", "representatives", "classes")

    def __init__(self, module: GModule, degree: int) -> None:
        if degree not in (0, 1, 2):
            raise DegreeTooHigh("cohomology is computed for degrees 0, 1, 2 only")
        self.module = module
        self.degree = degree
        q = module.group.order - 1
        # H^n of the zero module is 0.  For n >= 1, |G| and the carrier
        # exponent both kill H^n, so coprime ones force H^n = 0 too: nothing
        # is eliminated, at any size.
        if module.rank == 0 or (degree >= 1 and math.gcd(q + 1, module.carrier.exponent) == 1):
            self.factors: tuple[int, ...] = ()
            self.representatives: tuple[Cochain, ...] = ()
            self.classes = np.zeros((0, q**degree * module.rank), dtype=np.int64)
            self.classes.flags.writeable = False
            return
        if q**degree * module.rank > _KERNEL_COLUMN_BOUND:
            raise SizeBound(
                f"H^{degree} over a group of order {q + 1} has {q**degree * module.rank} "
                f"cochain coordinates, past the bound of {_KERNEL_COLUMN_BOUND}"
            )
        a_scaled, _, e = memo(module, degree, _scaled_differential, module, degree)
        kernel = kernel_mod(a_scaled, e)
        # The cocycle lattice modulo [d_{n-1} | diag(carrier factors)], in
        # kernel coordinates.
        relations = np.diag(np.tile(np.asarray(module.carrier.factors, dtype=object), q**degree))
        if degree >= 1:
            relations = np.hstack([_differential_matrix(module, degree - 1), relations])
        self.factors, generators, reducers = smith_quotient(kernel.coordinates(relations))
        self.representatives = tuple(
            Cochain(module, degree, vec.reshape(-1, module.rank))
            for vec in (kernel.basis @ generators).T
        )
        # reduce(z) = reducers @ y mod the factors, for the kernel
        # coordinates y = diag(1/m) V_inv z (m the kernel multipliers).
        # Lemma: d_i divides reducers_ij e/m_j, so row i of the class
        # matrix, (e/d_i) reducers_i diag(1/m) V_inv, is an integer row.
        # Proof: a class depends on z only modulo the carrier factors, so
        # reduce(z + e w) = reduce(z) for every integer w.  In kernel
        # coordinates e w is diag(e/m) V_inv w, and V_inv is unimodular, so
        # V_inv w runs over all of Z^N and row i of reducers diag(e/m)
        # vanishes mod d_i.  The division is checked all the same.
        scaled = np.asarray([e // d for d in self.factors], dtype=object)[:, None] * reducers
        if (scaled % kernel.multipliers).any():
            raise GerbesError("class matrix row is not integral")
        rows = (scaled // kernel.multipliers % e) @ (kernel.V_inv % e) % e
        self.classes = rows.astype(np.int64)
        self.classes.flags.writeable = False
        for i, rep in enumerate(self.representatives):
            want = tuple(1 if j == i else 0 for j in range(len(self.factors)))
            if self.reduce(rep) != want:
                raise GerbesError("canonical representative does not reduce to a basis vector")

    @property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n

    def zero_cochain(self) -> Cochain:
        return Cochain.zero(self.module, self.degree)

    def is_cocycle(self, z: Cochain) -> bool:
        if z.degree != self.degree or not self.module.compatible_with(z.module):
            raise InputError("cochain does not live in this cohomology group")
        return is_cocycle(z)

    def reduce(self, z: Cochain) -> tuple[int, ...]:
        """Coordinates of the class of ``z`` in the invariant-factor basis."""
        if not self.is_cocycle(z):
            raise NotACocycle(f"cochain is not a {self.degree}-cocycle")
        e = self.module.carrier.exponent
        # GModule keeps e below 2**30, so each product is below 2**60, and
        # it is reduced mod e before the sum.
        v = (self.classes * z.array.ravel() % e).sum(axis=1) % e
        return tuple(int(c) * d // e for c, d in zip(v, self.factors))

    def functional(self, weights: Sequence[int], modulus: int) -> np.ndarray:
        """A row vector l on C^n with l . z == sum_i weights_i reduce(z)_i (mod modulus).

        The identity holds for every cocycle z (flattened).  ``modulus``
        must be a multiple of the carrier exponent e and divide each
        ``weights_i * factors_i``; then l is (modulus/e) sum_i a_i classes_i
        with a_i = weights_i factors_i / modulus.
        """
        e = self.module.carrier.exponent
        if (
            len(weights) != len(self.factors)
            or modulus % e
            or any(w * d % modulus for w, d in zip(weights, self.factors))
        ):
            raise GerbesError(f"weights {list(weights)} mod {modulus} are not a functional on H^{self.degree}")
        a = np.asarray([w * d // modulus % e for w, d in zip(weights, self.factors)], dtype=np.int64)
        return modulus // e * ((a[:, None] * self.classes % e).sum(axis=0) % e)

    def cochain_from_coords(self, coords: Sequence[int]) -> Cochain:
        """sum_i coords_i rep_i, as one product with the stacked representatives.

        Each term is reduced before the sum, so every entry stays below e**2
        for the exponent e, inside int64 by GModule's bound.
        """
        reps = self.representatives[: len(coords)]
        if not reps:
            return self.zero_cochain()
        c = np.asarray([int(x) % self.module.carrier.exponent for x in coords[: len(reps)]])
        terms = c[:, None, None] * np.stack([rep.array for rep in reps]) % np.asarray(self.module.carrier.factors)
        return Cochain(self.module, self.degree, terms.sum(axis=0))

    def __repr__(self) -> str:
        return f"H^{self.degree}({self.module!r}) = {list(self.factors)}"


def cohomology(module: GModule, degree: int) -> CohomologyGroup:
    """H^degree(G, M) for degree <= 2, cached on the module by degree."""
    return memo(module, degree, CohomologyGroup, module, degree)


def solve_coboundary(y: Cochain) -> CoboundaryResult:
    """Find c with dc = y, or certify that no primitive exists.

    ``y`` must be a cocycle of degree 1..3.  The solution is the
    deterministic minimal one produced by Howell back-substitution; on
    failure the certificate carries the nonzero reduced class (degrees 1
    and 2) or the unsatisfiable congruences (degree 3).
    """
    n = y.degree
    if not 1 <= n <= MAX_DEGREE:
        raise DegreeTooHigh("solve_coboundary needs degree between 1 and 3")
    if not is_cocycle(y):
        raise NotACocycle(f"target of solve_coboundary is not a {n}-cocycle")
    module = y.module
    k = module.rank
    q = module.group.order - 1
    if k == 0 or q == 0:
        return CoboundaryResult(Cochain.zero(module, n - 1), None)
    b_scaled, slots, e = memo(module, n - 1, _scaled_differential, module, n - 1)
    scale = e // np.asarray(module.carrier.factors, dtype=np.int64)
    x, failed = solve_mod(b_scaled, (y.array[slots] * scale % e).ravel(), e)
    if x is None:
        coords: tuple[int, ...] | None = None
        if n <= 2:
            coords = cohomology(module, n).reduce(y)
        return CoboundaryResult(None, ObstructionCertificate(n, coords, tuple(failed)))
    c = Cochain(module, n - 1, np.reshape(x, (-1, k)))
    if differential(c) != y:
        raise GerbesError("coboundary solver produced an invalid primitive")
    return CoboundaryResult(c, None)


def cocycle_annihilator(module: GModule, degree: int, phi: Sequence[int]) -> np.ndarray | None:
    """Certify that a row vector phi on C^degree vanishes on every cocycle.

    Coordinates are those of ``_scaled_differential`` over Z/e.  phi kills
    the cocycles, the kernel of d_degree, exactly when it lies in the row
    span of d_degree mod e, because Z/e is quasi-Frobenius, so a submodule
    is its double annihilator; the generator rows span the same module.
    Returns y with y . d_degree^S == phi (mod e), checked by one exact
    product, or None when some cocycle has phi . z != 0.
    """
    rows, _, e = memo(module, degree, _scaled_differential, module, degree)
    phi = np.asarray(phi, dtype=np.int64) % e
    y, _ = solve_mod(rows.T, phi.tolist(), e)
    if y is None:
        return None
    if ((np.asarray(y, dtype=object) @ rows - phi) % e).any():
        raise GerbesError("cocycle annihilator certificate failed its exact check")
    return np.asarray(y, dtype=np.int64)


def cocycle_relations(module: GModule, degree: int, phis: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Howell rows spanning {c @ tags : c @ phis vanishes on every cocycle} over Z/e.

    ``phis`` holds one row vector on C^degree per row, in the coordinates
    of ``_scaled_differential``.  As in ``cocycle_annihilator``, c @ phis
    kills the cocycles exactly when it lies in the row span of d_degree^S,
    so these are ``linalg.howell_relations`` of [d_degree^S ; phis] against
    [0 ; tags].
    """
    rows, _, e = memo(module, degree, _scaled_differential, module, degree)
    zeros = np.zeros((len(rows), tags.shape[1]), dtype=np.int64)
    return howell_relations(np.vstack([rows, phis]), np.vstack([zeros, tags]), e)


def random_cocycle(coh: CohomologyGroup, rng: random.Random) -> Cochain:
    """A random cocycle: random class plus a random coboundary."""
    z = coh.cochain_from_coords([rng.randrange(d) for d in coh.factors])
    if coh.degree >= 1:
        c = Cochain.random(coh.module, coh.degree - 1, rng)
        z = z + differential(c)
    return z
