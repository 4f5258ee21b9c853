"""Normalized bar-resolution cochains, cohomology, cup products, solvers.

A degree-n cochain stores one int64 row per n-tuple of non-identity group
elements (value zero whenever an argument is the identity), in one read-only
(q^n, rank) array whose entry i of each row is reduced mod the carrier
factor d_i.  The slot of (g_1, ..., g_n) is the C-order multi-index of
(g_1 - 1, ..., g_n - 1) over (q,) * n, so the slots run lexicographically;
it is read and written only through numpy's ``unravel_index`` and
``ravel_multi_index``.  The differential is the inhomogeneous bar formula

    (dc)(g_1,...,g_{n+1}) = g_1.c(g_2,...,g_{n+1})
                            + sum_i (-1)^i c(..., g_i g_{i+1}, ...)
                            + (-1)^{n+1} c(g_1,...,g_n)

evaluated exactly, by one function, ``_apply_d``: d_n applied to a batch
of cochains at a named, sorted set of output slots (``_slot_set``).  The
differential, ``is_cocycle``, every d-matrix (d on the identity) and every
consistency row are calls of it.  Cohomology is computed by integer SNF on
the kernel lattice {x : d_n x == 0 mod carrier factors} against the image
lattice of d_{n-1} plus the carrier relations; canonical representatives
come from the deterministic pivot order, so identical inputs give identical
certificates.
That Smith data is read once, at construction, into the group's class
matrix ``classes``: an int64 matrix over Z/e, e the carrier exponent, whose
row i sends every cocycle z to (e/d_i) reduce(z)_i mod e.  It is integral
because a class depends on z only modulo the carrier factors.  ``reduce``
is one product with it and ``functional`` one combination of its rows.
The kernels behind H^n use only the generator rows of d_n (see
``_generator_slots``), which cut out the same cocycles; ``is_cocycle``
evaluates only those rows of dc.

Coboundary solves and the cocycle membership tests (``cocycle_annihilator``,
``cocycle_relations``) run on generator coordinates instead: the values of a
cochain on the slots whose last argument is a generator of
``FiniteGroup.tree``.  The tree lifts them to a whole cochain, and the
consistency rows at the slots off the tree decide which lifts are cocycles
(see ``_tree_coordinates``).  A solve then reduces its lift to the
primitive that a solve on bar coordinates returns, byte for byte.
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
from .finab import integer
from .groups import Subgroup, memo
from .linalg import (
    Congruence,
    _exact_product,
    howell_reduce_rows,
    howell_relations,
    kernel_mod,
    product_mod,
    smith_quotient,
    solve_mod,
)
from .modules import GModule, Pairing, _residues, restrict_module

MAX_DEGREE = 3
_PLAN_SLOT_BOUND = 4_000_000
# Dense d_n matrices are the one allocation that grows without bound in |G|
# (|G| = 64, degree 2 would take 7.4 GiB); 1 GiB is far above any shipped use.
_MATRIX_BYTE_BOUND = 1 << 30
# The Smith elimination behind H^n grows faster than cubically in the
# number of cochain coordinates q^n * rank, its column count, and with the
# size of the coefficients.  H^2 in process (2-core x86-64, Python 3.11,
# numpy 2.4, two runs each):
#   Z/2:      361 columns (C20) 2.2 s, 441 (C22) 3.4-3.7 s, 529 (C24) 11 s;
#   Z/4(-1):  225 columns (C16) 1.2-1.3 s, 289 (C18) 3.4-3.5 s,
#             361 (C20) 8.5 s;
#   Z/8(-1):  225 columns (C16) 2.5 s, 289 (C18) 10 s.
# The bound is on the columns times the bit length of the carrier
# exponent: 450 columns over Z/2, 300 over Z/4 and 225 over Z/8.  It
# admits each case above that takes under 4 s and refuses the last of
# each row, which takes about 10 s.
_KERNEL_COLUMN_BOUND = 900


class Cochain:
    """An immutable normalized cochain of degree 0..3; ``array`` is its only storage."""

    __slots__ = ("module", "degree", "array")

    def __init__(self, module: GModule, degree: int, values: Sequence[Sequence[int]] | np.ndarray) -> None:
        degree = integer(degree, "cochain degrees")
        if not 0 <= degree <= MAX_DEGREE:
            raise DegreeTooHigh(f"cochain degree {degree} outside 0..{MAX_DEGREE}")
        slots = (module.group.order - 1) ** degree
        if len(values) != slots:
            raise InputError(f"expected {slots} value slots, got {len(values)}")
        array = _residues(values, (slots, module.rank), module.carrier.factors, "cochain values")
        if array is None:
            raise InputError(f"cochain values are not {slots} vectors of rank {module.rank}")
        self.module = module
        self.degree = degree
        self.array = array

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


@dataclass(frozen=True)
class _DiffPlan:
    """Index arrays of d_degree at one sorted set of output slots.

    Output slot (g_1, ..., g_{n+1}) reads its first term g_1.c(g_2, ...)
    at input slot ``slot % q^n``; ``middle`` and ``last_idx`` hold the
    input slot of every other term, q^n (a zero row) where the product
    g_i g_{i+1} is the identity.
    """

    degree: int
    slots: np.ndarray
    middle: tuple[tuple[int, np.ndarray], ...]  # (sign, input index per output slot)
    last_sign: int
    last_idx: np.ndarray


def _slot_set(module: GModule, degree: int, rows: str) -> np.ndarray:
    """The sorted output slots of d_degree that ``rows`` names.

    "all" is every slot; "generators" the slots of ``_generator_slots``;
    "off_tree" the consistency slots of ``_tree_coordinates``: the slots
    (..., x, s), x != 1 and s a generator, where (x, s) is not a tree step,
    or the generator slots in degree 0.
    """
    q = module.group.order - 1
    if rows == "all":
        return np.arange(q ** (degree + 1), dtype=np.int64)
    if rows == "generators" or degree == 0:
        return _generator_slots(module, degree)
    gens, steps = module.group.tree
    tree = {(x, gens[i]) for _, x, i in steps}
    off = np.array([(x - 1, s - 1) for x in range(1, q + 1) for s in gens if (x, s) not in tree], dtype=np.int64)
    head = np.arange(q ** (degree - 1))[:, None]  # the first degree - 1 arguments, as one digit
    return np.ravel_multi_index((head, *off.reshape(-1, 2).T), (len(head), q, q)).ravel()


def _diff_plan(module: GModule, degree: int, rows: str) -> _DiffPlan:
    q = module.group.order - 1
    n = degree
    slots = _slot_set(module, n, rows)
    if len(slots) > _PLAN_SLOT_BOUND:
        raise SizeBound(
            f"d_{n} over a group of order {q + 1} has {len(slots)} {rows} output slots, "
            f"past the plan bound of {_PLAN_SLOT_BOUND} slots"
        )
    # Digit j of a slot is g_{j+1} - 1, and ``product`` multiplies digits:
    # -1 where the product is the identity.
    product = np.asarray(module.group.table, dtype=np.int64)[1:, 1:] - 1
    args = np.unravel_index(slots, (q,) * (n + 1))
    dims = (q,) * n
    middle = []
    for i in range(1, n + 1):
        merged = product[args[i - 1], args[i]]
        # "clip" reads a -1 digit as 0; that term then reads the zero row q^n.
        idx = np.ravel_multi_index((*args[: i - 1], merged, *args[i + 1 :]), dims, mode="clip")
        idx[merged < 0] = q**n
        middle.append(((-1) ** i, idx))
    # In degree 0 the last term is c() at slot 0, and ravel_multi_index of no digits is one scalar.
    last = np.ravel_multi_index(args[:n], dims) if n else np.zeros_like(slots)
    return _DiffPlan(n, slots, tuple(middle), (-1) ** (n + 1), last)


def _plan(module: GModule, degree: int, rows: str) -> _DiffPlan:
    return memo(module, (degree, rows), _diff_plan, module, degree, rows)


def _apply_d(module: GModule, degree: int, rows: str, x: np.ndarray) -> np.ndarray:
    """d_degree applied exactly, without reduction, to a batch of cochains.

    ``x`` is a (q^degree, rank, batch) int64 array, one cochain per index
    of its last axis.  Returns the (slots, rank, batch) values of the bar
    formula at the output slots ``rows`` (``_slot_set``), in their order.
    With entries of ``x`` in [0, e), each sum is below k e^2 + 4e, inside
    int64 by GModule's bound k e^2 < 2^62.
    """
    plan = _plan(module, degree, rows)
    first, rest = np.divmod(plan.slots, len(x))
    out = np.einsum("sij,sjb->sib", module.action[1:][first], x[rest])
    padded = np.concatenate([x, np.zeros((1,) + x.shape[1:], dtype=np.int64)])
    for sign, idx in (*plan.middle, (plan.last_sign, plan.last_idx)):
        if sign > 0:
            out += padded[idx]
        else:
            out -= padded[idx]
    return out


def _d_values(c: Cochain, rows: str) -> np.ndarray:
    """The (slots, rank) values of dc at the output slots ``rows``, reduced mod the carrier factors."""
    raw = _apply_d(c.module, c.degree, rows, c.array[:, :, None])[:, :, 0]
    return raw % np.asarray(c.module.carrier.factors, dtype=np.int64)


def differential(c: Cochain) -> Cochain:
    """The bar differential, for input degrees 0..2."""
    if c.degree >= MAX_DEGREE:
        raise DegreeTooHigh("differential of a degree-3 cochain leaves the supported range")
    return Cochain(c.module, c.degree + 1, _apply_d(c.module, c.degree, "all", c.array[:, :, None])[:, :, 0])


def is_cocycle(c: Cochain) -> bool:
    """d c == 0, for degrees 0..3.

    Only the rows of dc whose first argument is a generator are evaluated,
    q^n |S| slots instead of q^(n+1); by the lemma of ``_generator_slots``
    they vanish exactly when dc does.
    """
    return not _d_values(c, "generators").any()


def _restriction_slots(sub: Subgroup, degree: int) -> np.ndarray:
    digits = np.asarray(sub.elements[1:], dtype=np.int64) - 1
    return np.ravel_multi_index(np.ix_(*(digits,) * degree), (sub.parent.order - 1,) * degree).ravel()


def restriction_slots(sub: Subgroup, degree: int) -> np.ndarray:
    """For each slot of a degree-n cochain on the subgroup, its slot on the parent.

    Local slot (a_1, ..., a_n) is parent slot (embed[a_1], ..., embed[a_n]),
    for the embedding ``embed = sub.elements`` of ``Subgroup.as_group``, so
    restriction is a gather through this map and pulling a row vector back
    from the subgroup is a scatter through it.
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
    action, table = pairing.right.action.tolist(), pairing.table.tolist()
    d_right, d_target = pairing.right.carrier.factors, pairing.target.carrier.factors
    b_rows = b.array.tolist()
    vals = []
    # Slots are lexicographic, so the head (g_1..g_p) runs over a's slots in
    # order and, for each, the tail over b's.
    heads = itertools.product(range(1, group.order), repeat=p)
    for head, a_row in zip(heads, a.array.tolist()):
        prefix = 0
        for g in head:
            prefix = group.table[prefix][g]
        mat = action[prefix]
        for b_row in b_rows:
            moved = [sum(m * x for m, x in zip(row, b_row)) % d for row, d in zip(mat, d_right)]
            out = [0] * len(d_target)
            for ai, t_row in zip(a_row, table):
                if ai:
                    for bj, value in zip(moved, t_row):
                        if bj:
                            out = [(o + ai * bj * v) % d for o, v, d in zip(out, value, d_target)]
            vals.append(out)
    return Cochain(pairing.target, p + q_deg, vals)


@dataclass(frozen=True)
class ObstructionCertificate:
    """Evidence that a cocycle is not a coboundary.

    ``congruences`` are the unsatisfiable reduced congruences of the solve
    on generator coordinates (``solve_coboundary``): each column is a
    generator coordinate of the primitive, or None for a row that reads
    0 == rhs.  For degrees 1 and 2, ``class_coords`` is the nonzero class
    in canonical coordinates; in degree 3 it is None.
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
    # The last ``degree`` arguments run over all of their block, as one digit.
    return np.ravel_multi_index((gens[:, None] - 1, np.arange(block)), (module.group.order - 1, block)).ravel()


def _differential_matrix(module: GModule, degree: int, rows: str = "all") -> np.ndarray:
    """Integer matrix of d_degree at the output slots ``rows``, unreduced int64.

    It is ``_apply_d`` on the identity.  Raises SizeBound, before any plan
    is built, when the matrix would pass ``_MATRIX_BYTE_BOUND`` bytes.
    """
    q = module.group.order - 1
    k = module.rank
    in_dim = (q**degree) * k
    out_dim = len(_slot_set(module, degree, rows)) * k
    if out_dim * in_dim * 8 > _MATRIX_BYTE_BOUND:
        raise SizeBound(
            f"d_{degree} over a group of order {q + 1} is a {out_dim} x {in_dim} int64 matrix "
            f"of {out_dim * in_dim * 8} bytes, past the bound of {_MATRIX_BYTE_BOUND} bytes"
        )
    mat = np.empty((out_dim, in_dim), dtype=np.int64)
    # The evaluator holds a few arrays the size of its output, so the
    # identity goes in blocks of columns of about 2^20 output entries each.
    step = max(1, (1 << 20) // max(out_dim, 1))
    for j in range(0, in_dim, step):
        width = min(step, in_dim - j)
        block = np.eye(in_dim, width, -j, dtype=np.int64).reshape(q**degree, k, width)
        mat[:, j : j + width] = _apply_d(module, degree, rows, block).reshape(out_dim, width)
    return mat


def _modulus(module: GModule) -> int:
    """e = max(exponent, 2): the modulus of every elimination on scaled coordinates."""
    return max(module.carrier.exponent, 2)


def _scaled(module: GModule, raw: np.ndarray) -> np.ndarray:
    """Raw values (slots, rank, batch) of d, in place, on the scaled coordinates over Z/e.

    Entry i is reduced mod d_i before it is multiplied by e / d_i, which
    keeps every product below e.
    """
    d = np.asarray(module.carrier.factors, dtype=np.int64)[:, None]
    raw %= d
    raw *= _modulus(module) // d
    return raw


def _scaled_differential(module: GModule, degree: int) -> np.ndarray:
    """Generator rows of d_degree over Z/e, e = ``_modulus``, row i scaled by e / d_i.

    x is a cocycle modulo the carrier factors exactly when the matrix sends
    it to 0 mod e.  ``CohomologyGroup`` takes its kernel.
    """
    mat = _differential_matrix(module, degree, "generators")
    return _scaled(module, mat.reshape(-1, module.rank, mat.shape[1])).reshape(mat.shape)


def _lift(module: GModule, degree: int, v: np.ndarray, y: np.ndarray | None = None) -> np.ndarray:
    """The cochains c with generator coordinates ``v`` and dc = y on the tree slots, over Z/e.

    ``v`` is a (generator slots, rank, columns) array, one cochain per
    column; ``y`` is the value array of a (degree + 1)-cocycle, or None for
    0.  Along each tree step x s (x != 1, s a generator), for every g:

        c(g, x s) = y(g, x, s) + c(g, x) + c(g x, s) - g.c(x, s)   (degree 2)
        c(x s) = x.c(s) + c(x) - y(x, s)                             (degree 1)

    and c = v in degree 0.  Returns the (q^degree, rank, columns) array.
    Every step is reduced mod e, so each entry before the reduction is
    below k e^2 + 3e, inside int64 by GModule's bound k e^2 < 2^62.
    """
    group = module.group
    q, k, e = group.order - 1, module.rank, _modulus(module)
    gens, steps = group.tree
    batch = v.shape[-1]
    if degree == 0:
        return v.reshape(1, k, batch) % e
    # Indexed by group elements: the identity's entries stay 0, as in a
    # normalized cochain.
    c = np.zeros((q + 1,) * degree + (k, batch), dtype=np.int64)
    if degree == 1:
        c[gens] = v
        ys = None if y is None else y.reshape(q, q, k, 1)
        for target, x, i in steps[len(gens):]:
            s = gens[i]
            step = module.action[x] @ c[s] + c[x]
            c[target] = (step if ys is None else step - ys[x - 1, s - 1]) % e
        return c[1:]
    c[1:, gens] = v.reshape(q, len(gens), k, batch)
    table = np.asarray(group.table, dtype=np.int64)
    ys = None if y is None else y.reshape(q, q, q, k, 1)
    for target, x, i in steps[len(gens):]:
        s = gens[i]
        step = c[1:, x] + c[table[1:, x], s] - module.action[1:] @ c[x, s]
        c[1:, target] = (step if ys is None else step + ys[:, x - 1, s - 1]) % e
    return c[1:, 1:].reshape(q * q, k, batch)


@dataclass(frozen=True)
class _TreeCoordinates:
    """The generator coordinates of degree-n cochains, over Z/e.

    ``lift`` is R, the (q^n rank, width) matrix of ``_lift`` with y = 0,
    and ``consistency`` is A, d_n applied to R at the slots off the tree,
    on the scaled coordinates (``_scaled``).
    """

    e: int
    lift: np.ndarray
    consistency: np.ndarray


def _tree_coordinates(module: GModule, degree: int) -> _TreeCoordinates:
    """The lift and consistency rows of degree-n cochains, n = ``degree`` in 0..2.

    The generator coordinates of c are its values on the slots whose last
    argument is a generator s of ``FiniteGroup.tree``: (g, s) in degree 2,
    s in degree 1, c itself in degree 0.  The consistency rows are the
    scaled rows of d_n at the slots (..., x, s), x != 1, where (x, s) is
    not a tree step (``_slot_set``'s "off_tree"); in degree 0 they are the
    generator rows and R = I.

    Lemma: for a cocycle y of degree n + 1, the solutions of dc = y are
    exactly the c = lift(v, y) (``_lift``) with A v == rhs (mod e), rhs
    the scaled y minus the rows applied to lift(0, y), both at the slots
    off the tree.  Proof: a solution satisfies the recursion of ``_lift``,
    so it is the lift of its own generator coordinates.  Conversely
    w = d(lift(v, y)) - y is a cocycle that vanishes on the tree slots by
    construction, and A v == rhs says it vanishes off the tree too, so on
    every slot whose last argument is a generator.  Then in
    dw(a, ..., b, s) = 0 only +-(w(..., b s) - w(..., b)) survives, and
    the tree carries w(..., .) = 0 from w(..., 1) = 0.  In degree 0 it
    is the lemma of ``_generator_slots``.  With y = 0 the cocycles are
    lift(ker A, 0), modulo the carrier factors.
    """
    q, k = module.group.order - 1, module.rank
    count = q ** (degree - 1) * len(module.group.tree[0]) if degree else 1
    width = count * k
    lift = _lift(module, degree, np.identity(width, dtype=np.int64).reshape(count, k, width))
    consistency = _scaled(module, _apply_d(module, degree, "off_tree", lift))
    return _TreeCoordinates(
        _modulus(module), lift.reshape(q**degree * k, width), consistency.reshape(len(consistency) * k, width)
    )


def _coordinates(module: GModule, degree: int) -> _TreeCoordinates:
    return memo(module, degree, _tree_coordinates, module, degree)


def _carrier_columns(module: GModule, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The coordinates of degree-n cochains whose carrier factor d is below e, and those d."""
    factors = np.tile(np.asarray(module.carrier.factors, dtype=np.int64), (module.group.order - 1) ** degree)
    cols = np.flatnonzero(factors < _modulus(module))
    return cols, factors[cols]


def _cocycle_rows(module: GModule, degree: int) -> np.ndarray:
    """Howell rows, columns reversed, of the cocycles in the scaled coordinates over Z/e.

    These are the x with x mod the carrier factors a cocycle: the lifts of
    ker A (``_tree_coordinates``) plus d e_j for each coordinate j whose
    factor d is below e.
    """
    tc = _coordinates(module, degree)
    e = tc.e
    width = tc.lift.shape[1]
    kernel = howell_relations(tc.consistency.T, np.identity(width, dtype=np.int64), e)
    cols, factors = _carrier_columns(module, degree)
    carrier = np.zeros((len(cols), tc.lift.shape[0]), dtype=np.int64)
    carrier[np.arange(len(cols)), cols] = factors
    return howell_reduce_rows(np.vstack([product_mod(kernel, tc.lift.T, e), carrier])[:, ::-1], e)


class CohomologyGroup:
    """H^n(G, M) with canonical representatives and its class matrix.

    ``classes`` is the int64 class matrix over Z/e, e the carrier
    exponent: row i sends every cocycle z to (e/d_i) reduce(z)_i mod e.
    It is all that ``reduce`` and ``functional`` read.
    """

    __slots__ = ("module", "degree", "factors", "representatives", "classes")

    def __init__(self, module: GModule, degree: int) -> None:
        degree = integer(degree, "cohomology degrees")
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
        columns = q**degree * module.rank
        bits = module.carrier.exponent.bit_length()
        if columns * bits > _KERNEL_COLUMN_BOUND:
            raise SizeBound(
                f"H^{degree} over a group of order {q + 1} has {columns} cochain coordinates "
                f"of {bits} bits, past the bound of {_KERNEL_COLUMN_BOUND} on their product"
            )
        e = _modulus(module)
        V, V_inv, m = kernel_mod(memo(module, degree, _scaled_differential, module, degree), e)
        # The cocycle lattice modulo [d_{n-1} | diag(carrier factors)], in
        # the kernel coordinates diag(1/m) V_inv; exact, since the pivots of
        # smith_quotient read these integers.
        relations = np.diag(np.tile(np.asarray(module.carrier.factors, dtype=object), q**degree))
        if degree >= 1:
            relations = np.hstack([_differential_matrix(module, degree - 1), relations])
        coords = _exact_product(V_inv, relations)
        m_col = m.astype(coords.dtype)[:, None]
        if (coords % m_col).any():
            raise GerbesError("relation is not in the kernel lattice")
        self.factors, generators, reducers = smith_quotient(coords // m_col, e * e)
        # Cochains are read mod the carrier factors, which divide e.
        basis = np.mod(V, e).astype(np.int64) * m % e
        self.representatives = tuple(
            Cochain(module, degree, vec.reshape(-1, module.rank))
            for vec in product_mod(basis, generators % e, e).T
        )
        # reduce(z) = reducers @ y mod the factors, for the kernel
        # coordinates y = diag(1/m) V_inv z.
        # Lemma: d_i divides reducers_ij e/m_j, so row i of the class
        # matrix, (e/d_i) reducers_i diag(1/m) V_inv, is an integer row.
        # Proof: a class depends on z only modulo the carrier factors, so
        # reduce(z + e w) = reduce(z) for every integer w.  In kernel
        # coordinates e w is diag(e/m) V_inv w, and V_inv is unimodular, so
        # V_inv w runs over all of Z^N and row i of reducers diag(e/m)
        # vanishes mod d_i.  The division is checked all the same.  Reducing
        # reducers_ij mod d_i m_j first changes row i by multiples of e and
        # keeps every entry below e m_j <= e^2, inside int64.
        d = np.asarray(self.factors, dtype=np.int64)[:, None]
        scaled = e // d * (reducers % (d * m))
        if (scaled % m).any():
            raise GerbesError("class matrix row is not integral")
        self.classes = product_mod(scaled // m % e, np.mod(V_inv, e).astype(np.int64), e)
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

        ``coords`` has one integer entry per invariant factor, read mod the
        exponent e.  Each term is reduced before the sum, so every entry
        stays below e**2, inside int64 by GModule's bound.
        """
        c = _residues(coords, (len(self.factors),), [self.module.carrier.exponent], "class coordinates")
        if c is None:
            raise InputError(f"H^{self.degree} has {len(self.factors)} coordinates, got {len(coords)}")
        if not self.factors:
            return self.zero_cochain()
        reps = np.stack([rep.array for rep in self.representatives])
        terms = c[:, None, None] * reps % np.asarray(self.module.carrier.factors)
        return Cochain(self.module, self.degree, terms.sum(axis=0))

    def __repr__(self) -> str:
        return f"H^{self.degree}({self.module!r}) = {list(self.factors)}"


def cohomology(module: GModule, degree: int) -> CohomologyGroup:
    """H^degree(G, M) for degree <= 2, cached on the module by degree."""
    degree = integer(degree, "cohomology degrees")
    return memo(module, degree, CohomologyGroup, module, degree)


def solve_coboundary(y: Cochain) -> CoboundaryResult:
    """Find c with dc = y, or certify that no primitive exists.

    ``y`` must be a cocycle of degree 1..3.  The primitive is the one that
    Howell back-substitution on the bar coordinates over Z/e returns: every
    free coordinate 0 and every pivot coordinate least given the later
    ones, which is the reverse-lexicographically least solution and so
    depends only on the solution set.  It is found on generator
    coordinates: a solution v of A v == rhs gives the primitive
    lift(v, y) (the lemma of ``_tree_coordinates``), which is reduced to
    that least solution by the Howell rows of the cocycles, columns
    reversed (``_cocycle_rows``).  When A v == rhs has no solution, no
    primitive exists, and the certificate carries the unsatisfiable
    congruences of that solve, on generator coordinates, and in degrees 1
    and 2 the reduced class, which must then be nonzero.
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
    tc = _coordinates(module, n - 1)
    e = tc.e
    base = _lift(module, n - 1, np.zeros((tc.lift.shape[1] // k, k, 1), dtype=np.int64), y.array)
    off_tree = _plan(module, n - 1, "off_tree").slots
    rhs = _scaled(module, y.array[off_tree, :, None] - _apply_d(module, n - 1, "off_tree", base)).ravel()
    v, failed = solve_mod(tc.consistency, rhs, e)
    if v is None:
        coords = cohomology(module, n).reduce(y) if n <= 2 else None
        if coords is not None and not any(coords):
            raise GerbesError(f"no primitive found for a {n}-cocycle whose class is zero")
        return CoboundaryResult(None, ObstructionCertificate(n, coords, tuple(failed)))
    x = (base.ravel() + product_mod(tc.lift, np.asarray(v, dtype=np.int64), e))[::-1] % e
    for row in memo(module, n - 1, _cocycle_rows, module, n - 1):
        p = int(np.flatnonzero(row)[0])
        x = (x - x[p] // row[p] * row) % e
    c = Cochain(module, n - 1, x[::-1].reshape(-1, k))
    # dc - y is a cocycle, so by the lemma of ``_generator_slots`` its
    # generator rows decide whether it vanishes.
    if not np.array_equal(_d_values(c, "generators"), y.array[_generator_slots(module, n - 1)]):
        raise GerbesError("coboundary solver produced an invalid primitive")
    return CoboundaryResult(c, None)


def _carrier_values(module: GModule, degree: int, phis: np.ndarray) -> np.ndarray:
    """The values phis_j d_j mod e of phis on the cocycles d_j e_j, for each d_j below e."""
    cols, factors = _carrier_columns(module, degree)
    return phis[..., cols] * factors % _modulus(module)


def cocycle_annihilator(module: GModule, degree: int, phi: Sequence[int]) -> np.ndarray | None:
    """Certify that a row vector phi on C^degree vanishes on every cocycle.

    Coordinates are the scaled ones over Z/e of ``_scaled``.
    The cocycles are the lifts R v with A v == 0, plus d_j e_j wherever the
    carrier factor d_j is below e (``_tree_coordinates``).  So phi kills
    them exactly when phi_j d_j == 0 (mod e) for those j and phi R lies in
    the row span of A mod e, because Z/e is quasi-Frobenius, so a
    submodule is its double annihilator.  Returns y with y A == phi R
    (mod e), checked by one exact product, or None when some cocycle has
    phi . z != 0.
    """
    tc = _coordinates(module, degree)
    e = tc.e
    phi = np.asarray(phi, dtype=np.int64) % e
    if _carrier_values(module, degree, phi).any():
        return None
    target = product_mod(phi, tc.lift, e)
    y, _ = solve_mod(tc.consistency.T, target, e)
    if y is None:
        return None
    if ((np.asarray(y, dtype=object) @ tc.consistency - target) % e).any():
        raise GerbesError("cocycle annihilator certificate failed its exact check")
    return np.asarray(y, dtype=np.int64)


def cocycle_relations(module: GModule, degree: int, phis: np.ndarray, tags: np.ndarray) -> np.ndarray:
    """Howell rows spanning {c @ tags : c @ phis vanishes on every cocycle} over Z/e.

    ``phis`` holds one row vector on C^degree per row, in the coordinates
    of ``cocycle_annihilator``.  As there, c @ phis kills the cocycles
    exactly when c @ phis @ R lies in the row span of A and c @ phis_j d_j
    vanishes wherever d_j is below e, so these are ``linalg.howell_relations``
    of [A, 0 ; phis R, phis_j d_j] against [0 ; tags].
    """
    tc = _coordinates(module, degree)
    e = tc.e
    phis = np.asarray(phis, dtype=np.int64) % e
    carrier = _carrier_values(module, degree, phis)
    consistency = np.hstack([tc.consistency, np.zeros((len(tc.consistency), carrier.shape[1]), dtype=np.int64)])
    left = np.vstack([consistency, np.hstack([product_mod(phis, tc.lift, e), carrier])])
    zeros = np.zeros((len(consistency), tags.shape[1]), dtype=np.int64)
    return howell_relations(left, np.vstack([zeros, tags]), e)


def random_cocycle(coh: CohomologyGroup, rng: random.Random) -> Cochain:
    """A random cocycle: random class plus a random coboundary."""
    z = coh.cochain_from_coords([rng.randrange(d) for d in coh.factors])
    if coh.degree >= 1:
        c = Cochain.random(coh.module, coh.degree - 1, rng)
        z = z + differential(c)
    return z
