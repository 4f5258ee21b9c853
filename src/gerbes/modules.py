"""G-modules on finite abelian carriers, duals Hom(-, mu), and pairings."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Mapping, Sequence

import numpy as np

from .errors import GerbesError, InputError, NonCyclicCoefficients, NonEquivariantPairing, SizeBound
from .finab import FinAb, integer, integer_array, integer_tuple
from .groups import Abelianization, FiniteGroup, Subgroup, abelianization, memo

# The int64 arithmetic of ``cochain`` and ``linalg`` works on entries
# reduced below the exponent e: ``linalg.howell_reduce_rows`` forms
# s*p + t*r, exact for e < 2**30, and ``cochain._apply_d`` sums
# rank products of two reduced entries plus at most five terms below e,
# exact for rank * e**2 < 2**62.  Every carrier of order <= 65536 passes.
EXPONENT_BOUND = 1 << 30
PRODUCT_SUM_BOUND = 1 << 62


def _residues(values, shape: tuple[int, ...], moduli: Sequence, what: str) -> np.ndarray | None:
    """``values`` as a read-only int64 array of ``shape`` reduced mod ``moduli``
    (broadcast against it), or None when ``values`` does not have ``shape``.
    ``finab.integer_array`` refuses every entry that is not an integer, and
    integers past int64 reduce exactly, as Python ints.
    """
    raw = integer_array(values, what, len(shape))
    if raw is None or raw.shape != shape:
        # Empty lists lose their trailing axes.
        if raw is None or raw.size or raw.shape != shape[: raw.ndim]:
            return None
        raw = raw.reshape(shape)
    out = (raw % np.asarray(moduli, dtype=raw.dtype)).astype(np.int64, copy=False)
    out.flags.writeable = False
    return out


class GModule:
    """A finite abelian group with an action of ``group`` by automorphisms.

    ``action`` is a read-only (|G|, rank, rank) int64 array: ``action[g]``
    acts on column vectors of carrier coordinates, with row i reduced mod
    d_i.  Construction checks that every matrix is a well-defined
    endomorphism and that g -> action(g) is a homomorphism with
    action(0) = 1, so action(g^-1) inverts action(g).
    """

    def __init__(
        self,
        group: FiniteGroup,
        carrier: FinAb,
        action: Sequence[Sequence[Sequence[int]]] | Mapping[int, Sequence[Sequence[int]]] | None = None,
        name: str | None = None,
    ) -> None:
        self.group = group
        self.carrier = carrier
        self.name = name
        n, k, e = group.order, carrier.rank, carrier.exponent
        if e >= EXPONENT_BOUND or k * e * e >= PRODUCT_SUM_BOUND:
            raise SizeBound(f"carrier {list(carrier.factors)} is past the int64 cochain bounds")
        if action is None or isinstance(action, Mapping):
            action = action or {}
            mats: list = [np.eye(k, dtype=np.int64).tolist()] * n
            for key, mat in zip(integer_tuple(list(action), "action keys"), action.values()):
                if not 0 <= key < n:
                    raise InputError(f"action key {key!r} is not an element of a group of order {n}")
                mats[key] = mat
            action = mats
        if not hasattr(action, "__len__") or len(action) != n:
            raise InputError("action must give one matrix per group element")
        given = _residues(action, (n, k, k), [(d,) for d in carrier.factors], "action entries")
        if given is None:
            raise InputError(f"action matrix must be {k}x{k}")
        self.action: np.ndarray = given
        self._validate()
        self._memo: dict = {}

    def _validate(self) -> None:
        act = self.action
        d = np.asarray(self.carrier.factors, dtype=np.int64)[:, None]
        bad = np.argwhere(act % (d // np.gcd(d, d.T)))
        if len(bad):
            g, i, j = bad[0]
            raise InputError(f"action({g}) entry ({i},{j}) does not define an endomorphism")
        if (act[0] != np.eye(self.rank, dtype=np.int64)).any():
            raise InputError("action of the identity is not the identity map")
        # The lemma of ``FiniteGroup.tree`` with the trivial action.
        for h in self.group.tree[0]:
            products = act @ act[h] % d
            wrong = (products != act[[row[h] for row in self.group.table]]).any(axis=(1, 2))
            if wrong.any():
                g = wrong.argmax()
                raise InputError(
                    f"action is not a homomorphism: action({g})action({h}) != action({g}*{h})"
                )

    @property
    def rank(self) -> int:
        return self.carrier.rank

    def compatible_with(self, other: GModule) -> bool:
        """Same group object, same carrier, same action matrices."""
        return (
            other is self
            or (
                other.group is self.group
                and other.carrier == self.carrier
                and np.array_equal(other.action, self.action)
            )
        )

    @property
    def is_trivial_action(self) -> bool:
        return bool((self.action == np.eye(self.rank, dtype=np.int64)).all())

    @property
    def is_cyclic(self) -> bool:
        return self.carrier.rank <= 1

    def restrict(self, sub: Subgroup) -> GModule:
        return restrict_module(self, sub)

    def __repr__(self) -> str:
        tag = self.name or f"{list(self.carrier.factors)} over {self.group!r}"
        return f"GModule({tag})"


def trivial_module(group: FiniteGroup, factors: Sequence[int], name: str | None = None) -> GModule:
    return GModule(group, FinAb(factors), None, name=name)


def cyclic_module(
    group: FiniteGroup,
    modulus: int,
    character: Mapping[int, int] | None = None,
    name: str | None = None,
) -> GModule:
    """Z/modulus with each element g acting by the unit character[g]."""
    modulus = integer(modulus, "cyclic module moduli")
    if modulus < 2:
        raise InputError("cyclic module modulus must be >= 2")
    if character is not None and not isinstance(character, Mapping):
        raise InputError(f"a character must map group elements to units, got {character!r}")
    action = None
    if character:
        units = _residues(list(character.values()), (len(character),), [modulus], "character values").tolist()
        for u in units:
            if gcd(u, modulus) != 1:
                raise InputError(f"character value {u} is not a unit mod {modulus}")
        action = {g: [[u]] for g, u in zip(character, units)}
    return GModule(group, FinAb((modulus,)), action, name=name or f"Z/{modulus}")


def restrict_module(module: GModule, sub: Subgroup) -> GModule:
    """The same carrier with the action pulled back to a subgroup.

    Results are memoized per element set so repeated restrictions return
    the identical module object (cup products check module identity).
    """
    if sub.parent is not module.group:
        raise InputError("subgroup does not belong to the module's group")
    return memo(module, sub.elements, _restricted_module, module, sub)


def _restricted_module(module: GModule, sub: Subgroup) -> GModule:
    group, embed = sub.as_group()
    return GModule(group, module.carrier, module.action[list(embed)], name=f"{module.name or 'M'}|D")


@dataclass(frozen=True)
class DualData:
    """Hom(H^ab, mu) together with everything needed to evaluate it.

    ``kept[i]`` is the index of the H^ab invariant factor behind the i-th
    dual generator, and ``scales[i]`` the element of Z/m it sends that
    generator to.
    """

    dual: GModule
    source: GModule
    mu: GModule
    abelianized: Abelianization
    kept: tuple[int, ...]
    scales: tuple[int, ...]


def induced_action_on_abelianization(
    h_group: FiniteGroup,
    outer_action: Sequence[Sequence[int]],
    acting_group: FiniteGroup,
) -> tuple[Abelianization, GModule]:
    """Push an automorphism action of G on H down to H/[H,H].

    ``outer_action[g]`` is a permutation of H's elements that must be an
    automorphism; inner ambiguity is invisible after abelianization, and the
    homomorphism law is re-checked on the induced matrices.  Results are
    cached per (acting group, action), so independent callers share one
    module object.
    """
    action = tuple(tuple(p) for p in outer_action)
    return memo(h_group, (acting_group, action), _induced_action, h_group, action, acting_group)


def _induced_action(
    h_group: FiniteGroup,
    outer_action: tuple[tuple[int, ...], ...],
    acting_group: FiniteGroup,
) -> tuple[Abelianization, GModule]:
    ab = abelianization(h_group)
    if len(outer_action) != acting_group.order:
        raise InputError("outer action must give one automorphism per group element")
    mats = []
    for g, perm in enumerate(outer_action):
        if sorted(perm) != list(range(h_group.order)):
            raise InputError(f"outer action of element {g} is not a permutation of H")
        # The lemma of ``FiniteGroup.tree`` with the trivial action.
        for s in h_group.tree[0]:
            for a, row in enumerate(h_group.table):
                if perm[row[s]] != h_group.table[perm[a]][perm[s]]:
                    raise InputError(f"outer action of element {g} is not an automorphism")
        cols = [ab.coords[perm[h]] for h in ab.generator_preimages]
        k = ab.target.rank
        mats.append([[cols[j][i] for j in range(k)] for i in range(k)])
    module = GModule(acting_group, ab.target, mats, name=f"{h_group.name or 'H'}^ab")
    return ab, module


def dual_module(
    h_group: FiniteGroup,
    outer_action: Sequence[Sequence[int]],
    mu: GModule,
) -> DualData:
    """Hom(H/[H,H], mu) with the action (g.f)(x) = g.f(g^-1 x).

    ``mu`` must have a cyclic carrier; its modulus does not have to kill
    H^ab (the dual is computed with gcd scalings either way).
    """
    if not mu.is_cyclic or mu.carrier.rank == 0:
        raise NonCyclicCoefficients("coefficient module must be Z/m with m >= 2")
    g_group = mu.group
    ab, source = induced_action_on_abelianization(h_group, outer_action, g_group)
    m = mu.carrier.factors[0]
    gcds = [gcd(d, m) for d in ab.target.factors]
    kept = tuple(i for i, g in enumerate(gcds) if g >= 2)
    factors = tuple(gcds[i] for i in kept)
    scales = tuple(m // gcds[i] for i in kept)
    carrier = FinAb(factors)

    # (g.psi_i)(e_{kept[j]}) = chi(g) psi_i(P_{g^-1} e_{kept[j]}), rewritten
    # in dual coordinates: entry (j, i) of the matrix of g.  Both products
    # stay below m * e, inside int64.
    p_inv = source.action[np.ix_(g_group.inv, kept, kept)]
    sc = np.asarray(scales, dtype=np.int64)
    val = mu.action * sc[:, None] % m * p_inv % m
    if (val % sc).any():
        raise GerbesError("dual action does not preserve hom orders")
    mats = (val // sc % np.asarray(factors, dtype=np.int64)).transpose(0, 2, 1)
    dual = GModule(g_group, carrier, mats, name=f"dual({h_group.name or 'H'})")
    return DualData(dual, source, mu, ab, kept, scales)


class Pairing:
    """A G-equivariant bilinear map left x right -> target on one group.

    ``table`` is a read-only (left rank, right rank, target rank) int64
    array: the value on each pair of basis vectors, reduced mod the target
    factors.  Both well-definedness (orders) and equivariance are validated
    exactly at construction, on basis vectors and group generators.
    """

    def __init__(
        self,
        left: GModule,
        right: GModule,
        target: GModule,
        table: Sequence[Sequence[Sequence[int]]],
        name: str | None = None,
    ) -> None:
        if left.group is not right.group or left.group is not target.group:
            raise InputError("pairing modules must share one acting group")
        self.left, self.right, self.target = left, right, target
        self.name = name
        kl, kr, kt = left.rank, right.rank, target.rank
        values = _residues(table, (kl, kr, kt), target.carrier.factors, "pairing table entries")
        if values is None:
            if len(table) == kl and all(len(row) == kr for row in table):
                for v in chain.from_iterable(table):
                    if len(v) != kt:
                        raise InputError(f"vector length {len(v)} != rank {kt}")
            raise InputError("pairing table shape does not match module ranks")
        self.table: np.ndarray = values
        self._validate()

    def _validate(self) -> None:
        t = self.table
        dt = np.asarray(self.target.carrier.factors, dtype=np.int64)
        dl = np.asarray(self.left.carrier.factors, dtype=np.int64)[:, None, None]
        dr = np.asarray(self.right.carrier.factors, dtype=np.int64)[None, :, None]
        bad = np.argwhere((dl * t % dt).any(axis=2) | (dr * t % dt).any(axis=2))
        if len(bad):
            i, j = bad[0]
            raise InputError(f"pairing value at ({i},{j}) has incompatible order")
        # The g under which the pairing is equivariant are closed under
        # products, so generators suffice (``FiniteGroup.tree``).  The sums
        # of pair(g.e_i, g.e_j) are exact in int64 when kl e_l e_t and
        # kr e_r e_t are below 2^63, and Python ints otherwise.
        kl, kr = self.left.rank, self.right.rank
        el, er, et = self.left.carrier.exponent, self.right.carrier.exponent, self.target.carrier.exponent
        exact = np.int64 if max(kl * el, kr * er) * et < 1 << 63 else object
        te, de = t.astype(exact), dt.astype(exact)
        for g in self.left.group.tree[0]:
            # lhs[j, i] = sum_{a,b} left[a, i] right[b, j] t[a, b]
            left, right = self.left.action[g].astype(exact), self.right.action[g].astype(exact)
            lhs = np.tensordot(right, np.tensordot(left, te, ([0], [0])) % de, ([0], [1])) % de
            rhs = t @ self.target.action[g].T % dt
            bad = np.argwhere((lhs.transpose(1, 0, 2) != rhs).any(axis=2))
            if len(bad):
                i, j = bad[0]
                raise NonEquivariantPairing(
                    f"pair(g.e_{i}, g.e_{j}) != g.pair(e_{i}, e_{j}) for g={g}"
                )

    def restrict(self, sub: Subgroup) -> Pairing:
        return Pairing(
            self.left.restrict(sub),
            self.right.restrict(sub),
            self.target.restrict(sub),
            self.table,
            name=self.name,
        )


def _evaluation_table(dd: DualData) -> np.ndarray:
    """The (dual rank, source rank, 1) table of (f, x) -> f(x)."""
    table = np.zeros((dd.dual.rank, dd.source.rank, 1), dtype=np.int64)
    for i, (j, scale) in enumerate(zip(dd.kept, dd.scales)):
        table[i, j, 0] = scale
    return table


def evaluation_pairing(dd: DualData) -> Pairing:
    """The pairing Hom(H^ab, mu) x H^ab -> mu, (f, x) -> f(x)."""
    return Pairing(dd.dual, dd.source, dd.mu, _evaluation_table(dd), name="evaluation")


def flipped_evaluation_pairing(dd: DualData) -> Pairing:
    """The pairing H^ab x Hom(H^ab, mu) -> mu, (x, f) -> f(x)."""
    return Pairing(dd.source, dd.dual, dd.mu, _evaluation_table(dd).transpose(1, 0, 2), name="evaluation-flipped")
