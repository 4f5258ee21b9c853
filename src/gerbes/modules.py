"""G-modules on finite abelian carriers, duals Hom(-, mu), and pairings."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from .errors import GerbesError, InputError, NonCyclicCoefficients, NonEquivariantPairing, SizeBound
from .finab import FinAb
from .groups import Abelianization, FiniteGroup, Subgroup, abelianization, memo

IntMatrix = tuple[tuple[int, ...], ...]

# The int64 arithmetic of ``cochain`` and ``linalg`` works on entries
# reduced below the exponent e: ``linalg.howell_reduce_rows`` forms
# s*p + t*r, exact for e < 2**30, and ``cochain._apply_d`` sums
# rank products of two reduced entries plus at most five terms below e,
# exact for rank * e**2 < 2**62.  Every carrier of order <= 65536 passes.
EXPONENT_BOUND = 1 << 30
PRODUCT_SUM_BOUND = 1 << 62


def _freeze_matrix(m: Sequence[Sequence[int]], factors: Sequence[int]) -> IntMatrix:
    k = len(factors)
    if len(m) != k or any(len(row) != k for row in m):
        raise InputError(f"action matrix must be {k}x{k}")
    return tuple(tuple(int(x) % d for x in row) for row, d in zip(m, factors))


class GModule:
    """A finite abelian group with an action of ``group`` by automorphisms.

    ``action[g]`` is an integer matrix applied to column vectors of carrier
    coordinates, with row i reduced mod d_i.  Construction checks that every
    matrix is a well-defined endomorphism and that g -> action(g) is a
    homomorphism with action(0) = 1, so action(g^-1) inverts action(g).
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
        k, e = carrier.rank, carrier.exponent
        if e >= EXPONENT_BOUND or k * e * e >= PRODUCT_SUM_BOUND:
            raise SizeBound(f"carrier {list(carrier.factors)} is past the int64 cochain bounds")
        ident = tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))
        mats: list[IntMatrix]
        if action is None:
            mats = [ident] * group.order
        elif isinstance(action, Mapping):
            mats = [ident] * group.order
            for key, mat in action.items():
                mats[int(key)] = _freeze_matrix(mat, carrier.factors)
        else:
            if len(action) != group.order:
                raise InputError("action must give one matrix per group element")
            mats = [_freeze_matrix(m, carrier.factors) for m in action]
        self.action: tuple[IntMatrix, ...] = tuple(mats)
        self._validate()
        self._memo: dict = {}

    def _validate(self) -> None:
        k = self.carrier.rank
        d = self.carrier.factors
        for g, mat in enumerate(self.action):
            for i in range(k):
                for j in range(k):
                    need = d[i] // gcd(d[i], d[j])
                    if mat[i][j] % need:
                        raise InputError(
                            f"action({g}) entry ({i},{j}) does not define an endomorphism"
                        )
        basis = [self.carrier.basis_vector(i) for i in range(k)]
        if any(self.apply(0, v) != v for v in basis):
            raise InputError("action of the identity is not the identity map")
        # The lemma of ``FiniteGroup.tree`` with the trivial action.
        for h in self.group.tree[0]:
            images = [self.apply(h, v) for v in basis]
            for g, row in enumerate(self.group.table):
                if any(self.apply(g, hv) != self.apply(row[h], v) for hv, v in zip(images, basis)):
                    raise InputError(
                        f"action is not a homomorphism: action({g})action({h}) != action({g}*{h})"
                    )

    @property
    def rank(self) -> int:
        return self.carrier.rank

    def matrix(self, g: int) -> IntMatrix:
        return self.action[g]

    def apply(self, g: int, vec: Sequence[int]) -> tuple[int, ...]:
        mat = self.action[g]
        d = self.carrier.factors
        return tuple(
            sum(mat[i][j] * vec[j] for j in range(len(vec))) % d[i]
            for i in range(len(d))
        )

    def compatible_with(self, other: GModule) -> bool:
        """Same group object, same carrier, same action matrices."""
        return (
            other is self
            or (
                other.group is self.group
                and other.carrier == self.carrier
                and other.action == self.action
            )
        )

    @property
    def is_trivial_action(self) -> bool:
        k = self.rank
        return all(
            self.apply(g, self.carrier.basis_vector(i)) == self.carrier.basis_vector(i)
            for g in range(self.group.order)
            for i in range(k)
        )

    @property
    def is_cyclic(self) -> bool:
        return self.carrier.rank <= 1

    def restrict(self, sub: Subgroup) -> GModule:
        return restrict_module(self, sub)

    def __repr__(self) -> str:
        tag = self.name or f"{list(self.carrier.factors)} over {self.group!r}"
        return f"GModule({tag})"


def trivial_module(group: FiniteGroup, factors: Sequence[int], name: str | None = None) -> GModule:
    return GModule(group, FinAb(tuple(factors)), None, name=name)


def cyclic_module(
    group: FiniteGroup,
    modulus: int,
    character: Mapping[int, int] | None = None,
    name: str | None = None,
) -> GModule:
    """Z/modulus with each element g acting by the unit character[g]."""
    if modulus < 2:
        raise InputError("cyclic module modulus must be >= 2")
    action = None
    if character:
        action = {}
        for g, u in character.items():
            u = int(u) % modulus
            if gcd(u, modulus) != 1:
                raise InputError(f"character value {u} is not a unit mod {modulus}")
            action[int(g)] = [[u]]
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
    action = [module.action[e] for e in embed]
    return GModule(group, module.carrier, action, name=f"{module.name or 'M'}|D")


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

    def hom_value(self, f: Sequence[int], x: Sequence[int]) -> tuple[int, ...]:
        """Evaluate the hom with coordinates ``f`` on the H^ab element ``x``."""
        m = self.mu.carrier.factors[0]
        total = 0
        for i, (idx, sc) in enumerate(zip(self.kept, self.scales)):
            total += f[i] * sc * x[idx]
        return (total % m,)


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

    rank = len(kept)
    mats = []
    for g in range(g_group.order):
        ginv = g_group.inv[g]
        chi = mu.matrix(g)[0][0] if mu.rank else 1
        p_inv = source.matrix(ginv)
        cols = []
        for i in range(rank):
            # Image of the i-th dual generator evaluated on each kept basis
            # vector of H^ab, then rewritten in dual coordinates.
            col = []
            for j in range(rank):
                # (g.psi_i)(e_{kept[j]}) = chi * psi_i(P_{g^-1} e_{kept[j]})
                val = chi * scales[i] * p_inv[kept[i]][kept[j]] % m
                if val % scales[j]:
                    raise GerbesError("dual action does not preserve hom orders")
                col.append(val // scales[j] % factors[j])
            cols.append(col)
        mats.append([[cols[i][j] for i in range(rank)] for j in range(rank)])
    dual = GModule(g_group, carrier, mats, name=f"dual({h_group.name or 'H'})")
    return DualData(dual, source, mu, ab, kept, scales)


class Pairing:
    """A G-equivariant bilinear map left x right -> target on one group.

    The table gives the value on each pair of basis vectors, and both
    well-definedness (orders) and equivariance are validated exactly at
    construction, on basis vectors and group generators.
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
        kl, kr = left.rank, right.rank
        if len(table) != kl or any(len(row) != kr for row in table):
            raise InputError("pairing table shape does not match module ranks")
        self.table: tuple[tuple[tuple[int, ...], ...], ...] = tuple(
            tuple(target.carrier.reduce(v) for v in row) for row in table
        )
        self._validate()

    def _validate(self) -> None:
        tgt = self.target.carrier
        for i, di in enumerate(self.left.carrier.factors):
            for j, dj in enumerate(self.right.carrier.factors):
                v = self.table[i][j]
                if tgt.scale(di, v) != tgt.zero() or tgt.scale(dj, v) != tgt.zero():
                    raise InputError(f"pairing value at ({i},{j}) has incompatible order")
        # The g under which the pairing is equivariant are closed under
        # products, so generators suffice (``FiniteGroup.tree``).
        for g in self.left.group.tree[0]:
            for i in range(self.left.rank):
                gi = self.left.apply(g, self.left.carrier.basis_vector(i))
                for j in range(self.right.rank):
                    gj = self.right.apply(g, self.right.carrier.basis_vector(j))
                    lhs = self.apply(gi, gj)
                    rhs = self.target.apply(g, self.table[i][j])
                    if lhs != rhs:
                        raise NonEquivariantPairing(
                            f"pair(g.e_{i}, g.e_{j}) != g.pair(e_{i}, e_{j}) for g={g}"
                        )

    def apply(self, mvec: Sequence[int], nvec: Sequence[int]) -> tuple[int, ...]:
        tgt = self.target.carrier
        out = tgt.zero()
        for i, mi in enumerate(mvec):
            if not mi:
                continue
            for j, nj in enumerate(nvec):
                if not nj:
                    continue
                out = tgt.add(out, tgt.scale(mi * nj, self.table[i][j]))
        return out

    def restrict(self, sub: Subgroup) -> Pairing:
        return Pairing(
            self.left.restrict(sub),
            self.right.restrict(sub),
            self.target.restrict(sub),
            self.table,
            name=self.name,
        )


def evaluation_pairing(dd: DualData) -> Pairing:
    """The pairing Hom(H^ab, mu) x H^ab -> mu, (f, x) -> f(x)."""
    table = [
        [dd.hom_value(dd.dual.carrier.basis_vector(i), dd.source.carrier.basis_vector(j)) for j in range(dd.source.rank)]
        for i in range(dd.dual.rank)
    ]
    return Pairing(dd.dual, dd.source, dd.mu, table, name="evaluation")


def flipped_evaluation_pairing(dd: DualData) -> Pairing:
    """The pairing H^ab x Hom(H^ab, mu) -> mu, (x, f) -> f(x)."""
    table = [
        [dd.hom_value(dd.dual.carrier.basis_vector(j), dd.source.carrier.basis_vector(i)) for j in range(dd.dual.rank)]
        for i in range(dd.source.rank)
    ]
    return Pairing(dd.source, dd.dual, dd.mu, table, name="evaluation-flipped")
