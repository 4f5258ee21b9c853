"""Finite groups as explicit multiplication tables, with the identity at index 0.

Everything downstream (cochains, extensions, models) indexes group elements
by their position in the table, so all enumerations here are deterministic:
subgroups come out in lexicographic order of their sorted element sets, and
permutation closures label elements by sorted permutation tuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Hashable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    ClosureExceedsBound,
    GerbesError,
    InputError,
    InvalidHomomorphism,
    InvalidSubgroup,
    NoIdentity,
    NoInverse,
    NonAssociative,
)
from .finab import FinAb, integer, integer_array, integer_tuple

DEFAULT_CLOSURE_BOUND = 10080


def memo(owner: Any, key: Hashable, build: Callable[..., Any], *args: Any) -> Any:
    """``build(*args)``, computed once per ``(build, key)`` and kept on ``owner``.

    Owners set ``self._memo = {}`` at construction.  Keys hold the objects
    themselves (which hash by identity), never their ids, so a key cannot
    outlive the object it names.
    """
    cache = owner._memo
    try:
        return cache[build, key]
    except KeyError:
        value = cache[build, key] = build(*args)
        return value


def spanning_tree(table: Sequence[Sequence[int]]) -> tuple[list[int], list[tuple[int, int, int]]]:
    """Greedy generators and a BFS spanning tree of right multiplication.

    Each generator is the smallest element not yet reached from 0 by right
    products of the earlier ones; ``steps`` lists ``(y, x, i)`` with
    ``y = x * gens[i]`` in BFS order, one step per element other than 0.
    The first steps are ``(gens[i], 0, i)``.  Only the identity at index 0
    is assumed, not associativity.  ``FiniteGroup.tree`` caches the result.
    """
    n = len(table)
    gens: list[int] = []
    steps: list[tuple[int, int, int]] = []
    seen = [True] + [False] * (n - 1)
    while not all(seen):
        gens.append(seen.index(False))
        seen = [True] + [False] * (n - 1)
        queue, steps = [0], []
        for x in queue:
            for i, g in enumerate(gens):
                y = table[x][g]
                if not seen[y]:
                    seen[y] = True
                    queue.append(y)
                    steps.append((y, x, i))
    return gens, steps


class FiniteGroup:
    """Immutable finite group on {0, ..., order-1} with identity 0.

    Table validation is exact at every order: associativity is checked by
    Light's test on a generating set (Clifford & Preston, *The Algebraic
    Theory of Semigroups* I, 1.2), never by sampling.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        name: str | None = None,
    ) -> None:
        if isinstance(table, Mapping) or not hasattr(table, "__len__"):
            raise InputError(f"a group table must be a list of rows, got {table!r}")
        n = len(table)
        if n == 0:
            raise NoIdentity("empty multiplication table")
        short = next((i for i, row in enumerate(table) if hasattr(row, "__len__") and len(row) != n), n)
        arr = integer_array(table[:short], "table entries", 2)
        if arr is None:
            raise InputError("table rows must be lists of integers")
        bad = (arr < 0) | (arr >= n)
        if bad.any():
            raise InputError(f"table entry {int(arr.flat[bad.argmax()])} out of range [0, {n})")
        if short < n:
            raise InputError(f"row {short} has length {len(table[short])}, expected {n}")
        self.order = n
        self.table: tuple[tuple[int, ...], ...] = tuple(map(tuple, arr.tolist()))
        self.name = name
        self.inv: tuple[int, ...] = self._validate(arr.astype(np.min_scalar_type(n)))
        self._memo: dict = {}

    def _validate(self, t: np.ndarray) -> tuple[int, ...]:
        """The inverses, after checking the table ``t`` as arrays.

        Each failure names the first element, or ``(a, s, c)``, in the
        order of a loop over the generators s, then a, then c.
        """
        n = self.order
        idx = np.arange(n)
        bad = (t[0] != idx) | (t[:, 0] != idx)
        if bad.any():
            raise NoIdentity(f"index 0 is not a two-sided identity at element {bad.argmax()}")
        # Light's test (see ``tree``): the s with (a s) c == a (s c) for all
        # a, c are closed under products.  Rows go in blocks of about 2^22
        # entries, so the temporaries stay small at every order.
        block = max(1, (1 << 22) // n)
        for s in self.tree[0]:
            for lo in range(0, n, block):
                rows = t[lo : lo + block]
                bad = t[rows[:, s]] != rows[:, t[s]]
                if bad.any():
                    a, c = divmod(lo * n + int(bad.argmax()), n)
                    raise NonAssociative(f"({a}*{s})*{c} != {a}*({s}*{c})")
        # In a finite monoid a b = 1 makes x -> b x injective, so b c = 1 for
        # some c, and c = (a b) c = a: right inverses are two-sided.
        zero = t == 0
        has = zero.any(axis=1)
        if not has.all():
            raise NoInverse(f"element {has.argmin()} has no two-sided inverse")
        return tuple(zero.argmax(axis=1).tolist())

    @cached_property
    def tree(self) -> tuple[list[int], list[tuple[int, int, int]]]:
        """The generators S and steps of ``spanning_tree(self.table)``.

        Every law is decided on right products by S.  Lemma: if G acts on a
        group A by automorphisms, f(0) = 1 and f(a s) = f(a) (a.f(s)) for all
        a in G and s in S, then f(a b) = f(a) (a.f(b)) for all a, b.  Proof:
        the b that satisfy this for all a include 0, and for such b,
        f(a b s) = f(a b) (ab.f(s)) = f(a) a.(f(b) (b.f(s))) = f(a) (a.f(b s));
        the steps reach every element from 0.  The trivial action gives
        homomorphisms; Light's test, normality and equivariance are the same
        induction on the elements that pass.
        """
        return spanning_tree(self.table)

    def conjugate(self, g: int, h: int) -> int:
        """g h g^-1."""
        return self.table[self.table[g][h]][self.inv[g]]

    def commutator(self, a: int, b: int) -> int:
        """a b a^-1 b^-1."""
        return self.table[self.conjugate(a, b)][self.inv[b]]

    def powers(self, a: int) -> list[int]:
        """a^0, a^1, ..., a^(n-1) for n the order of a."""
        out, x = [0], a
        while x != 0:
            out.append(x)
            x = self.table[x][a]
        return out

    def element_order(self, a: int) -> int:
        return len(self.powers(a))

    @cached_property
    def is_abelian(self) -> bool:
        """Whether every generator is central; the center is a subgroup."""
        return all(
            self.table[a][s] == self.table[s][a]
            for s in self.tree[0]
            for a in range(self.order)
        )

    def __repr__(self) -> str:
        tag = self.name or f"order {self.order}"
        return f"FiniteGroup({tag})"


def build_group(spec: dict, max_order: int = DEFAULT_CLOSURE_BOUND, name: str | None = None) -> FiniteGroup:
    """Build a group from a {"table": ...} or {"permutations": ...} description."""
    if "table" in spec:
        return FiniteGroup(spec["table"], name=name)
    if "permutations" in spec:
        return from_permutations(spec["permutations"], max_order=max_order, name=name)
    raise InputError("group description needs a 'table' or 'permutations' key")


def from_permutations(
    perms: Sequence[Sequence[int]],
    max_order: int = DEFAULT_CLOSURE_BOUND,
    name: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations of a common finite set into a group.

    The identity gets index 0; the remaining elements are labeled in
    lexicographic order of their permutation tuples, so the table is
    reproducible regardless of generator order.
    """
    if not isinstance(perms, (list, tuple)) or not perms:
        raise InputError(f"permutation generators must be a non-empty list, got {perms!r}")
    gens = [integer_tuple(p, "permutation entries") for p in perms]
    degree = len(gens[0])
    for p in gens:
        if sorted(p) != list(range(degree)):
            raise InputError(f"{p!r} is not a permutation of 0..{degree - 1}")
    ident = tuple(range(degree))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = tuple(p[g[i]] for i in range(degree))
                if q not in seen:
                    if len(seen) >= max_order:
                        raise ClosureExceedsBound(
                            f"closure exceeds the configured bound {max_order}"
                        )
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    elements = [ident] + sorted(seen - {ident})
    index = {p: i for i, p in enumerate(elements)}
    table = [
        [index[tuple(p[q[i]] for i in range(degree))] for q in elements]
        for p in elements
    ]
    return FiniteGroup(table, name=name)


def cyclic_group(n: int, name: str | None = None) -> FiniteGroup:
    n = integer(n, "cyclic group orders")
    if n <= 0:
        raise InputError("cyclic group order must be positive")
    table = [[(a + b) % n for b in range(n)] for a in range(n)]
    return FiniteGroup(table, name=name or f"Z/{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup, name: str | None = None) -> FiniteGroup:
    nal = h.order
    table = [
        [
            g.table[a1][b1] * nal + h.table[a2][b2]
            for b1 in range(g.order)
            for b2 in range(h.order)
        ]
        for a1 in range(g.order)
        for a2 in range(h.order)
    ]
    return FiniteGroup(table, name=name or f"{g.name or 'G'}x{h.name or 'H'}")


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2), name="V4")


def symmetric_group(n: int) -> FiniteGroup:
    n = integer(n, "symmetric group degrees")
    if n < 1:
        raise InputError("symmetric group degree must be >= 1")
    if n == 1:
        return cyclic_group(1, name="S1")
    gens = [[1, 0] + list(range(2, n))]
    if n > 2:
        gens.append(list(range(1, n)) + [0])
    return from_permutations(gens, max_order=math.factorial(n), name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    n = integer(n, "alternating group degrees")
    if n < 1:
        raise InputError("alternating group degree must be >= 1")
    if n < 3:
        return cyclic_group(1, name=f"A{n}")
    gens = [[1, 2, 0] + list(range(3, n))]
    if n > 3:
        if n % 2:
            gens.append(list(range(1, n)) + [0])
        else:
            gens.append([0] + list(range(2, n)) + [1])
    return from_permutations(gens, max_order=math.factorial(n), name=f"A{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    n = integer(n, "dihedral parameters")
    if n < 1:
        raise InputError("dihedral parameter must be >= 1")
    if n <= 2:
        # The action on n vertices is not faithful here; inversion is trivial
        # on C_n, so the semidirect product C_n x| C_2 is direct.
        return direct_product(cyclic_group(n), cyclic_group(2), name=f"D{n}")
    rot = [(i + 1) % n for i in range(n)]
    flip = [(n - i) % n for i in range(n)]
    return from_permutations([rot, flip], max_order=2 * n, name=f"D{n}")


def quaternion_group() -> FiniteGroup:
    """The quaternion group of order 8 on {1,-1,i,-i,j,-j,k,-k}."""
    units = [
        (1, 0, 0, 0), (-1, 0, 0, 0),
        (0, 1, 0, 0), (0, -1, 0, 0),
        (0, 0, 1, 0), (0, 0, -1, 0),
        (0, 0, 0, 1), (0, 0, 0, -1),
    ]
    index = {u: i for i, u in enumerate(units)}

    def qmul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    table = [[index[qmul(p, q)] for q in units] for p in units]
    return FiniteGroup(table, name="Q8")


def sl2_f5() -> FiniteGroup:
    """SL(2, F_5) as an explicit table (order 120, perfect)."""
    mats = [
        (a, b, c, d)
        for a in range(5)
        for b in range(5)
        for c in range(5)
        for d in range(5)
        if (a * d - b * c) % 5 == 1
    ]
    ident = (1, 0, 0, 1)
    mats.remove(ident)
    mats = [ident] + sorted(mats)
    index = {m: i for i, m in enumerate(mats)}

    def mmul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (
            (a1 * a2 + b1 * c2) % 5,
            (a1 * b2 + b1 * d2) % 5,
            (c1 * a2 + d1 * c2) % 5,
            (c1 * b2 + d1 * d2) % 5,
        )

    table = [[index[mmul(p, q)] for q in mats] for p in mats]
    return FiniteGroup(table, name="SL(2,5)")


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup as a sorted element set of its parent group."""

    parent: FiniteGroup
    elements: tuple[int, ...]
    generator: int | None = None

    def __post_init__(self) -> None:
        elems = tuple(sorted(set(integer_tuple(self.elements, "subgroup elements"))))
        object.__setattr__(self, "elements", elems)
        if elems and not 0 <= elems[0] <= elems[-1] < self.parent.order:
            raise InvalidSubgroup(f"subgroup elements must lie in 0..{self.parent.order - 1}")
        if 0 not in elems:
            raise InvalidSubgroup("subgroup must contain the identity")
        member = set(elems)
        for a in elems:
            if self.parent.inv[a] not in member:
                raise InvalidSubgroup(f"subgroup not closed under inversion at {a}")
            for b in elems:
                if self.parent.table[a][b] not in member:
                    raise InvalidSubgroup(f"subgroup not closed under product at ({a}, {b})")

    @property
    def order(self) -> int:
        return len(self.elements)

    def contains(self, other: Subgroup) -> bool:
        return set(other.elements) <= set(self.elements)

    @staticmethod
    def generated_by(parent: FiniteGroup, gens: Iterable[int]) -> Subgroup:
        gens = integer_tuple(gens, "subgroup generators")
        if not all(0 <= g < parent.order for g in gens):
            raise InputError(f"subgroup generators must lie in 0..{parent.order - 1}, got {list(gens)}")
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    for y in (parent.table[x][g], parent.table[x][parent.inv[g]]):
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
            frontier = nxt
        return Subgroup(parent, tuple(sorted(seen)))

    @staticmethod
    def whole(parent: FiniteGroup) -> Subgroup:
        return Subgroup(parent, tuple(range(parent.order)))

    @staticmethod
    def trivial(parent: FiniteGroup) -> Subgroup:
        return Subgroup(parent, (0,))

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """The subgroup as its own FiniteGroup plus the embedding map.

        Cached on the parent keyed by the element set, so equal subgroups
        share one group object and module restrictions stay compatible.
        """
        return memo(self.parent, self.elements, _subgroup_as_group, self.parent, self.elements)


def _subgroup_as_group(parent: FiniteGroup, embed: tuple[int, ...]) -> tuple[FiniteGroup, tuple[int, ...]]:
    pos = {e: i for i, e in enumerate(embed)}
    table = [[pos[parent.table[a][b]] for b in embed] for a in embed]
    return FiniteGroup(table, name=f"{parent.name or 'G'}|{embed}"), embed


def cyclic_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All distinct cyclic subgroups, lexicographic by sorted element set.

    Each subgroup carries a designated generator (the smallest element index
    generating it).
    """
    found: dict[tuple[int, ...], int] = {}
    for g in range(group.order):
        found.setdefault(tuple(sorted(group.powers(g))), g)
    return [
        Subgroup(group, key, generator=gen)
        for key, gen in sorted(found.items())
    ]


def commutator_subgroup(group: FiniteGroup) -> Subgroup:
    gens = {
        group.commutator(a, b)
        for a in range(group.order)
        for b in range(group.order)
    }
    gens.discard(0)
    return Subgroup.generated_by(group, sorted(gens))


class GroupHom:
    """A validated homomorphism given by its per-element image table."""

    def __init__(self, domain: FiniteGroup, codomain: FiniteGroup, images: Sequence[int]) -> None:
        imgs = integer_tuple(images, "image indices")
        if len(imgs) != domain.order:
            raise InvalidHomomorphism("image table length does not match the domain order")
        for x in imgs:
            if not 0 <= x < codomain.order:
                raise InvalidHomomorphism(f"image index {x} out of range")
        if imgs[0] != 0:
            raise InvalidHomomorphism("homomorphism must send identity to identity")
        # The lemma of ``FiniteGroup.tree`` with the trivial action.
        for s in domain.tree[0]:
            for a, row in enumerate(domain.table):
                if imgs[row[s]] != codomain.table[imgs[a]][imgs[s]]:
                    raise InvalidHomomorphism(f"multiplicativity fails at ({a}, {s})")
        self.domain = domain
        self.codomain = codomain
        self.images = imgs

    def __call__(self, a: int) -> int:
        return self.images[a]

    @cached_property
    def is_surjective(self) -> bool:
        return len(set(self.images)) == self.codomain.order

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.images)) == self.domain.order


@dataclass(frozen=True)
class Abelianization:
    """G/[G,G] in invariant-factor form with the projection map.

    ``coords[x]`` projects element ``x``; ``generator_preimages[i]`` is an
    element of G mapping to the i-th basis vector of ``target``.  For an
    abelian G (``abelian_structure``) the projection is an isomorphism.
    """

    source: FiniteGroup
    target: FinAb
    coords: tuple[tuple[int, ...], ...]
    generator_preimages: tuple[int, ...]


def abelian_table_group(fab: FinAb, name: str | None = None) -> FiniteGroup:
    """A FinAb as an explicit-table group; element index is the mixed-radix rank."""
    elems = list(fab.elements())
    index = {e: i for i, e in enumerate(elems)}
    table = [[index[fab.add(a, b)] for b in elems] for a in elems]
    return FiniteGroup(table, name=name or f"Ab{list(fab.factors)}")


def quotient_group(group: FiniteGroup, normal: Subgroup) -> tuple[FiniteGroup, tuple[int, ...]]:
    """The quotient by a normal subgroup, plus the projection index map.

    Cosets are labeled by their minimal element, sorted ascending, so the
    identity coset is index 0 and the construction is canonical.
    """
    nset = set(normal.elements)
    # The g with g N g^-1 = N are closed under products (``FiniteGroup.tree``).
    for g in group.tree[0]:
        for x in normal.elements:
            if group.conjugate(g, x) not in nset:
                raise InvalidSubgroup(f"subgroup is not normal: {g} conjugates {x} outside")
    rep = [min(group.table[a][x] for x in normal.elements) for a in range(group.order)]
    reps = sorted(set(rep))
    rep_index = {r: i for i, r in enumerate(reps)}
    table = [[rep_index[rep[group.table[a][b]]] for b in reps] for a in reps]
    quot = FiniteGroup(table, name=f"{group.name or 'G'}/N{len(nset)}")
    proj = tuple(rep_index[rep[a]] for a in range(group.order))
    return quot, proj


def abelian_structure(group: FiniteGroup) -> Abelianization:
    """An abelian group in invariant-factor form: its own abelianization.

    Splits off the cyclic subgroup of the first element g of maximal order,
    decomposes the quotient, and lifts each quotient generator to an element
    of the same order, so the coordinate map is an isomorphism.  It is
    checked to be bijective, a homomorphism on the generators of
    ``group.tree`` (its lemma) and to send the generators to basis vectors.
    """
    q = group.order
    if q == 1:
        return Abelianization(group, FinAb(()), ((),), ())
    table = group.table
    powers = max(map(group.powers, range(q)), key=len)
    m1 = len(powers)
    dlog = {p: i for i, p in enumerate(powers)}
    factors: tuple[int, ...] = ()
    partial: list[tuple[int, ...]] = [()] * q
    lifted: list[int] = []
    if m1 < q:
        quot, proj = quotient_group(group, Subgroup(group, tuple(powers)))
        sub = abelian_structure(quot)
        factors, partial = sub.target.factors, [sub.coords[c] for c in proj]
        # Cosets are labeled by their least element, which ``proj.index`` finds.
        for gen_q, m_i in zip(sub.generator_preimages, factors):
            g = proj.index(gen_q)
            acc = 0
            for _ in range(m_i):
                acc = table[acc][g]
            d = dlog[acc]
            if d % m_i:
                raise GerbesError("abelian splitting failed; table is not a group")
            # g^m_i = g1^d, so g g1^s with s = -d/m_i mod m1 has order m_i.
            lifted.append(table[g][powers[-(d // m_i) % m1]])

    coords: list[tuple[int, ...]] = []
    for x in range(q):
        r = x
        for a_i, gen in zip(partial[x], lifted):
            for _ in range(a_i):
                r = table[r][group.inv[gen]]
        if r not in dlog:
            raise GerbesError("abelian splitting failed; residue outside the cyclic part")
        coords.append(partial[x] + (dlog[r],))
    result = Abelianization(group, FinAb(factors + (m1,)), tuple(coords), (*lifted, powers[1]))
    _check_abelian_structure(result)
    return result


def _check_abelian_structure(res: Abelianization) -> None:
    """Raise unless ``res.coords`` is an isomorphism sending the generators to basis vectors."""
    group, target, coords = res.source, res.target, res.coords
    if len(set(coords)) != group.order or target.order != group.order:
        raise GerbesError("abelian structure map is not bijective")
    for s in group.tree[0]:
        for a, row in enumerate(group.table):
            if coords[row[s]] != target.add(coords[a], coords[s]):
                raise GerbesError("abelian structure map is not a homomorphism")
    for i, gen in enumerate(res.generator_preimages):
        if coords[gen] != target.basis_vector(i):
            raise GerbesError("abelian structure generators do not match basis vectors")


def abelianization(group: FiniteGroup) -> Abelianization:
    """G/[G,G] with its projection: the commutator quotient, then ``abelian_structure``.

    The two order computations must agree.
    """
    comm = commutator_subgroup(group)
    quot, proj = quotient_group(group, comm)
    if quot.order * comm.order != group.order:
        raise GerbesError("commutator index does not match the quotient order")
    decomp = abelian_structure(quot)
    coords = tuple(decomp.coords[p] for p in proj)
    return Abelianization(group, decomp.target, coords, tuple(map(proj.index, decomp.generator_preimages)))
