"""Gerbes as group extensions 1 -> H -> Gamma -> G -> 1.

The extension carries everything this package computes about a gerbe: its
2-cocycle class with coefficients in H^ab, its local splittings over the
declared places of an arithmetic model, the dual module Hom(H^ab, mu), and
the Brauer-Manin functional m_H on Sha^1(G, Hom(H^ab, mu)).

Sign conventions are pinned by two identities that are validated at
runtime on every computation: d c_v = res_v e for the splitting-derived
trivializations c_v(d) = s(d) sigma_v(d)^{-1}, and d w_v = 0 for
w_v = res_v gamma + res_v b cup c_v.  With these, the invariant sum is
independent of every choice made along the way (section, splittings,
representatives, primitive), which is what the tests enforce.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import gcd, lcm, prod
from typing import Any, Callable, Sequence

import numpy as np

from .arith import ArithmeticModel, Place, ShaResult, axioms_hold, require_axioms, sha
from .cochain import (
    Cochain,
    CohomologyGroup,
    cohomology,
    cup,
    differential,
    is_cocycle,
    random_cocycle,
    restriction,
    solve_coboundary,
)
from .errors import (
    GerbesError,
    GlobalH3Obstruction,
    InputError,
    NotLocallyNeutral,
    SizeBound,
)
from .finab import QmodZ
from .groups import (
    Abelianization,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_table_group,
    commutator_subgroup,
    memo,
    quotient_group,
)
from .linalg import solve_mod
from .modules import (
    DualData,
    GModule,
    cyclic_module,
    dual_module,
    evaluation_pairing,
    flipped_evaluation_pairing,
    induced_action_on_abelianization,
)

SPLITTING_SEARCH_BOUND = 2_000_000


class GerbeExtension:
    """An exact sequence 1 -> H -> Gamma -> G -> 1, validated exhaustively."""

    def __init__(self, proj: GroupHom, incl: GroupHom) -> None:
        if incl.codomain is not proj.domain:
            raise InputError("inclusion must land in the projection's domain")
        if not proj.is_surjective:
            raise InputError("projection is not surjective")
        if not incl.is_injective:
            raise InputError("inclusion is not injective")
        image = set(incl.images)
        kernel = {a for a in range(proj.domain.order) if proj(a) == 0}
        if image != kernel:
            raise InputError("image of the kernel group does not equal ker(projection)")
        self.proj = proj
        self.incl = incl
        self.total = proj.domain
        self.quotient = proj.codomain
        self.kernel_group = incl.domain
        self._pull = {g: h for h, g in enumerate(incl.images)}
        fibers: list[list[int]] = [[] for _ in range(self.quotient.order)]
        for a in range(self.total.order):
            fibers[proj(a)].append(a)
        self._fibers = tuple(tuple(sorted(f)) for f in fibers)
        self._memo: dict = {}

    def fiber(self, g: int) -> tuple[int, ...]:
        return self._fibers[g]

    def pull(self, gamma: int) -> int:
        try:
            return self._pull[gamma]
        except KeyError:
            raise GerbesError(f"element {gamma} is not in the kernel") from None

    @property
    def kernel_abelian(self) -> bool:
        return self.kernel_group.is_abelian

    def __repr__(self) -> str:
        return (
            f"GerbeExtension(1 -> {self.kernel_group!r} -> {self.total!r} "
            f"-> {self.quotient!r} -> 1)"
        )


def lex_section(ext: GerbeExtension) -> tuple[int, ...]:
    """The normalized set-section picking the smallest lift of each element."""
    return tuple(ext.fiber(g)[0] for g in range(ext.quotient.order))


def _conjugation(ext: GerbeExtension, lifts: Sequence[int]) -> list[list[int]]:
    """``perms[d][h]``: the kernel element lifts[d] h lifts[d]^-1, for each lift."""
    table, inv, incl = ext.total.table, ext.total.inv, ext.incl.images
    return [[ext.pull(table[table[x][y]][inv[x]]) for y in incl] for x in lifts]


def induced_conj_perms(ext: GerbeExtension, section: Sequence[int] | None = None) -> list[list[int]]:
    """Conjugation action of G on H through a set-section of Gamma."""
    return _conjugation(ext, section if section is not None else lex_section(ext))


def _factor_set_cochain(
    ext: GerbeExtension,
    section: Sequence[int],
    ab: Abelianization,
    module: GModule,
) -> Cochain:
    """proj_{H^ab}( s(g1) s(g2) s(g1 g2)^{-1} ) as a normalized 2-cochain."""
    total, quot = ext.total, ext.quotient
    s = tuple(section)
    if s[0] != 0:
        raise InputError("set-section must lift the identity to the identity")
    for g in range(quot.order):
        if ext.proj(s[g]) != g:
            raise InputError(f"set-section does not lift element {g}")
    table = total.table

    def factor(g: tuple[int, ...]) -> tuple[int, ...]:
        g1, g2 = g
        return ab.coords[ext.pull(table[table[s[g1]][s[g2]]][total.inv[s[quot.table[g1][g2]]]])]

    e = Cochain.from_function(module, 2, factor)
    if not is_cocycle(e):
        raise GerbesError("factor set does not satisfy the cocycle identity")
    return e


@dataclass(frozen=True)
class GerbeClass:
    """The 2-cocycle class of an extension with H^ab coefficients."""

    extension: GerbeExtension
    section: tuple[int, ...]
    abelianized: Abelianization
    module: GModule
    cochain: Cochain


def class_2cocycle(ext: GerbeExtension, section: Sequence[int] | None = None) -> GerbeClass:
    """The factor-set cocycle of the extension, with its induced action.

    The action of G on H^ab comes from conjugation through the canonical
    lexicographic section; it does not depend on the section (inner
    automorphisms die in H^ab), and that invariance is part of the test
    suite.  A custom ``section`` only changes the cocycle by a coboundary.
    """
    ab, module = induced_action_on_abelianization(
        ext.kernel_group, induced_conj_perms(ext), ext.quotient
    )
    s = tuple(section) if section is not None else lex_section(ext)
    e = _factor_set_cochain(ext, s, ab, module)
    return GerbeClass(ext, s, ab, module, e)


@dataclass(frozen=True)
class AbelianizedGerbe:
    """Pushout of an extension along H -> H/[H,H], with both quotient maps."""

    extension: GerbeExtension
    total_map: tuple[int, ...]
    kernel_map: tuple[int, ...]


def abelianized_data(ext: GerbeExtension) -> AbelianizedGerbe:
    return memo(ext, None, _abelianized_data, ext)


def _abelianized_data(ext: GerbeExtension) -> AbelianizedGerbe:
    if ext.kernel_abelian:
        ident_total = tuple(range(ext.total.order))
        ident_kernel = tuple(range(ext.kernel_group.order))
        return AbelianizedGerbe(ext, ident_total, ident_kernel)
    comm = commutator_subgroup(ext.kernel_group)
    normal = Subgroup(ext.total, tuple(sorted(ext.incl(h) for h in comm.elements)))
    quot_total, qmap = quotient_group(ext.total, normal)
    pi_images = [0] * quot_total.order
    for a in range(ext.total.order):
        pi_images[qmap[a]] = ext.proj(a)
    proj2 = GroupHom(quot_total, ext.quotient, pi_images)
    kernel_elems = tuple(sorted({qmap[ext.incl(h)] for h in range(ext.kernel_group.order)}))
    ker_sub = Subgroup(quot_total, kernel_elems)
    ker_group, embed = ker_sub.as_group()
    incl2 = GroupHom(ker_group, quot_total, embed)
    pos = {e: i for i, e in enumerate(embed)}
    kernel_map = tuple(pos[qmap[ext.incl(h)]] for h in range(ext.kernel_group.order))
    return AbelianizedGerbe(GerbeExtension(proj2, incl2), tuple(qmap), kernel_map)


def abelianize_gerbe(ext: GerbeExtension) -> GerbeExtension:
    """The pushout extension 1 -> H/[H,H] -> Gamma/[H,H] -> G -> 1."""
    return abelianized_data(ext).extension


def extension_from_cocycle(z: Cochain) -> GerbeExtension:
    """The extension of G by an abelian kernel built from a 2-cocycle.

    Elements are pairs (m, g) with (m1, g1)(m2, g2) =
    (m1 + g1.m2 + z(g1, g2), g1 g2); the kernel embeds as (m, 1).
    Inequivalent cocycle classes give inequivalent extensions, so counting
    H^2 classes counts extensions.
    """
    if z.degree != 2:
        raise InputError("extensions come from 2-cocycles")
    if not is_cocycle(z):
        raise GerbesError("extension construction needs a cocycle")
    module = z.module
    d = module.carrier.factors
    # The index of an element in ``FinAb.elements`` order, last coordinate fastest.
    radix = np.array([prod(d[i + 1 :]) for i in range(len(d))], dtype=np.int64)
    elements = np.array(list(module.carrier.elements()), dtype=np.int64)
    q = module.group.order - 1
    action = (elements @ module.action.transpose(0, 2, 1) % np.asarray(d, dtype=np.int64) @ radix).tolist()
    # The slots of z form the (q, q) block of the non-identity arguments; z is 0
    # (element 0) when g1 or g2 is the identity.
    factor = np.pad((z.array @ radix).reshape(q, q), ((1, 0), (1, 0))).tolist()
    kernel = abelian_table_group(module.carrier)
    return _crossed_product(kernel, module.group, action, factor, f"E({module.name or 'M'})")


def semidirect_extension(
    kernel: FiniteGroup,
    quotient: FiniteGroup,
    action: Sequence[Sequence[int]] | None = None,
) -> GerbeExtension:
    """The split extension kernel x| quotient for an automorphism action.

    ``action[g]`` permutes the kernel; omitting it gives the direct
    product.
    """
    if action is None:
        action = [list(range(kernel.order))] * quotient.order
    n = quotient.order
    name = f"{kernel.name or 'H'}x|{quotient.name or 'G'}"
    return _crossed_product(kernel, quotient, action, [[0] * n] * n, name)


def _crossed_product(
    kernel: FiniteGroup,
    quotient: FiniteGroup,
    action: Sequence[Sequence[int]],
    factor: Sequence[Sequence[int]],
    name: str,
) -> GerbeExtension:
    """The extension on pairs (h, g), numbered h |G| + g, with
    (h1, g1)(h2, g2) = (h1 (g1.h2) factor[g1][g2], g1 g2).

    ``action[g]`` permutes the kernel; the kernel embeds as (h, 1).
    """
    n, kt, qt = quotient.order, kernel.table, quotient.table
    pairs = [(h, g) for h in range(kernel.order) for g in range(n)]
    table = [
        [kt[kt[h1][action[g1][h2]]][factor[g1][g2]] * n + qt[g1][g2] for h2, g2 in pairs]
        for h1, g1 in pairs
    ]
    total = FiniteGroup(table, name=name)
    proj = GroupHom(total, quotient, [g for _, g in pairs])
    incl = GroupHom(kernel, total, [h * n for h in range(kernel.order)])
    return GerbeExtension(proj, incl)


@dataclass(frozen=True)
class LocalSection:
    """A homomorphic splitting of the extension over one place."""

    place: Place
    extension: GerbeExtension
    images: tuple[int, ...]  # per element of the place's subgroup-as-group


def _crossed_homomorphisms(
    dgroup: FiniteGroup,
    candidates: Sequence[Sequence[Any]],
    mul: Callable[[Any, Any], Any],
    act: Callable[[int, Any], Any],
    identity: Any,
) -> list[list[Any]]:
    """Every f: D -> A with f(a b) = f(a) (a.f(b)) and f(s_i) in candidates[i].

    ``s_i`` is the i-th generator of ``dgroup.tree``, ``mul`` the product
    of A and ``act(d, x)`` an action of D on A by automorphisms.  Each
    choice is extended along the tree and kept when the law holds on
    D x generators, which is the law everywhere by the lemma of
    ``FiniteGroup.tree``.  Results come in ``itertools.product`` order.
    """
    gens, steps = dgroup.tree
    count = prod(len(c) for c in candidates)
    if count > SPLITTING_SEARCH_BOUND:
        raise SizeBound(
            f"crossed homomorphism search space has {count} candidates, "
            f"past SPLITTING_SEARCH_BOUND = {SPLITTING_SEARCH_BOUND}"
        )
    found = []
    for combo in itertools.product(*candidates):
        f = [identity] * dgroup.order
        for y, x, i in steps:
            f[y] = mul(f[x], act(x, combo[i]))
        if all(
            f[row[s]] == mul(f[a], act(a, f[s]))
            for s in gens
            for a, row in enumerate(dgroup.table)
        ):
            found.append(f)
    return found


def splitting_images(ext: GerbeExtension, sub: Subgroup) -> list[tuple[int, ...]]:
    """All homomorphisms s: D -> Gamma with proj(s(d)) = d, sorted by images."""
    dgroup, embed = sub.as_group()
    table = ext.total.table
    fibers = [ext.fiber(embed[g]) for g in dgroup.tree[0]]
    homs = _crossed_homomorphisms(dgroup, fibers, lambda x, y: table[x][y], lambda d, x: x, 0)
    return sorted(
        tuple(im) for im in homs if all(ext.proj(im[a]) == embed[a] for a in range(dgroup.order))
    )


def local_sections(ext: GerbeExtension, model: ArithmeticModel) -> dict[str, list[LocalSection]]:
    """Splittings per place; an empty list marks a non-neutral place."""
    if model.group is not ext.quotient:
        raise InputError("model's Galois group differs from the extension quotient")
    out: dict[str, list[LocalSection]] = {}
    for p in model.places:
        images = splitting_images(ext, p.subgroup)
        out[p.name] = [LocalSection(p, ext, im) for im in images]
    return out


@dataclass(frozen=True)
class TorsorClass:
    """Difference cocycle of two splittings in H^1(D_v, H) (pointed set)."""

    values: tuple[int, ...]  # z(d) in the kernel group, per subgroup element
    class_index: int
    class_count: int
    is_trivial: bool
    abelianized: Cochain


def torsor_difference(first: LocalSection, second: LocalSection) -> TorsorClass:
    """Class of z(d) = second(d) first(d)^{-1} under twisted conjugation."""
    if first.place is not second.place or first.extension is not second.extension:
        raise InputError("torsor difference needs two splittings at one place")
    ext = first.extension
    dgroup, embed = first.place.subgroup.as_group()
    total = ext.total
    z_vals = tuple(
        ext.pull(total.table[second.images[d]][total.inv[first.images[d]]])
        for d in range(dgroup.order)
    )
    h_group = ext.kernel_group
    h_table = h_group.table
    conj = _conjugation(ext, first.images)
    anything = [range(h_group.order)] * len(dgroup.tree[0])
    homs = _crossed_homomorphisms(
        dgroup, anything, lambda x, y: h_table[x][y], lambda d, h: conj[d][h], 0
    )
    cocycles = sorted(map(tuple, homs))
    remaining = set(cocycles)
    orbits = []
    for z in cocycles:
        if z not in remaining:
            continue
        orbit = set()
        for h in range(h_group.order):
            hz = tuple(
                h_table[h_table[h][z[d]]][h_group.inv[conj[d][h]]]
                for d in range(dgroup.order)
            )
            orbit.add(hz)
        remaining -= orbit
        orbits.append(sorted(orbit))
    orbits.sort(key=lambda orb: orb[0])
    class_index = next(i for i, orb in enumerate(orbits) if z_vals in set(orb))
    trivial_index = next(
        i for i, orb in enumerate(orbits) if tuple([0] * dgroup.order) in set(orb)
    )
    ab, module = induced_action_on_abelianization(
        h_group, induced_conj_perms(ext), ext.quotient
    )
    sub_module = module.restrict(first.place.subgroup)
    vals = [ab.coords[z_vals[d]] for d in range(1, dgroup.order)]
    abelian = Cochain(sub_module, 1, vals)
    return TorsorClass(z_vals, class_index, len(orbits), class_index == trivial_index, abelian)


def gerbe_dual(ext: GerbeExtension, mu: GModule) -> DualData:
    """Hom(H^ab, mu) for the extension's outer action; needs exp(H^ab) | m.

    Cached per (extension, mu) pair so every caller shares one module
    object; cochains over the dual compare and combine by module identity.
    """
    return memo(ext, mu, _gerbe_dual, ext, mu)


def _gerbe_dual(ext: GerbeExtension, mu: GModule) -> DualData:
    dd = dual_module(ext.kernel_group, induced_conj_perms(ext), mu)
    m = mu.carrier.factors[0]
    exp = dd.abelianized.target.exponent
    if exp > 1 and m % exp:
        raise InputError(
            f"mu modulus {m} is not divisible by exp(H^ab) = {exp}"
        )
    return dd


def brauer_a(ext: GerbeExtension, mu: GModule) -> CohomologyGroup:
    """Br_a of the gerbe: H^1(G, Hom(H^ab, mu))."""
    dd = gerbe_dual(ext, mu)
    return cohomology(dd.dual, 1)


def picard_geom(ext: GerbeExtension, mu: GModule) -> GModule:
    """The geometric Picard module: Hom(H^ab, mu) with its Galois action."""
    return gerbe_dual(ext, mu).dual


def local_pairing(
    model: ArithmeticModel,
    dd: DualData,
    place: Place,
    z: Cochain,
    b: Cochain,
) -> QmodZ:
    """Local Tate pairing: inv_v of (z cup b) under evaluation.

    ``z`` is a 1-cocycle on D_v with H^ab coefficients, ``b`` one with
    Hom(H^ab, mu) coefficients; the value is bilinear and kills
    coboundaries on either side.
    """
    pairing = flipped_evaluation_pairing(dd).restrict(place.subgroup)
    if not pairing.left.compatible_with(z.module) or not pairing.right.compatible_with(b.module):
        raise InputError("local pairing arguments do not match the place's modules")
    for c in (z, b):
        if not is_cocycle(c):
            raise GerbesError("local pairing needs cocycle arguments")
    return model.inv_eval(place, cup(z, b, pairing))


@dataclass(frozen=True)
class BMChoices:
    """Optional non-canonical choices for the m_H recipe (perturbation tests)."""

    section: tuple[int, ...] | None = None
    splittings: dict[str, int] | None = None
    b_shifts: tuple[Cochain | None, ...] | None = None
    gamma_shifts: tuple[Cochain | None, ...] | None = None


@dataclass(frozen=True)
class BMPlaceTrace:
    place: str
    c_v: Cochain
    w_v: Cochain
    contribution: QmodZ


@dataclass(frozen=True)
class BMGeneratorTrace:
    b: Cochain
    u: Cochain
    gamma: Cochain
    places: tuple[BMPlaceTrace, ...]


@dataclass(frozen=True)
class BMTrace:
    e: Cochain
    generators: tuple[BMGeneratorTrace, ...]


@dataclass(frozen=True)
class BMFunctional:
    """m_H as a functional on Sha^1(G, Hom(H^ab, mu))."""

    sha: ShaResult
    values: tuple[QmodZ, ...]
    modulus: int
    trace: BMTrace | None = None

    def __post_init__(self) -> None:
        for d, v in zip(self.sha.factors, self.values):
            if d % v.order:
                raise GerbesError(
                    f"m_H value {v} has order not dividing its generator order {d}"
                )

    def is_zero(self) -> bool:
        return all(v.is_zero() for v in self.values)

    def same_functional(self, other: BMFunctional) -> bool:
        return (
            self.sha.factors == other.sha.factors
            and [g.cochain.array.tolist() for g in self.sha.generators]
            == [g.cochain.array.tolist() for g in other.sha.generators]
            and self.values == other.values
        )


def _character_lifts(group: FiniteGroup, m: int, t: int, old: Sequence[int]) -> list[dict[int, int]]:
    """All characters G -> (Z/mt)* that reduce to the character ``old`` mod m.

    Two characters that agree on the generators agree everywhere, so fixing
    each generator's residue fixes the reduction.  Product order is kept.
    """
    mt = m * t
    candidates = [
        [
            u
            for u in range(old[g] % m, mt, m)
            if gcd(u, mt) == 1 and pow(u, group.element_order(g), mt) == 1
        ]
        for g in group.tree[0]
    ]
    chars = _crossed_homomorphisms(group, candidates, lambda x, y: x * y % mt, lambda d, u: u, 1)
    return [dict(enumerate(chi)) for chi in chars]


def _enlarged_models(model: ArithmeticModel, t: int) -> list[ArithmeticModel]:
    """Models with mu embedded into Z/(m t), over all compatible characters.

    The embedding is x -> t x; invariant maps are extended so that the new
    inv_v agrees with the old one through the induced map on H^2, and only
    axiom-clean extensions are returned.
    """
    m = model.modulus
    mt = m * t
    old_char = model.mu.action[:, 0, 0].tolist()
    out = []
    for chars in _character_lifts(model.group, m, t, old_char):
        try:
            mu_t = cyclic_module(model.group, mt, chars)
        except InputError:
            continue
        places = []
        feasible = True
        for p in model.places:
            old_h2 = model.local_h2(p)
            sub_mu_t = mu_t.restrict(p.subgroup)
            new_h2 = cohomology(sub_mu_t, 2)
            if not old_h2.factors:
                places.append(
                    Place(p.name, p.subgroup, tuple(QmodZ.zero() for _ in new_h2.factors))
                )
                continue
            if not new_h2.factors:
                if any(not v.is_zero() for v in p.inv):
                    feasible = False
                    break
                places.append(Place(p.name, p.subgroup, ()))
                continue
            # Matrix of H^2(D, mu) -> H^2(D, mu') induced by x -> t x.
            cols = []
            for rep in old_h2.representatives:
                lifted = Cochain(sub_mu_t, 2, t * rep.array)
                cols.append(new_h2.reduce(lifted))
            big = lcm(*(list(new_h2.factors) + [v.order for v in p.inv] + [1]))
            rows = []
            target = []
            for i in range(len(old_h2.factors)):
                rows.append(
                    [cols[i][j] * (big // new_h2.factors[j]) for j in range(len(new_h2.factors))]
                )
                target.append(p.inv[i].num * (big // p.inv[i].den) % big)
            sol, _failed = solve_mod(np.asarray(rows, dtype=np.int64), target, big)
            if sol is None:
                feasible = False
                break
            inv = tuple(QmodZ.make(a, d) for a, d in zip(sol, new_h2.factors))
            places.append(Place(p.name, p.subgroup, inv))
        if not feasible:
            continue
        try:
            cand = ArithmeticModel(
                model.group,
                mu_t,
                places,
                chebotarev_complete=model.chebotarev_complete,
            )
        except InputError:
            continue
        if axioms_hold(cand):
            out.append(cand)
    return out


def brauer_manin(
    ext: GerbeExtension,
    model: ArithmeticModel,
    choices: BMChoices | None = None,
    trivialization: str = "splitting",
    mu_enlarge_bound: int = 1,
    keep_trace: bool = False,
) -> BMFunctional:
    """The Brauer-Manin functional m_H of a locally neutral gerbe.

    For each generator b of Sha^1(G, Hom(H^ab, mu)):

      1. u = b cup e, a 3-cocycle with mu coefficients (e the pushout class);
      2. gamma with d gamma = u (GlobalH3Obstruction if none, optionally
         retrying with mu enlarged to Z/(m t), t <= mu_enlarge_bound);
      3. per place, a 1-cochain c_v with d c_v = res_v e, derived from a
         splitting (or from the coboundary solver with
         trivialization="solver");
      4. w_v = res_v gamma + (res_v b) cup c_v, a 2-cocycle;
      5. m_H(b) = sum over places of inv_v([w_v]).

    The result does not depend on any of the choices; ``choices`` exists so
    the tests can prove that.
    """
    require_axioms(model)
    if trivialization not in ("splitting", "solver"):
        raise InputError("trivialization must be 'splitting' or 'solver'")
    data = abelianized_data(ext)
    secs = local_sections(ext, model)
    for p in model.places:
        if not secs[p.name]:
            raise NotLocallyNeutral(p.name)
    try:
        return _bm_attempt(ext, data, model, secs, choices, trivialization, keep_trace)
    except GlobalH3Obstruction:
        for t in range(2, mu_enlarge_bound + 1):
            for enlarged in _enlarged_models(model, t):
                try:
                    return _bm_attempt(
                        ext, data, enlarged, secs, choices, trivialization, keep_trace
                    )
                except GlobalH3Obstruction:
                    continue
        raise


def _bm_attempt(
    ext: GerbeExtension,
    data: AbelianizedGerbe,
    model: ArithmeticModel,
    secs: dict[str, list[LocalSection]],
    choices: BMChoices | None,
    trivialization: str,
    keep_trace: bool,
) -> BMFunctional:
    eab = data.extension
    dd = gerbe_dual(eab, model.mu)
    section = choices.section if choices and choices.section else lex_section(eab)
    e = _factor_set_cochain(eab, section, dd.abelianized, dd.source)
    pair_eval = evaluation_pairing(dd)
    sha_result = sha(model, dd.dual, 1)

    c_by_place: dict[str, Cochain] = {}
    for p in model.places:
        sub = p.subgroup
        dgroup, embed = sub.as_group()
        a_local = dd.source.restrict(sub)
        res_e = restriction(e, sub)
        if trivialization == "solver":
            solved = solve_coboundary(res_e)
            if solved.primitive is None:
                raise NotLocallyNeutral(p.name)
            c_v = solved.primitive
        else:
            idx = 0
            if choices and choices.splittings and p.name in choices.splittings:
                idx = choices.splittings[p.name] % len(secs[p.name])
            sigma = secs[p.name][idx]
            pushed = [data.total_map[x] for x in sigma.images]
            total = eab.total
            vals = []
            for d in range(1, dgroup.order):
                g = embed[d]
                prod = total.table[section[g]][total.inv[pushed[d]]]
                vals.append(dd.abelianized.coords[eab.pull(prod)])
            c_v = Cochain(a_local, 1, vals)
        if differential(c_v) != res_e:
            raise GerbesError(f"d c_v != res_v e at place {p.name!r}; sign conventions broken")
        c_by_place[p.name] = c_v

    values = []
    gen_traces = []
    for j, gen in enumerate(sha_result.generators):
        b = gen.cochain
        if choices and choices.b_shifts and choices.b_shifts[j] is not None:
            b = b + differential(choices.b_shifts[j])
        u = cup(b, e, pair_eval)
        solved = solve_coboundary(u)
        if solved.primitive is None:
            raise GlobalH3Obstruction(solved.certificate)
        gamma = solved.primitive
        if choices and choices.gamma_shifts and choices.gamma_shifts[j] is not None:
            shift = choices.gamma_shifts[j]
            if not is_cocycle(shift):
                raise InputError("gamma shifts must be 2-cocycles")
            gamma = gamma + shift
        total_val = QmodZ.zero()
        place_traces = []
        for p in model.places:
            sub = p.subgroup
            res_gamma = restriction(gamma, sub)
            res_b = restriction(b, sub)
            pair_local = pair_eval.restrict(sub)
            w_v = res_gamma + cup(res_b, c_by_place[p.name], pair_local)
            if not is_cocycle(w_v):
                raise GerbesError(f"w_v is not a cocycle at place {p.name!r}")
            contrib = model.inv_eval(p, w_v)
            total_val = total_val + contrib
            if keep_trace:
                place_traces.append(BMPlaceTrace(p.name, c_by_place[p.name], w_v, contrib))
        values.append(total_val)
        if keep_trace:
            gen_traces.append(BMGeneratorTrace(b, u, gamma, tuple(place_traces)))
    trace = BMTrace(e, tuple(gen_traces)) if keep_trace else None
    return BMFunctional(sha_result, tuple(values), model.modulus, trace)


@dataclass(frozen=True)
class FactorizationReport:
    """Comparison of m_H computed on E and on its abelianized pushout."""

    via_extension: BMFunctional
    via_pushout: BMFunctional
    equal: bool
    differences: tuple[tuple[int, QmodZ, QmodZ], ...]


def verify_factorization(
    ext: GerbeExtension, model: ArithmeticModel, mu_enlarge_bound: int = 1, keep_trace: bool = False
) -> FactorizationReport:
    """Check that m_H factors through abelianization, generator by generator.

    Both sides run ``brauer_manin`` with the same ``mu_enlarge_bound``.
    """
    opts = {"mu_enlarge_bound": mu_enlarge_bound, "keep_trace": keep_trace}
    left = brauer_manin(ext, model, **opts)
    right = brauer_manin(abelianize_gerbe(ext), model, **opts)
    if left.sha.factors != right.sha.factors:
        raise GerbesError("factorization domains disagree; pushout is inconsistent")
    diffs = tuple(
        (j, a, b) for j, (a, b) in enumerate(zip(left.values, right.values)) if a != b
    )
    return FactorizationReport(left, right, not diffs, diffs)


def random_bm_choices(
    ext: GerbeExtension,
    model: ArithmeticModel,
    rng: random.Random,
) -> BMChoices:
    """Seeded random perturbation of every choice the m_H recipe makes."""
    data = abelianized_data(ext)
    eab = data.extension
    dd = gerbe_dual(eab, model.mu)
    section = tuple(
        eab.fiber(g)[rng.randrange(len(eab.fiber(g)))] if g else 0
        for g in range(eab.quotient.order)
    )
    secs = local_sections(ext, model)
    splittings = {
        name: rng.randrange(len(lst)) for name, lst in secs.items() if lst
    }
    n_gens = len(sha(model, dd.dual, 1).generators)
    b_shifts = tuple(Cochain.random(dd.dual, 0, rng) for _ in range(n_gens))
    h2mu = cohomology(model.mu, 2)
    gamma_shifts = tuple(random_cocycle(h2mu, rng) for _ in range(n_gens))
    return BMChoices(section, splittings, b_shifts, gamma_shifts)
