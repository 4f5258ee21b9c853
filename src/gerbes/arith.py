"""Finite stand-in for a number field: places, invariant maps, Sha kernels.

An :class:`ArithmeticModel` is a Galois group G, a cyclic coefficient
module mu (roots of unity with an optional character action), and a list
of places.  Each place is a decomposition subgroup D_v together with an
invariant map into Q/Z, specified by its values on the canonical
generators of H^2(D_v, mu).  The axioms:

  A1  each value's order divides its generator's order (inv_v is a
      homomorphism);
  A2  reciprocity: global H^2(G, mu) classes have invariant sum zero;
  A3  (optional) every cyclic subgroup of G lies in some D_v.

A2 is exactly what makes the Brauer-Manin sum independent of all choices,
and A3 is the Chebotarev-style completeness flag: with it, the computed
Sha is the kernel over all cyclic subgroups; an actual number field ranges
over all places, so faithfulness is the model author's responsibility.

The engine sees inv_v in one form only: with m the modulus of mu, the
row vector lambda_v on C^2(D_v, mu) with lambda_v . z == m inv_v([z])
(mod m) on cocycles (``ArithmeticModel.inv_functional``, memoized per
place), a combination of the rows of the local class matrix
(``CohomologyGroup.functional``).  It exists exactly when A1 holds at v.
``inv_eval``, and through it the A2 report, ``gerbe.local_pairing`` and
the m_H sum, evaluate lambda_v . z.

``check_axioms`` reports A2 per generator of the global H^2, once A1
holds.  The verdict alone (``axioms_hold``, ``require_axioms``) never
builds that group: A2 holds exactly when Phi = sum_v lambda_v o res_v
vanishes on Z^2(G, mu), which is one membership test of Phi in the row
span of d_2 mod m (``cochain.cocycle_annihilator``).  Phi is linear in
the invariant values, so ``search_inv_assignments`` checks A2 for every
assignment at once: the consistent ones form the subgroup that
``cochain.cocycle_relations`` spans, and only that subgroup is enumerated.

``sha`` gets a basis that does not depend on the order of the places from
the Hermite basis of its kernel lattice, which contains e Z^r for the lcm
e of the local orders; ``linalg.howell_relations`` gives that lattice mod
e and ``linalg.hermite_column_basis`` its unique Hermite basis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cochain import (
    Cochain,
    CohomologyGroup,
    cocycle_annihilator,
    cocycle_relations,
    cohomology,
    restriction,
    restriction_slots,
    solve_coboundary,
)
from .errors import GerbesError, InputError, ModelAxiomFailure, NotACocycle, SearchSpaceExceeded
from .finab import QmodZ
from .groups import FiniteGroup, Subgroup, cyclic_subgroups, memo
from .linalg import hermite_column_basis, howell_relations, smith_quotient, solve_column_basis
from .modules import GModule


@dataclass(frozen=True)
class Place:
    """A named place: decomposition subgroup plus invariant-map values.

    ``inv[i]`` is the image in Q/Z of the i-th canonical generator of
    H^2(D_v, mu restricted to D_v).
    """

    name: str
    subgroup: Subgroup
    inv: tuple[QmodZ, ...]


class ArithmeticModel:
    """G, mu, and places; caches all local cohomology it touches."""

    def __init__(
        self,
        group: FiniteGroup,
        mu: GModule,
        places: Sequence[Place],
        chebotarev_complete: bool = False,
    ) -> None:
        if mu.group is not group:
            raise InputError("mu must be a module over the model's Galois group")
        if not mu.is_cyclic or mu.rank == 0:
            raise InputError("mu must have a cyclic carrier Z/m with m >= 2")
        self.group = group
        self.mu = mu
        self.places = tuple(places)
        self.chebotarev_complete = bool(chebotarev_complete)
        self._memo: dict = {}
        names = [p.name for p in self.places]
        if len(set(names)) != len(names):
            raise InputError("place names must be distinct")
        for p in self.places:
            if p.subgroup.parent is not group:
                raise InputError(f"place {p.name!r} subgroup belongs to a different group")
            h2 = self.local_h2(p)
            if len(p.inv) != len(h2.factors):
                raise InputError(
                    f"place {p.name!r} assigns {len(p.inv)} invariant values, "
                    f"but H^2(D_v, mu) has {len(h2.factors)} generators"
                )

    def local_mu(self, place: Place) -> GModule:
        return self.mu.restrict(place.subgroup)

    def local_h2(self, place: Place) -> CohomologyGroup:
        return cohomology(self.local_mu(place), 2)

    @property
    def modulus(self) -> int:
        return self.mu.carrier.factors[0]

    def inv_functional(self, place: Place) -> np.ndarray:
        """lambda_v: the row vector on C^2(D_v, mu) with lambda_v . z == m inv_v([z]) (mod m).

        It is the one form in which the engine reads inv_v; A1 at the place
        is exactly the condition under which it exists.
        """
        return memo(self, place, _inv_functional, self, place)

    def inv_eval(self, place: Place, z: Cochain) -> QmodZ:
        """inv_v of a 2-cocycle on D_v with mu coefficients (linear in z)."""
        if not self.local_h2(place).is_cocycle(z):
            raise NotACocycle("cochain is not a 2-cocycle")
        m = self.modulus
        return QmodZ.make(int((self.inv_functional(place) * z.array.ravel() % m).sum() % m), m)

    def __repr__(self) -> str:
        return f"ArithmeticModel({self.group!r}, mu=Z/{self.modulus}, {len(self.places)} places)"


def _inv_functional(model: ArithmeticModel, place: Place) -> np.ndarray:
    h2 = model.local_h2(place)
    if any(d % v.den for d, v in zip(h2.factors, place.inv)):
        raise InputError(f"place {place.name!r} fails A1, so inv_v is not a map on H^2(D_v, mu)")
    m = model.modulus
    return h2.functional([v.num * (m // v.den) for v in place.inv], m)


@dataclass(frozen=True)
class A1Entry:
    place: str
    generator: int
    generator_order: int
    value: QmodZ
    ok: bool


@dataclass(frozen=True)
class A2Entry:
    generator: int
    contributions: tuple[tuple[str, QmodZ], ...]
    total: QmodZ
    ok: bool


@dataclass(frozen=True)
class A3Entry:
    checked: bool
    uncovered: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.checked or not self.uncovered


@dataclass(frozen=True)
class AxiomReport:
    a1: tuple[A1Entry, ...]
    a2: tuple[A2Entry, ...]
    a3: A3Entry

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.a1) and all(e.ok for e in self.a2) and self.a3.ok

    def summary(self) -> str:
        bad1 = [e for e in self.a1 if not e.ok]
        bad2 = [e for e in self.a2 if not e.ok]
        parts = []
        parts.append("A1 " + ("ok" if not bad1 else f"FAIL at {[(e.place, e.generator) for e in bad1]}"))
        parts.append(
            "A2 skipped" if bad1
            else "A2 " + ("ok" if not bad2 else f"FAIL at generators {[e.generator for e in bad2]}")
        )
        if self.a3.checked:
            parts.append("A3 " + ("ok" if self.a3.ok else f"FAIL, uncovered {list(self.a3.uncovered)}"))
        else:
            parts.append("A3 skipped")
        return "; ".join(parts)


def _a1_entries(model: ArithmeticModel) -> list[A1Entry]:
    return [
        A1Entry(p.name, i, d, val, d % val.order == 0)
        for p in model.places
        for i, (d, val) in enumerate(zip(model.local_h2(p).factors, p.inv))
    ]


def _a3_entry(model: ArithmeticModel) -> A3Entry:
    if not model.chebotarev_complete:
        return A3Entry(False, ())
    uncovered = [
        sub.elements
        for sub in cyclic_subgroups(model.group)
        if not any(p.subgroup.contains(sub) for p in model.places)
    ]
    return A3Entry(True, tuple(uncovered))


def check_axioms(model: ArithmeticModel) -> AxiomReport:
    """Evaluate A1, A2, A3; failures become report entries, not exceptions.

    A2 is evaluated only when A1 holds, since inv_v is a map on H^2(D_v, mu)
    exactly then; otherwise the report has no A2 entries.
    """
    a1 = _a1_entries(model)
    a2 = []
    global_reps = cohomology(model.mu, 2).representatives if all(e.ok for e in a1) else ()
    for j, rep in enumerate(global_reps):
        contributions = []
        total = QmodZ.zero()
        for p in model.places:
            res = restriction(rep, p.subgroup)
            val = model.inv_eval(p, res)
            contributions.append((p.name, val))
            total = total + val
        a2.append(A2Entry(j, tuple(contributions), total, total.is_zero()))
    return AxiomReport(tuple(a1), tuple(a2), _a3_entry(model))


def reciprocity_certificate(model: ArithmeticModel) -> np.ndarray | None:
    """A2 without the global H^2; A1 must hold.

    Returns y with y . d_2^S == Phi (mod m) (see the module docstring and
    ``cochain.cocycle_annihilator``), or None when A2 fails.
    """
    phi = np.zeros((model.group.order - 1) ** 2, dtype=np.int64)
    for p in model.places:
        phi[restriction_slots(p.subgroup, 2)] += model.inv_functional(p)
    return cocycle_annihilator(model.mu, 2, phi)


def axioms_hold(model: ArithmeticModel) -> bool:
    """Whether A1, A2 and A3 hold, with A2 as ``reciprocity_certificate``."""
    return (
        all(e.ok for e in _a1_entries(model))
        and _a3_entry(model).ok
        and reciprocity_certificate(model) is not None
    )


def require_axioms(model: ArithmeticModel) -> None:
    """Raise ModelAxiomFailure, carrying the ``check_axioms`` report, unless the axioms hold."""
    if not axioms_hold(model):
        raise ModelAxiomFailure(check_axioms(model))


@dataclass(frozen=True)
class ShaGenerator:
    """One generator of Sha with its certificates of local triviality."""

    order: int
    ambient_coords: tuple[int, ...]
    cochain: Cochain
    local_primitives: tuple[tuple[str, Cochain], ...]


@dataclass(frozen=True)
class ShaResult:
    degree: int
    ambient: CohomologyGroup
    factors: tuple[int, ...]
    generators: tuple[ShaGenerator, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.factors:
            n *= d
        return n


def sha(model: ArithmeticModel, module: GModule, degree: int) -> ShaResult:
    """ker( H^degree(G, M) -> prod_v H^degree(D_v, M) ) with certificates.

    Computed by integer linear algebra on class coordinates.  With e the
    lcm of the local orders, the restriction rows are scaled to Z/e, and
    the classes x in Z^r with rows . x == 0 (mod e) form a lattice that
    contains e Z^r.  Mod e it is spanned by ``howell_relations`` of
    [rows^T | I], and its Hermite basis, which is unique, starts from the
    rows of that Howell form (``hermite_column_basis``).  So the output
    does not depend on the order in which places are listed.
    """
    return memo(model, (module, degree), _sha, model, module, degree)


def _sha(model: ArithmeticModel, module: GModule, degree: int) -> ShaResult:
    if degree not in (1, 2):
        raise InputError("sha is computed in degrees 1 and 2")
    if module.group is not model.group:
        raise InputError("module must live over the model's Galois group")
    amb = cohomology(module, degree)
    r = len(amb.factors)
    if r == 0:
        return ShaResult(degree, amb, (), ())

    rows: list[list[int]] = []
    moduli: list[int] = []
    for p in model.places:
        loc = cohomology(module.restrict(p.subgroup), degree)
        res_coords = [
            loc.reduce(restriction(amb.representatives[j], p.subgroup)) for j in range(r)
        ]
        for i, d in enumerate(loc.factors):
            rows.append([int(res_coords[j][i]) for j in range(r)])
            moduli.append(d)

    e = math.lcm(*moduli)
    scale = e // np.asarray(moduli, dtype=np.int64)
    scaled = np.asarray(rows, dtype=np.int64).reshape(len(rows), r) * scale[:, None]
    eye = np.identity(r, dtype=object)
    basis = hermite_column_basis(howell_relations(scaled.T, eye, e), e)

    rel_cols = [solve_column_basis(basis, h * eye[j]) for j, h in enumerate(amb.factors)]
    factors, coeffs, _ = smith_quotient(np.array(rel_cols, dtype=object).T, math.lcm(*amb.factors))

    gens = []
    for order, vec in zip(factors, (np.array(basis, dtype=object).T @ coeffs).T):
        coords = tuple(v % h for v, h in zip(vec, amb.factors))
        z = amb.cochain_from_coords(coords)
        prims = []
        for p in model.places:
            resz = restriction(z, p.subgroup)
            solved = solve_coboundary(resz)
            if solved.primitive is None:
                raise GerbesError(
                    f"sha generator is not locally trivial at place {p.name!r}"
                )
            prims.append((p.name, solved.primitive))
        gens.append(ShaGenerator(order, coords, z, tuple(prims)))
    return ShaResult(degree, amb, factors, tuple(gens))


def search_inv_assignments(
    group: FiniteGroup,
    mu: GModule,
    subgroups: Sequence[Subgroup],
    bound: int = 1_000_000,
    chebotarev_complete: bool = False,
) -> list[ArithmeticModel]:
    """All A1+A2-consistent invariant assignments on the given places.

    Each generator of H^2(D_v, mu) ranges over the cyclic subgroup of Q/Z
    of its own order d, as a/d with 0 <= a < d; the assignments are
    listed in lexicographic order of their numerators.  A2 is linear in
    them: with m the modulus of mu, slot s gives Psi_s, the functional
    with weight m/d_s on its generator, which over Z/m is row s of the
    local class matrix, pulled back to C^2(G, mu), and an
    assignment passes exactly when sum_s a_s Psi_s vanishes on the global
    cocycles.  Those (a_s m/d_s) form the subgroup that
    ``cochain.cocycle_relations`` spans, which is enumerated instead of the
    whole product of ranges.  Raises SearchSpaceExceeded when that raw
    product passes ``bound``.
    """
    zero_model = ArithmeticModel(
        group,
        mu,
        [
            Place(f"v{i}", sub, tuple(QmodZ.zero() for _ in cohomology(mu.restrict(sub), 2).factors))
            for i, sub in enumerate(subgroups)
        ],
        chebotarev_complete=chebotarev_complete,
    )
    local = [zero_model.local_h2(p) for p in zero_model.places]
    orders = [d for h2 in local for d in h2.factors]
    if math.prod(orders) > bound:
        raise SearchSpaceExceeded(f"assignment space exceeds the bound {bound}")

    m = zero_model.modulus
    psi = np.zeros((len(orders), (group.order - 1) ** 2), dtype=np.int64)
    slot = 0
    for p, h2 in zip(zero_model.places, local):
        psi[slot : slot + len(h2.classes), restriction_slots(p.subgroup, 2)] = h2.classes
        slot += len(h2.classes)
    scale = np.asarray([m // d for d in orders], dtype=np.int64)
    rel = cocycle_relations(mu, 2, psi, np.diag(scale))
    # Each element of the span of Howell rows r_i with pivots g_i is
    # sum_i c_i r_i for exactly one c with 0 <= c_i < m / g_i.
    combos = list(itertools.product(*(range(m // int(r[np.flatnonzero(r)[0]])) for r in rel)))
    coeffs = np.asarray(combos, dtype=np.int64).reshape(len(combos), len(rel))
    models = []
    for combo in sorted(map(tuple, (coeffs @ rel % m // scale).tolist())):
        values = iter(QmodZ.make(a, d) for a, d in zip(combo, orders))
        places = [
            Place(p.name, p.subgroup, tuple(itertools.islice(values, len(p.inv))))
            for p in zero_model.places
        ]
        models.append(
            ArithmeticModel(group, mu, places, chebotarev_complete=chebotarev_complete)
        )
    return models
