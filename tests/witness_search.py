"""Witness searches: the scans that found the frozen regression fixtures.

``test_search.py`` reruns them, so the discovery stays reproducible.  Both searches are deterministic: candidates are
enumerated in a fixed order and the first witness wins.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from gerbes.arith import ArithmeticModel, Place, ShaResult, search_inv_assignments, sha
from gerbes.cochain import Cochain, cohomology, restriction
from gerbes.errors import GerbesError, InputError, NotLocallyNeutral
from gerbes.finab import FinAb, QmodZ
from gerbes.gerbe import BMFunctional, GerbeExtension, brauer_manin, extension_from_cocycle
from gerbes.groups import Subgroup, cyclic_group, klein_four_group
from gerbes.modules import GModule, cyclic_module, trivial_module


def _invariant_factor_chains(max_order: int) -> list[tuple[int, ...]]:
    """All invariant-factor tuples with product <= max_order, by (order, chain)."""
    out: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], product: int) -> None:
        start = chain[-1] if chain else 2
        d = start
        while product * d <= max_order:
            if not chain or d % chain[-1] == 0:
                out.append(chain + (d,))
                extend(chain + (d,), product * d)
            d += 1

    extend((), 1)
    return sorted(out, key=lambda c: (math.prod(c), c))


def _endomorphism_matrices(carrier: FinAb) -> Iterator[tuple[tuple[int, ...], ...]]:
    k = carrier.rank
    ranges = [range(carrier.factors[i]) for i in range(k) for _ in range(k)]
    for flat in itertools.product(*ranges):
        yield tuple(tuple(flat[i * k + j] for j in range(k)) for i in range(k))


def _involution_automorphisms(carrier: FinAb) -> list[np.ndarray]:
    """All automorphism matrices squaring to the identity on the carrier:
    exactly the matrices by which the generator of C2 may act."""
    c2 = cyclic_group(2)
    out = []
    for mat in _endomorphism_matrices(carrier):
        try:
            out.append(GModule(c2, carrier, {1: mat}).action[1])
        except InputError:
            continue
    return out


@dataclass(frozen=True)
class ShaWitness:
    module: GModule
    model: ArithmeticModel
    result: ShaResult


def find_sha_module_witness(max_carrier_order: int = 16) -> ShaWitness:
    """First Klein-four module (order <= bound) with Sha^1 != 0 over all
    cyclic places.

    Scans carriers by (order, invariant factors) and commuting involution
    pairs in lexicographic matrix order; the designated witness is the
    first hit, frozen as a regression fixture by the tests.
    """
    v4 = klein_four_group()
    mu = cyclic_module(v4, 2)
    subs = [Subgroup(v4, e) for e in ((0, 1), (0, 2), (0, 3))]
    places = []
    for i, sub in enumerate(subs):
        n = len(cohomology(mu.restrict(sub), 2).factors)
        places.append(Place(f"c{i}", sub, tuple(QmodZ.zero() for _ in range(n))))
    model = ArithmeticModel(v4, mu, places, chebotarev_complete=True)
    for chain in _invariant_factor_chains(max_carrier_order):
        carrier = FinAb(chain)
        invs = _involution_automorphisms(carrier)
        for p1, p2 in itertools.product(invs, repeat=2):
            try:
                module = GModule(v4, carrier, {1: p1, 2: p2, 3: p1 @ p2})
            except GerbesError:
                continue
            result = sha(model, module, 1)
            if result.factors:
                return ShaWitness(module, model, result)
    raise GerbesError(f"no Sha witness of order <= {max_carrier_order} exists")


@dataclass(frozen=True)
class MHWitness:
    extension: GerbeExtension
    model: ArithmeticModel
    functional: BMFunctional


def find_mh_witness(max_kernel_order: int = 8, assignment_bound: int = 4096) -> MHWitness:
    """First (extension, model) pair over C4 with a nonzero m_H value.

    The scan runs over central kernels Z/m_A, coefficient moduli m_mu with
    m_A | m_mu, characters of C4 into the units mod m_mu, nonzero locally
    trivial extension classes, and all reciprocity-consistent invariant
    assignments on the index-two and trivial places.
    """
    c4 = cyclic_group(4)
    half = Subgroup(c4, (0, 2))
    triv = Subgroup.trivial(c4)
    units = {m: [u for u in range(1, m) if math.gcd(u, m) == 1] for m in (4, 8)}
    for m_a in (2, 4, 8):
        if m_a > max_kernel_order:
            break
        a_mod = trivial_module(c4, (m_a,))
        for m_mu in (4, 8):
            if m_mu % m_a:
                continue
            for u in units[m_mu]:
                if pow(u, 4, m_mu) != 1:
                    continue
                chi = {1: u, 2: u * u % m_mu, 3: pow(u, 3, m_mu)}
                mu = cyclic_module(c4, m_mu, chi)
                models = search_inv_assignments(
                    c4, mu, [half, triv], bound=assignment_bound
                )
                locally_trivial = _locally_trivial_classes(a_mod, [half, triv])
                for z in locally_trivial:
                    ext = extension_from_cocycle(z)
                    for model in models:
                        try:
                            functional = brauer_manin(ext, model)
                        except NotLocallyNeutral:
                            continue
                        if not functional.is_zero():
                            return MHWitness(ext, model, functional)
    raise GerbesError("no m_H witness found in the scanned family")


def _locally_trivial_classes(module: GModule, subs: Sequence[Subgroup]) -> list[Cochain]:
    """Nonzero H^2 classes restricting to zero on every given subgroup."""
    h2 = cohomology(module, 2)
    out = []
    for coords in itertools.product(*(range(d) for d in h2.factors)):
        if not any(coords):
            continue
        z = h2.cochain_from_coords(coords)
        ok = True
        for sub in subs:
            loc = cohomology(module.restrict(sub), 2)
            if any(loc.reduce(restriction(z, sub))):
                ok = False
                break
        if ok:
            out.append(z)
    return out
