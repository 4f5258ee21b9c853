"""Independent brute-force answers for the benchmark's correctness gate.

Nothing here imports the package under test.  Each function works on the
raw tables of a generated or shipped document and returns only values that
do not depend on a choice of basis: orders, invariant factors and counts.

* ``sha1_of_dual`` enumerates crossed homomorphisms G -> Hom(H, Z/m) and
  reads Sha^1 off the locally trivial ones.
* ``splitting_counts`` counts homomorphic sections over each place.
* ``tate_h0_cyclic`` is the closed form H^2(C_n, M) = M^G / N.M for a
  cyclic coefficient module Z/m with a character.
"""

from __future__ import annotations

import itertools

from inputs import Table, spanning_steps, generating_set, inverses

Vec = tuple[int, ...]


def _homs_to_cyclic(h: Table, m: int) -> list[Vec]:
    """Every homomorphism H -> Z/m, as its tuple of values on H."""
    n = len(h)
    gens = generating_set(h)
    steps = spanning_steps(h, gens)
    out = []
    for images in itertools.product(range(m), repeat=len(gens)):
        f = [0] * n
        for y, x, gi in steps:
            f[y] = (f[x] + images[gi]) % m
        if all(f[h[a][b]] == (f[a] + f[b]) % m for a in range(n) for b in range(n)):
            out.append(tuple(f))
    return out


class DualModule:
    """Hom(H, Z/m) = Hom(H^ab, mu) with (g.f)(x) = chi(g) f(g^-1 . x)."""

    def __init__(self, doc: dict) -> None:
        groups = doc["groups"]
        ext = doc["extensions"]["E"]
        model = doc["model"]
        self.g: Table = groups[ext["quotient"]]["table"]
        h: Table = groups[ext["kernel"]]["table"]
        t: Table = groups[ext["total"]]["table"]
        proj: list[int] = ext["projection"]
        inj: list[int] = ext["injection"]
        self.m = int(model["mu"]["modulus"])
        chars = {int(k): int(v) for k, v in model["mu"].get("character", {}).items()}
        ng = len(self.g)
        self.chi = [chars.get(x, 1) % self.m for x in range(ng)]
        self.elements = _homs_to_cyclic(h, self.m)
        self.zero = self.elements[0]
        pull = {gamma: x for x, gamma in enumerate(inj)}
        t_inv = inverses(t)
        g_inv = inverses(self.g)
        lift = [proj.index(x) for x in range(ng)]
        # conj[x][y] = lift(x) . y . lift(x)^-1 inside H.
        conj = [
            [pull[t[t[lift[x]][inj[y]]][t_inv[lift[x]]]] for y in range(len(h))]
            for x in range(ng)
        ]
        index = {f: i for i, f in enumerate(self.elements)}
        self.act = [
            [
                index[tuple(self.chi[x] * f[conj[g_inv[x]][y]] % self.m for y in range(len(h)))]
                for f in self.elements
            ]
            for x in range(ng)
        ]
        self.index = index

    def add(self, a: Vec, b: Vec) -> Vec:
        return tuple((x + y) % self.m for x, y in zip(a, b))

    def neg(self, a: Vec) -> Vec:
        return tuple(-x % self.m for x in a)

    def apply(self, x: int, f: Vec) -> Vec:
        return self.elements[self.act[x][self.index[f]]]


def _crossed_homs(mod: DualModule) -> list[tuple[Vec, ...]]:
    g = mod.g
    n = len(g)
    gens = generating_set(g)
    steps = spanning_steps(g, gens)
    out = []
    for images in itertools.product(mod.elements, repeat=len(gens)):
        f: list[Vec] = [mod.zero] * n
        for y, x, gi in steps:
            f[y] = mod.add(f[x], mod.apply(x, images[gi]))
        if all(
            f[g[a][b]] == mod.add(f[a], mod.apply(a, f[b])) for a in range(n) for b in range(n)
        ):
            out.append(tuple(f))
    return out


def _coboundaries(mod: DualModule, elements: list[int]) -> set[tuple[Vec, ...]]:
    return {
        tuple(mod.add(mod.apply(x, v), mod.neg(v)) for x in elements) for v in mod.elements
    }


def invariant_factors(members: list, sub: set, mul) -> list[int]:
    """Invariant factors (ascending, each dividing the next) of members/sub.

    ``mul(k, f)`` multiplies a member by an integer.  The number of cyclic
    factors of order >= p^k is log_p(|A[p^k]| / |A[p^(k-1)]|), where A[d]
    is the set of classes killed by d.
    """
    size = len(sub)

    def killed(d: int) -> int:
        return sum(1 for f in members if mul(d, f) in sub) // size

    at_least: dict[int, list[int]] = {}
    n, p = len(members) // size, 2
    while n > 1:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            counts, prev = [], 1
            for k in range(1, e + 1):
                cur = killed(p**k)
                counts.append(_log(cur // prev, p))
                prev = cur
            at_least[p] = counts
        p += 1
    width = max((c[0] for c in at_least.values()), default=0)
    return [
        _prod(p ** sum(1 for c in counts if c >= i) for p, counts in at_least.items())
        for i in range(width, 0, -1)
    ]


def _log(x: int, p: int) -> int:
    k = 0
    while x > 1:
        x //= p
        k += 1
    return k


def _prod(xs) -> int:
    out = 1
    for x in xs:
        out *= x
    return out


def sha1_of_dual(doc: dict) -> tuple[list[int], list[int]]:
    """(H^1(G, M), Sha^1(G, M)) invariant factors for M = Hom(H^ab, mu).

    Sha^1 is taken against the document's places: the classes whose
    restriction to every decomposition subgroup is a coboundary.
    """
    mod = DualModule(doc)
    everywhere = list(range(len(mod.g)))
    cocycles = _crossed_homs(mod)
    boundaries = _coboundaries(mod, everywhere)
    local = []
    for place in doc["model"]["places"]:
        sub = sorted(int(x) for x in place["subgroup"])
        local.append((sub, _coboundaries(mod, sub)))
    sha = [
        f for f in cocycles
        if all(tuple(f[x] for x in sub) in bounds for sub, bounds in local)
    ]

    def mul(k: int, f: tuple[Vec, ...]) -> tuple[Vec, ...]:
        return tuple(tuple(k * x % mod.m for x in v) for v in f)

    return invariant_factors(cocycles, boundaries, mul), invariant_factors(sha, boundaries, mul)


def splitting_counts(doc: dict) -> dict[str, int]:
    """Per place, the number of homomorphisms s: D_v -> T with proj(s(d)) = d."""
    groups = doc["groups"]
    ext = doc["extensions"]["E"]
    g: Table = groups[ext["quotient"]]["table"]
    t: Table = groups[ext["total"]]["table"]
    proj: list[int] = ext["projection"]
    fibers: dict[int, list[int]] = {}
    for gamma, x in enumerate(proj):
        fibers.setdefault(x, []).append(gamma)
    out = {}
    for place in doc["model"]["places"]:
        sub = sorted(int(x) for x in place["subgroup"])
        local = [[sub.index(g[a][b]) for b in sub] for a in sub]
        gens = generating_set(local)
        steps = spanning_steps(local, gens)
        count = 0
        for images in itertools.product(*(fibers[sub[x]] for x in gens)):
            s = [0] * len(sub)
            for y, x, gi in steps:
                s[y] = t[s[x]][images[gi]]
            if all(proj[s[a]] == sub[a] for a in range(len(sub))) and all(
                s[local[a][b]] == t[s[a]][s[b]]
                for a in range(len(sub)) for b in range(len(sub))
            ):
                count += 1
        out[place["name"]] = count
    return out


def tate_h0_cyclic(n: int, m: int, chi: list[int]) -> list[int]:
    """Invariant factors of H^2(C_n, Z/m(chi)) = M^G / N.M.

    ``chi[g]`` is the unit by which g acts; for a cyclic group the
    periodicity of cohomology makes this closed form exact.
    """
    fixed = [x for x in range(m) if all(c * x % m == x for c in chi[:n])]
    norms = {sum(c * x for c in chi[:n]) % m for x in range(m)}
    order = len(fixed) // len(norms)
    return [order] if order > 1 else []

