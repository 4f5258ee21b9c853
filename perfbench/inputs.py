"""Seeded input generation for the benchmark, in plain Python.

Group tables, automorphisms and documents are built here without the
package under test, so the program receives only finished documents.
Every element set is indexed with the identity at 0, as the document
format requires.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Hashable, Sequence

Table = list[list[int]]


def closure_table(gens: Sequence[Hashable], mul: Callable, identity: Hashable) -> Table:
    """Multiplication table of the group generated by ``gens``.

    Elements are numbered in breadth-first order from the identity, so the
    numbering is fixed by the generator list.
    """
    elements = [identity]
    index = {identity: 0}
    frontier = [identity]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in index:
                    index[y] = len(elements)
                    elements.append(y)
                    nxt.append(y)
        frontier = nxt
    return [[index[mul(a, b)] for b in elements] for a in elements]


def perm_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[q[i]] for i in range(len(p)))


def cyclic_table(n: int) -> Table:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def product_table(a: Table, b: Table) -> Table:
    nb = len(b)
    return [
        [a[x1][y1] * nb + b[x2][y2] for y1 in range(len(a)) for y2 in range(nb)]
        for x1 in range(len(a))
        for x2 in range(nb)
    ]


def s3_table() -> Table:
    return closure_table([(1, 2, 0), (1, 0, 2)], perm_mul, (0, 1, 2))


def d4_table() -> Table:
    return closure_table([(1, 2, 3, 0), (0, 3, 2, 1)], perm_mul, (0, 1, 2, 3))


_UNIT = {
    ("1", "1"): (1, "1"), ("1", "i"): (1, "i"), ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
    ("i", "1"): (1, "i"), ("i", "i"): (-1, "1"), ("i", "j"): (1, "k"), ("i", "k"): (-1, "j"),
    ("j", "1"): (1, "j"), ("j", "i"): (-1, "k"), ("j", "j"): (-1, "1"), ("j", "k"): (1, "i"),
    ("k", "1"): (1, "k"), ("k", "i"): (1, "j"), ("k", "j"): (-1, "i"), ("k", "k"): (-1, "1"),
}


def _quat_mul(p: tuple[int, str], q: tuple[int, str]) -> tuple[int, str]:
    sign, unit = _UNIT[(p[1], q[1])]
    return (p[0] * q[0] * sign, unit)


def q8_table() -> Table:
    return closure_table([(1, "i"), (1, "j")], _quat_mul, (1, "1"))


BANDS = {"S3": s3_table, "Q8": q8_table, "D4": d4_table}
GALOIS = {
    "C8": lambda: cyclic_table(8),
    "D4": d4_table,
    "C2xC4": lambda: product_table(cyclic_table(2), cyclic_table(4)),
}


# -- small exact group helpers -------------------------------------------------


def inverses(table: Table) -> list[int]:
    return [row.index(0) for row in table]


def generating_set(table: Table) -> list[int]:
    """Greedy generators: repeatedly add the smallest element not yet spanned."""
    n = len(table)
    gens: list[int] = []
    span = {0}
    while len(span) < n:
        gens.append(min(x for x in range(n) if x not in span))
        span = _span(table, gens)
    return gens


def _span(table: Table, gens: Sequence[int]) -> set[int]:
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = table[x][g]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def spanning_steps(table: Table, gens: Sequence[int]) -> list[tuple[int, int, int]]:
    """Spanning-tree steps (element, parent, generator index) in BFS order."""
    steps = []
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, g in enumerate(gens):
                y = table[x][g]
                if y not in seen:
                    seen.add(y)
                    steps.append((y, x, gi))
                    nxt.append(y)
        frontier = nxt
    return steps


def homomorphisms(src: Table, dst_mul: Callable, dst_one: Hashable, dst_elems: Sequence[Hashable]) -> list[list]:
    """All homomorphisms from the table group ``src`` into a target group.

    The target is given by its multiplication, identity and element list;
    each result lists the image of every source element.
    """
    gens = generating_set(src)
    steps = spanning_steps(src, gens)
    n = len(src)
    out = []
    for images in itertools.product(dst_elems, repeat=len(gens)):
        im: list = [dst_one] * n
        for y, x, gi in steps:
            im[y] = dst_mul(im[x], images[gi])
        if all(im[src[a][b]] == dst_mul(im[a], im[b]) for a in range(n) for b in range(n)):
            out.append(im)
    return out


def automorphisms(table: Table) -> list[tuple[int, ...]]:
    """Aut(H) as permutations of H's elements, in lexicographic order."""
    n = len(table)
    gens = generating_set(table)
    steps = spanning_steps(table, gens)
    autos = []
    for images in itertools.product(range(n), repeat=len(gens)):
        im = [0] * n
        for y, x, gi in steps:
            im[y] = table[im[x]][images[gi]]
        if len(set(im)) != n:
            continue
        if all(im[table[a][b]] == table[im[a]][im[b]] for a in range(n) for b in range(n)):
            autos.append(tuple(im))
    return sorted(autos)


# -- documents -----------------------------------------------------------------


def semidirect(h: Table, g: Table, action: Sequence[Sequence[int]]) -> tuple[Table, list[int], list[int]]:
    """H x| G with ``action[g]`` an automorphism of H; element (h, g) -> h*|G|+g."""
    nh, ng = len(h), len(g)
    t = [
        [h[h1][action[g1][h2]] * ng + g[g1][g2] for h2 in range(nh) for g2 in range(ng)]
        for h1 in range(nh)
        for g1 in range(ng)
    ]
    proj = [x % ng for x in range(nh * ng)]
    inj = [x * ng for x in range(nh)]
    return t, proj, inj


def relabel(t: Table, proj: list[int], inj: list[int], rng: random.Random) -> tuple[Table, list[int], list[int]]:
    """Renumber the non-identity elements of the total group at random."""
    n = len(t)
    rest = list(range(1, n))
    rng.shuffle(rest)
    new = [0] + rest  # old index -> new index
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[new[a]][new[b]] = new[t[a][b]]
    new_proj = [0] * n
    for a in range(n):
        new_proj[new[a]] = proj[a]
    return out, new_proj, [new[x] for x in inj]


def gerbe_document(
    g: Table, h: Table, t: Table, proj: list[int], inj: list[int],
    modulus: int, character: dict[int, int], places: list[tuple[str, list[int], list[str]]],
) -> dict:
    return {
        "groups": {"G": {"table": g}, "H": {"table": h}, "T": {"table": t}},
        "extensions": {
            "E": {"total": "T", "quotient": "G", "kernel": "H",
                  "projection": proj, "injection": inj},
        },
        "model": {
            "group": "G",
            "mu": {"modulus": modulus, "character": {str(k): v for k, v in character.items()}},
            "places": [{"name": name, "subgroup": sub, "inv": inv} for name, sub, inv in places],
            "chebotarev_complete": False,
        },
    }


def central_cyclic_extension(n: int) -> tuple[Table, Table, Table, list[int], list[int]]:
    """1 -> Z/4 -> T -> C_n -> 1 with cocycle 2*[i + j >= n]; (a, i) -> a*n+i."""
    g = cyclic_table(n)
    h = cyclic_table(4)
    t = [
        [((a + b + 2 * (i + j >= n)) % 4) * n + (i + j) % n for b in range(4) for j in range(n)]
        for a in range(4)
        for i in range(n)
    ]
    proj = [x % n for x in range(4 * n)]
    inj = [a * n for a in range(4)]
    return g, h, t, proj, inj
