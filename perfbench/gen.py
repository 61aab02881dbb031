"""Seeded input generators for the benchmark.

Written against the file formats only, so the program under test never
generates or vets its own inputs: genus and checkerboard colorability are
computed here from the face permutation phi = sigma . alpha of the
underlying 4-valent (or ribbon) map.
"""

from __future__ import annotations

import random


def _faces(sigma: list[int], alpha: list[int]) -> list[list[int]]:
    seen = [False] * len(sigma)
    out = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        walk, h = [], start
        while not seen[h]:
            seen[h] = True
            walk.append(h)
            h = sigma[alpha[h]]
        out.append(walk)
    return out


def _connected(sigma: list[int], alpha: list[int]) -> bool:
    stack, reached = [0], {0}
    while stack:
        h = stack.pop()
        for nxt in (sigma[h], alpha[h]):
            if nxt not in reached:
                reached.add(nxt)
                stack.append(nxt)
    return len(reached) == len(sigma)


def _two_colorable(faces: list[list[int]], alpha: list[int]) -> bool:
    face_of = {h: i for i, walk in enumerate(faces) for h in walk}
    color = {0: 0}
    stack = [0]
    while stack:
        f = stack.pop()
        for h in faces[f]:
            nb = face_of[alpha[h]]
            if nb not in color:
                color[nb] = 1 - color[f]
                stack.append(nb)
            elif color[nb] == color[f]:
                return False
    return True


def alternating_wiring(rng: random.Random, c: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Arcs (tail, head) of a random alternating wiring of c crossings.

    Over-strands use slots {0, 2}.  Each crossing draws the over-strand's exit
    slot and a sign that puts the under-strand's exit one slot either way;
    every over exit then feeds an under entry and every under exit an over
    entry through two random bijections, which is what alternating means.
    """
    over_out = [rng.choice((0, 2)) for _ in range(c)]
    under_out = [(o + rng.choice((1, -1))) % 4 for o in over_out]
    to_under = rng.sample(range(c), c)
    to_over = rng.sample(range(c), c)
    arcs = [((i, over_out[i]), (to_under[i], (under_out[to_under[i]] + 2) % 4)) for i in range(c)]
    arcs += [((i, under_out[i]), (to_over[i], (over_out[to_over[i]] + 2) % 4)) for i in range(c)]
    return arcs


def _diagram_map(c: int, arcs) -> tuple[list[int], list[int]]:
    """(sigma, alpha) of the 4-valent map: crossing i owns half-edges 4i..4i+3
    in counterclockwise slot order, and each arc pairs its two slots."""
    sigma = [4 * (h // 4) + (h + 1) % 4 for h in range(4 * c)]
    alpha = [0] * (4 * c)
    for (tc, ts), (hc, hs) in arcs:
        t, h = 4 * tc + ts, 4 * hc + hs
        alpha[t], alpha[h] = h, t
    return sigma, alpha


def torus_diagram(rng: random.Random, c: int) -> tuple[str, int]:
    """An alternating, checkerboard-colorable diagram on the torus, by
    rejection; returns its .sld text and the number of draws it took."""
    draws = 0
    while True:
        draws += 1
        arcs = alternating_wiring(rng, c)
        sigma, alpha = _diagram_map(c, arcs)
        if not _connected(sigma, alpha):
            continue
        faces = _faces(sigma, alpha)
        if (2 + c - len(faces)) != 2:  # V - E + F = c - 2c + F = 2 - 2g
            continue
        if not _two_colorable(faces, alpha):
            continue
        lines = ["format sld 1", f"crossings {c}"]
        lines += [f"arc {a} {t[0]}.{t[1]} {h[0]}.{h[1]}" for a, (t, h) in enumerate(arcs)]
        return "\n".join(lines) + "\n", draws


def ribbon_map(rng: random.Random, edges: int, genus: int) -> tuple[str, int]:
    """A connected ribbon map with the given edge count and genus, by
    rejection; returns its .rg text and the number of draws it took."""
    n_half = 2 * edges
    alpha = [h ^ 1 for h in range(n_half)]
    draws = 0
    while True:
        draws += 1
        v = rng.randint(1, edges // 2 + 1)
        at = [[] for _ in range(v)]
        for h in range(n_half):
            at[rng.randrange(v)].append(h)
        if any(not rot for rot in at):
            continue
        for rot in at:
            rng.shuffle(rot)
        sigma = [0] * n_half
        for rot in at:
            for i, h in enumerate(rot):
                sigma[h] = rot[(i + 1) % len(rot)]
        if not _connected(sigma, alpha):
            continue
        if 2 - v + edges - len(_faces(sigma, alpha)) != 2 * genus:
            continue
        lines = ["format rg 1"]
        lines += [" ".join(["vertex", str(i), *map(str, rot)]) for i, rot in enumerate(at)]
        lines += [f"edge {e} {2 * e} {2 * e + 1}" for e in range(edges)]
        return "\n".join(lines) + "\n", draws


# -- reading the formats back, for the output checks ---------------------------


def _lines(text: str) -> list[list[str]]:
    return [line.split("#", 1)[0].split() for line in text.splitlines() if line.split("#", 1)[0].strip()]


def sld_genus(text: str) -> int:
    """Genus of a diagram's surface.  `over` lines only relabel a crossing's
    slots cyclically, which leaves the map unchanged up to isomorphism."""
    arcs = [
        tuple(tuple(int(x) for x in end.split(".")) for end in row[2:4])
        for row in _lines(text)
        if row[0] == "arc"
    ]
    c = len(arcs) // 2
    if c == 0:
        return 0
    return (2 + c - len(_faces(*_diagram_map(c, arcs)))) // 2


def rg_stats(text: str) -> tuple[int, list[tuple[int, int]], int, int]:
    """(V, edge endpoint pairs, F, genus) of a ribbon map."""
    rows = _lines(text)
    rotations = [[int(h) for h in row[2:]] for row in rows if row[0] == "vertex"]
    edges = [(int(row[2]), int(row[3])) for row in rows if row[0] == "edge"]
    n_half = 2 * len(edges)
    sigma, alpha, vertex_of = [0] * n_half, [0] * n_half, [0] * n_half
    for v, rot in enumerate(rotations):
        for i, h in enumerate(rot):
            sigma[h] = rot[(i + 1) % len(rot)]
            vertex_of[h] = v
    for t, h in edges:
        alpha[t], alpha[h] = h, t
    F = len(_faces(sigma, alpha)) if edges else 1
    V = len(rotations)
    return V, [(vertex_of[t], vertex_of[h]) for t, h in edges], F, (2 - V + len(edges) - F) // 2


def rank_polynomial(vertices: int, edges: list[tuple[int, int]]) -> dict[tuple[int, int], int]:
    """Whitney rank polynomial of a connected graph as {(c(H) - 1, nullity(H)):
    count}, summed over all 2^E edge subsets H."""
    out: dict[tuple[int, int], int] = {}
    for mask in range(1 << len(edges)):
        parent = list(range(vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps, size = vertices, 0
        for i, (a, b) in enumerate(edges):
            if mask >> i & 1:
                size += 1
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    comps -= 1
        key = (comps - 1, size - vertices + comps)
        out[key] = out.get(key, 0) + 1
    return out
