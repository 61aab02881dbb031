"""Combinatorial maps (ribbon graphs) on closed orientable surfaces.

A map is a rotation system: half-edges 0..2m-1, a permutation sigma whose
cycles are the counterclockwise half-edge orders at the vertices, and a
fixed-point-free involution alpha pairing half-edges into edges.  The
embedding surface is defined by the data; faces are the orbits of the face
permutation phi(h) = sigma(alpha(h)), and the genus comes from Euler's formula
V - E + F = 2 - 2g.  The dual has sigma* = phi^-1 and alpha* = alpha
(Lando-Zvonkin, Graphs on Surfaces and Their Applications, 2004), so that it
lies on the same oriented surface and the double dual, with sigma** = alpha
sigma alpha, is the alpha-conjugate of the map, isomorphic to it via alpha.

Each edge carries a designated tail half-edge, giving it a direction used
for 1-chains.  One model, the medial smoothing of _medial_items, gives a
spanning subgraph's integer numbers: walk_subgraphs for every subgraph in
walk_choices, shared with the state sum (a flat walk for subgraph_rows, a
frontier sweep for a large tally), and subgraph_numbers for one, whose k
decides trivial loops and parallel edges.  Every component count and class
partition goes through UndoableUnionFind, except the sweep's frontier
partitions, which are label tuples.  The rational homology module, which
traces boundaries by its own face walk, checks these integer routes.
"""

from __future__ import annotations

import itertools
import math
from functools import partial
from typing import Callable, Iterable, Sequence

from .errors import (
    DanglingHalfEdge,
    Disconnected,
    InputError,
    NegativeGenus,
    NonIntegerGenus,
    NotInvolution,
)


# perfbench/ reads these two oracle names from this module; they live in
# homology, which loads on first use
def __getattr__(name: str):
    if name in ("HomologyContext", "subgraph_profile"):
        from . import homology

        return getattr(homology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class CombinatorialMap:
    """Validated, immutable rotation system with cached faces and genus."""

    __slots__ = (
        "vertices",
        "alpha",
        "sigma",
        "edge_tails",
        "n_half",
        "vertex_of",
        "edge_of",
        "faces",
        "face_of",
        "genus",
    )

    def __init__(
        self,
        rotations: Iterable[Iterable[int]],
        pairing: Iterable[tuple[int, int]],
        orientations: Sequence[int] | None = None,
    ) -> None:
        rotations = [tuple(r) for r in rotations]
        pairing = [tuple(p) for p in pairing]

        seen: set[int] = set()
        for rot in rotations:
            for h in rot:
                if h in seen:
                    raise DanglingHalfEdge(f"half-edge {h} listed twice in rotations")
                seen.add(h)
        n_half = len(seen)
        if seen != set(range(n_half)):
            raise DanglingHalfEdge("half-edges must be dense integers 0..2m-1")
        if n_half % 2:
            raise NotInvolution("odd number of half-edges cannot be paired")

        alpha = [-1] * n_half
        for pair in pairing:
            if len(pair) != 2:
                raise NotInvolution(f"pairing entry {pair} is not a pair")
            a, b = pair
            if a == b:
                raise NotInvolution(f"half-edge {a} paired with itself")
            for h in (a, b):
                if not (0 <= h < n_half):
                    raise DanglingHalfEdge(f"half-edge {h} paired but not in any rotation")
                if alpha[h] != -1:
                    raise NotInvolution(f"half-edge {h} appears in two pairs")
            alpha[a], alpha[b] = b, a
        if -1 in alpha:
            raise DanglingHalfEdge(f"half-edge {alpha.index(-1)} has no pairing")

        if not rotations:
            raise Disconnected("a map needs at least one vertex")
        if n_half == 0 and len(rotations) > 1:
            raise Disconnected("multiple vertices with no edges")

        tails: list[int] = []
        if orientations is None:
            tails = [pair[0] for pair in pairing]
        else:
            tails = list(orientations)
            if len(tails) != len(pairing):
                raise InputError("one orientation entry per edge required")
            for e, t in enumerate(tails):
                if t not in pairing[e]:
                    raise InputError(f"tail {t} is not a half-edge of edge {e}")

        sigma = [-1] * n_half
        for rot in rotations:
            for i, h in enumerate(rot):
                sigma[h] = rot[(i + 1) % len(rot)]

        # connectivity over the group generated by sigma and alpha
        if n_half:
            if any(not rot for rot in rotations):
                raise Disconnected("isolated vertex in a map with edges")
            stack, reached = [0], {0}
            while stack:
                h = stack.pop()
                for nxt in (sigma[h], alpha[h]):
                    if nxt not in reached:
                        reached.add(nxt)
                        stack.append(nxt)
            if len(reached) != n_half:
                raise Disconnected("rotation system is not connected")

        # canonical vertex listing: orbits sorted by their least half-edge,
        # each cycle rotated to start at its least half-edge
        canon = []
        for rot in rotations:
            if rot:
                i = rot.index(min(rot))
                canon.append(rot[i:] + rot[:i])
            else:
                canon.append(rot)
        canon.sort(key=lambda r: r[0] if r else -1)

        vertex_of = [-1] * n_half
        for v, rot in enumerate(canon):
            for h in rot:
                vertex_of[h] = v
        edge_of = [-1] * n_half
        for e, pair in enumerate(pairing):
            edge_of[pair[0]] = e
            edge_of[pair[1]] = e

        object.__setattr__(self, "vertices", tuple(canon))
        object.__setattr__(self, "alpha", tuple(alpha))
        object.__setattr__(self, "sigma", tuple(sigma))
        object.__setattr__(self, "edge_tails", tuple(tails))
        object.__setattr__(self, "n_half", n_half)
        object.__setattr__(self, "vertex_of", tuple(vertex_of))
        object.__setattr__(self, "edge_of", tuple(edge_of))

        # faces: orbits of phi(h) = sigma(alpha(h)), found from starts in
        # increasing order, so each begins at its least half-edge and the
        # list is sorted by it
        if n_half == 0:
            orbit_list = [()]
        else:
            seen_f = [False] * n_half
            orbit_list = []
            for start in range(n_half):
                if seen_f[start]:
                    continue
                walk = []
                h = start
                while not seen_f[h]:
                    seen_f[h] = True
                    walk.append(h)
                    h = sigma[alpha[h]]
                orbit_list.append(tuple(walk))
        face_of = [-1] * n_half
        for idx, walk in enumerate(orbit_list):
            for h in walk:
                face_of[h] = idx
        object.__setattr__(self, "faces", tuple(orbit_list))
        object.__setattr__(self, "face_of", tuple(face_of))

        V, E, F = len(canon), n_half // 2, len(orbit_list)
        euler_defect = 2 - (V - E + F)
        if euler_defect % 2:
            raise NonIntegerGenus(f"V-E+F = {V - E + F} is odd")
        g = euler_defect // 2
        if g < 0:
            raise NegativeGenus(f"V-E+F = {V - E + F} exceeds 2 on a connected map")
        object.__setattr__(self, "genus", g)

    def __setattr__(self, name: str, value) -> None:  # pragma: no cover
        raise AttributeError("CombinatorialMap is immutable")

    # -- basic counts ------------------------------------------------------

    @property
    def V(self) -> int:
        return len(self.vertices)

    @property
    def E(self) -> int:
        return self.n_half // 2

    @property
    def F(self) -> int:
        return len(self.faces)

    @property
    def edge_ids(self) -> range:
        return range(self.E)

    # -- edge helpers -------------------------------------------------------

    def tail_half(self, e: int) -> int:
        return self.edge_tails[e]

    def head_half(self, e: int) -> int:
        return self.alpha[self.edge_tails[e]]

    def endpoints(self, e: int) -> tuple[int, int]:
        """(tail vertex, head vertex) of edge e."""
        t = self.edge_tails[e]
        return self.vertex_of[t], self.vertex_of[self.alpha[t]]

    def is_loop(self, e: int) -> bool:
        t, h = self.endpoints(e)
        return t == h

    # -- structure ------------------------------------------------------------

    def dual(self) -> "CombinatorialMap":
        """Dual map on the same surface: sigma* = phi^-1, alpha* = alpha.

        The dual's vertices are the faces, each orbit reversed; its faces
        are the vertex orbits of the original.  Edge ids and tail
        half-edges carry over unchanged.
        """
        pairing = [(self.edge_tails[e], self.alpha[self.edge_tails[e]]) for e in self.edge_ids]
        return CombinatorialMap([walk[::-1] for walk in self.faces], pairing, self.edge_tails)

    def reoriented(self, orientations: Sequence[int]) -> "CombinatorialMap":
        pairing = [(self.edge_tails[e], self.alpha[self.edge_tails[e]]) for e in self.edge_ids]
        return CombinatorialMap(self.vertices, pairing, orientations)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, CombinatorialMap)
            and self.vertices == other.vertices
            and self.alpha == other.alpha
            and self.edge_tails == other.edge_tails
            and self.edge_of == other.edge_of
        )

    def __hash__(self) -> int:
        return hash((self.vertices, self.alpha, self.edge_tails, self.edge_of))

    def __repr__(self) -> str:
        return f"CombinatorialMap(V={self.V}, E={self.E}, F={self.F}, g={self.genus})"

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        lines = ["format rg 1"]
        for v, rot in enumerate(self.vertices):
            lines.append(" ".join(["vertex", str(v), *map(str, rot)]))
        for e in self.edge_ids:
            lines.append(f"edge {e} {self.tail_half(e)} {self.head_half(e)}")
        return "\n".join(lines) + "\n"


dual = CombinatorialMap.dual


def format_lines(text: str, *names: str) -> tuple[str, list[tuple[str, list[str]]]]:
    """(name, lines) of a file in one of the line formats `names` ("sld" for
    diagrams, "rg" for maps): "#" starts a comment, comments and blank lines
    are dropped, the first line left must be the header `format <name> 1`,
    and each line after it is given as (line, its words)."""
    stripped = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
    lines = [(line, line.split()) for line in stripped if line]
    expected = " or ".join(f"'format {name} 1'" for name in names)
    if not lines:
        raise InputError(f"missing {expected} header")
    line, parts = lines[0]
    if parts not in [["format", name, "1"] for name in names]:
        raise InputError(f"expected {expected} header, got {line!r}")
    return parts[1], lines[1:]


def parse_map(text: str) -> CombinatorialMap:
    """Parse the "rg v1" line format: vertex rotations and edge pairings."""
    vert_rows: dict[int, tuple[int, ...]] = {}
    edge_rows: dict[int, tuple[int, int]] = {}
    for line, parts in format_lines(text, "rg")[1]:
        if parts[0] == "vertex":
            try:
                vid = int(parts[1])
                rot = tuple(int(p) for p in parts[2:])
            except (ValueError, IndexError) as exc:
                raise InputError(f"bad vertex line {line!r}") from exc
            if vid in vert_rows:
                raise InputError(f"duplicate vertex id {vid}")
            vert_rows[vid] = rot
        elif parts[0] == "edge":
            try:
                eid, tail, head = (int(p) for p in parts[1:4])
            except (ValueError, IndexError) as exc:
                raise InputError(f"bad edge line {line!r}") from exc
            if len(parts) != 4:
                raise InputError(f"bad edge line {line!r}")
            if eid in edge_rows:
                raise InputError(f"duplicate edge id {eid}")
            edge_rows[eid] = (tail, head)
        else:
            raise InputError(f"unknown directive {parts[0]!r}")
    if sorted(vert_rows) != list(range(len(vert_rows))):
        raise InputError("vertex ids must be dense 0..V-1")
    if sorted(edge_rows) != list(range(len(edge_rows))):
        raise InputError("edge ids must be dense 0..E-1")
    rotations = [vert_rows[v] for v in range(len(vert_rows))]
    pairing = [edge_rows[e] for e in range(len(edge_rows))]
    orientations = [edge_rows[e][0] for e in range(len(edge_rows))]
    return CombinatorialMap(rotations, pairing, orientations)


def delete_edge(m: CombinatorialMap, e: int) -> CombinatorialMap:
    """Map with edge e removed (half-edges relabeled densely, edge ids shifted)."""
    gone = {m.tail_half(e), m.head_half(e)}
    keep = [h for h in range(m.n_half) if h not in gone]
    relabel = {h: i for i, h in enumerate(keep)}
    rotations = [tuple(relabel[h] for h in rot if h not in gone) for rot in m.vertices]
    pairing = []
    orientations = []
    for f in m.edge_ids:
        if f == e:
            continue
        pairing.append((relabel[m.tail_half(f)], relabel[m.head_half(f)]))
        orientations.append(relabel[m.tail_half(f)])
    return CombinatorialMap(rotations, pairing, orientations)


def is_isomorphic(m1: CombinatorialMap, m2: CombinatorialMap) -> bool:
    """Orientation-preserving isomorphism of connected labeled maps.

    An isomorphism is a half-edge bijection commuting with both sigma and
    alpha; by connectivity it is determined by the image of one half-edge.
    """
    if (m1.n_half, m1.V, m1.F) != (m2.n_half, m2.V, m2.F):
        return False
    if m1.n_half == 0:
        return True
    for target in range(m2.n_half):
        image = {0: target}
        stack = [0]
        ok = True
        while stack and ok:
            h = stack.pop()
            for nxt, nxt_img in (
                (m1.sigma[h], m2.sigma[image[h]]),
                (m1.alpha[h], m2.alpha[image[h]]),
            ):
                if nxt in image:
                    if image[nxt] != nxt_img:
                        ok = False
                        break
                else:
                    image[nxt] = nxt_img
                    stack.append(nxt)
        if ok and len(set(image.values())) == m1.n_half:
            return True
    return False


# -- spanning subgraphs -----------------------------------------------------


class UndoableUnionFind:
    """Union-find over 0..n-1 whose unions can be undone, last first: union
    by size and no path compression, so undoing a union resets one parent
    (Westbrook-Tarjan, SIAM J. Comput. 1989).  It is the package's one
    union-find: the depth-first sums undo their unions, and the one-shot
    counts, class partitions and spanning forests keep theirs."""

    __slots__ = ("parent", "size")

    def __init__(self, n: int) -> None:
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        """The root of x's class."""
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def union(self, i: int, j: int) -> int:
        """Join the classes of i and j.  Returns the root hung below the
        other, which undo takes back, or -1 when they were one class."""
        parent = self.parent
        while parent[i] != i:
            i = parent[i]
        while parent[j] != j:
            j = parent[j]
        if i == j:
            return -1
        size = self.size
        if size[i] > size[j]:
            i, j = j, i
        parent[i] = j
        size[j] += size[i]
        return i

    def undo(self, child: int) -> None:
        """Take back the latest union still in force, given what it returned."""
        if child >= 0:
            self.size[self.parent[child]] -= self.size[child]
            self.parent[child] = child


def component_count(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """The number of classes of 0..n-1 once `pairs` are joined."""
    union = UndoableUnionFind(n).union
    for i, j in pairs:
        if union(i, j) >= 0:
            n -= 1
    return n


def smooth(ends: list[int], x1: int, y1: int, x2: int, y2: int) -> int:
    """Join curve end x1 to y1, then x2 to y2, where `ends` pairs each open
    end with the other end of its arc; the number of curves this closes.  A
    join of the two ends of one arc closes a curve; any other splices their
    partners, and leaves the joined ends' own entries for unsmooth."""
    closed = 0
    px, py = ends[x1], ends[y1]
    if px == y1:
        closed += 1
    else:
        ends[px], ends[py] = py, px
    px, py = ends[x2], ends[y2]
    if px == y2:
        closed += 1
    else:
        ends[px], ends[py] = py, px
    return closed


def unsmooth(ends: list[int], x1: int, y1: int, x2: int, y2: int) -> None:
    """Undo the latest smooth still in force, given the same ends.  Each end
    that a join spliced is restored from its joined partner, and a join that
    closed a curve changed nothing."""
    ends[ends[y2]], ends[ends[x2]] = y2, x2
    ends[ends[y1]], ends[ends[x1]] = y1, x1


def _component_count(m: CombinatorialMap, edges: Iterable[int]) -> int:
    return component_count(m.V, (m.endpoints(e) for e in edges))


def subgraph_numbers(m: CombinatorialMap, edges: Iterable[int]) -> tuple[int, int, int, int, int]:
    """(c, bc, s, s_perp, k) of the spanning subgraph H on `edges`: the
    walk_subgraphs leaf of H's choices, each edge's taken once; the oracle
    homology.subgraph_profile computes them with rational homology.

    c is the component count of H, c* that of E - H in the dual, and bc
    counts H's boundary circles, its isolated vertices included; the
    complement of H's neighborhood has the same boundary, so bc is also
    the boundary count of E - H in the dual.  Then
        s = 2c - (V - |H| + bc),   s_perp = 2c* - (F - |E - H| + bc),
        k = (|H| - V + c) - g - s/2 + s_perp/2.
    """
    choices, ends = _medial_items(m)
    chosen = set(edges)
    forests = (UndoableUnionFind(m.V), UndoableUnionFind(m.F))
    classes = [m.V, m.F]
    bc = int(m.E == 0)
    for e, pair in enumerate(choices):
        x1, y1, x2, y2, f, i, j = pair[e in chosen]
        bc += smooth(ends, x1, y1, x2, y2)
        if forests[f].union(i, j) >= 0:
            classes[f] -= 1
    return _subgraph_row(m, len(chosen), bc, *classes)


def _subgraph_row(
    m: CombinatorialMap, size: int, bc: int, c: int, c_star: int
) -> tuple[int, int, int, int, int]:
    """(c, bc, s, s_perp, k) of a spanning subgraph of m with `size` edges."""
    s = 2 * c - (m.V - size + bc)
    s_perp = 2 * c_star - (m.F - m.E + size + bc)
    return c, bc, s, s_perp, (size - m.V + c) - m.genus - s // 2 + s_perp // 2


def subgraph_rows(m: CombinatorialMap) -> list[tuple[int, int, int, int, int]]:
    """subgraph_numbers(m, H) of every spanning subgraph H, in mask order
    (bit e set means e in H): walk_subgraphs with a list sink."""
    rows: list[tuple[int, int, int, int, int]] = []
    walk_subgraphs(m, rows)
    return rows


def subgraph_tally(m: CombinatorialMap) -> dict[tuple[int, int, int, int, int], int]:
    """How many spanning subgraphs have each row of subgraph_rows:
    walk_subgraphs with a tally sink."""
    tally: dict[tuple[int, int, int, int, int], int] = {}
    walk_subgraphs(m, tally)
    return tally


def walk_subgraphs(m: CombinatorialMap, sink: dict | list) -> None:
    """subgraph_numbers(m, H) of every spanning subgraph H, counted into a
    dict `sink` or appended to a list `sink` in mask order: walk_choices
    over _medial_items, with edge e out of H as its first choice and in H
    as its second, and _subgraph_row of each leaf's (|H|, bc, c, c*).  The
    edgeless map's lone vertex is one boundary circle."""
    choices, ends = _medial_items(m)
    row = partial(_subgraph_row, m)
    walk_choices(choices, ends, (m.V, m.F), row, sink, curves=int(m.E == 0))


def _medial_items(m: CombinatorialMap) -> tuple[list, list[int]]:
    """walk_choices' items and curve ends for m's subgraphs: c and c* are the
    classes of union-finds on the vertices (0) over H and
    on the faces (1) over E - H.  bc counts the closed curves of the medial
    smoothing: the edge e with tail t and head h = alpha(t) owns the ends
    4e and 4e+1 at the corners after and before t, and 4e+2 and 4e+3 at
    those after and before h, and each corner joins the end after its
    half-edge x to the end before sigma(x).  The edge joins (4e+1, 4e+2)
    and (4e+3, 4e) when in H, so that the curve runs along both sides of
    it, and (4e+1, 4e) and (4e+3, 4e+2) when out, so that the curve turns
    back at both ends."""
    sigma, alpha, vertex_of, face_of = m.sigma, m.alpha, m.vertex_of, m.face_of
    after = [0] * m.n_half
    choices = []
    for e, t in enumerate(m.edge_tails):
        h = alpha[t]
        x = after[t] = 4 * e
        after[h] = x + 2
        out = (x + 1, x, x + 3, x + 2, 1, face_of[t], face_of[h])
        inside = (x + 1, x + 2, x + 3, x, 0, vertex_of[t], vertex_of[h])
        choices.append((out, inside))
    ends = [0] * (2 * m.n_half)
    for x in range(m.n_half):
        a, b = after[x], after[sigma[x]] + 1
        ends[a], ends[b] = b, a
    return choices, ends


# -- the shared 2^n walk --------------------------------------------------------

# The fewest items whose tally walk_choices sweeps.  Best-of-10 timings of
# state_tally and subgraph_tally (8 seeded torus diagrams, their Tait graphs
# and 8 genus 1-3 maps per size; Python 3.11, 2-vCPU Xeon) put the sweep,
# ordering included, at 1.0-1.9x the flat walk's time at 6 items (medians
# 1.45-1.6), 0.8-1.4x at 7 (medians 0.92-1.08), 0.5-1.0x at 8 (medians
# 0.63-0.77) and 0.3-0.7x at 9.  At 7 it is not reliably faster.
_SWEEP_FROM = 8


def walk_choices(
    choices: Sequence[tuple[tuple[int, ...], tuple[int, ...]]],
    ends: list[int],
    sizes: Sequence[int],
    row: Callable[..., tuple],
    sink: dict | list,
    *,
    curves: int = 0,
) -> None:
    """row(count, curves, *classes) of every mask of `choices`, counted into
    a dict `sink` or appended to a list `sink` in mask order (bit e set =
    item e's second choice): the walk of walk_states and walk_subgraphs.

    Item e owns ends 4e..4e+3 of `ends`, which pairs each open curve end
    with the other end of its strand.  A choice (x1, y1, x2, y2, f, i, j)
    joins ends x1-y1 and x2-y2 (see smooth) and i and j in union-find f, of
    size sizes[f].  At a leaf, count is the number of second choices, curves
    those closed (plus `curves`) and classes each union-find's class count,
    packed into one int key, a digit each, so that keys add along the walk.

    A dict sink of _SWEEP_FROM items or more takes _sweep, its items
    renumbered into _sweep_order; any other takes the flat walk, in mask
    order, depth first with each step undone on the way back, which is also
    the sweep's test oracle.
    """
    n = len(choices)
    bits = max(2 * n + curves, *sizes).bit_length()
    # the place in a key of each of row's arguments: count, curves (the
    # lowest digit, so that smooth's result adds in), each union-find's classes
    places = [bits, 0, *range(2 * bits, (2 + len(sizes)) * bits, bits)]
    units = [1 << place for place in places[2:]]
    weights = (0, 1 << bits)
    start = curves
    for size, unit in zip(sizes, units):
        start += size * unit
    digit = (1 << bits) - 1
    if isinstance(sink, dict) and n >= _SWEEP_FROM:
        counts = _sweep(*_renumbered(_sweep_order(choices, ends), choices, ends), weights, units, start)
    else:
        forests = [UndoableUnionFind(size) for size in sizes]
        steps = [
            [(x1, y1, x2, y2, forests[f], i, j, w, units[f]) for w, (x1, y1, x2, y2, f, i, j) in zip(weights, pair)]
            for pair in choices
        ]
        keys = [] if n else [start]  # the leaves' keys in mask order
        if n:
            _walk((steps, ends, keys.append), n - 1, start)
        if isinstance(sink, list):
            table = {key: row(*[key >> place & digit for place in places]) for key in set(keys)}
            sink.extend(map(table.__getitem__, keys))
            return
        counts = {}
        for key in keys:
            counts[key] = counts.get(key, 0) + 1
    # no two keys share a row, so each count carries over whole
    for key, n_key in counts.items():
        sink[row(*[key >> place & digit for place in places])] = n_key


def _walk(walk: tuple, e: int, key: int) -> None:
    """The leaves of the flat walk below one choice of the items above e,
    whose key so far is `key`.  Module-level rather than nested in
    walk_choices: a nested function that calls itself is a reference cycle,
    which keeps each walk alive until the cyclic collector runs."""
    steps, ends, leaf = walk
    for x1, y1, x2, y2, forest, i, j, weight, unit in steps[e]:
        here = key + weight + smooth(ends, x1, y1, x2, y2)
        merged = forest.union(i, j)
        if merged >= 0:
            here -= unit
        if e:
            _walk(walk, e - 1, here)
        else:
            leaf(here)
        forest.undo(merged)
        unsmooth(ends, x1, y1, x2, y2)


def _sweep_order(choices: Sequence, ends: list[int]) -> list[int]:
    """The items of a walk in the order the sweep should decide them, which
    keeps its frontier narrow.  Two items are linked once per strand between
    their ends and once per union-find element that both join; the cut is
    the links between decided and undecided items.  Each step decides the
    item that shrinks the cut most (its links to decided items less those to
    undecided ones), ties going to the most links to decided items, then to
    the highest index; so the first is one with the fewest links."""
    n = len(choices)
    # groups[a]: the items of each strand and union-find element that item a
    # shares, a included
    groups: list[list[Sequence[int]]] = [[] for _ in range(n)]
    for x, y in enumerate(ends):
        a, b = x >> 2, y >> 2
        if a < b:
            groups[a].append((a, b))
            groups[b].append((a, b))
    users: dict[tuple[int, int], list[int]] = {}
    for a, pair in enumerate(choices):
        for *_, f, i, j in pair:
            for element in ((f, i), (f, j)):
                items = users.setdefault(element, [])
                if not items or items[-1] != a:
                    items.append(a)
    for items in users.values():
        if len(items) > 1:
            for a in items:
                groups[a].append(items)
    # [how much deciding the item shrinks the cut, its links to decided
    # items, the item], so that the next item is the max
    rank = [[len(mine) - sum(map(len, mine)), 0, a] for a, mine in enumerate(groups)]
    order = []
    for _ in range(n):
        a = max(rank)[2]
        rank[a][0] = -math.inf
        order.append(a)
        for items in groups[a]:
            for b in items:
                rank[b][0] += 2
                rank[b][1] += 1
    return order


def _renumbered(order: list[int], choices: Sequence, ends: list[int]) -> tuple[list, list[int]]:
    """`choices` and `ends` with item order[k] renumbered n-1-k, so that the
    sweep, which decides items n-1..0, decides them in `order`."""
    n = len(choices)
    place = [0] * (4 * n)  # each end's new number
    for k, old in enumerate(order):
        new = 4 * (n - 1 - k)
        place[4 * old : 4 * old + 4] = range(new, new + 4)
    renumbered = [0] * (4 * n)
    for x, y in enumerate(ends):
        renumbered[place[x]] = place[y]
    moved = [
        tuple((place[x1], place[y1], place[x2], place[y2], f, i, j) for x1, y1, x2, y2, f, i, j in choices[old])
        for old in reversed(order)
    ]
    return moved, renumbered


def _sweep(choices: Sequence, ends: list[int], weights: tuple, units: list[int], start: int) -> dict[int, int]:
    """How many leaves of the flat walk have each key, by a frontier sweep
    (Sekine-Imai-Tani, ISAAC 1995; Bar-Natan, JKTR 2007).  It decides the
    items n-1..0, which walk_choices has renumbered into _sweep_order.  With
    items n-1..e decided, the rest read only the signature: the pairing
    ends[:4e], whose partners stay among those ends, and per union-find the
    classes of the elements that items 0..e-1 join, labelled in order of
    first sight.  Equal signatures add equal changes to a key, so the sweep
    keeps one {partial key: count} per signature: two smooths per signature
    and item."""
    # frontiers[e][f]: the elements of union-find f that items 0..e-1 join
    joined: list[set[int]] = [set() for _ in units]
    frontiers = [[[] for _ in units]]
    for pair in choices:
        for *_, f, i, j in pair:
            joined[f].update((i, j))
        frontiers.append([sorted(elements) for elements in joined])
    tallies = {(tuple(ends), *(tuple(range(len(top))) for top in frontiers[-1])): {start: 1}}
    for e in range(len(choices) - 1, -1, -1):
        # each element's place on the frontier above item e, and the places
        # of those that stay on it below
        at = [{u: p for p, u in enumerate(top)} for top in frontiers[e + 1]]
        kept = [[where[u] for u in low] for where, low in zip(at, frontiers[e])]
        moves = [
            (x1, y1, x2, y2, f, at[f][i], at[f][j], w, units[f])
            for w, (x1, y1, x2, y2, f, i, j) in zip(weights, choices[e])
        ]
        swept: dict[tuple, dict[int, int]] = {}
        for (pairing, *partitions), tally in tallies.items():
            live = list(pairing)
            for x1, y1, x2, y2, f, i, j, weight, unit in moves:
                delta = weight + smooth(live, x1, y1, x2, y2)
                after = [tuple(live[: 4 * e])]
                unsmooth(live, x1, y1, x2, y2)
                for g, labels in enumerate(partitions):
                    old = new = -1  # class old joins class new
                    if g == f and labels[i] != labels[j]:
                        delta -= unit
                        old, new = labels[j], labels[i]
                    if old >= 0 or len(kept[g]) < len(labels):
                        first: dict[int, int] = {}
                        labels = tuple(
                            [first.setdefault(new if labels[p] == old else labels[p], len(first)) for p in kept[g]]
                        )
                    after.append(labels)
                signature = tuple(after)
                bucket = swept.get(signature)
                if bucket is None:
                    swept[signature] = {key + delta: count for key, count in tally.items()}
                else:
                    for key, count in tally.items():
                        bucket[key + delta] = bucket.get(key + delta, 0) + count
        tallies = swept
    return tallies.popitem()[1]


# -- trivial loops and parallel edges ------------------------------------------


def edge_kernels(m: CombinatorialMap) -> list[int]:
    """k({e}) of every edge e: 1 on a homologically trivial loop, else 0.
    Only loops are counted: a lone non-loop has b1 = 0, so k = 0."""
    return [subgraph_numbers(m, (e,))[4] if m.is_loop(e) else 0 for e in m.edge_ids]


def trivial_loops(m: CombinatorialMap, k: Sequence[int]) -> list[int]:
    """The homologically trivial loops of m: the edges e with k({e}) = 1,
    given its edge_kernels `k`."""
    return [e for e in m.edge_ids if k[e] == 1]


def parallel_pairs(m: CombinatorialMap, k: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The pairs e < f of parallel edges: k({e}) = k({f}) and k({e, f}) >= 1,
    given its edge_kernels `k`.  Dependent loop classes agree up to sign:
    the nonzero class of a simple closed curve is primitive (Farb-Margalit,
    Primer on MCGs, 2012, ch. 6).

    Only two loops, or two non-loops with the same ends, are counted.  Any
    other pair spans a forest plus at most one loop, so k({e, f}) = k of
    that loop, which is 0 whenever it equals k of the non-loop.  Two loops
    at different vertices stay candidates: disjoint curves can be
    homologous."""
    groups: dict[tuple[int, int] | None, list[int]] = {}
    for e in m.edge_ids:
        t, h = m.endpoints(e)
        groups.setdefault(None if t == h else (min(t, h), max(t, h)), []).append(e)
    return frozenset(
        (e, f)
        for group in groups.values()
        for e, f in itertools.combinations(group, 2)
        if k[e] == k[f] and subgraph_numbers(m, (e, f))[4] >= 1
    )
