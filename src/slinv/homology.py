"""Rational homology of maps and diagrams: the independent oracle.

HomologyContext realizes H1 of a map's surface over the rationals as
Z1(G)/B, B spanned by the face boundaries, with the Fraction row reduction
of _linalg.  subgraph_profile reads a spanning subgraph's numbers from it,
parallel and edge_class decide parallel edges and trivial loops, and
enumerate_states lists every smoothing state with its curves' classes.  The
integer walks of ribbon and diagram compute the same numbers; this module
is their check, and the source of the curve classes of `slinv states
--dump`.  It imports those modules; they load it only to forward a name
that a caller asks of them (their __getattr__).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, Iterator

from ._linalg import Echelon, Vec
from .diagram import DEFAULT_CAP, SurfaceLinkDiagram, check_crossing_cap
from .errors import (
    ContextMismatch,
    EndpointsDiffer,
    HomologyRankMismatch,
    InputError,
    NotALoop,
)
from .poly import add_entry
from .ribbon import CombinatorialMap, UndoableUnionFind, _component_count

# -- spanning subgraphs -----------------------------------------------------


@dataclass(frozen=True)
class SpanningSubgraph:
    """Edge subset of a parent map, on the full vertex set."""

    parent: CombinatorialMap
    edges: frozenset[int]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", frozenset(self.edges))
        for e in self.edges:
            if not (0 <= e < self.parent.E):
                raise InputError(f"edge id {e} outside parent range")


@dataclass(frozen=True)
class SubgraphProfile:
    """Topological profile of a spanning subgraph H inside its surface.

    s is twice the genus of the regular neighborhood of H, s_perp twice the
    genus of the complementary subsurface, k the dimension of the kernel of
    H1(H) -> H1(F), lam the rank of the boundary-circle classes in H1(F).
    """

    components: int
    s: int
    s_perp: int
    k: int
    b1: int
    boundary_count: int
    lam: int


def _restricted_next(m: CombinatorialMap, half_set: set[int], h: int) -> int:
    """sigma restricted to half_set: walk the vertex rotation past absentees."""
    nxt = m.sigma[h]
    while nxt not in half_set:
        nxt = m.sigma[nxt]
    return nxt


def boundary_walks(m: CombinatorialMap, edges: Iterable[int]) -> list[tuple[int, ...]]:
    """Boundary circles of the ribbon subgraph on the given edges.

    Walks use next = restricted-sigma after alpha, i.e. the face permutation
    of the sub-map; isolated vertices are not represented here (they each
    bound one extra circle, accounted for by callers).
    """
    half_set = set()
    for e in edges:
        half_set.add(m.tail_half(e))
        half_set.add(m.head_half(e))
    walks = []
    seen: set[int] = set()
    for start in sorted(half_set):
        if start in seen:
            continue
        walk = []
        h = start
        while h not in seen:
            seen.add(h)
            walk.append(h)
            h = _restricted_next(m, half_set, m.alpha[h])
        walks.append(tuple(walk))
    return walks


def chain_of_walk(m: CombinatorialMap, walk: Iterable[int]) -> Vec:
    """1-chain of a half-edge walk: +e when the edge is traversed tail-first."""
    out: Vec = {}
    for h in walk:
        e = m.edge_of[h]
        add_entry(out, e, Fraction(1) if h == m.edge_tails[e] else Fraction(-1))
    return out


def _neighborhood_stats(m: CombinatorialMap, edges: Iterable[int]) -> tuple[int, int, int, list[tuple[int, ...]]]:
    """(components, boundary circles, s = 2*genus of the neighborhood, walks)."""
    edges = list(edges)
    walks = boundary_walks(m, edges)
    touched = {m.vertex_of[h] for w in walks for h in w}
    isolated = m.V - len(touched)
    bc = len(walks) + isolated
    c = _component_count(m, edges)
    # per-component 2g sums to 2c - (V - E + bc)
    s = 2 * c - (m.V - len(edges) + bc)
    return c, bc, s, walks


# -- homology ----------------------------------------------------------------


class HomologyContext:
    """Rational homology data of a map's surface.

    cycle_basis: fundamental cycles of a spanning tree (a basis of Z1(G)).
    face_space: reduced echelon of the face-boundary chains B.
    Classes in H1(F) = Z1/B are represented by the canonical reduced
    representative of a chain modulo B (unique for a reduced echelon).
    """

    def __init__(self, m: CombinatorialMap) -> None:
        self.map = m
        self.h1_dim = 2 * m.genus

        self.cycle_basis: list[Vec] = self.fundamental_cycles_of(m.edge_ids)

        self.face_space = Echelon()
        for walk in m.faces:
            self.face_space.insert(chain_of_walk(m, walk))

        ranks = (len(self.cycle_basis), self.face_space.rank)
        if ranks != (m.E - m.V + 1, m.F - 1):
            raise HomologyRankMismatch(
                f"cycle and face ranks {ranks} on a map with V={m.V}, E={m.E}, F={m.F}"
            )

    @cached_property
    def dual_map(self) -> CombinatorialMap:
        return self.map.dual()

    # -- class arithmetic --------------------------------------------------

    def class_of(self, chain: Vec) -> Vec:
        """Canonical representative of [chain] in H1(F) = Z1/B."""
        return self.face_space._reduce(chain)

    def in_B(self, chain: Vec) -> bool:
        return self.face_space.contains(chain)

    def rank_mod_B(self, chains: Iterable[Vec]) -> int:
        ech = self.face_space.copy()
        return sum(1 for c in chains if ech.insert(c))

    def fundamental_cycles_of(self, edges: Iterable[int]) -> list[Vec]:
        """Fundamental cycles of the subgraph on `edges` (a basis of Z1(H))."""
        m = self.map
        edges = set(edges)
        joined = UndoableUnionFind(m.V)
        path: dict[int, Vec] = {}
        cycles: list[Vec] = []
        # grow a forest inside H; each rejected edge closes one cycle
        forest_adj: dict[int, list[tuple[int, int]]] = {}
        for e in sorted(edges):
            t, h = m.endpoints(e)
            if joined.union(t, h) >= 0:
                forest_adj.setdefault(t, []).append((e, h))
                forest_adj.setdefault(h, []).append((e, t))
        # chains from every vertex to its forest root
        seen: set[int] = set()
        for root in range(m.V):
            if root in seen:
                continue
            path[root] = {}
            seen.add(root)
            frontier = [root]
            while frontier:
                u = frontier.pop()
                for e, v in forest_adj.get(u, []):
                    if v in seen:
                        continue
                    t, _ = m.endpoints(e)
                    chain = dict(path[u])
                    add_entry(chain, e, Fraction(1) if t == v else Fraction(-1))
                    path[v] = chain
                    seen.add(v)
                    frontier.append(v)
        forest = {e for adjs in forest_adj.values() for e, _ in adjs}
        for e in sorted(edges - forest):
            t, h = m.endpoints(e)
            chain: Vec = {e: Fraction(1)}
            for v, sign in ((h, Fraction(1)), (t, Fraction(-1))):
                for edge, val in path[v].items():
                    add_entry(chain, edge, sign * val)
            cycles.append(chain)
        return cycles


def subgraph_profile(H: SpanningSubgraph, ctx: HomologyContext) -> SubgraphProfile:
    """Topological profile (c, s, s_perp, k, b1, boundary circles, lam) of H."""
    m = H.parent
    if ctx.map is not m and ctx.map != m:
        raise ContextMismatch("homology context was built for a different map")
    edges = sorted(H.edges)
    c, bc, s, walks = _neighborhood_stats(m, edges)
    b1 = len(edges) - m.V + c

    cycles = ctx.fundamental_cycles_of(edges)
    k = b1 - ctx.rank_mod_B(cycles)

    complement = [e for e in m.edge_ids if e not in H.edges]
    _, _, s_perp, _ = _neighborhood_stats(ctx.dual_map, complement)

    lam = ctx.rank_mod_B(chain_of_walk(m, w) for w in walks)
    return SubgraphProfile(
        components=c, s=s, s_perp=s_perp, k=k, b1=b1, boundary_count=bc, lam=lam
    )


# -- edge homology and parallelism -------------------------------------------


def edge_class(e: int, ctx: HomologyContext) -> Vec:
    """Class of a loop edge in H1(F), as the canonical representative mod B."""
    if not ctx.map.is_loop(e):
        raise NotALoop(f"edge {e} has distinct endpoints")
    return ctx.class_of({e: Fraction(1)})


def cycle_of_pair(e: int, f: int, m: CombinatorialMap) -> Vec:
    """Closed 1-chain formed by two non-loop edges sharing both endpoints."""
    if m.is_loop(e) or m.is_loop(f):
        raise EndpointsDiffer("cycle_of_pair expects non-loop edges")
    if e == f or set(m.endpoints(e)) != set(m.endpoints(f)):
        raise EndpointsDiffer(f"edges {e} and {f} do not share both endpoints")
    te, _ = m.endpoints(e)
    tf, _ = m.endpoints(f)
    sign = Fraction(-1) if te == tf else Fraction(1)
    return {e: Fraction(1), f: sign}


def parallel(e: int, f: int, ctx: HomologyContext) -> bool:
    """Whether two edges are homologous on the surface (Tait-graph sense).

    Loops are parallel when their classes agree up to sign; non-loops when
    they share endpoints and their union is null-homologous.  A loop is
    never parallel to a non-loop.
    """
    m = ctx.map
    if e == f:
        return True
    le, lf = m.is_loop(e), m.is_loop(f)
    if le != lf:
        return False
    if le:
        one = Fraction(1)
        return ctx.in_B({e: one, f: -one}) or ctx.in_B({e: one, f: one})
    if set(m.endpoints(e)) != set(m.endpoints(f)):
        return False
    return ctx.in_B(cycle_of_pair(e, f, m))


# -- states ---------------------------------------------------------------------


@dataclass(frozen=True)
class State:
    """One smoothing state; curves are canonical H1-class representatives."""

    choice: tuple[str, ...]
    curves: tuple[tuple[tuple[int, Fraction], ...], ...]
    a: int
    b: int
    r: int

    @property
    def size(self) -> int:
        return len(self.curves)

    @property
    def k(self) -> int:
        return self.size - self.r


@lru_cache(maxsize=32)
def diagram_homology(cmap: CombinatorialMap) -> HomologyContext:
    return HomologyContext(cmap)


def _state_curves(m: CombinatorialMap, c: int, mask: int) -> list[list[int]]:
    """The curves of the state `mask` (bit i set = B at crossing i), each as
    the half-edges through which it leaves the crossings it passes."""
    tau = [0] * (4 * c)
    for cr in range(c):
        base = 4 * cr
        for x, y in ((0, 1), (2, 3)) if mask >> cr & 1 else ((1, 2), (3, 0)):
            tau[base + x] = base + y
            tau[base + y] = base + x
    visited = [False] * (4 * c)
    curves = []
    for start in range(4 * c):
        if visited[start]:
            continue
        # the curve leaves each crossing through y = tau[h], along its arc
        walk = []
        h = start
        while not visited[h]:
            visited[h] = True
            y = tau[h]
            visited[y] = True
            walk.append(y)
            h = m.alpha[y]
        curves.append(walk)
    return curves


def enumerate_states(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> Iterator[State]:
    """All 2^c smoothing states, in bitmask order (bit i set = B at crossing i),
    with the curve rank r and the curves' classes from rational homology."""
    check_crossing_cap(d, cap)
    c = d.crossings
    if c == 0:
        yield State(choice=(), curves=((),), a=0, b=0, r=0)
        return
    m = d.cmap
    ctx = diagram_homology(m)
    for mask in range(1 << c):
        chains = [chain_of_walk(m, walk) for walk in _state_curves(m, c, mask)]
        r = ctx.rank_mod_B(chains)
        curves = tuple(tuple(sorted(ctx.class_of(ch).items())) for ch in chains)
        choice = tuple("B" if mask >> cr & 1 else "A" for cr in range(c))
        b = mask.bit_count()
        yield State(choice=choice, curves=curves, a=c - b, b=b, r=r)
