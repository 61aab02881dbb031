"""Invariants of embedded graphs and surface link diagrams.

* the four-variable spanning-subgraph polynomial p_G(x, y, u, v) of a map
  and its shifted form P_G(X, Y, U, V) = p_G(X-1, Y-1, U, V)
* reduced-graph statistics: parallel classes, trivial-loop count, the loop
  count lambda, the loop-free Betti number mu, and the genus-generating
  loop-pair count gamma, together with the coefficient slots of P they
  predict
* the two-variable polynomial J_K(t, z) of a checkerboard-colorable
  diagram, by Kauffman-state sum and independently by Tait-graph
  specialization, plus its classical Jones specialization
* homological twist number tau, bigon twist-region count, and the
  hyperbolic volume bounds they feed
* verifier verdicts (pass / fail / skipped) for every identity the test
  suite exercises, collected by full_report
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

from .diagram import (
    DEFAULT_CAP,
    Coloring,
    ReducedFlags,
    SurfaceLinkDiagram,
    check_crossing_cap,
    checkerboard,
    is_alternating,
    state_tally,
    tait_graphs,
    writhe,
)
from .errors import (
    CrossingCapExceeded,
    EdgeCapExceeded,
    GenusZero,
    HypothesisViolated,
    InputError,
    NotAlternating,
    NotCheckerboardColorable,
    NotReduced,
    NotTrivialLoop,
    PreconditionError,
)
from .poly import JKPoly, LaurentPoly, Terms, add_entry, curve_binomial_sum
from .ribbon import (
    CombinatorialMap,
    UndoableUnionFind,
    _component_count,
    component_count,
    delete_edge,
    dual,
    edge_kernels,
    parallel_pairs,
    subgraph_numbers,
    subgraph_tally,
    trivial_loops,
)

# volumes of the regular ideal tetrahedron and octahedron
V_TET = 1.01494
V_OCT = 3.66386
FORMAL_BOUNDS_NOTE = "strongly-reduced hypothesis fails; bounds are formal"

P_VARS = ("x", "y", "u", "v")
BIG_VARS = ("X", "Y", "U", "V")


# -- verdicts -------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of one verifier: pass, fail, or skipped (hypotheses unmet)."""

    name: str
    status: str
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_json(self) -> dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


def _verdict(name: str, ok: bool, detail: str = "") -> Verdict:
    return Verdict(name, "pass" if ok else "fail", detail)


def _skipped(name: str, reason: str) -> Verdict:
    return Verdict(name, "skipped", reason)


# -- four-variable polynomial -----------------------------------------------------


def _check_edge_cap(m: CombinatorialMap, cap: int) -> None:
    if m.E > cap:
        raise EdgeCapExceeded(f"{m.E} edges exceed the subgraph-sum cap of {cap}")


def krushkal(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> LaurentPoly:
    """p_G(x,y,u,v) = sum over spanning subgraphs H of
    x^(c(H)-c(G)) y^k(H) u^(s(H)/2) v^(s_perp(H)/2), read off
    subgraph_tally, one depth-first walk over the 2^E subgraphs."""
    _check_edge_cap(m, cap)
    terms: dict[tuple[int, ...], int] = {}
    for (c, _, s, s_perp, k), n in subgraph_tally(m).items():
        add_entry(terms, (c - 1, k, s // 2, s_perp // 2), n)
    return LaurentPoly(P_VARS, terms)


def big_P(m: CombinatorialMap, cap: int = DEFAULT_CAP) -> LaurentPoly:
    """P_G(X,Y,U,V) = p_G(X-1, Y-1, U, V)."""
    return _shifted(krushkal(m, cap))


def _shifted(p: LaurentPoly) -> LaurentPoly:
    """P from p by the binomial theorem: c x^i y^j u^k v^l adds
    (-1)^(i-a+j-b) C(i,a) C(j,b) c at X^a Y^b U^k V^l (krushkal's i, j >= 0).
    Each exponent's signed binomial row is built once; the constructor drops
    the terms that cancel."""
    rows: dict[int, list[tuple[int, int]]] = {}  # n: [(a, (-1)^(n-a) C(n,a))]
    terms: Terms = {}
    get = terms.get
    for (i, j, u, v), coeff in p.terms.items():
        for n in (i, j):
            if n not in rows:
                rows[n] = [(a, (-1) ** (n - a) * comb(n, a)) for a in range(n + 1)]
        for a, row in rows[i]:
            row *= coeff
            for b, column in rows[j]:
                key = (a, b, u, v)
                terms[key] = get(key, 0) + row * column
    return LaurentPoly(BIG_VARS, terms)


# -- Whitney rank polynomial cross-check ------------------------------------------


def rank_polynomial(edges: list[tuple[int, int]]) -> Terms:
    """The Whitney rank polynomial R(x, y), the sum over edge sets A of
    x^(r(E) - r(A)) y^(|A| - r(A)), of the abstract multigraph with the
    given (tail, head) edges, as terms {(i, j): coefficient of x^i y^j}.

    Deletion-contraction on parallel classes (Haggard-Pearce-Royle, "Computing
    Tutte polynomials", ACM TOMS 2010): a class of k loops multiplies by
    (1+y)^k; a bridge class of k edges multiplies the contraction by
    x + ((1+y)^k - 1)/y; any other class gives the deletion plus
    ((1+y)^k - 1)/y times the contraction.  Each loopless graph met is
    cached for the call, keyed on its classes relabelled by first sight."""
    loops = 0
    classes: dict[tuple[int, int], int] = {}
    for a, b in edges:
        if a == b:
            loops += 1
        else:
            key = (a, b) if a < b else (b, a)
            classes[key] = classes.get(key, 0) + 1
    terms = _rank_terms(_relabelled(classes), {})
    return _add_product({}, terms, [(0, j, comb(loops, j)) for j in range(loops + 1)])


def _relabelled(classes: dict[tuple[int, int], int]) -> tuple[tuple[int, int, int], ...]:
    """The classes {(a, b): k} of a loopless multigraph as a sorted tuple of
    (a, b, k) with a < b, its vertices numbered in order of first sight."""
    first: dict[int, int] = {}
    out = []
    for (a, b), k in sorted(classes.items()):
        a, b = first.setdefault(a, len(first)), first.setdefault(b, len(first))
        out.append((a, b, k) if a < b else (b, a, k))
    out.sort()
    return tuple(out)


def _add_product(out: Terms, terms: Terms, factor: list[tuple[int, int, int]]) -> Terms:
    """out plus terms times the terms (i, j, coefficient) of `factor`, added
    into out, which it returns.  Rank polynomials have positive coefficients,
    so no sum cancels, and their exponent pairs add without the tuple
    arithmetic of poly's product, which took 2.4x the time on W(4,6)."""
    for (i, j), c in terms.items():
        for di, dj, d in factor:
            key = (i + di, j + dj)
            out[key] = out.get(key, 0) + c * d
    return out


def _rank_terms(graph: tuple[tuple[int, int, int], ...], cache: dict) -> Terms:
    """rank_polynomial of a loopless multigraph given as _relabelled classes:
    delete or contract its first class (a, b, k), which holds every edge
    joining a to b, so that contracting it makes no loop."""
    if not graph:
        return {(0, 0): 1}
    terms = cache.get(graph)
    if terms is not None:
        return terms
    (a, b, k), rest = graph[0], graph[1:]
    merged: dict[tuple[int, int], int] = {}
    forest = UndoableUnionFind(1 + max(v for _, v, _ in graph))
    for u, v, j in rest:
        forest.union(u, v)
        u, v = (a if u == b else u), (a if v == b else v)
        key = (u, v) if u < v else (v, u)
        merged[key] = merged.get(key, 0) + j
    # ((1+y)^k - 1)/y
    spread = [(0, j - 1, comb(k, j)) for j in range(1, k + 1)]
    if forest.find(a) == forest.find(b):
        terms = dict(_rank_terms(_relabelled({(u, v): j for u, v, j in rest}), cache))
    else:
        terms = {}
        spread.append((1, 0, 1))
    terms = _add_product(terms, _rank_terms(_relabelled(merged), cache), spread)
    cache[graph] = terms
    return terms


def tutte_check(a: MapAnalysis) -> bool:
    """Whether y^g * p_G(x, y, y, 1/y) equals the Whitney rank polynomial of
    the underlying abstract graph, which rank_polynomial computes from the
    edges' endpoints alone."""
    m = a.map
    specialized: Terms = {}
    for (i, j, u, v), coeff in a.p.terms.items():
        add_entry(specialized, (i, j + u - v + m.genus), coeff)
    return specialized == rank_polynomial([m.endpoints(e) for e in m.edge_ids])


def loop_deletion_check(a: MapAnalysis, e: int) -> bool:
    """Whether p_G = (1+y) * p_(G-e) for a homologically trivial loop e."""
    m = a.map
    if not m.is_loop(e):
        raise NotTrivialLoop(f"edge {e} is not a loop")
    if e not in a.trivial_loops:
        raise NotTrivialLoop(f"loop {e} is homologically nontrivial")
    factor = LaurentPoly.var(P_VARS, "y") + 1
    return a.p == factor * krushkal(delete_edge(m, e), cap=a.cap)


# -- reduced graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class ReducedGraphData:
    """Statistics of a reduced representative G' of a map G.

    G' keeps one edge per parallel class and drops all homologically
    trivial loops.  trivial_loops_deleted counts the trivial loops of G
    itself (not classes).  lam counts the loops of G', mu is the first
    Betti number of G' minus its loops, gamma the number of unordered
    loop pairs of G' whose joint neighborhood has positive genus, and
    has_3petal flags loop triples with positive genus and positive
    kernel dimension.
    """

    kept_edges: tuple[int, ...]
    trivial_loops_deleted: int
    lam: int
    mu: int
    gamma: int
    has_3petal: bool

    def to_json(self) -> dict:
        return {
            "kept_edges": list(self.kept_edges),
            "trivial_loops_deleted": self.trivial_loops_deleted,
            "lambda": self.lam,
            "mu": self.mu,
            "gamma": self.gamma,
            "has_3petal": self.has_3petal,
        }


def reduce(a: MapAnalysis) -> ReducedGraphData:
    """Reduced-graph statistics; each parallel class keeps its lowest edge."""
    m = a.map
    forest = UndoableUnionFind(m.E)
    for e, f in a.parallel_pairs:
        forest.union(e, f)
    lowest: dict[int, int] = {}  # each class's lowest edge, in increasing order
    for e in m.edge_ids:
        lowest.setdefault(forest.find(e), e)

    trivial = set(a.trivial_loops)
    kept = [e for e in lowest.values() if e not in trivial]

    loops = [e for e in kept if m.is_loop(e)]
    non_loops = [e for e in kept if not m.is_loop(e)]
    mu = len(non_loops) - m.V + _component_count(m, kept)

    gamma = 0
    for pair in itertools.combinations(loops, 2):
        if subgraph_numbers(m, pair)[2] > 0:
            gamma += 1
    has_3petal = False
    for triple in itertools.combinations(loops, 3):
        _, _, s, _, k = subgraph_numbers(m, triple)
        if s > 0 and k > 0:
            has_3petal = True
            break

    return ReducedGraphData(
        kept_edges=tuple(kept),
        trivial_loops_deleted=len(trivial),
        lam=len(loops),
        mu=mu,
        gamma=gamma,
        has_3petal=has_3petal,
    )


def verify_krushkal_coeffs(a: MapAnalysis) -> list[Verdict]:
    """Compare mu, lambda, gamma against the coefficients of P they predict:
    mu = [V^g X^(n-1) Y^k] P, lambda = [V^(g-1) X^n Y^k] P, and (absent
    3-petal loops) gamma = [U V^(g-1) X^n Y^k] P, where k counts the trivial
    loops and n = |V| - 1."""
    m = a.map
    data = a.reduced
    g = m.genus
    P = a.P
    n = m.V - 1
    k = data.trivial_loops_deleted
    out = []
    got_mu = P.coefficient_of(V=g, X=n - 1, Y=k)
    out.append(
        _verdict("mu_coefficient", got_mu == data.mu, f"coefficient {got_mu}, mu {data.mu}")
    )
    if g == 0:
        # the V^(g-1) slots do not exist on the sphere
        out.append(_skipped("lambda_coefficient", "slot needs genus >= 1"))
        out.append(_skipped("gamma_coefficient", "slot needs genus >= 1"))
        return out
    got_lam = P.coefficient_of(V=g - 1, X=n, Y=k)
    out.append(
        _verdict(
            "lambda_coefficient", got_lam == data.lam, f"coefficient {got_lam}, lambda {data.lam}"
        )
    )
    if data.has_3petal:
        out.append(_skipped("gamma_coefficient", "3-petal loops present"))
    else:
        got_gamma = P.coefficient_of(U=1, V=g - 1, X=n, Y=k)
        out.append(
            _verdict(
                "gamma_coefficient",
                got_gamma == data.gamma,
                f"coefficient {got_gamma}, gamma {data.gamma}",
            )
        )
    return out


# -- the two-variable diagram polynomial --------------------------------------------


def jones_krushkal_statesum(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> JKPoly:
    """J_K(t, z) as the writhe-normalized state sum
    (-1)^w t^(3w/4) * sum over states of
    t^((b-a)/4) (-t^(-1/2) - t^(1/2))^(k(s)-1) z^r(s)."""
    return DiagramAnalysis(d, cap).jk


def _weight(b_minus_a: int, r: int, k: int) -> JKPoly:
    """t^((b-a)/4) z^r (-t^(-1/2) - t^(1/2))^(k-1): the weight of a state
    with k >= 1, by Horner's rule in the curve binomial."""
    return JKPoly({(tq, r): coeff for tq, coeff in curve_binomial_sum({k - 1: {b_minus_a: 1}}).items()})


def _state_sum(d: SurfaceLinkDiagram, tally: dict[tuple[int, int, int], int]) -> tuple[JKPoly, int]:
    """The state sum of J_K over a colorable diagram's states, given the
    tally of their (b, |s|, r) rows, and the number of states with
    k(s) = |s| - r < 1, which the sum skips (their weight is undefined, and
    none should exist).  The rows are grouped by z-power r and by k into a
    signed count per t-shift 3w - c + 2b, and each z-power's coefficient,
    the sum over k of those counts times CURVE_BINOMIAL^(k-1), is built by
    Horner's rule in curve_binomial_sum.  The constructor drops the terms
    that cancel."""
    c, w = d.crossings, writhe(d)
    sign = 1 if w % 2 == 0 else -1
    groups: dict[int, dict[int, dict[int, int]]] = {}  # r: {k - 1: {t-shift: count}}
    bad = 0
    for (b, size, r), n in tally.items():
        k = size - r
        if k < 1:
            bad += n
            continue
        # each (b, |s|, r) is one key of the tally, so each t-shift is set once
        groups.setdefault(r, {}).setdefault(k - 1, {})[3 * w - c + 2 * b] = sign * n
    terms = {
        (tq, r): coeff for r, by_power in groups.items() for tq, coeff in curve_binomial_sum(by_power).items()
    }
    return JKPoly(terms), bad


def jones_krushkal_via_P(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> JKPoly:
    """J_K(t, z) by specializing the shifted four-variable polynomial of the
    shaded Tait graph:
    (-1)^w t^((3w-2g-2n+c)/4) z^g P_GA(-t, -1/t, 1/(z sqrt t), sqrt t / z)."""
    return DiagramAnalysis(d, cap).jk_via_P


def _specialized(d: SurfaceLinkDiagram, n: int, P: LaurentPoly) -> JKPoly:
    """The specialization of jones_krushkal_via_P, given n = |V(G_A)| - 1 and
    P = P_GA: each variable goes to a signed monomial, so each term of P
    gives one term of J_K."""
    g, c, w = d.genus, d.crossings, writhe(d)
    shift = 3 * w - 2 * g - 2 * n + c
    terms: dict[tuple[int, int], int] = {}
    for (x, y, u, v), coeff in P.terms.items():
        sign = -1 if (w + x + y) % 2 else 1
        add_entry(terms, (shift + 4 * (x - y) + 2 * (v - u), g - u - v), sign * coeff)
    return JKPoly(terms)


jones_specialization = JKPoly.jones_specialization


def kauffman_bracket_jones(d: SurfaceLinkDiagram) -> LaurentPoly:
    """Jones polynomial by plain bracket-skein recursion on the diagram's
    strand wiring.  Shares no machinery with the state sum (no surface
    homology, no Tait graphs); used as an independent classical oracle."""
    w = writhe(d)
    if d.crossings == 0:
        return LaurentPoly.const(("t",), 1, (4,))

    partner: dict[int, int] = {}
    for tail, head in d.arcs:
        ht, hh = d.half_edge(tail), d.half_edge(head)
        partner[ht] = hh
        partner[hh] = ht

    delta = {2: -1, -2: -1}
    delta_pows: list[dict[int, int]] = [{0: 1}]
    for _ in range(d.crossings + 1):
        nxt: dict[int, int] = {}
        for e1, c1 in delta_pows[-1].items():
            for e2, c2 in delta.items():
                nxt[e1 + e2] = nxt.get(e1 + e2, 0) + c1 * c2
        delta_pows.append(nxt)

    acc: dict[int, int] = {}

    def smooth(p: dict[int, int], cr: int, joins) -> tuple[dict[int, int], int]:
        p = dict(p)
        closed = 0
        for x, y in joins:
            hx, hy = 4 * cr + x, 4 * cr + y
            px, py = p.pop(hx), p.pop(hy)
            if px == hy:
                closed += 1
            else:
                p[px] = py
                p[py] = px
        return p, closed

    def expand(p: dict[int, int], cr: int, a_exp: int, loops: int) -> None:
        if cr == d.crossings:
            for e, coeff in delta_pows[loops - 1].items():
                add_entry(acc, a_exp + e, coeff)
            return
        for exp, joins in ((1, ((1, 2), (3, 0))), (-1, ((0, 1), (2, 3)))):
            p2, closed = smooth(p, cr, joins)
            expand(p2, cr + 1, a_exp + exp, loops + closed)

    expand(partner, 0, 0, 0)

    # V = (-A)^(-3w) <D> at A = t^(-1/4); A-exponent k lands at t^((3w-k)/4)
    sign = 1 if w % 2 == 0 else -1
    return LaurentPoly(("t",), {(3 * w - k,): sign * c for k, c in acc.items()}, (4,))


# -- twist numbers ----------------------------------------------------------------


def tau(d: SurfaceLinkDiagram) -> int:
    """Homological twist number: crossings up to the equivalence generated by
    edge-parallelism in either Tait graph."""
    return DiagramAnalysis(d).tau_by_classes


def tau_formula(d: SurfaceLinkDiagram) -> int:
    """Twist number from reduced-graph statistics:
    lambda + mu + lambda-bar + mu-bar - 2g."""
    return DiagramAnalysis(d).tau_by_formula


def twist_regions(d: SurfaceLinkDiagram) -> int:
    """Count of maximal bigon chains plus isolated crossings: connected
    components of the graph joining crossings that share a bigon face."""
    if d.crossings == 0:
        return 0
    bigons = ((walk[0] // 4, walk[1] // 4) for walk in d.cmap.faces if len(walk) == 2)
    return component_count(d.crossings, bigons)


# -- one analysis per input ----------------------------------------------------------


class MapAnalysis:
    """The single-edge kernels, trivial loops, parallel edge pairs, p, P,
    reduction and dual of one map, each computed at most once, on first
    use.  It is the subject of the map verifiers and of reduce, which read
    the map and the cap from it.  The dual is summed from this map's own
    dual(); a DiagramAnalysis gives each Tait graph's polynomial_duality the
    other Tait graph instead."""

    def __init__(self, m: CombinatorialMap, cap: int = DEFAULT_CAP) -> None:
        self.map = m
        self.cap = cap

    @cached_property
    def edge_kernels(self) -> list[int]:
        return edge_kernels(self.map)

    @cached_property
    def trivial_loops(self) -> list[int]:
        return trivial_loops(self.map, self.edge_kernels)

    @cached_property
    def parallel_pairs(self) -> frozenset[tuple[int, int]]:
        return parallel_pairs(self.map, self.edge_kernels)

    @cached_property
    def p(self) -> LaurentPoly:
        return krushkal(self.map, self.cap)

    @cached_property
    def P(self) -> LaurentPoly:
        return _shifted(self.p)

    @cached_property
    def reduced(self) -> ReducedGraphData:
        return reduce(self)

    @cached_property
    def dual(self) -> MapAnalysis:
        return MapAnalysis(self.map.dual(), self.cap)


class DiagramAnalysis:
    """What the report derives from one diagram, each piece computed at most
    once, on first use: the checkerboard coloring, the Tait graphs (as
    MapAnalysis objects), the reduced flags, one state sum, the Tait-graph
    specialization of J_K, the crossing pairs parallel in a Tait graph,
    both twist numbers and the volume bounds.  A piece whose hypotheses fail
    raises the PreconditionError of the public function that computes it
    alone.  Given the `tally` of the states' (b, |s|, r) rows
    (state_tally's), the state sum reads it instead of walking the states
    itself."""

    def __init__(
        self,
        d: SurfaceLinkDiagram,
        cap: int = DEFAULT_CAP,
        tally: dict[tuple[int, int, int], int] | None = None,
    ) -> None:
        self.d = d
        self.cap = cap
        self._tally = tally

    @cached_property
    def alternating(self) -> bool:
        return is_alternating(self.d)

    @cached_property
    def _coloring(self) -> Coloring | str:
        """The coloring, or why there is none."""
        try:
            return checkerboard(self.d)
        except NotCheckerboardColorable as exc:
            return str(exc)

    def coloring(self) -> Coloring:
        if isinstance(self._coloring, str):
            raise NotCheckerboardColorable(self._coloring)
        return self._coloring

    @property
    def colorable(self) -> bool:
        """Whether J_K is defined: the 0-crossing unknot counts, although it
        has no faces to color."""
        return self.d.crossings == 0 or not isinstance(self._coloring, str)

    @cached_property
    def tait(self) -> tuple[MapAnalysis, MapAnalysis]:
        """(G_A, G_B), each the other's dual: dual(G_B) is G_A, and dual(G_A)
        is G_B up to the isomorphism alpha (see ribbon), so the report gives
        each as the other's `dual` and sums each Tait graph once.  The
        0-crossing unknot's have one vertex and no edges each."""
        if self.d.crossings == 0:
            point = CombinatorialMap([()], [])
            return MapAnalysis(point, self.cap), MapAnalysis(point, self.cap)
        pair = tait_graphs(self.d, self.coloring())
        return MapAnalysis(pair.g_a, self.cap), MapAnalysis(pair.g_b, self.cap)

    @cached_property
    def flags(self) -> ReducedFlags:
        """cellular by construction; nugatory_free: no homologically trivial
        loop in either Tait graph; strongly_reduced: no loop at all."""
        trivial = [g.trivial_loops for g in self.tait]
        any_loop = any(g.map.is_loop(e) for g in self.tait for e in g.map.edge_ids)
        return ReducedFlags(True, not any(trivial), not any_loop)

    def require_reduced_alternating(self) -> None:
        if not self.alternating:
            raise NotAlternating("twist invariants need an alternating diagram")
        if not self.flags.nugatory_free:
            raise NotReduced("diagram has a homologically trivial Tait loop (nugatory crossing)")

    @cached_property
    def state_sum(self) -> tuple[JKPoly, int]:
        """(J_K by the state sum, the number of states with k(s) < 1)."""
        if not self.colorable:
            self.coloring()  # raises why
        tally = state_tally(self.d, self.cap) if self._tally is None else self._tally
        return _state_sum(self.d, tally)

    @property
    def jk(self) -> JKPoly:
        jk, bad = self.state_sum
        if bad:
            raise HypothesisViolated(f"{bad} states with k < 1 leave J_K undefined")
        return jk

    @cached_property
    def jk_via_P(self) -> JKPoly:
        check_crossing_cap(self.d, self.cap)
        if not self.alternating:
            # the unsigned Tait-graph substitution needs every crossing to sit the
            # same way against the shading, which is exactly alternation
            raise NotAlternating("specialization route needs an alternating diagram")
        g_a = self.tait[0]
        return _specialized(self.d, g_a.map.V - 1, g_a.P)

    @cached_property
    def parallel_crossings(self) -> tuple[tuple[int, int, bool, bool], ...]:
        """(i, j, parallel in G_A, parallel in G_B) for each pair i < j of
        crossings parallel in at least one Tait graph."""
        in_a, in_b = (g.parallel_pairs for g in self.tait)
        return tuple((i, j, (i, j) in in_a, (i, j) in in_b) for i, j in sorted(in_a | in_b))

    @cached_property
    def tau_by_classes(self) -> int:
        """Crossings up to the equivalence generated by parallelism in
        either Tait graph, by union-find."""
        self.require_reduced_alternating()
        pairs = ((i, j) for i, j, _, _ in self.parallel_crossings)
        return component_count(self.d.crossings, pairs)

    @cached_property
    def tau_by_formula(self) -> int:
        self.require_reduced_alternating()
        ra, rb = (g.reduced for g in self.tait)
        return ra.lam + ra.mu + rb.lam + rb.mu - 2 * self.d.genus

    @cached_property
    def volume(self) -> tuple[float, float, str]:
        """(lower, upper, note): volume_bounds of tau_by_classes, noted as
        formal (FORMAL_BOUNDS_NOTE) unless the diagram is strongly reduced."""
        lower, upper = volume_bounds(self.tau_by_classes, self.d.genus)
        return lower, upper, "" if self.flags.strongly_reduced else FORMAL_BOUNDS_NOTE


# -- verifiers ---------------------------------------------------------------------
#
# Each verifier takes the analysis it checks as its one subject and reads the
# diagram or map and the cap from it, so both sides of an identity see the
# same input, and full_report, sharing one analysis, computes each
# intermediate result once.


def verify_route_equality(a: DiagramAnalysis) -> Verdict:
    """State-sum J_K against the Tait-graph specialization route."""
    by_sum = a.jk
    by_p = a.jk_via_P
    if by_sum == by_p:
        return _verdict("route_equality", True, by_sum.to_text())
    return _verdict(
        "route_equality", False, f"state sum {by_sum.to_text()} != specialization {by_p.to_text()}"
    )


def verify_jk_coefficients(a: DiagramAnalysis) -> Verdict:
    """Closed form for the outer coefficients of J_K in terms of the
    reduced-graph data of both Tait graphs, compared at every monomial in
    the expression's support (colliding monomials are collected first)."""
    d = a.d
    if d.crossings == 0:
        raise HypothesisViolated("coefficient expression needs at least one crossing")
    a.require_reduced_alternating()
    g_a, g_b = a.tait
    ra, rb = g_a.reduced, g_b.reduced
    if ra.has_3petal or rb.has_3petal:
        raise HypothesisViolated("a Tait graph has 3-petal loops")
    g, c, w = d.genus, d.crossings, writhe(d)
    n = g_a.map.V - 1
    inner = (
        JKPoly.term(1 if c % 2 == 0 else -1, 4 * (g - c))
        * (JKPoly.term(rb.lam, 2, 1) - JKPoly.term(rb.mu - rb.gamma, 4))
        - JKPoly.term(ra.mu - ra.gamma, -4)
        + JKPoly.term(ra.lam, -2, 1)
    )
    prefactor = JKPoly.term(1 if (w + n) % 2 == 0 else -1, 3 * w + 2 * n + c)
    expr = prefactor * inner
    jk = a.jk
    bad = {
        key: (coeff, jk.coefficient(*key))
        for key, coeff in expr.terms.items()
        if jk.coefficient(*key) != coeff
    }
    if not bad:
        return _verdict("jk_coefficients", True, f"{len(expr.terms)} coefficient slots match")
    return _verdict("jk_coefficients", False, f"mismatched slots {bad}")


def verify_span(a: DiagramAnalysis) -> Verdict:
    """t-span of J_K(t, 1) equals c - g, with extremal coefficients +-1
    arising from the V^g X^n and U^g Y^N terms of P."""
    d = a.d
    if d.crossings == 0:
        return _verdict("span", True, "0-crossing diagram, span 0")
    a.require_reduced_alternating()
    g_a, g_b = a.tait
    jk = a.jk
    c, g = d.crossings, d.genus
    n = g_a.map.V - 1
    N = g_b.map.V - 1
    P = g_a.P
    collapsed = jk.z_collapsed()
    hi, lo = max(collapsed), min(collapsed)
    checks = {
        "span": jk.t_span() == c - g,
        "top coefficient": abs(collapsed[hi]) == 1,
        "bottom coefficient": abs(collapsed[lo]) == 1,
        "V^g X^n slot": P.coefficient_of(V=g, X=n) == 1,
        "U^g Y^N slot": P.coefficient_of(U=g, Y=N) == 1,
    }
    bad = [name for name, ok in checks.items() if not ok]
    if not bad:
        return _verdict("span", True, f"span {jk.t_span()} = c - g = {c - g}")
    return _verdict("span", False, f"failed: {', '.join(bad)}")


def verify_twist_formula(a: DiagramAnalysis) -> Verdict:
    """Union-find twist number against lambda + mu + lambda-bar + mu-bar - 2g.

    Hypothesis: no two crossings are parallel in both Tait graphs.  Such a
    pair closes a cycle in the graph that joins each crossing's parallel
    class in G_A to its class in G_B, and the formula falls short of the
    union-find count by the cycle rank of that graph."""
    by_classes = a.tau_by_classes
    for i, j, in_a, in_b in a.parallel_crossings:
        if in_a and in_b:
            raise HypothesisViolated(f"crossings {i} and {j} are parallel in both Tait graphs")
    by_formula = a.tau_by_formula
    detail = f"union-find {by_classes}, formula {by_formula}"
    return _verdict("twist_formula", by_classes == by_formula, detail)


def verify_tait_duality(a: DiagramAnalysis) -> Verdict:
    """The unshaded Tait graph is the dual map of the shaded one: dual(G_B)
    equals G_A exactly, with dual() applied to G_B's own map."""
    a.coloring()  # the 0-crossing unknot has no faces to compare
    g_a, g_b = a.tait
    ok = dual(g_b.map) == g_a.map
    return _verdict("tait_duality", ok, "dual(G_B) compared with G_A")


def verify_polynomial_duality(a: MapAnalysis, dual: MapAnalysis) -> Verdict:
    """p_G(x,y,u,v) = p_G*(y,x,v,u), with p_G* summed over `dual`, an
    analysis of a map equal or isomorphic to the dual: the other Tait graph
    in a full report, a.dual for a lone map."""
    p = a.p
    q = dual.p
    swapped = LaurentPoly(
        P_VARS, {(y, x, v, u): coeff for (x, y, u, v), coeff in q.terms.items()}
    )
    ok = p == swapped
    detail = "" if ok else f"{p.to_text()} != swapped dual {swapped.to_text()}"
    return _verdict("polynomial_duality", ok, detail)


def verify_subgraph_count(a: MapAnalysis) -> Verdict:
    """P(2,2,1,1) counts all spanning subgraphs: 2^E."""
    value = a.P.evaluate({"X": 2, "Y": 2, "U": 1, "V": 1})
    E = a.map.E
    return _verdict("subgraph_count", value == 2**E, f"P(2,2,1,1) = {value}, 2^E = {2**E}")


def verify_state_kernel(a: DiagramAnalysis) -> Verdict:
    """Every state of a colorable diagram has kernel dimension k(s) >= 1."""
    _, bad = a.state_sum
    return _verdict("state_kernel", bad == 0, f"{bad} states with k < 1")


def _loop_deletion_verdict(graphs: list[tuple[str, MapAnalysis]]) -> Verdict:
    """Check p_G = (1+y) p_(G-e) on the first homologically trivial loop found."""
    for side, a in graphs:
        loops = a.trivial_loops
        if loops:
            ok = loop_deletion_check(a, loops[0])
            return _verdict("loop_deletion", ok, f"trivial loop {loops[0]} of {side}")
    return _skipped("loop_deletion", "no homologically trivial loops")


def map_verdicts(
    graphs: list[tuple[str, MapAnalysis | None, MapAnalysis | None]], skip: str = ""
) -> list[Verdict]:
    """The verdicts on one map or on a Tait pair, given as (side, analysis,
    its dual's analysis) per graph: each graph's polynomial duality and three
    coefficient slots, named name[side] when there are two graphs, then the
    first graph's subgraph count and Tutte check, and loop deletion.  With
    `skip`, the analyses may be None and each row is skipped for that reason."""
    rows: list[Verdict] = []
    for side, a, dual in graphs:
        if skip:
            names = ("polynomial_duality", "mu_coefficient", "lambda_coefficient", "gamma_coefficient")
            found = [_skipped(name, skip) for name in names]
        else:
            found = [verify_polynomial_duality(a, dual), *verify_krushkal_coeffs(a)]
        if len(graphs) > 1:
            found = [Verdict(f"{v.name}[{side}]", v.status, v.detail) for v in found]
        rows += found
    if skip:
        names = ("subgraph_count", "tutte_specialization", "loop_deletion")
        return rows + [_skipped(name, skip) for name in names]
    first = graphs[0][1]
    rows.append(verify_subgraph_count(first))
    ok = tutte_check(first)
    rows.append(_verdict("tutte_specialization", ok, "rank polynomial by deletion-contraction"))
    rows.append(_loop_deletion_verdict([(side, a) for side, a, _ in graphs]))
    return rows


# -- volume bounds -----------------------------------------------------------------


def volume_bounds(tau_value: int, g: int) -> tuple[float, float]:
    """Two-sided bounds on the volume of the link complement in F x I from the
    homological twist number.  For g = 1: (v_oct/2 * tau, 10 v_tet * tau); for
    g >= 2: (v_oct/2 * (tau - 3 chi), 12 v_oct * tau) with chi = 2 - 2g."""
    if g == 0:
        raise GenusZero("volume bounds cover diagrams on positive-genus surfaces")
    if tau_value < 0:
        raise InputError(f"negative twist number {tau_value}")
    if g == 1:
        return (V_OCT / 2 * tau_value, 10 * V_TET * tau_value)
    return (V_OCT / 2 * (tau_value - 3 * (2 - 2 * g)), 12 * V_OCT * tau_value)


# -- the full report ---------------------------------------------------------------


@dataclass(frozen=True)
class InvariantReport:
    """Everything computable for one diagram, plus verifier verdicts."""

    crossings: int
    genus: int
    writhe: int
    components: int
    alternating: bool
    colorable: bool
    flags: ReducedFlags | None
    n: int | None
    N: int | None
    tait_a: ReducedGraphData | None
    tait_b: ReducedGraphData | None
    p: LaurentPoly | None
    P: LaurentPoly | None
    jones_krushkal: JKPoly | None
    jones: LaurentPoly | None
    t_span: Fraction | None
    tau: int | None
    tau_by_formula: int | None
    twist_regions: int
    volume_lower: float | None
    volume_upper: float | None
    volume_note: str
    verdicts: tuple[Verdict, ...]

    def to_json(self) -> dict:
        def poly(p):
            return None if p is None else p.to_report_json()

        def reduced(r: ReducedGraphData | None):
            return None if r is None else r.to_json()

        f = self.flags

        return {
            "crossings": self.crossings,
            "genus": self.genus,
            "writhe": self.writhe,
            "components": self.components,
            "alternating": self.alternating,
            "colorable": self.colorable,
            "flags": None
            if f is None
            else {
                "cellular": f.cellular,
                "nugatory_free": f.nugatory_free,
                "strongly_reduced": f.strongly_reduced,
            },
            "n": self.n,
            "N": self.N,
            "tait_a": reduced(self.tait_a),
            "tait_b": reduced(self.tait_b),
            "p": poly(self.p),
            "P": poly(self.P),
            "jones_krushkal": poly(self.jones_krushkal),
            "jones": poly(self.jones),
            "t_span": None if self.t_span is None else str(self.t_span),
            "tau": self.tau,
            "tau_by_formula": self.tau_by_formula,
            "twist_regions": self.twist_regions,
            "volume": None
            if self.volume_lower is None
            else {"lower": self.volume_lower, "upper": self.volume_upper},
            "volume_note": self.volume_note,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def _attempt(fn, *args):
    """(fn(*args), None), or (None, the reason) when a hypothesis fails; cap
    violations propagate."""
    try:
        return fn(*args), None
    except (CrossingCapExceeded, EdgeCapExceeded):
        raise
    except PreconditionError as exc:
        return None, str(exc)


def full_report(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> InvariantReport:
    """Run every computation and verifier that applies on one shared
    DiagramAnalysis, so that each quantity is computed once; hypothesis
    failures become skipped verdicts rather than errors.  Cap violations
    propagate."""
    check_crossing_cap(d, cap)
    a = DiagramAnalysis(d, cap)
    g = d.genus
    has_tait = d.crossings > 0 and a.colorable

    n = N = tait_a = tait_b = p = P = g_a = g_b = None
    if has_tait:
        g_a, g_b = a.tait
        n, N = g_a.map.V - 1, g_b.map.V - 1
        tait_a, tait_b = g_a.reduced, g_b.reduced
        p, P = g_a.p, g_a.P

    jk = jones = span = None
    if a.colorable:
        jk = a.jk
        jones = jk.jones_specialization()
        span = jk.t_span()

    tau_value, tau_why = _attempt(lambda: a.tau_by_classes)
    tau_form, _ = _attempt(lambda: a.tau_by_formula)

    volume_lower = volume_upper = None
    if tau_value is None:
        volume_note = f"twist number unavailable: {tau_why}"
    elif g == 0:
        volume_note = "genus-0 diagram: bounds out of scope"
    else:
        volume_lower, volume_upper, volume_note = a.volume

    verdicts: list[Verdict] = []
    for name, fn in (
        ("route_equality", verify_route_equality),
        ("jk_coefficients", verify_jk_coefficients),
        ("span", verify_span),
        ("twist_formula", verify_twist_formula),
        ("tait_duality", verify_tait_duality),
        ("state_kernel", verify_state_kernel),
    ):
        result, why = _attempt(fn, a)
        verdicts.append(result if result is not None else _skipped(name, why))

    no_tait = "" if has_tait else "no Tait graphs (0 crossings or not colorable)"
    verdicts += map_verdicts([("G_A", g_a, g_b), ("G_B", g_b, g_a)], no_tait)

    return InvariantReport(
        crossings=d.crossings,
        genus=g,
        writhe=writhe(d),
        components=len(d.components),
        alternating=a.alternating,
        colorable=a.colorable,
        flags=a.flags if a.colorable else None,
        n=n,
        N=N,
        tait_a=tait_a,
        tait_b=tait_b,
        p=p,
        P=P,
        jones_krushkal=jk,
        jones=jones,
        t_span=span,
        tau=tau_value,
        tau_by_formula=tau_form,
        twist_regions=twist_regions(d),
        volume_lower=volume_lower,
        volume_upper=volume_upper,
        volume_note=volume_note,
        verdicts=tuple(verdicts),
    )
