"""Shared fixtures: the bundled corpus and seeded random object generators.

Randomized tests draw from fixed-seed ``random.Random`` instances so every
run exercises the same objects; failures are reproducible from the seed.
"""

import random
from importlib import resources

import pytest

from slinv import (
    CombinatorialMap,
    Disconnected,
    NotCheckerboardColorable,
    SlinvError,
    checkerboard,
    parse_diagram,
    parse_map,
    reduced_flags,
    tait_graphs,
)
from slinv import invariants

SLD_NAMES = (
    "figure8.sld",
    "trefoil.sld",
    "vk2_1.sld",
    "vk4_105.sld",
    "vk4_106.sld",
    "weave2x2.sld",
)
RG_NAMES = (
    "genus2_bouquet.rg",
    "theta_sphere.rg",
    "torus_bouquet.rg",
    "trivial_loop.rg",
    "weave_tait_a.rg",
)


def corpus_text(name: str) -> str:
    return resources.files("slinv.data").joinpath(name).read_text()


def is_colorable(d) -> bool:
    try:
        checkerboard(d)
    except NotCheckerboardColorable:
        return False
    return True


# -- seeded random generators ---------------------------------------------------


def random_alternating_diagram_text(rng: random.Random, c: int) -> str:
    """Wire c crossings into a random alternating diagram encoding.

    Each crossing gets a random over-strand exit slot and a random sign
    (which fixes the under-strand exit); arcs then connect over-exits to
    under-entries and under-exits to over-entries through two random
    bijections, so every arc joins an over slot to an under slot.
    """
    over_out = [rng.choice((0, 2)) for _ in range(c)]
    sign = [rng.choice((1, -1)) for _ in range(c)]
    under_out = [(o + s) % 4 for o, s in zip(over_out, sign)]
    to_under = list(range(c))
    to_over = list(range(c))
    rng.shuffle(to_under)
    rng.shuffle(to_over)
    arcs = []
    for i in range(c):
        j = to_under[i]
        arcs.append(((i, over_out[i]), (j, (under_out[j] + 2) % 4)))
    for i in range(c):
        j = to_over[i]
        arcs.append(((i, under_out[i]), (j, (over_out[j] + 2) % 4)))
    lines = ["format sld 1", f"crossings {c}"]
    for a, (tail, head) in enumerate(arcs):
        lines.append(f"arc {a} {tail[0]}.{tail[1]} {head[0]}.{head[1]}")
    return "\n".join(lines) + "\n"


def sample_torus_diagrams(seed: int, count: int, c_lo: int = 3, c_hi: int = 8):
    """Random checkerboard-colorable alternating diagrams on the torus."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        c = rng.randint(c_lo, c_hi)
        try:
            d = parse_diagram(random_alternating_diagram_text(rng, c))
        except SlinvError:
            continue
        if d.genus != 1 or not is_colorable(d):
            continue
        out.append(d)
    return out


def sample_nugatory_free_diagrams(seed: int, count: int, c: int):
    """Random nugatory-free colorable alternating diagrams on the torus with
    c crossings, by rejection: sample_torus_diagrams draws none at c >= 10."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        try:
            d = parse_diagram(random_alternating_diagram_text(rng, c))
        except SlinvError:
            continue
        if d.genus == 1 and is_colorable(d) and reduced_flags(d).nugatory_free:
            out.append(d)
    return out


def random_ribbon_map(rng: random.Random, v_max: int = 4, e_max: int = 8):
    """One random connected combinatorial map, or None when the draw fails."""
    V = rng.randint(1, v_max)
    E = rng.randint(max(1, V - 1), e_max)
    at_vertex = [[] for _ in range(V)]
    for e in range(E):
        at_vertex[rng.randrange(V)].append(2 * e)
        at_vertex[rng.randrange(V)].append(2 * e + 1)
    if any(not halves for halves in at_vertex):
        return None
    for halves in at_vertex:
        rng.shuffle(halves)
    try:
        return CombinatorialMap(at_vertex, [(2 * e, 2 * e + 1) for e in range(E)])
    except Disconnected:
        return None


def sample_ribbon_maps(seed: int, count: int, genera=(1, 2), e_max: int = 8):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_ribbon_map(rng, e_max=e_max)
        if m is not None and m.genus in genera:
            out.append(m)
    return out


def square_lattice_edges(p: int, q: int) -> list[tuple[int, int]]:
    """The edges of the 4-valent diagonal lattice on Z_p x Z_q, whose medial
    diagram is the square weave W(p, q): vertices (i, j) with i + j even,
    numbered in row order, each joined to (i + 1, j + 1) and (i + 1, j - 1)."""
    number = {}
    for i in range(p):
        for j in range(q):
            if (i + j) % 2 == 0:
                number[i, j] = len(number)
    return [(number[i, j], number[(i + 1) % p, (j + s) % q]) for i, j in number for s in (1, -1)]


def rank_cache_size(edges: list[tuple[int, int]]) -> int:
    """The number of graphs one rank_polynomial(edges) call caches, read off
    the dict handed to invariants._rank_terms, which its recursion reaches
    through the module, by wrapping it for the call."""
    rank_terms, caches = invariants._rank_terms, {}

    def kept(graph, cache):
        caches[id(cache)] = cache
        return rank_terms(graph, cache)

    invariants._rank_terms = kept
    try:
        invariants.rank_polynomial(edges)
    finally:
        invariants._rank_terms = rank_terms
    (cache,) = caches.values()
    return len(cache)


# two meridian loops at different vertices of a torus, joined by two edges
# that run once around it: the loops are disjoint, homologous and parallel
TWO_MERIDIANS_RG = """format rg 1
vertex 0 0 4 3 5
vertex 1 2 6 1 7
edge 0 0 1
edge 1 2 3
edge 2 4 5
edge 3 6 7
"""


# -- fixtures ---------------------------------------------------------------------


@pytest.fixture(scope="session")
def diagrams():
    return {name: parse_diagram(corpus_text(name)) for name in SLD_NAMES}


@pytest.fixture(scope="session")
def colorable_diagrams(diagrams):
    return {name: d for name, d in diagrams.items() if is_colorable(d)}


@pytest.fixture(scope="session")
def maps():
    return {name: parse_map(corpus_text(name)) for name in RG_NAMES}


@pytest.fixture(scope="session")
def study_maps(maps, diagrams, colorable_diagrams):
    """Every embedded graph the corpus gives rise to: the bundled map files,
    each diagram's underlying 4-valent map, and both Tait graphs of each
    colorable diagram."""
    out = dict(maps)
    for name, d in diagrams.items():
        out[f"{name}:map"] = d.cmap
    for name, d in colorable_diagrams.items():
        pair = tait_graphs(d, checkerboard(d))
        out[f"{name}:tait_a"] = pair.g_a
        out[f"{name}:tait_b"] = pair.g_b
    return out


@pytest.fixture(scope="session")
def random_maps():
    return sample_ribbon_maps(seed=6060, count=40)


@pytest.fixture(scope="session")
def random_diagrams():
    return sample_torus_diagrams(seed=20240817, count=25, c_lo=3, c_hi=6)


@pytest.fixture(scope="session")
def nugatory_free_diagrams():
    """Three nugatory-free torus diagrams at c = 10 and three at c = 12, so
    that reports at those sizes reach the twist number (2,768 and 3,774
    draws)."""
    return [d for c in (10, 12) for d in sample_nugatory_free_diagrams(seed=99, count=3, c=c)]
