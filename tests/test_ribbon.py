"""Combinatorial maps: construction, duality, homology, subgraph profiles."""

import itertools
import random
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slinv.ribbon
from slinv import (
    CombinatorialMap,
    ContextMismatch,
    DanglingHalfEdge,
    Disconnected,
    EndpointsDiffer,
    HomologyContext,
    HomologyRankMismatch,
    InputError,
    NotALoop,
    NotInvolution,
    SpanningSubgraph,
    boundary_walks,
    chain_of_walk,
    checkerboard,
    cycle_of_pair,
    delete_edge,
    dual,
    edge_class,
    is_isomorphic,
    krushkal,
    parallel,
    parse_map,
    subgraph_numbers,
    subgraph_profile,
    subgraph_rows,
    subgraph_tally,
    tait_graphs,
)
from slinv.ribbon import edge_kernels, parallel_pairs, trivial_loops

from conftest import (
    RG_NAMES,
    TWO_MERIDIANS_RG,
    corpus_text,
    random_ribbon_map,
    sample_ribbon_maps,
    sample_torus_diagrams,
)


@pytest.fixture(scope="session")
def exhaustive_profiles(study_maps):
    """Profile of every spanning subgraph of every corpus-derived map."""
    rows = []
    for name, m in study_maps.items():
        ctx = HomologyContext(m)
        for mask in range(1 << m.E):
            edges = frozenset(e for e in m.edge_ids if mask >> e & 1)
            rows.append((name, m, subgraph_profile(SpanningSubgraph(m, edges), ctx)))
    return rows


def test_euler_identity_for_every_constructed_map(study_maps, random_maps):
    for m in list(study_maps.values()) + random_maps:
        assert m.V - m.E + m.F == 2 - 2 * m.genus
        assert m.genus >= 0


def test_double_dual_is_the_alpha_conjugate(study_maps, random_maps):
    # sigma* = phi^-1 gives sigma** = alpha sigma alpha: the same map with
    # every half-edge h renamed alpha(h), which alpha maps isomorphically
    for m in list(study_maps.values()) + random_maps:
        star = m.dual()
        assert (star.V, star.F, star.genus) == (m.F, m.V, m.genus)
        pairing = [(t, m.alpha[t]) for t in m.edge_tails]
        conjugate = CombinatorialMap(
            [[m.alpha[h] for h in rot] for rot in m.vertices], pairing, m.edge_tails
        )
        assert star.dual() == conjugate
        assert is_isomorphic(dual(dual(m)), m)
        # faces are found from starts in increasing order: each begins at its
        # least half-edge, and the list is sorted by it
        for faces in (m.faces, star.faces):
            assert all(walk[0] == min(walk) for walk in faces)
            assert [walk[0] for walk in faces] == sorted(walk[0] for walk in faces)
    # is_isomorphic also tells maps apart: two maps of unequal size, and a
    # genus-1 map and its mirror (every rotation reversed), whose counts
    # agree; while two edgeless maps are isomorphic
    m = random_maps[5]
    mirror = CombinatorialMap([rot[::-1] for rot in m.vertices], [(t, m.alpha[t]) for t in m.edge_tails])
    assert (mirror.V, mirror.E, mirror.F, mirror.genus) == (m.V, m.E, m.F, m.genus) == (4, 8, 4, 1)
    assert not is_isomorphic(m, mirror)
    assert random_maps[0].E != m.E and not is_isomorphic(random_maps[0], m)
    assert is_isomorphic(CombinatorialMap([()], []), CombinatorialMap([()], []))


def test_neighborhood_genus_identity_on_every_subgraph(exhaustive_profiles):
    # k(H) + g(F) + g(nbhd H) - g(complement) = b1(H)
    for name, m, prof in exhaustive_profiles:
        lhs = prof.k + m.genus + prof.s // 2 - prof.s_perp // 2
        assert lhs == prof.b1, f"{name}: {prof}"


def test_complement_genus_identity_on_every_subgraph(exhaustive_profiles):
    # g(nbhd H) + g(complement) + rank(boundary classes) = g(F)
    for name, m, prof in exhaustive_profiles:
        assert prof.s // 2 + prof.s_perp // 2 + prof.lam == m.genus, f"{name}: {prof}"


def test_perpendicular_genus_two_ways(exhaustive_profiles):
    # dual-complement computation against the rearranged rank identity
    for name, m, prof in exhaustive_profiles:
        rearranged = 2 * (prof.k + m.genus + prof.s // 2 - prof.b1)
        assert prof.s_perp == rearranged, f"{name}: {prof}"


def assert_numbers_match_profiles(name, m):
    """subgraph_numbers against the rational-homology profile, field by
    field, on every spanning subgraph of m; the depth-first subgraph_rows,
    the walk's own tally and the krushkal tally, against those per-mask
    rows; and the trivial loops and parallel pairs it decides, from the
    single-edge kernels or not, against the rational route."""
    ctx = HomologyContext(m)
    rows = []
    for mask in range(1 << m.E):
        edges = [e for e in m.edge_ids if mask >> e & 1]
        prof = subgraph_profile(SpanningSubgraph(m, frozenset(edges)), ctx)
        expected = (prof.components, prof.boundary_count, prof.s, prof.s_perp, prof.k)
        assert subgraph_numbers(m, edges) == expected, (name, edges)
        rows.append(expected)
    assert list(subgraph_rows(m)) == rows, name
    assert subgraph_tally(m) == Counter(subgraph_rows(m)), name
    tally = Counter((c - 1, k, s // 2, s_perp // 2) for c, _, s, s_perp, k in rows)
    assert krushkal(m).terms == tally, name
    pairs = {(e, f) for e, f in itertools.combinations(m.edge_ids, 2) if parallel(e, f, ctx)}
    k = edge_kernels(m)
    assert parallel_pairs(m, k) == pairs, name
    loops = [e for e in m.edge_ids if m.is_loop(e) and edge_class(e, ctx) == {}]
    assert trivial_loops(m, k) == loops, name


def test_subgraph_numbers_match_the_homology_profiles(study_maps):
    labelled = list(study_maps.items())
    labelled.append(("the edgeless map", CombinatorialMap([()], [])))
    for i, m in enumerate(sample_ribbon_maps(seed=2718, count=40, genera=(1, 2, 3))):
        labelled.append((f"random map {i} (genus {m.genus})", m))
    for i, d in enumerate(sample_torus_diagrams(seed=1618, count=12, c_lo=3, c_hi=7)):
        pair = tait_graphs(d, checkerboard(d))
        labelled += [(f"random diagram {i}: G_A", pair.g_a), (f"random diagram {i}: G_B", pair.g_b)]
    assert {m.genus for _, m in labelled} >= {0, 1, 2, 3}
    for name, m in labelled:
        assert_numbers_match_profiles(name, m)


@st.composite
def rotation_systems(draw):
    """A random rotation system with 1-6 edges on 1-4 vertices: a shuffle of
    the half-edges cut into vertex rotations, half-edges 2e and 2e+1 paired."""
    n_edges = draw(st.integers(1, 6))
    n_vertices = draw(st.integers(1, min(4, 2 * n_edges)))
    halves = draw(st.permutations(range(2 * n_edges)))
    cuts = draw(
        st.lists(
            st.integers(1, 2 * n_edges - 1),
            min_size=n_vertices - 1,
            max_size=n_vertices - 1,
            unique=True,
        )
    )
    bounds = [0, *sorted(cuts), 2 * n_edges]
    rotations = [halves[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return rotations, [(2 * e, 2 * e + 1) for e in range(n_edges)]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(rotation_systems(), st.integers(0, 7))
def test_subgraph_numbers_property(system, sweep_from):
    """assert_numbers_match_profiles on a drawn map, with the subgraph
    tally swept from a drawn number of edges on."""
    rotations, pairing = system
    try:
        m = CombinatorialMap(rotations, pairing)
    except Disconnected:
        return
    with mock.patch.object(slinv.ribbon, "_SWEEP_FROM", sweep_from):
        assert_numbers_match_profiles("drawn map", m)


def test_profiles_of_the_one_vertex_torus_map(maps):
    m = maps["torus_bouquet.rg"]
    ctx = HomologyContext(m)

    def prof(edges):
        return subgraph_profile(SpanningSubgraph(m, frozenset(edges)), ctx)

    empty = prof(())
    assert (empty.components, empty.s, empty.s_perp, empty.k) == (1, 0, 2, 0)
    assert (empty.b1, empty.boundary_count, empty.lam) == (0, 1, 0)

    one_loop = prof((0,))
    assert (one_loop.components, one_loop.s, one_loop.s_perp, one_loop.k) == (1, 0, 0, 0)
    assert (one_loop.b1, one_loop.boundary_count, one_loop.lam) == (1, 2, 1)

    both = prof((0, 1))
    assert (both.components, both.s, both.s_perp, both.k) == (1, 2, 0, 0)
    assert (both.b1, both.boundary_count, both.lam) == (2, 1, 0)


def test_full_subgraph_boundary_circles_are_the_faces(study_maps):
    for name, m in study_maps.items():
        if m.E == 0:
            continue
        assert len(boundary_walks(m, list(m.edge_ids))) == m.F, name


def test_face_boundary_chains_are_null_homologous(study_maps):
    for m in study_maps.values():
        ctx = HomologyContext(m)
        for walk in m.faces:
            assert ctx.in_B(chain_of_walk(m, walk))


def test_parallel_is_an_equivalence_relation(study_maps, random_maps):
    for m in list(study_maps.values())[:8] + random_maps[:12]:
        ctx = HomologyContext(m)
        edges = list(m.edge_ids)
        for e in edges:
            assert parallel(e, e, ctx)
        for e, f in itertools.combinations(edges, 2):
            assert parallel(e, f, ctx) == parallel(f, e, ctx)
        for e, f, g in itertools.combinations(edges, 3):
            if parallel(e, f, ctx) and parallel(f, g, ctx):
                assert parallel(e, g, ctx)


def test_parallel_known_cases(maps):
    theta = maps["theta_sphere.rg"]
    ctx = HomologyContext(theta)
    assert parallel(0, 1, ctx) and parallel(1, 2, ctx) and parallel(0, 2, ctx)

    bouquet = maps["torus_bouquet.rg"]
    ctx = HomologyContext(bouquet)
    assert not parallel(0, 1, ctx)  # meridian and longitude classes differ

    stacked = CombinatorialMap([(0, 1, 2, 3)], [(0, 1), (2, 3)])
    assert stacked.genus == 0
    ctx = HomologyContext(stacked)
    assert parallel(0, 1, ctx)  # two null-homologous loops


def _pairwise_parallel_pairs(m, k):
    """The parallel pairs by their definition, deciding every pair of edges."""
    return {
        (e, f)
        for e, f in itertools.combinations(m.edge_ids, 2)
        if k[e] == k[f] and subgraph_numbers(m, (e, f))[4] >= 1
    }


def test_parallel_pairs_keep_disjoint_homologous_loops():
    m = parse_map(TWO_MERIDIANS_RG)
    assert [m.endpoints(e) for e in m.edge_ids] == [(0, 1), (1, 0), (0, 0), (1, 1)]
    k = edge_kernels(m)
    assert k == [0, 0, 0, 0]
    # the two loops sit at different vertices; the two non-loops with the
    # same ends run around the torus, so they are not parallel
    assert parallel_pairs(m, k) == _pairwise_parallel_pairs(m, k) == {(2, 3)}


def test_parallel_pairs_and_kernels_equal_their_definitions(study_maps):
    """The single-edge kernels counted on loops only, and the parallel pairs
    decided only among loops and among non-loops with the same ends, equal
    the per-edge and pairwise definitions: on the corpus maps, seeded maps
    of genus 0-3 with up to 10 edges, and both Tait graphs of seeded torus
    diagrams."""
    rng = random.Random(1080)
    graphs = list(study_maps.values())
    while len(graphs) < len(study_maps) + 60:
        m = random_ribbon_map(rng, v_max=rng.choice((1, 2, 4)), e_max=10)
        if m is not None and m.genus <= 3:
            graphs.append(m)
    for d in sample_torus_diagrams(seed=1080, count=10, c_lo=6, c_hi=10):
        pair = tait_graphs(d, checkerboard(d))
        graphs += [pair.g_a, pair.g_b]
    for m in graphs:
        k = edge_kernels(m)
        assert k == [subgraph_numbers(m, (e,))[4] for e in m.edge_ids]
        assert parallel_pairs(m, k) == _pairwise_parallel_pairs(m, k)


def test_loop_classes_and_guards(maps):
    bouquet = maps["torus_bouquet.rg"]
    ctx = HomologyContext(bouquet)
    assert ctx.rank_mod_B([edge_class(0, ctx), edge_class(1, ctx)]) == 2

    trivial = maps["trivial_loop.rg"]
    ctx_t = HomologyContext(trivial)
    assert edge_class(0, ctx_t) == {}
    assert ctx_t.in_B({0: Fraction(1)})

    theta = maps["theta_sphere.rg"]
    with pytest.raises(NotALoop):
        edge_class(0, HomologyContext(theta))


def test_cycle_of_pair_guards_and_nullity(maps):
    theta = maps["theta_sphere.rg"]
    ctx = HomologyContext(theta)
    assert ctx.in_B(cycle_of_pair(0, 1, theta))
    bouquet = maps["torus_bouquet.rg"]
    with pytest.raises(EndpointsDiffer):
        cycle_of_pair(0, 1, bouquet)  # loops are out of scope
    two_path = CombinatorialMap([(0, 2), (1,), (3,)], [(0, 1), (2, 3)])
    with pytest.raises(EndpointsDiffer):
        cycle_of_pair(0, 1, two_path)  # distinct endpoint pairs


def test_homology_context_dimensions(study_maps, random_maps):
    for m in list(study_maps.values()) + random_maps:
        ctx = HomologyContext(m)
        assert ctx.h1_dim == 2 * m.genus
        assert len(ctx.cycle_basis) == m.E - m.V + 1


def test_homology_ranks_are_checked_without_assert(maps, monkeypatch):
    m = maps["torus_bouquet.rg"]
    monkeypatch.setattr(HomologyContext, "fundamental_cycles_of", lambda self, edges: [])
    with pytest.raises(HomologyRankMismatch):
        HomologyContext(m)


def test_context_for_the_wrong_map_is_rejected(maps):
    ctx = HomologyContext(maps["theta_sphere.rg"])
    other = maps["torus_bouquet.rg"]
    with pytest.raises(ContextMismatch):
        subgraph_profile(SpanningSubgraph(other, frozenset()), ctx)


def test_profiles_do_not_depend_on_edge_directions(random_maps):
    rng = random.Random(31337)
    for m in random_maps[:15]:
        tails = [rng.choice((m.tail_half(e), m.head_half(e))) for e in m.edge_ids]
        m2 = m.reoriented(tails)
        ctx, ctx2 = HomologyContext(m), HomologyContext(m2)
        for _ in range(10):
            edges = frozenset(e for e in m.edge_ids if rng.random() < 0.5)
            p1 = subgraph_profile(SpanningSubgraph(m, edges), ctx)
            p2 = subgraph_profile(SpanningSubgraph(m2, edges), ctx2)
            assert p1 == p2


def test_reoriented_rejects_foreign_half_edges(maps):
    m = maps["torus_bouquet.rg"]
    with pytest.raises(InputError):
        m.reoriented([0, 0])  # 0 is not a half-edge of edge 1


def test_delete_edge_relabels_densely(maps):
    m = maps["weave_tait_a.rg"]
    smaller = delete_edge(m, 1)
    assert (smaller.V, smaller.E) == (m.V, m.E - 1)
    assert smaller.n_half == 2 * smaller.E
    assert smaller.V - smaller.E + smaller.F == 2 - 2 * smaller.genus


def test_delete_edge_cannot_disconnect(maps):
    path = CombinatorialMap([(0,), (1,)], [(0, 1)])
    with pytest.raises(Disconnected):
        delete_edge(path, 0)


def test_construction_rejects_bad_permutation_data():
    with pytest.raises(NotInvolution):
        CombinatorialMap([(0, 1)], [(0, 0)])  # self-paired half-edge
    with pytest.raises(NotInvolution):
        CombinatorialMap([(0, 1, 2)], [(0, 1)])  # odd half-edge count
    with pytest.raises(NotInvolution):
        CombinatorialMap([(0, 1, 2, 3)], [(0, 1), (1, 2)])  # half-edge reused
    with pytest.raises(DanglingHalfEdge):
        CombinatorialMap([(0, 1)], [(0, 2)])  # pairing names a ghost
    with pytest.raises(DanglingHalfEdge):
        CombinatorialMap([(0, 3)], [(0, 3)])  # labels not dense
    with pytest.raises(DanglingHalfEdge):
        CombinatorialMap([(0, 1), (0, 2, 3)], [(0, 1), (2, 3)])  # listed twice
    with pytest.raises(Disconnected):
        CombinatorialMap([(0, 1), (2, 3)], [(0, 1), (2, 3)])  # two islands
    with pytest.raises(Disconnected):
        CombinatorialMap([], [])  # no vertices at all
    with pytest.raises(Disconnected):
        CombinatorialMap([(0, 1), ()], [(0, 1)])  # isolated vertex
    with pytest.raises(InputError):
        CombinatorialMap([(0, 1)], [(0, 1)], orientations=[0, 1])


def test_serialization_round_trips(study_maps, random_maps):
    for m in list(study_maps.values()) + random_maps:
        text = m.to_text()
        again = parse_map(text)
        assert again == m
        assert again.to_text() == text


def test_corpus_map_files_are_canonical():
    for name in RG_NAMES:
        text = corpus_text(name)
        assert parse_map(text).to_text() == text


def test_map_parser_rejects_malformed_text():
    good = "format rg 1\nvertex 0 0 1\nedge 0 0 1\n"
    assert parse_map(good).E == 1
    for bad in (
        "vertex 0 0 1\nedge 0 0 1\n",  # missing header
        "format rg 2\nvertex 0 0 1\nedge 0 0 1\n",  # wrong version
        "format rg 1\nvertex 0 0 1\nvertex 0\nedge 0 0 1\n",  # duplicate vertex
        "format rg 1\nvertex 1 0 1\nedge 0 0 1\n",  # vertex ids not dense
        "format rg 1\nvertex 0 0 1\nedge 3 0 1\n",  # edge ids not dense
        "format rg 1\nvertex 0 0 1\nedge 0 0 1 9\n",  # trailing token
        "format rg 1\nvertex 0 0 1\nloop 0 0 1\n",  # unknown directive
        "format rg 1\nvertex 0 zero 1\nedge 0 0 1\n",  # non-integer field
    ):
        with pytest.raises(InputError):
            parse_map(bad)


def test_comments_and_blank_lines_are_ignored():
    text = "# leading note\nformat rg 1\n\nvertex 0 0 1 # inline\nedge 0 0 1\n"
    assert parse_map(text).E == 1
