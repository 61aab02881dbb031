"""The Tutte oracle: rank_polynomial against a sum over all edge subsets and
against closed counts on the W(4,6) lattice."""

import random

from slinv import MapAnalysis, parse_map, tutte_check
from slinv.invariants import rank_polynomial

from conftest import RG_NAMES, TWO_MERIDIANS_RG, corpus_text, random_ribbon_map, square_lattice_edges


def subset_rank_polynomial(edges):
    """sum over edge sets A of x^(r(E) - r(A)) y^(|A| - r(A)), one set at a
    time, with r(A) = |vertices| minus the components of A."""
    vertices = sorted({v for edge in edges for v in edge})

    def rank(chosen):
        label = {v: v for v in vertices}
        for a, b in chosen:
            la, lb = label[a], label[b]
            if la != lb:
                label = {v: la if l == lb else l for v, l in label.items()}
        return len(vertices) - len(set(label.values()))

    full = rank(edges)
    terms = {}
    for mask in range(1 << len(edges)):
        chosen = [edge for i, edge in enumerate(edges) if mask >> i & 1]
        r = rank(chosen)
        key = (full - r, len(chosen) - r)
        terms[key] = terms.get(key, 0) + 1
    return terms


def seeded_maps(seed, per_size, e_max):
    """`per_size` seeded maps of genus 0-3 with each edge count 1..e_max:
    bouquets of loops, two-vertex maps full of parallel edges, and maps on
    up to five vertices."""
    rng = random.Random(seed)
    out = []
    for edges in range(1, e_max + 1):
        found = 0
        while found < per_size:
            m = random_ribbon_map(rng, v_max=rng.choice((1, 2, 2, 3, 5)), e_max=edges)
            if m is not None and m.E == edges and m.genus <= 3:
                out.append(m)
                found += 1
    return out


def test_rank_polynomial_is_the_sum_over_edge_subsets():
    maps = [parse_map(corpus_text(name)) for name in RG_NAMES] + [parse_map(TWO_MERIDIANS_RG)]
    maps += seeded_maps(seed=12, per_size=4, e_max=12)
    assert {m.genus for m in maps} == {0, 1, 2, 3}
    assert any(m.V == 1 and m.E >= 6 for m in maps)  # loops only
    assert any(m.V == 2 and m.E >= 8 for m in maps)  # large parallel classes
    for m in maps:
        edges = [m.endpoints(e) for e in m.edge_ids]
        assert rank_polynomial(edges) == subset_rank_polynomial(edges), m
        assert tutte_check(MapAnalysis(m))


def test_rank_polynomial_of_a_multigraph_with_loops_and_a_bridge():
    # a triple edge 0-1 with a loop at 1, then a bridge 1-2 with two loops at 2
    edges = [(0, 1), (1, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 2)]
    assert rank_polynomial(edges) == subset_rank_polynomial(edges)
    assert rank_polynomial([]) == {(0, 0): 1}
    assert rank_polynomial([(4, 4)]) == {(0, 0): 1, (0, 1): 1}


def kirchhoff_count(edges):
    """Spanning trees of a connected multigraph: a cofactor of its Laplacian,
    by fraction-free (Bareiss) elimination.  The cofactor is positive
    definite, so no pivot is 0."""
    n = 1 + max(v for edge in edges for v in edge)
    laplacian = [[0] * n for _ in range(n)]
    for a, b in edges:
        if a != b:
            laplacian[a][a] += 1
            laplacian[b][b] += 1
            laplacian[a][b] -= 1
            laplacian[b][a] -= 1
    rows = [row[1:] for row in laplacian[1:]]
    size, previous = n - 1, 1
    for i in range(size):
        for r in range(i + 1, size):
            for c in range(i + 1, size):
                rows[r][c] = (rows[r][c] * rows[i][i] - rows[r][i] * rows[i][c]) // previous
        previous = rows[i][i]
    return rows[-1][-1]


def test_rank_polynomial_of_the_w46_lattice():
    edges = square_lattice_edges(4, 6)
    assert (len({v for edge in edges for v in edge}), len(edges)) == (12, 24)
    terms = rank_polynomial(edges)
    assert sum(terms.values()) == 2**24  # R(1, 1) counts every edge set
    trees = kirchhoff_count(edges)
    assert trees > 0
    assert terms.get((0, 0), 0) == trees  # R(0, 0) counts the spanning trees
    # x's power is at most r(E) = 11, and y's at most |E| - r(E) = 13
    assert max(i for i, _ in terms) == 11 and max(j for _, j in terms) == 13
