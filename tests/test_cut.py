"""The cut of the two 2^n walks: at every cut depth k, the state walk and the
subgraph walk give the rows and the tally of one flat walk (k = 0), and the
default depth walks far fewer leaves than there are states."""

from collections import Counter
from unittest import mock

import slinv.ribbon
from slinv import (
    checkerboard,
    enumerate_states,
    parse_diagram,
    state_numbers,
    state_tally,
    subgraph_numbers,
    subgraph_rows,
    subgraph_tally,
    tait_graphs,
)

from conftest import sample_ribbon_maps, sample_torus_diagrams


def cut_at(k):
    """Force the cut depth of both walks to k."""
    return mock.patch.object(slinv.ribbon, "_cut_depth", lambda n: k)


def assert_every_cut_matches(name, n, rows_of, tally_of, expected):
    """rows_of() and tally_of() at every k in 0..n against the flat walk's,
    and the rows against `expected`, the per-mask oracle's (or None)."""
    with cut_at(0):
        flat_rows, flat_tally = rows_of(), tally_of()
    if expected is not None:
        assert flat_rows == expected, name
    assert flat_tally == Counter(flat_rows), name
    for k in range(n + 1):
        with cut_at(k):
            assert rows_of() == flat_rows, (name, k)
            assert tally_of() == flat_tally, (name, k)


def test_every_cut_of_the_state_walk_gives_the_flat_rows(diagrams):
    """The corpus (the non-colorable knot and the 0-crossing unknot
    included) and seeded torus diagrams up to 7 crossings against the
    rational-homology states, and seeded ones up to 10 against the flat
    walk."""
    labelled = [(name, d, True) for name, d in diagrams.items()]
    labelled.append(("unknot", parse_diagram("format sld 1\ncrossings 0\n"), True))
    seeded = sample_torus_diagrams(seed=4247, count=6, c_lo=5, c_hi=10)
    assert max(d.crossings for d in seeded) == 10
    labelled += [(f"random[{i}]", d, d.crossings <= 7) for i, d in enumerate(seeded)]
    for name, d, oracle in labelled:
        expected = [(s.b, s.size, s.r) for s in enumerate_states(d)] if oracle else None
        assert_every_cut_matches(
            name, d.crossings, lambda: state_numbers(d), lambda: state_tally(d), expected
        )


def test_every_cut_of_the_subgraph_walk_gives_the_per_mask_rows(maps):
    """The corpus maps, both Tait graphs of seeded torus diagrams up to 10
    crossings and seeded genus 1-3 maps up to 10 edges, against
    subgraph_numbers of each mask."""
    labelled = list(maps.items())
    for i, d in enumerate(sample_torus_diagrams(seed=4243, count=4, c_lo=7, c_hi=10)):
        pair = tait_graphs(d, checkerboard(d))
        labelled += [(f"random diagram {i}: G_A", pair.g_a), (f"random diagram {i}: G_B", pair.g_b)]
    drawn = sample_ribbon_maps(seed=4244, count=12, genera=(1, 2, 3), e_max=10)
    labelled += [(f"random map {i}", m) for i, m in enumerate(drawn)]
    assert {m.genus for _, m in labelled} >= {0, 1, 2, 3}
    assert max(m.E for _, m in labelled) == 10
    for name, m in labelled:
        expected = [
            subgraph_numbers(m, [e for e in m.edge_ids if mask >> e & 1]) for mask in range(1 << m.E)
        ]
        assert_every_cut_matches(name, m.E, lambda: subgraph_rows(m), lambda: subgraph_tally(m), expected)


def test_the_cut_walks_fewer_than_half_as_many_leaves_as_masks(monkeypatch):
    """A regression guard: at c = 12 the top leaves plus the bottom leaves
    of each distinct signature stay under 2^c / 2, for the state sum and
    for the sum over a Tait graph."""
    (d,) = sample_torus_diagrams(seed=7, count=1, c_lo=12, c_hi=12)
    g_a = tait_graphs(d, checkerboard(d)).g_a
    walk, leaves = slinv.ribbon._walk, []

    def counted(state, e, key):
        steps, _, last, _ = state
        if e == last:
            leaves.extend(steps[e])
        walk(state, e, key)

    monkeypatch.setattr(slinv.ribbon, "_walk", counted)
    for tally_of in (lambda: state_tally(d), lambda: subgraph_tally(g_a)):
        leaves.clear()
        assert sum(tally_of().values()) == 1 << 12
        assert 0 < len(leaves) < (1 << 12) // 2
