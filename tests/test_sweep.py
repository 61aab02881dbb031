"""The frontier sweep of the two 2^n tallies: forced on every input, the
state sum's and the subgraph sum's tally equal the Counter of the flat
walk's rows, which equal the per-mask oracles' rows, also in any order of
the items, and the sweep smooths far fewer times than there are masks."""

from collections import Counter
from functools import cache, partial
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slinv.ribbon
from slinv import (
    CombinatorialMap,
    HomologyContext,
    SpanningSubgraph,
    checkerboard,
    enumerate_states,
    parse_diagram,
    state_numbers,
    state_tally,
    subgraph_numbers,
    subgraph_profile,
    subgraph_rows,
    subgraph_tally,
    tait_graphs,
)

from conftest import sample_ribbon_maps, sample_torus_diagrams


def assert_the_sweep_tallies_the_rows(name, n, rows_of, tally_of, expected):
    """rows_of(), the flat walk's rows, against `expected`, the per-mask
    oracle's (or None), and tally_of() against their Counter with the sweep
    forced on every tally and with it off."""
    rows = rows_of()
    if expected is not None:
        assert rows == expected, name
    for sweep_from in (0, n + 1):
        with mock.patch.object(slinv.ribbon, "_SWEEP_FROM", sweep_from):
            assert tally_of() == Counter(rows), (name, sweep_from)


def test_the_sweep_tallies_the_flat_state_rows(diagrams):
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
        assert_the_sweep_tallies_the_rows(
            name, d.crossings, lambda: state_numbers(d), lambda: state_tally(d), expected
        )


def test_the_sweep_tallies_the_per_mask_subgraph_rows(maps):
    """The corpus maps, the edgeless map, both Tait graphs of seeded torus
    diagrams up to 10 crossings and seeded genus 1-3 maps up to 10 edges,
    against subgraph_numbers of each mask.  subgraph_numbers shares the
    walk's medial items, so on the maps of up to 8 edges its rows are also
    checked against the rational-homology profile of each mask."""
    labelled = [*maps.items(), ("the edgeless map", CombinatorialMap([()], []))]
    for i, d in enumerate(sample_torus_diagrams(seed=4243, count=4, c_lo=7, c_hi=10)):
        pair = tait_graphs(d, checkerboard(d))
        labelled += [(f"random diagram {i}: G_A", pair.g_a), (f"random diagram {i}: G_B", pair.g_b)]
    drawn = sample_ribbon_maps(seed=4244, count=12, genera=(1, 2, 3), e_max=10)
    labelled += [(f"random map {i}", m) for i, m in enumerate(drawn)]
    assert {m.genus for _, m in labelled} >= {0, 1, 2, 3}
    assert max(m.E for _, m in labelled) == 10
    assert sum(m.E <= 8 for _, m in labelled) >= 8
    for name, m in labelled:
        subgraphs = [[e for e in m.edge_ids if mask >> e & 1] for mask in range(1 << m.E)]
        expected = [subgraph_numbers(m, edges) for edges in subgraphs]
        if m.E <= 8:
            ctx = HomologyContext(m)
            profiles = [subgraph_profile(SpanningSubgraph(m, frozenset(edges)), ctx) for edges in subgraphs]
            assert expected == [(p.components, p.boundary_count, p.s, p.s_perp, p.k) for p in profiles], name
        assert_the_sweep_tallies_the_rows(
            name, m.E, lambda: subgraph_rows(m), lambda: subgraph_tally(m), expected
        )


@pytest.mark.parametrize("c, share", [(12, 32), (14, 128)], ids=["c=12", "c=14"])
def test_the_sweep_smooths_under_a_share_of_the_masks(monkeypatch, c, share):
    """A regression guard for the sweep and its order: on the seed-7
    diagram the state sum and the sum over a Tait graph each call smooth
    fewer than 2^c / 32 times at c = 12 and 2^c / 128 times at c = 14, where
    the flat walk calls it 2^(c+1) - 2 times (54 and 46 each in the sweep's
    order, 136 and 434 in input order)."""
    (d,) = sample_torus_diagrams(seed=7, count=1, c_lo=c, c_hi=c)
    g_a = tait_graphs(d, checkerboard(d)).g_a
    smooth, calls = slinv.ribbon.smooth, []

    def counted(*args):
        calls.append(args)
        return smooth(*args)

    monkeypatch.setattr(slinv.ribbon, "smooth", counted)
    for tally_of in (lambda: state_tally(d), lambda: subgraph_tally(g_a)):
        calls.clear()
        assert sum(tally_of().values()) == 1 << c
        assert 0 < len(calls) < (1 << c) // share


@cache
def permutation_cases():
    """(name, n, tally_of, the Counter of the flat walk's rows) of seeded
    torus diagrams, their shaded Tait graphs and genus 1-3 maps."""
    cases = []
    for i, d in enumerate(sample_torus_diagrams(seed=4251, count=3, c_lo=6, c_hi=10)):
        g_a = tait_graphs(d, checkerboard(d)).g_a
        cases.append((f"diagram {i}", d.crossings, partial(state_tally, d), Counter(state_numbers(d))))
        cases.append((f"diagram {i}: G_A", g_a.E, partial(subgraph_tally, g_a), Counter(subgraph_rows(g_a))))
    for i, m in enumerate(sample_ribbon_maps(seed=4252, count=4, genera=(1, 2, 3), e_max=10)):
        cases.append((f"map {i}", m.E, partial(subgraph_tally, m), Counter(subgraph_rows(m))))
    return cases


@settings(derandomize=True, max_examples=25, deadline=None)
@given(st.data())
def test_the_sweep_tally_does_not_depend_on_the_item_order(data):
    """Swept in any order of its items, a tally equals the Counter of the
    flat walk's rows, which are in mask order."""
    for name, n, tally_of, expected in permutation_cases():
        order = data.draw(st.permutations(range(n)), label=name)

        def fixed(choices, ends):
            assert len(choices) == n, name
            return order

        with mock.patch.object(slinv.ribbon, "_SWEEP_FROM", 0), mock.patch.object(
            slinv.ribbon, "_sweep_order", fixed
        ):
            assert tally_of() == expected, (name, order)
