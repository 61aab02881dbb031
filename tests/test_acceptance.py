"""Acceptance suite: one test per shipped guarantee, each with its stated
tolerance and time budget.  Golden values are hard-coded; random families are
seeded and freshly generated here rather than shared with the unit tests."""

import time
from fractions import Fraction

import pytest

from slinv import (
    DiagramAnalysis,
    HomologyContext,
    JKPoly,
    LaurentPoly,
    MapAnalysis,
    PreconditionError,
    SpanningSubgraph,
    full_report,
    jones_krushkal_statesum,
    jones_krushkal_via_P,
    kauffman_bracket_jones,
    loop_deletion_check,
    subgraph_profile,
    tau,
    tutte_check,
    twist_regions,
    verify_krushkal_coeffs,
    verify_polynomial_duality,
    verify_route_equality,
    verify_subgraph_count,
    volume_bounds,
)
from slinv.invariants import BIG_VARS, rank_polynomial

from conftest import rank_cache_size, sample_ribbon_maps, sample_torus_diagrams, square_lattice_edges


def report_data_tuple(r):
    """(g, mu, lambda, gamma, mu-bar, lambda-bar, gamma-bar, c, w, n, N)."""
    return (
        r.genus,
        r.tait_a.mu,
        r.tait_a.lam,
        r.tait_a.gamma,
        r.tait_b.mu,
        r.tait_b.lam,
        r.tait_b.gamma,
        r.crossings,
        r.writhe,
        r.n,
        r.N,
    )


def assert_golden_report(d, P_text, jk_text, tau_value, data, budget=1.0):
    start = time.monotonic()
    report = full_report(d)
    elapsed = time.monotonic() - start
    assert report.P == LaurentPoly.parse(P_text, BIG_VARS)
    assert report.jones_krushkal == JKPoly.parse(jk_text)
    assert report.tau == report.tau_by_formula == tau_value
    assert report_data_tuple(report) == data
    assert not [v.name for v in report.verdicts if v.status == "fail"]
    assert elapsed < budget, f"report took {elapsed:.2f}s"
    return report


def test_weave_diagram_golden_report(diagrams):
    assert_golden_report(
        diagrams["weave2x2.sld"],
        "V*X + U*Y + 3*V + 3*U + 6",
        "-t^-9/2 + 3*t^-7/2 + 3*t^-5/2 - t^-3/2 + 6*z*t^-3",
        4,
        (1, 3, 0, 0, 3, 0, 0, 4, -4, 1, 1),
    )


def test_vk4_106_golden_report(diagrams):
    report = assert_golden_report(
        diagrams["vk4_106.sld"],
        "U*X + U*Y + V*X + V + 2*X + U + Y + 2",
        "-t^-3 + t^-2 - 1 - z*t^-5/2 + 2*z*t^-3/2 - 2*z*t^-1/2",
        3,
        (1, 1, 2, 1, 1, 1, 0, 4, -2, 1, 1),
    )
    assert report.jones == LaurentPoly.const(("t",), 1, (4,))


def test_vk4_105_golden_report(diagrams):
    assert_golden_report(
        diagrams["vk4_105.sld"],
        "V*X^2 + U + V + 2*X + 2*V*X + 2",
        "t^-4 + t^-3 - 2*t^-2 + t^-1 + 2*z*t^-7/2 - 2*z*t^-5/2",
        2,
        (1, 2, 0, 0, 0, 2, 1, 4, -4, 2, 0),
    )


def test_volume_interval_contains_four_octahedra():
    lower, upper = volume_bounds(4, 1)
    assert lower == pytest.approx(7.32772, abs=1e-4)
    assert upper == pytest.approx(40.5976, abs=1e-4)
    assert lower < 4 * 3.66386 < upper


def test_state_sum_equals_specialization_on_corpus_and_random_diagrams(diagrams):
    start = time.monotonic()
    checked = 0
    for name, d in diagrams.items():
        try:
            verdict = verify_route_equality(DiagramAnalysis(d))
        except PreconditionError:
            continue  # the one non-alternating diagram has no second route
        assert verdict.passed, f"{name}: {verdict.detail}"
        checked += 1
    assert checked == 5
    for d in sample_torus_diagrams(seed=514229, count=100, c_lo=3, c_hi=8):
        assert jones_krushkal_statesum(d) == jones_krushkal_via_P(d)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 105
    assert elapsed < 60, f"route comparison took {elapsed:.2f}s"


def test_coefficient_slots_on_random_ribbon_maps():
    start = time.monotonic()
    maps = sample_ribbon_maps(seed=904524, count=100, genera=(1, 2))
    genera_seen = set()
    loop_checks = 0
    for m in maps:
        genera_seen.add(m.genus)
        # one analysis per map: p, P, the reduction and the dual's p are
        # summed once and shared by every verifier below; the rational
        # homology picks the trivial loop, and loop_deletion_check's
        # integer route checks it
        a = MapAnalysis(m)
        ctx, data = HomologyContext(m), a.reduced
        verdicts = {v.name: v for v in verify_krushkal_coeffs(a)}
        assert verdicts["mu_coefficient"].passed
        assert verdicts["lambda_coefficient"].passed
        if data.has_3petal:
            assert verdicts["gamma_coefficient"].status == "skipped"
        else:
            assert verdicts["gamma_coefficient"].passed
        assert verify_polynomial_duality(a, a.dual).passed
        assert verify_subgraph_count(a).passed
        assert tutte_check(a)
        for e in m.edge_ids:
            if m.is_loop(e) and ctx.in_B({e: Fraction(1)}):
                assert loop_deletion_check(a, e)
                loop_checks += 1
                break
    elapsed = time.monotonic() - start
    assert genera_seen == {1, 2}
    assert len(maps) == 100
    assert elapsed < 120, f"random-map sweep took {elapsed:.2f}s"


def test_classical_alternating_knots_regression(diagrams):
    for name in ("trefoil.sld", "figure8.sld"):
        d = diagrams[name]
        jk = jones_krushkal_statesum(d)
        assert not jk.has_z_terms(), name
        jones = jk.jones_specialization()
        assert jones == kauffman_bracket_jones(d), name
        assert tau(d) == twist_regions(d), name
        # twist number = |sub-extremal Jones coefficients|, absent terms count 0
        lo = min(e for (e,) in jones.terms)
        hi = max(e for (e,) in jones.terms)
        sub = abs(jones.coefficient((lo + 4,))) + abs(jones.coefficient((hi - 4,)))
        assert tau(d) == sub, name


def test_subgraph_identities_exhaustive_on_corpus_maps(study_maps):
    start = time.monotonic()
    profiles = 0
    for name, m in study_maps.items():
        assert m.E <= 10, f"{name}: exhaustive sweep expects small maps"
        ctx = HomologyContext(m)
        edge_list = list(m.edge_ids)
        for mask in range(1 << m.E):
            edges = frozenset(e for i, e in enumerate(edge_list) if mask >> i & 1)
            prof = subgraph_profile(SpanningSubgraph(m, edges), ctx)
            assert prof.k + m.genus + prof.s // 2 - prof.s_perp // 2 == prof.b1, name
            assert prof.s // 2 + prof.s_perp // 2 + prof.lam == m.genus, name
            assert prof.s_perp == 2 * (
                prof.k + m.genus + prof.s // 2 - prof.b1
            ), name
            profiles += 1
    elapsed = time.monotonic() - start
    assert profiles >= 2 ** 8  # the diagram maps alone contribute 256-subset sweeps
    assert elapsed < 60, f"exhaustive sweep took {elapsed:.2f}s"


def test_tutte_oracle_on_the_square_weave_lattices():
    """The rank polynomial of the lattice under W(4,6), best of three runs,
    within 0.5 s; the one under W(4,4) meets 62 distinct graphs, the count
    its parallel classes and first-sight cache give."""
    edges = square_lattice_edges(4, 6)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        terms = rank_polynomial(edges)
        best = min(best, time.perf_counter() - start)
    assert sum(terms.values()) == 2 ** len(edges)
    assert best < 0.5, f"W(4,6) rank polynomial took {best:.3f}s"
    assert rank_cache_size(square_lattice_edges(4, 4)) == 62
