"""Graph polynomials, reduced-graph statistics, twist numbers, volume bounds,
the two Jones routes, and the aggregate report."""

import gc
import json
import random
import sys
from collections import Counter
from fractions import Fraction
from unittest import mock

import pytest

from slinv import (
    CURVE_BINOMIAL,
    Coloring,
    CombinatorialMap,
    CrossingCapExceeded,
    DiagramAnalysis,
    EdgeCapExceeded,
    GenusZero,
    HypothesisViolated,
    InputError,
    JKPoly,
    LaurentPoly,
    MapAnalysis,
    NotAlternating,
    NotTrivialLoop,
    big_P,
    checkerboard,
    full_report,
    is_isomorphic,
    jones_krushkal_statesum,
    jones_krushkal_via_P,
    jones_specialization,
    kauffman_bracket_jones,
    krushkal,
    loop_deletion_check,
    parse_diagram,
    parse_map,
    reduce,
    reduced_flags,
    state_numbers,
    state_tally,
    tait_graphs,
    tau,
    tau_formula,
    tutte_check,
    twist_regions,
    verify_jk_coefficients,
    verify_krushkal_coeffs,
    verify_tait_duality,
    verify_twist_formula,
    volume_bounds,
    writhe,
)
from slinv.cli import main
from slinv.invariants import BIG_VARS, FORMAL_BOUNDS_NOTE, P_VARS, _shifted, _specialized, _state_sum, _weight

from conftest import TWO_MERIDIANS_RG, corpus_text, sample_ribbon_maps, sample_torus_diagrams

T_RING, T_SCALE = ("t",), (4,)
STACKED_LOOPS = CombinatorialMap([(0, 1, 2, 3)], [(0, 1), (2, 3)])


def t_poly(text: str) -> LaurentPoly:
    return LaurentPoly.parse(text, T_RING, T_SCALE)


def test_torus_bouquet_polynomials(maps):
    m = maps["torus_bouquet.rg"]
    assert krushkal(m) == LaurentPoly.parse("u + v + 2", P_VARS)
    assert big_P(m) == LaurentPoly.parse("U + V + 2", BIG_VARS)


def test_torus_bouquet_reduction_and_coefficient_slots(maps):
    m = maps["torus_bouquet.rg"]
    data = reduce(MapAnalysis(m))
    assert (data.lam, data.mu, data.gamma) == (2, 0, 1)
    assert data.trivial_loops_deleted == 0
    assert not data.has_3petal
    assert len(data.kept_edges) == 2
    verdicts = {v.name: v for v in verify_krushkal_coeffs(MapAnalysis(m))}
    assert set(verdicts) == {"mu_coefficient", "lambda_coefficient", "gamma_coefficient"}
    assert all(v.passed for v in verdicts.values())
    # the slots themselves, by hand: constant term 2 is lambda, [U] = 1 is gamma
    P = big_P(m)
    assert P.coefficient_of() == 2
    assert P.coefficient_of(U=1) == 1


def test_genus_two_bouquet_coefficient_slots(maps):
    m = maps["genus2_bouquet.rg"]
    assert (m.V, m.E, m.genus) == (1, 4, 2)
    data = reduce(MapAnalysis(m))
    assert (data.lam, data.mu, data.gamma) == (4, 0, 2)
    assert not data.has_3petal
    assert all(v.passed for v in verify_krushkal_coeffs(MapAnalysis(m)))


def test_theta_graph_polynomial_and_reduction(maps):
    m = maps["theta_sphere.rg"]
    assert krushkal(m) == LaurentPoly.parse("x + y^2 + 3*y + 3", P_VARS)
    assert big_P(m) == LaurentPoly.parse("X + Y^2 + Y", BIG_VARS)
    data = reduce(MapAnalysis(m))
    assert len(data.kept_edges) == 1  # three mutually parallel edges
    assert (data.lam, data.mu, data.gamma, data.trivial_loops_deleted) == (0, 0, 0, 0)
    assert tutte_check(MapAnalysis(m))
    verdicts = {v.name: v.status for v in verify_krushkal_coeffs(MapAnalysis(m))}
    assert verdicts["mu_coefficient"] == "pass"
    # the lambda and gamma slots sit at V^(g-1): absent on the sphere
    assert verdicts["lambda_coefficient"] == "skipped"
    assert verdicts["gamma_coefficient"] == "skipped"


def test_single_trivial_loop(maps):
    m = maps["trivial_loop.rg"]
    assert big_P(m) == LaurentPoly.var(BIG_VARS, "Y")
    data = reduce(MapAnalysis(m))
    assert data.kept_edges == ()
    assert data.trivial_loops_deleted == 1
    assert (data.lam, data.mu, data.gamma) == (0, 0, 0)
    assert loop_deletion_check(MapAnalysis(m), 0)


def test_stacked_trivial_loops_factor_completely():
    m = STACKED_LOOPS
    assert m.genus == 0
    one_plus_y = LaurentPoly.parse("y + 1", P_VARS)
    assert krushkal(m) == one_plus_y * one_plus_y
    assert loop_deletion_check(MapAnalysis(m), 0)
    assert loop_deletion_check(MapAnalysis(m), 1)
    assert reduce(MapAnalysis(m)).trivial_loops_deleted == 2


def test_loop_deletion_requires_a_trivial_loop(maps):
    with pytest.raises(NotTrivialLoop):
        loop_deletion_check(MapAnalysis(maps["theta_sphere.rg"]), 0)  # not a loop
    with pytest.raises(NotTrivialLoop):
        loop_deletion_check(MapAnalysis(maps["torus_bouquet.rg"]), 0)  # homologically essential


def test_bundled_tait_graph_matches_the_weave(maps, diagrams):
    d = diagrams["weave2x2.sld"]
    pair = tait_graphs(d, checkerboard(d))
    assert is_isomorphic(maps["weave_tait_a.rg"], pair.g_a)


def _edges_shifted(m: CombinatorialMap, s: int) -> CombinatorialMap:
    """m with its edge ids shifted cyclically: new edge e is old edge
    (e + s) mod E, on the same rotations and half-edges."""
    tails = [m.edge_tails[(e + s) % m.E] for e in m.edge_ids]
    return CombinatorialMap(m.vertices, [(t, m.alpha[t]) for t in tails], tails)


def test_reduction_is_independent_of_representative_choice(diagrams):
    """reduce keeps the lowest edge id of each parallel class; relabelling
    the edges by a cyclic shift makes it keep another edge of each class of
    two or more, and the reduced statistics stay the same."""
    for name in ("trefoil.sld", "weave2x2.sld", "vk4_106.sld"):
        d = diagrams[name]
        pair = tait_graphs(d, checkerboard(d))
        for m in (pair.g_a, pair.g_b):
            stats, kept = set(), set()
            for s in range(m.E):
                graph = MapAnalysis(_edges_shifted(m, s))
                r = reduce(graph)
                stats.add((r.lam, r.mu, r.gamma, r.trivial_loops_deleted, r.has_3petal))
                kept.add(frozenset((e + s) % m.E for e in r.kept_edges))
                assert all(v.status != "fail" for v in verify_krushkal_coeffs(graph))
            assert len(stats) == 1, name
            if MapAnalysis(m).parallel_pairs:
                assert len(kept) > 1, name


TAU_GOLDENS = {
    "figure8.sld": 2,
    "trefoil.sld": 1,
    "vk4_105.sld": 2,
    "vk4_106.sld": 3,
    "weave2x2.sld": 4,
}


def test_twist_number_goldens_and_formula_agreement(diagrams):
    for name, expected in TAU_GOLDENS.items():
        d = diagrams[name]
        assert tau(d) == expected, name
        assert tau_formula(d) == expected, name


# a c = 4 torus diagram whose crossings 0 and 3 are parallel in both Tait
# graphs: union-find 3 and twist regions 3, but the formula gives 2
DOUBLY_PARALLEL = """format sld 1
crossings 4
arc 0 0.2 3.1
arc 1 1.2 2.1
arc 2 2.0 0.3
arc 3 3.0 1.1
arc 4 0.1 3.2
arc 5 1.3 2.2
arc 6 2.3 1.0
arc 7 3.3 0.0
"""


def test_twist_formula_skips_crossings_parallel_in_both_tait_graphs():
    d = parse_diagram(DOUBLY_PARALLEL)
    assert (tau(d), tau_formula(d), twist_regions(d)) == (3, 2, 3)
    with pytest.raises(HypothesisViolated, match="crossings 0 and 3"):
        verify_twist_formula(DiagramAnalysis(d))
    report = full_report(d)
    (verdict,) = [v for v in report.verdicts if v.name == "twist_formula"]
    assert verdict.status == "skipped"
    assert verdict.detail == "crossings 0 and 3 are parallel in both Tait graphs"
    assert (report.tau, report.tau_by_formula) == (3, 2)


def test_twist_formula_still_fails_on_a_wrong_formula_value(diagrams):
    d = diagrams["weave2x2.sld"]
    assert verify_twist_formula(DiagramAnalysis(d)).passed
    a = DiagramAnalysis(d)
    a.tau_by_formula = 5  # overrides the cached property
    verdict = verify_twist_formula(a)
    assert verdict.status == "fail"
    assert verdict.detail == "union-find 4, formula 5"


def test_twist_number_requires_alternating(diagrams):
    with pytest.raises(NotAlternating):
        tau(diagrams["vk2_1.sld"])
    with pytest.raises(NotAlternating):
        tau_formula(diagrams["vk2_1.sld"])


def test_twist_regions_goldens(diagrams):
    expected = {
        "figure8.sld": 2,
        "trefoil.sld": 1,
        "vk2_1.sld": 1,
        "vk4_105.sld": 2,
        "vk4_106.sld": 3,
        "weave2x2.sld": 4,
    }
    for name, value in expected.items():
        assert twist_regions(diagrams[name]) == value, name
    for name, t in TAU_GOLDENS.items():
        assert t <= twist_regions(diagrams[name]) <= 2 * t, name


def test_swapping_the_coloring_swaps_the_tait_graphs(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        coloring = checkerboard(d)
        swapped = Coloring(shaded=coloring.unshaded, unshaded=coloring.shaded)
        pair = tait_graphs(d, coloring)
        mirror = tait_graphs(d, swapped)
        assert is_isomorphic(mirror.g_a, pair.g_b), name
        assert is_isomorphic(mirror.g_b, pair.g_a), name
        ra, rb = reduce(MapAnalysis(pair.g_a)), reduce(MapAnalysis(pair.g_b))
        ma, mb = reduce(MapAnalysis(mirror.g_a)), reduce(MapAnalysis(mirror.g_b))
        assert (ma.lam, ma.mu, ma.gamma) == (rb.lam, rb.mu, rb.gamma), name
        assert (mb.lam, mb.mu, mb.gamma) == (ra.lam, ra.mu, ra.gamma), name


def test_volume_bounds_known_values():
    lo, hi = volume_bounds(4, 1)
    assert lo == pytest.approx(7.32772, abs=1e-4)
    assert hi == pytest.approx(40.5976, abs=1e-4)
    assert lo < 4 * 3.66386 < hi  # four ideal octahedra fit in the interval
    lo2, hi2 = volume_bounds(5, 2)
    assert lo2 == pytest.approx(3.66386 / 2 * 11, abs=1e-9)
    assert hi2 == pytest.approx(12 * 3.66386 * 5, abs=1e-9)


def test_volume_bounds_rejections_and_edge_cases():
    with pytest.raises(GenusZero):
        volume_bounds(3, 0)
    with pytest.raises(InputError):
        volume_bounds(-1, 1)
    assert volume_bounds(0, 1) == (0.0, 0.0)
    for t in range(4):
        lo, hi = volume_bounds(t, 1)
        lo_next, _ = volume_bounds(t + 1, 1)
        assert lo <= hi and lo < lo_next


def test_classical_jones_goldens(diagrams):
    trefoil = diagrams["trefoil.sld"]
    figure8 = diagrams["figure8.sld"]
    assert kauffman_bracket_jones(trefoil) == t_poly("-t^-4 + t^-3 + t^-1")
    assert kauffman_bracket_jones(figure8) == t_poly("t^-2 - t^-1 + 1 - t + t^2")
    for d in (trefoil, figure8):
        jk = jones_krushkal_statesum(d)
        assert not jk.has_z_terms()  # sphere diagrams never see the z grading
        assert jones_specialization(jk) == kauffman_bracket_jones(d)


def test_jones_routes_agree_on_colorable_corpus(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        assert jones_krushkal_statesum(d) == jones_krushkal_via_P(d), name


@pytest.fixture(scope="module")
def state_sum_diagrams(colorable_diagrams):
    """(name, diagram) for the colorable corpus and seeded random torus
    diagrams at 3 to 14 crossings."""
    randoms = sample_torus_diagrams(seed=2029, count=10, c_lo=3, c_hi=7)
    randoms += sample_torus_diagrams(seed=2030, count=4, c_lo=8, c_hi=8)
    for c in range(9, 15):
        randoms += sample_torus_diagrams(seed=2030 + c, count=1, c_lo=c, c_hi=c)
    labelled = list(colorable_diagrams.items())
    return labelled + [(f"random[{i}] c={d.crossings}", d) for i, d in enumerate(randoms)]


def state_sum_in_the_ring(d, tally):
    """(-1)^w t^(3w/4) times the sum of n t^((2b - c)/4) z^r
    CURVE_BINOMIAL^(k-1) over the tally's (b, |s|, r): n rows with
    k = |s| - r >= 1, added and multiplied with the ring's own arithmetic,
    and the summed count of the other rows."""
    c, w = d.crossings, writhe(d)
    total, bad = JKPoly.zero(), 0
    for (b, size, r), n in tally.items():
        if size - r < 1:
            bad += n
        else:
            total = total + JKPoly.term(n, 2 * b - c, r) * CURVE_BINOMIAL ** (size - r - 1)
    return JKPoly.term((-1) ** w, 3 * w) * total, bad


def test_state_sum_matches_the_sum_built_in_the_ring(state_sum_diagrams):
    """_state_sum, which groups the tally by (r, k) and expands each z-power
    by Horner's rule in the curve binomial, against the sum of the rows'
    weights built in the ring, on the corpus and seeded random torus
    diagrams up to 14 crossings; each row's weight is also checked against
    t^((b-a)/4) z^r CURVE_BINOMIAL^(k-1)."""
    assert max(d.crossings for _, d in state_sum_diagrams) == 14
    for name, d in state_sum_diagrams:
        c, tally = d.crossings, state_tally(d)
        for b, size, r in tally:
            weight = JKPoly.term(1, 2 * b - c, r) * CURVE_BINOMIAL ** (size - r - 1)
            assert _weight(2 * b - c, r, size - r) == weight, name
        expected = state_sum_in_the_ring(d, tally)
        assert _state_sum(d, tally) == expected and expected[1] == 0, name


def test_the_state_sum_of_hand_made_tallies(diagrams):
    """_state_sum on tallies no diagram gives, under odd and even writhe:
    rows with k < 1 only count as bad, a one-row tally with k = 1 is one
    monomial, and one with k = 9 is CURVE_BINOMIAL^8 times a monomial."""
    for name, parity in (("trefoil.sld", 1), ("figure8.sld", 0)):
        d = diagrams[name]
        c, w = d.crossings, writhe(d)
        assert w % 2 == parity, name
        sign = (-1) ** w
        tallies = [
            {(1, 2, 1): 5},
            {(0, 9, 0): 2},
            {(0, 1, 1): 4, (1, 0, 2): 3},
            {(0, 1, 1): 4, (2, 10, 1): 1, (c, 3, 1): 7, (1, 1, 3): 2},
            {(b, size, r): 1 + b * size for b in range(c + 1) for size in range(5) for r in range(3)},
        ]
        for tally in tallies:
            assert _state_sum(d, tally) == state_sum_in_the_ring(d, tally), (name, tally)
        assert _state_sum(d, tallies[0]) == (JKPoly.term(5 * sign, 3 * w + 2 - c, 1), 0)
        nine = JKPoly.term(2 * sign, 3 * w - c) * CURVE_BINOMIAL**8
        assert _state_sum(d, tallies[1]) == (nine, 0) and len(nine.terms) == 9
        assert _state_sum(d, tallies[2]) == (JKPoly.zero(), 7)
        assert _state_sum(d, tallies[3])[1] == 6


def test_jones_specialization_equals_the_substitution(state_sum_diagrams):
    """jones_specialization, which groups J_K by z-power and expands by
    Horner's rule, against z -> CURVE_BINOMIAL done with JKPoly products, on
    the state sums of the corpus and seeded torus diagrams up to 14
    crossings, on hand-made polynomials, one of which cancels to 0, and on
    seeded polynomials with gaps between their z-powers."""

    def substituted(jk):
        total = JKPoly.zero()
        for (tq, zp), coeff in jk.terms.items():
            total = total + JKPoly.term(coeff, tq) * CURVE_BINOMIAL**zp
        return LaurentPoly(T_RING, {(tq,): coeff for (tq, _), coeff in total.terms.items()}, T_SCALE)

    labelled = [(name, jones_krushkal_statesum(d)) for name, d in state_sum_diagrams]
    labelled += [
        ("zero", JKPoly.zero()),
        ("z^9", JKPoly.term(3, -5, 9)),
        ("cancels", JKPoly({(0, 1): 1, (-2, 0): 1, (2, 0): 1})),
        ("ladder", JKPoly({(4 * j, j): (-1) ** j * (j + 1) for j in range(10)})),
    ]
    rng = random.Random(2035)
    for i in range(40):
        terms = {(rng.randrange(-12, 13), rng.randrange(10)): rng.randint(-5, 5) for _ in range(rng.randint(1, 6))}
        labelled.append((f"seeded[{i}]", JKPoly(terms)))
    for name, jk in labelled:
        assert jk.jones_specialization() == substituted(jk), name
    assert dict(labelled)["cancels"].jones_specialization() == LaurentPoly.zero(T_RING, T_SCALE)


@pytest.fixture(scope="module")
def seeded_torus_diagrams():
    """Seeded alternating colorable torus diagrams at 3 to 10 crossings."""
    return sample_torus_diagrams(seed=2031, count=8, c_lo=3, c_hi=8) + sample_torus_diagrams(
        seed=2032, count=4, c_lo=9, c_hi=10
    )


def test_the_shift_equals_the_substitution(study_maps, seeded_torus_diagrams):
    """_shifted, which expands (X-1)^i (Y-1)^j by binomials, against
    p.substitute(x = X-1, y = Y-1, u = U, v = V) on the corpus maps and Tait
    graphs, seeded maps of genus 0-3 up to 10 edges, and both Tait graphs of
    seeded torus diagrams up to 10 crossings."""
    X, Y, U, V = (LaurentPoly.var(BIG_VARS, name) for name in BIG_VARS)
    randoms = sample_ribbon_maps(seed=2031, count=24, genera=(0, 1, 2, 3), e_max=10)
    assert {m.genus for m in randoms} == {0, 1, 2, 3} and max(m.E for m in randoms) == 10
    labelled = list(study_maps.items()) + [(f"map[{i}] E={m.E}", m) for i, m in enumerate(randoms)]
    for i, d in enumerate(seeded_torus_diagrams):
        pair = tait_graphs(d, checkerboard(d))
        tag = f"diagram[{i}] c={d.crossings}"
        labelled += [(f"{tag} tait_a", pair.g_a), (f"{tag} tait_b", pair.g_b)]
    for name, m in labelled:
        p = krushkal(m)
        assert _shifted(p) == p.substitute({"x": X - 1, "y": Y - 1, "u": U, "v": V}), name


def test_the_specialization_equals_the_substitution(colorable_diagrams, seeded_torus_diagrams):
    """_specialized, which sends each term of P to one term of J_K, against
    (-1)^w t^((3w-2g-2n+c)/4) z^g times P.substitute(X = -t, Y = -1/t,
    U = 1/(z sqrt t), V = sqrt t / z) in the (t, z) ring, on every
    alternating colorable corpus diagram and seeded torus diagrams up to 10
    crossings; both routes reject a negative z-power."""
    ring, scales = ("t", "z"), (4, 1)
    assignments = {
        "X": LaurentPoly(ring, {(4, 0): -1}, scales),
        "Y": LaurentPoly(ring, {(-4, 0): -1}, scales),
        "U": LaurentPoly(ring, {(-2, -1): 1}, scales),
        "V": LaurentPoly(ring, {(2, -1): 1}, scales),
    }

    def substituted(d, n, P):
        g, c, w = d.genus, d.crossings, writhe(d)
        prefactor = LaurentPoly.term(ring, (-1) ** w, (3 * w - 2 * g - 2 * n + c, g), scales)
        return JKPoly.from_laurent(prefactor * P.substitute(assignments))

    labelled = [
        (name, d) for name, d in colorable_diagrams.items() if d.crossings and DiagramAnalysis(d).alternating
    ]
    labelled += [(f"diagram[{i}] c={d.crossings}", d) for i, d in enumerate(seeded_torus_diagrams)]
    assert len(labelled) > len(seeded_torus_diagrams)
    for name, d in labelled:
        g_a = DiagramAnalysis(d).tait[0]
        n = g_a.map.V - 1
        assert _specialized(d, n, g_a.P) == substituted(d, n, g_a.P), name
    d = seeded_torus_diagrams[0]
    too_many_z = LaurentPoly(BIG_VARS, {(0, 0, 1, d.genus): 1})
    for route in (_specialized, substituted):
        with pytest.raises(ValueError, match="negative z-power"):
            route(d, 0, too_many_z)


def test_the_state_sum_and_its_jones_specialization_do_no_ring_arithmetic(
    monkeypatch, tmp_path, capsys
):
    """_state_sum, jones_specialization and `slinv states` build their
    polynomials from the curve binomial's terms, with no LaurentPoly or
    JKPoly ring operation."""
    (d,) = sample_torus_diagrams(seed=7, count=1, c_lo=8, c_hi=8)
    path = tmp_path / "d.sld"
    path.write_text(d.to_text())
    tally = state_tally(d)
    calls = []

    def counted(name, original):
        def ring_op(*args):
            calls.append(name)
            return original(*args)

        return ring_op

    for cls in (LaurentPoly, JKPoly):
        for name in ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__", "__pow__"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, counted(f"{cls.__name__}.{name}", vars(cls)[name]))
    jk, bad = _state_sum(d, tally)
    jk.jones_specialization()
    assert main(["states", str(path)]) == 0
    assert (bad, calls) == (0, [])
    jk * jk + CURVE_BINOMIAL ** 2
    assert calls == ["JKPoly.__mul__", "LaurentPoly.__pow__", "JKPoly.__add__"]
    assert capsys.readouterr().out.count(" weight ") == 2 ** d.crossings


def test_trivial_jones_on_a_virtual_knot(diagrams):
    jones = jones_krushkal_statesum(diagrams["vk4_106.sld"]).jones_specialization()
    assert jones == LaurentPoly.const(T_RING, 1, T_SCALE)


def test_specialization_route_requires_alternating(diagrams):
    with pytest.raises(NotAlternating):
        jones_krushkal_via_P(diagrams["vk2_1.sld"])


def test_jk_coefficient_verifier_on_corpus(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        verdict = verify_jk_coefficients(DiagramAnalysis(d))
        assert verdict.passed, f"{name}: {verdict.detail}"


def test_tait_duality_verdict_names_its_comparison(colorable_diagrams):
    # the verifier computes dual(G_B) == G_A, and its detail says so
    for name, d in colorable_diagrams.items():
        verdict = verify_tait_duality(DiagramAnalysis(d))
        assert (verdict.status, verdict.detail) == ("pass", "dual(G_B) compared with G_A"), name


def test_jk_coefficient_verifier_needs_crossings():
    unknot = parse_diagram("format sld 1\ncrossings 0\n")
    with pytest.raises(HypothesisViolated):
        verify_jk_coefficients(DiagramAnalysis(unknot))


def test_full_report_has_no_failures(diagrams):
    for name, d in diagrams.items():
        report = full_report(d)
        failing = [v.name for v in report.verdicts if v.status == "fail"]
        assert not failing, f"{name}: {failing}"


def test_full_report_on_the_weave(diagrams):
    report = full_report(diagrams["weave2x2.sld"])
    by_name = {v.name: v for v in report.verdicts}
    skipped = {name for name, v in by_name.items() if v.status == "skipped"}
    assert skipped == {"loop_deletion"}  # the weave Tait graphs have no loops
    assert all(v.status == "pass" for v in report.verdicts if v.name != "loop_deletion")
    assert report.tau == report.tau_by_formula == 4
    assert report.volume_lower == pytest.approx(7.32772, abs=1e-4)
    assert report.volume_upper == pytest.approx(40.5976, abs=1e-4)
    assert report.volume_note == ""
    assert (report.n, report.N) == (1, 1)


def test_full_report_on_the_noncolorable_knot(diagrams):
    report = full_report(diagrams["vk2_1.sld"])
    assert not report.colorable
    assert report.jones_krushkal is None and report.jones is None
    assert report.p is None and report.tait_a is None
    assert report.tau is None
    assert "twist number unavailable" in report.volume_note
    assert report.twist_regions == 1
    assert all(v.status == "skipped" for v in report.verdicts)


def test_full_report_names_the_same_verdicts_with_or_without_tait_graphs(diagrams):
    """The placeholder rows of a report without a Tait pair carry the names
    of the rows they stand for, so `verify --verifier` finds them all."""

    def bases(d):
        return {v.name.split("[")[0] for v in full_report(d).verdicts}

    unknot = parse_diagram("format sld 1\ncrossings 0\n")
    assert bases(diagrams["trefoil.sld"]) == bases(diagrams["vk2_1.sld"]) == bases(unknot)
    names = [v.name for v in full_report(diagrams["vk2_1.sld"]).verdicts]
    assert names == [v.name for v in full_report(diagrams["trefoil.sld"]).verdicts]


def _count_calls(monkeypatch, name: str, original) -> list[tuple]:
    """Wrap `original` wherever a slinv module binds it as `name`; the list
    collects the positional arguments of every call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for key, module in list(sys.modules.items()):
        if (key == "slinv" or key.startswith("slinv.")) and vars(module).get(name) is original:
            monkeypatch.setattr(module, name, counted)
    return calls


def test_each_report_computes_each_sum_once(monkeypatch, diagrams, tmp_path):
    import slinv.diagram
    import slinv.homology
    import slinv.invariants

    nugatory = next(
        d
        for d in sample_torus_diagrams(seed=7, count=6, c_lo=4, c_hi=5)
        if not reduced_flags(d).nugatory_free
    )
    loop_map = tmp_path / "trivial_loop.rg"
    loop_map.write_text(corpus_text("trivial_loop.rg"))
    weave = tmp_path / "weave2x2.sld"
    weave.write_text(corpus_text("weave2x2.sld"))
    # (run, distinct maps summed over, (integer row, State) enumerations):
    # G_A and G_B, each the other's dual, plus G - e when a trivial loop is
    # deleted; a map file has G, G*, G - e.  Only `slinv states --dump`
    # enumerates States, for their curve classes.
    runs = [
        (lambda: full_report(diagrams["weave2x2.sld"]), 2, (1, 0)),
        (lambda: full_report(nugatory), 3, (1, 0)),
        (lambda: main(["krushkal", str(loop_map)]), 3, (0, 0)),
        (lambda: main(["states", str(weave)]), 0, (1, 0)),
        (lambda: main(["states", str(weave), "--dump"]), 0, (0, 1)),
    ]
    for run, distinct_maps, enumerations in runs:
        with monkeypatch.context() as patch:
            sums = _count_calls(patch, "krushkal", slinv.invariants.krushkal)
            rows = _count_calls(patch, "walk_states", slinv.diagram.walk_states)
            states = _count_calls(patch, "enumerate_states", slinv.homology.enumerate_states)
            taits = _count_calls(patch, "tait_graphs", slinv.diagram.tait_graphs)
            run()
        summed = [args[0] for args in sums]
        assert len(summed) == len(set(summed)) == distinct_maps
        assert (len(rows), len(states)) == enumerations
        assert len(taits) <= 1


# a nugatory-free c = 10 torus diagram, so that the report reaches the twist
# number as well as the reduction of both Tait graphs
REDUCED_C10_ARCS = (
    "0.0 1.3", "1.2 6.1", "2.0 7.3", "3.2 9.3", "4.2 5.1", "5.2 8.3", "6.0 4.3",
    "7.0 2.3", "8.2 3.1", "9.0 0.3", "0.1 5.0", "1.1 6.2", "2.1 3.0", "3.3 2.2",
    "4.1 8.0", "5.3 0.2", "6.3 9.2", "7.1 4.0", "8.1 1.0", "9.1 7.2",
)


def test_each_report_decides_each_crossing_pair_once(monkeypatch):
    """reduce and the twist number read one set of parallel pairs per Tait
    graph, and the flags, reduce and the loop-deletion verdict one list of
    trivial loops: one `parallel_pairs` and one `trivial_loops` call on each,
    both derived from one k({e}) per loop edge, and none per non-loop, whose
    k({e}) is 0 without counting."""
    import slinv.ribbon

    lines = [f"arc {a} {ends}" for a, ends in enumerate(REDUCED_C10_ARCS)]
    d = parse_diagram("\n".join(["format sld 1", "crossings 10", *lines]) + "\n")
    assert reduced_flags(d).nugatory_free
    pairs = _count_calls(monkeypatch, "parallel_pairs", slinv.ribbon.parallel_pairs)
    loops = _count_calls(monkeypatch, "trivial_loops", slinv.ribbon.trivial_loops)
    numbers = _count_calls(monkeypatch, "subgraph_numbers", slinv.ribbon.subgraph_numbers)
    assert full_report(d).tau == 6
    for calls in (pairs, loops):
        per_map = Counter(args[0] for args in calls)
        assert len(per_map) == 2
        assert set(per_map.values()) == {1}
    single_edge = Counter((m, edges[0]) for m, edges in numbers if len(edges) == 1)
    for m in {args[0] for args in pairs}:
        loops = {(m, e): 1 for e in m.edge_ids if m.is_loop(e)}
        assert {key: n for key, n in single_edge.items() if key[0] == m} == loops
    assert sum(single_edge.values()) == 0  # neither Tait graph has a loop

    numbers.clear()
    two_meridians = MapAnalysis(parse_map(TWO_MERIDIANS_RG))
    assert two_meridians.parallel_pairs == {(2, 3)}
    assert Counter(edges for _, edges in numbers if len(edges) == 1) == {(2,): 1, (3,): 1}


def test_the_sums_build_no_fractions():
    """The 2^E subgraph sum and the 2^c state sum run on integer counts."""
    (d,) = sample_torus_diagrams(seed=7, count=1, c_lo=8, c_hi=8)
    g_a = tait_graphs(d, checkerboard(d)).g_a
    analysis = DiagramAnalysis(d)
    analysis.coloring()
    built = []
    original = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        krushkal(g_a)
        analysis.state_sum
        assert built == []
        Fraction(1, 2)
        assert built == [(1, 2)]  # the counter does see a new Fraction
    finally:
        Fraction.__new__ = original


def test_reports_on_nugatory_free_diagrams_at_10_and_12_crossings(nugatory_free_diagrams):
    """The paper's theorems on reduced diagrams at the sizes where the
    sweep runs: the coefficient and span checks pass on all six, the twist
    formula passes wherever its hypotheses hold, and each report is
    byte-identical to the one computed by flat walks."""
    import slinv.ribbon

    assert [d.crossings for d in nugatory_free_diagrams] == [10, 10, 10, 12, 12, 12]
    twist = []
    for d in nugatory_free_diagrams:
        assert reduced_flags(d).nugatory_free
        report = full_report(d)
        status = {v.name: v.status for v in report.verdicts}
        assert status["jk_coefficients"] == status["span"] == "pass"
        twist.append(status["twist_formula"])
        with mock.patch.object(slinv.ribbon, "_SWEEP_FROM", d.crossings + 1):
            flat = full_report(d)
        assert json.dumps(report.to_json()) == json.dumps(flat.to_json())
    assert Counter(twist) == {"pass": 4, "skipped": 2}


def test_the_sums_leave_no_cyclic_garbage(tmp_path, capsys):
    """The depth-first walks of the two sums, a full report and the
    `krushkal` command hold no reference cycle, so reference counting frees
    what each builds on return; a cycle would keep it alive until the
    cyclic collector runs, and raise peak memory."""
    (d,) = sample_torus_diagrams(seed=7, count=1, c_lo=8, c_hi=8)
    g_a = tait_graphs(d, checkerboard(d)).g_a
    assert (d.crossings, g_a.E) == (8, 8)
    loop_map = tmp_path / "trivial_loop.rg"
    loop_map.write_text(corpus_text("trivial_loop.rg"))
    runs = {
        "krushkal": lambda: krushkal(g_a),
        "state_numbers": lambda: state_numbers(d),
        "state_tally": lambda: state_tally(d),
        "full_report": lambda: full_report(d),
        "slinv krushkal": lambda: main(["krushkal", str(loop_map)]),
    }
    for run in runs.values():
        run()
    gc.collect()
    gc.disable()
    try:
        for name, run in runs.items():
            run()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_reports_serialize_to_json(diagrams):
    for name, d in diagrams.items():
        blob = json.dumps(full_report(d).to_json(), sort_keys=True)
        assert json.loads(blob)["crossings"] == d.crossings, name


def test_caps_are_enforced(diagrams):
    message = "^3 crossings exceed the cap of 2$"
    with pytest.raises(CrossingCapExceeded, match=message):
        full_report(diagrams["trefoil.sld"], cap=2)
    with pytest.raises(CrossingCapExceeded, match=message):
        jones_krushkal_via_P(diagrams["trefoil.sld"], cap=2)
    pair = tait_graphs(diagrams["weave2x2.sld"], checkerboard(diagrams["weave2x2.sld"]))
    with pytest.raises(EdgeCapExceeded):
        krushkal(pair.g_a, cap=3)
    with pytest.raises(EdgeCapExceeded):
        big_P(pair.g_a, cap=3)


def test_zero_crossing_diagram_report():
    unknot = parse_diagram("format sld 1\ncrossings 0\n")
    assert jones_krushkal_statesum(unknot) == JKPoly.const(1)
    report = full_report(unknot)
    assert report.tau == 0 and report.twist_regions == 0
    assert report.jones == LaurentPoly.const(T_RING, 1, T_SCALE)
    assert report.volume_lower is None
    assert "genus-0" in report.volume_note
    assert not [v for v in report.verdicts if v.status == "fail"]
    assert report.t_span == 0
    tait_duality = next(v for v in report.verdicts if v.name == "tait_duality")
    assert (tait_duality.status, tait_duality.detail) == ("skipped", "the 0-crossing unknot has no face structure")
    assert report.n is None and report.p is None


def test_the_unknot_analysis_reads_its_edgeless_tait_graphs():
    """The 0-crossing unknot's Tait graphs are each one vertex and no edges;
    the general code reads its constants off them."""
    a = DiagramAnalysis(parse_diagram("format sld 1\ncrossings 0\n"))
    point = CombinatorialMap([()], [])
    assert [g.map for g in a.tait] == [point, point]
    assert a.colorable and a.flags == reduced_flags(a.d)
    assert a.state_sum == (JKPoly.const(1), 0)
    assert a.jk_via_P == JKPoly.const(1)
    assert a.parallel_crossings == ()
    assert a.tau_by_classes == a.tau_by_formula == 0
    with pytest.raises(GenusZero):
        a.volume


def test_the_volume_policy(diagrams):
    """DiagramAnalysis.volume is volume_bounds of the union-find twist
    number, with the formal-bounds note unless the diagram is strongly
    reduced; full_report and `slinv bounds` both read it."""
    notes = set()
    for name in ("vk4_105.sld", "vk4_106.sld", "weave2x2.sld"):
        d = diagrams[name]
        a = DiagramAnalysis(d)
        lower, upper, note = a.volume
        assert (lower, upper) == volume_bounds(a.tau_by_classes, d.genus), name
        assert note == ("" if a.flags.strongly_reduced else FORMAL_BOUNDS_NOTE), name
        report = full_report(d)
        assert (report.volume_lower, report.volume_upper, report.volume_note) == a.volume, name
        notes.add(note)
    assert notes == {"", FORMAL_BOUNDS_NOTE}
    for name in ("figure8.sld", "trefoil.sld"):
        with pytest.raises(GenusZero):
            DiagramAnalysis(diagrams[name]).volume
