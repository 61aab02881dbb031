"""Graph polynomials, reduced-graph statistics, twist numbers, volume bounds,
the two Jones routes, and the aggregate report."""

import gc
import json
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
    verify_twist_formula,
    volume_bounds,
    writhe,
)
from slinv.cli import main
from slinv.invariants import BIG_VARS, P_VARS, _state_sum

from conftest import corpus_text, sample_torus_diagrams

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
    data = reduce(m)
    assert (data.lam, data.mu, data.gamma) == (2, 0, 1)
    assert data.trivial_loops_deleted == 0
    assert not data.has_3petal
    assert len(data.kept_edges) == 2
    verdicts = {v.name: v for v in verify_krushkal_coeffs(m)}
    assert set(verdicts) == {"mu_coefficient", "lambda_coefficient", "gamma_coefficient"}
    assert all(v.passed for v in verdicts.values())
    # the slots themselves, by hand: constant term 2 is lambda, [U] = 1 is gamma
    P = big_P(m)
    assert P.coefficient_of() == 2
    assert P.coefficient_of(U=1) == 1


def test_genus_two_bouquet_coefficient_slots(maps):
    m = maps["genus2_bouquet.rg"]
    assert (m.V, m.E, m.genus) == (1, 4, 2)
    data = reduce(m)
    assert (data.lam, data.mu, data.gamma) == (4, 0, 2)
    assert not data.has_3petal
    assert all(v.passed for v in verify_krushkal_coeffs(m, data=data))


def test_theta_graph_polynomial_and_reduction(maps):
    m = maps["theta_sphere.rg"]
    assert krushkal(m) == LaurentPoly.parse("x + y^2 + 3*y + 3", P_VARS)
    assert big_P(m) == LaurentPoly.parse("X + Y^2 + Y", BIG_VARS)
    data = reduce(m)
    assert len(data.kept_edges) == 1  # three mutually parallel edges
    assert (data.lam, data.mu, data.gamma, data.trivial_loops_deleted) == (0, 0, 0, 0)
    assert tutte_check(m)
    verdicts = {v.name: v.status for v in verify_krushkal_coeffs(m, data=data)}
    assert verdicts["mu_coefficient"] == "pass"
    # the lambda and gamma slots sit at V^(g-1): absent on the sphere
    assert verdicts["lambda_coefficient"] == "skipped"
    assert verdicts["gamma_coefficient"] == "skipped"


def test_single_trivial_loop(maps):
    m = maps["trivial_loop.rg"]
    assert big_P(m) == LaurentPoly.var(BIG_VARS, "Y")
    data = reduce(m)
    assert data.kept_edges == ()
    assert data.trivial_loops_deleted == 1
    assert (data.lam, data.mu, data.gamma) == (0, 0, 0)
    assert loop_deletion_check(m, 0)


def test_stacked_trivial_loops_factor_completely():
    m = STACKED_LOOPS
    assert m.genus == 0
    one_plus_y = LaurentPoly.parse("y + 1", P_VARS)
    assert krushkal(m) == one_plus_y * one_plus_y
    assert loop_deletion_check(m, 0)
    assert loop_deletion_check(m, 1)
    assert reduce(m).trivial_loops_deleted == 2


def test_loop_deletion_requires_a_trivial_loop(maps):
    with pytest.raises(NotTrivialLoop):
        loop_deletion_check(maps["theta_sphere.rg"], 0)  # not a loop
    with pytest.raises(NotTrivialLoop):
        loop_deletion_check(maps["torus_bouquet.rg"], 0)  # homologically essential


def test_bundled_tait_graph_matches_the_weave(maps, diagrams):
    d = diagrams["weave2x2.sld"]
    pair = tait_graphs(d, checkerboard(d))
    assert is_isomorphic(maps["weave_tait_a.rg"], pair.g_a)


def test_reduction_is_independent_of_representative_choice(diagrams):
    d = diagrams["trefoil.sld"]
    pair = tait_graphs(d, checkerboard(d))
    for graph in (pair.g_a, pair.g_b):
        runs = [reduce(graph, representative_rotation=r) for r in range(3)]
        stats = {
            (r.lam, r.mu, r.gamma, r.trivial_loops_deleted, r.has_3petal) for r in runs
        }
        assert len(stats) == 1
        for r in runs:
            assert all(v.status != "fail" for v in verify_krushkal_coeffs(graph, data=r))


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
        verify_twist_formula(d)
    report = full_report(d)
    (verdict,) = [v for v in report.verdicts if v.name == "twist_formula"]
    assert verdict.status == "skipped"
    assert verdict.detail == "crossings 0 and 3 are parallel in both Tait graphs"
    assert (report.tau, report.tau_by_formula) == (3, 2)


def test_twist_formula_still_fails_on_a_wrong_formula_value(diagrams):
    d = diagrams["weave2x2.sld"]
    assert verify_twist_formula(d).passed
    a = DiagramAnalysis(d)
    a.tau_by_formula = 5  # overrides the cached property
    verdict = verify_twist_formula(d, analysis=a)
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
        ra, rb = reduce(pair.g_a), reduce(pair.g_b)
        ma, mb = reduce(mirror.g_a), reduce(mirror.g_b)
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


def test_state_sum_matches_the_sum_built_in_the_ring(colorable_diagrams):
    """_state_sum, which adds the curve binomial's terms straight into J_K,
    against (-1)^w t^(3w/4) * sum of n t^((b-a)/4) z^r CURVE_BINOMIAL^(k-1)
    over the tally, built with the ring's own arithmetic, on the corpus and
    seeded random torus diagrams up to 8 crossings."""
    labelled = list(colorable_diagrams.items())
    randoms = sample_torus_diagrams(seed=2029, count=10, c_lo=3, c_hi=7)
    randoms += sample_torus_diagrams(seed=2030, count=4, c_lo=8, c_hi=8)
    labelled += [(f"random[{i}] c={d.crossings}", d) for i, d in enumerate(randoms)]
    for name, d in labelled:
        c, w = d.crossings, writhe(d)
        tally = state_tally(d)
        expected = JKPoly.zero()
        for (b, size, r), n in tally.items():
            weight = JKPoly.term(1, 2 * b - c, r) * CURVE_BINOMIAL ** (size - r - 1)
            expected = expected + n * weight
        expected = JKPoly.term((-1) ** w, 3 * w) * expected
        assert _state_sum(d, tally) == (expected, 0), name


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
        verdict = verify_jk_coefficients(d)
        assert verdict.passed, f"{name}: {verdict.detail}"


def test_jk_coefficient_verifier_needs_crossings():
    unknot = parse_diagram("format sld 1\ncrossings 0\n")
    with pytest.raises(HypothesisViolated):
        verify_jk_coefficients(unknot)


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
    both derived from one k({e}) per edge."""
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
    single_edge = Counter(m for m, edges in numbers if len(edges) == 1)
    assert [(m.E, n) for m, n in single_edge.items()] == [(10, 10), (10, 10)]


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
    """The paper's theorems on reduced diagrams at the sizes where the cut
    walks run: the coefficient and span checks pass on all six, the twist
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
        with mock.patch.object(slinv.ribbon, "_cut_depth", lambda n: 0):
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
    with pytest.raises(CrossingCapExceeded):
        full_report(diagrams["trefoil.sld"], cap=2)
    with pytest.raises(CrossingCapExceeded):
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
