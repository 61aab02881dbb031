"""Diagram parsing, smoothing states, checkerboard structure, Tait graphs."""

import pytest

from slinv import (
    BadSlot,
    CrossingCapExceeded,
    HomologyContext,
    InconsistentOrientation,
    InputError,
    NotCheckerboardColorable,
    NotReduced,
    SpanningSubgraph,
    checkerboard,
    crossing_sign,
    dual,
    enumerate_states,
    is_alternating,
    is_isomorphic,
    parse_diagram,
    reduced_flags,
    serialize_diagram,
    subgraph_profile,
    tait_graphs,
    tau,
    twist_regions,
    writhe,
)
from conftest import SLD_NAMES, corpus_text

CURL = "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 1 0.1 0.2\n"
UNKNOT = "format sld 1\ncrossings 0\n"

# (crossings, genus, components, writhe, alternating) per bundled diagram
SCALARS = {
    "figure8.sld": (4, 0, 1, 0, True),
    "trefoil.sld": (3, 0, 1, -3, True),
    "vk2_1.sld": (2, 1, 1, -2, False),
    "vk4_105.sld": (4, 1, 1, -4, True),
    "vk4_106.sld": (4, 1, 1, -2, True),
    "weave2x2.sld": (4, 1, 4, -4, True),
}


def test_corpus_files_are_in_canonical_form(diagrams):
    for name, d in diagrams.items():
        text = corpus_text(name)
        assert serialize_diagram(d) == text
        assert serialize_diagram(parse_diagram(serialize_diagram(d))) == text


def test_random_diagram_serialization_round_trips(random_diagrams):
    for d in random_diagrams:
        text = serialize_diagram(d)
        assert serialize_diagram(parse_diagram(text)) == text


def test_over_declaration_rotates_slots_back_to_even():
    original = corpus_text("trefoil.sld")
    rotated_lines = []
    for line in original.splitlines():
        parts = line.split()
        if parts[0] == "arc":
            ends = []
            for token in parts[2:]:
                cr, slot = token.split(".")
                if cr == "1":
                    token = f"1.{(int(slot) + 1) % 4}"
                ends.append(token)
            rotated_lines.append(f"arc {parts[1]} {ends[0]} {ends[1]}")
        else:
            rotated_lines.append(line)
    rotated_lines.append("over 1 13")
    rotated_lines.append("over 0 02")  # explicit default is accepted too
    d = parse_diagram("\n".join(rotated_lines) + "\n")
    assert serialize_diagram(d) == original


def test_basic_scalars_of_the_corpus(diagrams):
    for name, (c, g, comps, w, alt) in SCALARS.items():
        d = diagrams[name]
        assert d.crossings == c, name
        assert d.genus == g, name
        assert len(d.components) == comps, name
        assert writhe(d) == w, name
        assert is_alternating(d) == alt, name
        flat = sorted(a for comp in d.components for a in comp)
        assert flat == list(range(2 * c)), f"{name}: components must partition arcs"


def test_crossing_signs_sum_to_the_writhe(diagrams):
    for name, d in diagrams.items():
        signs = [crossing_sign(d, cr) for cr in range(d.crossings)]
        assert all(s in (-1, 1) for s in signs)
        assert sum(signs) == writhe(d), name


def test_state_enumeration_conservation_laws(diagrams, colorable_diagrams):
    for name, d in diagrams.items():
        states = list(enumerate_states(d))
        assert len(states) == 2 ** d.crossings
        for s in states:
            assert s.a + s.b == d.crossings
            assert s.a == s.choice.count("A")
            assert s.b == s.choice.count("B")
            assert s.size >= 1
            assert s.k + s.r == s.size
            assert 0 <= s.r <= 2 * d.genus
        assert states[0].choice == ("A",) * d.crossings
        assert states[-1].choice == ("B",) * d.crossings
        if name in colorable_diagrams:
            assert all(s.k >= 1 for s in states), name


def test_extreme_states_of_the_weave(diagrams):
    states = list(enumerate_states(diagrams["weave2x2.sld"]))
    all_a, all_b = states[0], states[-1]
    assert (all_a.size, all_a.k, all_a.r) == (2, 2, 0)
    assert (all_b.size, all_b.k, all_b.r) == (2, 2, 0)


def test_extreme_states_of_the_noncolorable_virtual_knot(diagrams):
    states = list(enumerate_states(diagrams["vk2_1.sld"]))
    all_a, all_b = states[0], states[-1]
    assert (all_a.size, all_a.r, all_a.k) == (2, 1, 1)
    assert (all_b.size, all_b.r, all_b.k) == (1, 1, 0)  # k = 0 can happen here


def test_tait_vertex_counts_match_opposite_extreme_states(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        pair = tait_graphs(d, checkerboard(d))
        states = list(enumerate_states(d))
        assert pair.g_a.V == states[-1].size, name  # shaded graph vs all-B state
        assert pair.g_b.V == states[0].size, name  # unshaded graph vs all-A state
        assert pair.g_a.V + pair.g_b.V == d.crossings + 2 - 2 * d.genus
        assert pair.g_a.E == pair.g_b.E == d.crossings
        assert pair.g_a.genus == pair.g_b.genus == d.genus


def test_tait_graphs_are_dual_maps(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        pair = tait_graphs(d, checkerboard(d))
        assert is_isomorphic(pair.g_b, dual(pair.g_a)), name


def test_coloring_is_a_proper_two_coloring(colorable_diagrams):
    for name, d in colorable_diagrams.items():
        coloring = checkerboard(d)
        m = d.cmap
        all_faces = set(range(len(m.faces)))
        assert set(coloring.shaded) | set(coloring.unshaded) == all_faces
        assert not set(coloring.shaded) & set(coloring.unshaded)
        face_of = {}
        for idx, walk in enumerate(m.faces):
            for h in walk:
                face_of[h] = idx
        for h in range(m.n_half):
            assert coloring.is_shaded(face_of[h]) != coloring.is_shaded(
                face_of[m.alpha[h]]
            ), f"{name}: faces across half-edge {h} share a color"
        for cr in range(d.crossings):
            corners = [coloring.is_shaded(face_of[4 * cr + j]) for j in range(4)]
            assert corners[0] != corners[1], name
            assert corners == corners[:2] * 2, f"{name}: corners must alternate"


def test_noncolorable_diagram_is_rejected(diagrams):
    with pytest.raises(NotCheckerboardColorable):
        checkerboard(diagrams["vk2_1.sld"])
    with pytest.raises(NotCheckerboardColorable):
        reduced_flags(diagrams["vk2_1.sld"])


def test_reduced_flags_across_the_corpus(diagrams):
    strongly = {"figure8.sld", "trefoil.sld", "weave2x2.sld"}
    loops_kept = {"vk4_105.sld", "vk4_106.sld"}
    for name in strongly | loops_kept:
        flags = reduced_flags(diagrams[name])
        assert flags.cellular and flags.nugatory_free
        assert flags.strongly_reduced == (name in strongly), name


def test_curl_diagram_has_a_nugatory_crossing():
    d = parse_diagram(CURL)
    assert (d.crossings, d.genus, len(d.components)) == (1, 0, 1)
    flags = reduced_flags(d)
    assert flags.cellular and not flags.nugatory_free and not flags.strongly_reduced
    assert twist_regions(d) == 1
    with pytest.raises(NotReduced):
        tau(d)


def test_zero_crossing_unknot():
    d = parse_diagram(UNKNOT)
    assert d.crossings == 0 and d.genus == 0 and d.cmap is None
    assert d.components == ((),)
    assert serialize_diagram(d) == UNKNOT
    (only_state,) = list(enumerate_states(d))
    assert (only_state.size, only_state.k, only_state.r) == (1, 1, 0)
    with pytest.raises(NotCheckerboardColorable):
        checkerboard(d)


def _reversed_text(text: str) -> str:
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "arc":
            out.append(f"arc {parts[1]} {parts[3]} {parts[2]}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def test_reversing_every_component_preserves_the_writhe(diagrams):
    for name in ("trefoil.sld", "figure8.sld", "vk4_106.sld", "weave2x2.sld"):
        d = diagrams[name]
        reversed_d = parse_diagram(_reversed_text(corpus_text(name)))
        assert writhe(reversed_d) == writhe(d), name
        assert reversed_d.genus == d.genus


def test_writhe_parity_matches_crossing_parity_for_knots(diagrams):
    for name, d in diagrams.items():
        if len(d.components) == 1:
            assert (writhe(d) - d.crossings) % 2 == 0, name


def _flip_arc(text: str, arc_id: int) -> str:
    out = []
    for line in text.splitlines():
        parts = line.split()
        if parts and parts[0] == "arc" and parts[1] == str(arc_id):
            out.append(f"arc {parts[1]} {parts[3]} {parts[2]}")
        else:
            out.append(line)
    return "\n".join(out) + "\n"


def test_auto_orient_repairs_a_flipped_arc():
    original = corpus_text("trefoil.sld")
    flipped = _flip_arc(original, 3)
    with pytest.raises(InconsistentOrientation):
        parse_diagram(flipped)
    repaired = parse_diagram(flipped, auto_orient=True)
    assert serialize_diagram(repaired) == original


def test_auto_orient_keeps_the_lowest_arc_direction():
    # flipping arc 0 makes auto-orientation reverse the whole component
    original = corpus_text("trefoil.sld")
    repaired = parse_diagram(_flip_arc(original, 0), auto_orient=True)
    assert serialize_diagram(repaired) != original
    assert writhe(repaired) == writhe(parse_diagram(original))


def test_state_enumeration_respects_the_cap(diagrams):
    with pytest.raises(CrossingCapExceeded):
        list(enumerate_states(diagrams["trefoil.sld"], cap=2))


def test_states_match_shaded_graph_subgraph_profiles(colorable_diagrams, random_diagrams):
    """Each state corresponds to the spanning subgraph of A-smoothed crossings
    in the shaded Tait graph: the state's curve count is the subgraph's ribbon
    boundary count, and the curve rank is the genus not absorbed by the
    subgraph's neighborhood or its complement."""
    labelled = list(colorable_diagrams.items())
    labelled += [(f"random[{i}]", d) for i, d in enumerate(random_diagrams)]
    for name, d in labelled:
        pair = tait_graphs(d, checkerboard(d))
        ctx = HomologyContext(pair.g_a)
        for s in enumerate_states(d):
            a_set = frozenset(cr for cr in range(d.crossings) if s.choice[cr] == "A")
            prof = subgraph_profile(SpanningSubgraph(pair.g_a, a_set), ctx)
            assert s.size == prof.boundary_count, (name, s.choice)
            assert s.r == d.genus - (prof.s + prof.s_perp) // 2, (name, s.choice)


def test_half_edge_indexing_helpers(diagrams):
    d = diagrams["trefoil.sld"]
    for a, (tail, head) in enumerate(d.arcs):
        assert d.arc_of_half(d.half_edge(tail)) == a
        assert d.arc_of_half(d.half_edge(head)) == a
    assert d.is_over_slot(0) and d.is_over_slot(2)
    assert not d.is_over_slot(1) and not d.is_over_slot(3)


def test_parser_rejects_malformed_diagrams():
    with pytest.raises(InputError):
        parse_diagram("crossings 1\n")  # missing header
    with pytest.raises(InputError):
        parse_diagram("format sld 1\n")  # missing crossings
    with pytest.raises(InputError):
        parse_diagram("format sld 1\narc 0 0.0 0.1\ncrossings 1\n")
    with pytest.raises(InputError):
        parse_diagram("format sld 1\ncrossings -1\n")
    with pytest.raises(InputError):
        parse_diagram("format sld 1\ncrossings 0\narc 0 0.0 0.1\n")
    with pytest.raises(InputError):
        parse_diagram(UNKNOT + "twist 0\n")  # unknown directive
    with pytest.raises(InputError):
        parse_diagram(  # duplicate arc id
            "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 0 0.1 0.2\n"
        )
    with pytest.raises(InputError):
        parse_diagram(  # arc ids not dense
            "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 5 0.1 0.2\n"
        )
    with pytest.raises(BadSlot):
        parse_diagram("format sld 1\ncrossings 1\narc 0 0.0 0.9\narc 1 0.1 0.2\n")
    with pytest.raises(BadSlot):
        parse_diagram("format sld 1\ncrossings 1\narc 0 0.0 1.2\narc 1 0.1 0.2\n")
    with pytest.raises(BadSlot):
        parse_diagram("format sld 1\ncrossings 1\narc 0 x.y 0.3\narc 1 0.1 0.2\n")
    with pytest.raises(BadSlot):
        parse_diagram(  # slot 0.0 used by two arcs
            "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 1 0.0 0.2\n"
        )
    with pytest.raises(InconsistentOrientation):
        parse_diagram(  # both over slots flow outward
            "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 1 0.2 0.1\n"
        )
    with pytest.raises(InputError):
        parse_diagram(UNKNOT + "over 0 02\n")  # over line for missing crossing
    with pytest.raises(InputError):
        parse_diagram("format sld 1\ncrossings x\n")
    with pytest.raises(InputError):
        parse_diagram("format sld 1\ncrossings 1\narc a 0.0 0.3\narc 1 0.1 0.2\n")
    with pytest.raises(InputError):
        parse_diagram(CURL + "over z 02\n")
