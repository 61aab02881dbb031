"""Surface link diagrams as oriented 4-valent combinatorial maps.

Crossing i occupies half-edges 4i..4i+3 of the underlying map; slot j of
crossing i is half-edge 4i+j, with slots listed counterclockwise.  After
input normalization the over-strand runs through slots {0, 2} at every
crossing, and the strand through {1, 3} is the under-strand.  Arcs are the
2c edges of the map, directed tail -> head by the link orientation; strand
continuity inside a crossing joins slot j to slot j+2.

Smoothings follow the convention: the A-smoothing merges the corners between
slots 0-1 and 2-3 (its curve arcs join slots 1-2 and 3-0), the B-smoothing
merges the corners between 1-2 and 3-0 (its arcs join 0-1 and 2-3),
calibrated against the known writhe and Jones-Krushkal values of the square
weave.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import (
    BadSlot,
    CrossingCapExceeded,
    InconsistentOrientation,
    InputError,
    NotCheckerboardColorable,
)
from .ribbon import CombinatorialMap, format_lines, walk_choices

End = tuple[int, int]  # (crossing, slot)

DEFAULT_CAP = 24


# perfbench/ reads these two oracle names from this module; they live in
# homology, which loads on first use
def __getattr__(name: str):
    if name in ("diagram_homology", "enumerate_states"):
        from . import homology

        return getattr(homology, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class SurfaceLinkDiagram:
    """Validated diagram: arcs in normalized slot coordinates.

    For the 0-crossing unknot `cmap` is None and there is one closed
    component with no arcs.
    """

    crossings: int
    arcs: tuple[tuple[End, End], ...]  # (tail, head) per arc id
    cmap: CombinatorialMap | None
    components: tuple[tuple[int, ...], ...]

    @property
    def genus(self) -> int:
        return self.cmap.genus if self.cmap else 0

    def half_edge(self, end: End) -> int:
        return 4 * end[0] + end[1]

    def arc_of_half(self, h: int) -> int:
        return self.cmap.edge_of[h]

    def is_over_slot(self, slot: int) -> bool:
        return slot % 2 == 0

    def to_text(self) -> str:
        lines = ["format sld 1", f"crossings {self.crossings}"]
        for a, (tail, head) in enumerate(self.arcs):
            lines.append(f"arc {a} {tail[0]}.{tail[1]} {head[0]}.{head[1]}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Coloring:
    """Checkerboard face 2-coloring; face indices refer to cmap.faces."""

    shaded: frozenset[int]
    unshaded: frozenset[int]

    def is_shaded(self, face_idx: int) -> bool:
        return face_idx in self.shaded


@dataclass(frozen=True)
class TaitPair:
    """The dual Tait graphs.  Edge id == crossing id in both graphs."""

    g_a: CombinatorialMap
    g_b: CombinatorialMap


@dataclass(frozen=True)
class ReducedFlags:
    cellular: bool
    nugatory_free: bool
    strongly_reduced: bool


# -- parsing ------------------------------------------------------------------


def _parse_end(token: str, n_crossings: int) -> End:
    try:
        cr_s, slot_s = token.split(".")
        cr, slot = int(cr_s), int(slot_s)
    except ValueError as exc:
        raise BadSlot(f"bad endpoint {token!r}") from exc
    if not (0 <= cr < n_crossings):
        raise BadSlot(f"crossing {cr} out of range")
    if not (0 <= slot < 4):
        raise BadSlot(f"slot {slot} out of range")
    return cr, slot


def _int_field(parts: list[str], line: str) -> int:
    """The integer after a directive: a crossing count or an id."""
    try:
        return int(parts[1])
    except ValueError as exc:
        raise InputError(f"bad {parts[0]} line {line!r}") from exc


def parse_diagram(text: str, auto_orient: bool = False) -> SurfaceLinkDiagram:
    """Parse the "sld v1" format and normalize over-strands into slots {0,2}."""
    n_crossings: int | None = None
    arc_rows: dict[int, tuple[End, End]] = {}
    over_rows: dict[int, str] = {}
    for line, parts in format_lines(text, "sld")[1]:
        if parts[0] == "crossings":
            if n_crossings is not None or len(parts) != 2:
                raise InputError(f"bad crossings line {line!r}")
            n_crossings = _int_field(parts, line)
            if n_crossings < 0:
                raise InputError("crossing count must be nonnegative")
        elif parts[0] == "arc":
            if n_crossings is None:
                raise InputError("arc line before crossings line")
            if len(parts) != 4:
                raise InputError(f"bad arc line {line!r}")
            aid = _int_field(parts, line)
            if aid in arc_rows:
                raise InputError(f"duplicate arc id {aid}")
            arc_rows[aid] = (_parse_end(parts[2], n_crossings), _parse_end(parts[3], n_crossings))
        elif parts[0] == "over":
            if n_crossings is None:
                raise InputError("over line before crossings line")
            if len(parts) != 3 or parts[2] not in ("02", "13"):
                raise InputError(f"bad over line {line!r}")
            cr = _int_field(parts, line)
            if not (0 <= cr < n_crossings):
                raise BadSlot(f"crossing {cr} out of range in over line")
            if cr in over_rows:
                raise InputError(f"duplicate over line for crossing {cr}")
            over_rows[cr] = parts[2]
        else:
            raise InputError(f"unknown directive {parts[0]!r}")
    if n_crossings is None:
        raise InputError("missing crossings line")

    # no arc end is in range at 0 crossings, so such a diagram has no arcs
    if n_crossings == 0:
        return SurfaceLinkDiagram(0, (), None, ((),))

    # compare the counts first, so an absurd crossing count builds no range
    if len(arc_rows) != 2 * n_crossings or sorted(arc_rows) != list(range(len(arc_rows))):
        raise InputError(f"need arc ids dense 0..{2 * n_crossings - 1}")

    # rotate slots of crossings whose over-strand was declared on {1,3}
    def normalize(end: End) -> End:
        cr, slot = end
        if over_rows.get(cr) == "13":
            return cr, (slot - 1) % 4
        return end

    arcs = [
        (normalize(arc_rows[a][0]), normalize(arc_rows[a][1]))
        for a in range(2 * n_crossings)
    ]

    occupancy: dict[End, tuple[int, int]] = {}  # end -> (arc id, 0=tail 1=head)
    for a, (tail, head) in enumerate(arcs):
        for which, end in enumerate((tail, head)):
            if end in occupancy:
                raise BadSlot(f"slot {end[0]}.{end[1]} used twice")
            occupancy[end] = (a, which)

    components = _walk_strands(arcs, occupancy, auto_orient)
    if auto_orient:
        occupancy = {}
        for a, (tail, head) in enumerate(arcs):
            occupancy[tail] = (a, 0)
            occupancy[head] = (a, 1)

    # strand consistency: slot j and slot j+2 carry opposite in/out roles
    for cr in range(n_crossings):
        for slot in (0, 1):
            here = occupancy[(cr, slot)][1]
            there = occupancy[(cr, slot + 2)][1]
            if here == there:
                raise InconsistentOrientation(
                    f"strand through crossing {cr} slots {slot}/{slot + 2} "
                    "has two inputs or two outputs"
                )

    rotations = [tuple(range(4 * i, 4 * i + 4)) for i in range(n_crossings)]
    pairing = [
        (4 * tail[0] + tail[1], 4 * head[0] + head[1]) for tail, head in arcs
    ]
    cmap = CombinatorialMap(rotations, pairing, [p[0] for p in pairing])
    return SurfaceLinkDiagram(n_crossings, tuple(arcs), cmap, components)


def _walk_strands(
    arcs: list[tuple[End, End]], occupancy: dict[End, tuple[int, int]], auto_orient: bool
) -> tuple[tuple[int, ...], ...]:
    """Each component's arcs in strand order, from its lowest-id arc.  Under
    auto_orient the walk also redirects, in `arcs`, each arc whose head sits
    where the strand needs a tail, so the lowest-id arc keeps its written
    direction; `occupancy` holds the ends as written."""
    comps = []
    seen: set[int] = set()
    for a0 in range(len(arcs)):
        if a0 in seen:
            continue
        walk = []
        a = a0
        while a not in seen:
            seen.add(a)
            walk.append(a)
            cr, slot = arcs[a][1]
            a, which = occupancy[(cr, (slot + 2) % 4)]
            if auto_orient and which == 1:  # the walk ends at a0's tail, never flipped
                arcs[a] = (arcs[a][1], arcs[a][0])
        comps.append(tuple(walk))
    return tuple(comps)


serialize_diagram = SurfaceLinkDiagram.to_text


# -- crossing-level queries ---------------------------------------------------


def _sign(tails: set[tuple[int, int]], cr: int) -> int:
    """crossing_sign of cr, given the set of every arc's tail slot: the
    over-strand leaves by slot 0 or 2 and the under-strand by slot 1 or 3."""
    over_out = 0 if (cr, 0) in tails else 2
    under_out = 1 if (cr, 1) in tails else 3
    return 1 if under_out == (over_out + 1) % 4 else -1


def crossing_sign(d: SurfaceLinkDiagram, cr: int) -> int:
    """+1 when the under-strand exits one counterclockwise step past the
    over-strand's exit, -1 otherwise."""
    return _sign({tail for tail, _ in d.arcs}, cr)


def writhe(d: SurfaceLinkDiagram) -> int:
    """The sum of the crossing signs, from one set of arc tails."""
    tails = {tail for tail, _ in d.arcs}
    return sum(_sign(tails, cr) for cr in range(d.crossings))


def is_alternating(d: SurfaceLinkDiagram) -> bool:
    """True when every arc joins an over-slot to an under-slot."""
    return all(
        d.is_over_slot(tail[1]) != d.is_over_slot(head[1]) for tail, head in d.arcs
    )


# -- checkerboard structure ----------------------------------------------------


def checkerboard(d: SurfaceLinkDiagram) -> Coloring:
    """2-color the faces; shade the class of the A-regions (the two corners
    that the A-smoothing merges, between the over-strand's exits and their
    counterclockwise neighbors) when that class is consistent across
    crossings -- always so for alternating diagrams -- else the class of
    crossing 0's A-corner."""
    m = d.cmap
    if m is None:
        raise NotCheckerboardColorable("the 0-crossing unknot has no face structure")
    face_of = m.face_of
    color: dict[int, int] = {0: 0}
    stack = [0]
    while stack:
        f = stack.pop()
        for h in m.faces[f]:
            nb = face_of[m.alpha[h]]
            if nb in color:
                if color[nb] == color[f]:
                    raise NotCheckerboardColorable(
                        f"faces {f} and {nb} are adjacent with equal color"
                    )
            else:
                color[nb] = 1 - color[f]
                stack.append(nb)
    # the face at the corner between slots j and j+1 is the face of 4cr+j+1
    a_corner_colors = {color[face_of[4 * cr + 1]] for cr in range(d.crossings)}
    shade = a_corner_colors.pop() if len(a_corner_colors) == 1 else color[face_of[1]]
    shaded = frozenset(f for f, cl in color.items() if cl == shade)
    unshaded = frozenset(f for f, cl in color.items() if cl != shade)
    return Coloring(shaded, unshaded)


def tait_graphs(d: SurfaceLinkDiagram, coloring: Coloring) -> TaitPair:
    """Embedded Tait graphs: one vertex per shaded (resp. unshaded) face,
    one edge per crossing joining its two same-color corners, with rotations
    read off the face walks."""
    m = d.cmap
    # shaded_leading[i] = j in {0, 1}: slots j and j+2 lead crossing i's shaded
    # corners, 1-j and 3-j its unshaded ones (slot s leads the corner s, s+1)
    shaded_leading = []
    for cr in range(d.crossings):
        # corner led by slot j belongs to the face of slot j+1
        shaded_leading.append(0 if coloring.is_shaded(m.face_of[4 * cr + 1]) else 1)
    shaded_leading = tuple(shaded_leading)

    def build(face_set: frozenset[int], leading: Iterable[int]) -> CombinatorialMap:
        tait_half: dict[int, int] = {}
        for cr, j in enumerate(leading):
            tait_half[4 * cr + j] = 2 * cr
            tait_half[4 * cr + j + 2] = 2 * cr + 1
        rotations = []
        for idx in sorted(face_set):
            walk = m.faces[idx]
            rotations.append(tuple(tait_half[m.alpha[h]] for h in walk))
        pairing = [(2 * cr, 2 * cr + 1) for cr in range(d.crossings)]
        return CombinatorialMap(rotations, pairing, [2 * cr for cr in range(d.crossings)])

    g_a = build(coloring.shaded, shaded_leading)
    g_b = build(coloring.unshaded, tuple(1 - j for j in shaded_leading))
    return TaitPair(g_a, g_b)


def reduced_flags(d: SurfaceLinkDiagram) -> ReducedFlags:
    """DiagramAnalysis(d).flags, imported on use: invariants imports this
    module."""
    from .invariants import DiagramAnalysis

    return DiagramAnalysis(d).flags


# -- states ---------------------------------------------------------------------


def check_crossing_cap(d: SurfaceLinkDiagram, cap: int) -> None:
    """Refuse a diagram of more than `cap` crossings: the cap on the 2^c
    states, and the one check and message of every command that enforces it."""
    if d.crossings > cap:
        raise CrossingCapExceeded(f"{d.crossings} crossings exceed the cap of {cap}")


def state_numbers(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> list[tuple[int, int, int]]:
    """(b, |s|, r) of every smoothing state, in bitmask order (bit i set = B
    at crossing i), the order of homology.enumerate_states: walk_states with
    a list sink."""
    rows: list[tuple[int, int, int]] = []
    walk_states(d, rows, cap)
    return rows


def state_tally(d: SurfaceLinkDiagram, cap: int = DEFAULT_CAP) -> dict[tuple[int, int, int], int]:
    """How many states have each (b, |s|, r) row of state_numbers:
    walk_states with a tally sink."""
    tally: dict[tuple[int, int, int], int] = {}
    walk_states(d, tally, cap)
    return tally


def walk_states(d: SurfaceLinkDiagram, sink: dict | list, cap: int = DEFAULT_CAP) -> None:
    """The row (b, |s|, r) of every smoothing state, from integer counts
    alone, counted into a dict `sink` or appended to a list `sink` in
    bitmask order (bit i set = B at crossing i): ribbon.walk_choices with
    the A-smoothing of crossing i as its first choice and the B-smoothing
    as its second.

    The curves are the arcs of the diagram joined at the crossings: starting
    from the pairing alpha of each half-edge with the other end of its arc,
    the A-smoothing of crossing cr joins the ends 4cr+1 to 4cr+2 and 4cr+3
    to 4cr, the B-smoothing 4cr to 4cr+1 and 4cr+2 to 4cr+3 (see smooth).
    The curves cut the surface into R regions.  The regions' boundaries span
    the relations among the curve classes, with one dependency, so
    r = |s| - R + 1.  The regions are the faces of the diagram joined through
    the crossings: the A-smoothing merges the corners led by slots 0 and 2,
    the B-smoothing those led by 1 and 3, and the corner led by slot j lies
    in the face of half-edge 4*cr + (j+1) % 4; a union-find over the faces
    counts them.  The 0-crossing unknot is one curve cutting the sphere in
    two.
    """
    check_crossing_cap(d, cap)
    c = d.crossings
    if c == 0:
        walk_choices((), [], (2,), _state_row, sink, curves=1)
        return
    m = d.cmap
    face_of = m.face_of
    choices = []
    for cr in range(c):
        x = 4 * cr
        a = (x + 1, x + 2, x + 3, x, 0, face_of[x + 1], face_of[x + 3])
        b = (x, x + 1, x + 2, x + 3, 0, face_of[x + 2], face_of[x])
        choices.append((a, b))
    walk_choices(choices, list(m.alpha), (m.F,), _state_row, sink)


def _state_row(b: int, size: int, regions: int) -> tuple[int, int, int]:
    """(b, |s|, r) of a state with `size` curves cutting `regions` regions."""
    return b, size, size - regions + 1
