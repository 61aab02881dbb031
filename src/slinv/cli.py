"""Command-line front end.

Commands: invariants, verify, states, bounds, krushkal, corpus.
Exit codes: 0 success (failed verifiers are data, not errors), 1 unreadable
or malformed input, 2 violated hypothesis or enumeration cap.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from functools import lru_cache, partial
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path

from .diagram import (
    DEFAULT_CAP,
    SurfaceLinkDiagram,
    check_crossing_cap,
    parse_diagram,
    state_numbers,
    writhe,
)
from .errors import InputError, NonIntegerGenus, PreconditionError, SlinvError
from .invariants import (
    DiagramAnalysis,
    InvariantReport,
    MapAnalysis,
    _weight,
    full_report,
    map_verdicts,
)
from .ribbon import CombinatorialMap, format_lines, parse_map


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_diagram(path: str, args) -> SurfaceLinkDiagram:
    return parse_diagram(_load_text(path), auto_orient=getattr(args, "auto_orient", False))


def _load_any(path: str, args) -> SurfaceLinkDiagram | CombinatorialMap:
    """The diagram or map in `path`: a recognised header decides the format,
    and the suffix decides it only for a file without one, whose parser then
    reports the header."""
    text = _load_text(path)
    try:
        kind = format_lines(text, "sld", "rg")[0]
    except InputError:
        kind = Path(path).suffix[1:]
    if kind == "sld":
        return parse_diagram(text, auto_orient=getattr(args, "auto_orient", False))
    if kind == "rg":
        return parse_map(text)
    raise InputError(f"{path}: expected an .sld diagram or .rg map file")


def _cap(args) -> int:
    cap = getattr(args, "max_crossings", None)
    if cap is None:
        return DEFAULT_CAP
    if cap > DEFAULT_CAP:
        print(
            f"warning: cap {cap} implies up to 2^{cap} enumerated states/subgraphs",
            file=sys.stderr,
        )
    return cap


_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(value, nl: str = "\n") -> str:
    """The text json.dumps(value, indent=2) gives, for values built of dict
    (str keys), list, str, int, float, bool and None, each of exactly that
    type; anything else raises TypeError.  nl is the newline and indent of
    the value's own line.  Each container joins its items' texts once, which
    costs a little over half of what json's pure-Python indenting encoder
    does."""
    t = type(value)
    if t is dict:
        if not value:
            return "{}"
        inner = nl + "  "
        # _json_str raises TypeError on a key that is not a str
        parts = [_json_str(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(parts) + nl + "}"
    if t is list:
        if not value:
            return "[]"
        inner = nl + "  "
        parts = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(parts) + nl + "]"
    if t is str:
        return _json_str(value)
    if t is int:
        return int.__repr__(value)
    if t is float:
        text = float.__repr__(value)
        return _FLOAT_SPECIALS.get(text, text)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {t.__name__} is not JSON serializable")


def _emit(args, obj, text) -> None:
    """Print obj() as JSON under --json, else text(): each is a function of
    no arguments, called only to print it, so that a command renders nothing
    it does not print.  The JSON is byte for byte json.dumps(obj(), indent=2)."""
    if getattr(args, "json", False):
        print(_json_text(obj()))
    else:
        print(text())


def _verdict_lines(verdicts) -> list[str]:
    width = max((len(v.name) for v in verdicts), default=0)
    lines = []
    for v in verdicts:
        lines.append(f"  {v.name:<{width}}  {v.status:<7}  {v.detail}".rstrip())
    return lines


# -- map-file (.rg) reporting ---------------------------------------------------


def _map_report(m: CombinatorialMap, cap: int):
    """The --json object and the text of one map's report, as two functions
    of no arguments for _emit: the analysis and verdicts are computed now,
    and each is rendered only when called."""
    a = MapAnalysis(m, cap)
    p, P, data = a.p, a.P, a.reduced
    rows = map_verdicts([("G", a, a.dual)])

    def obj() -> dict:
        return {
            "vertices": m.V,
            "edges": m.E,
            "faces": m.F,
            "genus": m.genus,
            "p": p.to_report_json(),
            "P": P.to_report_json(),
            "reduced": data.to_json(),
            "verdicts": [v.to_json() for v in rows],
        }

    def text() -> str:
        lines = [
            f"map: {m.V} vertices, {m.E} edges, {m.F} faces, genus {m.genus}",
            f"p = {p.to_text()}",
            f"P = {P.to_text()}",
            f"reduced graph: lambda={data.lam} mu={data.mu} gamma={data.gamma}"
            f" trivial-loops-deleted={data.trivial_loops_deleted}"
            f" kept-edges={list(data.kept_edges)}"
            + (" (3-petal loops present)" if data.has_3petal else ""),
            "verdicts:",
            *_verdict_lines(rows),
        ]
        return "\n".join(lines)

    return obj, text


# -- diagram reporting ------------------------------------------------------------


def _report_text(r: InvariantReport) -> str:
    yes = {True: "yes", False: "no"}
    lines = [
        f"diagram: {r.crossings} crossings, genus {r.genus}, writhe {r.writhe},"
        f" {r.components} component(s)",
        f"alternating: {yes[r.alternating]}   checkerboard-colorable: {yes[r.colorable]}",
    ]
    if r.flags is not None:
        flagged = [
            name
            for name, on in (
                ("cellular", r.flags.cellular),
                ("nugatory-free", r.flags.nugatory_free),
                ("strongly-reduced", r.flags.strongly_reduced),
            )
            if on
        ]
        lines.append(f"flags: {', '.join(flagged) if flagged else 'none'}")
    if r.n is not None:
        lines.append(f"tait graphs: |V(G_A)| = {r.n + 1} (n = {r.n}), |V(G_B)| = {r.N + 1} (N = {r.N})")
        for side, t in (("G_A", r.tait_a), ("G_B", r.tait_b)):
            lines.append(
                f"{side}: lambda={t.lam} mu={t.mu} gamma={t.gamma}"
                f" trivial-loops-deleted={t.trivial_loops_deleted}"
            )
    if r.p is not None:
        lines.append(f"p(G_A) = {r.p.to_text()}")
        lines.append(f"P(G_A) = {r.P.to_text()}")
    if r.jones_krushkal is not None:
        lines.append(f"J_K = {r.jones_krushkal.to_text()}")
        lines.append(f"Jones = {r.jones.to_text()}")
        lines.append(f"t-span of J_K(t,1) = {r.t_span} (c - g = {r.crossings - r.genus})")
    if r.tau is not None:
        lines.append(
            f"tau = {r.tau} (formula {r.tau_by_formula}), twist regions = {r.twist_regions}"
        )
    else:
        lines.append(f"tau unavailable; twist regions = {r.twist_regions}")
    if r.volume_lower is not None:
        lines.append(f"volume bounds: [{r.volume_lower:.5f}, {r.volume_upper:.5f})")
    if r.volume_note:
        lines.append(f"volume note: {r.volume_note}")
    lines.append("verdicts:")
    lines.extend(_verdict_lines(r.verdicts))
    return "\n".join(lines)


def cmd_invariants(args) -> int:
    loaded = _load_any(args.path, args)
    cap = _cap(args)
    if isinstance(loaded, CombinatorialMap):
        _emit(args, *_map_report(loaded, cap))
        return 0
    report = full_report(loaded, cap)
    _emit(args, report.to_json, partial(_report_text, report))
    return 0


def cmd_verify(args) -> int:
    loaded = _load_any(args.path, args)
    cap = _cap(args)
    if isinstance(loaded, CombinatorialMap):
        a = MapAnalysis(loaded, cap)
        rows = map_verdicts([("G", a, a.dual)])
    else:
        rows = list(full_report(loaded, cap).verdicts)
    if args.verifier:
        wanted = set(args.verifier)

        def base(name: str) -> str:
            return name.split("[")[0]

        unknown = wanted - {base(v.name) for v in rows}
        if unknown:
            raise InputError(
                f"unknown verifier(s) {sorted(unknown)};"
                f" available: {sorted({base(v.name) for v in rows})}"
            )
        rows = [v for v in rows if base(v.name) in wanted]
    _emit(
        args,
        lambda: {"verdicts": [v.to_json() for v in rows]},
        lambda: "\n".join(_verdict_lines(rows)).lstrip("\n") or "(no verdicts)",
    )
    return 0


def cmd_states(args) -> int:
    d = _load_diagram(args.path, args)
    cap = _cap(args)
    c = d.crossings
    # one enumeration feeds both the table and the state sum: the integer
    # rows, or under --dump the States, whose curve classes need homology
    if args.dump:
        from .homology import enumerate_states

        states = list(enumerate_states(d, cap))
        numbers = [(s.b, s.size, s.r) for s in states]
    else:
        numbers = state_numbers(d, cap)
    tally = Counter(numbers)
    try:
        jk = DiagramAnalysis(d, cap, tally).jk
        jk_note = None
    except PreconditionError as exc:
        jk, jk_note = None, str(exc)
    # reduced weight carries (-t^-1/2 - t^1/2)^(k-1), undefined at k=0;
    # rendered once per distinct row
    weights = {
        (b, size, r): _weight(2 * b - c, r, size - r).to_text() if size > r else None
        for b, size, r in tally
    }
    w = writhe(d)
    rows = []
    for mask, (b, size, r) in enumerate(numbers):
        k = size - r
        weight_text = weights[b, size, r]
        row = {
            "choice": "".join("B" if mask >> cr & 1 else "A" for cr in range(c)),
            "a": c - b,
            "b": b,
            "size": size,
            "k": k,
            "r": r,
            "weight": weight_text,
        }
        if args.dump:
            row["curves"] = [
                [[e, str(coeff)] for e, coeff in curve] for curve in states[mask].curves
            ]
        rows.append(row)

    def obj() -> dict:
        out = {
            "crossings": d.crossings,
            "writhe": w,
            "states": rows,
            "jones_krushkal": None if jk is None else jk.to_report_json(),
        }
        if jk_note:
            out["jones_krushkal_note"] = jk_note
        return out

    def text() -> str:
        lines = [f"{2 ** d.crossings} states (prefactor (-1)^w t^(3w/4), w = {w}):"]
        for row in rows:
            lines.append(
                f"  {row['choice'] or '-':<{max(d.crossings, 1)}}  a={row['a']} b={row['b']}"
                f" |s|={row['size']} k={row['k']} r={row['r']}"
                f"  weight {row['weight'] if row['weight'] is not None else '(undefined, k=0)'}"
            )
            if args.dump:
                for curve in row.get("curves", []):
                    rendered = " ".join(f"{coeff}*e{e}" for e, coeff in curve) or "0"
                    lines.append(f"      curve class: {rendered}")
        if jk is None:
            lines.append(f"J_K undefined: {jk_note}")
        else:
            lines.append(f"J_K = {jk.to_text()}")
        return "\n".join(lines)

    _emit(args, obj, text)
    return 0


def cmd_bounds(args) -> int:
    d = _load_diagram(args.path, args)
    # bounds enumerate no states or subgraphs, so the analysis needs no cap;
    # --max-crossings is still enforced first, as in every other command
    check_crossing_cap(d, _cap(args))
    a = DiagramAnalysis(d)
    lower, upper, note = a.volume
    t = a.tau_by_classes
    obj = {
        "tau": t,
        "genus": d.genus,
        "lower": lower,
        "upper": upper,
        "note": note,
    }
    lines = [
        f"tau = {t} on genus {d.genus}",
        f"volume lower bound: {lower:.5f}",
        f"volume upper bound: {upper:.5f}",
    ]
    if note:
        lines.append(f"note: {note}")
    _emit(args, lambda: obj, lambda: "\n".join(lines))
    return 0


def cmd_krushkal(args) -> int:
    m = parse_map(_load_text(args.path))
    cap = _cap(args)
    _emit(args, *_map_report(m, cap))
    return 0


def cmd_corpus(args) -> int:
    root = resources.files("slinv.data")
    names = sorted(
        entry.name for entry in root.iterdir() if entry.name.endswith((".sld", ".rg"))
    )
    if args.name:
        if args.name not in names:
            raise InputError(f"no bundled file {args.name!r}; available: {names}")
        sys.stdout.write(root.joinpath(args.name).read_text())
        return 0
    if args.export:
        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        for name in names:
            (out / name).write_text(root.joinpath(name).read_text())
        print(f"wrote {len(names)} files to {out}")
        return 0
    for name in names:
        print(name)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("cap must be >= 1")
    return value


@lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once: argparse's actions and parsers refer to each
    other, so a parser per call would leave a reference cycle behind."""
    parser = argparse.ArgumentParser(
        prog="slinv",
        description="Exact invariants of link diagrams on closed orientable surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, diagram_flags=True):
        p.add_argument("path", help="input .sld diagram or .rg map file")
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")
        p.add_argument(
            "--max-crossings",
            type=_positive_int,
            default=None,
            metavar="N",
            help=f"enumeration cap (default {DEFAULT_CAP})",
        )
        if diagram_flags:
            p.add_argument(
                "--auto-orient",
                action="store_true",
                help="repair arc orientations that disagree along a strand",
            )

    p = sub.add_parser("invariants", help="full invariant report")
    common(p)
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("verify", help="run the identity verifiers")
    common(p)
    p.add_argument(
        "--verifier",
        action="append",
        default=[],
        metavar="NAME",
        help="restrict to the named verifier (repeatable)",
    )
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("states", help="per-state table and the state sum")
    common(p)
    p.add_argument("--dump", action="store_true", help="include curve homology classes")
    p.set_defaults(func=cmd_states)

    p = sub.add_parser("bounds", help="volume bounds from the twist number")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("krushkal", help="four-variable polynomial of a map file")
    common(p, diagram_flags=False)
    p.set_defaults(func=cmd_krushkal)

    p = sub.add_parser("corpus", help="list, print, or export the bundled examples")
    p.add_argument("name", nargs="?", help="print this bundled file to stdout")
    p.add_argument("--export", metavar="DIR", help="write all bundled files into DIR")
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, NonIntegerGenus) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SlinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
