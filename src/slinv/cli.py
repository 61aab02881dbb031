"""Command-line front end.

Commands: invariants, verify, states, bounds, krushkal, corpus.
Exit codes: 0 success (failed verifiers are data, not errors), 1 unreadable
or malformed input, 2 violated hypothesis or enumeration cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from functools import lru_cache
from importlib import resources
from pathlib import Path

from .diagram import (
    DEFAULT_CAP,
    SurfaceLinkDiagram,
    parse_diagram,
    state_numbers,
    writhe,
)
from .errors import InputError, NonIntegerGenus, PreconditionError, SlinvError
from .invariants import (
    FORMAL_BOUNDS_NOTE,
    DiagramAnalysis,
    InvariantReport,
    MapAnalysis,
    Verdict,
    _check_crossing_cap,
    _loop_deletion_verdict,
    _tutte_verdict,
    _weight,
    full_report,
    verify_krushkal_coeffs,
    verify_polynomial_duality,
    verify_subgraph_count,
    volume_bounds,
)
from .ribbon import CombinatorialMap, parse_map


def _load_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_diagram(path: str, args) -> SurfaceLinkDiagram:
    return parse_diagram(_load_text(path), auto_orient=getattr(args, "auto_orient", False))


def _load_any(path: str, args) -> SurfaceLinkDiagram | CombinatorialMap:
    text = _load_text(path)
    first = text.lstrip().splitlines()[0] if text.strip() else ""
    if path.endswith(".sld") or first.startswith("format sld"):
        return parse_diagram(text, auto_orient=getattr(args, "auto_orient", False))
    if path.endswith(".rg") or first.startswith("format rg"):
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


def _emit(args, obj: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(obj, indent=2))
    else:
        print(text)


def _verdict_lines(verdicts) -> list[str]:
    width = max((len(v.name) for v in verdicts), default=0)
    lines = []
    for v in verdicts:
        lines.append(f"  {v.name:<{width}}  {v.status:<7}  {v.detail}".rstrip())
    return lines


# -- map-file (.rg) reporting ---------------------------------------------------


def _map_verdicts(a: MapAnalysis) -> list[Verdict]:
    m = a.map
    rows = list(verify_krushkal_coeffs(m, analysis=a))
    rows.append(verify_polynomial_duality(m, analysis=a))
    rows.append(verify_subgraph_count(m, analysis=a))
    rows.append(_tutte_verdict(a))
    rows.append(_loop_deletion_verdict([("G", a)]))
    return rows


def _map_report(m: CombinatorialMap, cap: int) -> tuple[dict, str]:
    a = MapAnalysis(m, cap)
    p, P, data = a.p, a.P, a.reduced
    rows = _map_verdicts(a)
    obj = {
        "vertices": m.V,
        "edges": m.E,
        "faces": m.F,
        "genus": m.genus,
        "p": {"text": p.to_text(), "terms": p.to_json()},
        "P": {"text": P.to_text(), "terms": P.to_json()},
        "reduced": data.to_json(),
        "verdicts": [v.to_json() for v in rows],
    }
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
    return obj, "\n".join(lines)


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
        obj, text = _map_report(loaded, cap)
        _emit(args, obj, text)
        return 0
    report = full_report(loaded, cap)
    _emit(args, report.to_json(), _report_text(report))
    return 0


def cmd_verify(args) -> int:
    loaded = _load_any(args.path, args)
    cap = _cap(args)
    if isinstance(loaded, CombinatorialMap):
        rows = _map_verdicts(MapAnalysis(loaded, cap))
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
    obj = {"verdicts": [v.to_json() for v in rows]}
    _emit(args, obj, "\n".join(_verdict_lines(rows)).lstrip("\n") or "(no verdicts)")
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
    obj = {
        "crossings": d.crossings,
        "writhe": w,
        "states": rows,
        "jones_krushkal": None if jk is None else {"text": jk.to_text(), "terms": jk.to_json()},
    }
    if jk_note:
        obj["jones_krushkal_note"] = jk_note
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
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_bounds(args) -> int:
    d = _load_diagram(args.path, args)
    # bounds enumerate no states or subgraphs, so the analysis needs no cap;
    # --max-crossings is still enforced first, as in every other command
    _check_crossing_cap(d, _cap(args))
    a = DiagramAnalysis(d)
    t = a.tau_by_classes
    lower, upper = volume_bounds(t, d.genus)
    note = "" if a.flags.strongly_reduced else FORMAL_BOUNDS_NOTE
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
    _emit(args, obj, "\n".join(lines))
    return 0


def cmd_krushkal(args) -> int:
    m = parse_map(_load_text(args.path))
    cap = _cap(args)
    obj, text = _map_report(m, cap)
    _emit(args, obj, text)
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
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SlinvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
