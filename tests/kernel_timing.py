"""Time the two 2^n tallies and count their smooths, and time the Tutte oracle.

For seeded torus diagrams at c = 8..18 (the state sum, and the subgraph sum
over the shaded Tait graph) and seeded genus 1-3 maps at E = 8..12, print
one line per input: the best time of state_tally or subgraph_tally, 2^n,
and the number of calls to ribbon.smooth in one tally, read by wrapping it.
A flat walk makes 2^(n+1) - 2 of them, a sweep two per signature and item,
so the c = 16 and 18 lines show where the sweep's item order does well or
badly.  Each state-sum line also gives the best time of _state_sum, which
assembles J_K from the tally, and each Tait graph and map line the best time
of _shifted, which expands its p_G into P_G, and of the one-shot queries
(reduce on a fresh MapAnalysis, its single-edge kernels and parallel pairs
included), with the number of subgraph_numbers calls they make.  Each line
also times the output layer on what it computed: to_text on J_K, or on p and
P, and the --json writer against json.dumps(indent=2) on those polynomials'
report objects.
Then one line per Tait graph and map: the best time of tutte_check, its
p_G summed beforehand, and the number of graphs its rank polynomial caches;
and the same for the rank polynomial alone of the lattices under the square
weaves W(4,4) and W(4,6).

    PYTHONPATH=src python tests/kernel_timing.py [--count 3] [--reps 5] [--json FILE]
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import slinv.invariants  # noqa: E402
import slinv.ribbon  # noqa: E402
from slinv.cli import _json_text  # noqa: E402
from slinv import (  # noqa: E402
    MapAnalysis,
    SurfaceLinkDiagram,
    checkerboard,
    reduce,
    state_tally,
    subgraph_tally,
    tait_graphs,
    tutte_check,
)
from slinv.invariants import _shifted, _state_sum, rank_polynomial  # noqa: E402

from conftest import rank_cache_size, random_ribbon_map, sample_torus_diagrams, square_lattice_edges  # noqa: E402


def sample_maps(seed: int, count: int, edges: int) -> list:
    """Random genus 1-3 maps with exactly `edges` edges, by rejection."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_ribbon_map(rng, v_max=4, e_max=edges)
        if m is not None and m.E == edges and 1 <= m.genus <= 3:
            out.append(m)
    return out


def ribbon_calls(name: str, fn) -> int:
    """The calls to ribbon's function `name` in one fn(), read by wrapping it
    wherever ribbon or invariants binds it."""
    original, calls = getattr(slinv.ribbon, name), []

    def counted(*args):
        calls.append(None)
        return original(*args)

    modules = [module for module in (slinv.ribbon, slinv.invariants) if vars(module).get(name) is original]
    for module in modules:
        setattr(module, name, counted)
    try:
        fn()
    finally:
        for module in modules:
            setattr(module, name, original)
    return len(calls)


def best_time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def output_timings(polys: dict, reps: int) -> tuple[dict, str]:
    """The best times, in ms, of to_text on each named polynomial and of
    the --json writer and json.dumps(indent=2) on their report objects."""
    line = {f"to_text_{name}_ms": best_time(poly.to_text, reps) * 1e3 for name, poly in polys.items()}
    obj = {name: poly.to_report_json() for name, poly in polys.items()}
    line["writer_ms"] = best_time(lambda: _json_text(obj), reps) * 1e3
    line["json_dumps_ms"] = best_time(lambda: json.dumps(obj, indent=2), reps) * 1e3
    text = "".join(f" to_text({name}) {line[f'to_text_{name}_ms']:6.3f} ms" for name in polys)
    text += f" writer {line['writer_ms']:6.3f} ms json.dumps {line['json_dumps_ms']:6.3f} ms"
    return line, text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=3, help="inputs per size")
    parser.add_argument("--reps", type=int, default=5, help="timed runs per input")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="FILE", help="also write the lines as JSON")
    args = parser.parse_args(argv)

    # (name, n, tally, subject): a diagram's line also times _state_sum, a
    # map's line _shifted
    cases = []
    for c in range(8, 19, 2):
        for i, d in enumerate(sample_torus_diagrams(args.seed, args.count, c, c)):
            g_a = tait_graphs(d, checkerboard(d)).g_a
            cases.append((f"state sum c={c} #{i}", c, lambda d=d: state_tally(d), d))
            cases.append((f"Tait graph E={c} #{i}", c, lambda g=g_a: subgraph_tally(g), g_a))
    for edges in (8, 10, 12):
        for i, m in enumerate(sample_maps(args.seed, args.count, edges)):
            cases.append((f"map E={edges} g={m.genus} #{i}", edges, lambda m=m: subgraph_tally(m), m))

    lines, analyses = [], []
    for name, n, tally_of, subject in cases:
        smooths = ribbon_calls("smooth", tally_of)
        seconds = best_time(tally_of, args.reps)
        line = {"input": name, "n": n, "ms": seconds * 1e3, "states": 1 << n, "smooths": smooths}
        text = f"{name:<24} {seconds * 1e3:8.3f} ms  2^n={1 << n:<6} smooths={smooths:<6}"
        if isinstance(subject, SurfaceLinkDiagram):
            tally = state_tally(subject)
            line["state_sum_ms"] = best_time(lambda d=subject, t=tally: _state_sum(d, t), args.reps) * 1e3
            text += f" _state_sum {line['state_sum_ms']:7.3f} ms"
            polys = {"J_K": _state_sum(subject, tally)[0]}
        else:
            analysis = MapAnalysis(subject)
            analyses.append((name, analysis))
            line["shifted_ms"] = best_time(lambda p=analysis.p: _shifted(p), args.reps) * 1e3
            queries = lambda m=subject: reduce(MapAnalysis(m))  # noqa: E731
            line["queries_ms"] = best_time(queries, args.reps) * 1e3
            line["query_calls"] = ribbon_calls("subgraph_numbers", queries)
            text += f" _shifted {line['shifted_ms']:7.3f} ms"
            text += f" queries {line['queries_ms']:7.3f} ms calls={line['query_calls']}"
            polys = {"p": analysis.p, "P": analysis.P}
        timings, timings_text = output_timings(polys, args.reps)
        line.update(timings)
        text += timings_text
        lines.append(line)
        print(text)

    oracles = []
    for name, analysis in analyses:
        m = analysis.map
        edges = [m.endpoints(e) for e in m.edge_ids]
        oracles.append((f"tutte_check {name}", edges, lambda a=analysis: tutte_check(a)))
    for p, q in ((4, 4), (4, 6)):
        edges = square_lattice_edges(p, q)
        oracles.append((f"rank polynomial W({p},{q})", edges, lambda e=edges: rank_polynomial(e)))
    for name, edges, check in oracles:
        cached = rank_cache_size(edges)
        seconds = best_time(check, args.reps)
        lines.append({"input": name, "n": len(edges), "ms": seconds * 1e3, "cache": cached})
        print(f"{name:<36} {seconds * 1e3:8.3f} ms  cache={cached}")
    if args.json:
        Path(args.json).write_text(json.dumps(lines, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
