"""Time the two 2^n walks and show what their cut saves.

For seeded torus diagrams at c = 8..14 (the state sum, and the subgraph sum
over the shaded Tait graph) and seeded genus 1-3 maps at E = 8..12, print
one line per input: the best time of state_tally or subgraph_tally, 2^n,
the cut depth k, the number G of distinct signatures and the leaves walked
(2^(n-k) top leaves plus 2^k for each signature).  Sources without the cut
report k = 0, G = 1 and 2^n leaves.

    PYTHONPATH=src python tests/kernel_timing.py [--count 3] [--reps 5] [--json FILE]
"""

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import slinv.ribbon  # noqa: E402
from slinv import checkerboard, state_tally, subgraph_tally, tait_graphs  # noqa: E402

from conftest import random_ribbon_map, sample_torus_diagrams  # noqa: E402


def sample_maps(seed: int, count: int, edges: int) -> list:
    """Random genus 1-3 maps with exactly `edges` edges, by rejection."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        m = random_ribbon_map(rng, v_max=4, e_max=edges)
        if m is not None and m.E == edges and 1 <= m.genus <= 3:
            out.append(m)
    return out


def leaves_walked(tally_of) -> tuple[int, int, int]:
    """(k, G, leaves) of one tallying walk, read by wrapping the walk's
    recursion: each call on the last item of a walk visits two leaves, and
    each walk after the first is the bottom walk of a new signature."""
    ribbon = slinv.ribbon
    if not hasattr(ribbon, "walk_choices"):
        return 0, 1, sum(tally_of().values())
    walk, walk_from, leaves, walks = ribbon._walk, ribbon._walk_from, [], []

    def counted(state, e, key):
        steps, _, last, _ = state
        if e == last:
            leaves.extend(steps[e])
        walk(state, e, key)

    def counted_from(state, e, key):
        walks.append(e)
        walk_from(state, e, key)

    ribbon._walk, ribbon._walk_from = counted, counted_from
    try:
        n = sum(tally_of().values()).bit_length() - 1
    finally:
        ribbon._walk, ribbon._walk_from = walk, walk_from
    k = ribbon._cut_depth(n)
    return k, max(len(walks) - 1, 1), len(leaves)


def best_time(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--count", type=int, default=3, help="inputs per size")
    parser.add_argument("--reps", type=int, default=5, help="timed runs per input")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", metavar="FILE", help="also write the lines as JSON")
    args = parser.parse_args(argv)

    cases = []
    for c in range(8, 15, 2):
        for i, d in enumerate(sample_torus_diagrams(args.seed, args.count, c, c)):
            g_a = tait_graphs(d, checkerboard(d)).g_a
            cases.append((f"state sum c={c} #{i}", c, lambda d=d: state_tally(d)))
            cases.append((f"Tait graph E={c} #{i}", c, lambda g=g_a: subgraph_tally(g)))
    for edges in (8, 10, 12):
        for i, m in enumerate(sample_maps(args.seed, args.count, edges)):
            cases.append((f"map E={edges} g={m.genus} #{i}", edges, lambda m=m: subgraph_tally(m)))

    lines = []
    for name, n, tally_of in cases:
        k, groups, leaves = leaves_walked(tally_of)
        seconds = best_time(tally_of, args.reps)
        lines.append({"input": name, "n": n, "ms": seconds * 1e3, "states": 1 << n, "k": k, "G": groups, "leaves": leaves})
        print(f"{name:<24} {seconds * 1e3:8.3f} ms  2^n={1 << n:<6} k={k}  G={groups:<4} leaves={leaves}")
    if args.json:
        Path(args.json).write_text(json.dumps(lines, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
