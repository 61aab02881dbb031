"""slinv benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload torus-report --seed 1 --seconds 30 --trace 0

Run from the repository root; slinv is imported from ./src.  One process,
one client, closed loop: each op starts when the previous one (and its
untimed output check) has finished, for about --seconds.  With
--trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json; with --trace 1 every op runs traced and then untraced, the
two outputs must match byte for byte, and the last line carries the
per-layer metrics.  The full record of a run (all end-to-end metrics with
sample counts, input statistics, verdict tallies, stamp) is printed above
the last line and written under perfbench/_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.resources
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import PER_LAYER_UNITS, Tracer, per_layer_metrics  # noqa: E402

SETUP_REPS = 9
# sizes per workload; --tiny selects the second set (smoke test only)
SIZES = {
    "torus-report": ({"c": 10, "pool": 40}, {"c": 4, "pool": 6}),
    "map-krushkal": ({"E": 10, "genera": (1, 2, 3), "pool": 40}, {"E": 4, "genera": (1, 2), "pool": 6}),
    "torus-statesum": ({"c": 12, "pool": 40}, {"c": 5, "pool": 6}),
    "corpus-cli": ({}, {}),
}
END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_s.p50": "s",
    "latency_s.p90": "s",
    "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
    "verdict_fail_ratio": "ratio",
}
# the end-to-end metrics gated on every workload.  p90 and the two failure
# ratios can be absent or 0, and the median of the five or six 5-second ops
# of a torus-report run spread up to 23% across seeds on a 2-vCPU VM
# (ops_per_s: 14%), so those are in the full record only
GATED = ("ops_per_s", "peak_rss_mb", "setup_s")


class Item:
    """One input: the file the program reads plus what the checks need."""

    def __init__(self, name: str, path: Path, text: str) -> None:
        self.name, self.path, self.text = name, path, text
        self.obj = None  # parsed diagram, for the library workload


# -- inputs --------------------------------------------------------------------


def make_inputs(workload: str, seed: int, size: dict, slinv, in_dir: Path) -> tuple[list[Item], dict]:
    rng = random.Random(seed)
    items: list[Item] = []
    draws = 0
    if workload in ("torus-report", "torus-statesum"):
        for i in range(size["pool"]):
            text, n = gen.torus_diagram(rng, size["c"])
            draws += n
            items.append(Item(f"d{i}.sld", in_dir / f"d{i}.sld", text))
        stats = {"c": size["c"], "genus": 1}
    elif workload == "map-krushkal":
        genera = size["genera"]
        for i in range(size["pool"]):
            # genus cycles through the range so every run sees the same mix
            text, n = gen.ribbon_map(rng, size["E"], genera[i % len(genera)])
            draws += n
            items.append(Item(f"m{i}.rg", in_dir / f"m{i}.rg", text))
        stats = {"E": size["E"], "genus": list(genera)}
    else:
        data = importlib.resources.files("slinv.data")
        for name in sorted(e.name for e in data.iterdir() if e.name.endswith((".sld", ".rg"))):
            items.append(Item(name, in_dir / name, data.joinpath(name).read_text()))
        stats = {}
    in_dir.mkdir(parents=True, exist_ok=True)
    for item in items:
        item.path.write_text(item.text)
    if workload == "torus-statesum":
        for item in items:
            item.obj = slinv.parse_diagram(item.text)
    stats.update(
        distinct_inputs=len({item.text for item in items}),
        rejection_draws=draws,
        diagram_homology_maxsize=sys.modules["slinv.diagram"].diagram_homology.cache_info().maxsize,
    )
    return items, stats


def setup(workload: str, seed: int, size: dict) -> tuple[list[float], list[Item], dict]:
    """Import slinv and make the inputs, SETUP_REPS times from a clean
    module table; returns every rep's time and the last rep's inputs."""
    in_dir = OUT / "inputs" / f"{workload}-{seed}"
    times = []
    for _ in range(SETUP_REPS):
        for key in [k for k in sys.modules if k == "slinv" or k.startswith("slinv.")]:
            del sys.modules[key]
        shutil.rmtree(in_dir, ignore_errors=True)
        t0 = time.perf_counter()
        slinv = importlib.import_module("slinv")
        importlib.import_module("slinv.cli")
        items, stats = make_inputs(workload, seed, size, slinv, in_dir)
        times.append(time.perf_counter() - t0)
    return times, items, stats


# -- ops -----------------------------------------------------------------------


def run_op(workload: str, item: Item):
    """The timed call; returns (exit code, result)."""
    if workload == "torus-statesum":
        inv = sys.modules["slinv.invariants"]
        jk = inv.jones_krushkal_statesum(item.obj)
        return 0, (jk, jk.jones_specialization())
    command = "krushkal" if workload == "map-krushkal" else "invariants"
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = sys.modules["slinv.cli"].main([command, str(item.path), "--json"])
    return code, out.getvalue()


def render(workload: str, result) -> str:
    if workload == "torus-statesum":
        jk, jones = result
        return f"{jk.to_text()}\n{jones.to_text()}\n"
    return result


# -- the loop --------------------------------------------------------------------


class Tally:
    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.attempted = self.failed = self.failed_any_verdict = 0
        self.verdicts_evaluated = self.verdicts_failed = 0
        self.known_defects: dict[str, int] = {}
        self.verdict_failures: dict[str, int] = {}
        self.problems: list[str] = []

    def add(self, outcome: checks.Outcome, item: Item) -> None:
        self.attempted += 1
        self.verdicts_evaluated += outcome.evaluated
        self.verdicts_failed += len(outcome.failed_verdicts)
        for name in outcome.failed_verdicts:
            self.verdict_failures[name] = self.verdict_failures.get(name, 0) + 1
        for name in outcome.known:
            self.known_defects[name] = self.known_defects.get(name, 0) + 1
        if outcome.problems:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(f"{item.name}: {'; '.join(outcome.problems)}")
        if outcome.problems or outcome.failed_verdicts:
            self.failed_any_verdict += 1


def measure(workload: str, items: list[Item], seconds: float, tracer: Tracer | None):
    tally = Tally()
    checker = checks.Checker(workload)
    cache = sys.modules["slinv.diagram"].diagram_homology
    trace_info = {"untraced_s": 0.0, "traced_s": 0.0, "output_bytes": 0, "hits": 0, "lookups": 0, "mismatches": 0}
    start = time.perf_counter()
    op_id = 0
    # start another op only while it is expected to end by about `seconds`:
    # ops take seconds each, so a plain deadline would overrun by half an op
    while op_id == 0 or (time.perf_counter() - start) * (1 + 0.5 / op_id) < seconds:
        item = items[op_id % len(items)]
        try:
            if tracer is not None:
                # the traced call goes first so that it meets the cache state
                # an untraced run would have
                before = cache.cache_info()
                tracer.install()
                span = tracer.begin_op(op_id)
                try:
                    t1 = time.perf_counter()
                    traced_code, traced_result = run_op(workload, item)
                    traced_latency = time.perf_counter() - t1
                finally:
                    tracer.end_op(span)
                    tracer.uninstall()
                after = cache.cache_info()
            t0 = time.perf_counter()
            code, result = run_op(workload, item)
            latency = time.perf_counter() - t0
            output = render(workload, result)
            if tracer is not None:
                trace_info["hits"] += after.hits - before.hits
                trace_info["lookups"] += after.hits + after.misses - before.hits - before.misses
                trace_info["untraced_s"] += latency
                trace_info["traced_s"] += traced_latency
                if workload != "torus-statesum":
                    trace_info["output_bytes"] += len(output.encode())
                if (traced_code, render(workload, traced_result)) != (code, output):
                    trace_info["mismatches"] += 1
            outcome = checker.check(item, code, output)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            latency = None
            outcome = checks.Outcome(problems=[f"raised {type(exc).__name__}: {exc}"])
        if latency is not None:
            tally.latencies.append(latency)
        tally.add(outcome, item)
        op_id += 1
    return tally, trace_info


# -- reporting -----------------------------------------------------------------


def quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(setup_times: list[float], tally: Tally) -> dict[str, dict]:
    lat = tally.latencies
    metrics = {
        "setup_s": {"value": statistics.median(setup_times), "n": len(setup_times)},
        "ops_per_s": {"value": len(lat) / sum(lat) if lat else 0.0, "n": len(lat)},
        "latency_s.p50": {"value": statistics.median(lat) if lat else 0.0, "n": len(lat)},
    }
    # a percentile is reported only with at least ten samples beyond it
    p90 = quantile(lat, 0.9) if lat else 0.0
    if sum(x > p90 for x in lat) >= 10:
        metrics["latency_s.p90"] = {"value": p90, "n": len(lat)}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "n": 1}
    metrics["failed_ratio"] = {"value": tally.failed_any_verdict / tally.attempted, "n": tally.attempted}
    metrics["verdict_fail_ratio"] = {
        "value": tally.verdicts_failed / tally.verdicts_evaluated if tally.verdicts_evaluated else 0.0,
        "n": tally.verdicts_evaluated,
    }
    for name, row in metrics.items():
        row["unit"] = END_TO_END_UNITS[name]
    return metrics


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def stamp(args, size: dict, stats: dict) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "sizes": {k: list(v) if isinstance(v, tuple) else v for k, v in size.items()},
        "inputs": stats,
        "processes": 1,
        "threads": 1,
        "loop": "closed, one client",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slinv" / "__init__.py").is_file():
        print(f"error: no slinv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    size = SIZES[args.workload][1 if args.tiny else 0]
    setup_times, items, stats = setup(args.workload, args.seed, size)
    tracer = Tracer() if args.trace else None
    tally, trace_info = measure(args.workload, items, args.seconds, tracer)

    e2e = end_to_end(setup_times, tally)
    correct = tally.failed == 0
    record = {
        "stamp": stamp(args, size, stats),
        "end_to_end": e2e,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_with_any_fail_verdict": tally.failed_any_verdict,
        "known_defects": {
            name: {"ops": count, "rate": count / tally.attempted, "why": checks.KNOWN_DEFECTS[name]}
            for name, count in tally.known_defects.items()
        },
        "verdict_failures": tally.verdict_failures,
        "problems": tally.problems,
        "setup_reps_s": setup_times,
        "latencies_s": tally.latencies,
    }
    tag = f"{args.workload}-s{args.seed}-t{args.trace}{'-tiny' if args.tiny else ''}"
    if tracer is not None:
        summary = tracer.summarize()
        ops = tally.attempted
        overhead = trace_info["traced_s"] / trace_info["untraced_s"] if trace_info["untraced_s"] else 0.0
        layer = per_layer_metrics(
            summary, ops, tracer.gen_counts, trace_info["hits"], trace_info["lookups"], trace_info["output_bytes"], overhead
        )
        correct = correct and trace_info["mismatches"] == 0
        record["trace"] = {
            "per_layer": layer,
            "output_mismatches": trace_info["mismatches"],
            "spans": len(tracer.names),
            "counts_by_op": tracer.counts_by_op(),
            "by_span": summary,
        }
        tracer.write(OUT / f"{tag}.spans.csv")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]} for name in GATED}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for name, row in e2e.items():
        print(f"{args.workload:>15}  {name:<20} {row['value']:>12.6g} {row['unit']:<6} n={row['n']}")
    for name, info in record["known_defects"].items():
        print(f"{args.workload:>15}  known defect {name}: {info['ops']}/{tally.attempted} ops")
    for problem in tally.problems:
        print(f"{args.workload:>15}  FAILED {problem}")
    print(json.dumps({k: v for k, v in record.items() if k != "trace"}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
