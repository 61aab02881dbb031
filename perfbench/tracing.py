"""Outside-in span tracing of the slinv modules, installed from the benchmark.

The tracer wraps chosen functions, methods and one generator of the slinv
modules at run time; nothing under src/ is edited.  A wrapped call records
one span (name, start, end, parent, op id) while an op is active.  Spans stay
in memory and are written out when the run ends; per-layer metrics are then
derived from them, with a span's self time being its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# (span name, module, attribute path) -- the span name's first part is the
# layer, named after the slinv module that defines the wrapped object
FUNCTIONS = (
    ("cli.main", "slinv.cli", "main"),
    ("invariants.full_report", "slinv.invariants", "full_report"),
    ("invariants.krushkal", "slinv.invariants", "krushkal"),
    ("invariants.big_P", "slinv.invariants", "big_P"),
    ("invariants.jones_krushkal_statesum", "slinv.invariants", "jones_krushkal_statesum"),
    ("invariants.jones_krushkal_via_P", "slinv.invariants", "jones_krushkal_via_P"),
    ("invariants.reduce", "slinv.invariants", "reduce"),
    ("invariants.tau", "slinv.invariants", "tau"),
    ("invariants.tau_formula", "slinv.invariants", "tau_formula"),
    ("invariants.tutte_check", "slinv.invariants", "tutte_check"),
    ("invariants.verify.route_equality", "slinv.invariants", "verify_route_equality"),
    ("invariants.verify.jk_coefficients", "slinv.invariants", "verify_jk_coefficients"),
    ("invariants.verify.span", "slinv.invariants", "verify_span"),
    ("invariants.verify.twist_formula", "slinv.invariants", "verify_twist_formula"),
    ("invariants.verify.tait_duality", "slinv.invariants", "verify_tait_duality"),
    ("invariants.verify.state_kernel", "slinv.invariants", "verify_state_kernel"),
    ("invariants.verify.polynomial_duality", "slinv.invariants", "verify_polynomial_duality"),
    ("invariants.verify.krushkal_coeffs", "slinv.invariants", "verify_krushkal_coeffs"),
    ("invariants.verify.subgraph_count", "slinv.invariants", "verify_subgraph_count"),
    ("invariants.verify.loop_deletion", "slinv.invariants", "_loop_deletion_verdict"),
    ("diagram.parse_diagram", "slinv.diagram", "parse_diagram"),
    ("diagram.checkerboard", "slinv.diagram", "checkerboard"),
    ("diagram.tait_graphs", "slinv.diagram", "tait_graphs"),
    ("diagram.reduced_flags", "slinv.diagram", "reduced_flags"),
    ("ribbon.parse_map", "slinv.ribbon", "parse_map"),
    ("ribbon.subgraph_profile", "slinv.ribbon", "subgraph_profile"),
)
METHODS = (
    ("ribbon.HomologyContext", "slinv.ribbon", "HomologyContext", ("__init__",)),
    ("linalg.Echelon.insert", "slinv._linalg", "Echelon", ("insert",)),
    ("linalg.Echelon.contains", "slinv._linalg", "Echelon", ("contains",)),
    ("linalg.Echelon.copy", "slinv._linalg", "Echelon", ("copy",)),
    (
        "poly.JKPoly.arith",
        "slinv.poly",
        "JKPoly",
        ("__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__"),
    ),
    ("poly.LaurentPoly.substitute", "slinv.poly", "LaurentPoly", ("substitute",)),
    ("poly.render", "slinv.poly", "LaurentPoly", ("to_text", "to_json")),
    ("poly.render", "slinv.poly", "JKPoly", ("to_text", "to_json")),
)
# generators get one span per next(), so a consumer's self time excludes
# the work of producing each item
GENERATORS = (("diagram.enumerate_states", "slinv.diagram", "enumerate_states"),)

VERIFIERS = (
    "route_equality",
    "jk_coefficients",
    "span",
    "twist_formula",
    "tait_duality",
    "state_kernel",
    "polynomial_duality",
    "krushkal_coeffs",
    "subgraph_count",
    "tutte_specialization",
    "loop_deletion",
)
# metric names must start with a letter, so slinv._linalg is layer "linalg"
LAYERS = ("cli", "invariants", "diagram", "ribbon", "linalg", "poly")

# per_layer metrics, in BENCHMARK.json order: name -> unit
PER_LAYER_UNITS = {
    "invariants.krushkal.calls": "count",
    "invariants.big_P.calls": "count",
    "invariants.jones_krushkal_statesum.calls": "count",
    "diagram.enumerate_states.calls": "count",
    "diagram.checkerboard.calls": "count",
    "diagram.tait_graphs.calls": "count",
    "ribbon.HomologyContext.builds": "count",
    "ribbon.subgraph_profile.calls": "count",
    "ribbon.subgraph_profile.us_per_call": "us",
    "linalg.Echelon.calls": "count",
    "linalg.Echelon.self_s": "s",
    "diagram.enumerate_states.states": "count",
    "diagram.enumerate_states.us_per_state": "us",
    "poly.JKPoly.arith.self_s": "s",
    "poly.LaurentPoly.substitute.self_s": "s",
    "invariants.tutte_check.self_s": "s",
    "invariants.reduce.self_s": "s",
    "invariants.tau.self_s": "s",
    **{f"invariants.verify.{name}.s": "s" for name in VERIFIERS},
    "cli.main.self_s": "s",
    "cli.output_bytes": "bytes",
    "poly.render.self_s": "s",
    "diagram.parse_diagram.self_s": "s",
    "ribbon.parse_map.self_s": "s",
    "diagram.diagram_homology.hit_ratio": "ratio",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Installs wrappers into every loaded slinv.* namespace and records spans.

    Span i is (names[i], starts[i], ends[i], parents[i], ops[i]), times in
    perf_counter nanoseconds and parent -1 for a root.  Only calls made while
    an op is active (between begin_op and end_op) are recorded, so the
    benchmark's own checks never show up.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("q")
        self.ops = array("q")
        self.stack: list[int] = []
        self.op: int | None = None
        # generator name -> [instances started, items yielded] while tracing
        self.gen_counts: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object, object]] = []
        self._build_patches()

    # -- wrappers --------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ops.append(self.op)
        self.ends.append(0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            counts = tracer.gen_counts.setdefault(name, [0, 0])
            if tracer.op is not None:
                counts[0] += 1
            while True:
                idx = tracer._open(name) if tracer.op is not None else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if idx is not None:
                        tracer._close(idx)
                if idx is not None:
                    counts[1] += 1
                yield item

        return traced

    def _build_patches(self) -> None:
        modules = [mod for key, mod in sys.modules.items() if key == "slinv" or key.startswith("slinv.")]
        for entry in FUNCTIONS + GENERATORS:
            name, module, attr = entry
            original = getattr(sys.modules[module], attr)
            wrap = self._wrap_generator if entry in GENERATORS else self._wrap
            wrapper = wrap(name, original)
            # callers import by name, so rebind every namespace holding it
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original, wrapper))
        for name, module, cls_name, methods in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            for method in methods:
                original = cls.__dict__[method]
                self._patches.append((cls, method, original, self._wrap(name, original)))

    def install(self) -> None:
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)

    # -- ops -------------------------------------------------------------

    def begin_op(self, op_id: int) -> int:
        self.op = op_id
        return self._open("bench.op")

    def end_op(self, idx: int) -> None:
        self._close(idx)
        self.op = None

    # -- analysis --------------------------------------------------------

    def summarize(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total duration and self time, in seconds.

        Spans come from one thread and nest properly, so the children of a
        span never overlap and the part of it they cover is their summed
        duration.
        """
        covered = array("q", bytes(8 * len(self.names)))
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            duration = self.ends[i] - self.starts[i]
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += duration / 1e9
            row["self_s"] += (duration - covered[i]) / 1e9
        return out

    def counts_by_op(self) -> dict[int, dict[str, int]]:
        """Span counts per op id, for comparing two traced runs."""
        out: dict[int, dict[str, int]] = {}
        for name, op in zip(self.names, self.ops):
            row = out.setdefault(op, {})
            row[name] = row.get(name, 0) + 1
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for row in zip(self.names, self.starts, self.ends, self.parents, self.ops):
                fh.write(",".join(map(str, row)) + "\n")


def per_layer_metrics(
    summary: dict[str, dict[str, float]],
    ops: int,
    gen_counts: dict[str, list[int]],
    cache_hits: int,
    cache_lookups: int,
    output_bytes: int,
    overhead_ratio: float,
) -> dict[str, float]:
    """The per_layer metrics of BENCHMARK.json, each per traced op."""

    def row(name: str) -> dict[str, float]:
        return summary.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_op(value: float) -> float:
        return value / ops

    def calls(name: str) -> float:
        return per_op(row(name)["calls"])

    def self_s(*names: str) -> float:
        return per_op(sum(row(n)["self_s"] for n in names))

    echelon = [n for n in summary if n.startswith("linalg.Echelon.")]
    profile = row("ribbon.subgraph_profile")
    states = row("diagram.enumerate_states")
    n_calls, n_states = gen_counts.get("diagram.enumerate_states", (0, 0))
    m = {
        "invariants.krushkal.calls": calls("invariants.krushkal"),
        "invariants.big_P.calls": calls("invariants.big_P"),
        "invariants.jones_krushkal_statesum.calls": calls("invariants.jones_krushkal_statesum"),
        "diagram.enumerate_states.calls": per_op(n_calls),
        "diagram.checkerboard.calls": calls("diagram.checkerboard"),
        "diagram.tait_graphs.calls": calls("diagram.tait_graphs"),
        "ribbon.HomologyContext.builds": calls("ribbon.HomologyContext"),
        "ribbon.subgraph_profile.calls": calls("ribbon.subgraph_profile"),
        "ribbon.subgraph_profile.us_per_call": 1e6 * profile["total_s"] / profile["calls"]
        if profile["calls"]
        else 0.0,
        "linalg.Echelon.calls": per_op(sum(row(n)["calls"] for n in echelon)),
        "linalg.Echelon.self_s": self_s(*echelon),
        "diagram.enumerate_states.states": per_op(n_states),
        "diagram.enumerate_states.us_per_state": 1e6 * states["total_s"] / n_states
        if n_states
        else 0.0,
        "poly.JKPoly.arith.self_s": self_s("poly.JKPoly.arith"),
        "poly.LaurentPoly.substitute.self_s": self_s("poly.LaurentPoly.substitute"),
        "invariants.tutte_check.self_s": self_s("invariants.tutte_check"),
        "invariants.reduce.self_s": self_s("invariants.reduce"),
        "invariants.tau.self_s": self_s("invariants.tau"),
    }
    for name in VERIFIERS:
        span = "invariants.tutte_check" if name == "tutte_specialization" else f"invariants.verify.{name}"
        m[f"invariants.verify.{name}.s"] = per_op(row(span)["total_s"])
    m.update(
        {
            "cli.main.self_s": self_s("cli.main"),
            "cli.output_bytes": per_op(output_bytes),
            "poly.render.self_s": self_s("poly.render"),
            "diagram.parse_diagram.self_s": self_s("diagram.parse_diagram"),
            "ribbon.parse_map.self_s": self_s("ribbon.parse_map"),
            "diagram.diagram_homology.hit_ratio": cache_hits / cache_lookups if cache_lookups else 0.0,
        }
    )
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = self_s(*(n for n in summary if n.split(".")[0] == layer))
    m["trace.ops"] = ops
    m["trace.overhead_ratio"] = overhead_ratio
    if list(m) != list(PER_LAYER_UNITS):
        raise RuntimeError("per-layer metrics out of step with PER_LAYER_UNITS")
    return m
