"""Output checks for every op, run untimed.

An op has a problem (and counts as failed in the benchmark's result line)
when it exits non-zero, prints something that is not the expected report,
gets a number wrong against a check computed here or by an independent
route, or returns a `fail` verdict that is not a confirmed known defect.
Every `fail` verdict, known or not, is still tallied, so the record's
failed_ratio and verdict_fail_ratio show the known defects too.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import gen

# verifier name -> why its failure is known and tolerated, given that the
# signature below is confirmed on the input
KNOWN_DEFECTS = {
    "tait_duality": "G_B is isomorphic to the mirror image of dual(G_A) instead of dual(G_A):"
    " tait_graphs and verify_tait_duality disagree on orientation",
}


@dataclass
class Outcome:
    problems: list[str] = field(default_factory=list)
    failed_verdicts: list[str] = field(default_factory=list)
    known: list[str] = field(default_factory=list)
    evaluated: int = 0


class Checker:
    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.slinv = sys.modules["slinv"]
        self.first: dict[str, tuple[int, str, Outcome]] = {}
        self.mirror_signature: dict[str, bool] = {}

    def check(self, item, code: int, output: str) -> Outcome:
        if self.workload == "corpus-cli" and item.name in self.first:
            # repeated input: the output must repeat byte for byte
            first_code, first_output, outcome = self.first[item.name]
            if (code, output) != (first_code, first_output):
                return Outcome(problems=["output differs from this input's first op"])
            return outcome
        if self.workload == "torus-statesum":
            outcome = self._statesum(item, output)
        elif code != 0:
            outcome = Outcome(problems=[f"exit code {code}"])
        else:
            try:
                report = json.loads(output)
            except ValueError:
                outcome = Outcome(problems=["output is not JSON"])
            else:
                outcome = self._report(item, report)
        self.first.setdefault(item.name, (code, output, outcome))
        return outcome

    # -- per output kind -------------------------------------------------

    def _report(self, item, report: dict) -> Outcome:
        out = Outcome()
        try:
            if item.name.endswith(".sld"):
                self._diagram_numbers(item, report, out.problems)
            else:
                self._map_numbers(item, report, out.problems)
            verdicts = report["verdicts"]
        except (KeyError, TypeError) as exc:
            out.problems.append(f"report lacks {exc}")
            return out
        for v in verdicts:
            if v["status"] == "skipped":
                continue
            out.evaluated += 1
            if v["status"] == "pass":
                continue
            out.failed_verdicts.append(v["name"])
            if v["name"] == "tait_duality" and self._tait_mirror_signature(item):
                out.known.append(v["name"])
            else:
                out.problems.append(f"verdict {v['name']}: {v['status']} {v['detail']}")
        return out

    def _diagram_numbers(self, item, report: dict, problems: list[str]) -> None:
        d = self.slinv.parse_diagram(item.text)
        c = d.crossings
        if (report["crossings"], report["genus"]) != (c, gen.sld_genus(item.text)):
            problems.append("crossing count or genus differs from the input")
        if self.workload == "torus-report" and not (report["alternating"] and report["colorable"]):
            problems.append("generated diagram not reported alternating and colorable")
        if report["p"] is not None:
            if sum(t["coeff"] for t in report["p"]["terms"]) != 2**c:
                problems.append("p(1,1,1,1) != 2^E")
            # P(2,2,1,1) counts every spanning subgraph
            if _P_at_2211(report["P"]["terms"]) != 2**c:
                problems.append("P(2,2,1,1) != 2^E")
        if report["jones"] is not None:
            oracle = self.slinv.kauffman_bracket_jones(d)
            if report["jones"]["terms"] != oracle.to_json():
                problems.append("Jones polynomial differs from the bracket-skein oracle")
        elif report["colorable"]:
            problems.append("colorable diagram without a Jones polynomial")

    def _map_numbers(self, item, report: dict, problems: list[str]) -> None:
        V, edges, F, g = gen.rg_stats(item.text)
        E = len(edges)
        if (report["vertices"], report["edges"], report["faces"], report["genus"]) != (V, E, F, g):
            problems.append("V, E, F or genus differs from the input")
        if sum(t["coeff"] for t in report["p"]["terms"]) != 2**E:
            problems.append("p(1,1,1,1) != 2^E")
        if _P_at_2211(report["P"]["terms"]) != 2**E:
            problems.append("P(2,2,1,1) != 2^E")
        # y^g p(x, y, y, 1/y) is the rank polynomial, here summed directly
        # over all edge subsets with our own union-find
        from_p: dict[tuple[int, int], int] = {}
        for t in report["p"]["terms"]:
            a, b, u, v = t["exps"]
            key = (a, g + b + u - v)
            from_p[key] = from_p.get(key, 0) + t["coeff"]
        if {k: n for k, n in from_p.items() if n} != gen.rank_polynomial(V, edges):
            problems.append("p does not specialize to the rank polynomial")

    def _statesum(self, item, output: str) -> Outcome:
        jk_text, jones_text = output.splitlines()
        problems = []
        inv = self.slinv
        if inv.jones_krushkal_via_P(item.obj).to_text() != jk_text:
            problems.append("state sum J_K differs from the Tait-graph specialization")
        if inv.kauffman_bracket_jones(item.obj).to_text() != jones_text:
            problems.append("Jones polynomial differs from the bracket-skein oracle")
        return Outcome(problems=problems)

    def _tait_mirror_signature(self, item) -> bool:
        """Whether G_B matches the mirror of dual(G_A) but not dual(G_A)."""
        if item.name not in self.mirror_signature:
            s = self.slinv
            d = s.parse_diagram(item.text)
            pair = s.tait_graphs(d, s.checkerboard(d))
            da = s.dual(pair.g_a)
            pairing = [(t, da.alpha[t]) for t in da.edge_tails]
            mirror = s.CombinatorialMap([r[::-1] for r in da.vertices], pairing, da.edge_tails)
            self.mirror_signature[item.name] = s.is_isomorphic(pair.g_b, mirror) and not s.is_isomorphic(
                pair.g_b, da
            )
        return self.mirror_signature[item.name]


def _P_at_2211(terms: list[dict]) -> Fraction:
    return sum(Fraction(t["coeff"]) * Fraction(2) ** (t["exps"][0] + t["exps"][1]) for t in terms)
