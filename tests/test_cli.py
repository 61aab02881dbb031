"""End-to-end checks of the command-line interface via main(argv)."""

import io
import json
import re
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slinv import HomologyContext, NegativeGenus, parse_diagram, parse_map
from slinv.cli import main
from slinv.homology import diagram_homology

from conftest import RG_NAMES, SLD_NAMES, corpus_text

WEAVE_JK = "-t^-9/2 + 3*t^-7/2 + 3*t^-5/2 - t^-3/2 + 6*z*t^-3"


def write_corpus(tmp_path, name):
    path = tmp_path / name
    path.write_text(corpus_text(name))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_text_report(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, out, err = run(capsys, ["invariants", path])
    assert code == 0 and err == ""
    assert "diagram: 4 crossings, genus 1, writhe -4, 4 component(s)" in out
    assert "alternating: yes   checkerboard-colorable: yes" in out
    assert "flags: cellular, nugatory-free, strongly-reduced" in out
    assert f"J_K = {WEAVE_JK}" in out
    assert "tau = 4 (formula 4), twist regions = 4" in out
    assert "volume bounds: [7.32772, 40.59760)" in out
    assert "fail" not in out


def test_invariants_json_agrees_with_text_scalars(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, out, err = run(capsys, ["invariants", path, "--json"])
    assert code == 0
    report = json.loads(out)
    assert report["crossings"] == 4
    assert report["writhe"] == -4
    assert report["tau"] == report["tau_by_formula"] == 4
    assert report["jones_krushkal"]["text"] == WEAVE_JK
    assert report["P"]["text"] == "X*V + Y*U + 3*U + 3*V + 6"
    assert all(v["status"] != "fail" for v in report["verdicts"])


def test_json_output_is_deterministic(tmp_path, capsys):
    path = write_corpus(tmp_path, "vk4_105.sld")
    _, first, _ = run(capsys, ["invariants", path, "--json"])
    _, second, _ = run(capsys, ["invariants", path, "--json"])
    assert first == second


def test_verify_filter_selects_one_verifier(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, out, _ = run(capsys, ["verify", path, "--verifier", "route_equality", "--json"])
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert [v["name"] for v in verdicts] == ["route_equality"]
    assert verdicts[0]["status"] == "pass"


def test_verify_rejects_unknown_verifier(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, _, err = run(capsys, ["verify", path, "--verifier", "no_such_check"])
    assert code == 1
    assert "unknown verifier" in err


def test_states_table_and_state_sum(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, out, _ = run(capsys, ["states", path, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert len(obj["states"]) == 16
    assert obj["jones_krushkal"]["text"] == WEAVE_JK
    assert obj["states"][0]["choice"] == "AAAA"
    assert obj["states"][-1]["choice"] == "BBBB"


def test_states_handles_undefined_state_sum(tmp_path, capsys):
    path = write_corpus(tmp_path, "vk2_1.sld")
    code, out, _ = run(capsys, ["states", path])
    assert code == 0  # the table is still printable data
    assert "(undefined, k=0)" in out
    assert "J_K undefined:" in out
    code, out, _ = run(capsys, ["states", path, "--json"])
    obj = json.loads(out)
    assert obj["jones_krushkal"] is None
    assert "jones_krushkal_note" in obj


def test_states_dump_includes_curve_classes(tmp_path, capsys):
    path = write_corpus(tmp_path, "trefoil.sld")
    code, out, _ = run(capsys, ["states", path, "--dump"])
    assert code == 0
    assert "curve class:" in out
    code, out, _ = run(capsys, ["states", path, "--dump", "--json"])
    assert all("curves" in row for row in json.loads(out)["states"])


def test_bounds_on_a_torus_diagram(tmp_path, capsys):
    path = write_corpus(tmp_path, "weave2x2.sld")
    code, out, _ = run(capsys, ["bounds", path])
    assert code == 0
    assert "tau = 4 on genus 1" in out
    assert "volume lower bound: 7.32772" in out
    assert "volume upper bound: 40.59760" in out


def test_bounds_rejects_sphere_diagrams(tmp_path, capsys):
    path = write_corpus(tmp_path, "trefoil.sld")
    code, _, err = run(capsys, ["bounds", path])
    assert code == 2
    assert "error:" in err


def test_bounds_rejects_nonalternating_diagrams(tmp_path, capsys):
    path = write_corpus(tmp_path, "vk2_1.sld")
    code, _, err = run(capsys, ["bounds", path])
    assert code == 2
    assert "alternating" in err


def test_krushkal_command_reports_a_map(tmp_path, capsys):
    path = write_corpus(tmp_path, "torus_bouquet.rg")
    code, out, _ = run(capsys, ["krushkal", path])
    assert code == 0
    assert "map: 1 vertices, 2 edges, 1 faces, genus 1" in out
    assert "p = u + v + 2" in out
    assert "P = U + V + 2" in out
    assert "lambda=2 mu=0 gamma=1" in out


def test_invariants_accepts_map_files_too(tmp_path, capsys):
    path = write_corpus(tmp_path, "theta_sphere.rg")
    code, out, _ = run(capsys, ["invariants", path, "--json"])
    assert code == 0
    obj = json.loads(out)
    assert (obj["vertices"], obj["edges"], obj["genus"]) == (2, 3, 0)
    assert obj["P"]["text"] == "X + Y^2 + Y"


def test_corpus_listing(capsys):
    code, out, _ = run(capsys, ["corpus"])
    assert code == 0
    names = out.splitlines()
    assert len(names) == 11
    assert names == sorted(names)
    assert "weave2x2.sld" in names and "torus_bouquet.rg" in names


def test_corpus_prints_a_bundled_file(capsys):
    code, out, _ = run(capsys, ["corpus", "trefoil.sld"])
    assert code == 0
    assert out == corpus_text("trefoil.sld")
    assert parse_diagram(out).crossings == 3
    code, out, _ = run(capsys, ["corpus", "torus_bouquet.rg"])
    assert parse_map(out).genus == 1


def test_corpus_export_writes_all_files(tmp_path, capsys):
    out_dir = tmp_path / "bundle"
    code, out, _ = run(capsys, ["corpus", "--export", str(out_dir)])
    assert code == 0
    assert "wrote 11 files" in out
    written = sorted(p.name for p in out_dir.iterdir())
    assert len(written) == 11
    for name in written:
        assert (out_dir / name).read_text() == corpus_text(name)


def test_corpus_rejects_unknown_name(capsys):
    code, _, err = run(capsys, ["corpus", "nonexistent.sld"])
    assert code == 1
    assert "no bundled file" in err


def test_missing_input_file(tmp_path, capsys):
    code, _, err = run(capsys, ["invariants", "/nonexistent/thing.sld"])
    assert code == 1
    assert "cannot read" in err
    undecodable = tmp_path / "bom.sld"
    undecodable.write_bytes(b"\xff\xfeformat sld 1\n")
    code, out, err = run(capsys, ["invariants", str(undecodable)])
    assert (code, out) == (1, "")
    assert err.startswith("error: cannot read")
    for name, text in (
        ("count.sld", "format sld 1\ncrossings x\n"),
        ("arc.sld", "format sld 1\ncrossings 1\narc a 0.0 0.3\narc 1 0.1 0.2\n"),
        ("over.sld", "format sld 1\ncrossings 1\narc 0 0.0 0.3\narc 1 0.1 0.2\nover z 02\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        code, out, err = run(capsys, ["invariants", str(path)])
        assert (code, out) == (1, ""), name
        assert err.startswith("error: bad "), name


def test_internal_consistency_errors_exit_2(tmp_path, capsys, monkeypatch):
    # only `states --dump` builds a homology context; the cache must not
    # hand back one built before the patch, nor keep one built under it
    weave = write_corpus(tmp_path, "weave2x2.sld")
    diagram_homology.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(HomologyContext, "fundamental_cycles_of", lambda self, edges: [])
            code, out, err = run(capsys, ["states", weave, "--dump"])
    finally:
        diagram_homology.cache_clear()
    assert (code, out) == (2, "")
    assert err.startswith("error: cycle and face ranks")

    path = write_corpus(tmp_path, "torus_bouquet.rg")

    def negative_genus(text):
        raise NegativeGenus("V-E+F = 4 exceeds 2 on a connected map")

    monkeypatch.setattr("slinv.cli.parse_map", negative_genus)
    code, out, err = run(capsys, ["krushkal", path])
    assert (code, out, err) == (2, "", "error: V-E+F = 4 exceeds 2 on a connected map\n")


def test_crossing_cap_blocks_enumeration(tmp_path, capsys):
    path = write_corpus(tmp_path, "trefoil.sld")
    code, _, err = run(capsys, ["invariants", path, "--max-crossings", "2"])
    assert code == 2
    assert "exceed" in err
    # the cap is checked before the genus-0 and alternation preconditions
    for name in ("figure8.sld", "vk2_1.sld"):
        path = write_corpus(tmp_path, name)
        code, out, err = run(capsys, ["bounds", path, "--max-crossings", "1"])
        assert (code, out) == (2, ""), name
        assert "exceed the cap of 1" in err, name


def test_reports_build_no_homology_context(tmp_path, capsys, monkeypatch):
    """Reports decide trivial loops and parallel edges on integers; only
    `states --dump` builds the rational homology, for its curve classes."""
    builds = []
    original = HomologyContext.__init__

    def counted(self, m):
        builds.append(m)
        original(self, m)

    monkeypatch.setattr(HomologyContext, "__init__", counted)
    diagram_homology.cache_clear()
    try:
        for name in SLD_NAMES + RG_NAMES:
            path = write_corpus(tmp_path, name)
            for command in ("invariants", "verify", "bounds", "krushkal", "states"):
                run(capsys, [command, path])
        assert builds == []
        code, _, _ = run(capsys, ["states", write_corpus(tmp_path, "weave2x2.sld"), "--dump"])
        assert code == 0 and len(builds) >= 1  # the counter does see a build
    finally:
        diagram_homology.cache_clear()


def test_raised_cap_warns_but_proceeds(tmp_path, capsys):
    path = write_corpus(tmp_path, "trefoil.sld")
    code, out, err = run(capsys, ["invariants", path, "--max-crossings", "30"])
    assert code == 0
    assert "warning: cap 30" in err
    assert "diagram: 3 crossings" in out


def test_auto_orient_flag_repairs_input(tmp_path, capsys):
    lines = []
    for line in corpus_text("trefoil.sld").splitlines():
        parts = line.split()
        if parts[0] == "arc" and parts[1] == "2":
            line = f"arc 2 {parts[3]} {parts[2]}"
        lines.append(line)
    path = tmp_path / "flipped.sld"
    path.write_text("\n".join(lines) + "\n")
    code, _, err = run(capsys, ["invariants", str(path)])
    assert code == 1
    assert "error:" in err
    code, out, _ = run(capsys, ["invariants", str(path), "--auto-orient"])
    assert code == 0
    assert "diagram: 3 crossings" in out


# -- fuzzing ----------------------------------------------------------------------

# replacement tokens: near-miss numbers, endpoints and directives, an absurd
# count, an empty token (a deletion) and a line break
FUZZ_TOKENS = (
    "-1", "0", "1", "2", "3", "7", "8", "12", "99999999999", "x", "1.", ".2", "0.0",
    "3.9", "0.-1", "02", "13", "31", "#", "format", "sld", "rg", "crossings", "arc",
    "over", "vertex", "edge", "", "\n",
)
FUZZ_COMMANDS = ("invariants", "verify", "states", "bounds", "krushkal")


@st.composite
def mutated_corpus_files(draw):
    """(name, text): a bundled file after one to three mutations, each a swap
    of two tokens of one kind (numbers, endpoints or words; this often leaves
    a valid input) or a token replaced by a fuzz token."""
    name = draw(st.sampled_from(SLD_NAMES + RG_NAMES))
    parts = re.split(r"(\s+)", corpus_text(name))
    words = [i for i, part in enumerate(parts) if part and not part.isspace()]

    def kind(token):
        return token.isdigit(), "." in token

    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.sampled_from(words))
        if draw(st.booleans()):
            j = draw(st.sampled_from([j for j in words if kind(parts[j]) == kind(parts[i])]))
            parts[i], parts[j] = parts[j], parts[i]
        else:
            parts[i] = draw(st.sampled_from(FUZZ_TOKENS))
    return name, "".join(parts)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, max_examples=150, deadline=None)
@given(case=mutated_corpus_files())
def test_cli_survives_mutated_corpus_files(fuzz_dir, case):
    """Every command ends a malformed, or still valid, file with an exit code
    (0 output, 1 bad input, 2 unmet hypothesis or cap) and never raises."""
    name, text = case
    path = fuzz_dir / name
    path.write_text(text)
    for command in FUZZ_COMMANDS:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path), "--max-crossings", "8"])
        assert code in (0, 1, 2), (command, text)
        assert (code == 0) == (err.getvalue() == ""), (command, text)


def test_absurd_crossing_count_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "absurd.sld"
    path.write_text("format sld 1\ncrossings 99999999999\narc 0 0.0 0.1\n")
    code, out, err = run(capsys, ["invariants", str(path)])
    assert (code, out) == (1, "")
    assert err.startswith("error: need arc ids dense")
