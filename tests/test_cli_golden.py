"""Byte-identity of the command-line output against a recorded table.

`tests/data/cli_golden.json` maps "command file mode" to [exit code, sha256
of stdout] for the invariants, verify, states, bounds and krushkal commands
on the bundled files and a 0-crossing unknot, each as text and as --json,
and of `states --json --dump`, the one nested-list --json shape, on two small
diagrams.
A change that means to keep every output as it is must leave the table
matching.  Regenerate it, after a deliberate output change, with

    PYTHONPATH=src:tests python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from slinv.cli import main

from conftest import RG_NAMES, SLD_NAMES, corpus_text

GOLDEN = Path(__file__).parent / "data" / "cli_golden.json"
COMMANDS = ("invariants", "verify", "states", "bounds", "krushkal")
MODES = {"text": [], "json": ["--json"]}
UNKNOT = ("unknot.sld", "format sld 1\ncrossings 0\n")
DUMPED = ("trefoil.sld", "vk2_1.sld")


def _run(argv: list[str]) -> list:
    """[exit code, sha256 of stdout] of one command line."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(argv)
    return [code, hashlib.sha256(out.getvalue().encode()).hexdigest()]


def record() -> dict[str, list]:
    """[exit code, sha256 of stdout] of each command on each file, per mode,
    and of the states dump on the DUMPED files."""
    files = [(name, corpus_text(name)) for name in SLD_NAMES + RG_NAMES] + [UNKNOT]
    table = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files:
            path = Path(tmp) / name
            path.write_text(text)
            for command in COMMANDS:
                for mode, flags in MODES.items():
                    table[f"{command} {name} {mode}"] = _run([command, str(path), *flags])
            if name in DUMPED:
                table[f"states {name} json-dump"] = _run(["states", str(path), "--json", "--dump"])
    return table


def test_cli_output_matches_the_recorded_table():
    expected = json.loads(GOLDEN.read_text())
    found = record()
    differing = sorted(key for key in expected.keys() | found.keys() if expected.get(key) != found.get(key))
    assert differing == [], f"outputs differ from {GOLDEN.name}: {differing}"


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    print()
