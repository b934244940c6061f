"""Golden CLI outputs: every subcommand on every bundled problem file.

``tests/golden/cli.json`` holds the exit code, stdout and stderr of
``skewgb <command> docs/problems/<file> [--json]`` for each command in
``COMMANDS``, run from the repository root.  A refactor that changes
any byte of any of them fails here.  The file is data, not a snapshot
this test writes: it was produced once by running ``run_case`` over
``CASES`` and dumping the result with ``json.dumps(..., indent=1,
sort_keys=True)``, and a deliberate output change must edit it by hand
and say why.
"""

import json
import pathlib

import pytest

from skewgb.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "cli.json"
COMMANDS = ("gb", "charvar", "fan", "walk", "pr", "gkdim", "universal")
PROBLEMS = sorted(p.name for p in (ROOT / "docs" / "problems").glob("*.txt"))
CASES = [
    (command, problem, flags)
    for command in COMMANDS
    for problem in PROBLEMS
    for flags in ((), ("--json",))
]


def case_id(case):
    command, problem, flags = case
    return " ".join([command, problem, *flags])


def run_case(case, capsys):
    command, problem, flags = case
    code = main([command, f"docs/problems/{problem}", *flags])
    captured = capsys.readouterr()
    return {"exit": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_case(golden):
    assert len(CASES) == 42
    assert sorted(golden) == sorted(case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_output_matches_golden(case, golden, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert run_case(case, capsys) == golden[case_id(case)]
