"""Command-line interface: subcommands, exit codes, determinism."""

import json
import os
import pathlib
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint

import pytest

import skewgb
from skewgb.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "docs" / "problems"
EXAMPLE_A = str(PROBLEMS / "example_a.txt")
EXAMPLE_B = str(PROBLEMS / "example_b.txt")
PARABOLA = str(PROBLEMS / "parabola_a1.txt")
# The directory this process imported skewgb from: a child interpreter
# started with it first on PYTHONPATH runs the same code under test.
IMPORT_ROOT = str(pathlib.Path(skewgb.__file__).resolve().parent.parent)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [IMPORT_ROOT, env.get("PYTHONPATH")])
    )
    return env


def run_module(argv):
    return subprocess.run(
        [sys.executable, "-m", "skewgb.cli", *argv],
        capture_output=True,
        cwd=str(ROOT),
        env=child_env(),
    )


def declared_console_scripts():
    """The ``[project.scripts]`` table of this tree's pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"]


class TestSubcommands:
    def test_gb(self, capsys):
        code, out, _ = run(["gb", EXAMPLE_B], capsys)
        assert code == 0 and out.strip()

    def test_gb_with_weight_flag(self, capsys):
        code, out, _ = run(["gb", EXAMPLE_B, "--weight", "1,1,1,3"], capsys)
        assert code == 0

    def test_charvar_example_a_unit(self, capsys):
        code, out, _ = run(["charvar", EXAMPLE_A, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "VACUOUS-PASS"
        assert payload["charIdeal"] == ["1"]

    def test_charvar_example_b(self, capsys):
        code, out, _ = run(["charvar", EXAMPLE_B, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "PASS"
        assert sorted(payload["radical"]) == ["x2*y1", "y2"]
        assert {tuple(c["vars"]) for c in payload["components"]} == {
            ("x2", "y2"),
            ("y1", "y2"),
        }

    def test_fan(self, capsys):
        code, out, _ = run(["fan", PARABOLA, "--json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["complete"]
        maximal = [c for c in payload["cones"] if c["initialIdeal"] in (["y1^2"], ["x1"])]
        assert len(maximal) == 2

    def test_fan_seed(self, capsys):
        # the same cones from either side of the wall; the seed's cone
        # keeps the seed (scaled to integers) as its weight
        _, unseeded, _ = run(["fan", PARABOLA, "--json"], capsys)
        for seed, weight in (("3,-1", "weight (3,-1)"), ("1/2,3", "weight (1,6)")):
            code, out, _ = run(["fan", PARABOLA, "--json", "--seed", seed], capsys)
            assert code == 0 and out == unseeded
            code, out, _ = run(["fan", PARABOLA, "--seed", seed], capsys)
            assert code == 0 and weight in out

    def test_walk(self, capsys):
        code, out, _ = run(["walk", PARABOLA, "--json"], capsys)
        assert code == 0
        segments = json.loads(out)["segments"]
        assert len(segments) == 2
        assert segments[0]["from"] == "0" and segments[-1]["to"] == "1"

    def test_pr(self, capsys):
        code, out, _ = run(["pr", PARABOLA], capsys)
        assert code == 0 and out.strip()

    def test_gkdim(self, capsys):
        code, out, _ = run(["gkdim", EXAMPLE_B, "--weight", "1,1,1,1"], capsys)
        assert code == 0 and out.strip() == "2"

    def test_universal(self, capsys):
        code, out, _ = run(["universal", PARABOLA], capsys)
        assert code == 0 and out.strip() == "y1^2 - x1"

    def test_verify_corpus(self, capsys):
        code, out, _ = run(["verify", "--corpus", str(PROBLEMS)], capsys)
        assert code == 0
        assert "FAIL" not in out


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("ring: weyl 2\nideal: 2x1\n")
        code, _, err = run(["gb", str(bad)], capsys)
        assert code == 2 and "parse error" in err
        code, _, err = run(["gb", EXAMPLE_B, "--weight", "1,a,1,1"], capsys)
        assert code == 2 and "bad weight entry 'a'" in err
        code, _, err = run(["gb", EXAMPLE_B, "--weight", "1,1,1"], capsys)
        assert code == 2 and "weight has 3 entries, ring needs 4" in err
        jacobi = tmp_path / "jacobi.txt"
        jacobi.write_text(
            "ring: custom 0 3\nq2 2 1: y3\nq2 3 2: y1\nq2 3 1: y1\nideal: y1\n"
        )
        code, out, err = run(["gb", str(jacobi)], capsys)
        assert code == 2 and out == "" and "non-associative" in err
        for text, message in (
            ("ring: custom 1 1\nq1 1 5: 1\nideal: y1*x1\n", "q1 index (1, 5) out of range"),
            ("ring: custom 1 1\nq2 2 1: 1\nideal: y1*x1\n", "q2 index (2, 1) out of range"),
            ("ring: weyl 0\nideal: 1\n", "weyl_presentation requires n >= 1"),
            ("ring: commutative -1\nideal: 1\n", "generator counts must be nonnegative"),
        ):
            bad.write_text(text)
            code, out, err = run(["gb", str(bad)], capsys)
            assert code == 2 and out == "" and message in err, (text, code, out, err)

    def test_region_error(self, tmp_path, capsys):
        f = tmp_path / "p.txt"
        f.write_text("ring: weyl 1\nideal: y1\nweight: -1,-1\n")
        code, _, err = run(["gb", str(f)], capsys)
        assert code == 3 and "region error" in err

    def test_budget_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SKEWGB_MAX_PAIRS", "1")
        f = tmp_path / "p.txt"
        f.write_text(
            "ring: weyl 2\nideal: y1^2 - y2; x1*y1 + 2*x2*y2; x1^3 + y2^2\n"
        )
        code, _, err = run(["gb", str(f)], capsys)
        assert code == 4 and "budget" in err

    def test_fan_seed_errors(self, capsys):
        code, out, err = run(["fan", PARABOLA, "--seed", "2,1"], capsys)
        assert code == 1 and out == "" and "wall" in err
        code, _, err = run(["fan", PARABOLA, "--seed", "1,1,1"], capsys)
        assert code == 2 and "weight has 3 entries, ring needs 2" in err
        for argv in (["--seed=-1,-1"], ["--seed", "-1,-1"]):
            code, out, err = run(["fan", PARABOLA, *argv], capsys)
            assert code == 3 and out == "" and "region error" in err

    @pytest.mark.parametrize(
        "argv, option, value",
        [
            (["charvar", PARABOLA], "--weight", "-1,3"),
            (["gb", EXAMPLE_B, "--json"], "--weight", "-1,1,2,1"),
            (["walk", PARABOLA, "--to", "3,1"], "--from", "-1,3"),
            (["walk", PARABOLA, "--from", "1,3"], "--to", "-1,3"),
            (["fan", PARABOLA], "--seed", "-1,3"),
        ],
    )
    def test_negative_weight_as_separate_argument(self, capsys, argv, option, value):
        joined = run(argv + [f"{option}={value}"], capsys)
        assert joined[0] == 0
        assert run(argv + [option, value], capsys) == joined

    def test_missing_file(self, capsys):
        code, _, err = run(["gb", "/nonexistent/path.txt"], capsys)
        assert code == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["charvar", EXAMPLE_B, "--json"],
            ["fan", PARABOLA, "--json"],
            ["walk", PARABOLA, "--json"],
            ["gb", EXAMPLE_B],
        ],
    )
    def test_byte_identical_across_processes(self, argv):
        r1, r2 = run_module(argv), run_module(argv)
        assert r1.returncode == 0
        assert r2.returncode == 0
        assert r1.stdout == r2.stdout

    def test_console_script_installed(self, tmp_path):
        # Build the `skewgb` command the way an installer does, from the
        # declared entry point, and run it by name from PATH.
        ep = EntryPoint(
            name="skewgb",
            value=declared_console_scripts()["skewgb"],
            group="console_scripts",
        )
        assert callable(ep.load())
        script = tmp_path / "skewgb"
        script.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {ep.module} import {ep.attr}\n"
            f"sys.exit({ep.attr}())\n"
        )
        script.chmod(0o755)
        env = child_env()
        env["PATH"] = os.pathsep.join(filter(None, [str(tmp_path), env.get("PATH")]))
        r = subprocess.run(
            ["skewgb", "gb", EXAMPLE_B], capture_output=True, cwd=str(ROOT), env=env
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout.strip()
        assert r.stdout == run_module(["gb", EXAMPLE_B]).stdout

    @pytest.mark.skipif(
        shutil.which("skewgb") is None,
        reason="no installed skewgb console script on PATH (needs pip install)",
    )
    def test_installed_console_script_matches_tree(self):
        # Without PYTHONPATH the installed copy runs, not this tree, so a
        # stale install shows as an output difference.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        r = subprocess.run(
            ["skewgb", "gb", EXAMPLE_B], capture_output=True, cwd=str(ROOT), env=env
        )
        assert r.returncode == 0, r.stderr
        assert r.stdout == run_module(["gb", EXAMPLE_B]).stdout
