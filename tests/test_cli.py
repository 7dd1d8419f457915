"""CLI subcommands: outputs, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sievedops
from sievedops.cli import main

# the child interpreter imports the same sievedops as this one, also when it
# comes from the source tree rather than an install
SRC_DIR = str(Path(sievedops.__file__).resolve().parents[1])

CLASSICAL_C10 = [
    "-1/4", "0", "125/4", "0", "-250", "0", "700", "0", "-800", "0", "320",
]


def run_cli(args):
    path = [SRC_DIR, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-m", "sievedops.cli", *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_gen_poly_classical(capsys):
    rc = main(
        ["gen-poly", "--kind", "first", "--lambda", "3/2", "--k", "5",
         "--n", "10", "--normalization", "classical"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["schema"] == 1
    assert out["coefficients"] == CLASSICAL_C10


def test_gen_poly_monic(capsys):
    rc = main(
        ["gen-poly", "--kind", "first", "--lambda", "3/2", "--k", "5", "--n", "10"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["coefficients"][0] == "-1/1280"
    assert out["coefficients"][-1] == "1"


def test_verify_identities(capsys):
    rc = main(["verify-identities", "--max-n", "6"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert all(v["pass"] for v in out["identities"].values())
    assert set(out["identities"]) == {
        "pythagorean", "turan", "mixed", "deriv", "sum", "product_diff",
    }


def test_verify_structure_report(capsys):
    rc = main(
        ["verify-structure", "--kind", "second", "--lambda", "1/2", "--k", "5",
         "--max-n", "20"]
    )
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(out["residuals"]) == 21
    assert set(out["residuals"].values()) == {"zero"}
    assert out["closed_form_matches_recursion"] is True


def test_verify_ode_and_mapping(capsys):
    assert main(
        ["verify-ode", "--kind", "first", "--lambda", "3/2", "--k", "5",
         "--max-n", "10"]
    ) == 0
    capsys.readouterr()
    assert main(
        ["verify-mapping", "--kind", "second", "--lambda", "1/2", "--k", "4",
         "--max-n", "16"]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["failures"] == []


def test_class_command(capsys):
    assert main(["class", "--kind", "second", "--lambda=-7/6", "--k", "3"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == 2 and out["classical"] is False


def test_zeros_chebyshev(capsys):
    import math

    rc = main(["zeros", "--kind", "first", "--lambda", "0", "--k", "3", "--n", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["pass"]
    expect = [-math.cos(math.pi / 6), 0.0, math.cos(math.pi / 6)]
    assert max(abs(a - b) for a, b in zip(out["zeros"], expect)) < 1e-12


def test_equilibrium_command(capsys):
    rc = main(["equilibrium", "--k", "3", "--l", "1", "--q", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["converged"] and out["diag_dominant"]
    assert len(out["x_star"]) == 3


def test_emit_plot_figure2(tmp_path, capsys):
    rc = main(["emit-plot", "--figure2", "--outdir", str(tmp_path),
               "--samples", "21"])
    assert rc == 0
    capsys.readouterr()
    for name in ("u4.csv", "c10.csv", "b14.csv"):
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "x,y"
        assert len(lines) == 22


def test_emit_plot_poly(tmp_path, capsys):
    out = tmp_path / "p.csv"
    rc = main(["emit-plot", "--poly", "first:3/2:5:10", "--samples", "11",
               "--output", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "x,y"
    x, y = map(float, rows[1].split(","))
    assert x == -1.1


def test_emit_plot_requires_selection():
    assert main(["emit-plot"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--poly", "third:1/2:3:4"],
        ["--poly", "first:1/2:3:4", "--samples", "1"],
        ["--poly", "first:1/2:3:4", "--samples", "0"],
        ["--figure2", "--samples", "1"],
    ],
)
def test_emit_plot_rejects_bad_input(args, tmp_path, capsys):
    rc = main(["emit-plot", "--outdir", str(tmp_path), *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    assert list(tmp_path.iterdir()) == []


def test_output_file_flag(tmp_path, capsys):
    path = tmp_path / "r.json"
    rc = main(["class", "--kind", "first", "--lambda", "0", "--k", "4",
               "--output", str(path)])
    assert rc == 0
    assert json.loads(path.read_text())["classical"] is True


def test_invalid_flags_exit_2():
    rc, _, err = run_cli(["gen-poly", "--kind", "third", "--lambda", "1/2",
                          "--k", "3", "--n", "1"])
    assert rc == 2
    rc2, _, _ = run_cli(["no-such-command"])
    assert rc2 == 2


def test_invalid_lambda_exit_2():
    rc, _, err = run_cli(["gen-poly", "--kind", "first", "--lambda", "0.5x",
                          "--k", "3", "--n", "1"])
    assert rc == 2


def test_determinism_byte_identical():
    args = ["verify-structure", "--kind", "first", "--lambda", "3/2",
            "--k", "4", "--max-n", "9"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2 and out1
