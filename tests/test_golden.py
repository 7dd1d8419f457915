"""Golden CLI outputs, pinned byte for byte.

Exact reports, the emit-plot lines and error lines are pinned whole; reports
whose floats come from LAPACK pin their keys and every other value.  Each CSV y is the exact value of the polynomial at its x, rounded once to
binary64, so it is correctly rounded and fixed by the polynomial alone.
"""

import json

import pytest

from sievedops.cli import main

EMIT_PLOT_C10 = """\
x,y
-1.1,26.75673923200005
-0.8800000000000001,0.5217132273849976
-0.66,-0.0011454714611333103
-0.44000000000000006,0.47235336418565776
-0.21999999999999997,0.7519208546700524
0.0,-0.25
0.21999999999999997,0.7519208546700524
0.44000000000000017,0.472353364185657
0.6600000000000001,-0.0011454714611325726
0.8799999999999999,0.5217132273850005
1.1,26.75673923200005
"""

VERIFY_STRUCTURE_FIRST_K4 = """\
{
  "closed_form_matches_recursion": true,
  "command": "verify-structure",
  "k": 4,
  "kind": "first",
  "lambda": "3/2",
  "max_n": 9,
  "residuals": {
    "0": "zero",
    "1": "zero",
    "2": "zero",
    "3": "zero",
    "4": "zero",
    "5": "zero",
    "6": "zero",
    "7": "zero",
    "8": "zero",
    "9": "zero"
  },
  "schema": 1
}
"""

VERIFY_MAPPING_FIRST_K5 = """\
{
  "cells_checked": 12,
  "command": "verify-mapping",
  "failures": [],
  "k": 5,
  "kind": "first",
  "lambda": "3/2",
  "max_n": 12,
  "schema": 1
}
"""

VERIFY_MAPPING_SECOND_K3 = """\
{
  "cells_checked": 13,
  "command": "verify-mapping",
  "failures": [],
  "k": 3,
  "kind": "second",
  "lambda": "-1/4",
  "max_n": 12,
  "schema": 1
}
"""


def test_emit_plot_poly_golden(capsys):
    rc = main(["emit-plot", "--poly", "first:3/2:5:10", "--samples", "11"])
    assert rc == 0
    assert capsys.readouterr().out == EMIT_PLOT_C10


def test_verify_structure_golden(capsys):
    rc = main(["verify-structure", "--kind", "first", "--lambda", "3/2",
               "--k", "4", "--max-n", "9"])
    assert rc == 0
    assert capsys.readouterr().out == VERIFY_STRUCTURE_FIRST_K4


@pytest.mark.parametrize("family,golden", [
    (["--kind", "first", "--lambda", "3/2", "--k", "5"], VERIFY_MAPPING_FIRST_K5),
    (["--kind", "second", "--lambda=-1/4", "--k", "3"], VERIFY_MAPPING_SECOND_K3),
])
def test_verify_mapping_golden(family, golden, capsys):
    rc = main(["verify-mapping", *family, "--max-n", "12"])
    assert rc == 0
    assert capsys.readouterr().out == golden


GEN_POLY_MONIC = """\
{
  "coefficients": [
    "-1/1280",
    "0",
    "25/256",
    "0",
    "-25/32",
    "0",
    "35/16",
    "0",
    "-5/2",
    "0",
    "1"
  ],
  "command": "gen-poly",
  "k": 5,
  "kind": "first",
  "lambda": "3/2",
  "n": 10,
  "normalization": "monic",
  "schema": 1
}
"""

GEN_POLY_CLASSICAL = """\
{
  "coefficients": [
    "0",
    "-12",
    "0",
    "120",
    "0",
    "-288",
    "0",
    "192"
  ],
  "command": "gen-poly",
  "k": 4,
  "kind": "second",
  "lambda": "1/2",
  "n": 7,
  "normalization": "classical",
  "schema": 1
}
"""

VERIFY_IDENTITIES = """\
{
  "command": "verify-identities",
  "identities": {
    "deriv": {
      "failures": [],
      "pass": true
    },
    "mixed": {
      "failures": [],
      "pass": true
    },
    "product_diff": {
      "failures": [],
      "pass": true
    },
    "pythagorean": {
      "failures": [],
      "pass": true
    },
    "sum": {
      "failures": [],
      "pass": true
    },
    "turan": {
      "failures": [],
      "pass": true
    }
  },
  "max_n": 2,
  "schema": 1
}
"""

VERIFY_ODE_SECOND_K3 = """\
{
  "command": "verify-ode",
  "k": 3,
  "kind": "second",
  "lambda": "-1/4",
  "max_n": 5,
  "residuals": {
    "0": "zero",
    "1": "zero",
    "2": "zero",
    "3": "zero",
    "4": "zero",
    "5": "zero"
  },
  "schema": 1
}
"""

CLASS_SECOND_K3 = """\
{
  "class": 2,
  "classical": false,
  "command": "class",
  "k": 3,
  "kind": "second",
  "lambda": "-7/6",
  "schema": 1
}
"""

# every off-diagonal of the Gram matrix is an exact 0.0
ORTHOGONALITY_FIRST_K5 = """\
{
  "command": "orthogonality",
  "failures": [],
  "k": 5,
  "kind": "first",
  "lambda": "3/2",
  "max_n": 6,
  "schema": 1,
  "tol": 1e-09,
  "worst_defect": 0.0
}
"""

EXACT_REPORTS = [
    (["gen-poly", "--kind", "first", "--lambda", "3/2", "--k", "5", "--n", "10"],
     GEN_POLY_MONIC),
    (["gen-poly", "--kind", "second", "--lambda", "1/2", "--k", "4", "--n", "7",
      "--normalization", "classical"], GEN_POLY_CLASSICAL),
    (["verify-identities", "--max-n", "2"], VERIFY_IDENTITIES),
    (["verify-ode", "--kind", "second", "--lambda=-1/4", "--k", "3",
      "--max-n", "5"], VERIFY_ODE_SECOND_K3),
    (["class", "--kind", "second", "--lambda=-7/6", "--k", "3"], CLASS_SECOND_K3),
    (["orthogonality", "--kind", "first", "--lambda", "3/2", "--k", "5",
      "--max-n", "6"], ORTHOGONALITY_FIRST_K5),
]


@pytest.mark.parametrize("argv,golden", EXACT_REPORTS,
                         ids=[argv[0] for argv, _ in EXACT_REPORTS])
def test_exact_report_golden(argv, golden, capsys):
    rc = main(argv)
    assert rc == 0
    assert capsys.readouterr() == (golden, "")


@pytest.mark.parametrize("argv,golden", EXACT_REPORTS[::2],
                         ids=[argv[0] for argv, _ in EXACT_REPORTS[::2]])
def test_output_file_holds_the_stdout_bytes(argv, golden, tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main([*argv, "--output", str(path)])
    assert rc == 0
    assert capsys.readouterr() == ("", "")
    assert path.read_bytes() == golden.encode()


VERIFY_STRUCTURE_SECOND_K5 = """\
{
  "closed_form_matches_recursion": true,
  "command": "verify-structure",
  "k": 5,
  "kind": "second",
  "lambda": "-7/6",
  "max_n": 16,
  "residuals": {
    "0": "zero",
    "1": "zero",
    "10": "zero",
    "11": "zero",
    "12": "zero",
    "13": "zero",
    "14": "zero",
    "15": "zero",
    "16": "zero",
    "2": "zero",
    "3": "zero",
    "4": "zero",
    "5": "zero",
    "6": "zero",
    "7": "zero",
    "8": "zero",
    "9": "zero"
  },
  "schema": 1
}
"""

VERIFY_ODE_FIRST_K4 = """\
{
  "command": "verify-ode",
  "k": 4,
  "kind": "first",
  "lambda": "3/2",
  "max_n": 12,
  "residuals": {
    "0": "zero",
    "1": "zero",
    "10": "zero",
    "11": "zero",
    "12": "zero",
    "2": "zero",
    "3": "zero",
    "4": "zero",
    "5": "zero",
    "6": "zero",
    "7": "zero",
    "8": "zero",
    "9": "zero"
  },
  "schema": 1
}
"""

GEN_POLY_CLASSICAL_FIRST_K3 = """\
{
  "coefficients": [
    "0",
    "-675/391",
    "0",
    "22698/391",
    "0",
    "-131040/391",
    "0",
    "295776/391",
    "0",
    "-292864/391",
    "0",
    "106496/391"
  ],
  "command": "gen-poly",
  "k": 3,
  "kind": "first",
  "lambda": "7/3",
  "n": 11,
  "normalization": "classical",
  "schema": 1
}
"""

GEN_POLY_CLASSICAL_SECOND_K4 = """\
{
  "coefficients": [
    "0",
    "65/8",
    "0",
    "-273",
    "0",
    "2457",
    "0",
    "-9296",
    "0",
    "16968",
    "0",
    "-14784",
    "0",
    "4928"
  ],
  "command": "gen-poly",
  "k": 4,
  "kind": "second",
  "lambda": "-1/4",
  "n": 13,
  "normalization": "classical",
  "schema": 1
}
"""

# both kinds through the closed-form pairs, Omega and, past n = 3k, the
# kind's shifted block-coefficient slot in several block rows
BOTH_KINDS_REPORTS = [
    (["verify-structure", "--kind", "second", "--lambda=-7/6", "--k", "5",
      "--max-n", "16"], VERIFY_STRUCTURE_SECOND_K5),
    (["verify-ode", "--kind", "first", "--lambda", "3/2", "--k", "4",
      "--max-n", "12"], VERIFY_ODE_FIRST_K4),
    (["gen-poly", "--kind", "first", "--lambda", "7/3", "--k", "3", "--n", "11",
      "--normalization", "classical"], GEN_POLY_CLASSICAL_FIRST_K3),
    (["gen-poly", "--kind", "second", "--lambda=-1/4", "--k", "4", "--n", "13",
      "--normalization", "classical"], GEN_POLY_CLASSICAL_SECOND_K4),
]


@pytest.mark.parametrize("argv,golden", BOTH_KINDS_REPORTS, ids=[
    "verify-structure-second", "verify-ode-first", "gen-poly-classical-first",
    "gen-poly-classical-second"])
def test_both_kinds_report_golden(argv, golden, capsys):
    rc = main(argv)
    assert rc == 0
    assert capsys.readouterr() == (golden, "")


def test_emit_plot_figure2_golden(tmp_path, capsys):
    rc = main(["emit-plot", "--figure2", "--outdir", str(tmp_path),
               "--samples", "3"])
    assert rc == 0
    assert capsys.readouterr() == (
        '{"schema": 1, "command": "emit-plot", '
        '"files": ["b14.csv", "c10.csv", "u4.csv"]}\n', "")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "b14.csv", "c10.csv", "u4.csv"]


def test_bad_lambda_error_golden(capsys):
    rc = main(["gen-poly", "--kind", "first", "--lambda", "0.5", "--k", "5",
               "--n", "3"])
    assert rc == 2
    assert capsys.readouterr() == (
        "", '{"schema": 1, "error": "not a rational \'p/q\': \'0.5\'"}\n')


# zeros, equilibrium and verify-electrostatics hold floats from LAPACK: pin
# the key set and every value that is not such a float
FLOAT_REPORTS = [
    (["zeros", "--kind", "first", "--lambda", "3/2", "--k", "3", "--n", "3"],
     {"command": "zeros", "k": 3, "kind": "first", "lambda": "3/2", "n": 3,
      "pass": True, "schema": 1},
     {"max_residual", "zeros"}, "zeros", 3),
    (["equilibrium", "--k", "3", "--l", "2", "--q", "1"],
     {"command": "equilibrium", "converged": True, "diag_dominant": True,
      "hessian_pd": True, "iterations": 6, "k": 3, "l": 2, "q": 1.0,
      "schema": 1},
     {"energy", "grad_inf_norm", "x_star"}, "x_star", 6),
]


@pytest.mark.parametrize("argv,fixed,floats,array,size", FLOAT_REPORTS,
                         ids=["zeros", "equilibrium"])
def test_float_report_golden(argv, fixed, floats, array, size, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert rc == 0 and err == ""
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert set(report) == set(fixed) | floats
    assert {key: report[key] for key in fixed} == fixed
    assert len(report[array]) == size


def test_verify_electrostatics_golden(capsys):
    rc = main(["verify-electrostatics"])
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert rc == 0 and err == ""
    assert out == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert sorted(report) == ["command", "matrix", "schema"]
    assert report["command"] == "verify-electrostatics"
    assert report["schema"] == 1
    assert report["matrix"] == {
        f"q={q},k={k},l={l}": True
        for q in (0.25, 0.5, 0.75, 1.0, 1.5) for k in (3, 4, 5) for l in (1, 2, 3)
    }
