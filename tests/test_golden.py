"""Golden CLI outputs, pinned byte for byte.

Each CSV y is the exact value of the polynomial at its x, rounded once to
binary64, so it is correctly rounded and fixed by the polynomial alone.
"""

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
