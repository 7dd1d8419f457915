"""CLI subcommands: outputs, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import sievedops
from sievedops import numerics
from sievedops.cli import main
from sievedops.recurrence import SievedFamily, SievedKind, classical_sieved

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


@pytest.mark.parametrize("kind,lam,k", [("first", "3/2", 5), ("second", "-1/4", 3)])
def test_verify_mapping_degree_400(kind, lam, k, capsys):
    rc = main(["verify-mapping", "--kind", kind, f"--lambda={lam}", "--k", str(k),
               "--max-n", "400"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["failures"] == []


@pytest.mark.parametrize("kind", ["first", "second"])
def test_structure_and_ode_at_degree_200(kind, capsys):
    family = ["--kind", kind, "--lambda", "3/2", "--k", "5", "--max-n", "200"]
    assert main(["verify-structure", *family]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["residuals"]) == 201
    assert set(out["residuals"].values()) == {"zero"}
    assert out["closed_form_matches_recursion"] is True
    assert main(["verify-ode", *family]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["residuals"]) == 201
    assert set(out["residuals"].values()) == {"zero"}


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


@pytest.mark.parametrize("n", [20, 40])
def test_zeros_high_degree_pass(n, capsys):
    # monomial evaluation gave a residual of 2.4e-10 at n = 20, above --tol
    rc = main(["zeros", "--kind", "first", "--lambda", "3/2", "--k", "5",
               "--n", str(n)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["pass"]
    assert out["max_residual"] < 1e-10 and len(out["zeros"]) == n


def test_orthogonality_command(capsys):
    rc = main(["orthogonality", "--kind", "first", "--lambda", "3/2", "--k", "5",
               "--max-n", "30"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["failures"] == [] and out["worst_defect"] < 1e-9


def test_orthogonality_negative_lambda():
    # lam < 0 makes the weight singular at the partition points; a
    # quadrature rule once ended this command with a traceback and exit 1
    args = ["orthogonality", "--kind", "first", "--lambda=-1/4", "--k", "4",
            "--max-n", "6"]
    rc, out, err = run_cli(args)
    assert rc == 0 and err == ""
    report = json.loads(out)
    assert report["failures"] == [] and report["worst_defect"] < 1e-9


def test_orthogonality_degree_400(capsys):
    # a fixed quadrature rule ran short of nodes here (defect 1.4e-10)
    rc = main(["orthogonality", "--kind", "first", "--lambda", "1/2", "--k", "3",
               "--max-n", "400"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["failures"] == [] and out["worst_defect"] < 1e-12


def test_orthogonality_planted_error_report(monkeypatch, capsys):
    # mu_{2k} off by one part in 2^30: the failures and the worst defect are
    # those of one Gram matrix, |G[m, n]| / sqrt(G[m, m] G[n, n]) over m < n,
    # pinned against G, since its entries come from a BLAS product
    fam = SievedFamily(SievedKind.FIRST, F(3, 2), 5)
    exact = numerics.chebyshev_moments

    def perturbed(family, top):
        mu = exact(family, top)
        mu[2 * family.k] *= 1 + F(1, 2**30)
        return mu

    monkeypatch.setattr(numerics, "chebyshev_moments", perturbed)
    rc = main(["orthogonality", "--kind", "first", "--lambda", "3/2", "--k", "5",
               "--max-n", "16"])
    report = json.loads(capsys.readouterr().out)
    g = numerics.gram_matrix(fam, 16)
    defects = {(m, n): abs(g[m, n]) / math.sqrt(g[m, m] * g[n, n])
               for m in range(17) for n in range(m + 1, 17)}
    assert rc == 1
    assert report["failures"] == [[m, n] for (m, n), d in defects.items()
                                  if d >= 1e-9]
    assert report["worst_defect"] == max(defects.values())
    # the defect is symmetric in (m, n), whichever triangle holds it
    assert (numerics.orthogonality_defect(fam, 12, 2)
            == numerics.orthogonality_defect(fam, 2, 12) > 0)


def loaded_by_cli_import(module):
    """Whether a fresh interpreter has module loaded after importing the CLI."""
    path = [SRC_DIR, os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, sievedops.cli; print({module!r} in sys.modules)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip() == "True"


def test_import_leaves_scipy_out():
    assert not loaded_by_cli_import("scipy")


def test_import_leaves_numpy_polynomial_out():
    # no float evaluation runs on monomial coefficients
    assert not loaded_by_cli_import("numpy.polynomial")


def test_equilibrium_command(capsys):
    rc = main(["equilibrium", "--k", "3", "--l", "1", "--q", "1.0"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["converged"] and out["diag_dominant"]
    assert len(out["x_star"]) == 3


def test_equilibrium_large_system_converges(capsys):
    # an absolute gradient tolerance kept this solve running all 200
    # iterations; the stop is now relative to the energy
    rc = main(["equilibrium", "--k", "10", "--l", "60", "--q", "1"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["converged"]
    assert out["iterations"] <= 30 and len(out["x_star"]) == 600


def test_equilibrium_init_file(tmp_path, capsys):
    path = tmp_path / "init.json"
    path.write_text("[-0.9, 0, 0.9]")
    rc = main(["equilibrium", "--k", "3", "--l", "1", "--q", "1.0",
               "--init-file", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["converged"] and len(out["x_star"]) == 3


@pytest.mark.parametrize("init", [{"a": 1}, [-0.9, 0.9], ["-0.9", "0.0", "0.9"],
                                  [True, 0.0, 0.9], [-(10**400), 0.0, 0.9]])
def test_equilibrium_init_file_rejected(init, tmp_path, capsys):
    path = tmp_path / "init.json"
    path.write_text(json.dumps(init))
    rc = main(["equilibrium", "--k", "3", "--l", "1", "--q", "1.0",
               "--init-file", str(path)])
    assert rc == 2
    assert "error" in json.loads(capsys.readouterr().err)


# a feasible start at (k, l, q) = (4, 1, 1/4) whose Hessian is singular in
# binary64: two charges about 4e-16 apart across the uncharged fence cos(pi/4)
SINGULAR_START = ("[-0.9073483442348216, -0.023761603693008948, "
                  "0.7071067811865474, 0.7071067811865478]")


def test_equilibrium_singular_hessian_exit_1(tmp_path, capsys):
    # a singular Hessian stops the solve unconverged: a failed check, not an
    # input error
    path = tmp_path / "init.json"
    path.write_text(SINGULAR_START)
    rc = main(["equilibrium", "--k", "4", "--l", "1", "--q", "0.25",
               "--init-file", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert not out["converged"] and out["iterations"] == 0


def test_equilibrium_singular_start_flags(tmp_path, capsys):
    # H there is the pairs' Laplacian plus diag(m), every margin m_i
    # positive at q = 1/4 (58.4, 1.0, 6, 6), though its entries reach 1e31
    path = tmp_path / "init.json"
    path.write_text(SINGULAR_START)
    main(["equilibrium", "--k", "4", "--l", "1", "--q", "0.25",
          "--init-file", str(path)])
    out = json.loads(capsys.readouterr().out)
    assert out["diag_dominant"] is True and out["hessian_pd"] is True


@pytest.mark.parametrize("message", ["Unable to allocate 648. TiB for an array", ""])
def test_equilibrium_out_of_memory_exit_2(message, monkeypatch, capsys):
    # a system too large for memory is reported, not a traceback; the
    # allocation is simulated, never made
    from sievedops import electrostatics

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(electrostatics, "solve_equilibrium", out_of_memory)
    rc = main(["equilibrium", "--k", "3000", "--l", "3000", "--q", "1"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert json.loads(captured.err) == {"schema": 1, "error": message or "MemoryError"}


def test_equilibrium_has_no_tol_flag(capsys):
    rc = main(["equilibrium", "--k", "3", "--l", "1", "--q", "1.0",
               "--tol", "1e-11"])
    assert rc == 2
    capsys.readouterr()


def _reject_constant(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.mark.parametrize("n", [1100, 2000])
def test_zeros_past_underflow(n, capsys):
    # 2^-n p_n underflowed: n = 1060 passed vacuously and n = 1080 printed NaN
    rc = main(["zeros", "--kind", "first", "--lambda", "3/2", "--k", "5",
               "--n", str(n)])
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert 0.0 < out["max_residual"] < 1e-10
    assert rc == 0 and out["pass"]


def test_zeros_non_finite_residual_fails(monkeypatch, capsys):
    import numpy as np

    from sievedops import numerics

    monkeypatch.setattr(numerics, "zero_residuals",
                        lambda z: np.full(z.n, np.nan))
    rc = main(["zeros", "--kind", "first", "--lambda", "3/2", "--k", "5",
               "--n", "10"])
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert rc == 1 and out["pass"] is False and out["max_residual"] is None


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


def test_emit_plot_values_are_exact_values_rounded_once(capsys):
    # binary64 monomial coefficients cancel catastrophically at this degree
    rc = main(["emit-plot", "--poly", "first:3/2:5:60", "--samples", "41"])
    assert rc == 0
    coeffs = classical_sieved(SievedFamily(SievedKind.FIRST, F(3, 2), 5), 60).coeffs
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "x,y" and len(rows) == 42
    for row in rows[1:]:
        xs, ys = row.split(",")
        x = F(float(xs))
        assert ys == repr(float(sum(c * x**i for i, c in enumerate(coeffs))))


def test_emit_plot_overflow_exit_2(capsys):
    # lambda = 10^40 lifts the degree-30 value at x = +-1.1 past 1.8e308
    rc = main(["emit-plot", "--poly", f"second:{10**40}:3:30", "--samples", "2"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "x=-1.1" in json.loads(captured.err)["error"]


def test_emit_plot_requires_selection():
    assert main(["emit-plot"]) == 2


FIGURE2_ALONE = ("--figure2 writes its own three files: it takes neither --poly "
                 "nor --output")
SELECTION_ERRORS = [
    ([], "emit-plot needs --figure2 or --poly"),
    (["--samples", "5"], "emit-plot needs --figure2 or --poly"),
    (["--figure2", "--poly", "first:3/2:5:10", "--output", "f.csv"], FIGURE2_ALONE),
    (["--figure2", "--poly", "first:3/2:5:10"], FIGURE2_ALONE),
    (["--figure2", "--output", "f.csv"], FIGURE2_ALONE),
    (["--poly", "first:3/2:5:4", "--samples", "3", "--outdir", "sub"],
     "--poly writes to --output or stdout: it takes no --outdir"),
]


@pytest.mark.parametrize(
    "args,error", SELECTION_ERRORS,
    ids=["none", "samples", "figure2-poly-output", "figure2-poly", "figure2-output",
         "poly-outdir"],
)
def test_emit_plot_selection_errors(args, error, tmp_path, monkeypatch, capsys):
    # the default --outdir "." and the relative --output both land in tmp_path
    monkeypatch.chdir(tmp_path)
    rc = main(["emit-plot", *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"schema": 1, "error": error}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ["--poly", "third:1/2:3:4"],
        ["--poly", "first:1/2:3:4", "--samples", "1"],
        ["--poly", "first:1/2:3:4", "--samples", "0"],
        ["--figure2", "--samples", "1"],
    ],
)
def test_emit_plot_rejects_bad_input(args, tmp_path, monkeypatch, capsys):
    # --outdir goes only with --figure2, so each --poly case fails for its own
    # reason; run from tmp_path, any file a case wrote would show there
    monkeypatch.chdir(tmp_path)
    outdir = ["--outdir", str(tmp_path)] if "--figure2" in args else []
    rc = main(["emit-plot", *outdir, *args])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "error" in json.loads(captured.err)
    assert list(tmp_path.iterdir()) == []


POLY_ERRORS = {
    "first:3/2:5": "--poly must be kind:lambda:k:n, got 'first:3/2:5'",
    "first:3/2:5:40:1": "--poly must be kind:lambda:k:n, got 'first:3/2:5:40:1'",
    "first:3/2:x:5": "--poly k must be an integer, got 'x'",
    "first:3/2:5:2.5": "--poly n must be an integer, got '2.5'",
}


@pytest.mark.parametrize("spec", list(POLY_ERRORS))
def test_emit_plot_names_the_poly_format(spec, capsys):
    rc = main(["emit-plot", "--poly", spec])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert json.loads(captured.err) == {"schema": 1, "error": POLY_ERRORS[spec]}


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
    family = ["--kind", "first", "--lambda", "3/2", "--k", "5"]
    for command in ("verify-mapping", "verify-structure", "verify-ode",
                    "orthogonality"):
        assert main([command, *family, "--max-n", "-1"]) == 2
    assert main(["verify-identities", "--max-n", "-1"]) == 2
    assert main(["verify-electrostatics", "--grid", "nope"]) == 2
    for tol in ("nan", "inf", "0", "-1"):
        assert main(["zeros", *family, "--n", "5", "--tol", tol]) == 2
        assert main(["orthogonality", *family, "--max-n", "3",
                     "--tol", tol]) == 2


def test_valid_call_after_a_failed_one(capsys):
    args = ["gen-poly", "--kind", "second", "--lambda=-1/4", "--k", "3",
            "--n", "7"]
    rc, alone, _ = run_cli(args)
    assert rc == 0
    assert main(["gen-poly", "--kind", "third", *args[3:]]) == 2
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out == alone


def test_invalid_lambda_exit_2():
    for lam in ("0.5x", "1/0", "1e1", "0.5"):
        rc, _, err = run_cli(["gen-poly", "--kind", "first", "--lambda", lam,
                              "--k", "3", "--n", "1"])
        assert rc == 2
        assert "error" in json.loads(err)


def test_determinism_byte_identical():
    args = ["verify-structure", "--kind", "first", "--lambda", "3/2",
            "--k", "4", "--max-n", "9"]
    _, out1, _ = run_cli(args)
    _, out2, _ = run_cli(args)
    assert out1 == out2 and out1
