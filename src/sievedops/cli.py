"""Command-line interface: generation and verification pipelines.

Each subcommand but emit-plot returns its own report fields and a verdict.
main adds the one envelope (schema 1, the command, and kind, lambda and k
for a family command) and writes the JSON report on stdout or --output.
Exit codes: 0 all checks pass, 1 a check failed, 2 invalid flags or input,
a problem too large to fit in memory, or a report value past the binary64
range (the energy of `equilibrium` at huge q); exit 2 writes one JSON error
line on stderr, and exits 0 and 1 write nothing there.
No check draws random points, so identical flags give byte-identical output
on stdout and on stderr.
The emit-plot CSV holds exact values rounded once to binary64.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import chebyshev, electrostatics, numerics, recurrence, semiclassical
from .polycore import Poly, rat_from_str
from .recurrence import SievedFamily, SievedKind

SCHEMA = 1


def _family(args) -> SievedFamily:
    return SievedFamily(SievedKind(args.kind), rat_from_str(args.lam), args.k)


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand implementations: each returns (fields, verdict) ----------


def cmd_gen_poly(args):
    fam = _family(args)
    if args.normalization == "classical":
        poly = recurrence.classical_sieved(fam, args.n)
    else:
        poly = recurrence.sieved_monic(fam, args.n)
    return {"n": args.n, "normalization": args.normalization,
            "coefficients": poly.to_strings()}, True


def cmd_verify_identities(args):
    ns = range(1, args.max_n + 1)
    results = {}
    for tag in chebyshev.IDENTITY_TAGS:
        if tag == "product_diff":
            bad = [(n, m) for n in ns for m in range(args.max_n + 1)
                   if not chebyshev.identity_residual(tag, n, m).is_zero()]
        else:
            bad = [n for n in ns
                   if not chebyshev.identity_residual(tag, n).is_zero()]
        results[tag] = {"pass": not bad, "failures": bad}
    ok = all(r["pass"] for r in results.values())
    return {"max_n": args.max_n, "identities": results}, ok


def cmd_verify_mapping(args):
    fam = _family(args)
    cells = recurrence.mapping_cells(fam, args.max_n)
    failures = [[n, j] for n, j in cells
                if not recurrence.mapping_residual(fam, n, j).is_zero()]
    return {"max_n": args.max_n, "cells_checked": len(cells),
            "failures": failures}, not failures


def _residual_grid(fam, max_n, residual_fn):
    grid = {}
    for n in range(max_n + 1):
        r = residual_fn(fam, n)
        grid[str(n)] = "zero" if r.is_zero() else f"degree {r.degree}"
    return grid


def cmd_verify_structure(args):
    fam = _family(args)
    residuals = _residual_grid(fam, args.max_n, semiclassical.structure_residual)
    agree = all(semiclassical.structure_pair(fam, n)
                == semiclassical.structure_pair_recursive(fam, n)
                for n in range(args.max_n + 1))
    ok = agree and all(v == "zero" for v in residuals.values())
    return {"max_n": args.max_n, "residuals": residuals,
            "closed_form_matches_recursion": agree}, ok


def cmd_verify_ode(args):
    fam = _family(args)
    residuals = _residual_grid(fam, args.max_n, semiclassical.ode_residual)
    ok = all(v == "zero" for v in residuals.values())
    return {"max_n": args.max_n, "residuals": residuals}, ok


def cmd_class(args):
    info = semiclassical.semiclassical_class(_family(args))
    return {"class": info.value, "classical": info.classical}, True


def cmd_zeros(args):
    zs = numerics.zeros(_family(args), args.n)
    worst = float(numerics.zero_residuals(zs).max())
    ok = worst < args.tol  # False for a NaN residual
    return {"n": args.n, "zeros": zs.values.tolist(),
            "max_residual": worst if math.isfinite(worst) else None,
            "pass": ok}, ok


def cmd_orthogonality(args):
    defects = numerics.orthogonality_defects(_family(args), args.max_n)
    # the defects of m < n, 0.0 elsewhere; argwhere goes (0, 1), (0, 2), ...
    upper = np.triu(defects, 1)
    failures = np.argwhere(upper >= args.tol).tolist()
    return {"max_n": args.max_n, "tol": args.tol,
            "worst_defect": float(upper.max()), "failures": failures}, not failures


def cmd_equilibrium(args):
    sys_ = electrostatics.ChargeSystem(k=args.k, l=args.l, q=args.q)
    init = None
    if args.init_file:
        with open(args.init_file) as fh:
            # an integer past the float range reads as inf, which is infeasible
            init = json.load(fh, parse_int=float)
        if not isinstance(init, list) or not all(type(v) is float for v in init):
            raise ValueError("--init-file must hold a JSON array of numbers")
    res = electrostatics.solve_equilibrium(sys_, init=init)
    return {
        "k": args.k,
        "l": args.l,
        "q": args.q,
        "x_star": res.x_star.tolist(),
        "energy": res.energy,
        "grad_inf_norm": res.grad_inf_norm,
        "hessian_pd": res.hessian_pd,
        "diag_dominant": res.diag_dominant,
        "iterations": res.iterations,
        "converged": res.converged,
    }, res.converged


def cmd_verify_electrostatics(args):
    matrix = {
        f"q={q},k={k},l={l}": electrostatics.verify_theorem(
            electrostatics.ChargeSystem(k=k, l=l, q=q)
        )["all_ok"]
        for q in (0.25, 0.5, 0.75, 1.0, 1.5)
        for k in (3, 4, 5)
        for l in (1, 2, 3)
    }
    return {"matrix": matrix}, all(matrix.values())


def _csv_points(poly: Poly, lo: float, hi: float, samples: int) -> str:
    """x,y rows, each y the exact value at the float x rounded once."""
    lines = ["x,y"]
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        try:
            y = poly.value_at(x)
        except OverflowError:
            raise ValueError(
                f"the value at x={x!r} is past the binary64 range"
            ) from None
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def figure_polys() -> dict:
    """The three plotted polynomials: U_4, c_10^{3/2}(.;5), B_14^{1/2}(.;5)."""
    u4 = chebyshev.u_hat(4).scale(16)
    c10 = recurrence.classical_sieved(
        SievedFamily(SievedKind.FIRST, Fraction(3, 2), 5), 10
    )
    b14 = recurrence.classical_sieved(
        SievedFamily(SievedKind.SECOND, Fraction(1, 2), 5), 14
    )
    return {"u4": u4, "c10": c10, "b14": b14}


def cmd_emit_plot(args) -> int:
    """Write CSV files rather than a report, and return the exit code."""
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
    if not (args.figure2 or args.poly):
        raise ValueError("emit-plot needs --figure2 or --poly")
    if args.figure2 and (args.poly or args.output):
        raise ValueError("--figure2 writes its own three files: it takes "
                         "neither --poly nor --output")
    if args.poly and args.outdir:
        raise ValueError("--poly writes to --output or stdout: it takes no --outdir")
    if args.figure2:
        outdir = args.outdir or "."
        os.makedirs(outdir, exist_ok=True)
        polys = figure_polys()
        for name, poly in polys.items():
            path = os.path.join(outdir, f"{name}.csv")
            with open(path, "w") as fh:
                fh.write(_csv_points(poly, -1.1, 1.1, args.samples))
        print(json.dumps({"schema": SCHEMA, "command": "emit-plot",
                          "files": sorted(f"{n}.csv" for n in polys)}))
        return 0
    fields = args.poly.split(":")
    if len(fields) != 4:
        raise ValueError(f"--poly must be kind:lambda:k:n, got {args.poly!r}")
    kind, lam, k, n = fields
    if kind not in ("first", "second"):
        raise ValueError(f"--poly kind must be 'first' or 'second', got {kind!r}")
    fam = SievedFamily(SievedKind(kind), rat_from_str(lam), _poly_int("k", k))
    poly = recurrence.classical_sieved(fam, _poly_int("n", n))
    _write(_csv_points(poly, -1.1, 1.1, args.samples), args.output)
    return 0


def _poly_int(field: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"--poly {field} must be an integer, got {text!r}") from None


# -- parser ---------------------------------------------------------------


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


_N = {"type": int, "required": True}
_MAX_N = {"type": _non_negative, "required": True}


def _add_command(sub, name, fn, summary, family=True,
                 output="write the JSON report here", **flags) -> None:
    """Register one subcommand: the family flags, its own flags (each keyword
    names one --flag), then --output."""
    p = sub.add_parser(name, help=summary)
    if family:
        p.add_argument("--kind", choices=["first", "second"], required=True)
        p.add_argument(
            "--lambda", dest="lam", required=True,
            help="rational parameter as 'p/q'; write --lambda=-1/3 for "
            "negative values (floats are not accepted)",
        )
        p.add_argument("--k", type=int, required=True)
    for flag, spec in flags.items():
        p.add_argument("--" + flag.replace("_", "-"), **spec)
    p.add_argument("--output", help=output)
    p.set_defaults(fn=fn, family=family)


# built once per process (about 4 ms); parse_args leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sieved-ops",
        description="Sieved ultraspherical polynomials: generation, exact "
        "identity verification, and the electrostatic equilibrium model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    add = functools.partial(_add_command, sub)
    add("gen-poly", cmd_gen_poly, "emit one sieved polynomial as JSON", n=_N,
        normalization={"choices": ["monic", "classical"], "default": "monic"})
    add("verify-identities", cmd_verify_identities, "Chebyshev identity suite",
        family=False, max_n={"type": _non_negative, "default": 64})
    add("verify-mapping", cmd_verify_mapping,
        "recurrence vs polynomial-mapping factorization", max_n=_MAX_N)
    add("verify-structure", cmd_verify_structure,
        "structure-relation residuals", max_n=_MAX_N)
    add("verify-ode", cmd_verify_ode, "second-order ODE residuals", max_n=_MAX_N)
    add("class", cmd_class, "semiclassical class of the family")
    add("zeros", cmd_zeros, "zeros via the Jacobi matrix", n=_N,
        tol={"type": _tolerance, "default": 1e-10})
    add("orthogonality", cmd_orthogonality,
        "orthogonality defects from exact moments", max_n=_MAX_N,
        tol={"type": _tolerance, "default": 1e-9})
    add("equilibrium", cmd_equilibrium, "solve one charge system", family=False,
        k=_N, l=_N,
        q={"type": float, "required": True,
           "help": "charge at -1 and 1; the charges 2q - 1/2 at each "
           "cos(j pi / k) attract for q < 1/4, where no equilibrium is "
           "guaranteed"},
        init_file={"help": "JSON array of starting positions"})
    add("verify-electrostatics", cmd_verify_electrostatics,
        "equilibrium checks over a fixed grid of 45 cells", family=False)
    add("emit-plot", cmd_emit_plot, "CSV sample data for the plots",
        family=False, output="CSV path for --poly output",
        figure2={"action": "store_true",
                 "help": "write u4.csv, c10.csv, b14.csv"},
        poly={"help": "kind:lambda:k:n, classical normalization"},
        samples={"type": int, "default": 441},
        outdir={"help": "directory for --figure2 output"})
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "emit-plot":  # CSV output, not a report
            return cmd_emit_plot(args)
        fields, ok = args.fn(args)
        report = {"schema": SCHEMA, "command": args.command, **fields}
        if args.family:
            report.update({"kind": args.kind, "lambda": args.lam, "k": args.k})
        # NaN and infinity are not JSON: a report holding one raises ValueError
        text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
        _write(text + "\n", args.output)
        return 0 if ok else 1
    except (ValueError, OSError, MemoryError) as exc:
        error = str(exc) or type(exc).__name__
        print(json.dumps({"schema": SCHEMA, "error": error}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
