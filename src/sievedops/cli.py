"""Command-line interface: generation and verification pipelines.

Every subcommand emits a JSON report (schema 1) on stdout or --output.
Exit codes: 0 all checks pass, 1 a check failed, 2 invalid flags or input.
No check draws random points, so identical flags give byte-identical output.
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

from . import chebyshev, electrostatics, numerics, recurrence, semiclassical
from .polycore import Poly, rat_from_str, rat_to_str
from .recurrence import SievedFamily, SievedKind

SCHEMA = 1


def _family(args) -> SievedFamily:
    kind = SievedKind.FIRST if args.kind == "first" else SievedKind.SECOND
    return SievedFamily(kind=kind, lam=rat_from_str(args.lam), k=args.k)


def _emit(report: dict, output: str | None) -> None:
    report["schema"] = SCHEMA
    # NaN and infinity are not JSON: a report holding one raises ValueError
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# -- subcommand implementations ------------------------------------------


def cmd_gen_poly(args) -> int:
    fam = _family(args)
    if args.normalization == "classical":
        poly = recurrence.classical_sieved(fam, args.n)
    else:
        poly = recurrence.sieved_monic(fam, args.n)
    _emit(
        {
            "command": "gen-poly",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "n": args.n,
            "normalization": args.normalization,
            "coefficients": poly.to_strings(),
        },
        args.output,
    )
    return 0


def cmd_verify_identities(args) -> int:
    results = {}
    ok = True
    for tag in chebyshev.IDENTITY_TAGS:
        if tag == "product_diff":
            bad = [
                (n, m)
                for n in range(1, args.max_n + 1)
                for m in range(0, args.max_n + 1)
                if not chebyshev.identity_residual(tag, n, m).is_zero()
            ]
        else:
            bad = [
                n
                for n in range(1, args.max_n + 1)
                if not chebyshev.identity_residual(tag, n).is_zero()
            ]
        results[tag] = {"pass": not bad, "failures": bad}
        ok = ok and not bad
    _emit(
        {"command": "verify-identities", "max_n": args.max_n, "identities": results},
        args.output,
    )
    return 0 if ok else 1


def cmd_verify_mapping(args) -> int:
    fam = _family(args)
    cells = recurrence.mapping_cells(fam, args.max_n)
    failures = [
        [n, j]
        for n, j in cells
        if not recurrence.mapping_residual(fam, n, j).is_zero()
    ]
    _emit(
        {
            "command": "verify-mapping",
            "kind": args.kind,
            "lambda": args.lam,
            "k": fam.k,
            "max_n": args.max_n,
            "cells_checked": len(cells),
            "failures": failures,
        },
        args.output,
    )
    return 0 if not failures else 1


def _residual_grid(fam, max_n, residual_fn):
    grid = {}
    for n in range(max_n + 1):
        r = residual_fn(fam, n)
        grid[str(n)] = "zero" if r.is_zero() else f"degree {r.degree}"
    return grid


def _pairs_agree(fam, n) -> bool:
    """Closed-form and recursive structure pairs agree at index n."""
    closed = semiclassical.structure_pair(fam, n)
    recursive = semiclassical.structure_pair_recursive(fam, n)
    return closed.m == recursive.m and closed.n == recursive.n


def cmd_verify_structure(args) -> int:
    fam = _family(args)
    residuals = _residual_grid(fam, args.max_n, semiclassical.structure_residual)
    agree = all(_pairs_agree(fam, n) for n in range(args.max_n + 1))
    ok = agree and all(v == "zero" for v in residuals.values())
    _emit(
        {
            "command": "verify-structure",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "max_n": args.max_n,
            "residuals": residuals,
            "closed_form_matches_recursion": agree,
        },
        args.output,
    )
    return 0 if ok else 1


def cmd_verify_ode(args) -> int:
    fam = _family(args)
    residuals = _residual_grid(fam, args.max_n, semiclassical.ode_residual)
    ok = all(v == "zero" for v in residuals.values())
    _emit(
        {
            "command": "verify-ode",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "max_n": args.max_n,
            "residuals": residuals,
        },
        args.output,
    )
    return 0 if ok else 1


def cmd_class(args) -> int:
    fam = _family(args)
    info = semiclassical.semiclassical_class(fam)
    _emit(
        {
            "command": "class",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "class": info.value,
            "classical": info.classical,
        },
        args.output,
    )
    return 0


def cmd_zeros(args) -> int:
    fam = _family(args)
    zs = numerics.zeros(fam, args.n)
    worst = float(numerics.zero_residuals(zs).max())
    ok = worst < args.tol  # False for a NaN residual
    _emit(
        {
            "command": "zeros",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "n": args.n,
            "zeros": [float(v) for v in zs.values],
            "max_residual": worst if math.isfinite(worst) else None,
            "pass": ok,
        },
        args.output,
    )
    return 0 if ok else 1


def cmd_orthogonality(args) -> int:
    fam = _family(args)
    pairs = [(m, n) for m in range(args.max_n + 1)
             for n in range(m + 1, args.max_n + 1)]
    defs = numerics.orthogonality_defects(fam, pairs)
    worst = max(defs) if defs else 0.0
    failures = [list(p) for p, d in zip(pairs, defs) if d >= args.tol]
    _emit(
        {
            "command": "orthogonality",
            "kind": args.kind,
            "lambda": args.lam,
            "k": args.k,
            "max_n": args.max_n,
            "tol": args.tol,
            "worst_defect": worst,
            "failures": failures,
        },
        args.output,
    )
    return 0 if not failures else 1


def cmd_equilibrium(args) -> int:
    sys_ = electrostatics.ChargeSystem(k=args.k, l=args.l, q=args.q)
    init = None
    if args.init_file:
        with open(args.init_file) as fh:
            # an integer past the float range reads as inf, which is infeasible
            init = json.load(fh, parse_int=float)
        if not isinstance(init, list) or not all(type(v) is float for v in init):
            raise ValueError("--init-file must hold a JSON array of numbers")
    res = electrostatics.solve_equilibrium(sys_, init=init)
    _emit(
        {
            "command": "equilibrium",
            "k": args.k,
            "l": args.l,
            "q": args.q,
            "x_star": [float(v) for v in res.x_star],
            "energy": res.energy,
            "grad_inf_norm": res.grad_inf_norm,
            "hessian_pd": res.hessian_pd,
            "diag_dominant": res.diag_dominant,
            "iterations": res.iterations,
            "converged": res.converged,
        },
        args.output,
    )
    return 0 if res.converged else 1


def cmd_verify_electrostatics(args) -> int:
    qs = [0.25, 0.5, 0.75, 1.0, 1.5]
    matrix = {
        f"q={q},k={k},l={l}": electrostatics.verify_theorem(
            electrostatics.ChargeSystem(k=k, l=l, q=q)
        )["all_ok"]
        for q in qs
        for k in (3, 4, 5)
        for l in (1, 2, 3)
    }
    ok = all(matrix.values())
    _emit(
        {"command": "verify-electrostatics", "grid": args.grid, "matrix": matrix},
        args.output,
    )
    return 0 if ok else 1


def _csv_points(poly: Poly, lo: float, hi: float, samples: int) -> str:
    """x,y rows, each y the exact value at the float x rounded once."""
    lines = ["x,y"]
    for i in range(samples):
        x = lo + (hi - lo) * i / (samples - 1)
        try:
            y = float(poly.evaluate(Fraction(x)))
        except OverflowError:
            raise ValueError(
                f"the value at x={x!r} is past the binary64 range"
            ) from None
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def figure_polys() -> dict:
    """The three plotted polynomials: U_4, c_10^{3/2}(.;5), B_14^{1/2}(.;5)."""
    u4 = chebyshev.chebyshev_u(4)
    c10 = recurrence.classical_sieved(
        SievedFamily(SievedKind.FIRST, Fraction(3, 2), 5), 10
    )
    b14 = recurrence.classical_sieved(
        SievedFamily(SievedKind.SECOND, Fraction(1, 2), 5), 14
    )
    return {"u4": u4, "c10": c10, "b14": b14}


def cmd_emit_plot(args) -> int:
    if args.samples < 2:
        raise ValueError(f"--samples must be at least 2, got {args.samples}")
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
    if not args.poly:
        print("emit-plot needs --figure2 or --poly", file=sys.stderr)
        return 2
    kind, lam, k, n = args.poly.split(":")
    kinds = {"first": SievedKind.FIRST, "second": SievedKind.SECOND}
    if kind not in kinds:
        raise ValueError(f"--poly kind must be 'first' or 'second', got {kind!r}")
    fam = SievedFamily(kinds[kind], rat_from_str(lam), int(k))
    poly = recurrence.classical_sieved(fam, int(n))
    text = _csv_points(poly, -1.1, 1.1, args.samples)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


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


# built once per process (about 4 ms); parse_args leaves the parser as it was
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sieved-ops",
        description="Sieved ultraspherical polynomials: generation, exact "
        "identity verification, and the electrostatic equilibrium model.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_family(p):
        p.add_argument("--kind", choices=["first", "second"], required=True)
        p.add_argument(
            "--lambda", dest="lam", required=True,
            help="rational parameter as 'p/q'; write --lambda=-1/3 for "
            "negative values (floats are not accepted)",
        )
        p.add_argument("--k", type=int, required=True)

    def add_output(p):
        p.add_argument("--output", help="write the JSON report here")

    p = sub.add_parser("gen-poly", help="emit one sieved polynomial as JSON")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--normalization", choices=["monic", "classical"],
                   default="monic")
    add_output(p)
    p.set_defaults(fn=cmd_gen_poly)

    p = sub.add_parser("verify-identities", help="Chebyshev identity suite")
    p.add_argument("--max-n", type=_non_negative, default=64)
    add_output(p)
    p.set_defaults(fn=cmd_verify_identities)

    p = sub.add_parser("verify-mapping",
                       help="recurrence vs polynomial-mapping factorization")
    add_family(p)
    p.add_argument("--max-n", type=_non_negative, required=True)
    add_output(p)
    p.set_defaults(fn=cmd_verify_mapping)

    p = sub.add_parser("verify-structure", help="structure-relation residuals")
    add_family(p)
    p.add_argument("--max-n", type=_non_negative, required=True)
    add_output(p)
    p.set_defaults(fn=cmd_verify_structure)

    p = sub.add_parser("verify-ode", help="second-order ODE residuals")
    add_family(p)
    p.add_argument("--max-n", type=_non_negative, required=True)
    add_output(p)
    p.set_defaults(fn=cmd_verify_ode)

    p = sub.add_parser("class", help="semiclassical class of the family")
    add_family(p)
    add_output(p)
    p.set_defaults(fn=cmd_class)

    p = sub.add_parser("zeros", help="zeros via the Jacobi matrix")
    add_family(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-10)
    add_output(p)
    p.set_defaults(fn=cmd_zeros)

    p = sub.add_parser("orthogonality",
                       help="orthogonality defects from exact moments")
    add_family(p)
    p.add_argument("--max-n", type=_non_negative, required=True)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    add_output(p)
    p.set_defaults(fn=cmd_orthogonality)

    p = sub.add_parser("equilibrium", help="solve one charge system")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--init-file", help="JSON array of starting positions")
    add_output(p)
    p.set_defaults(fn=cmd_equilibrium)

    p = sub.add_parser("verify-electrostatics",
                       help="equilibrium checks over the default grid")
    p.add_argument("--grid", choices=["default"], default="default")
    add_output(p)
    p.set_defaults(fn=cmd_verify_electrostatics)

    p = sub.add_parser("emit-plot", help="CSV sample data for the plots")
    p.add_argument("--figure2", action="store_true",
                   help="write u4.csv, c10.csv, b14.csv")
    p.add_argument("--poly", help="kind:lambda:k:n, classical normalization")
    p.add_argument("--samples", type=int, default=441)
    p.add_argument("--outdir", help="directory for --figure2 output")
    p.add_argument("--output", help="CSV path for --poly output")
    p.set_defaults(fn=cmd_emit_plot)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(json.dumps({"schema": SCHEMA, "error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
