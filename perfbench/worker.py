"""One benchmark pass in a fresh interpreter; started by run.py.

    worker.py import              print the seconds `import sievedops.cli` takes
    worker.py run OPS OUT TRACE   run the op list in file OPS, one op at a time,
                                  writing gen-poly output under directory OUT;
                                  with TRACE=1 the public entry points are
                                  wrapped first (tracing.py)

Each mode prints one JSON object on stdout.  Every op is judged by the
program's own verdict, with the CLI's default tolerances.

Before the first op, after the last, and between ops at most every
REF_EVERY_S seconds, a pass runs a fixed reference computation that owes
nothing to sievedops (reference_slice).  Its duration measures the host's
speed at that moment: on a shared host that speed swings by half or more
within a minute, and run.py divides each op's latency by the mean of the
two reference slices around it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

ZEROS_TOL = 1e-10  # `sieved-ops zeros --tol` default
ORTHO_TOL = 1e-9  # `sieved-ops orthogonality --tol` default
REF_EVERY_S = 0.25


def reference_slice() -> None:
    """Fixed work of about 20 ms, of the kinds the workloads do: a product of
    two polynomials with dyadic rational coefficients, small numpy array
    ops and an interpreter loop."""
    import numpy

    for _ in range(2):
        a = [Fraction(i % 5 + 1, 1 << (i % 9)) for i in range(40)]
        b = [Fraction(-(i % 3) - 1, 1 << (i % 7)) for i in range(40)]
        out = [Fraction(0)] * 79
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    x = numpy.linspace(-1.0, 1.0, 24)
    for _ in range(120):
        x = numpy.sqrt(x * x + 1.0) - 1.0
    s = 0
    for i in range(8000):
        s += i * i % 7


def _family(op):
    from sievedops.recurrence import SievedFamily, SievedKind

    return SievedFamily(SievedKind(op["kind"]), Fraction(op["lam"]), op["k"])


def _gen_poly(op, outdir):
    from sievedops import cli

    path = os.path.join(outdir, "gen-poly.json")
    code = cli.main([
        "gen-poly", "--kind", op["kind"], f"--lambda={op['lam']}",
        "--k", str(op["k"]), "--n", str(op["n"]), "--output", path,
    ])
    with open(path) as fh:
        report = json.load(fh)
    coeffs = report.get("coefficients", [])
    return (code == 0 and report.get("schema") == 1
            and len(coeffs) == op["n"] + 1 and coeffs[-1] == "1")


def run_op(op, outdir) -> bool:
    """True iff the program's own check passes.  Modules are looked up at call
    time so that the wrappers tracing.py installs are the ones called."""
    from sievedops import chebyshev, electrostatics, numerics, recurrence, semiclassical

    kind = op["op"]
    if kind == "identity":
        return chebyshev.identity_residual(op["tag"], op["n"], op.get("m")).is_zero()
    if kind == "structure":
        return semiclassical.structure_residual(_family(op), op["n"]).is_zero()
    if kind == "pair":
        fam = _family(op)
        closed = semiclassical.structure_pair(fam, op["n"])
        recursive = semiclassical.structure_pair_recursive(fam, op["n"])
        return closed.m == recursive.m and closed.n == recursive.n
    if kind == "ode":
        return semiclassical.ode_residual(_family(op), op["n"]).is_zero()
    if kind == "mapping":
        return recurrence.mapping_residual(_family(op), op["n"], op["j"]).is_zero()
    if kind == "gen_poly":
        return _gen_poly(op, outdir)
    if kind == "zeros":
        zs = numerics.zeros(_family(op), op["n"])
        return bool(numerics.zero_residuals(zs).max() < ZEROS_TOL)
    if kind == "orthogonality":
        defect = numerics.orthogonality_defect(_family(op), op["m"], op["n"])
        return bool(defect < ORTHO_TOL)
    if kind == "theorem":
        system = electrostatics.ChargeSystem(k=op["k"], l=op["l"], q=op["q"])
        report = electrostatics.verify_theorem(system, seed=op["points_seed"])
        return bool(report["all_ok"])
    raise ValueError(f"unknown op {kind!r}")


def run_pass(ops_path, outdir, trace) -> dict:
    with open(ops_path) as fh:
        ops = json.load(fh)
    t0 = time.perf_counter()
    import sievedops
    import sievedops.cli  # noqa: F401  (loads every module the wrappers patch)

    import_s = time.perf_counter() - t0

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    clock = time.perf_counter
    ms, ok, errors = [], [], {}
    ref_ms, ref_at = [], []  # each reference slice, and the ops done before it

    def reference():
        t0 = clock()
        reference_slice()
        ref_ms.append((clock() - t0) * 1e3)
        ref_at.append(len(ms))
        return clock()

    last_ref = reference()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            passed = run_op(op, outdir)
        except Exception as exc:  # a raising check is a failed op, recorded by type
            passed = False
            errors[i] = type(exc).__name__
        t1 = clock()
        ms.append((t1 - t0) * 1e3)
        ok.append(bool(passed))
        if t1 - last_ref >= REF_EVERY_S:
            last_ref = reference()
    reference()

    import numpy

    return {
        "module": sievedops.__file__,
        "backend": getattr(sievedops, "BACKEND", None),
        "numpy": numpy.__version__,
        "import_s": import_s,
        "op_ms": ms,
        "ref_ms": ref_ms,
        "ref_at": ref_at,
        "ok": ok,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "layers": tracer.metrics() if tracer else None,
    }


def main(argv) -> int:
    if argv[:1] == ["import"]:
        t0 = time.perf_counter()
        import sievedops.cli  # noqa: F401

        print(json.dumps({"import_s": time.perf_counter() - t0}))
        return 0
    if len(argv) == 4 and argv[0] == "run":
        print(json.dumps(run_pass(argv[1], argv[2], argv[3] == "1")))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
