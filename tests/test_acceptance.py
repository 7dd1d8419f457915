"""Acceptance gate: the ten headline checks, one printed verdict line each.

Each test prints "criterion N: PASS ..." (or FAIL) so the -s / captured log
doubles as the acceptance report.  Tolerances and runtime budgets are part
of the assertions.
"""

import time
from fractions import Fraction as F

import numpy as np

from sievedops import electrostatics as es
from sievedops import numerics as nm
from sievedops import semiclassical as sc
from sievedops.chebyshev import IDENTITY_TAGS, identity_residual
from sievedops.cli import figure_polys
from sievedops.recurrence import (
    SievedFamily,
    SievedKind,
    mapping_residual,
    pi_k_from_determinants,
)
from sievedops.chebyshev import t_hat

FIRST, SECOND = SievedKind.FIRST, SievedKind.SECOND

MAPPING_GRID = [
    SievedFamily(kind, lam, k)
    for kind in (FIRST, SECOND)
    for k in (3, 4, 5, 6)
    for lam in (F(1, 2), F(3, 2), F(2), F(-1, 4))
]
STRUCTURE_GRID = MAPPING_GRID + [
    SievedFamily(kind, F(-7, 6), k) for kind in (FIRST, SECOND) for k in (3, 4, 5, 6)
]
CHARGE_GRID = [
    (q, k, l) for q in (0.25, 0.5, 0.75, 1.0, 1.5) for k in (3, 4, 5)
    for l in (1, 2, 3)
]


def report(num, ok, detail):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_chebyshev_identities():
    t0 = time.time()
    ok = True
    for tag in IDENTITY_TAGS:
        for n in range(1, 65):
            if tag == "product_diff":
                ok = ok and all(
                    identity_residual(tag, n, m).is_zero() for m in range(1, 65)
                )
            else:
                ok = ok and identity_residual(tag, n).is_zero()
    elapsed = time.time() - t0
    report(1, ok and elapsed < 5.0,
           f"six identities, 1<=n,m<=64, {elapsed:.2f}s < 5s")


def test_criterion_2_mapping():
    t0 = time.time()
    ok = True
    for fam in MAPPING_GRID:
        k = fam.k
        js = range(1, k + 1) if fam.kind == FIRST else range(k)
        for n in range(5):
            for j in js:
                if k * n + j > 4 * k:
                    continue
                ok = ok and mapping_residual(fam, n, j).is_zero()
        ok = ok and pi_k_from_determinants(fam) == t_hat(k)
    elapsed = time.time() - t0
    report(2, ok and elapsed < 30.0,
           f"both kinds, k in 3..6, four lambdas, nk+j<=4k, {elapsed:.2f}s < 30s")


def test_criterion_3_structure():
    t0 = time.time()
    ok = True
    for fam in STRUCTURE_GRID:
        for big_n in range(4 * fam.k + 1):
            closed = sc.structure_pair(fam, big_n)
            rec = sc.structure_pair_recursive(fam, big_n)
            ok = ok and closed.m == rec.m and closed.n == rec.n
            ok = ok and sc.structure_residual(fam, big_n).is_zero()
    elapsed = time.time() - t0
    report(3, ok and elapsed < 60.0,
           f"closed=recursive and residual zero over grid, {elapsed:.2f}s < 60s")


def test_criterion_4_ode():
    t0 = time.time()
    ok = True
    for fam in STRUCTURE_GRID:
        for big_n in range(4 * fam.k + 1):
            ok = ok and sc.ode_residual(fam, big_n).is_zero()
    ok = ok and sc.ode_residual(SievedFamily(SECOND, F(1, 2), 5), 14).is_zero()
    ok = ok and sc.ode_residual(SievedFamily(FIRST, F(3, 2), 5), 10).is_zero()
    elapsed = time.time() - t0
    report(4, ok and elapsed < 60.0,
           f"ODE residual zero over grid incl. figure instances, "
           f"{elapsed:.2f}s < 60s")


def test_criterion_5_classification():
    t0 = time.time()
    ok = True
    for kind in (FIRST, SECOND):
        for k in (3, 4, 5):
            for lam in (F(1, 2), F(3, 2), F(-1, 4), F(-7, 6)):
                info = sc.semiclassical_class(SievedFamily(kind, lam, k))
                ok = ok and info.value == k - 1 and not info.classical
            info0 = sc.semiclassical_class(SievedFamily(kind, F(0), k))
            ok = ok and info0.value == 0 and info0.classical
    elapsed = time.time() - t0
    report(5, ok and elapsed < 5.0,
           f"class k-1 (lam != 0) and classical (lam = 0), {elapsed:.2f}s < 5s")


def test_criterion_6_figure_regeneration():
    polys = figure_polys()
    ok = polys["u4"].to_strings() == ["1", "0", "-12", "0", "16"]
    ok = ok and polys["c10"].to_strings() == [
        "-1/4", "0", "125/4", "0", "-250", "0", "700", "0", "-800", "0", "320",
    ]
    ok = ok and polys["b14"].to_strings() == [
        "-3/2", "0", "411/2", "0", "-3774", "0", "25200", "0", "-79200", "0",
        "126720", "0", "-99840", "0", "30720",
    ]
    # each CSV y must be the exact value at its x rounded once: the reference
    # sums the Fraction coefficients times powers of x
    from sievedops.cli import _csv_points

    mismatches = 0
    for poly in polys.values():
        for row in _csv_points(poly, -1.1, 1.1, 101).splitlines()[1:]:
            xs, ys = row.split(",")
            x = F(float(xs))
            exact = sum(c * x**i for i, c in enumerate(poly.coeffs))
            mismatches += ys != repr(float(exact))
    ok = ok and mismatches == 0
    report(6, ok, f"three coefficient lists exact, {mismatches} of 303 CSV "
                  "values differ from the exact value rounded once")


def test_criterion_7_orthogonality():
    t0 = time.time()
    worst = 0.0
    for kind in (FIRST, SECOND):
        for k in (3, 4):
            for lam in (F(1, 2), F(3, 2)):
                fam = SievedFamily(kind, lam, k)
                for n in range(13):
                    for m in range(n):
                        worst = max(worst, nm.orthogonality_defect(fam, m, n))
    elapsed = time.time() - t0
    report(7, worst < 1e-9 and elapsed < 60.0,
           f"worst defect {worst:.1e} < 1e-9, {elapsed:.1f}s < 60s")


def test_criterion_8_electrostatics():
    t0 = time.time()
    ok = True
    rng = np.random.default_rng(0x5EED)
    for q, k, l in CHARGE_GRID:
        sys_ = es.ChargeSystem(k=k, l=l, q=q)
        zs = es.theorem_zero_set(sys_)
        ok = ok and np.max(np.abs(es.gradient(sys_, zs))) < 1e-9
        res = es.solve_equilibrium(sys_)
        ok = ok and res.converged and np.max(np.abs(res.x_star - zs)) < 1e-10
        ok = ok and res.diag_dominant
        for _ in range(50):
            pert = zs + rng.uniform(-1e-2, 1e-2, len(zs))
            if es.is_feasible(sys_, pert):
                break
        res2 = es.solve_equilibrium(sys_, init=pert)
        ok = ok and res2.converged and np.max(np.abs(res2.x_star - zs)) < 1e-10
        ok = ok and nm.interval_counts(nm.zeros(sys_.family, k * l)) == [l] * k
    elapsed = time.time() - t0
    report(8, ok and elapsed < 120.0,
           f"45 systems: gradient, two solver starts, dominance, counts, "
           f"{elapsed:.1f}s < 120s")


def test_criterion_9_finite_differences():
    from test_electrostatics import random_feasible

    rng = np.random.default_rng(0x5EED)
    gworst = hworst = 0.0
    for q, k, l in CHARGE_GRID:
        sys_ = es.ChargeSystem(k=k, l=l, q=q)
        for _ in range(20):
            x = random_feasible(sys_, rng)
            g = es.gradient(sys_, x)
            h = es.hessian(sys_, x)
            step = 1e-6
            for i in range(len(x)):
                xp, xm = x.copy(), x.copy()
                xp[i] += step
                xm[i] -= step
                fd_g = (es.energy(sys_, xp) - es.energy(sys_, xm)) / (2 * step)
                gworst = max(gworst, abs(fd_g - g[i]) / (1 + abs(g[i])))
                fd_h = (es.gradient(sys_, xp) - es.gradient(sys_, xm)) / (2 * step)
                hworst = max(
                    hworst, float(np.max(np.abs(fd_h - h[i]) / (1 + np.abs(h[i]))))
                )
    ok = gworst < 1e-5 and hworst < 1e-4
    report(9, ok,
           f"20 configs/system: gradient {gworst:.1e} < 1e-5, "
           f"Hessian {hworst:.1e} < 1e-4")


def test_criterion_10_zero_sharing():
    # needs lam - 1 regular and > -1/2, so the q in {3/4, 1, 3/2} slice
    worst = 0.0
    for q in (0.75, 1.0, 1.5):
        lam = 2 * F(q).limit_denominator() - F(1, 2)
        for k in (3, 4, 5):
            for l in (1, 2, 3):
                n = k * l
                z1 = nm.zeros(SievedFamily(FIRST, lam, k), n).values
                z2 = nm.zeros(SievedFamily(SECOND, lam - 1, k), n + k - 1).values
                expect = np.sort(
                    np.concatenate([z1, nm.partition_points(k)[1:-1]])
                )
                worst = max(worst, float(np.max(np.abs(z2 - expect))))
    report(10, worst < 1e-10,
           f"second-kind zeros = first-kind zeros + cos(j pi/k), "
           f"max deviation {worst:.1e} < 1e-10")
