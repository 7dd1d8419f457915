"""Logarithmic-potential equilibrium of movable unit charges on (-1, 1).

Fixed charges q sit at the endpoints and charges 2q - 1/2 at the interior
points cos(j pi / k); n = k*l movable unit charges live one block of l per
subinterval.  The energy minimum is the zero set of the first-kind sieved
polynomial with lam = 2q - 1/2, which verify_theorem checks end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
from numpy.polynomial.polynomial import polyval

from .numerics import (
    float_coeffs,
    interval_counts,
    partition_points,
    sieved_derivatives,
    zeros,
)
from .recurrence import SievedFamily, SievedKind


class InfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class ChargeSystem:
    k: int
    l: int
    q: float

    def __post_init__(self):
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.q < 0.25:
            warnings.warn(
                f"q={self.q} < 1/4: interior charges become attractive, "
                "no equilibrium guarantee",
                stacklevel=2,
            )

    @property
    def n(self) -> int:
        return self.k * self.l

    @property
    def q_tilde(self) -> float:
        return 2.0 * self.q - 0.5

    @property
    def lam(self) -> Fraction:
        return 2 * Fraction(self.q).limit_denominator(10**12) - Fraction(1, 2)

    @cached_property
    def interior_points(self) -> np.ndarray:
        """cos(j pi / k), j = 1..k-1, ascending."""
        return partition_points(self.k)[1:-1]

    @cached_property
    def pair_indices(self) -> tuple:
        """Row and column indices of the pairs i < j, in row-major order."""
        return np.triu_indices(self.n, 1)

    @property
    def partition(self) -> np.ndarray:
        return partition_points(self.k)

    @cached_property
    def charge_bounds(self) -> tuple:
        """Per-charge open interval (lo, hi): charge i lies in block i // l."""
        pts = self.partition
        return np.repeat(pts[:-1], self.l), np.repeat(pts[1:], self.l)


@dataclass(frozen=True)
class EquilibriumResult:
    x_star: np.ndarray
    energy: float
    grad_inf_norm: float
    hessian_pd: bool
    diag_dominant: bool
    iterations: int
    converged: bool


def is_feasible(sys: ChargeSystem, x: np.ndarray) -> bool:
    """Strictly increasing, l points strictly inside each subinterval.

    Every test is a comparison that must hold, so a NaN position fails it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        return False
    lo, hi = sys.charge_bounds
    return bool(np.all((lo < x) & (x < hi)) and np.all(np.diff(x) > 0.0))


def energy(sys: ChargeSystem, x: np.ndarray) -> float:
    """Total logarithmic energy; +inf marker for infeasible configurations.

    The monic U_hat(k-1) appears inside the log, exactly as in the model;
    the non-monic U would only shift the energy by a constant.
    """
    x = np.asarray(x, dtype=float)
    if not is_feasible(sys, x):
        return math.inf
    diffs = x[:, None] - x[None, :]
    e = -2.0 * np.sum(np.log(np.abs(diffs[sys.pair_indices])))
    e -= 2.0 * sys.q * np.sum(np.log1p(-x * x))
    # log|U_hat(k-1)| = sum_j log|x - cos(j pi/k)| (monic, roots known)
    e -= 2.0 * sys.q_tilde * np.sum(
        np.log(np.abs(x[:, None] - sys.interior_points[None, :]))
    )
    return float(e)


def gradient(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not is_feasible(sys, x):
        raise InfeasibleError("configuration outside the feasible region")
    diffs = x[:, None] - x[None, :]
    np.fill_diagonal(diffs, np.inf)
    g = -2.0 * np.sum(1.0 / diffs, axis=1)
    g -= 4.0 * sys.q * x / (x * x - 1.0)
    g -= 2.0 * sys.q_tilde * np.sum(
        1.0 / (x[:, None] - sys.interior_points[None, :]), axis=1
    )
    return g


def hessian(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not is_feasible(sys, x):
        raise InfeasibleError("configuration outside the feasible region")
    diffs = x[:, None] - x[None, :]
    np.fill_diagonal(diffs, np.inf)
    inv2 = 1.0 / diffs**2
    h = -2.0 * inv2
    diag = 2.0 * np.sum(inv2, axis=1)
    diag += 4.0 * sys.q * (x * x + 1.0) / (x * x - 1.0) ** 2
    diag += 2.0 * sys.q_tilde * np.sum(
        1.0 / (x[:, None] - sys.interior_points[None, :]) ** 2, axis=1
    )
    np.fill_diagonal(h, diag)
    return h


def is_diag_dominant(h: np.ndarray) -> bool:
    diag = np.abs(np.diag(h))
    off = np.sum(np.abs(h), axis=1) - diag
    return bool(np.all(diag > off))


def is_positive_definite(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


def default_init(sys: ChargeSystem) -> np.ndarray:
    """l Chebyshev points mapped affinely into each open subinterval."""
    pts = sys.partition
    nodes = np.cos((2 * np.arange(sys.l, 0, -1) - 1) * math.pi / (2 * sys.l))
    out = []
    for j in range(sys.k):
        lo, hi = pts[j], pts[j + 1]
        out.append(0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes)
    return np.concatenate(out)


def solve_equilibrium(
    sys: ChargeSystem,
    init: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 200,
) -> EquilibriumResult:
    """Damped Newton on the gradient, backtracking out of infeasible steps."""
    x = default_init(sys) if init is None else np.asarray(init, dtype=float).copy()
    if not is_feasible(sys, x):
        raise InfeasibleError("initial configuration infeasible")
    g = gradient(sys, x)
    e0 = energy(sys, x)
    it = 0
    converged = float(np.max(np.abs(g))) < tol
    while not converged and it < max_iter:
        h = hessian(sys, x)
        step = np.linalg.solve(h, -g)
        t = 1.0
        accepted = False
        for _ in range(60):
            cand = x + t * step
            if is_feasible(sys, cand):
                e1 = energy(sys, cand)
                if e1 <= e0 + 1e-12 * (1.0 + abs(e0)):
                    x, e0 = cand, e1
                    accepted = True
                    break
            t *= 0.5
        it += 1
        if not accepted:
            break
        g = gradient(sys, x)
        converged = float(np.max(np.abs(g))) < tol
    h = hessian(sys, x)
    return EquilibriumResult(
        x_star=x,
        energy=e0,
        grad_inf_norm=float(np.max(np.abs(g))),
        hessian_pd=is_positive_definite(h),
        diag_dominant=is_diag_dominant(h),
        iterations=it,
        converged=converged,
    )


def theorem_zero_set(sys: ChargeSystem) -> np.ndarray:
    """Zeros of the first-kind sieved polynomial with lam = 2q - 1/2."""
    fam = SievedFamily(kind=SievedKind.FIRST, lam=sys.lam, k=sys.k)
    return zeros(fam, sys.n).values


def partial_fraction_rhs(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    """Right side of the stationarity identity p''/p' at a zero."""
    x = np.asarray(x, dtype=float)
    out = -2.0 * sys.q / (x - 1.0) - 2.0 * sys.q / (x + 1.0)
    out -= 2.0 * sys.q_tilde * np.sum(
        1.0 / (x[:, None] - sys.interior_points[None, :]), axis=1
    )
    return out


def verify_theorem(sys: ChargeSystem, seed: int = 0x5EED) -> dict:
    """All equilibrium checks for one system; see the keys of the result."""
    from .semiclassical import pearson_data

    fam = SievedFamily(kind=SievedKind.FIRST, lam=sys.lam, k=sys.k)
    zs = zeros(fam, sys.n)
    xz = zs.values

    report: dict = {"k": sys.k, "l": sys.l, "q": sys.q}

    # (a) gradient vanishes at the zeros
    g = gradient(sys, xz)
    report["grad_at_zeros"] = float(np.max(np.abs(g)))
    report["grad_ok"] = report["grad_at_zeros"] < 1e-9

    # (b) stationarity identity p''/p' = partial-fraction sum at each zero
    _, dp, d2p = sieved_derivatives(fam, sys.n, xz)
    ratio = d2p / dp
    report["stationarity_resid"] = float(
        np.max(np.abs(ratio - partial_fraction_rhs(sys, xz)))
    )
    report["stationarity_ok"] = report["stationarity_resid"] < 1e-8

    # (c) the solver lands on the zeros from the default start
    res = solve_equilibrium(sys)
    report["solver_dist"] = float(np.max(np.abs(res.x_star - xz)))
    report["solver_ok"] = res.converged and report["solver_dist"] < 1e-10

    # (d) l zeros per subinterval
    counts = interval_counts(zs)
    report["interval_counts"] = counts
    report["counts_ok"] = counts == [sys.l] * sys.k

    # (e) partial-fraction form of Psi/Phi at random non-singular points
    pd = pearson_data(fam)
    phi_c, psi_c = float_coeffs(pd.phi), float_coeffs(pd.psi)
    rng = np.random.default_rng(seed)
    lam = float(fam.lam)
    worst = 0.0
    pts = partition_points(sys.k)
    count = 0
    while count < 32:
        t = float(rng.uniform(-1.0, 1.0))
        if np.min(np.abs(pts - t)) < 1e-2:
            continue
        lhs = float(polyval(t, psi_c) / polyval(t, phi_c))
        rhs = (2 * lam + 1) / 2 * (1.0 / (t - 1.0) + 1.0 / (t + 1.0)) + (
            2 * lam + 1
        ) * float(np.sum(1.0 / (t - sys.interior_points)))
        # scale by the sum magnitude: terms reach O(1/margin) near the cut
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        count += 1
    report["psi_phi_resid"] = worst
    report["psi_phi_ok"] = worst < 1e-12

    report["all_ok"] = all(
        report[key] for key in ("grad_ok", "stationarity_ok", "solver_ok",
                                "counts_ok", "psi_phi_ok")
    )
    return report
