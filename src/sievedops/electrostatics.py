"""Logarithmic-potential equilibrium of movable unit charges on (-1, 1).

Fixed charges q sit at the endpoints and charges 2q - 1/2 at the interior
points cos(j pi / k); n = k*l movable unit charges live one block of l per
subinterval.  The energy, its gradient and its Hessian are all read off one
matrix of gaps from each movable charge to every charge, movable or fixed;
the solver builds that matrix once per trial point, and the energy of an
accepted point and the gradient and Hessian of its next step share it.
A trial point moves each charge at most halfway to its block bound, so a
Newton step that overshoots a fence halves the charge's distance to it
instead of pinning the charge there.
The energy minimum is the zero set of the first-kind sieved polynomial with
lam = 2q - 1/2, which verify_theorem checks end to end.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import semiclassical
from .chebyshev import ONE_MINUS_X2, u_hat
from .numerics import interval_counts, partition_points, scaled_derivatives, zeros
from .polycore import Poly, sum_of_products
from .recurrence import SievedFamily, SievedKind


# Armijo's sufficient-decrease fraction
ARMIJO = 1e-4
# halvings of the step before the line search gives up
MAX_BACKTRACKS = 50
# Newton iterations before the solve stops unconverged
MAX_NEWTON_STEPS = 200
# a Newton decrement at most this times 1 + |E| has converged: rounding in
# the sum of about n^2 logarithms hides energy changes that small
DECREMENT_TOL = 1e-15


class InfeasibleError(ValueError):
    pass


@dataclass(frozen=True)
class ChargeSystem:
    k: int
    l: int
    q: float

    def __post_init__(self):
        if not math.isfinite(self.q):
            raise ValueError(f"q must be finite, got {self.q}")
        if self.k < 3:
            raise ValueError("k must be >= 3")
        if self.l < 1:
            raise ValueError("l must be >= 1")
        if self.q < 0.25:
            warnings.warn(
                f"q={self.q} < 1/4: interior charges become attractive, "
                "no equilibrium guarantee",
                stacklevel=3,  # past the dataclass's generated __init__
            )

    @property
    def n(self) -> int:
        return self.k * self.l

    @property
    def q_tilde(self) -> float:
        return 2.0 * self.q - 0.5

    @cached_property
    def lam(self) -> Fraction:
        return 2 * Fraction(self.q).limit_denominator(10**12) - Fraction(1, 2)

    @cached_property
    def fixed_charges(self) -> tuple:
        """Positions and sizes of the k + 1 fixed charges: 2q - 1/2 at each
        cos(j pi / k), ascending, then q at -1 and at 1."""
        return (np.append(partition_points(self.k)[1:-1], [-1.0, 1.0]),
                np.append(np.full(self.k - 1, self.q_tilde), [self.q, self.q]))

    @cached_property
    def column_weights(self) -> tuple:
        """Energy and field weights of the gap matrix's columns: 2 s for a
        charge of size s, but 1 in the energy for a movable unit charge,
        whose pairs are met from both ends."""
        field = 2.0 * np.append(np.ones(self.n), self.fixed_charges[1])
        return np.append(np.ones(self.n), field[self.n:]), field

    @cached_property
    def charge_bounds(self) -> tuple:
        """Per-charge open interval (lo, hi): charge i lies in block i // l."""
        pts = partition_points(self.k)
        return np.repeat(pts[:-1], self.l), np.repeat(pts[1:], self.l)


class NewtonStep(NamedTuple):
    """One solver iteration: the state at its start and the step it took."""

    energy: float
    grad_inf_norm: float
    decrement: float  # -g.d, the Newton decrement squared
    t: float  # accepted step length along the clipped arc
    backtracks: int  # halvings of t before the Armijo test held


@dataclass(frozen=True)
class EquilibriumResult:
    x_star: np.ndarray
    energy: float
    grad_inf_norm: float
    hessian_pd: bool
    diag_dominant: bool
    iterations: int
    converged: bool
    trace: tuple  # one NewtonStep per iteration


def is_feasible(sys: ChargeSystem, x: np.ndarray) -> bool:
    """Strictly increasing, l points strictly inside each subinterval.

    Every test is a comparison that must hold, so a NaN position fails it.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (sys.n,):
        return False
    lo, hi = sys.charge_bounds
    # np.logical_and.reduce is ndarray.all() without its Python-level wrapper
    every = np.logical_and.reduce
    return bool(every((lo < x) & (x < hi)) and every(x[1:] > x[:-1]))


def _gaps(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    """The n x (n + k + 1) gaps x_i - P_j, P the movable charges x and then
    the fixed ones, with 1.0 on the diagonal."""
    d = np.subtract.outer(x, np.concatenate((x, sys.fixed_charges[0])))
    # entry (i, i) of a row of n + k + 1 gaps
    d.flat[::sys.n + sys.k + 2] = 1.0
    return d


def _energy_and_gaps(sys: ChargeSystem, x: np.ndarray) -> tuple:
    """The energy at x and the gaps it was read from, 1.0 on the diagonal;
    (+inf, None) where x is infeasible."""
    if not is_feasible(sys, x):
        return math.inf, None
    d = _gaps(sys, x)
    logs = np.abs(d)
    np.log(logs, logs)
    return -float(logs.sum(axis=0) @ sys.column_weights[0]), d


def energy(sys: ChargeSystem, x: np.ndarray) -> float:
    """Total logarithmic energy; +inf marker for infeasible configurations.

    One weighted sum of log|x_i - P_j|, the diagonal set to 1.  The interior
    charges enter as the monic U_hat(k-1) inside the log, as in the model;
    the non-monic U would only shift the energy by a constant.
    """
    return _energy_and_gaps(sys, np.asarray(x, dtype=float))[0]


def _feasible_array(sys: ChargeSystem, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if not is_feasible(sys, x):
        raise InfeasibleError("configuration outside the feasible region")
    return x


def _derivatives(sys: ChargeSystem, d: np.ndarray) -> tuple:
    """Gradient and Hessian of the energy from the gaps d of a feasible
    point, which they overwrite: the gradient and the Hessian's diagonal are
    weighted row sums of 1 / (x_i - P_j) and its square (0 on the diagonal),
    and off it the Hessian is -2 / (x_i - x_j)^2."""
    inv = np.divide(1.0, d, d)
    inv.flat[::sys.n + sys.k + 2] = 0.0
    field = sys.column_weights[1]
    g = -(inv @ field)
    inv *= inv
    h = -2.0 * inv[:, :sys.n]
    h.flat[::sys.n + 1] = inv @ field
    return g, h


def gradient(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    x = _feasible_array(sys, x)
    return _derivatives(sys, _gaps(sys, x))[0]


def hessian(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    x = _feasible_array(sys, x)
    return _derivatives(sys, _gaps(sys, x))[1]


def is_positive_definite(h: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(h)
        return True
    except np.linalg.LinAlgError:
        return False


def default_init(sys: ChargeSystem) -> np.ndarray:
    """l Chebyshev points mapped affinely into each open subinterval."""
    lo, hi = sys.charge_bounds
    nodes = np.cos((2 * np.arange(sys.l, 0, -1) - 1) * math.pi / (2 * sys.l))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.tile(nodes, sys.k)


def _inner_bounds(sys: ChargeSystem) -> tuple:
    """The block bounds pulled two ulps inside, so a clipped charge is still
    strictly inside its block."""
    lo, hi = sys.charge_bounds
    return (np.nextafter(np.nextafter(lo, hi), hi),
            np.nextafter(np.nextafter(hi, lo), lo))


def solve_equilibrium(
    sys: ChargeSystem, init: np.ndarray | None = None
) -> EquilibriumResult:
    """Newton's method kept inside the block bounds by a
    fraction-to-the-boundary rule (Nocedal and Wright, Numerical
    Optimization, 2006, 19.2).

    Each iteration solves H d = -g and backtracks t from 1 along the arc
    x(t) = P_x(x + t d) until E(x(t)) <= E - 1e-4 t (-g.d).  P_x clips each
    charge to [(x + lo) / 2, (x + hi) / 2], lo and hi its block bounds
    pulled two ulps inside, so a step goes at most halfway to a fence, never
    onto it.  `energy` is +inf off the ordered, blocked set, so it also
    rejects trials that break the ordering.  Each trial point's gaps are
    built once: the line search reads its energy off them, and an accepted
    point its gradient and Hessian.
    The solve has converged once the Newton decrement -g.d is at most
    1e-15 (1 + |E|) (Boyd and Vandenberghe, Convex Optimization, 9.5): that
    step is below what comparing energies can resolve, so it is taken if
    feasible and the solve returns.  A singular H, or a d that does not
    descend, stops the solve unconverged.
    `diag_dominant` is min(m) > 0, m_i = sum_P w_P / (x_i - P)^2 the fixed
    charges' curvature: H is the pairs' Laplacian plus diag(m), so m_i is row
    i's margin H_ii - sum_{j != i} |H_ij|.  For q >= 1/4 every w_P >= 0, so it
    and the Cholesky test `hessian_pd` are theorems there (Gershgorin).
    """
    x = default_init(sys) if init is None else np.asarray(init, dtype=float).copy()
    e0, gaps = _energy_and_gaps(sys, x)
    if gaps is None:
        raise InfeasibleError("initial configuration infeasible")
    lo, hi = _inner_bounds(sys)
    g, h = _derivatives(sys, gaps)
    trace = []
    converged = False
    while not converged and len(trace) < MAX_NEWTON_STEPS:
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break  # H is singular, as two charges a rounding apart make it
        decrement = -float(g @ d)
        if not decrement >= 0.0:
            break  # not a descent direction: H is indefinite, as q < 1/4 allows
        converged = decrement <= DECREMENT_TOL * (1.0 + abs(e0))
        # a trial point moves each charge at most halfway to its bound
        floor, ceiling = (x + lo) / 2, (x + hi) / 2
        for backtracks in range(MAX_BACKTRACKS + 1):
            t = 0.5**backtracks
            # t * d is d at t = 1
            cand = np.minimum(np.maximum(x + t * d if backtracks else x + d, floor),
                              ceiling)
            e1, gaps = _energy_and_gaps(sys, cand)
            accepted = e1 <= e0 - ARMIJO * t * decrement or (
                converged and e1 < math.inf
            )
            if accepted:
                break
        trace.append(NewtonStep(e0, float(np.abs(g).max()), decrement, t, backtracks))
        if not accepted:
            converged = False
            break
        x, e0 = cand, e1
        g, h = _derivatives(sys, gaps)
    fixed_gaps = np.subtract.outer(x, sys.fixed_charges[0])
    margin = fixed_gaps**-2.0 @ sys.column_weights[1][sys.n:]
    return EquilibriumResult(
        x_star=x,
        energy=e0,
        grad_inf_norm=float(np.abs(g).max()),
        hessian_pd=is_positive_definite(h),
        diag_dominant=bool(margin.min() > 0),
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )


def theorem_zero_set(sys: ChargeSystem) -> np.ndarray:
    """Zeros of the first-kind sieved polynomial with lam = 2q - 1/2."""
    fam = SievedFamily(kind=SievedKind.FIRST, lam=sys.lam, k=sys.k)
    return zeros(fam, sys.n).values


def partial_fraction_rhs(sys: ChargeSystem, x: np.ndarray) -> np.ndarray:
    """Right side of the stationarity identity p''/p' at a zero: minus the
    field of the fixed charges, the gap matrix's last k + 1 columns."""
    gaps = np.subtract.outer(np.asarray(x, dtype=float), sys.fixed_charges[0])
    return -((1.0 / gaps) @ sys.column_weights[1][sys.n:])


def verify_theorem(sys: ChargeSystem, seed: int | None = None) -> dict:
    """All equilibrium checks for one system; see the keys of the result.

    seed is unused: no check draws random points.  It is accepted so that
    callers that still pass one keep working.
    """
    fam = SievedFamily(kind=SievedKind.FIRST, lam=sys.lam, k=sys.k)
    zs = zeros(fam, sys.n)
    xz = zs.values

    report: dict = {"k": sys.k, "l": sys.l, "q": sys.q}

    # (a) gradient vanishes at the zeros
    g = gradient(sys, xz)
    report["grad_at_zeros"] = float(np.max(np.abs(g)))
    report["grad_ok"] = report["grad_at_zeros"] < 1e-9

    # (b) stationarity identity p''/p' = partial-fraction sum at each zero
    # a ratio, so the 2^n-scaled values serve and cannot underflow
    _, dp, d2p = scaled_derivatives(fam, sys.n, xz)
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

    # (e) Psi/Phi equals its partial fractions, (2 lam + 1) / 2 at +-1 and
    # 2 lam + 1 at each cos(j pi/k); times Phi = (1 - x^2) U_hat(k-1) their
    # sum is (2 lam + 1)((1 - x^2) U_hat' - x U_hat), compared exactly
    u, c = u_hat(sys.k - 1), 2 * fam.lam + 1
    residual = sum_of_products([
        (1, semiclassical.pearson_data(fam).psi, Poly.one()),
        (-c, ONE_MINUS_X2, u.derivative()),
        (c, Poly.x(), u),
    ])
    report["psi_phi_resid"] = float(max(map(abs, residual.coeffs), default=0))
    report["psi_phi_ok"] = residual.is_zero()

    report["all_ok"] = all(
        report[key] for key in ("grad_ok", "stationarity_ok", "solver_ok",
                                "counts_ok", "psi_phi_ok")
    )
    return report
