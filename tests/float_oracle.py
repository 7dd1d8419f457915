"""Float oracles: references the package's float code is compared against.

The package evaluates nothing on monomial coefficients in floating point;
tests that compare against numpy's polyval build the coefficients here.
The plain loops of the recurrence evaluator and its zero residuals, of the
Gram matrix's rows and of the Newton solver are kept here too, as the
references the package's optimised loops must match bit for bit, and so
are the charge model's energy, gradient and Hessian written term by term:
the pairs, the endpoint charges as one term in x^2 - 1 and the interior
charges, and the fixed charges' curvature, each Hessian row's dominance
margin.  The orthogonality weight is written out as a float density, for
checking the exact moments, and block_chebyshev_init gives the solver a
start away from its answer.
"""

import math
from fractions import Fraction

import numpy as np

from sievedops.electrostatics import (
    ARMIJO,
    DECREMENT_TOL,
    MAX_BACKTRACKS,
    MAX_NEWTON_STEPS,
    EquilibriumResult,
    InfeasibleError,
    NewtonStep,
    _inner_bounds,
    default_init,
    is_feasible,
    is_positive_definite,
)
from sievedops.numerics import (
    _require_positive_definite,
    chebyshev_moments,
    float_gammas,
    partition_points,
)
from sievedops.recurrence import gamma_flat


class DomainError(ValueError):
    """x outside the open interval (-1, 1) of the weight."""


def float_coeffs(p) -> np.ndarray:
    """Ascending coefficients of the Poly p rounded to binary64, for polyval.

    Each entry is numerator / denominator, an int true division, which is
    correctly rounded and so equals float() of the Fraction coefficient.
    The zero polynomial gives [0.0], so polyval still returns zero.
    """
    den = p.denominator
    return np.array([c / den for c in p.numerators] or [0.0])


def scaled_derivatives_reference(fam, n: int, x) -> np.ndarray:
    """numerics.scaled_derivatives as five array operations per step.

    The rows are carried as (r, r', r'') with r = 2^m p_m, each step
    multiplying by 4 gamma_m and lifting the derivative terms 2 r_m and
    4 r'_m into rows 1 and 2; the package must match it bit for bit.
    """
    x2 = 2.0 * np.asarray(x, dtype=float)
    g4 = 4.0 * float_gammas(fam, n)
    lift = np.array([2.0, 4.0]).reshape((2,) + (1,) * x2.ndim)
    prev = np.zeros((3,) + x2.shape)
    cur = np.zeros((3,) + x2.shape)
    cur[0] = 1.0
    for m in range(n):
        nxt = x2 * cur
        nxt -= g4[m] * prev
        nxt[1:] += lift * cur[:-1]
        prev, cur = cur, nxt
    return cur


def zero_residuals_reference(z) -> np.ndarray:
    """numerics.zero_residuals on scaled_derivatives_reference, each zero's
    spacing the smaller of the gaps np.diff gives on either side of it, an
    end zero's its one gap, and 1.0 at n = 1; the package must match it bit
    for bit."""
    p, dp, _ = scaled_derivatives_reference(z.family, z.n, z.values)
    vals = z.values
    spacing = np.empty_like(vals)
    if len(vals) > 1:
        gaps = np.diff(vals)
        spacing[:-1] = gaps
        spacing[-1] = gaps[-1]
        spacing[1:] = np.minimum(spacing[1:], gaps)
    else:
        spacing[:] = 1.0
    return np.abs(p) / (np.abs(dp) * spacing)


def gram_matrix_reference(fam, n: int) -> np.ndarray:
    """numerics.gram_matrix with every Chebyshev row C[m + 1] formed as
    2x C[m] - float(4 gamma_m) C[m - 1] and every exact mixed-moment row as
    q (S[m, a+1] + S[m, |a-1|]) - p q' S[m-1, a], both products taken also
    where 4 gamma_m = p / q is 1."""
    mu = chebyshev_moments(fam, 2 * n)
    scale = math.lcm(*(v.denominator for v in mu))
    cur = [v.numerator * (scale // v.denominator) for v in mu]
    prev, q_prev = [0] * (2 * n), 1
    c = np.zeros((n + 1, n + 1))
    c[0, 0] = 1.0
    s = np.zeros((n + 1, n + 1))
    s[0, 0] = cur[0] / scale
    for m in range(n):
        c[m + 1, 1:] = c[m, :-1]
        c[m + 1, 1] += c[m, 0]
        c[m + 1, :-1] += c[m, 1:]
        g4 = 4 * gamma_flat(fam, m) if m else Fraction(0)
        if m:
            c[m + 1] -= float(g4) * c[m - 1]
        p, q = g4.numerator, g4.denominator
        pq = p * q_prev
        down = [cur[1]] + cur
        prev, cur, q_prev = cur, [q * (u + v) - pq * w for u, v, w
                                  in zip(cur[1:], down, prev)], q
        scale *= q
        s[m + 1, :m + 2] = [v / scale for v in cur[:m + 2]]
    return np.triu(c @ s.T)


def energy_reference(sys, x) -> float:
    """electrostatics.energy as three terms, at a feasible x: the pairs
    i < j, the endpoints through log1p(-x^2) and the interior charges."""
    x = np.asarray(x, dtype=float)
    rows, cols = np.triu_indices(sys.n, 1)
    interior = partition_points(sys.k)[1:-1]
    e = -2.0 * np.log(x[cols] - x[rows]).sum()
    e -= 2.0 * sys.q * np.log1p(-x * x).sum()
    e -= 2.0 * sys.q_tilde * np.log(np.abs(x[:, None] - interior[None, :])).sum()
    return float(e)


def derivatives_reference(sys, x) -> tuple:
    """Gradient and Hessian of energy_reference, the endpoint terms written
    as -4qx / (x^2 - 1) and 4q(x^2 + 1) / (x^2 - 1)^2."""
    x = np.asarray(x, dtype=float)
    interior = partition_points(sys.k)[1:-1]
    inv = x[:, None] - x[None, :]
    np.fill_diagonal(inv, np.inf)
    np.divide(1.0, inv, out=inv)
    inv_c = 1.0 / (x[:, None] - interior[None, :])
    w = x * x - 1.0
    g = -2.0 * inv.sum(axis=1)
    g -= 4.0 * sys.q * x / w
    g -= 2.0 * sys.q_tilde * inv_c.sum(axis=1)
    inv *= inv
    inv_c *= inv_c
    h = -2.0 * inv
    diag = 2.0 * inv.sum(axis=1)
    diag += 4.0 * sys.q * (x * x + 1.0) / (w * w)
    diag += 2.0 * sys.q_tilde * inv_c.sum(axis=1)
    np.fill_diagonal(h, diag)
    return g, h


def fixed_margin_reference(sys, x) -> np.ndarray:
    """The fixed charges' curvature m_i at each charge, term by term: the
    endpoints as 4q(x^2 + 1) / (x^2 - 1)^2 and each interior charge on its
    own."""
    m = []
    for xi in np.asarray(x, dtype=float).tolist():
        w = xi * xi - 1.0
        mi = 4.0 * sys.q * (xi * xi + 1.0) / (w * w)
        for c in partition_points(sys.k)[1:-1].tolist():
            mi += 2.0 * sys.q_tilde / ((xi - c) * (xi - c))
        m.append(mi)
    return np.array(m)


def _solver_energy(sys, x) -> float:
    """electrostatics.energy on its own gap matrix, +inf off the feasible set."""
    if not is_feasible(sys, x):
        return math.inf
    d = np.subtract.outer(x, np.concatenate((x, sys.fixed_charges[0])))
    np.fill_diagonal(d, 1.0)
    logs = np.log(np.abs(d, out=d), out=d)
    return -float(logs.sum(axis=0) @ sys.column_weights[0])


def _solver_derivatives(sys, x) -> tuple:
    """Gradient and Hessian from a second gap matrix, inf on its diagonal."""
    d = np.subtract.outer(x, np.concatenate((x, sys.fixed_charges[0])))
    np.fill_diagonal(d, np.inf)
    inv = 1.0 / d
    field = sys.column_weights[1]
    g = -(inv @ field)
    inv *= inv
    h = -2.0 * inv[:, :sys.n]
    np.fill_diagonal(h, inv @ field)
    return g, h


def block_chebyshev_init(sys) -> np.ndarray:
    """l Chebyshev points mapped affinely into each open block, bunched at
    the block ends: a start away from the equilibrium, for tests that need
    the solver to search rather than start at the lam = 0 zeros."""
    lo, hi = sys.charge_bounds
    nodes = np.cos((2 * np.arange(sys.l, 0, -1) - 1) * math.pi / (2 * sys.l))
    return 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.tile(nodes, sys.k)


def solve_equilibrium_reference(sys, init=None):
    """electrostatics.solve_equilibrium as a plain loop: each trial point's
    energy builds one gap matrix and the accepted point's gradient and
    Hessian another; the package must match its iterates, trace and flags
    bit for bit."""
    x = default_init(sys) if init is None else np.asarray(init, dtype=float).copy()
    e0 = _solver_energy(sys, x)
    if e0 == math.inf:
        raise InfeasibleError("initial configuration infeasible")
    lo, hi = _inner_bounds(sys)
    g, h = _solver_derivatives(sys, x)
    trace = []
    converged = False
    while not converged and len(trace) < MAX_NEWTON_STEPS:
        if not np.all(np.isfinite(h)):
            break
        try:
            d = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            break
        decrement = -float(g @ d)
        if not decrement >= 0.0:
            break
        converged = decrement <= DECREMENT_TOL * (1.0 + abs(e0))
        for backtracks in range(MAX_BACKTRACKS + 1):
            t = 0.5**backtracks
            cand = np.clip(x + t * d, (x + lo) / 2, (x + hi) / 2)
            e1 = _solver_energy(sys, cand)
            accepted = e1 <= e0 - ARMIJO * t * decrement or (
                converged and e1 < math.inf
            )
            if accepted:
                break
        trace.append(NewtonStep(e0, float(np.max(np.abs(g))), decrement, t,
                                backtracks))
        if not accepted:
            converged = False
            break
        x, e0 = cand, e1
        g, h = _solver_derivatives(sys, x)
    return EquilibriumResult(
        x_star=x,
        energy=e0,
        grad_inf_norm=float(np.max(np.abs(g))),
        hessian_pd=is_positive_definite(h),
        diag_dominant=bool(min(fixed_margin_reference(sys, x)) > 0.0),
        iterations=len(trace),
        converged=converged,
        trace=tuple(trace),
    )


def chebyshev_u_float(k: int, x: float) -> float:
    """Non-monic U_k by the classical recurrence."""
    if k == -1:
        return 0.0
    prev, cur = 1.0, 2.0 * x
    if k == 0:
        return prev
    for _ in range(1, k):
        prev, cur = cur, 2.0 * x * cur - prev
    return cur


def weight(fam, x: float) -> float:
    """Orthogonality weight on (-1, 1)."""
    _require_positive_definite(fam)
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside the open interval (-1, 1)")
    lam = float(fam.lam)
    u = abs(chebyshev_u_float(fam.k - 1, x))
    exp_edge = lam + (fam.shift - 0.5)
    if u == 0.0 and lam < 0:
        return math.inf  # the density's pole at a zero of U_{k-1}
    return (1.0 - x * x) ** exp_edge * u ** (2.0 * lam)
