"""Floating-point zeros, weight functions, and quadrature orthogonality.

Every float check runs on the monic three-term recurrence
p_{m+1} = x p_m - gamma_m p_{m-1}, never on monomial coefficients, which
cancel catastrophically from degree about 20.  Each family keeps one
append-only table of gamma_m rounded to binary64, from which zeros() builds
the Jacobi matrix, recurrence_rows() the node-by-degree matrix V and
sieved_derivatives() the values p_n, p_n', p_n'' (Gautschi, Orthogonal
Polynomials: Computation and Approximation, 2004).  Orthogonality is read
off one Gram matrix G = V diag(w) V^T of a composite Gauss-Legendre rule in
theta.  float_coeffs, the binary64 monomial coefficients, is kept for the
emit-plot CSV and for checks on the low-degree Pearson data.

Everything here assumes the positive-definite range lam > -1/2, where the
flattened recurrence coefficients are positive and the zeros are the
eigenvalues of a symmetric tridiagonal Jacobi matrix.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chebyshev import TABLE_CACHE_SIZE, grow, table_cache
from .polycore import Poly
from .recurrence import SievedFamily, SievedKind, gamma_flat

# the refinement check: a defect may move by at most this when the panels
# per arc are doubled
REFINEMENT_TOL = 1e-8


class UnsupportedRangeError(ValueError):
    """lam <= -1/2: the Jacobi matrix does not symmetrize."""


class DomainError(ValueError):
    pass


class DegenerateConfigurationError(ValueError):
    """A zero coincides with a partition point within tolerance."""


class QuadratureNonConvergence(ArithmeticError):
    pass


@dataclass(frozen=True)
class ZeroSet:
    values: np.ndarray
    family: SievedFamily
    n: int


def float_coeffs(p: Poly) -> np.ndarray:
    """Ascending coefficients of p rounded to binary64, for polyval/polyder.

    Each entry is numerator / denominator, an int true division, which is
    correctly rounded and so equals float() of the Fraction coefficient.
    The zero polynomial gives [0.0], so polyval still returns zero.
    """
    den = p.denominator
    return np.array([c / den for c in p.numerators] or [0.0])


def _require_positive_definite(fam: SievedFamily):
    if fam.lam <= Fraction(-1, 2):
        raise UnsupportedRangeError(
            f"lam={fam.lam} is outside the positive-definite range lam > -1/2"
        )


@table_cache
def _gamma_table(fam: SievedFamily) -> list:
    """The family's append-only table: entry m is gamma_m in binary64.

    Entry 0 multiplies p_{-1} = 0 and is stored as 0.0.
    """
    return [0.0]


def float_gammas(fam: SievedFamily, n: int) -> np.ndarray:
    """gamma_0, ..., gamma_{n-1} rounded to binary64 (gamma_0 = 0.0).

    float() of the exact Fraction is correctly rounded, so each entry is the
    binary64 number nearest gamma_m.
    """
    table = _gamma_table(fam)
    grow(table, n - 1, lambda t: float(gamma_flat(fam, len(t))))
    return np.array(table[:n])


def zeros(fam: SievedFamily, n: int) -> ZeroSet:
    """Zeros of the degree-n sieved polynomial: the eigenvalues of the Jacobi
    matrix with off-diagonal sqrt(gamma_m), m = 1..n-1 (Golub and Welsch)."""
    _require_positive_definite(fam)
    if n < 1:
        raise ValueError("need degree >= 1")
    off = np.sqrt(float_gammas(fam, n)[1:])
    jacobi = np.diag(off, -1)
    # eigvalsh reads the lower triangle and returns the eigenvalues ascending
    return ZeroSet(values=np.linalg.eigvalsh(jacobi), family=fam, n=n)


def recurrence_rows(fam: SievedFamily, n: int, x) -> np.ndarray:
    """V with V[m, i] = 2^m p_m(x_i) for m = 0..n.

    On [-1, 1] p_m shrinks like 2^-m; the exact power of two keeps the rows
    of order one, so products of rows do not underflow at high degree.
    With r_m = 2^m p_m the recurrence reads r_{m+1} = 2x r_m - 4 gamma_m r_{m-1}.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x2 = 2.0 * np.asarray(x, dtype=float).ravel()
    g4 = 4.0 * float_gammas(fam, n)
    v = np.empty((n + 1, x2.size))
    v[0] = 1.0
    if n:
        v[1] = x2
    for m in range(1, n):
        np.multiply(x2, v[m], out=v[m + 1])
        v[m + 1] -= g4[m] * v[m - 1]
    return v


def _scaled_derivatives(fam: SievedFamily, n: int, x) -> np.ndarray:
    """2^n p_n(x), 2^n p_n'(x) and 2^n p_n''(x), stacked on a new first axis.

    Differentiating the recurrence once and twice gives
    p'_{m+1} = p_m + x p'_m - gamma_m p'_{m-1} and
    p''_{m+1} = 2 p'_m + x p''_m - gamma_m p''_{m-1}; all three run scaled
    by 2^m as in recurrence_rows.  Ratios of these values equal the ratios
    of the unscaled ones bit for bit, and stay finite past n = 1074, where
    2^-n underflows.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x2 = 2.0 * np.asarray(x, dtype=float)
    g4 = 4.0 * float_gammas(fam, n)
    # the derivative terms 2 r_m and 4 r'_m feed rows 1 and 2
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


def sieved_derivatives(fam: SievedFamily, n: int, x) -> np.ndarray:
    """p_n(x), p_n'(x) and p_n''(x), stacked on a new first axis.

    These are the scaled values times the exact 2^-n, which turns subnormal
    past n = 1022 and underflows to zero near n = 1074; callers that only
    take ratios use _scaled_derivatives.
    """
    return np.ldexp(_scaled_derivatives(fam, n, x), -n)


def zero_residuals(z: ZeroSet) -> np.ndarray:
    """|p_n(x)| / (|p_n'(x)| * local spacing) at each computed zero."""
    p, dp, _ = _scaled_derivatives(z.family, z.n, z.values)
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


def weight(fam: SievedFamily, x: float) -> float:
    """Orthogonality weight on (-1, 1)."""
    _require_positive_definite(fam)
    if not -1.0 < x < 1.0:
        raise DomainError(f"x={x} outside the open interval (-1, 1)")
    lam = float(fam.lam)
    u = abs(chebyshev_u_float(fam.k - 1, x))
    exp_edge = lam + 0.5 if fam.kind == SievedKind.SECOND else lam - 0.5
    return (1.0 - x * x) ** exp_edge * u ** (2.0 * lam)


def _theta_density(fam: SievedFamily, theta: np.ndarray) -> np.ndarray:
    """Weight times dx/dtheta after x = cos(theta): |sin k theta|^{2 lam},
    with an extra sin^2(theta) for the second kind."""
    lam = float(fam.lam)
    dens = np.abs(np.sin(fam.k * theta)) ** (2.0 * lam)
    if fam.kind == SievedKind.SECOND:
        dens = dens * np.sin(theta) ** 2
    return dens


@functools.lru_cache(maxsize=TABLE_CACHE_SIZE)
def _leggauss(nodes: int) -> tuple:
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    gx.setflags(write=False)
    gw.setflags(write=False)
    return gx, gw


def _theta_rule(fam: SievedFamily, panels_per_arc: int, nodes: int) -> tuple:
    """Points x = cos(theta) and weights w of a composite Gauss-Legendre rule
    for the orthogonality measure: theta in (0, pi) is split at j pi / k,
    where the density is non-smooth, into panels_per_arc equal panels per
    arc, with `nodes` Gauss-Legendre nodes per panel."""
    gx, gw = _leggauss(nodes)
    k = fam.k
    edges = np.array(
        [np.linspace(j * math.pi / k, (j + 1) * math.pi / k, panels_per_arc + 1)
         for j in range(k)]
    )
    lo = edges[:, :-1].reshape(-1, 1)
    hi = edges[:, 1:].reshape(-1, 1)
    half = 0.5 * (hi - lo)
    theta = (0.5 * (lo + hi) + half * gx).ravel()
    return np.cos(theta), (half * gw).ravel() * _theta_density(fam, theta)


def gram_matrix(
    fam: SievedFamily, n: int, panels_per_arc: int = 8, nodes: int = 40
) -> np.ndarray:
    """G[i, j] = <2^i p_i, 2^j p_j> for i, j = 0..n, by _theta_rule."""
    _require_positive_definite(fam)
    x, w = _theta_rule(fam, panels_per_arc, nodes)
    v = recurrence_rows(fam, n, x)
    return (v * w) @ v.T


def _defect(g: np.ndarray, m: int, n: int) -> float:
    if m == n:
        return 1.0
    return abs(float(g[m, n])) / math.sqrt(float(g[m, m]) * float(g[n, n]))


def orthogonality_defects(
    fam: SievedFamily,
    pairs,
    panels_per_arc: int = 8,
    nodes: int = 40,
    check_convergence: bool = True,
) -> list:
    """orthogonality_defect of each pair (m, n), in order, from one Gram
    matrix per panel level; the first pair whose defect moves by more than
    REFINEMENT_TOL when the panels are doubled raises."""
    pairs = list(pairs)
    degrees = [d for pair in pairs for d in pair]
    if degrees and min(degrees) < 0:
        raise ValueError(f"degree must be >= 0, got {min(degrees)}")
    top = max(degrees, default=0)
    g = gram_matrix(fam, top, panels_per_arc, nodes)
    defects = [_defect(g, m, n) for m, n in pairs]
    if check_convergence:
        g2 = gram_matrix(fam, top, 2 * panels_per_arc, nodes)
        for (m, n), d in zip(pairs, defects):
            change = abs(d - _defect(g2, m, n))
            if change > REFINEMENT_TOL:
                raise QuadratureNonConvergence(
                    f"defect changed by {change:.3e} under panel refinement"
                )
    return defects


def orthogonality_defect(
    fam: SievedFamily,
    m: int,
    n: int,
    panels_per_arc: int = 8,
    nodes: int = 40,
    check_convergence: bool = True,
) -> float:
    """|<p_m, p_n>| / sqrt(<p_m, p_m> <p_n, p_n>) by quadrature."""
    return orthogonality_defects(
        fam, [(m, n)], panels_per_arc, nodes, check_convergence
    )[0]


def partition_points(k: int) -> np.ndarray:
    """-1, cos((k-1)pi/k), ..., cos(pi/k), 1 in ascending order."""
    pts = [-1.0] + [math.cos((k - j) * math.pi / k) for j in range(1, k)] + [1.0]
    return np.array(pts)


def interval_counts(z: ZeroSet, tol: float = 1e-12) -> list:
    """Zeros per open subinterval of the partition; requires k | n."""
    k = z.family.k
    if z.n % k != 0:
        raise ValueError(f"degree {z.n} is not a multiple of k={k}")
    pts = partition_points(k)
    for x in z.values:
        if np.min(np.abs(pts - x)) < tol:
            raise DegenerateConfigurationError(
                f"zero {x} coincides with a partition point"
            )
    counts = []
    for lo, hi in zip(pts[:-1], pts[1:]):
        counts.append(int(np.sum((z.values > lo) & (z.values < hi))))
    return counts
