"""Floating-point zeros, weight functions, and quadrature orthogonality.

This is the one place exact polynomials become floats: float_coeffs gives
the binary64 coefficient array that np.polynomial.polynomial evaluates.
Everything here assumes the positive-definite range lam > -1/2, where the
flattened recurrence coefficients are positive and the zeros are the
eigenvalues of a symmetric tridiagonal Jacobi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.polynomial.polynomial import polyder, polyval
from scipy.linalg import eigh_tridiagonal

from .polycore import Poly
from .recurrence import SievedFamily, SievedKind, gamma_flat, sieved_monic


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


def zeros(fam: SievedFamily, n: int) -> ZeroSet:
    """Zeros of the degree-n sieved polynomial via the Jacobi matrix."""
    _require_positive_definite(fam)
    if n < 1:
        raise ValueError("need degree >= 1")
    diag = np.zeros(n)
    off = np.array([math.sqrt(gamma_flat(fam, m)) for m in range(1, n)])
    vals = eigh_tridiagonal(diag, off, eigvals_only=True)
    vals.sort()
    return ZeroSet(values=vals, family=fam, n=n)


def zero_residuals(z: ZeroSet) -> np.ndarray:
    """|p_n(x)| / (|p_n'(x)| * local spacing) at each computed zero."""
    c = float_coeffs(sieved_monic(z.family, z.n))
    vals = z.values
    spacing = np.empty_like(vals)
    if len(vals) > 1:
        gaps = np.diff(vals)
        spacing[:-1] = gaps
        spacing[-1] = gaps[-1]
        spacing[1:] = np.minimum(spacing[1:], gaps)
    else:
        spacing[:] = 1.0
    return np.abs(polyval(vals, c)) / (np.abs(polyval(vals, polyder(c))) * spacing)


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


def _integrate_theta(fam: SievedFamily, f, panels_per_arc: int, nodes: int) -> float:
    """Composite Gauss-Legendre of f(cos theta) * density over (0, pi),
    split at theta = j pi / k where the density is non-smooth."""
    gx, gw = np.polynomial.legendre.leggauss(nodes)
    total = 0.0
    k = fam.k
    for j in range(k):
        a = j * math.pi / k
        b = (j + 1) * math.pi / k
        edges = np.linspace(a, b, panels_per_arc + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid = 0.5 * (lo + hi)
            half = 0.5 * (hi - lo)
            t = mid + half * gx
            total += half * float(np.sum(gw * f(np.cos(t)) * _theta_density(fam, t)))
    return total


def orthogonality_defect(
    fam: SievedFamily,
    m: int,
    n: int,
    panels_per_arc: int = 8,
    nodes: int = 40,
    check_convergence: bool = True,
) -> float:
    """|<p_m, p_n>| / sqrt(<p_m, p_m> <p_n, p_n>) by quadrature."""
    _require_positive_definite(fam)
    if m == n:
        return 1.0
    cm = float_coeffs(sieved_monic(fam, m))
    cn = float_coeffs(sieved_monic(fam, n))

    def defect(panels):
        cross = _integrate_theta(
            fam, lambda x: polyval(x, cm) * polyval(x, cn), panels, nodes
        )
        mm = _integrate_theta(fam, lambda x: polyval(x, cm) ** 2, panels, nodes)
        nn = _integrate_theta(fam, lambda x: polyval(x, cn) ** 2, panels, nodes)
        return abs(cross) / math.sqrt(mm * nn)

    d = defect(panels_per_arc)
    if check_convergence:
        d2 = defect(2 * panels_per_arc)
        if abs(d - d2) > 1e-8:
            raise QuadratureNonConvergence(
                f"defect changed by {abs(d - d2):.3e} under panel refinement"
            )
    return d


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
