"""Exact oracles: second routes the package's exact results are compared against.

The package computes each object by one route.  The paper and its companion
give others, and the tests keep them here as references: the remark's
single-term forms of the structure pair, Omega recovered by exact division
by Phi, the ODE coefficients from the closed forms as written at every N,
and q_n of the polynomial mapping as a polynomial in x, to be composed with
T_hat(k).  Exact values at a rational x are taken by Horner's rule on the
Fraction coefficients.  shifted_omega reads Omega off the package's first
block, the one place the package holds it, for these routes to check.
"""

from fractions import Fraction

from sievedops.chebyshev import three_term_table, u_hat
from sievedops.polycore import Poly, divmod_poly
from sievedops.recurrence import _q_beta, gamma_flat
from sievedops.semiclassical import (
    OdeData,
    StructurePair,
    _at,
    _block_entry,
    _closed_omega,
    _closed_pair,
    _ode_in_d,
    _u,
    pearson_data,
    structure_pair,
)


def evaluate(p: Poly, x) -> Fraction:
    """The exact value of p at the rational x, by Horner's rule."""
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def structure_pair_alternate(fam, big_n: int) -> StructurePair:
    """The remark-style (M_N, N_N) built from single Chebyshev terms.

    The first kind's terms at i = j + s, signed (-1)^s, with
    delta = [i mod k != 0]; the first kind keeps 2 lam k on x U_hat(k-1)
    at every j.
    """
    k, lam, s = fam.k, fam.lam, fam.shift
    i = big_n % k + s
    uk1 = u_hat(k - 1)
    lk = lam * k
    four = Fraction(4)
    sign = (-1) ** s
    delta = int(i % k != 0)
    if i <= (k - 1) // 2:
        ukj = _u(k - 1 - 2 * i).scale(sign * four ** (1 - i))
    else:
        ukj = _u(2 * i - k - 1).scale(-sign * four ** (-k + i + 1))
    if i <= (k - 2) // 2:
        vkj = _u(k - 2 - 2 * i).scale(sign * four ** (-i))
    else:
        vkj = _u(2 * i - k).scale(-sign * four ** (-k + i + 1))
    m = uk1.scale(-2 * (big_n + s + lk * delta)) - ukj.scale(lk / 2)
    nn = (
        (Poly.x() * uk1).scale(big_n + 2 * s + 2 * lk * max(delta, 1 - s))
        - u_hat(k - 2).scale(lk / 2)
        + vkj.scale(lk / 2)
    )
    return StructurePair(m=m, n=nn)


def shifted_omega(fam, big_n: int) -> Poly:
    """Omega as the package holds it: Omega_j of the first block shifted by
    d = N - j, Omega_N = Omega_j + d (N + j + 1 + 2s + 2 lam k) U_hat(k-1)."""
    entry, d = _block_entry(fam, big_n)
    return _at(entry[2], d)


def omega_generic(fam, big_n: int) -> Poly:
    """Omega recovered by exact division, the dual route to shifted_omega.

    (gamma_{N+1} M_N M_{N+1} - N_N (N_N + C)) / Phi, whose remainder must
    be zero.
    """
    pd = pearson_data(fam)
    sp = structure_pair(fam, big_n)
    sp1 = structure_pair(fam, big_n + 1)
    gamma = gamma_flat(fam, big_n + 1)
    numer = (sp.m * sp1.m).scale(gamma) - sp.n * (sp.n + pd.c)
    quotient, remainder = divmod_poly(numer, pd.phi)
    assert remainder.is_zero(), (fam, big_n, remainder)
    return quotient


def closed_ode(fam, big_n: int) -> OdeData:
    """J, K, L at N from the closed pair and Omega as written."""
    sp = _closed_pair(fam, big_n)
    od = _ode_in_d(pearson_data(fam), (sp.m,), (sp.n,), (_closed_omega(fam, big_n),))
    return OdeData(j=od.j[0], kk=od.kk[0], l=od.l[0])


def mapped_q(fam, n: int) -> Poly:
    """Monic q_n of the mapping: a rescaled ultraspherical polynomial."""
    return three_term_table(_q_beta(fam)).grow(n)
