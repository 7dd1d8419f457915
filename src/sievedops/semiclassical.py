"""Pearson data, structure relations, and second-order ODE coefficients.

Two routes here produce the structure pair (M_N, N_N): closed-form Chebyshev
expressions and the first-order recursion driven only by the Pearson data and
the recurrence coefficients; the remark's single-term forms and Omega by exact
division by Phi stay in the tests.  The recursion is the trusted oracle; the
closed forms are what the tests put on trial.  Each family keeps
one append-only table of the recursion, a chebyshev.Table holding its step,
in a cache bounded by TABLE_CACHE_SIZE, extended by one step (two kernel
calls) per new index.

The Pearson data, eps_j and the closed forms are written once for both kinds
through s = fam.shift (0 for the first kind, 1 for the second), and C is
Psi - Phi'.  With N = nk + j, the second kind's terms at j are the first
kind's at j + 1 with N shifted by one.

Beyond j = N mod k the closed forms see N only through multiples of U_hat(k-1)
and x U_hat(k-1), so they are evaluated once, on the first block N = j < k,
and shifted by d = N - j whole blocks.  With U = U_hat(k-1) and
c = 2s + 2 lam k:
    M_N = M_j - 2d U,    N_N = N_j + d x U,
    Omega_N = Omega_j + d (2j + 1 + c) U + d^2 U,
since (N+1)(N+c) - (j+1)(j+c) = (N-j)(N+j+1+c).  The ODE coefficients
J = Phi M, K = Psi M - Phi M' and L = N M' + (Omega - N') M are then
polynomials in d of degrees 1, 1 and 3, read off the products of these.
Each closed form, each coefficient in d, and each residual is one call of
polycore's sum_of_products kernel.  Each of the six objects is then held as
integer rows over one denominator, row i the numerators of its d^i
coefficient, and evaluated at any d by Horner's rule on those ints,
normalised once: an evaluation in d, not a ring operation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .chebyshev import ONE_MINUS_X2, TABLE_CACHE_SIZE, Table, t_hat, u_hat
from .polycore import Poly, _canonical, poly_gcd, sum_of_products
from .recurrence import SievedFamily, gamma_flat, sieved_monic


def _u(n: int) -> Poly:
    """U_hat with every negative index taken as zero.

    The closed forms below reach indices -1..-3 at boundary j; taking all
    of them as zero reproduces the recursion exactly (checked in tests).
    """
    return Poly.zero() if n < 0 else u_hat(n)


@dataclass(frozen=True)
class PearsonData:
    phi: Poly
    psi: Poly
    c: Poly
    d: Poly


@dataclass(frozen=True)
class StructurePair:
    m: Poly
    n: Poly


@dataclass(frozen=True)
class OdeData:
    j: Poly
    kk: Poly
    l: Poly


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def pearson_data(fam: SievedFamily) -> PearsonData:
    """(Phi, Psi, C, D) through s = fam.shift.

    D's U_hat(k-3) term comes from the second kind's -2 lam k T_hat(k-1),
    written through T_hat(k-1) = U_hat(k-1) - U_hat(k-3) / 4.
    """
    k, s = fam.k, fam.shift
    lk = fam.lam * k
    uk1, one = u_hat(k - 1), Poly.one()
    phi = ONE_MINUS_X2 * uk1
    psi = sum_of_products([(-2 * s, Poly.x(), uk1), (-(k + 2 * lk), t_hat(k), one)])
    d = sum_of_products([(-2 * (s + lk), uk1, one), (s * lk / 2, u_hat(k - 3), one)])
    return PearsonData(phi=phi, psi=psi, c=psi - phi.derivative(), d=d)


def _eps(fam: SievedFamily, j: int) -> Fraction:
    """1 at j = k - 1, 0 at j + 2s = 0 mod k, 1/2 elsewhere."""
    if j == fam.k - 1:
        return Fraction(1)
    return Fraction(0) if (j + 2 * fam.shift) % fam.k == 0 else Fraction(1, 2)


def _closed_pair(fam: SievedFamily, big_n: int) -> StructurePair:
    """Closed-form (M_N, N_N) with N = nk + j.

    With t = 2s - 1 and B(a, b) = U_hat(a) U_hat(b) - U_hat(a+t) U_hat(b-t):
        M_N = -2 (N + s + lam k) U_hat(k-1) - (lam k / 2) B(j-1, k-j-2)
        N_N = (N + 2s + 2 lam k) x U_hat(k-1) - lam k eps_j U_hat(k-2)
              + (lam k / 8) B(j-1, k-j-3)
    """
    k, lam, s = fam.k, fam.lam, fam.shift
    j = big_n % k
    t = 2 * s - 1
    uk1, one = u_hat(k - 1), Poly.one()
    lk = lam * k
    m = sum_of_products([
        (-2 * (big_n + s + lk), uk1, one),
        (-lk / 2, _u(j - 1), _u(k - j - 2)),
        (lk / 2, _u(j - 1 + t), _u(k - j - 2 - t)),
    ])
    nn = sum_of_products([
        (big_n + 2 * s + 2 * lk, Poly.x(), uk1),
        (-lk * _eps(fam, j), u_hat(k - 2), one),
        (lk / 8, _u(j - 1), _u(k - j - 3)),
        (-lk / 8, _u(j - 1 + t), _u(k - j - 3 - t)),
    ])
    return StructurePair(m=m, n=nn)


def _closed_omega(fam: SievedFamily, big_n: int) -> Poly:
    """(N+1)(N + 2s + 2 lam k) U_hat(k-1) + (1 - 2s)(lam k / 2)
    U_hat(i-1) U_hat(k-i-2), with i = j + s."""
    k, lam, s = fam.k, fam.lam, fam.shift
    i = big_n % k + s
    lk = lam * k
    return sum_of_products([
        ((big_n + 1) * (big_n + 2 * s + 2 * lk), u_hat(k - 1), Poly.one()),
        ((1 - 2 * s) * lk / 2, _u(i - 1), _u(k - i - 2)),
    ])


def _ode_in_d(pd: PearsonData, m: tuple, nn: tuple, omega: tuple) -> OdeData:
    """J = Phi M, K = Psi M - Phi M' and L = N M' + (Omega - N') M for M, N
    and Omega given as ascending tuples of coefficients in d; each result
    is such a tuple, one kernel call per power of d."""
    dm = tuple(p.derivative() for p in m)
    dn = tuple(p.derivative() for p in nn)

    def in_d(*terms) -> tuple:
        """The sum of c f g over the terms (c, f, g), f and g tuples in d."""
        size = max(len(f) + len(g) - 1 for _, f, g in terms)
        return tuple(
            sum_of_products(
                [(c, f[a], g[i - a]) for c, f, g in terms
                 for a in range(len(f)) if 0 <= i - a < len(g)]
            )
            for i in range(size)
        )

    phi, psi = (pd.phi,), (pd.psi,)
    return OdeData(
        j=in_d((1, phi, m)),
        kk=in_d((1, psi, m), (-1, phi, dm)),
        l=in_d((1, nn, dm), (1, omega, m), (-1, dn, m)),
    )


def _rows(coeffs: tuple) -> tuple:
    """(rows, den) for an ascending tuple of Poly coefficients in d: row i
    holds the numerators of coeffs[i] over den, the lcm of their
    denominators, every row padded with zeros to one length."""
    den = math.lcm(*(p.denominator for p in coeffs))
    size = max(len(p.numerators) for p in coeffs)
    return tuple(
        tuple(c * (den // p.denominator) for c in p.numerators)
        + (0,) * (size - len(p.numerators))
        for p in coeffs
    ), den


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _first_block(fam: SievedFamily) -> tuple:
    """Entry j holds (M, N, Omega, J, K, L) at N = j + d as polynomials in
    d (module docstring), each as the (rows, den) of _rows, for
    j = 0..k-1."""
    pd = pearson_data(fam)
    u = u_hat(fam.k - 1)
    x_u = Poly.x() * u
    c = 2 * fam.shift + 2 * fam.lam * fam.k
    block = []
    for j in range(fam.k):
        sp = _closed_pair(fam, j)
        m, nn = (sp.m, u.scale(-2)), (sp.n, x_u)
        omega = (_closed_omega(fam, j), u.scale(2 * j + 1 + c), u)
        od = _ode_in_d(pd, m, nn, omega)
        block.append(tuple(map(_rows, (m, nn, omega, od.j, od.kk, od.l))))
    return tuple(block)


def _block_entry(fam: SievedFamily, big_n: int) -> tuple:
    """The first block's entry j = N mod k, and d = N - j."""
    if big_n < 0:
        raise ValueError("index must be >= 0")
    j = big_n % fam.k
    return _first_block(fam)[j], big_n - j


def _at(obj: tuple, d: int) -> Poly:
    """The polynomial (rows, den) of _rows at d, by Horner's rule on the
    integer rows and one normalisation, of a fresh list: _canonical trims
    the list it is given."""
    rows, den = obj
    acc = list(rows[-1])
    for row in rows[-2::-1]:
        acc = [a * d + c for a, c in zip(acc, row)]
    return _canonical(acc, den)


def structure_pair(fam: SievedFamily, big_n: int) -> StructurePair:
    """(M_N, N_N): the closed pair at N = j shifted by d = N - j,
    M_N = M_j - 2d U_hat(k-1) and N_N = N_j + d x U_hat(k-1)."""
    (m, nn, *_), d = _block_entry(fam, big_n)
    return StructurePair(m=_at(m, d), n=_at(nn, d))


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _pair_table(fam: SievedFamily) -> Table:
    """The family's append-only table for the Pearson-driven recursion.

    Entry N + 1 is (M_N, N_N, M_{N+1}): the pair at index N and the M the
    next step needs.  Entry 0 is the start (M_{-1}, N_{-1}, M_0) = (0, -C, D),
    with the moment functional normalised to <u, 1> = 1.
    """
    pd = pearson_data(fam)
    x, one = Poly.x(), Poly.one()

    def step(table: list) -> tuple:
        i = len(table) - 1  # index N of the new pair
        m_prev, n_prev, m_cur = table[-1]
        n_cur = sum_of_products([(-1, pd.c, one), (-1, n_prev, one), (-1, x, m_cur)])
        g = 1 / gamma_flat(fam, i + 1)
        gamma_cur = gamma_flat(fam, i) if i >= 1 else 0
        m_next = sum_of_products(
            [(-g, pd.phi, one), (gamma_cur * g, m_prev, one), (g, x, n_prev),
             (-g, x, n_cur)]
        )
        return m_cur, n_cur, m_next

    return Table([(Poly.zero(), -pd.c, pd.d)], step)


def structure_pair_recursive(fam: SievedFamily, big_n: int) -> StructurePair:
    if big_n < 0:
        raise ValueError("index must be >= 0")
    m, nn, _ = _pair_table(fam).grow(big_n + 1)
    return StructurePair(m=m, n=nn)


def structure_residual(fam: SievedFamily, big_n: int) -> Poly:
    """Phi p_N' - M_N p_{N+1} - N_N p_N, with the closed-form pair."""
    pd = pearson_data(fam)
    sp = structure_pair(fam, big_n)
    p_n = sieved_monic(fam, big_n)
    p_n1 = sieved_monic(fam, big_n + 1)
    return sum_of_products(
        [(1, pd.phi, p_n.derivative()), (-1, sp.m, p_n1), (-1, sp.n, p_n)]
    )


def ode_data(fam: SievedFamily, big_n: int) -> OdeData:
    """ODE coefficients J, K, L at index N: the first block's, shifted by
    d = N - j whole blocks (see _first_block)."""
    (*_, j_pol, k_pol, l_pol), d = _block_entry(fam, big_n)
    return OdeData(j=_at(j_pol, d), kk=_at(k_pol, d), l=_at(l_pol, d))


def ode_residual(fam: SievedFamily, big_n: int) -> Poly:
    """J p'' + K p' + L p at index N; zero iff the ODE holds."""
    od = ode_data(fam, big_n)
    p = sieved_monic(fam, big_n)
    dp = p.derivative()
    return sum_of_products([(1, od.j, dp.derivative()), (1, od.kk, dp), (1, od.l, p)])


@dataclass(frozen=True)
class ClassInfo:
    value: int
    classical: bool


def semiclassical_class(fam: SievedFamily) -> ClassInfo:
    """Class after cancelling the common factor of (Phi, C, D).

    k-1 for lam != 0; class 0 with the classical flag for lam = 0.
    """
    pd = pearson_data(fam)
    g = poly_gcd(pd.phi, pd.c)
    if not pd.d.is_zero():
        g = poly_gcd(g, pd.d)
    # degrees of C / g and D / g; a zero D keeps degree -inf
    s = int(max(pd.c.degree - g.degree - 1, pd.d.degree - g.degree))
    return ClassInfo(value=s, classical=(s == 0))
