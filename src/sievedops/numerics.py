"""Floating-point zeros and orthogonality from moments.

Every float check runs on the monic three-term recurrence
p_{m+1} = x p_m - gamma_m p_{m-1}, never on monomial coefficients, which
cancel catastrophically from degree about 20.  Each family keeps one
append-only table of gamma_m rounded to binary64, from which zeros() builds
the Jacobi matrix, scaled_derivatives() the values of p_n, p_n' and p_n''
times 2^n, and gram_matrix(), where it needs them, the Chebyshev
coefficients of each p_m (Gautschi, Orthogonal Polynomials: Computation
and Approximation, 2004).
scaled_derivatives() carries its derivative rows as Taylor coefficients in
2x, so a step is three array operations, every operand of the rows' shape
(2x is tiled across the rows once), and only it skips the product by
4 gamma_m where that is exactly 1.0, which it is on all but at most two
slots of every block; where 4 gamma_m is 1 and 4 gamma_{m-1} an integer,
gram_matrix() takes its exact mixed-moment step by sums alone.
Orthogonality is read off the upper triangle of one Gram matrix G = C M C^T,
where M holds the weight's Chebyshev modified moments: exact rationals, from
which the mixed moments C M are carried exactly as integers through the
modified Chebyshev algorithm and rounded once.  No quadrature rule is
involved, and for an orthogonal family every off-diagonal entry is 0.0.
The exact rows decide whether C is needed at all: where every mixed moment
below the diagonal is 0, G is the diagonal of C M C^T, read off the exact
rows alone, and the float rows of C and the product are built only where
some exact row is nonzero below its diagonal.

Everything here assumes the positive-definite range lam > -1/2, where the
flattened recurrence coefficients are positive and the zeros are the
eigenvalues of a symmetric tridiagonal Jacobi matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .chebyshev import TABLE_CACHE_SIZE, Table
from .recurrence import SievedFamily, gamma_flat


class UnsupportedRangeError(ValueError):
    """lam <= -1/2: the Jacobi matrix does not symmetrize."""


class DegenerateConfigurationError(ValueError):
    """A zero coincides with a partition point within tolerance."""


@dataclass(frozen=True)
class ZeroSet:
    values: np.ndarray
    family: SievedFamily
    n: int


def _require_positive_definite(fam: SievedFamily):
    if 2 * fam.lam.numerator <= -fam.lam.denominator:
        raise UnsupportedRangeError(
            f"lam={fam.lam} is outside the positive-definite range lam > -1/2"
        )


@lru_cache(maxsize=TABLE_CACHE_SIZE)
def _gamma_table(fam: SievedFamily) -> Table:
    """The family's append-only table: entry m is gamma_m in binary64.

    Entry 0 multiplies p_{-1} = 0 and is stored as 0.0.
    """
    return Table([0.0], lambda t: float(gamma_flat(fam, len(t))))


def float_gammas(fam: SievedFamily, n: int) -> np.ndarray:
    """gamma_0, ..., gamma_{n-1} rounded to binary64 (gamma_0 = 0.0).

    float() of the exact Fraction is correctly rounded, so each entry is the
    binary64 number nearest gamma_m.
    """
    table = _gamma_table(fam)
    table.grow(n - 1)
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


def scaled_derivatives(fam: SievedFamily, n: int, x) -> np.ndarray:
    """2^n p_n(x), 2^n p_n'(x) and 2^n p_n''(x), stacked on a new first axis.

    Differentiating the recurrence once and twice gives
    p'_{m+1} = p_m + x p'_m - gamma_m p'_{m-1} and
    p''_{m+1} = 2 p'_m + x p''_m - gamma_m p''_{m-1}; all three run scaled
    by 2^m.  Ratios of these values equal the ratios of the unscaled ones
    bit for bit, and stay finite past n = 1074, where 2^-n underflows;
    np.ldexp(values, -n) gives p_n, p_n', p_n'' where 2^-n is still normal.

    The rows are carried as Taylor coefficients in y = 2x, (r, r'/2, r''/8)
    for r = 2^m p_m, so each derivative row takes the row above it with
    weight 1: s_{m+1} = y s_m - 4 gamma_m s_{m-1} + (row above at m).
    y is tiled across the three rows once, so every operand of a step has
    the rows' shape.  Rows 1 and 2 are scaled in place by 2 and 8 once, at
    the end; a power of two scales exactly, so every step rounds as it
    would on (r, r', r'') while no value is subnormal or past the binary64
    range.  Past that range (|x| > 1 at high degree) the carried rows
    overflow a step later than r' and r'' would, so where plain
    (r, r', r'') rows give NaN an entry can read +-inf, and where they
    overflowed on the way, its finite value.
    Where 4 gamma_m is exactly 1.0, as on all but at most two slots of
    every block, the product is skipped: it would be exact.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    x = np.asarray(x, dtype=float)
    g4 = (4.0 * float_gammas(fam, n)).tolist()
    # 2x is tiled across the three rows once, so every operand of a step has
    # the rows' shape: a ufunc on operands of one shape dispatches in about
    # half the time of one that broadcasts x against the rows
    x2 = np.empty((3,) + x.shape)
    np.multiply(x, 2.0, x2)
    # three state buffers rotate, each with its views of rows 0..1 and 1..2
    prev, cur, nxt = ((b, b[:-1], b[1:]) for b in np.zeros((3, 3) + x.shape))
    cur[0][0] = 1.0
    # each ufunc writes into its third argument, the out buffer; passed by
    # position it dispatches faster than as out=
    for g in g4:
        np.multiply(x2, cur[0], nxt[0])
        # at m = 0 the zero rows of p_{-1} take gamma_0 = 0.0 and change nothing
        if g != 1.0:
            np.multiply(prev[0], g, prev[0])
        np.subtract(nxt[0], prev[0], nxt[0])
        np.add(nxt[2], cur[1], nxt[2])
        prev, cur, nxt = cur, nxt, prev
    out = cur[0]
    out[1] *= 2.0
    out[2] *= 8.0
    return out


def zero_residuals(z: ZeroSet) -> np.ndarray:
    """|p_n(x)| / (|p_n'(x)| * local spacing) at each computed zero.

    The spacing of a zero is the smaller of its two gaps, an end zero's its
    one gap, and 1.0 for the lone zero of degree 1.
    """
    p, dp, _ = scaled_derivatives(z.family, z.n, z.values)
    vals = z.values
    # the gaps, padded at each end by inf, which the minimum never takes,
    # or by 1.0 for a lone zero
    gaps = np.empty(len(vals) + 1)
    gaps[0] = gaps[-1] = math.inf if len(vals) > 1 else 1.0
    np.subtract(vals[1:], vals[:-1], gaps[1:-1])
    spacing = np.minimum(gaps[:-1], gaps[1:])
    return np.abs(p) / (np.abs(dp) * spacing)


def chebyshev_moments(fam: SievedFamily, top: int) -> list:
    """Exact modified moments mu_d = <T_d> / <T_0> of the weight, d = 0..top.

    Under x = cos(theta) the first-kind weight is |sin k theta|^{2 lam}
    dtheta, of period pi/k: mu_d = 0 unless d = 2kj, where it is
    nu_d = (-lam)_j / (lam + 1)_j (Al-Salam, Allaway and Askey, Trans. AMS
    284, 1984).  The second kind's extra sin^2 theta = (1 - cos 2 theta) / 2
    gives nu_d - (nu_{d+2} + nu_{|d-2|}) / 2, still with mu_0 = 1 as k >= 3.
    """
    _require_positive_definite(fam)
    if top < 0:
        raise ValueError(f"degree must be >= 0, got {top}")
    mu = [Fraction(0)] * (top + 5)
    p, q = fam.lam.numerator, fam.lam.denominator
    nu_p, nu_q = 1, 1  # nu = nu_p / nu_q
    for j in range((top + 2) // (2 * fam.k) + 1):
        d = 2 * fam.k * j
        if fam.shift:
            # mu_2 takes nu_0 / 2 only once
            mu[d + 2] -= Fraction(nu_p, 2 * nu_q)
            if d:
                mu[d - 2] -= Fraction(nu_p, 2 * nu_q)
        mu[d] += Fraction(nu_p, nu_q)
        nu_p, nu_q = nu_p * (j * q - p), nu_q * ((j + 1) * q + p)
    return mu[:top + 1]


def _chebyshev_rows(fam: SievedFamily, n: int) -> np.ndarray:
    """C: row m holds the Chebyshev-T coefficients of r_m = 2^m p_m, m <= n.

    r_{m+1} = 2x r_m - 4 gamma_m r_{m-1} with 2x T_0 = 2 T_1 and
    2x T_d = T_{d+1} + T_{d-1}.  C is lower-triangular with diagonal
    1, 2, 2, ...
    """
    g4 = (4.0 * float_gammas(fam, n)).tolist()
    c = np.zeros((n + 1, n + 1))
    c[0, 0] = 1.0
    for m in range(n):
        c[m + 1, 1:] = c[m, :-1]
        c[m + 1, 1] += c[m, 0]
        c[m + 1, :-1] += c[m, 1:]
        if m:
            c[m + 1] -= g4[m] * c[m - 1]
    return c


def gram_matrix(fam: SievedFamily, n: int) -> np.ndarray:
    """G[i, j] = <r_i, r_j> / <1> for i <= j <= n, 0.0 below; r_m = 2^m p_m.

    The power of two keeps the leading Chebyshev coefficient of r_m at 2, so
    nothing underflows at high degree.  Row m of C holds the Chebyshev-T
    coefficients of r_m (_chebyshev_rows).  With
    M[a, b] = (mu_{a+b} + mu_{|a-b|}) / 2, G = C M C^T = C S^T for the mixed
    moments S[m, a] = <r_m, T_a> / <1>.  Row 0 of S is mu; the recurrence
    of r_m, moved onto T_a, gives the modified Chebyshev algorithm
    <r_{m+1}, T_a> = <r_m, T_{a+1}> + <r_m, T_{|a-1|}> - 4 gamma_m
    <r_{m-1}, T_a> (Gautschi, Orthogonal Polynomials: Computation and
    Approximation, 2004, 2.1.7), with row m valid up to a = 2n - m.  S is
    carried exactly, as integer rows over one common denominator, and
    rounded once, so its entries a < m are the exact zeros of
    orthogonality.  A step leaves out its products by 1: where 4 gamma_m is
    1 and 4 gamma_{m-1} an integer, as on all but at most three slots of
    every block, it is sums alone.  G[i, j], i <= j, sums
    C[i, a] S[j, a] over a <= i only, so only the entries a <= m of row m
    are rounded, and of a row whose entries a < m are all exactly 0 only
    S[m, m].  Where every row is so, as for every orthogonal family, G is
    its diagonal 1 S[0, 0], 2 S[m, m]: C is lower-triangular with diagonal
    1, 2, 2, ..., and every other product in C S^T is one with an exact
    0.0.  That is C S^T bit for bit, and C is built only where some exact
    row is nonzero below its diagonal.
    """
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    mu = chebyshev_moments(fam, 2 * n)
    scale = math.lcm(*(v.denominator for v in mu))
    cur = [v.numerator * (scale // v.denominator) for v in mu]
    prev, q_prev = [0] * (2 * n), 1
    s = np.zeros((n + 1, n + 1))
    s[0, 0] = cur[0] / scale
    clean = True
    for m in range(n):
        # row m + 1 over scale * q, with 4 gamma_m = p / q and gamma_0 = 0
        g = gamma_flat(fam, m) if m else Fraction(0)
        d = math.gcd(4, g.denominator)
        p, q = 4 // d * g.numerator, g.denominator // d
        pq = p * q_prev
        # T_{|a-1|} is T_1 at a = 0
        down = [cur[1]] + cur
        # a product by 1 is left out: q is 1 where 4 gamma_m is an integer,
        # and pq too where 4 gamma_m is 1 and 4 gamma_{m-1} an integer
        if q != 1:
            nxt = [q * (u + v) - pq * w for u, v, w in zip(cur[1:], down, prev)]
        elif pq != 1:
            nxt = [u + v - pq * w for u, v, w in zip(cur[1:], down, prev)]
        else:
            nxt = [u + v - w for u, v, w in zip(cur[1:], down, prev)]
        prev, cur, q_prev = cur, nxt, q
        scale *= q
        if any(cur[:m + 1]):
            clean = False
            s[m + 1, :m + 2] = [v / scale for v in cur[:m + 2]]
        else:
            s[m + 1, m + 1] = cur[m + 1] / scale
    if clean:
        # S is its diagonal, and so is G; its entries from (1, 1) on double
        s.flat[n + 2::n + 2] *= 2.0
        return s
    return np.triu(_chebyshev_rows(fam, n) @ s.T)


def orthogonality_defects(fam: SievedFamily, n: int) -> np.ndarray:
    """The defect matrix D of degrees 0..n, from one Gram matrix G.

    Above the diagonal D[i, j] = |G[i, j]| / sqrt(G[i, i] G[j, j]); the
    diagonal holds 1.0 and the entries below it 0.0.
    """
    g = gram_matrix(fam, n)
    diag = np.diagonal(g)
    defects = np.triu(np.abs(g) / np.sqrt(np.outer(diag, diag)), 1)
    np.fill_diagonal(defects, 1.0)
    return defects


def orthogonality_defect(fam: SievedFamily, m: int, n: int) -> float:
    """|<p_m, p_n>| / sqrt(<p_m, p_m> <p_n, p_n>) from the moments."""
    lo, hi = sorted((m, n))
    if lo < 0:
        raise ValueError(f"degree must be >= 0, got {lo}")
    return float(orthogonality_defects(fam, hi)[lo, hi])


def partition_points(k: int) -> np.ndarray:
    """-1, cos((k-1)pi/k), ..., cos(pi/k), 1 in ascending order."""
    pts = [-1.0] + [math.cos((k - j) * math.pi / k) for j in range(1, k)] + [1.0]
    return np.array(pts)


# a zero nearer than this to a partition point is taken as on it
PARTITION_TOL = 1e-12


def interval_counts(z: ZeroSet) -> list:
    """Zeros per open subinterval of the partition; requires k | n."""
    k = z.family.k
    if z.n % k != 0:
        raise ValueError(f"degree {z.n} is not a multiple of k={k}")
    pts = partition_points(k)
    x = np.asarray(z.values)[:, None]
    near = np.abs(x - pts).min(axis=1) < PARTITION_TOL
    if near.any():
        raise DegenerateConfigurationError(
            f"zero {z.values[near][0]} coincides with a partition point"
        )
    return ((x > pts[:-1]) & (x < pts[1:])).sum(axis=0).tolist()
