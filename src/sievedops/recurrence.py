"""Sieved ultraspherical families: block recurrences, determinants, mapping.

Both families are defined through the block three-term recurrence
x p_i = p_{i+1} + a p_{i-1}.  The polynomial-mapping factorization
expresses p_{kn+j} through monic Chebyshev polynomials and a rescaled
ultraspherical sequence q_n; mapping_residual checks that the two
constructions agree exactly.

The kinds differ by one block index (Al-Salam, Allaway and Askey, Trans.
AMS 284, 1984): the second kind's terms at j are the first kind's at j + 1,
with N = kn + j shifted by one.  The block coefficients and the mapping
read the kind from that offset alone, SievedFamily.shift (0 first, 1 second).
A family is validated once, when it is made, and is then the integer key
(shift, p, q, k) with lam = p/q in lowest terms: every per-family cache
hashes and compares that key, never a Fraction.

q_n obeys a monic three-term recurrence with the ultraspherical
coefficients beta_n, so Q_n = q_n(T_hat(k)) obeys the same recurrence with
T_hat(k) in place of x.  Each family keeps one append-only table of
p_0, p_1, ... and one of Q_0, Q_1, ..., held in caches bounded by
TABLE_CACHE_SIZE.  Each, like delta's determinants, is a three_term_table
holding its step, extended by one step per new degree, whatever order the
degrees are asked in.
"""

from __future__ import annotations

import enum
import math
import operator
from fractions import Fraction

from .chebyshev import QUARTER, Table, t_hat, table_cache, three_term_table, u_hat
from .polycore import Poly, sum_of_products


class SievedKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


class RegularityError(ValueError):
    """Parameter lambda hits a pole of the recurrence coefficients."""


class SievedFamily:
    """The sieved family (kind, lam, k), validated once and immutable.

    kind and lam are coerced by SievedKind(...) and Fraction(...) unless they
    already are one; k goes through operator.index, so a float k is refused.
    k must be >= 3, and lam = p/q (lowest terms) regular: not p < 0 with
    q <= 2, a negative half-integer.  Equality and the hash, computed once,
    read only the integer key (shift, p, q, k).
    """

    def __init__(self, kind, lam, k):
        kind = kind if kind.__class__ is SievedKind else SievedKind(kind)
        lam = lam if lam.__class__ is Fraction else Fraction(lam)
        k = operator.index(k)
        if k < 3:
            raise ValueError(f"sieving order k must be >= 3, got {k}")
        p, q = lam.numerator, lam.denominator
        if p < 0 and q <= 2:
            raise RegularityError(
                f"lambda={lam} is a negative half-integer; the family degenerates"
            )
        shift = int(kind is SievedKind.SECOND)
        key = (shift, p, q, k)
        self.__dict__.update(kind=kind, lam=lam, k=k, shift=shift, _key=key,
                             _hash=hash(key))

    def __eq__(self, other):
        if other.__class__ is not SievedFamily:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value=None):
        raise AttributeError(f"SievedFamily is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    def __repr__(self):
        return f"SievedFamily(kind={self.kind!r}, lam={self.lam!r}, k={self.k!r})"


def block_coeff(fam: SievedFamily, n: int, j: int) -> Fraction:
    """Recurrence coefficient a_n^(j) of the block recurrence.

    a_0^(0) is the conventional value 1; it multiplies p_{-1} = 0 and never
    enters any computed polynomial.  The kind's other special slot is
    j = 1 - 2s mod k (1 for the first kind, k - 1 for the second), where
    a = (r + 2 lam) / (4 (r + lam)) with r = n + s; at r = 0 this is
    2 lam / (4 lam), taken as its lam -> 0 limit 1/2.
    """
    if not 0 <= j < fam.k:
        raise ValueError(f"block index j={j} outside [0, {fam.k - 1}]")
    if n < 0:
        raise ValueError(f"block row n={n} must be >= 0")
    p, q, s = fam.lam.numerator, fam.lam.denominator, fam.shift
    if j == 0:
        return Fraction(1) if n == 0 else Fraction(n * q, 4 * (n * q + p))
    if j == (1 - 2 * s) % fam.k:
        r = n + s
        return Fraction(1, 2) if r == 0 else Fraction(r * q + 2 * p, 4 * (r * q + p))
    return QUARTER


def gamma_flat(fam: SievedFamily, m: int) -> Fraction:
    """Flattened recurrence coefficient: gamma_{nk+j} = a_n^(j), m >= 1."""
    if m < 1:
        raise ValueError("flattened index must be >= 1")
    return block_coeff(fam, m // fam.k, m % fam.k)


@table_cache
def _monic_table(fam: SievedFamily) -> Table:
    """The family's append-only table: entry m is p_m."""
    return three_term_table(lambda m: gamma_flat(fam, m))


def sieved_monic(fam: SievedFamily, n: int) -> Poly:
    """Monic sieved polynomial of degree n, built from the block recurrence."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return _monic_table(fam).grow(n)


def _q_beta(fam: SievedFamily):
    """beta of the monic recurrence q_{n+1}(y) = y q_n(y) - beta_n q_{n-1}(y).

    q_n(y) = c^{-n} P_n(c y), c = 2^{k-1}, with P_n the monic ultraspherical
    polynomial of parameter mu = lam + s, so
    beta_n = n (n + 2 mu - 1) / (4 (n + mu) (n + mu - 1)) / c^2; at n = 1
    in the cancelled form 1 / (2 (1 + mu)), valid also at mu = 0.
    """
    mu = fam.lam + fam.shift
    c2 = Fraction(4) ** (fam.k - 1)

    def beta(n: int) -> Fraction:
        if n == 1:
            return 1 / (2 * (1 + mu) * c2)
        return n * (n + 2 * mu - 1) / (4 * (n + mu) * (n + mu - 1) * c2)

    return beta


@table_cache
def _composed_table(fam: SievedFamily) -> Table:
    """The family's append-only table: entry n is q_n(T_hat(k))."""
    return three_term_table(_q_beta(fam), t_hat(fam.k))


def composed_q(fam: SievedFamily, n: int) -> Poly:
    """q_n(T_hat(k)), stepped as Q_{n+1} = T_hat(k) Q_n - beta_n Q_{n-1}."""
    if n < 0:
        raise ValueError(f"degree must be >= 0, got {n}")
    return _composed_table(fam).grow(n)


def monic_normalizer(fam: SievedFamily, n: int) -> Fraction:
    """Factor nu with p_n = nu * (classical sieved polynomial of degree n)."""
    if n == 0:
        return Fraction(1)
    lam, s = fam.lam, fam.shift
    blk = (n - 1 + s) // fam.k
    # shifted factorials (a)_blk = a (a + 1) ... (a + blk - 1)
    return math.prod(2 * lam * (1 - s) + 1 + i for i in range(blk)) / (
        Fraction(2) ** (n - 1 + s) * math.prod(lam + 1 + i for i in range(blk))
    )


def classical_sieved(fam: SievedFamily, n: int) -> Poly:
    """Non-monic sieved polynomial in the classical normalization."""
    return sieved_monic(fam, n).scale(1 / monic_normalizer(fam, n))


def delta(fam: SievedFamily, n: int, i: int, j: int) -> Poly:
    """Tridiagonal determinant polynomial built from the block coefficients.

    Indices past k-1 wrap to the next block row; expansion along the last
    row keeps the work linear in j - i.
    """
    if i < 1:
        raise ValueError(f"index i must be >= 1, got {i}")

    def a_at(idx: int) -> Fraction:
        return block_coeff(fam, n + idx // fam.k, idx % fam.k)

    if j < i - 2:
        return Poly.zero()
    # entry m is the m x m determinant, coupled by a_at(i) .. a_at(i + m - 2)
    return three_term_table(lambda m: a_at(i + m - 1)).grow(j - i + 2)


def pi_k_from_determinants(fam: SievedFamily) -> Poly:
    """The mapping polynomial assembled from determinant data: equals T_hat(k).

    For the first kind it is the plain k x k determinant Delta_0(1, k-1).
    The second kind's row k-1 couples to the next block row through
    a_0^(k) = a_1^(0), and subtracts that wrap term a_1^(0) Delta_0(k+2, 2k-2).
    """
    k, one = fam.k, Poly.one()
    terms = [(1, delta(fam, 0, 1, k - 1), one)]
    if fam.shift:
        terms.append((-block_coeff(fam, 1, 0), delta(fam, 0, k + 2, 2 * k - 2), one))
    return sum_of_products(terms)


def mapping_cells(fam: SievedFamily, max_n: int) -> list:
    """The (n, j) that mapping_residual takes with kn + j <= max_n, by kn + j."""
    lo = 1 - fam.shift
    return [(m // fam.k, m % fam.k + lo) for m in range(max_n + 1 - lo)]


def mapping_residual(fam: SievedFamily, n: int, j: int) -> Poly:
    """Exact difference between the recurrence and mapping constructions.

    With Q_n = q_n(T_hat(k)) (composed_q), j in [1 - s, k - s] and
    (m, i, a) = (n + 1 - s, j - 1 + s, a_n^(1-s)):
        p_{kn+j} - (U_hat(i) Q_m + 4^{-i} a U_hat(k-i-2) Q_{m-1}),
    where for the first kind (s = 0) p_{kn+j} is multiplied through by
    U_hat(k-1).
    """
    k, s = fam.k, fam.shift
    lo, hi = 1 - s, k - s
    if not lo <= j <= hi:
        raise ValueError(f"{fam.kind.value} kind needs j in [{lo}, {hi}], got {j}")
    m, i, a = n + 1 - s, j - 1 + s, block_coeff(fam, n, 1 - s)
    terms = [
        (1, Poly.one() if s else u_hat(k - 1), sieved_monic(fam, k * n + j)),
        (-1, u_hat(i), composed_q(fam, m)),
    ]
    if m >= 1:
        terms.append(
            (-a * Fraction(4) ** (-i), u_hat(k - i - 2), composed_q(fam, m - 1))
        )
    return sum_of_products(terms)
