"""Monic Chebyshev polynomials and the exact identities they satisfy.

T_hat(n) and U_hat(n) are the monic first/second-kind polynomials
(2^{1-n} T_n and 2^{-n} U_n).  All identities are checked as exact
coefficient residuals, never as sampled values.
"""

from __future__ import annotations

import enum
import threading
from fractions import Fraction
from functools import lru_cache

from .polycore import Poly

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


class ChebKind(enum.Enum):
    FIRST = "first"
    SECOND = "second"


# append-only tables: entry n is T_hat(n) (resp. U_hat(n)), made from the two
# entries before it, so each degree costs one product whatever the call order;
# growth holds the lock, since two threads appending at once would misplace
# every later degree
_T_TABLE = [Poly.one(), Poly.x()]
_U_TABLE = [Poly.one(), Poly.x()]
_GROW_LOCK = threading.Lock()


def t_hat(n: int) -> Poly:
    """Monic Chebyshev polynomial of the first kind, n >= 0."""
    if n < 0:
        raise ValueError(f"first-kind index must be >= 0, got {n}")
    return _grow(_T_TABLE, n, gamma1=HALF)


def u_hat(n: int) -> Poly:
    """Monic Chebyshev polynomial of the second kind, n >= -1 (U_hat(-1) = 0)."""
    if n < -1:
        raise ValueError(f"second-kind index must be >= -1, got {n}")
    if n == -1:
        return Poly.zero()
    return _grow(_U_TABLE, n, gamma1=QUARTER)


def _grow(table: list, n: int, gamma1: Fraction) -> Poly:
    """table[n], first extending table by p_{i+1} = x p_i - gamma_i p_{i-1}."""
    if n >= len(table):
        x = Poly.x()
        with _GROW_LOCK:
            while len(table) <= n:
                i = len(table) - 1
                gamma = gamma1 if i == 1 else QUARTER
                table.append(x * table[i] - table[i - 1].scale(gamma))
    return table[n]


def monic_chebyshev(kind: ChebKind, n: int) -> Poly:
    return t_hat(n) if kind == ChebKind.FIRST else u_hat(n)


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> Poly:
    """Classical (non-monic) T_n."""
    if n == 0:
        return Poly.one()
    return t_hat(n).scale(Fraction(2) ** (n - 1))


@lru_cache(maxsize=None)
def chebyshev_u(n: int) -> Poly:
    """Classical (non-monic) U_n, n >= -1."""
    if n == -1:
        return Poly.zero()
    return u_hat(n).scale(Fraction(2) ** n)


IDENTITY_TAGS = (
    "pythagorean",
    "turan",
    "mixed",
    "deriv",
    "sum",
    "product_diff",
)


def identity_residual(tag: str, n: int, m: int | None = None) -> Poly:
    """Exact residual of one Chebyshev identity; zero iff the identity holds.

    pythagorean   T_hat(n)^2 + (1-x^2) U_hat(n-1)^2 - 4^{1-n}
    turan         U_hat(n)^2 - U_hat(n-1) U_hat(n+1) - 4^{-n}
    mixed         x U_hat(n) - (1-x^2) U_hat(n)' - (n+1) T_hat(n+1)
    deriv         T_hat(n)' - n U_hat(n-1)
    sum           T_hat(n) + x U_hat(n-1) - 2 U_hat(n)
    product_diff  U_hat(n) U_hat(m) - U_hat(n-1) U_hat(m+1) minus its
                  closed form (4^{-n} U_hat(m-n) for n <= m, else
                  -4^{-m-1} U_hat(n-m-2))
    """
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    x = Poly.x()
    one_minus_x2 = Poly.exact([1, 0, -1])
    if tag == "pythagorean":
        return (
            t_hat(n) * t_hat(n)
            + one_minus_x2 * (u_hat(n - 1) * u_hat(n - 1))
            - Poly.constant(Fraction(4) ** (1 - n))
        )
    if tag == "turan":
        return (
            u_hat(n) * u_hat(n)
            - u_hat(n - 1) * u_hat(n + 1)
            - Poly.constant(Fraction(4) ** (-n))
        )
    if tag == "mixed":
        un = u_hat(n)
        return x * un - one_minus_x2 * un.derivative() - t_hat(n + 1).scale(n + 1)
    if tag == "deriv":
        return t_hat(n).derivative() - u_hat(n - 1).scale(n)
    if tag == "sum":
        return t_hat(n) + x * u_hat(n - 1) - u_hat(n).scale(2)
    if tag == "product_diff":
        if m is None or m < 0:
            raise ValueError("product_diff needs a second index m >= 0")
        lhs = u_hat(n) * u_hat(m) - u_hat(n - 1) * u_hat(m + 1)
        if n <= m:
            rhs = u_hat(m - n).scale(Fraction(4) ** (-n))
        else:
            rhs = u_hat(n - m - 2).scale(-(Fraction(4) ** (-m - 1)))
        return lhs - rhs
    raise ValueError(f"unknown identity tag {tag!r}")
