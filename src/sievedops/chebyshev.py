"""Monic Chebyshev polynomials and the exact identities they satisfy.

T_hat(n) and U_hat(n) are the monic first/second-kind polynomials
(2^{1-n} T_n and 2^{-n} U_n).  All identities are checked as exact
coefficient residuals, never as sampled values.

Every recurrence table of the package is a Table: a list that holds the
step it grows by and appends one step per new entry, whatever order the
entries are asked in; three_term_table makes the three-term ones.  t_hat
and u_hat read two module Tables; each per-family Table sits in an
lru_cache bounded by TABLE_CACHE_SIZE, whose hit takes no lock.
"""

from __future__ import annotations

import threading
from fractions import Fraction

from .polycore import Poly, sum_of_products

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)
ONE_MINUS_X2 = Poly([1, 0, -1])


# bound of every per-family cache: the four tables, pearson_data and _first_block
TABLE_CACHE_SIZE = 64

# growth of every table holds this lock, since two threads appending at once
# would misplace every later degree; it need not be reentrant, since no step
# grows another table (a table's other inputs are made with the table)
_GROW_LOCK = threading.Lock()


class Table(list):
    """An append-only recurrence table and the step it grows by.

    The step, made once with the table, computes the next entry from the
    entries before it and returns it; it is appended only then, so a step
    that raises leaves the table as it was.
    """

    __slots__ = ("step",)

    def __init__(self, start, step):
        super().__init__(start)
        self.step = step

    def grow(self, n: int):
        """Entry n, first appending step(self) until there are n + 1 entries."""
        if n >= len(self):
            with _GROW_LOCK:
                while len(self) <= n:
                    self.append(self.step(self))
        return self[n]


def three_term_table(gamma, y: Poly = Poly.x()) -> Table:
    """The Table [1, y] of p_{i+1} = y p_i - gamma(i) p_{i-1}, with its step.

    With y = x (the default) this is the monic recurrence in x; with y a
    polynomial it is the same sequence composed with y.
    """
    one = Poly.one()

    def step(table: list) -> Poly:
        i = len(table) - 1
        return sum_of_products(((1, y, table[i]), (-gamma(i), table[i - 1], one)))

    return Table([one, y], step)


# entry n is T_hat(n) (resp. U_hat(n)): one product per degree, in any order
_T_TABLE = three_term_table(lambda i: HALF if i == 1 else QUARTER)
_U_TABLE = three_term_table(lambda i: QUARTER)


def t_hat(n: int) -> Poly:
    """Monic Chebyshev polynomial of the first kind, n >= 0."""
    if n < 0:
        raise ValueError(f"first-kind index must be >= 0, got {n}")
    return _T_TABLE.grow(n)


def u_hat(n: int) -> Poly:
    """Monic Chebyshev polynomial of the second kind, n >= -1 (U_hat(-1) = 0)."""
    if n < -1:
        raise ValueError(f"second-kind index must be >= -1, got {n}")
    if n == -1:
        return Poly.zero()
    return _U_TABLE.grow(n)


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

    pythagorean and sum are stated for n >= 1 and refuse n = 0.
    """
    if n < 0:
        raise ValueError(f"index n must be >= 0, got {n}")
    if n == 0 and tag in ("pythagorean", "sum"):
        raise ValueError(f"identity {tag!r} needs n >= 1, got 0")
    x, one = Poly.x(), Poly.one()
    if tag == "pythagorean":
        u = u_hat(n - 1)
        terms = [(1, t_hat(n), t_hat(n)), (1, ONE_MINUS_X2 * u, u),
                 (Fraction(-1, 4 ** (n - 1)), one, one)]
    elif tag == "turan":
        terms = [(1, u_hat(n), u_hat(n)), (-1, u_hat(n - 1), u_hat(n + 1)),
                 (Fraction(-1, 4 ** n), one, one)]
    elif tag == "mixed":
        un = u_hat(n)
        terms = [(1, x, un), (-1, ONE_MINUS_X2, un.derivative()),
                 (-(n + 1), t_hat(n + 1), one)]
    elif tag == "deriv":
        terms = [(1, t_hat(n).derivative(), one), (-n, u_hat(n - 1), one)]
    elif tag == "sum":
        terms = [(1, t_hat(n), one), (1, x, u_hat(n - 1)), (-2, u_hat(n), one)]
    elif tag == "product_diff":
        if m is None or m < 0:
            raise ValueError("product_diff needs a second index m >= 0")
        if n <= m:
            c, rhs = Fraction(-1, 4 ** n), u_hat(m - n)
        else:
            c, rhs = Fraction(1, 4 ** (m + 1)), u_hat(n - m - 2)
        terms = [(1, u_hat(n), u_hat(m)), (-1, u_hat(n - 1), u_hat(m + 1)),
                 (c, rhs, one)]
    else:
        raise ValueError(f"unknown identity tag {tag!r}")
    return sum_of_products(terms)
