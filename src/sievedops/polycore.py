"""Dense univariate polynomials over exact rationals.

Exact coefficients are the source of truth for every identity check in this
package; float evaluation lives in numerics.  A polynomial is stored as in
FLINT's fmpq_poly: a tuple of Python int numerators, ascending, over one
positive int denominator, in lowest terms.  That means no trailing zero
numerator, gcd(denominator, *numerators) == 1, and denominator 1 for the zero
polynomial (whose numerator tuple is empty).  The form is canonical, so
equality and hashing compare it directly, and every ring operation works on
ints and ends in one gcd normalisation instead of building a Fraction per
coefficient.

sum_of_products(terms) is the one exact kernel: it returns the sum of c f g
over the terms (c, f, g) over one common denominator, adding every product
into one numerator list and normalising once at the end.  The ring
operators are sugar over it, one call each: f + g, f - g and f.scale(c)
pass Poly.one() as the second factor, f * g passes c = 1.  Code that sums
several products passes them all in one call.

The one routine that multiplies, _add_product, adds m a b into that list.
While the shorter factor has fewer than KRONECKER_MIN_TERMS terms it runs
the schoolbook loop.  Above it the product goes through Kronecker
substitution: each factor is packed into one int, the two ints are
multiplied once (by CPython's Karatsuba) and the coefficients are read back
off the bytes of the product.  Two long factors that both have a parity are
first reduced to their nonzero halves.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def rat_to_str(r: Fraction) -> str:
    """Serialize a rational as 'p/q' (plain 'p' when q == 1)."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Fraction:
    """Parse 'p/q' or 'p' (integers, optional sign); floats are refused."""
    text = s.strip()
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"not a rational 'p/q': {s!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def _rational(c) -> Union[int, Fraction]:
    """c as an int or Fraction; a float is refused rather than expanded, and
    a string must be 'p/q' or 'p' (rat_from_str)."""
    if isinstance(c, (int, Fraction)):
        return c
    if isinstance(c, float):
        raise TypeError(f"float {c!r} for an exact polynomial")
    if isinstance(c, str):
        return rat_from_str(c)
    return Fraction(c)


class Poly:
    """Immutable dense polynomial with exact rational coefficients.

    `numerators` is the ascending tuple of int numerators and `denominator`
    the one positive int denominator they share, in lowest terms.  Poly(...)
    builds one from ints, Fractions or 'p/q' strings.
    """

    __slots__ = ("numerators", "denominator")

    def __new__(cls, coeffs: Iterable[Union[int, Fraction, str]] = ()):
        rs = [_rational(c) for c in coeffs]
        den = math.lcm(*(r.denominator for r in rs))
        return _canonical([r.numerator * (den // r.denominator) for r in rs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def x(cls) -> "Poly":
        return _X

    # -- basic queries ----------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """Ascending Fraction coefficients (the zero polynomial gives ())."""
        den = self.denominator
        return tuple(Fraction(c, den) for c in self.numerators)

    def is_zero(self) -> bool:
        return not self.numerators

    @property
    def degree(self) -> float:
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.numerators) - 1 if self.numerators else -math.inf

    def leading(self) -> Fraction:
        if not self.numerators:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.numerators[-1], self.denominator)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.denominator == other.denominator
            and self.numerators == other.numerators
        )

    def __hash__(self):
        return hash((self.numerators, self.denominator))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return sum_of_products(((1, self, _ONE), (1, other, _ONE)))

    def __neg__(self) -> "Poly":
        return _make([-c for c in self.numerators], self.denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return sum_of_products(((1, self, _ONE), (-1, other, _ONE)))

    def scale(self, c: Union[int, Fraction]) -> "Poly":
        return sum_of_products(((c, self, _ONE),))

    def __mul__(self, other: "Poly") -> "Poly":
        return sum_of_products(((1, self, other),))

    # -- calculus and composition ----------------------------------------

    def derivative(self) -> "Poly":
        return _canonical(
            [i * c for i, c in enumerate(self.numerators)][1:], self.denominator
        )

    def value_at(self, x: float) -> float:
        """The exact value at the float x = xn / 2^e, rounded once.

        Horner on the integer numerators, shifts for the powers of 2^e, then
        one correctly rounded int division (OverflowError past binary64).
        """
        xn, xd = x.as_integer_ratio()
        e = xd.bit_length() - 1
        acc = 0
        for t, c in enumerate(reversed(self.numerators)):
            acc = acc * xn + (c << e * t)
        return acc / (self.denominator << e * max(len(self.numerators) - 1, 0))

    def compose(self, g: "Poly") -> "Poly":
        """f(g(x)) by Horner over polynomials, on the integer numerators.

        Kept for the benchmark's polycore.compose layer."""
        acc = _ZERO
        for c in reversed(self.numerators):
            acc = sum_of_products(((1, acc, g), (c, _ONE, _ONE)))
        return acc.scale(Fraction(1, self.denominator))

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list:
        """JSON-ready ascending coefficient list of 'p/q' strings."""
        return [rat_to_str(c) for c in self.coeffs]


_set_numerators = Poly.numerators.__set__
_set_denominator = Poly.denominator.__set__


def _make(nums: Sequence[int], den: int) -> Poly:
    """Poly from numerators and a denominator already in lowest terms."""
    p = object.__new__(Poly)
    _set_numerators(p, tuple(nums))
    _set_denominator(p, den)
    return p


def _canonical(nums: list, den: int) -> Poly:
    """Poly for nums / den (den > 0), trimmed and reduced by one gcd."""
    n = len(nums)
    while n and not nums[n - 1]:
        n -= 1
    if n == 0:
        return _ZERO
    del nums[n:]
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [c // g for c in nums]
        den //= g
    return _make(nums, den)


# Kronecker substitution replaces the schoolbook loop once the shorter
# factor has this many terms (after parity compression); measured break-even
KRONECKER_MIN_TERMS = 12


def sum_of_products(terms: Iterable[tuple]) -> Poly:
    """The sum of c f g over the terms (c, f, g), c an int or Fraction.

    Every term is brought to one common denominator and added into one
    numerator list by _add_product, which is normalised once at the end.
    A linear term passes Poly.one() as g.
    """
    live, den, size = [], 1, 0
    for c, f, g in terms:
        c = _rational(c)
        a, b = f.numerators, g.numerators
        if not (c and a and b):
            continue
        term_den = c.denominator * f.denominator * g.denominator
        den = math.lcm(den, term_den)
        if len(a) > len(b):
            a, b = b, a
        live.append((c.numerator, term_den, a, b))
        size = max(size, len(a) + len(b) - 1)
    out = [0] * size
    for cn, term_den, a, b in live:
        _add_product(out, cn * (den // term_den), a, b)
    return _canonical(out, den)


def _add_product(out: list, m: int, a: Sequence[int], b: Sequence[int]) -> None:
    """Add m a b into out, for trimmed, nonempty int coefficient lists with
    len(a) <= len(b).

    While a has fewer than KRONECKER_MIN_TERMS terms the schoolbook loop
    runs, with m folded into a and the zero coefficients of both skipped; a
    one-term a is a scaling.  Longer factors that both have a parity, as
    every Chebyshev and sieved polynomial does, are multiplied as their
    nonzero halves; long products go through Kronecker substitution.
    """
    if len(a) == 1:
        m *= a[0]
        _accumulate(out, slice(0, len(b)), b if m == 1 else [m * v for v in b])
        return
    if len(a) < KRONECKER_MIN_TERMS:
        nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
        for i, ai in enumerate(a):
            if ai:
                ai *= m
                for j, bj in nonzero_b:
                    out[i + j] += ai * bj
        return
    pa, pb = _parity(a), _parity(b)
    if pa is None or pb is None:
        _accumulate(out, slice(0, len(a) + len(b) - 1), _kronecker(m, a, b))
        return
    # a trimmed list ends at an index of its parity, so the halves fill
    # exactly the slots of parity pa + pb
    ha = a[pa::2]
    hb = ha if a is b else b[pb::2]
    halves = [0] * (len(ha) + len(hb) - 1)
    _add_product(halves, m, ha, hb)
    _accumulate(out, slice(pa + pb, pa + pb + 2 * len(halves) - 1, 2), halves)


def _accumulate(out: list, slots: slice, values: Sequence[int]) -> None:
    """out[slots] += values term by term; a plain store while those slots
    are all still zero, as they are for the first product of a sum."""
    if any(out[slots]):
        values = map(operator.add, out[slots], values)
    out[slots] = values


def _parity(a: Sequence[int]):
    """0 if every odd-index coefficient is zero, 1 if every even one, else None."""
    if not any(a[1::2]):
        return 0
    if not any(a[::2]):
        return 1
    return None


def _kronecker(m: int, a: Sequence[int], b: Sequence[int]) -> list:
    """m a b by Kronecker substitution (Harvey, J. Symb. Comput. 44, 2009).

    Both factors are evaluated at 2^w and multiplied as two ints (squared
    when a is b), and their product by m.  Every coefficient c of m a b has
    |c| < 2^(w-1), so adding 2^(w-1) to each w-bit slot makes every slot a
    nonnegative digit, and the coefficients are read back off the bytes of
    the sum.
    """
    bits = (
        max(map(abs, a)).bit_length()
        + max(map(abs, b)).bit_length()
        + min(len(a), len(b)).bit_length()
        + (abs(m) - 1).bit_length()  # |m| is at most 2 to this power
        + 1
    )
    width = (bits + 7) // 8  # slot width in bytes
    packed = _pack(a, 8 * width)
    product = m * (packed * packed if a is b else packed * _pack(b, 8 * width))
    size = len(a) + len(b) - 1
    half = 1 << (8 * width - 1)
    bias = int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")
    raw = (product + bias).to_bytes(width * size, "little")
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[i : i + width], "little") - half
        for i in range(0, width * size, width)
    ]


def _pack(a: Sequence[int], w: int) -> int:
    """The value at 2^w of the polynomial with coefficients a (Horner)."""
    acc = 0
    for c in reversed(a):
        acc = (acc << w) + c
    return acc


_ZERO = _make((), 1)
_ONE = _make((1,), 1)
_X = _make((0, 1), 1)


def divmod_poly(f: Poly, g: Poly):
    """Euclidean division: f = q*g + r with deg r < deg g."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    r = list(f.coeffs)
    gc = g.coeffs
    dg = len(gc) - 1
    lead = gc[-1]
    q = [Fraction(0)] * max(len(r) - dg, 0)
    for i in range(len(r) - 1 - dg, -1, -1):
        c = r[i + dg] / lead
        if c:
            q[i] = c
            for j, gj in enumerate(gc):
                r[i + j] -= c * gj
    return Poly(q), Poly(r)


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(1 / a.leading())
