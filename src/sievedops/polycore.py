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
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union


class NotDivisibleError(ArithmeticError):
    """Raised by divide_exact when the division leaves a remainder."""


def rat_to_str(r: Fraction) -> str:
    """Serialize a rational as 'p/q' (plain 'p' when q == 1)."""
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s.strip())


def _rational(c) -> Union[int, Fraction]:
    """c as an int or Fraction; a float is refused rather than expanded."""
    if isinstance(c, float):
        raise TypeError(f"float {c!r} for an exact polynomial")
    if isinstance(c, (int, Fraction)):
        return c
    return Fraction(c)


class Poly:
    """Immutable dense polynomial with exact rational coefficients.

    `numerators` is the ascending tuple of int numerators and `denominator`
    the one positive int denominator they share, in lowest terms.  Use
    Poly.exact (or Poly(...)) to build from ints, Fractions or 'p/q' strings.
    """

    __slots__ = ("numerators", "denominator")

    def __new__(cls, coeffs: Iterable[Union[int, Fraction, str]] = ()):
        rs = [_rational(c) for c in coeffs]
        den = math.lcm(*(r.denominator for r in rs))
        return _canonical([r.numerator * (den // r.denominator) for r in rs], den)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def exact(cls, coeffs: Iterable[Union[int, Fraction, str]]) -> "Poly":
        return cls(coeffs)

    @classmethod
    def zero(cls) -> "Poly":
        return _ZERO

    @classmethod
    def one(cls) -> "Poly":
        return _ONE

    @classmethod
    def x(cls) -> "Poly":
        return _X

    @classmethod
    def constant(cls, c: Union[int, Fraction]) -> "Poly":
        return cls((c,))

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
        return _add(self, other, 1)

    def __neg__(self) -> "Poly":
        return _make([-c for c in self.numerators], self.denominator)

    def __sub__(self, other: "Poly") -> "Poly":
        return _add(self, other, -1)

    def scale(self, c: Union[int, Fraction]) -> "Poly":
        c = _rational(c)
        cn = c.numerator
        return _canonical(
            [cn * a for a in self.numerators], self.denominator * c.denominator
        )

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.numerators or not other.numerators:
            return _ZERO
        return _canonical(
            _convolve(self.numerators, other.numerators),
            self.denominator * other.denominator,
        )

    # -- calculus and composition ----------------------------------------

    def derivative(self) -> "Poly":
        return _canonical(
            [i * c for i, c in enumerate(self.numerators)][1:], self.denominator
        )

    def evaluate(self, x: Union[int, Fraction]) -> Fraction:
        """Exact value at x by Horner's rule on the integer numerators."""
        x = _rational(x)
        xn, xd = x.numerator, x.denominator
        d = len(self.numerators) - 1
        acc = 0
        for i, c in enumerate(reversed(self.numerators)):
            acc = acc * xn + c * xd**i
        # acc = sum of n_i xn^i xd^(d-i), the value times den * xd^d
        return Fraction(acc, self.denominator * xd ** max(d, 0))

    def compose(self, g: "Poly") -> "Poly":
        """f(g(x)) by Horner over polynomials, on the integer numerators."""
        acc = _ZERO
        for c in reversed(self.numerators):
            acc = acc * g + Poly.constant(c)
        return acc.scale(Fraction(1, self.denominator))

    def compose_linear(self, c: Union[int, Fraction]) -> "Poly":
        """f(c*x): cheap special case of compose."""
        c = _rational(c)
        cn, cd = c.numerator, c.denominator
        d = len(self.numerators) - 1
        # a_i c^i = n_i cn^i cd^(d-i) / (den cd^d)
        out = [a * cn**i * cd ** (d - i) for i, a in enumerate(self.numerators)]
        return _canonical(out, self.denominator * cd ** max(d, 0))

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list:
        """JSON-ready ascending coefficient list of 'p/q' strings."""
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "Poly":
        return cls.exact([rat_from_str(s) for s in items])


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


def _add(f: Poly, g: Poly, sign: int) -> Poly:
    """f + sign * g over the least common denominator."""
    a, da = f.numerators, f.denominator
    b, db = g.numerators, g.denominator
    den = da
    if da != db:
        gd = math.gcd(da, db)
        ma, mb = db // gd, da // gd
        den = da * ma
        if ma != 1:
            a = [c * ma for c in a]
        if mb != 1:
            b = [c * mb for c in b]
    out = list(map(operator.add if sign > 0 else operator.sub, a, b))
    n = len(out)
    if len(a) > n:
        out += a[n:]
    elif len(b) > n:
        out += b[n:] if sign > 0 else [-c for c in b[n:]]
    return _canonical(out, den)


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """Schoolbook product of two nonempty ascending int coefficient lists.

    Zero coefficients are skipped on both sides: the Chebyshev and sieved
    polynomials have a parity, so about half of their coefficients are zero.
    """
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in nonzero_b:
                out[i + j] += ai * bj
    return out


_ZERO = _make((), 1)
_ONE = _make((1,), 1)
_X = _make((0, 1), 1)


def wronskian(f: Poly, g: Poly) -> Poly:
    """f*g' - f'*g (in this sign order)."""
    return f * g.derivative() - f.derivative() * g


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


def divide_exact(f: Poly, g: Poly) -> Poly:
    """Quotient f/g when g divides f exactly; NotDivisibleError otherwise."""
    q, r = divmod_poly(f, g)
    if not r.is_zero():
        raise NotDivisibleError(f"remainder of degree {r.degree} is nonzero")
    return q


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    a, b = f, g
    while not b.is_zero():
        a, b = b, divmod_poly(a, b)[1]
    if a.is_zero():
        return a
    return a.scale(1 / Fraction(a.leading()))
