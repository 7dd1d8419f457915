"""Dense univariate polynomials over exact rationals.

Fraction coefficients are the source of truth for every identity check in
this package; float evaluation lives in numerics.  Coefficients are stored
ascending, with trailing zeros trimmed, so the zero polynomial is the empty
tuple.

Products clear denominators to a single big-int convolution, which is what
makes degree-100+ rational arithmetic affordable.
"""

from __future__ import annotations

import math
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


class Poly:
    """Immutable dense polynomial with Fraction coefficients.

    Use Poly.exact to build from ints, Fractions or 'p/q' strings.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Fraction]):
        # trim trailing zeros; zero polynomial is the empty tuple
        n = len(coeffs)
        while n > 0 and coeffs[n - 1] == 0:
            n -= 1
        object.__setattr__(self, "coeffs", tuple(coeffs[:n]))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def exact(cls, coeffs: Iterable[Union[int, Fraction, str]]) -> "Poly":
        return cls([Fraction(c) for c in coeffs])

    @classmethod
    def zero(cls) -> "Poly":
        return cls([])

    @classmethod
    def one(cls) -> "Poly":
        return cls.exact([1])

    @classmethod
    def x(cls) -> "Poly":
        return cls.exact([0, 1])

    @classmethod
    def constant(cls, c: Union[int, Fraction]) -> "Poly":
        if isinstance(c, float):
            raise TypeError("float constant for exact polynomial")
        return cls.exact([c])

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> float:
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else -math.inf

    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def scale(self, c: Union[int, Fraction]) -> "Poly":
        if isinstance(c, float):
            raise TypeError("float scalar on exact polynomial")
        c = Fraction(c)
        return Poly([c * a for a in self.coeffs])

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero() or other.is_zero():
            return Poly.zero()
        return Poly(_mul_exact(self.coeffs, other.coeffs))

    # -- calculus and composition ----------------------------------------

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x: Fraction) -> Fraction:
        """Exact value at x by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def compose(self, g: "Poly") -> "Poly":
        """f(g(x)) by Horner over polynomials."""
        acc = Poly.zero()
        for c in reversed(self.coeffs):
            acc = acc * g + Poly.constant(c)
        return acc

    def compose_linear(self, c: Union[int, Fraction]) -> "Poly":
        """f(c*x): cheap special case of compose."""
        out = []
        p = Fraction(1)
        for a in self.coeffs:
            out.append(a * p)
            p = p * c
        return Poly(out)

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list:
        """JSON-ready ascending coefficient list of 'p/q' strings."""
        return [rat_to_str(c) for c in self.coeffs]

    @classmethod
    def from_strings(cls, items: Iterable[str]) -> "Poly":
        return cls.exact([rat_from_str(s) for s in items])


def _mul_exact(a: Sequence[Fraction], b: Sequence[Fraction]) -> list:
    da = math.lcm(*(c.denominator for c in a))
    db = math.lcm(*(c.denominator for c in b))
    ia = [int(c * da) for c in a]
    ib = [int(c * db) for c in b]
    den = da * db
    return [Fraction(c, den) for c in _convolve(ia, ib)]


def _convolve(a: Sequence[int], b: Sequence[int]) -> list:
    """Schoolbook product of two nonempty ascending int coefficient lists."""
    la = len(a)
    lb = len(b)
    out = [0] * (la + lb - 1)
    for i in range(la):
        ai = a[i]
        if ai == 0:
            continue
        for j in range(lb):
            out[i + j] += ai * b[j]
    return out


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
