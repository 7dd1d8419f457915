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

A call whose terms are all short adds each product into that list by the
schoolbook loop (_add_product).  Once the shorter factor of some term has
KRONECKER_MIN_TERMS nonzero terms, the whole sum is one Kronecker
substitution (_kronecker): each distinct factor is packed into one int, the
sum of products is one int (CPython's Karatsuba multiplies), and that is
read back once, or not at all if it is 0, which is exactly the zero
polynomial at the slot width chosen.
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from typing import Iterable, Sequence, Union


_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


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

        The tests' reference for composed_q and the mapping's p_{kn}, and the
        benchmark's polycore.compose layer; no package route calls it."""
        acc = _ZERO
        for c in reversed(self.numerators):
            acc = sum_of_products(((1, acc, g), (c, _ONE, _ONE)))
        return acc.scale(Fraction(1, self.denominator))

    # -- serialization ----------------------------------------------------

    def to_strings(self) -> list:
        """JSON-ready ascending coefficient list of 'p/q' strings ('p' if q is 1)."""
        return [str(c) for c in self.coeffs]


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


# The whole sum is one Kronecker evaluation once the shorter factor of some
# term has this many nonzero terms: one product's measured break-even
KRONECKER_MIN_TERMS = 12


def sum_of_products(terms: Iterable[tuple]) -> Poly:
    """The sum of c f g over the terms (c, f, g), c an int or Fraction.

    Every term is brought to one common denominator.  If the shorter factor
    of some term has KRONECKER_MIN_TERMS nonzero terms or more, the whole
    sum is one Kronecker evaluation (_kronecker); otherwise _add_product
    adds each product into one numerator list.  The list is normalised once
    at the end.  A linear term passes Poly.one() as g.
    """
    live, den, size, long = [], 1, 0, False
    for c, f, g in terms:
        c = _rational(c)
        a, b = f.numerators, g.numerators
        if not (c and a and b):
            continue
        term_den = c.denominator * f.denominator * g.denominator
        den = math.lcm(den, term_den)
        if len(a) > len(b):
            a, b = b, a
        # a list with a parity has every other coefficient zero, the one
        # before its last included, so only its nonzero half counts
        if len(a) >= KRONECKER_MIN_TERMS and (
            a[-2] or len(a) >= 2 * KRONECKER_MIN_TERMS
        ):
            long = True
        live.append((c.numerator, term_den, a, b))
        size = max(size, len(a) + len(b) - 1)
    if long:
        out = _kronecker([(cn * (den // d), a, b) for cn, d, a, b in live])
    else:
        out = [0] * size
        for cn, term_den, a, b in live:
            _add_product(out, cn * (den // term_den), a, b)
    return _canonical(out, den)


def _add_product(out: list, m: int, a: Sequence[int], b: Sequence[int]) -> None:
    """Add m a b into out by the schoolbook loop, for trimmed, nonempty int
    lists with len(a) <= len(b); m is folded into a and zero coefficients
    are skipped, and a one-term a is a scaling."""
    if len(a) == 1:
        m *= a[0]
        scaled = b if m == 1 else [m * v for v in b]
        # a plain store while the slots are all still zero, as they are for
        # the first product of a sum
        if any(out[: len(b)]):
            scaled = map(operator.add, out, scaled)
        out[: len(b)] = scaled
        return
    nonzero_b = [(j, bj) for j, bj in enumerate(b) if bj]
    for i, ai in enumerate(a):
        if ai:
            ai *= m
            for j, bj in nonzero_b:
                out[i + j] += ai * bj


def _parity(a: Sequence[int]):
    """0 if every odd-index coefficient is zero, 1 if every even one, else None."""
    if not any(a[1::2]):
        return 0
    if not any(a[::2]):
        return 1
    return None


def _kronecker(terms: list) -> list:
    """The numerator list of the sum of m a b over the terms (m, a, b), int
    lists with len(a) <= len(b), by one Kronecker substitution (Harvey, J.
    Symb. Comput. 44, 2009): each distinct factor is packed at 2^w once,
    the sum of m A B (m A^2 for a square) is one int, and that is read back
    once.  If every factor has a parity and every product the same one, the
    nonzero halves are packed, a product of two odd factors shifted up one
    slot; a trimmed list ends on its parity, so the halves fill the slots.

    Lemma: if every coefficient c of the sum has |c| < 2^(w-1), its
    balanced base-2^w digits are unique, so the int is 0 exactly for the
    zero polynomial, and adding 2^(w-1) to each slot makes them all
    nonnegative.  A coefficient of m a b has |c| <= |m| len(a) max|a| max|b|
    < 2^(bits-1), so a sum of T terms has |c| < T 2^(bits-1) <= 2^(w-1) for
    w = max(bits) + bit_length(T - 1).  A zero sum is never read back.
    """
    factors = {}
    for _, a, b in terms:
        factors[id(a)], factors[id(b)] = a, b
    parity = {key: _parity(v) for key, v in factors.items()}
    step = 2
    if None in parity.values() or len(
        {parity[id(a)] ^ parity[id(b)] for _, a, b in terms}
    ) > 1:
        step, parity = 1, dict.fromkeys(factors, 0)
    bits = {}
    for key, v in factors.items():
        factors[key] = h = v[parity[key] :: step]
        bits[key] = max(map(abs, h)).bit_length()
    w = slots = 0
    for m, a, b in terms:
        ha, hb = factors[id(a)], factors[id(b)]
        # |m| is at most 2 to the power (|m| - 1).bit_length()
        w = max(w, bits[id(a)] + bits[id(b)] + len(ha).bit_length()
                + (abs(m) - 1).bit_length() + 1)
        slots = max(slots, len(ha) + len(hb) - 1
                    + (parity[id(a)] + parity[id(b)]) // 2)
    width = (w + (len(terms) - 1).bit_length() + 7) // 8  # slot width in bytes
    for key, h in factors.items():
        factors[key] = _pack(h, width)
    total = 0
    for m, a, b in terms:
        fa = factors[id(a)]
        product = m * (fa * fa if a is b else fa * factors[id(b)])
        if parity[id(a)] + parity[id(b)] == 2:
            product <<= 8 * width
        total += product
    if not total:
        return []
    _, a, b = terms[0]
    first = parity[id(a)] ^ parity[id(b)]
    out = [0] * (first + step * (slots - 1) + 1)
    out[first::step] = _unpack(total, width, slots)
    return out


def _bias(width: int, size: int) -> int:
    """2^(8 width - 1) in each of size slots of width bytes."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * size, "little")


def _pack(a: Sequence[int], width: int) -> int:
    """The value at 2^(8 width) of a, for |a_i| < 2^(8 width - 1), in linear
    time: the biased coefficients are written as bytes and read as one int."""
    half = 1 << (8 * width - 1)
    raw = b"".join([(c + half).to_bytes(width, "little") for c in a])
    return int.from_bytes(raw, "little") - _bias(width, len(a))


def _unpack(value: int, width: int, size: int) -> list:
    """The size coefficients that _pack(coefficients, width) packs into value."""
    half = 1 << (8 * width - 1)
    raw = (value + _bias(width, size)).to_bytes(width * size, "little")
    from_bytes = int.from_bytes
    return [
        from_bytes(raw[i : i + width], "little") - half
        for i in range(0, width * size, width)
    ]


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
