"""Exact polynomial arithmetic: ring laws, calculus, division, serialization."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sievedops.numerics import float_coeffs
from sievedops.polycore import (
    NotDivisibleError,
    Poly,
    divide_exact,
    divmod_poly,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    wronskian,
)

rationals = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=8)
)
polys = st.lists(rationals, max_size=6).map(Poly.exact)

# numerators and denominators past 2**1100, where a float would overflow
huge = st.integers(min_value=2**1100, max_value=2**1200)
huge_rationals = st.builds(
    F, st.one_of(huge, huge.map(lambda v: -v), st.integers(-50, 50)),
    st.one_of(huge, st.integers(1, 8)),
)
wide_rationals = st.one_of(rationals, huge_rationals)
wide_lists = st.lists(wide_rationals, max_size=5)
# huge over huge, so every coefficient is finite as a float
float_sized = st.one_of(
    rationals, st.builds(F, st.one_of(huge, huge.map(lambda v: -v)), huge)
)


def test_trailing_zeros_trimmed():
    p = Poly.exact([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1


def test_zero_poly_degree_marker():
    assert Poly.zero().degree == float("-inf")
    assert Poly.exact([0, 0]).is_zero()


def test_add_cancellation():
    p = Poly.exact([F(-1, 4), 0, 1])
    assert p + Poly.constant(F(1, 4)) == Poly.exact([0, 0, 1])


def test_mul_identity_case():
    x = Poly.x()
    assert x * x == Poly.exact([0, 0, 1])


def test_scale_figure_polynomial():
    u4 = Poly.exact([1, 0, -12, 0, 16])
    assert u4.scale(F(1, 16)) == Poly.exact([F(1, 16), 0, F(-3, 4), 0, 1])


def test_float_scalar_raises():
    with pytest.raises(TypeError):
        Poly.exact([1, 1]).scale(0.5)
    with pytest.raises(TypeError):
        Poly.constant(0.5)


def test_float_coefficient_raises():
    with pytest.raises(TypeError):
        Poly.exact([0.1])
    with pytest.raises(TypeError):
        Poly([1, 0.5])
    with pytest.raises(TypeError):
        Poly.x().evaluate(0.5)
    with pytest.raises(TypeError):
        Poly.x().compose_linear(0.5)


def test_evaluate_zero_poly():
    assert Poly.zero().evaluate(F(7)) == 0


def test_evaluate_u2_root():
    p = Poly.exact([F(-1, 4), 0, 1])
    assert p.evaluate(F(1, 2)) == 0


def test_evaluate_float_chebyshev_zero():
    import math

    from numpy.polynomial.polynomial import polyval

    c = float_coeffs(Poly.exact([F(1, 16), 0, F(-3, 4), 0, 1]))
    assert abs(polyval(math.cos(math.pi / 5), c)) < 1e-14


def test_compose_identity():
    f = Poly.exact([1, 2, 3])
    assert f.compose(Poly.x()) == f


def test_compose_expansion():
    f = Poly.exact([0, 0, 1])
    g = Poly.exact([0, F(-3, 4), 0, 1])
    assert f.compose(g) == Poly.exact([0, 0, F(9, 16), 0, F(-3, 2), 0, 1])


def test_compose_constant():
    c = Poly.constant(F(5, 3))
    assert c.compose(Poly.exact([1, 2, 3])) == c


def test_derivative():
    assert Poly.exact([0, F(-3, 4), 0, 1]).derivative() == Poly.exact(
        [F(-3, 4), 0, 3]
    )
    assert Poly.constant(3).derivative().is_zero()
    assert Poly.zero().derivative().is_zero()


def test_wronskian_examples():
    x = Poly.x()
    assert wronskian(x, x).is_zero()
    assert wronskian(Poly.one(), x) == Poly.one()
    assert wronskian(x, x * x) == x * x


def test_divide_exact():
    f = Poly.exact([F(-1, 4), 0, 1])
    g = Poly.exact([F(-1, 2), 1])
    assert divide_exact(f, g) == Poly.exact([F(1, 2), 1])
    assert divide_exact(f, Poly.one()) == f
    with pytest.raises(NotDivisibleError):
        divide_exact(Poly.exact([1, 0, 1]), Poly.x())


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod_poly(Poly.x(), Poly.zero())


def test_rat_round_trip():
    assert rat_to_str(F(-3, 7)) == "-3/7"
    assert rat_to_str(F(5)) == "5"
    assert rat_from_str("-3/7") == F(-3, 7)
    assert rat_from_str("5") == F(5)


def test_poly_serialization_round_trip():
    p = Poly.exact([F(-1, 1280), 0, F(25, 256)])
    assert Poly.from_strings(p.to_strings()) == p


@given(polys, polys, polys)
@settings(max_examples=60, deadline=None)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


@given(polys, polys, rationals)
@settings(max_examples=60, deadline=None)
def test_compose_evaluate_consistency(f, g, x):
    assert f.compose(g).evaluate(x) == f.evaluate(g.evaluate(x))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_wronskian_antisymmetry(f, g):
    assert wronskian(f, g) == -wronskian(g, f)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divide_exact_round_trip(q, g):
    if g.is_zero():
        return
    assert divide_exact(q * g, g) == q


def test_poly_gcd_monic():
    f = Poly.exact([F(-1, 4), 0, 1])  # (x-1/2)(x+1/2)
    g = Poly.exact([F(-1, 2), 1]).scale(3)
    d = poly_gcd(f, g)
    assert d == Poly.exact([F(-1, 2), 1])


def test_immutability():
    p = Poly.exact([1, 2])
    with pytest.raises(AttributeError):
        p.coeffs = ()
    with pytest.raises(AttributeError):
        p.numerators = ()


# -- the integer representation against a Fraction-list reference ----------


def _ref_trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _ref_add(a, b, sign=1):
    n = max(len(a), len(b))
    a = list(a) + [F(0)] * (n - len(a))
    b = list(b) + [F(0)] * (n - len(b))
    return _ref_trim(x + sign * y for x, y in zip(a, b))


def _ref_mul(a, b):
    if not a or not b:
        return ()
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_trim(out)


def _ref_compose(a, b):
    acc = ()
    for c in reversed(a):
        acc = _ref_add(_ref_mul(acc, b), (c,))
    return acc


def _assert_canonical(p):
    nums, den = p.numerators, p.denominator
    assert type(den) is int and den > 0
    assert all(type(c) is int for c in nums)
    assert not nums or nums[-1] != 0
    assert math.gcd(den, *nums) == 1
    if not nums:
        assert den == 1


@given(wide_lists, wide_lists, wide_rationals, wide_rationals)
@settings(max_examples=80, deadline=None)
def test_ops_match_fraction_reference(a, b, c, x):
    f, g = Poly.exact(a), Poly.exact(b)
    a, b = _ref_trim(a), _ref_trim(b)
    assert f.coeffs == a
    cases = [
        (f + g, _ref_add(a, b)),
        (f - g, _ref_add(a, b, -1)),
        (-f, _ref_trim(-v for v in a)),
        (f * g, _ref_mul(a, b)),
        (f.scale(c), _ref_trim(c * v for v in a)),
        (f.derivative(), _ref_trim(i * v for i, v in enumerate(a))[1:]),
        (f.compose(g), _ref_compose(a, b)),
        (f.compose_linear(c), _ref_trim(v * c**i for i, v in enumerate(a))),
    ]
    for p, ref in cases:
        _assert_canonical(p)
        assert p.coeffs == ref
    assert f.evaluate(x) == sum((v * x**i for i, v in enumerate(a)), F(0))


@given(wide_lists, wide_lists, st.integers(1, 2**70))
@settings(max_examples=60, deadline=None)
def test_equal_values_equal_hashes(a, b, k):
    f, g = Poly.exact(a), Poly.exact(b)
    # the same values written over an unreduced common denominator
    same = Poly.from_strings(f"{v.numerator * k}/{v.denominator * k}" for v in a)
    for p, q in [(same, f), ((f + g) - g, f), (f * g, g * f), (f - f, Poly.zero())]:
        _assert_canonical(p)
        assert p == q
        assert hash(p) == hash(q)


@given(st.lists(float_sized, max_size=8))
@settings(max_examples=80, deadline=None)
def test_float_coeffs_bit_identical(a):
    p = Poly.exact(a)
    got = [v.hex() for v in float_coeffs(p)]
    assert got == ([float(c).hex() for c in p.coeffs] or [(0.0).hex()])
