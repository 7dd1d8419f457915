"""Exact polynomial arithmetic: ring laws, calculus, division, serialization."""

import math
from fractions import Fraction as F

import pytest
from exact_oracle import evaluate
from float_oracle import float_coeffs
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sievedops import polycore
from sievedops.chebyshev import t_hat
from sievedops.polycore import (
    KRONECKER_MIN_TERMS,
    Poly,
    divmod_poly,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    sum_of_products,
)

rationals = st.builds(
    F, st.integers(min_value=-50, max_value=50), st.integers(min_value=1, max_value=8)
)
polys = st.lists(rationals, max_size=6).map(Poly)

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
    p = Poly([1, 2, 0, 0])
    assert p.coeffs == (F(1), F(2))
    assert p.degree == 1


def test_zero_poly_degree_marker():
    assert Poly.zero().degree == float("-inf")
    assert Poly([0, 0]).is_zero()


def test_add_cancellation():
    p = Poly([F(-1, 4), 0, 1])
    assert p + Poly([F(1, 4)]) == Poly([0, 0, 1])


def test_mul_identity_case():
    x = Poly.x()
    assert x * x == Poly([0, 0, 1])


def test_scale_figure_polynomial():
    u4 = Poly([1, 0, -12, 0, 16])
    assert u4.scale(F(1, 16)) == Poly([F(1, 16), 0, F(-3, 4), 0, 1])


def test_float_scalar_raises():
    with pytest.raises(TypeError):
        Poly([1, 1]).scale(0.5)
    with pytest.raises(TypeError):
        Poly([0.5])
    # refused before the zero factor or the zero scalar is skipped
    with pytest.raises(TypeError):
        Poly.zero().scale(0.5)
    with pytest.raises(TypeError):
        Poly([1]).scale(0.0)


def test_float_coefficient_raises():
    with pytest.raises(TypeError):
        Poly([0.1])
    with pytest.raises(TypeError):
        Poly([1, 0.5])


def test_evaluate_zero_poly():
    assert evaluate(Poly.zero(), F(7)) == 0


def test_evaluate_u2_root():
    p = Poly([F(-1, 4), 0, 1])
    assert evaluate(p, F(1, 2)) == 0


def _rounded_exact(p, x):
    try:
        return repr(float(evaluate(p, F(x))))
    except OverflowError:
        return "OverflowError"


def _value_at(p, x):
    try:
        return repr(p.value_at(x))
    except OverflowError:
        return "OverflowError"


CUBIC = Poly([F(-1, 3), 0, 5, F(7, 11)])


@pytest.mark.parametrize(
    "p, x",
    [
        (Poly.zero(), 0.5),
        (Poly([10**400]), 0.5),  # past binary64: both raise
        (Poly([F(-1, 10**400)]), 1.0),  # -0.0 on both
        (Poly([0, F(1, 3 * 2**1060)]), 0.75),  # a subnormal value
        (CUBIC, -0.0),
        (CUBIC, -1.0),
        (CUBIC, 5e-324),
        (Poly([0, 0, 1]), 5e-324),  # underflows to 0.0
        (CUBIC, 1.1),
    ],
)
def test_value_at_is_the_exact_value_rounded_once(p, x):
    assert _value_at(p, x) == _rounded_exact(p, x)


@given(st.lists(float_sized, max_size=8), st.floats(-1.1, 1.1))
@settings(max_examples=80, deadline=None)
def test_value_at_matches_rounded_evaluate(a, x):
    p = Poly(a)
    assert _value_at(p, x) == _rounded_exact(p, x)


def test_evaluate_float_chebyshev_zero():
    import math

    from numpy.polynomial.polynomial import polyval

    c = float_coeffs(Poly([F(1, 16), 0, F(-3, 4), 0, 1]))
    assert abs(polyval(math.cos(math.pi / 5), c)) < 1e-14


def test_compose_identity():
    f = Poly([1, 2, 3])
    assert f.compose(Poly.x()) == f


def test_compose_expansion():
    f = Poly([0, 0, 1])
    g = Poly([0, F(-3, 4), 0, 1])
    assert f.compose(g) == Poly([0, 0, F(9, 16), 0, F(-3, 2), 0, 1])


def test_compose_constant():
    c = Poly([F(5, 3)])
    assert c.compose(Poly([1, 2, 3])) == c


def test_derivative():
    assert Poly([0, F(-3, 4), 0, 1]).derivative() == Poly(
        [F(-3, 4), 0, 3]
    )
    assert Poly([3]).derivative().is_zero()
    assert Poly.zero().derivative().is_zero()


def test_divide_exact():
    f = Poly([F(-1, 4), 0, 1])
    g = Poly([F(-1, 2), 1])
    assert divmod_poly(f, g) == (Poly([F(1, 2), 1]), Poly.zero())
    assert divmod_poly(f, Poly.one()) == (f, Poly.zero())
    assert not divmod_poly(Poly([1, 0, 1]), Poly.x())[1].is_zero()


def test_divide_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        divmod_poly(Poly.x(), Poly.zero())


def test_rat_round_trip():
    assert rat_to_str(F(-3, 7)) == "-3/7"
    assert rat_to_str(F(5)) == "5"
    assert rat_from_str("-3/7") == F(-3, 7)
    assert rat_from_str("5") == F(5)
    for text in ("1e1", "0.5", "1/0"):
        with pytest.raises(ValueError):
            rat_from_str(text)


def test_poly_serialization_round_trip():
    p = Poly([F(-1, 1280), 0, F(25, 256)])
    assert Poly(p.to_strings()) == p


def test_poly_string_coefficients_are_strict():
    # string coefficients go through rat_from_str: 'p/q' or 'p' only
    for text in ("0.5", "1e1"):
        with pytest.raises(ValueError):
            Poly([text])


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
    assert evaluate(f.compose(g), x) == evaluate(f, evaluate(g, x))


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_divide_exact_round_trip(q, g):
    if g.is_zero():
        return
    assert divmod_poly(q * g, g) == (q, Poly.zero())


def test_poly_gcd_monic():
    f = Poly([F(-1, 4), 0, 1])  # (x-1/2)(x+1/2)
    g = Poly([F(-1, 2), 1]).scale(3)
    d = poly_gcd(f, g)
    assert d == Poly([F(-1, 2), 1])


def test_immutability():
    p = Poly([1, 2])
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
    f, g = Poly(a), Poly(b)
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
    ]
    for p, ref in cases:
        _assert_canonical(p)
        assert p.coeffs == ref
    assert evaluate(f, x) == sum((v * x**i for i, v in enumerate(a)), F(0))


@given(wide_lists, wide_lists, st.integers(1, 2**70))
@settings(max_examples=60, deadline=None)
def test_equal_values_equal_hashes(a, b, k):
    f, g = Poly(a), Poly(b)
    # the same values written over an unreduced common denominator
    same = Poly(f"{v.numerator * k}/{v.denominator * k}" for v in a)
    for p, q in [(same, f), ((f + g) - g, f), (f * g, g * f), (f - f, Poly.zero())]:
        _assert_canonical(p)
        assert p == q
        assert hash(p) == hash(q)


@given(st.lists(float_sized, max_size=8))
@settings(max_examples=80, deadline=None)
def test_float_coeffs_bit_identical(a):
    p = Poly(a)
    got = [v.hex() for v in float_coeffs(p)]
    assert got == ([float(c).hex() for c in p.coeffs] or [(0.0).hex()])


# -- the product kernel on factors long enough for Kronecker substitution ----

# huge numerators over small denominators, so the common denominator of a
# long list stays small; zeros mixed in as interior gaps
long_rationals = st.builds(
    F,
    st.one_of(huge, huge.map(lambda v: -v), st.integers(-50, 50), st.just(0)),
    st.integers(1, 8),
)
long_lists = st.lists(long_rationals, min_size=20, max_size=90)
parities = st.sampled_from([None, 0, 1])


def _with_parity(a, parity):
    """a with the coefficients off the given parity set to zero."""
    if parity is None:
        return a
    return [v if i % 2 == parity else F(0) for i, v in enumerate(a)]


def test_long_lists_cross_the_crossover():
    # a 20-term factor with a parity has 10 terms after compression and a
    # 90-term one 45, so the strategy reaches both sides of the crossover
    assert 20 // 2 < KRONECKER_MIN_TERMS <= 90 // 2


# the smallest example is two 20-term lists by design
@given(long_lists, long_lists, parities, parities)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.large_base_example],
)
def test_long_products_match_fraction_reference(a, b, pa, pb):
    a, b = _with_parity(a, pa), _with_parity(b, pb)
    f, g = Poly(a), Poly(b)
    a, b = _ref_trim(a), _ref_trim(b)
    fg = _ref_mul(a, b)
    for p, ref in [(f * g, fg), (g * f, fg), (f * f, _ref_mul(a, a))]:
        _assert_canonical(p)
        assert p.coeffs == ref


@pytest.mark.parametrize("n,bits", [(31, 9), (31, 65), (127, 4), (127, 64)])
@pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, -1)])
def test_kronecker_slots_at_their_bound(n, bits, signs):
    top = 2**bits - 1
    # the largest product coefficient n * top**2 has as many bits as the
    # packing allows, and 2 * bits + bit_length(n) + 1 is a whole number of
    # bytes here, so it sits just under the top of its slot
    assert (n * top * top).bit_length() == 2 * bits + n.bit_length()
    for extra in (0, 5):
        a = [signs[0] * top] * n
        b = [signs[1] * top] * (n + extra)
        f, g = Poly(a), Poly(b)
        size = 2 * n + extra - 1
        # coefficient i counts the pairs (r, s) with r + s = i
        want = tuple(
            signs[0] * signs[1] * top * top * min(i + 1, n, size - i)
            for i in range(size)
        )
        assert (f * g).numerators == want
        assert (g * f).numerators == want
    square = Poly([signs[0] * top] * n)
    assert (square * square).numerators == tuple(
        top * top * min(i + 1, n, 2 * n - 1 - i) for i in range(2 * n - 1)
    )


def test_kronecker_dispatch(monkeypatch):
    calls = []
    kronecker = polycore._kronecker

    def counted(m, a, b):
        calls.append((len(a), len(b)))
        return kronecker(m, a, b)

    monkeypatch.setattr(polycore, "_kronecker", counted)
    t80 = t_hat(80)
    assert t80 * t80 == Poly(_ref_mul(t80.coeffs, t80.coeffs))
    assert calls == [(41, 41)]  # the even halves of T_hat(80)
    calls.clear()
    assert Poly.x() * t80 == Poly((0,) + t80.coeffs)
    assert calls == []


def test_one_product_routine(monkeypatch):
    # every ring operation reaches the one routine that multiplies and adds
    # numerator lists, so no second product path can grow back unseen
    calls = []
    add_product = polycore._add_product

    def counted(out, m, a, b):
        calls.append((len(a), len(b)))
        return add_product(out, m, a, b)

    monkeypatch.setattr(polycore, "_add_product", counted)
    f, g = Poly([F(1, 2), 3]), Poly([2, 0, F(-1, 3)])
    for op in (
        lambda: f + g,
        lambda: f - g,
        lambda: f.scale(F(2, 3)),
        lambda: f * g,
        lambda: sum_of_products([(3, f, g)]),
    ):
        calls.clear()
        op()
        assert calls
    # a long square enters once and recurses once, on the even halves, where
    # test_kronecker_dispatch counts its one Kronecker call
    calls.clear()
    t80 = t_hat(80)
    assert t80 * t80 == Poly(_ref_mul(t80.coeffs, t80.coeffs))
    assert calls == [(81, 81), (41, 41)]


# -- the n-ary kernel against the Fraction-list reference --------------------

long_polys = st.builds(
    lambda a, parity: Poly(_with_parity(a, parity)), long_lists, parities
)
scalars = st.one_of(st.integers(-5, 5), rationals, st.just(0), st.just(F(0)))
terms = st.tuples(
    scalars, st.one_of(polys, long_polys), st.one_of(polys, long_polys)
)
# c other than 0 and 1, so the long product is scaled into the sum
scales = st.one_of(
    st.integers(2, 5), st.integers(-5, -1), rationals.filter(lambda r: r not in (0, 1))
)
long_terms = st.tuples(scales, long_polys, long_polys)


def _ref_sum_of_products(ts):
    """Ascending Fraction coefficients of the sum, without the kernel."""
    acc = ()
    for c, f, g in ts:
        acc = _ref_add(acc, _ref_mul(f.coeffs, g.coeffs), c)
    return acc


@given(st.lists(terms, max_size=3), long_terms)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[
        HealthCheck.large_base_example,
        HealthCheck.too_slow,
        HealthCheck.data_too_large,
    ],
)
def test_sum_of_products_matches_operators(ts, long_term):
    ts = ts + [long_term]
    got = sum_of_products(ts)
    _assert_canonical(got)
    assert got.coeffs == _ref_sum_of_products(ts)
    # the same terms negated cancel to the zero polynomial
    assert sum_of_products(ts + [(-c, f, g) for c, f, g in ts]) == Poly.zero()


def test_sum_of_products_cases():
    assert sum_of_products([]) == Poly.zero()
    long_even = Poly([F(i % 7 - 3, 1 + i % 3) if i % 2 == 0 else 0 for i in range(41)])
    long_odd = Poly([F(2**90 + i, 5) if i % 2 else 0 for i in range(30)])
    dense = Poly([F(i - 11, 3 + i % 4) for i in range(25)])
    short = Poly([F(1, 2), 0, F(-3, 7)])
    assert len(long_odd.numerators) >= KRONECKER_MIN_TERMS
    cases = [
        [(0, short, dense), (F(0), dense, dense)],  # every scalar zero
        [(3, short, long_even), (F(-1, 6), dense, Poly.one())],  # short x long
        [(1, long_even, long_odd), (F(5, 9), long_odd, long_odd)],  # parities
        [(F(2, 3), dense, long_even), (-4, dense, dense), (1, short, short)],
        [(1, short, Poly.zero()), (7, Poly.zero(), dense)],
    ]
    for ts in cases:
        assert sum_of_products(ts).coeffs == _ref_sum_of_products(ts), ts
    # unequal denominators that cancel exactly
    a, b = Poly([F(1, 3), F(1, 6)]), Poly([F(2, 5), 0, F(-1, 10)])
    assert sum_of_products([(F(1, 4), a, b), (F(-1, 8), a.scale(2), b)]).is_zero()
    with pytest.raises(TypeError):
        sum_of_products([(0.5, a, b)])
    # a float is refused even where the term would vanish
    with pytest.raises(TypeError):
        sum_of_products([(0.0, a, b)])
    with pytest.raises(TypeError):
        sum_of_products([(0.5, Poly.zero(), b)])
