"""Exact polynomial arithmetic: ring laws, calculus, division, serialization."""

import math
from fractions import Fraction as F

import pytest
from exact_oracle import evaluate
from float_oracle import float_coeffs
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sievedops import polycore
from sievedops import chebyshev
from sievedops.chebyshev import identity_residual, t_hat, u_hat
from sievedops.polycore import (
    KRONECKER_MIN_TERMS,
    Poly,
    divmod_poly,
    poly_gcd,
    rat_from_str,
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
    assert Poly([F(-3, 7), F(5)]).to_strings() == ["-3/7", "5"]
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


def _counted(monkeypatch, name):
    """The argument tuples of every call of polycore.<name> from now on."""
    calls = []
    routine = getattr(polycore, name)

    def counted(*args):
        calls.append(args)
        return routine(*args)

    monkeypatch.setattr(polycore, name, counted)
    return calls


def test_kronecker_dispatch(monkeypatch):
    kronecker, pack, unpack = (
        _counted(monkeypatch, name) for name in ("_kronecker", "_pack", "_unpack")
    )

    def lengths():
        out = (len(kronecker), [len(args[0]) for args in pack], len(unpack))
        for calls in (kronecker, pack, unpack):
            calls.clear()
        return out

    t80 = t_hat(80)
    # a long square packs the even half of its one factor once and reads
    # the sum back once
    assert t80 * t80 == Poly(_ref_mul(t80.coeffs, t80.coeffs))
    assert lengths() == (1, [41], 1)
    # a zero sum packs each distinct factor once and is never read back:
    # U_hat(60) (31 even terms), U_hat(59) and U_hat(61) (30 and 31 odd
    # terms, their product shifted one slot) and the constant
    assert identity_residual("turan", 60).is_zero()
    assert lengths() == (1, [31, 30, 31, 1], 0)
    assert sum_of_products([(1, t80, t80), (-1, t80, t80)]).is_zero()
    assert lengths() == (1, [41], 0)
    # a list with a parity counts its nonzero half against the crossover
    assert Poly.x() * t80 == Poly((0,) + t80.coeffs)
    below = u_hat(2 * KRONECKER_MIN_TERMS - 2)
    above = u_hat(2 * KRONECKER_MIN_TERMS - 1)
    assert below * below == Poly(_ref_mul(below.coeffs, below.coeffs))
    assert lengths() == (0, [], 0)
    assert above * above == Poly(_ref_mul(above.coeffs, above.coeffs))
    dense = Poly(range(1, KRONECKER_MIN_TERMS + 1))
    assert dense * dense == Poly(_ref_mul(dense.coeffs, dense.coeffs))
    assert lengths() == (2, [KRONECKER_MIN_TERMS, KRONECKER_MIN_TERMS], 2)


def test_one_product_routine(monkeypatch):
    # every ring operation reaches the kernel's product code, the schoolbook
    # routine for short factors and the one Kronecker evaluation for long
    # ones, so no second product path can grow back unseen
    add_product = _counted(monkeypatch, "_add_product")
    kronecker = _counted(monkeypatch, "_kronecker")
    f, g = Poly([F(1, 2), 3]), Poly([2, 0, F(-1, 3)])
    t80, t81 = t_hat(80), t_hat(81)
    for op, routine in (
        (lambda: f + g, add_product),
        (lambda: f - g, add_product),
        (lambda: f.scale(F(2, 3)), add_product),
        (lambda: f * g, add_product),
        (lambda: sum_of_products([(3, f, g)]), add_product),
        (lambda: t80 + t81, add_product),
        (lambda: t80 * t81, kronecker),
        (lambda: sum_of_products([(3, t80, t81), (1, f, g)]), kronecker),
    ):
        add_product.clear()
        kronecker.clear()
        op()
        assert routine and not (add_product and kronecker)


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


# -- the packed sum: one Kronecker evaluation per kernel call ----------------


@pytest.mark.parametrize("n,bits", [(63, 60), (255, 63)])
@pytest.mark.parametrize("spread", [1, 2])
def test_packed_sum_at_the_width_bound(monkeypatch, n, bits, spread):
    pack = _counted(monkeypatch, "_pack")
    top = 2**bits - 1
    # four terms that each add f g: the largest coefficient 4 n top^2 needs
    # every bit of the width, 2 bits + bit_length(n) + 1 per product plus
    # bit_length(4 - 1) for the four terms, and that width is one bit past a
    # whole number of bytes, so one bit less would make the slot a byte
    # narrower and too small
    width = 2 * bits + n.bit_length() + 1 + (4 - 1).bit_length()
    assert width % 8 == 1 and (4 * n * top * top).bit_length() == width - 1

    def spaced(values):
        # with spread 2 the factors have a parity and pack as their halves
        out = [0] * (spread * (len(values) - 1) + 1)
        out[::spread] = values
        return Poly(out)

    f, g = spaced([top] * n), spaced([top] * n)
    fn, gn = spaced([-top] * n), spaced([-top] * n)
    # coefficient i counts the pairs (r, s) with r + s = i, four times over
    want = spaced(
        [4 * top * top * min(i + 1, n, 2 * n - 1 - i) for i in range(2 * n - 1)]
    )
    terms = [(1, f, g), (-1, fn, g), (1, fn, gn), (-1, f, gn)]
    assert sum_of_products(terms) == want
    assert sum_of_products([(-c, a, b) for c, a, b in terms]) == -want
    assert {slot_bytes for _, slot_bytes in pack} == {width // 8 + 1}


@pytest.mark.parametrize("parity", [0, None])
def test_packed_sum_nonzero_in_one_end_slot(parity):
    # a sum that is nonzero only in its lowest slot, or only in its highest,
    # is read back whole however small that slot is against the rest
    f = Poly(_with_parity([F(3 * i - 40, 1 + i % 3) for i in range(41)], parity))
    square, tiny = f * f, F(1, 2**200)
    assert (parity is None) == (polycore._parity(square.numerators) is None)
    for i in (0, 80):
        near = square + Poly([0] * i + [tiny])
        got = sum_of_products([(1, f, f), (-1, near, Poly.one())])
        assert got == Poly([0] * i + [-tiny])


def test_packed_sum_parity_layouts(monkeypatch):
    kronecker = _counted(monkeypatch, "_kronecker")
    t80, t81, x = t_hat(80), t_hat(81), Poly.x()
    dense = Poly([F(i - 11, 3 + i % 4) for i in range(30)])
    for ts in (
        [(1, t81, t81), (-3, t80, t80), (F(1, 7), x, x)],  # one class, shifted terms
        [(1, t80, t81), (F(-2, 5), x, t80)],  # one class, odd
        [(1, t80, t81), (1, t80, t80)],  # two parity classes
        [(1, t80, t80), (F(5, 3), dense, t80)],  # a term with no parity
    ):
        kronecker.clear()
        got = sum_of_products(ts)
        assert len(kronecker) == 1
        _assert_canonical(got)
        assert got.coeffs == _ref_sum_of_products(ts), ts


# one error planted per identity, 2^-200 x^power added to the polynomial of
# one index; the residual then holds the error, packed or not
PLANTED = [
    ("pythagorean", 60, None, "t_hat", 60, 60, True),
    ("turan", 60, None, "u_hat", 61, 0, True),  # U_hat(61) loses its parity
    ("mixed", 60, None, "u_hat", 60, 60, False),
    ("deriv", 60, None, "t_hat", 60, 60, False),
    ("sum", 60, None, "u_hat", 59, 59, False),
    ("product_diff", 45, 60, "u_hat", 15, 15, True),  # the closed form's U_hat(m - n)
]


def test_pythagorean_is_one_packed_zero_sum(monkeypatch):
    # (1 - x^2) U_hat(n-1) and U_hat(n-1) are one term, so the square is
    # never read back and packed again, and the zero sum is never read back
    t_hat(60), u_hat(59)
    kronecker, unpack = (_counted(monkeypatch, name) for name in ("_kronecker", "_unpack"))
    assert identity_residual("pythagorean", 60).is_zero()
    assert (len(kronecker), len(unpack)) == (1, 0)


@pytest.mark.parametrize("tag,n,m,name,index,power,packed", PLANTED)
def test_planted_identity_errors(monkeypatch, tag, n, m, name, index, power, packed):
    exact = getattr(chebyshev, name)
    wrong = exact(index) + Poly([0] * power + [F(1, 2**200)])
    monkeypatch.setattr(chebyshev, name, lambda i: wrong if i == index else exact(i))
    terms = []

    def recorded(ts):
        terms[:] = ts
        return sum_of_products(ts)

    monkeypatch.setattr(chebyshev, "sum_of_products", recorded)
    kronecker = _counted(monkeypatch, "_kronecker")
    got = identity_residual(tag, n, m)
    assert not got.is_zero()
    _assert_canonical(got)
    assert got.coeffs == _ref_sum_of_products(terms)
    assert bool(kronecker) == packed
