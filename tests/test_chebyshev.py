"""Monic Chebyshev construction and the six exact identities."""

import math
import sys
import threading
from fractions import Fraction as F

import pytest
from numpy.polynomial.polynomial import polyval

from sievedops import chebyshev
from sievedops.chebyshev import (
    ChebKind,
    IDENTITY_TAGS,
    chebyshev_t,
    chebyshev_u,
    identity_residual,
    monic_chebyshev,
    t_hat,
    u_hat,
)
from sievedops.numerics import float_coeffs
from sievedops.polycore import Poly, poly_gcd


def test_u_hat_4():
    assert u_hat(4) == Poly.exact([F(1, 16), 0, F(-3, 4), 0, 1])


def test_u_hat_minus_one_is_zero():
    assert u_hat(-1).is_zero()
    assert monic_chebyshev(ChebKind.SECOND, -1).is_zero()


def test_t_hat_3():
    assert t_hat(3) == Poly.exact([0, F(-3, 4), 0, 1])


def test_tables_independent_of_call_order(monkeypatch):
    def fresh_tables():
        monkeypatch.setattr(chebyshev, "_T_TABLE", [Poly.one(), Poly.x()])
        monkeypatch.setattr(chebyshev, "_U_TABLE", [Poly.one(), Poly.x()])

    fresh_tables()
    high = (t_hat(70), u_hat(70))
    low = (t_hat(3), u_hat(3), u_hat(-1))
    fresh_tables()
    in_order = [(t_hat(n), u_hat(n - 1)) for n in range(72)]
    assert high == (in_order[70][0], in_order[71][1])
    assert low == (in_order[3][0], in_order[4][1], in_order[0][1])


def test_tables_grow_safely_under_threads(monkeypatch):
    expect = [t_hat(n) for n in range(90)], [u_hat(n) for n in range(90)]

    def fill(k):
        for n in range(89 - k, 0, -7):  # highest first: every thread grows
            t_hat(n)
            u_hat(n)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            monkeypatch.setattr(chebyshev, "_T_TABLE", [Poly.one(), Poly.x()])
            monkeypatch.setattr(chebyshev, "_U_TABLE", [Poly.one(), Poly.x()])
            threads = [threading.Thread(target=fill, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
                assert not t.is_alive()
            assert chebyshev._T_TABLE == expect[0]
            assert chebyshev._U_TABLE == expect[1]
    finally:
        sys.setswitchinterval(interval)


def test_out_of_range_indices():
    with pytest.raises(ValueError):
        t_hat(-1)
    with pytest.raises(ValueError):
        u_hat(-2)


def test_nonmonic_scaling():
    # U_4 = 16 x^4 - 12 x^2 + 1, T_3 = 4 x^3 - 3 x
    assert chebyshev_u(4) == Poly.exact([1, 0, -12, 0, 16])
    assert chebyshev_t(3) == Poly.exact([0, -3, 0, 4])


def test_monic_leading_coefficient():
    for n in range(1, 20):
        assert t_hat(n).leading() == 1
        assert u_hat(n).leading() == 1
        assert t_hat(n).degree == n


@pytest.mark.parametrize("tag", [t for t in IDENTITY_TAGS if t != "product_diff"])
def test_single_index_identities(tag):
    for n in range(1, 33):
        assert identity_residual(tag, n).is_zero(), (tag, n)


def test_product_diff_both_branches():
    for n in range(1, 13):
        for m in range(0, 13):
            assert identity_residual("product_diff", n, m).is_zero(), (n, m)


def test_product_diff_needs_m():
    with pytest.raises(ValueError):
        identity_residual("product_diff", 2)


def test_unknown_tag():
    with pytest.raises(ValueError):
        identity_residual("nope", 2)


def test_deriv_identity_small_case():
    assert t_hat(1).derivative() == Poly.one()  # 1 = 1 * U_hat(0)


def test_trig_evaluation():
    # T_hat(n)(cos t) = 2^{1-n} cos(n t)
    for n in (1, 4, 9, 16):
        c = float_coeffs(t_hat(n))
        for theta in (0.3, 1.1, 2.0, 2.9):
            expect = 2.0 ** (1 - n) * math.cos(n * theta)
            assert abs(polyval(math.cos(theta), c) - expect) < 1e-12


def test_t_k_and_u_k_minus_1_coprime():
    # supports the class computation: no shared zeros
    for k in range(3, 17):
        g = poly_gcd(t_hat(k), u_hat(k - 1))
        assert g == Poly.one()


def test_pi_k_identity():
    # U_hat(k) - (1/4) U_hat(k-2) = T_hat(k)
    for k in range(3, 17):
        assert u_hat(k) - u_hat(k - 2).scale(F(1, 4)) == t_hat(k)
