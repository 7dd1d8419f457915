"""Monic Chebyshev construction and the six exact identities."""

import math
from fractions import Fraction as F

import pytest
from float_oracle import float_coeffs
from numpy.polynomial.polynomial import polyval

from sievedops.chebyshev import (
    IDENTITY_TAGS,
    identity_residual,
    t_hat,
    u_hat,
)
from sievedops.polycore import Poly, poly_gcd


def test_u_hat_4():
    assert u_hat(4) == Poly([F(1, 16), 0, F(-3, 4), 0, 1])


def test_u_hat_minus_one_is_zero():
    assert u_hat(-1).is_zero()


def test_t_hat_3():
    assert t_hat(3) == Poly([0, F(-3, 4), 0, 1])


def test_out_of_range_indices():
    with pytest.raises(ValueError):
        t_hat(-1)
    with pytest.raises(ValueError):
        u_hat(-2)


def test_nonmonic_scaling():
    # U_4 = 16 x^4 - 12 x^2 + 1, T_3 = 4 x^3 - 3 x
    assert u_hat(4).scale(16) == Poly([1, 0, -12, 0, 16])
    assert t_hat(3).scale(4) == Poly([0, -3, 0, 4])


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


def test_identities_at_n_zero():
    # pythagorean and sum are stated for n >= 1; the others hold at n = 0
    for tag in ("pythagorean", "sum"):
        with pytest.raises(ValueError, match=f"{tag}.*n >= 1"):
            identity_residual(tag, 0)
    for tag in ("turan", "mixed", "deriv"):
        assert identity_residual(tag, 0).is_zero(), tag
    for m in range(4):
        assert identity_residual("product_diff", 0, m).is_zero(), m


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
