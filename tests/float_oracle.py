"""Binary64 monomial coefficients: a float oracle for low-degree checks.

The package evaluates nothing on monomial coefficients in floating point;
tests that compare against numpy's polyval build the coefficients here.
"""

import numpy as np


def float_coeffs(p) -> np.ndarray:
    """Ascending coefficients of the Poly p rounded to binary64, for polyval.

    Each entry is numerator / denominator, an int true division, which is
    correctly rounded and so equals float() of the Fraction coefficient.
    The zero polynomial gives [0.0], so polyval still returns zero.
    """
    den = p.denominator
    return np.array([c / den for c in p.numerators] or [0.0])
