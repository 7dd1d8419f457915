"""Pearson data and classical normalizers, pinned as literal coefficients.

The values come from per-kind formulas written out independently of
SievedFamily.shift (for the second kind C = -(x U_hat(k-1) + 2 lam k
T_hat(k)) and D = -2 (U_hat(k-1) + lam k T_hat(k-1)); for the first kind
C = x U_hat(k-1) - 2 lam k T_hat(k) and D = -2 lam k U_hat(k-1)).  The
Pearson data and normalizers are now written once through the shift, with
C = Psi - Phi', so these literals are the check on C that does not pass
through Psi.
"""

from fractions import Fraction as F

import pytest

from sievedops.recurrence import SievedFamily, SievedKind, monic_normalizer
from sievedops.semiclassical import pearson_data

FIRST, SECOND = SievedKind.FIRST, SievedKind.SECOND

# (kind, lam, k) -> ascending coefficients of (Phi, Psi, C, D)
PEARSON = {
    (FIRST, F(3, 2), 5): (
        ["1/16", "0", "-13/16", "0", "7/4", "0", "-1"],
        ["0", "-25/4", "0", "25", "0", "-20"],
        ["0", "-37/8", "0", "18", "0", "-14"],
        ["-15/16", "0", "45/4", "0", "-15"],
    ),
    (FIRST, F(0), 4): (
        ["0", "-1/2", "0", "3/2", "0", "-1"],
        ["-1/2", "0", "4", "0", "-4"],
        ["0", "0", "-1/2", "0", "1"],
        [],
    ),
    (SECOND, F(1, 2), 3): (
        ["-1/4", "0", "5/4", "0", "-1"],
        ["0", "5", "0", "-8"],
        ["0", "5/2", "0", "-4"],
        ["2", "0", "-5"],
    ),
    (SECOND, F(-7, 6), 4): (
        ["0", "-1/2", "0", "3/2", "0", "-1"],
        ["2/3", "0", "-13/3", "0", "10/3"],
        ["7/6", "0", "-53/6", "0", "25/3"],
        ["0", "-6", "0", "22/3"],
    ),
}

# (kind, lam, k) -> monic_normalizer(fam, n) for n = 0..2k+1
NORMALIZERS = {
    (FIRST, F(3, 2), 5): [
        "1", "1", "1/2", "1/4", "1/8", "1/16",
        "1/20", "1/40", "1/80", "1/160", "1/320", "1/448",
    ],
    (SECOND, F(-1, 4), 4): [
        "1", "1/2", "1/4", "1/8", "1/12",
        "1/24", "1/48", "1/96", "1/168", "1/336",
    ],
}


@pytest.mark.parametrize("key", PEARSON, ids=str)
def test_pearson_data_pinned(key):
    pd = pearson_data(SievedFamily(*key))
    got = tuple(p.to_strings() for p in (pd.phi, pd.psi, pd.c, pd.d))
    assert got == PEARSON[key]


@pytest.mark.parametrize("key", NORMALIZERS, ids=str)
def test_monic_normalizer_pinned(key):
    fam = SievedFamily(*key)
    want = NORMALIZERS[key]
    assert [str(monic_normalizer(fam, n)) for n in range(2 * fam.k + 2)] == want
