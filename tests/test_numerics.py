"""Zeros, weights, moment orthogonality, and interval counting."""

import math
from fractions import Fraction as F

import float_oracle
import numpy as np
import pytest
from exact_oracle import evaluate, mapped_q
from float_oracle import (
    DomainError,
    chebyshev_u_float,
    float_coeffs,
    gram_matrix_reference,
    scaled_derivatives_reference,
    weight,
    zero_residuals_reference,
)
from numpy.polynomial.polynomial import polyval

from sievedops import numerics
from sievedops.numerics import (
    DegenerateConfigurationError,
    UnsupportedRangeError,
    ZeroSet,
    chebyshev_moments,
    float_gammas,
    gram_matrix,
    interval_counts,
    orthogonality_defect,
    orthogonality_defects,
    partition_points,
    scaled_derivatives,
    zero_residuals,
    zeros,
)
from sievedops.recurrence import SievedFamily, SievedKind, gamma_flat, sieved_monic

FIRST, SECOND = SievedKind.FIRST, SievedKind.SECOND

FAM_C10 = SievedFamily(FIRST, F(3, 2), 5)


def test_zeros_chebyshev_closed_form():
    fam = SievedFamily(FIRST, F(0), 3)
    z = zeros(fam, 6)
    expect = np.sort([math.cos((2 * j - 1) * math.pi / 12) for j in range(1, 7)])
    assert np.max(np.abs(z.values - expect)) < 1e-12


def test_zeros_degree_one():
    z = zeros(FAM_C10, 1)
    assert len(z.values) == 1 and abs(z.values[0]) < 1e-14


def test_zeros_symmetric_and_interior():
    for fam in (FAM_C10, SievedFamily(SECOND, F(1, 2), 4)):
        for n in (5, 8, 12):
            v = zeros(fam, n).values
            assert np.all(np.diff(v) > 0)
            assert v[0] > -1 and v[-1] < 1
            assert np.max(np.abs(v + v[::-1])) < 1e-12


def test_zero_residuals_small():
    # monomial evaluation gave 2.4e-10 at n = 20 and 0.013 at n = 40
    for n in (6, 10, 14, 20, 40, 200):
        assert zero_residuals(zeros(FAM_C10, n)).max() < 1e-10


def test_float_gammas_correctly_rounded():
    fam = SievedFamily(SECOND, F(1, 3), 4)
    expect = [0.0] + [float(gamma_flat(fam, m)) for m in range(1, 50)]
    assert float_gammas(fam, 50).tolist() == expect
    assert float_gammas(fam, 7).tolist() == expect[:7]
    assert float_gammas(fam, 0).tolist() == []


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("lam", [F(0), F(3, 2), F(-1, 4), F(-7, 6)])
def test_sieved_derivatives_match_exact(kind, lam):
    # p_n, p_n', p_n'' against exact evaluation at dyadic points, which are
    # binary64 numbers; the error is measured against the largest value on
    # the points, since near a zero of the value no relative bound holds
    pts = [F(j, 32) for j in range(-35, 36, 5)]
    xs = np.array([float(t) for t in pts])
    for k in (3, 5):
        fam = SievedFamily(kind, lam, k)
        for n in range(31):
            got = np.ldexp(scaled_derivatives(fam, n, xs), -n)
            assert got.shape == (3, len(pts))
            p = sieved_monic(fam, n)
            for row, q in zip(got, (p, p.derivative(), p.derivative().derivative())):
                exact = np.array([float(evaluate(q, t)) for t in pts])
                scale = np.max(np.abs(exact))
                assert np.max(np.abs(row - exact)) <= 1e-12 * scale, (k, n)


# scalar, 0-d, empty, 1-D and 2-D x (an empty x gives rows of shape (3, 0)
# or (3, 0, 3)); at high degree the 3 x 4 grid in [-3, 3] overflows
REFERENCE_XS = [0.3, 1.0, -1.0, np.array(0.3), np.array([]), np.zeros((0, 3)),
                np.linspace(-1.0, 1.0, 9), np.linspace(-3.0, 3.0, 12).reshape(3, 4)]


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("lam", [F(0), F(1, 2), F(3, 2), F(-1, 4), F(7, 3)])
@pytest.mark.parametrize("k", [3, 4, 6])
def test_scaled_derivatives_match_reference_loop(kind, lam, k):
    # bit for bit, at the computed zeros too up to the benchmark's degrees;
    # n = 0..3 cover the start of the buffer rotation
    fam = SievedFamily(kind, lam, k)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in (0, 1, 2, 3, 30, 600, 1200):
            for x in REFERENCE_XS + ([zeros(fam, n).values] if 0 < n <= 30 else []):
                got = scaled_derivatives(fam, n, x)
                want = scaled_derivatives_reference(fam, n, x)
                assert got.shape == want.shape == (3,) + np.shape(x)
                assert got.tobytes() == want.tobytes(), (n, np.shape(x))
        assert np.isnan(scaled_derivatives(fam, 1200, REFERENCE_XS[-1])).any()


def test_scaled_derivatives_through_overflow():
    # degree by degree where the grid in [-3, 3] first overflows (inf from
    # n = 398, NaN from n = 400).  Rows 1 and 2 are carried halved and
    # divided by 8, so they overflow a step later than the reference's:
    # only where the reference reads inf or NaN may they differ from it
    fam = SievedFamily(FIRST, F(1, 2), 3)
    x = REFERENCE_XS[-1]
    saw_inf = saw_nan = saw_difference = False
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(396, 406):
            got = scaled_derivatives(fam, n, x)
            want = scaled_derivatives_reference(fam, n, x)
            same = got.view(np.uint64) == want.view(np.uint64)
            assert same[0].all() and not np.isfinite(want[~same]).any(), n
            saw_inf |= np.isinf(want).any()
            saw_nan |= np.isnan(want).any()
            saw_difference |= not same.all()
    assert saw_inf and saw_nan and saw_difference


@pytest.mark.parametrize("kind,lam,k", [(FIRST, F(3, 2), 5), (SECOND, F(2), 3)])
def test_scaled_derivatives_match_reference_loop_high_degree(kind, lam, k):
    # at the computed zeros, as the zeros command evaluates them
    fam = SievedFamily(kind, lam, k)
    x = zeros(fam, 2000).values
    got = scaled_derivatives(fam, 2000, x)
    assert got.tobytes() == scaled_derivatives_reference(fam, 2000, x).tobytes()


@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_zero_residuals_match_reference(kind):
    # bit for bit at the computed zeros; n = 2 has only end zeros.  The
    # lone zero of n = 1 is 0.0, where p_1 = x vanishes whatever its
    # spacing, so the spacing 1.0 is pinned at a point off it:
    # |p_1| / |p_1'| = 0.25 there
    fam = SievedFamily(kind, F(3, 2), 5)
    lone = ZeroSet(np.array([0.25]), fam, 1)
    for z in [zeros(fam, n) for n in [1, 2, 3, *range(4, 41), 2000]] + [lone]:
        got = zero_residuals(z)
        assert got.tobytes() == zero_residuals_reference(z).tobytes(), z.n
    assert zero_residuals(lone)[0] == 0.25


def test_zeros_range_errors():
    with pytest.raises(UnsupportedRangeError):
        zeros(SievedFamily(FIRST, F(-3, 4), 3), 4)
    with pytest.raises(ValueError):
        zeros(FAM_C10, 0)


def test_zeros_pullback_through_t_k():
    # T_k maps the kl zeros onto the l ultraspherical zeros, k times each
    k, ell = 5, 2
    v = zeros(FAM_C10, k * ell).values
    c = float_coeffs(mapped_q(FAM_C10, ell))
    tk = np.array([2.0 ** (1 - k) * math.cos(k * math.acos(x)) for x in v])
    assert np.max(np.abs([polyval(float(t), c) for t in tk])) < 1e-10
    roots = np.unique(np.round(tk, 8))
    assert len(roots) == ell


def test_weight_cases():
    fam = SievedFamily(FIRST, F(1, 2), 4)
    for x in (-0.7, 0.1, 0.6):
        assert abs(weight(fam, x) - abs(chebyshev_u_float(3, x))) < 1e-12
    # second kind, lam=0: plain Chebyshev-U weight
    fam_u = SievedFamily(SECOND, F(0), 3)
    assert abs(weight(fam_u, 0.3) - math.sqrt(1 - 0.09)) < 1e-12
    # zero of U_{k-1} kills the weight for lam > 0
    assert weight(fam, math.cos(math.pi / 4)) < 1e-12
    # and is a pole of the density for lam < 0
    assert weight(SievedFamily(FIRST, F(-1, 4), 4), 0.0) == math.inf
    assert weight(SievedFamily(SECOND, F(-1, 3), 3), 0.5) == math.inf


def test_weight_domain_error():
    with pytest.raises(DomainError):
        weight(FAM_C10, 1.0)


def test_orthogonality_defect_basic():
    assert orthogonality_defect(FAM_C10, 0, 1) < 1e-12  # odd integrand
    fam = SievedFamily(FIRST, F(3, 2), 3)
    assert orthogonality_defect(fam, 2, 5) < 1e-9
    assert orthogonality_defect(fam, 3, 3) == 1.0


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("lam", [F(1, 2), F(3, 2)])
def test_orthogonality_degree_30(kind, lam):
    # monomial evaluation moved these defects by ~2e-8 under refinement
    fam = SievedFamily(kind, lam, 5)
    for m in range(30):
        assert orthogonality_defect(fam, m, 30) < 1e-9


def test_orthogonality_defects_one_gram_matrix():
    fam = SievedFamily(SECOND, F(1, 2), 4)
    pairs = [(m, n) for n in range(13) for m in range(n)]
    defects = orthogonality_defects(fam, 12)
    batch = [defects[m, n] for m, n in pairs]
    single = [orthogonality_defect(fam, m, n) for m, n in pairs]
    assert batch == single
    assert max(batch) < 1e-9
    # rows are scaled by 2^m, so the Gram matrix stays finite at degree 600
    g = gram_matrix(SievedFamily(FIRST, F(3, 2), 5), 600)
    assert np.all(np.isfinite(g)) and np.min(np.diag(g)) > 0.1
    with pytest.raises(ValueError):
        orthogonality_defect(fam, -1, 2)


def test_defect_matrix_layout():
    # defects above the diagonal, 1.0 on it and 0.0 below it, read off a
    # Gram matrix held as its upper triangle
    d = orthogonality_defects(FAM_C10, 8)
    assert d.shape == (9, 9)
    assert np.array_equal(np.tril(d), np.eye(9))
    assert not np.tril(gram_matrix(FAM_C10, 8), -1).any()
    assert orthogonality_defects(FAM_C10, 0).tolist() == [[1.0]]
    with pytest.raises(ValueError):
        orthogonality_defects(FAM_C10, -1)


@pytest.mark.parametrize("kind,lam,k,n", [
    (SECOND, F(2), 3, 300), (FIRST, F(4), 3, 300), (SECOND, F(4), 4, 200),
    (FIRST, F(-1, 4), 4, 600),
])
def test_gram_matrix_accurate_at_high_degree(kind, lam, k, n):
    # for lam >= 2 the Chebyshev coefficients of 2^m p_m reach 1e3 and more,
    # which amplify any residue in the mixed moments below the diagonal;
    # carried exactly, those moments are zero, and so is every off-diagonal
    fam = SievedFamily(kind, lam, k)
    g = gram_matrix(fam, n)
    assert not np.triu(g, 1).any()
    d = np.sqrt(np.diag(g))
    off = np.abs(g / np.outer(d, d)) - np.eye(n + 1)
    assert np.max(off) < 1e-12
    # <p_n, p_n> / <p_{n-1}, p_{n-1}> = gamma_n, with 2^n scaling
    ratio = np.diag(g)[1:] / np.diag(g)[:-1] / (4.0 * float_gammas(fam, n + 1)[1:])
    assert np.max(np.abs(ratio - 1.0)) < 1e-14


@pytest.mark.parametrize("kind,lam,k", [
    (FIRST, F(0), 3), (SECOND, F(1, 2), 4), (FIRST, F(-1, 4), 5),
    (SECOND, F(7, 3), 6), (FIRST, F(1), 4), (SECOND, F(0), 5),
])
def test_gram_matrix_matches_reference_rows(kind, lam, k, monkeypatch):
    # the exact mixed-moment rows skip their products by 1 (every step past
    # the first at lam = 0, second kind), and the Chebyshev rows multiply by
    # every 4 gamma_m, a unit one exactly; bit for bit.
    # For an orthogonal family G reads only the leading entry of each row
    # of C, so the moments are also perturbed, which makes every entry count
    fam = SievedFamily(kind, lam, k)
    exact = numerics.chebyshev_moments

    def perturbed(family, top):
        return [v + F(1, 2 ** (d + 10)) for d, v in enumerate(exact(family, top))]

    for moments in (exact, perturbed):
        monkeypatch.setattr(numerics, "chebyshev_moments", moments)
        monkeypatch.setattr(float_oracle, "chebyshev_moments", moments)
        for n in (0, 1, 2, 5, 17, 30, 61, 120, 400):
            assert gram_matrix(fam, n).tobytes() == gram_matrix_reference(fam, n).tobytes()
    assert np.triu(gram_matrix(fam, 5), 1).any()


def test_planted_moment_error_caught(monkeypatch):
    # mu_{2k} off by one part in 2^30: the exact mixed moments below the
    # diagonal are no longer zero, and the defects show it
    fam = SievedFamily(FIRST, F(3, 2), 5)
    exact = numerics.chebyshev_moments

    def perturbed(family, top):
        mu = exact(family, top)
        mu[2 * family.k] *= 1 + F(1, 2**30)
        return mu

    monkeypatch.setattr(numerics, "chebyshev_moments", perturbed)
    assert np.triu(gram_matrix(fam, 24), 1).any()
    pairs = [(m, n) for n in range(10, 25) for m in range(n)]
    defects = orthogonality_defects(fam, 24)
    assert max(defects[m, n] for m, n in pairs) >= 1e-9


def test_gram_matrix_builds_chebyshev_rows_only_for_a_nonzero_exact_row(monkeypatch):
    # mu_{2n-1} off by 2^-30 first reaches an entry below the diagonal in
    # row n, at a = n - 1, so that row alone is nonzero and the full product
    # C S^T runs; its one defect is that row's, and every other is exact
    fam, n = SievedFamily(FIRST, F(3, 2), 5), 24
    exact = numerics.chebyshev_moments
    rows = numerics._chebyshev_rows
    builds = []

    def counted(family, top):
        builds.append(top)
        return rows(family, top)

    def perturbed(family, top):
        mu = exact(family, top)
        mu[2 * n - 1] += F(1, 2**30)
        return mu

    monkeypatch.setattr(numerics, "_chebyshev_rows", counted)
    assert not np.triu(orthogonality_defects(fam, n), 1).any()
    assert builds == []
    for module in (numerics, float_oracle):
        monkeypatch.setattr(module, "chebyshev_moments", perturbed)
    assert gram_matrix(fam, n).tobytes() == gram_matrix_reference(fam, n).tobytes()
    assert builds == [n]
    defects = np.triu(orthogonality_defects(fam, n), 1)
    assert defects[:, n].max() >= 1e-9
    assert not defects[:, :n].any()


def test_orthogonality_singular_weight():
    # density |sin 4 theta|^{-1/2}, infinite at the arc ends, where a
    # quadrature rule in theta converged too slowly to pass a refinement
    # check; the moments are exact whatever the sign of lam
    fam = SievedFamily(FIRST, F(-1, 4), 4)
    assert orthogonality_defect(fam, 3, 5) < 1e-9
    pairs = [(m, n) for n in range(31) for m in range(n)]
    for kind in (FIRST, SECOND):
        for lam in (F(-1, 4), F(-1, 3)):
            defects = orthogonality_defects(SievedFamily(kind, lam, 4), 30)
            assert max(defects[m, n] for m, n in pairs) < 1e-9


def _chebyshev_coeffs(p):
    """Exact T-basis coefficients of p, by Horner's rule with
    x T_0 = T_1 and x T_d = (T_{d+1} + T_{d-1}) / 2."""
    out = []
    for a in reversed(p.coeffs):
        shifted = [F(0)] * (len(out) + 1)
        for d, c in enumerate(out):
            if d == 0:
                shifted[1] += c
            else:
                shifted[d + 1] += c / 2
                shifted[d - 1] += c / 2
        shifted[0] += a
        out = shifted
    return out


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("lam", [F(3, 2), F(1, 2), F(-1, 4), F(-1, 3), F(7, 3)])
def test_moments_favard_exact(kind, lam):
    # with the exact moments the monic sieved polynomials are orthogonal and
    # their norms follow <p_n, p_n> = gamma_n <p_{n-1}, p_{n-1}> (Favard)
    top = 16
    for k in (3, 4, 5):
        fam = SievedFamily(kind, lam, k)
        mu = chebyshev_moments(fam, 2 * top)
        assert mu[0] == 1 and len(mu) == 2 * top + 1
        cs = [_chebyshev_coeffs(sieved_monic(fam, n)) for n in range(top + 1)]
        gram = []
        for cn in cs:
            # (M c_n)[a] = <T_a, p_n>
            mc = [sum((mu[a + b] + mu[abs(a - b)]) / 2 * c for b, c in enumerate(cn))
                  for a in range(top + 1)]
            gram.append([sum(c * v for c, v in zip(cm, mc)) for cm in cs])
        for n in range(1, top + 1):
            assert all(gram[n][m] == 0 for m in range(n)), (k, n)
            assert gram[n][n] / gram[n - 1][n - 1] == gamma_flat(fam, n), (k, n)


@pytest.mark.parametrize("kind", [FIRST, SECOND])
@pytest.mark.parametrize("lam", [F(0), F(1), F(2)])
def test_moments_match_weight(kind, lam):
    # for integer lam, weight(cos t) sin t cos(d t) is a trigonometric
    # polynomial of degree below 2 * 200, which the 200-point midpoint rule
    # on (0, pi) integrates exactly up to rounding
    theta = (np.arange(200) + 0.5) * math.pi / 200
    for k in (3, 4):
        fam = SievedFamily(kind, lam, k)
        dens = np.array([weight(fam, math.cos(t)) for t in theta]) * np.sin(theta)
        top = 4 * k + 3
        got = [np.sum(dens * np.cos(d * theta)) for d in range(top + 1)]
        expect = [float(v) for v in chebyshev_moments(fam, top)]
        assert np.max(np.abs(np.array(got) / got[0] - expect)) < 1e-13, k


def test_orthogonality_range_error():
    with pytest.raises(UnsupportedRangeError):
        orthogonality_defect(SievedFamily(FIRST, F(-2, 3), 3), 1, 2)


def test_positive_definite_range_edge():
    with pytest.raises(UnsupportedRangeError):
        zeros(SievedFamily(FIRST, F(-2, 3), 3), 4)
    assert len(zeros(SievedFamily(FIRST, F(-1, 3), 3), 4).values) == 4


def test_partition_points():
    pts = partition_points(4)
    expect = [-1.0, -math.cos(math.pi / 4), 0.0, math.cos(math.pi / 4), 1.0]
    assert np.max(np.abs(pts - np.array(expect))) < 1e-15


def test_interval_counts():
    assert interval_counts(zeros(FAM_C10, 10)) == [2, 2, 2, 2, 2]
    fam = SievedFamily(SECOND, F(1, 2), 4)
    assert interval_counts(zeros(fam, 4)) == [1, 1, 1, 1]
    fam0 = SievedFamily(FIRST, F(0), 3)
    assert interval_counts(zeros(fam0, 6)) == [2, 2, 2]


def test_interval_counts_requires_multiple():
    with pytest.raises(ValueError):
        interval_counts(zeros(FAM_C10, 7))


def test_interval_counts_degenerate_detection():
    from sievedops.numerics import ZeroSet

    fam = SievedFamily(FIRST, F(1, 2), 3)
    bad = ZeroSet(
        values=np.array([-0.9, math.cos(2 * math.pi / 3), 0.9]), family=fam, n=3
    )
    with pytest.raises(DegenerateConfigurationError):
        interval_counts(bad)


def test_zero_sharing_numeric():
    # zeros(second, lam-1, n+k-1) = zeros(first, lam, n) + partition interior
    lam = F(3, 2)
    for k in (3, 5):
        for ell in (1, 2):
            n = k * ell
            z1 = zeros(SievedFamily(FIRST, lam, k), n).values
            z2 = zeros(SievedFamily(SECOND, lam - 1, k), n + k - 1).values
            expect = np.sort(np.concatenate([z1, partition_points(k)[1:-1]]))
            assert np.max(np.abs(z2 - expect)) < 1e-10
