"""Block recurrences, determinants, and the polynomial-mapping factorization."""

import math
from fractions import Fraction as F
from functools import lru_cache

import pytest
from exact_oracle import mapped_q

from sievedops import recurrence
from sievedops.chebyshev import TABLE_CACHE_SIZE, t_hat, u_hat
from sievedops.numerics import float_gammas
from sievedops.polycore import Poly
from sievedops.recurrence import (
    RegularityError,
    SievedFamily,
    SievedKind,
    block_coeff,
    classical_sieved,
    composed_q,
    delta,
    gamma_flat,
    mapping_cells,
    mapping_residual,
    monic_normalizer,
    pi_k_from_determinants,
    sieved_monic,
)
from sievedops.semiclassical import ode_data, pearson_data, structure_pair

FIRST, SECOND = SievedKind.FIRST, SievedKind.SECOND

FAM_C10 = SievedFamily(FIRST, F(3, 2), 5)
FAM_B14 = SievedFamily(SECOND, F(1, 2), 5)


def test_family_validation():
    with pytest.raises(ValueError):
        SievedFamily(FIRST, F(1, 2), 2)
    with pytest.raises(RegularityError):
        SievedFamily(FIRST, F(-1, 2), 3)
    with pytest.raises(RegularityError):
        SievedFamily(SECOND, F(-3), 4)
    # negative but regular values are fine
    SievedFamily(SECOND, F(-7, 6), 3)
    SievedFamily(FIRST, F(-1, 4), 4)


def test_kind_given_as_str_means_that_kind():
    fam = SievedFamily("second", F(2), 3)
    assert fam == SievedFamily(SECOND, F(2), 3) and fam.kind is SECOND
    assert fam.shift == 1
    assert sieved_monic(fam, 5) == sieved_monic(SievedFamily(SECOND, F(2), 3), 5)
    assert SievedFamily("first", F(2), 3).shift == 0
    with pytest.raises(ValueError):
        SievedFamily("third", F(2), 3)


@pytest.mark.parametrize("k", [3.5, 3.0])
def test_non_integer_k_is_refused(k):
    with pytest.raises(TypeError):
        SievedFamily(FIRST, F(1, 2), k)


def test_k_below_three_is_refused():
    with pytest.raises(ValueError, match="k must be >= 3, got 2"):
        SievedFamily(FIRST, F(1, 2), 2)


@pytest.mark.parametrize("lam", ["-1/2", "-3/2", "-1", "-2"])
def test_negative_half_integers_are_refused(lam):
    message = f"lambda={lam} is a negative half-integer; the family degenerates"
    with pytest.raises(RegularityError, match=f"^{message}$"):
        SievedFamily(FIRST, F(lam), 4)


def test_family_key():
    spellings = [SievedFamily(FIRST, lam, 5) for lam in (F(3, 2), "3/2", 1.5)]
    assert all(fam == FAM_C10 and hash(fam) == hash(FAM_C10) for fam in spellings)
    made = []
    tables = lru_cache(maxsize=TABLE_CACHE_SIZE)(lambda fam: made.append(fam) or [])
    assert all(tables(fam) is tables(FAM_C10) for fam in spellings)
    assert len(made) == 1 and tables.cache_info().currsize == 1
    for other in (SievedFamily(SECOND, F(3, 2), 5), SievedFamily(FIRST, F(5, 2), 5),
                  SievedFamily(FIRST, F(3, 4), 5), SievedFamily(FIRST, F(3, 2), 6)):
        assert other != FAM_C10
    assert FAM_C10 != (0, 3, 2, 5)
    assert repr(FAM_C10) == (
        "SievedFamily(kind=<SievedKind.FIRST: 'first'>, lam=Fraction(3, 2), k=5)"
    )


def test_cache_hits_run_no_fraction_code(monkeypatch):
    lookups = [
        pearson_data,
        lambda fam: sieved_monic(fam, 12),
        lambda fam: structure_pair(fam, 12),
        lambda fam: ode_data(fam, 12),
        lambda fam: float_gammas(fam, 12),
    ]
    for lookup in lookups:
        lookup(SievedFamily(SECOND, F(2, 7), 4))
    calls = []

    def counted(name):
        routine = getattr(F, name)

        def call(*args):
            calls.append(name)
            return routine(*args)

        return call

    for name in ("__hash__", "__eq__"):
        monkeypatch.setattr(F, name, counted(name))
    # a fresh family equal to the cached one hits every cache
    for lookup in lookups:
        lookup(SievedFamily(SECOND, F(2, 7), 4))
    assert calls == []


def test_shift_is_read_only_and_follows_the_kind():
    assert FAM_C10.shift == 0 and FAM_B14.shift == 1
    with pytest.raises(AttributeError):
        FAM_C10.shift = 1
    # the second kind's special slot in row n is the first kind's in row n + 1
    for lam in (F(0), F(3, 2), F(-7, 6)):
        first, second = SievedFamily(FIRST, lam, 5), SievedFamily(SECOND, lam, 5)
        for n in range(4):
            assert block_coeff(second, n, 4) == block_coeff(first, n + 1, 1)


def test_block_coeff_examples():
    assert block_coeff(FAM_C10, 1, 0) == F(1, 10)
    fam = SievedFamily(SECOND, F(1, 2), 4)
    assert block_coeff(fam, 0, fam.k - 1) == F(1, 3)


def test_block_coeff_conventions():
    # a_0^(0) = 1 by convention; first-kind a_0^(1) -> 1/2 in the lam=0 limit
    assert block_coeff(FAM_C10, 0, 0) == 1
    fam0 = SievedFamily(FIRST, F(0), 3)
    assert block_coeff(fam0, 0, 1) == F(1, 2)


def test_block_coeff_range_checks():
    with pytest.raises(ValueError):
        block_coeff(FAM_C10, 0, 5)
    with pytest.raises(ValueError):
        block_coeff(FAM_C10, -1, 0)


def test_sieved_monic_frozen_degree_10():
    p = sieved_monic(FAM_C10, 10)
    assert p == Poly(
        [F(-1, 1280), 0, F(25, 256), 0, F(-25, 32), 0, F(35, 16), 0, F(-5, 2), 0, 1]
    )


def test_sieved_monic_base_cases():
    assert sieved_monic(FAM_B14, 0) == Poly.one()
    assert sieved_monic(FAM_B14, 1) == Poly.x()
    with pytest.raises(ValueError):
        sieved_monic(FAM_B14, -1)


def test_lambda_zero_degenerations():
    fam_t = SievedFamily(FIRST, F(0), 3)
    assert sieved_monic(fam_t, 6) == t_hat(6)
    fam_u = SievedFamily(SECOND, F(0), 3)
    for n in range(12):
        assert sieved_monic(fam_u, n) == u_hat(n)


def test_symmetry():
    for fam in (FAM_C10, FAM_B14, SievedFamily(SECOND, F(-1, 4), 4)):
        for n in range(12):
            p = sieved_monic(fam, n)
            flipped = Poly(
                [(-1) ** (n - i) * c for i, c in enumerate(p.coeffs)]
            )
            assert flipped == p


def test_classical_normalization_figure_values():
    c10 = classical_sieved(FAM_C10, 10)
    assert c10 == Poly(
        [F(-1, 4), 0, F(125, 4), 0, -250, 0, 700, 0, -800, 0, 320]
    )
    b14 = classical_sieved(FAM_B14, 14)
    assert b14 == Poly(
        [F(-3, 2), 0, F(411, 2), 0, -3774, 0, 25200, 0, -79200, 0, 126720,
         0, -99840, 0, 30720]
    )
    assert monic_normalizer(FAM_C10, 0) == 1


def _rising(a, n):
    return math.prod((a + i for i in range(n)), start=F(1))


def _ultraspherical_at(mu, n, c):
    """C_n^mu(c x / 2) from the explicit sum; T_n(c x / 2) for mu = 0.

    C_n^mu(x) = sum_m (-1)^m (mu)_{n-m} / (m! (n-2m)!) (2x)^{n-2m}, and
    T_n(x) = (n/2) sum_m (-1)^m (n-m-1)! / (m! (n-2m)!) (2x)^{n-2m}, n >= 1.
    """
    if mu == 0 and n == 0:
        return Poly.one()
    coeffs = [F(0)] * (n + 1)
    for m in range(n // 2 + 1):
        if mu == 0:
            top = F(n, 2) * math.factorial(n - m - 1)
        else:
            top = _rising(mu, n - m)
        coeffs[n - 2 * m] = (
            (-1) ** m * top / (math.factorial(m) * math.factorial(n - 2 * m))
            * F(c) ** (n - 2 * m)
        )
    return Poly(coeffs)


def test_ultraspherical_examples():
    lam = F(3, 2)
    assert _ultraspherical_at(lam, 1, 2) == Poly([0, 2 * lam])
    assert _ultraspherical_at(F(0), 3, 2) == Poly([0, -3, 0, 4])
    assert _ultraspherical_at(F(3, 2), 2, 2) == Poly([F(-3, 2), 0, F(15, 2)])
    # q_n(x) = n! / (2^{kn} (mu)_n) C_n^mu(2^{k-1} x), and 2^{1-kn} T_n(2^{k-1} x)
    # in the Chebyshev limit mu = 0
    for kind in (FIRST, SECOND):
        for lam in (F(0), F(1, 2), F(3, 2), F(-1, 4), F(-1, 3), F(7, 3)):
            for k in (3, 5):
                fam = SievedFamily(kind, lam, k)
                mu = lam if kind == FIRST else lam + 1
                for n in range(13):
                    if mu == 0:
                        factor = F(2) ** (1 - k * n) if n else F(1)
                    else:
                        factor = math.factorial(n) / (
                            F(2) ** (k * n) * _rising(mu, n)
                        )
                    expect = _ultraspherical_at(mu, n, 2**k).scale(factor)
                    assert mapped_q(fam, n) == expect, (fam, n)


def test_composed_q_is_q_of_t_hat():
    for kind in (FIRST, SECOND):
        for lam in (F(0), F(3, 2), F(-1, 4)):
            fam = SievedFamily(kind, lam, 4)
            tk = t_hat(fam.k)
            for n in range(9):
                assert composed_q(fam, n) == mapped_q(fam, n).compose(tk), (fam, n)


def test_mapped_q_base_cases():
    assert mapped_q(FAM_C10, 0) == Poly.one()
    assert mapped_q(FAM_C10, 1) == Poly.x()


def test_mapped_q_is_monic():
    for fam in (FAM_C10, FAM_B14, SievedFamily(SECOND, F(0), 4)):
        for n in range(1, 6):
            q = mapped_q(fam, n)
            assert q.degree == n and q.leading() == 1


def test_mapped_q_three_term_recurrence():
    # q_{n+1} = x q_n - s_n q_{n-1} with the s_n built from block coefficients
    x = Poly.x()
    four = F(4)
    for fam in (
        FAM_C10,
        FAM_B14,
        SievedFamily(FIRST, F(2), 4),
        SievedFamily(SECOND, F(-1, 4), 6),
    ):
        for n in range(1, 6):
            if fam.kind == SECOND:
                s = four ** (2 - fam.k) * block_coeff(fam, n, 0) * block_coeff(
                    fam, n, fam.k - 1
                )
            else:
                s = four ** (2 - fam.k) * block_coeff(fam, n, 0) * block_coeff(
                    fam, n - 1, 1
                )
            lhs = mapped_q(fam, n + 1)
            rhs = x * mapped_q(fam, n) - mapped_q(fam, n - 1).scale(s)
            assert lhs == rhs, (fam, n)


def test_delta_base_cases():
    assert delta(FAM_B14, 0, 3, 1) == Poly.one()
    assert delta(FAM_B14, 0, 3, 0).is_zero()
    with pytest.raises(ValueError):
        delta(FAM_B14, 0, 0, 2)


def test_delta_chebyshev_rows():
    # First kind: Delta_n(2, j) = U_hat(j) for 0 <= j <= k-1
    for n in range(3):
        for j in range(FAM_C10.k):
            assert delta(FAM_C10, n, 2, j) == u_hat(j)
    # Second kind: Delta_n(j+2, k-2) = U_hat(k-j-2)
    k = FAM_B14.k
    for n in range(3):
        for j in range(k - 1):
            assert delta(FAM_B14, n, j + 2, k - 2) == u_hat(k - j - 2)


def test_delta_block_shift_convention():
    # Delta_n(k+i, k+j) = Delta_{n+1}(i, j)
    for fam in (FAM_C10, FAM_B14):
        k = fam.k
        for n in range(2):
            for i in range(1, 4):
                for j in range(i - 2, k):
                    assert delta(fam, n, k + i, k + j) == delta(fam, n + 1, i, j)


def test_pi_k_assembly_matches_t_hat():
    for kind in (FIRST, SECOND):
        for k in range(3, 9):
            fam = SievedFamily(kind, F(3, 2), k)
            assert pi_k_from_determinants(fam) == t_hat(k)


def test_mapping_residual_zero_grid():
    for kind in (FIRST, SECOND):
        for k in (3, 5):
            for lam in (F(1, 2), F(-1, 4)):
                fam = SievedFamily(kind, lam, k)
                js = range(1, k + 1) if kind == FIRST else range(k)
                for n in range(4):
                    for j in js:
                        assert mapping_residual(fam, n, j).is_zero(), (fam, n, j)


@pytest.mark.parametrize(
    "fam,n,j,i",
    [(FAM_C10, 0, 1, 0), (FAM_C10, 4, 3, 22), (FAM_B14, 3, 0, 3), (FAM_B14, 6, 4, 33)],
    ids=str,
)
def test_planted_coefficient_shows_in_mapping_residual(monkeypatch, fam, n, j, i):
    # the kernel's residual equals the one built from *, + and -, so it can
    # neither hide the planted error nor change the reported degree
    fresh = lru_cache(maxsize=TABLE_CACHE_SIZE)(recurrence._monic_table.__wrapped__)
    monkeypatch.setattr(recurrence, "_monic_table", fresh)
    k, s = fam.k, fam.shift
    p = sieved_monic(fam, k * n + j) + Poly([0] * i + [F(-2, 7)])
    recurrence._monic_table(fam)[k * n + j] = p
    m, i_u = n + 1 - s, j - 1 + s
    rhs = u_hat(i_u) * composed_q(fam, m)
    if m >= 1:
        rhs += (u_hat(k - i_u - 2) * composed_q(fam, m - 1)).scale(
            block_coeff(fam, n, 1 - s) * F(4) ** (-i_u)
        )
    want = (p if s else u_hat(k - 1) * p) - rhs
    got = mapping_residual(fam, n, j)
    assert not got.is_zero()
    assert got == want


def test_mapping_residual_index_checks():
    with pytest.raises(ValueError):
        mapping_residual(FAM_B14, 0, FAM_B14.k)
    with pytest.raises(ValueError):
        mapping_residual(FAM_C10, 0, 0)


def test_mapping_pure_block_boundaries():
    # p_{nk} (first kind) = q_n(T_hat(k)); second kind p_{nk+k-1} factorizes
    tk = t_hat(FAM_C10.k)
    for n in range(4):
        assert sieved_monic(FAM_C10, 5 * n) == mapped_q(FAM_C10, n).compose(tk)
        assert sieved_monic(FAM_B14, 5 * n + 4) == u_hat(4) * mapped_q(
            FAM_B14, n
        ).compose(tk)


def test_zero_sharing_exact_division():
    # second kind (lam-1, n+k-1) = U_hat(k-1) * first kind (lam, n) for k | n
    for lam in (F(3, 2), F(5, 2)):
        for k in (3, 5):
            for ell in (1, 2, 3):
                n = k * ell
                fam1 = SievedFamily(FIRST, lam, k)
                fam2 = SievedFamily(SECOND, lam - 1, k)
                big = sieved_monic(fam2, n + k - 1)
                assert big == u_hat(k - 1) * sieved_monic(fam1, n)


def test_gamma_flat_positive_in_pd_range():
    for fam in (FAM_C10, FAM_B14):
        assert all(gamma_flat(fam, m) > 0 for m in range(1, 30))
    with pytest.raises(ValueError):
        gamma_flat(FAM_C10, 0)


def test_composed_q_at_lambda_zero_is_t_hat():
    # q_n(T_hat(k)) = T_hat(kn)
    assert composed_q(SievedFamily(FIRST, F(0), 3), 9) == t_hat(27)


def fresh_tables(monkeypatch):
    """Empty per-family table caches, restored after the test."""
    cache = lru_cache(maxsize=TABLE_CACHE_SIZE)
    for name in ("_monic_table", "_composed_table"):
        factory = getattr(recurrence, name).__wrapped__
        monkeypatch.setattr(recurrence, name, cache(factory))


def test_sieved_monic_sweep_one_product_per_degree(monkeypatch):
    fam = SievedFamily(FIRST, F(4, 9), 4)
    fresh_tables(monkeypatch)
    real, calls = Poly.__mul__, [0]

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for n in range(121):
        sieved_monic(fam, n)
    assert calls[0] <= 121  # rebuilding from degree 0 each time makes ~7,000


def test_mapping_cells_ranges():
    assert mapping_cells(SievedFamily(FIRST, F(1, 2), 3), 7) == [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (1, 3), (2, 1)]
    assert mapping_cells(SievedFamily(SECOND, F(1, 2), 3), 7) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    assert mapping_cells(SievedFamily(FIRST, F(1, 2), 3), 0) == []
    for fam in (FAM_C10, FAM_B14):
        cells = mapping_cells(fam, 40)
        assert [fam.k * n + j for n, j in cells] == list(
            range(1 if fam.kind == FIRST else 0, 41)
        )


@pytest.mark.parametrize("kind", [FIRST, SECOND])
def test_mapping_sweep_few_products_per_cell(kind, monkeypatch):
    fam = SievedFamily(kind, F(4, 9), 4)
    fresh_tables(monkeypatch)
    cells = mapping_cells(fam, 120)
    for n in range(121):
        sieved_monic(fam, n)
    real, calls = Poly.__mul__, [0]

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for n, j in cells:
        assert mapping_residual(fam, n, j).is_zero(), (n, j)
    # recomposing q_n(T_hat(k)) by Horner for every cell makes about 33
    assert calls[0] <= 4 * len(cells)
