"""Pearson data, structure pairs (three routes), ODE coefficients, class."""

from fractions import Fraction as F
from functools import lru_cache

import pytest
from exact_oracle import (
    closed_ode,
    omega_generic,
    shifted_omega,
    structure_pair_alternate,
)

from sievedops import recurrence, semiclassical
from sievedops.chebyshev import TABLE_CACHE_SIZE, u_hat
from sievedops.polycore import Poly, divmod_poly, poly_gcd
from sievedops.recurrence import SievedFamily, SievedKind, gamma_flat, sieved_monic
from sievedops.semiclassical import (
    _closed_omega,
    _closed_pair,
    ode_data,
    ode_residual,
    pearson_data,
    semiclassical_class,
    structure_pair,
    structure_pair_recursive,
    structure_residual,
)

FIRST, SECOND = SievedKind.FIRST, SievedKind.SECOND

GRID = [
    SievedFamily(kind, lam, k)
    for kind in (FIRST, SECOND)
    for k in (3, 4, 5, 6)
    for lam in (F(1, 2), F(3, 2), F(2), F(-1, 4), F(-7, 6))
]


def test_pearson_example_second_k3():
    fam = SievedFamily(SECOND, F(1, 2), 3)
    assert pearson_data(fam).psi == Poly([0, 5, 0, -8])


def test_pearson_first_lambda0_d_zero():
    fam = SievedFamily(FIRST, F(0), 4)
    assert pearson_data(fam).d.is_zero()


@pytest.mark.parametrize("fam", GRID, ids=str)
def test_pearson_psi_equals_c_plus_phi_prime(fam):
    pd = pearson_data(fam)
    assert (pd.psi - pd.c - pd.phi.derivative()).is_zero()
    assert pd.psi.degree >= 1


def test_structure_pair_boundary_forms():
    # second kind at j = k-1: M = -2k(lam+n+1) U_hat(k-1)
    fam = SievedFamily(SECOND, F(3, 2), 4)
    for n in range(3):
        sp = structure_pair(fam, 4 * n + 3)
        assert sp.m == u_hat(3).scale(-2 * 4 * (F(3, 2) + n + 1))
    # first kind at j = k (i.e. N = nk with n >= 1): N = k(n+2lam) x U_hat(k-1)
    fam1 = SievedFamily(FIRST, F(3, 2), 4)
    for n in range(1, 4):
        sp = structure_pair(fam1, 4 * n)
        assert sp.n == (Poly.x() * u_hat(3)).scale(4 * (n + 2 * F(3, 2)))


def test_structure_pair_derived_example():
    # second kind, k=3, lam=1/2, N=2: M = -9 x^2 + 9/4 = -9(x^2 - 1/4)
    fam = SievedFamily(SECOND, F(1, 2), 3)
    sp = structure_pair(fam, 2)
    assert sp.m == Poly([F(-1, 4), 0, 1]).scale(-9)


def test_recursive_initial_conditions():
    fam = SievedFamily(SECOND, F(3, 2), 4)
    pd = pearson_data(fam)
    sp0 = structure_pair_recursive(fam, 0)
    assert sp0.m == pd.d
    assert sp0.n == -(Poly.x() * sp0.m)


@pytest.mark.parametrize("fam", GRID, ids=str)
def test_closed_form_equals_recursive(fam):
    for big_n in range(4 * fam.k + 4):
        closed = structure_pair(fam, big_n)
        rec = structure_pair_recursive(fam, big_n)
        assert closed.m == rec.m, (fam, big_n)
        assert closed.n == rec.n, (fam, big_n)


@pytest.mark.parametrize("fam", GRID, ids=str)
def test_alternate_form_equals_recursive(fam):
    for big_n in range(4 * fam.k + 4):
        alt = structure_pair_alternate(fam, big_n)
        rec = structure_pair_recursive(fam, big_n)
        assert alt.m == rec.m, (fam, big_n)
        assert alt.n == rec.n, (fam, big_n)


@pytest.mark.parametrize("fam", GRID, ids=str)
def test_structure_residual_zero(fam):
    for big_n in range(4 * fam.k + 4):
        assert structure_residual(fam, big_n).is_zero(), (fam, big_n)


BLOCK_GRID = [
    SievedFamily(kind, lam, k)
    for kind in (FIRST, SECOND)
    for lam in (F(3, 2), F(-1, 4), F(0), F(7, 3))
    for k in (3, 4, 5, 7)
]


@pytest.mark.parametrize("fam", BLOCK_GRID, ids=str)
def test_pair_and_omega_over_ten_blocks(fam):
    # ten whole blocks: the closed pair against the recursion, Omega against
    # the exact division by Phi
    for big_n in range(10 * fam.k + 1):
        closed = structure_pair(fam, big_n)
        rec = structure_pair_recursive(fam, big_n)
        assert (closed.m, closed.n) == (rec.m, rec.n), (fam, big_n)
        assert shifted_omega(fam, big_n) == omega_generic(fam, big_n), (fam, big_n)


SHIFT_GRID = [
    SievedFamily(kind, lam, k)
    for kind in (FIRST, SECOND)
    for lam in (F(1, 2), F(3, 2), F(-1, 4), F(-7, 6), F(0), F(7, 3))
    for k in (3, 4, 5, 7, 11)
]


@pytest.mark.parametrize("fam", SHIFT_GRID, ids=str)
def test_block_shift_equals_formula_as_written(fam):
    # the first block shifted by whole blocks against the closed forms
    # evaluated afresh at every N
    for big_n in range(10 * fam.k + 1):
        assert structure_pair(fam, big_n) == _closed_pair(fam, big_n), (fam, big_n)
        assert shifted_omega(fam, big_n) == _closed_omega(fam, big_n), (fam, big_n)
        assert ode_data(fam, big_n) == closed_ode(fam, big_n), (fam, big_n)


@pytest.mark.parametrize(
    "fam",
    [SievedFamily(FIRST, F(3, 2), 5), SievedFamily(SECOND, F(-7, 6), 3),
     SievedFamily(FIRST, F(0), 4), SievedFamily(SECOND, F(7, 3), 7)],
    ids=str,
)
def test_block_shift_at_large_d(fam):
    for j in range(fam.k):
        big_n = j + 400 * fam.k
        assert structure_pair(fam, big_n) == _closed_pair(fam, big_n), (fam, big_n)
        assert shifted_omega(fam, big_n) == _closed_omega(fam, big_n), (fam, big_n)
        assert ode_data(fam, big_n) == closed_ode(fam, big_n), (fam, big_n)


def plant_in_row(monkeypatch, fam, obj, j, row):
    """Patch _first_block so that fam's entry j has 1 added to the first
    numerator of row `row` of object `obj` (0..5: M, N, Omega, J, K, L)."""
    real = semiclassical._first_block
    block = [list(entry) for entry in real(fam)]
    rows, den = block[j][obj]
    rows = list(rows)
    rows[row] = (rows[row][0] + 1, *rows[row][1:])
    block[j][obj] = (tuple(rows), den)
    planted = tuple(map(tuple, block))
    monkeypatch.setattr(semiclassical, "_first_block",
                        lambda f: planted if f == fam else real(f))


def checks_pass(fam, name, big_n) -> list:
    """Each check that reads the planted object at N, True where it passes."""
    if name in ("M", "N"):
        closed, rec = structure_pair(fam, big_n), structure_pair_recursive(fam, big_n)
        return [structure_residual(fam, big_n).is_zero(),
                (closed.m, closed.n) == (rec.m, rec.n)]
    if name == "L":
        return [ode_residual(fam, big_n).is_zero()]
    return [shifted_omega(fam, big_n) == omega_generic(fam, big_n)]


@pytest.mark.parametrize(
    "obj,name,j,row",
    [(0, "M", 2, 1), (1, "N", 0, 1), (5, "L", 1, 3), (2, "Omega", 0, 2)],
    ids=["M-j2-row1", "N-j0-row1", "L-j1-row3", "Omega-j0-row2"],
)
@pytest.mark.parametrize(
    "fam", [SievedFamily(FIRST, F(3, 2), 5), SievedFamily(SECOND, F(2, 7), 4)],
    ids=str,
)
def test_planted_row_shows_past_the_first_block(monkeypatch, fam, obj, name, j, row):
    # a row of degree >= 1 in d is invisible at d = 0, so the first block
    # cannot see an error in it; one whole block on, and forty, it shows
    plant_in_row(monkeypatch, fam, obj, j, row)
    assert all(checks_pass(fam, name, j))
    for big_n in (j + fam.k, j + 40 * fam.k):
        assert not any(checks_pass(fam, name, big_n)), (name, big_n)


def test_structure_residual_negative_lambda_case():
    fam = SievedFamily(FIRST, F(-1, 4), 3)
    assert structure_residual(fam, 7).is_zero()


@pytest.mark.parametrize(
    "fam,big_n,i",
    [
        (SievedFamily(FIRST, F(3, 2), 5), 3, 1),
        (SievedFamily(FIRST, F(3, 2), 5), 23, 0),
        (SievedFamily(SECOND, F(-1, 4), 4), 17, 16),
        (SievedFamily(SECOND, F(7, 3), 3), 30, 13),
    ],
    ids=str,
)
def test_planted_coefficient_shows_in_residuals(monkeypatch, fam, big_n, i):
    # the kernel's residual equals the one built from *, + and -, so it can
    # neither hide the planted error nor change the reported degree
    fresh = lru_cache(maxsize=TABLE_CACHE_SIZE)(recurrence._monic_table.__wrapped__)
    monkeypatch.setattr(recurrence, "_monic_table", fresh)
    p1 = sieved_monic(fam, big_n + 1)  # from the true p_N
    p = sieved_monic(fam, big_n) + Poly([0] * i + [F(1, 3)])
    recurrence._monic_table(fam)[big_n] = p
    pd, sp = pearson_data(fam), _closed_pair(fam, big_n)
    want = pd.phi * p.derivative() - sp.m * p1 - sp.n * p
    got = structure_residual(fam, big_n)
    assert not got.is_zero()
    assert got == want
    od = closed_ode(fam, big_n)
    want = od.j * p.derivative().derivative() + od.kk * p.derivative() + od.l * p
    got = ode_residual(fam, big_n)
    assert not got.is_zero()
    assert got == want


@pytest.mark.parametrize("fam", GRID, ids=str)
def test_ode_residual_zero(fam):
    for big_n in range(4 * fam.k + 4):
        assert ode_residual(fam, big_n).is_zero(), (fam, big_n)


def test_ode_figure_instances():
    assert ode_residual(SievedFamily(SECOND, F(1, 2), 5), 14).is_zero()
    assert ode_residual(SievedFamily(FIRST, F(3, 2), 5), 10).is_zero()


def test_ode_j_is_phi_times_m():
    for fam in GRID[:6]:
        for big_n in (0, 3, 7):
            od = ode_data(fam, big_n)
            assert od.j == pearson_data(fam).phi * structure_pair(fam, big_n).m


def test_ode_k_wronskian_form():
    # K = W(M, Phi) + C M, with W(f, g) = f g' - f' g, must equal Psi M - Phi M'
    for fam in GRID[:8]:
        pd = pearson_data(fam)
        for big_n in (0, 2, 5, 9):
            m = structure_pair(fam, big_n).m
            k1 = pd.psi * m - pd.phi * m.derivative()
            k2 = m * pd.phi.derivative() - m.derivative() * pd.phi + pd.c * m
            assert k1 == k2
            assert ode_data(fam, big_n).kk == k1


def test_omega_dual_route():
    for fam in GRID[:8]:
        for big_n in range(2 * fam.k + 2):
            assert omega_generic(fam, big_n) == shifted_omega(fam, big_n), (fam, big_n)


def test_l0_annihilates_constants():
    # the ODE at N=0 must hold on p_0 = 1, which forces L_0 = 0
    for fam in GRID:
        od = ode_data(fam, 0)
        assert od.l.is_zero(), fam


def test_class_values():
    for kind in (FIRST, SECOND):
        for k in (3, 4, 5):
            for lam in (F(1, 2), F(3, 2), F(-1, 4), F(-7, 6)):
                info = semiclassical_class(SievedFamily(kind, lam, k))
                assert info.value == k - 1
                assert not info.classical
            info0 = semiclassical_class(SievedFamily(kind, F(0), k))
            assert info0.value == 0
            assert info0.classical


def test_lambda0_first_kind_common_factor():
    # for lam=0 the first kind's (Phi, C, D) share the factor U_hat(k-1)
    for k in (3, 4, 5):
        fam = SievedFamily(FIRST, F(0), k)
        pd = pearson_data(fam)
        g = poly_gcd(pd.phi, pd.c)
        assert divmod_poly(g, u_hat(k - 1))[1].is_zero()


def test_gamma_consistency_between_modules():
    # the recursion consumed gamma_flat; spot-check the wiring at block seams
    fam = SievedFamily(SECOND, F(3, 2), 4)
    assert gamma_flat(fam, 4) == F(1, 4) * F(1) / (F(1) + F(3, 2))
    sp = structure_pair_recursive(fam, 7)
    assert sp.m == structure_pair(fam, 7).m


def fresh_pair_tables(monkeypatch):
    """An empty per-family pair-table cache, restored after the test."""
    fresh = lru_cache(maxsize=TABLE_CACHE_SIZE)(semiclassical._pair_table.__wrapped__)
    monkeypatch.setattr(semiclassical, "_pair_table", fresh)


def test_sweep_costs_a_few_products_per_degree(monkeypatch):
    fam = SievedFamily(SECOND, F(4, 9), 4)
    fresh_pair_tables(monkeypatch)
    pearson_data(fam)  # its handful of products is not part of the sweep
    real, calls = Poly.__mul__, [0]

    def counting(self, other):
        calls[0] += 1
        return real(self, other)

    monkeypatch.setattr(Poly, "__mul__", counting)
    for n in range(121):
        sieved_monic(fam, n)
        structure_pair_recursive(fam, n)
    # one product per sieved degree and two per pair; rebuilding each table
    # from degree 0 for every n makes about 3 * 121**2 / 2 = 22,000
    assert calls[0] <= 3 * 121
