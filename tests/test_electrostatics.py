"""Energy, gradient, Hessian, Newton solver, and the equilibrium theorem."""

import math
from fractions import Fraction as F

import numpy as np
import pytest
from float_oracle import (
    derivatives_reference,
    energy_reference,
    fixed_margin_reference,
    float_coeffs,
    solve_equilibrium_reference,
)
from numpy.polynomial.polynomial import polyval

from sievedops.electrostatics import (
    ChargeSystem,
    InfeasibleError,
    _inner_bounds,
    default_init,
    energy,
    gradient,
    hessian,
    is_feasible,
    is_positive_definite,
    partial_fraction_rhs,
    solve_equilibrium,
    theorem_zero_set,
    verify_theorem,
)
from sievedops.numerics import partition_points, zeros
from sievedops.recurrence import SievedFamily, SievedKind

SYS = ChargeSystem(k=5, l=2, q=1.0)


def random_feasible(sys_, rng):
    """Feasible configuration with a safety margin from all fixed charges."""
    pts = partition_points(sys_.k)
    out = []
    for j in range(sys_.k):
        lo, hi = pts[j], pts[j + 1]
        # one disjoint slot per charge keeps ordering and boundary margins
        u = np.array(
            [
                rng.uniform(0.1 + 0.8 * (i + 0.15) / sys_.l,
                            0.1 + 0.8 * (i + 0.85) / sys_.l)
                for i in range(sys_.l)
            ]
        )
        out.append(lo + (hi - lo) * u)
    return np.concatenate(out)


def test_charge_system_validation():
    with pytest.raises(ValueError):
        ChargeSystem(k=2, l=1, q=1.0)
    with pytest.raises(ValueError):
        ChargeSystem(k=3, l=0, q=1.0)
    for q in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            ChargeSystem(k=3, l=1, q=q)
    with pytest.warns(UserWarning) as record:
        ChargeSystem(k=3, l=1, q=0.1)
    # the warning names the line that built the system, not the dataclass's
    # generated __init__
    assert record[0].filename == __file__
    assert SYS.n == 10
    assert SYS.q_tilde == 1.5
    assert SYS.lam == F(3, 2)


def squeezed_init(sys_):
    """default_init with every block's charges squeezed into its first 5 %:
    at q = 1/4 the inert interior charges let each block's charges push the
    first of them towards the fence on its left."""
    lo, _ = sys_.charge_bounds
    return lo + 0.05 * (default_init(sys_) - lo)


def test_feasibility_checks():
    assert is_feasible(SYS, default_init(SYS))
    bad = default_init(SYS)
    bad[0], bad[1] = bad[1], bad[0]  # break the ordering
    assert not is_feasible(SYS, bad)
    assert not is_feasible(SYS, np.zeros(3))


def test_feasibility_rejects_non_finite():
    sys_ = ChargeSystem(k=3, l=2, q=1.0)
    assert not is_feasible(sys_, np.full(6, np.nan))
    for bad_value in (np.nan, np.inf, -np.inf):
        for i in (0, 3, 5):
            x = default_init(sys_)
            x[i] = bad_value
            assert not is_feasible(sys_, x), (bad_value, i)
    assert energy(sys_, np.full(6, np.nan)) == math.inf


def test_energy_infeasible_marker():
    touching = default_init(SYS).copy()
    touching[0] = -1.0
    assert energy(SYS, touching) == math.inf


def test_energy_reflection_symmetry():
    rng = np.random.default_rng(7)
    x = random_feasible(SYS, rng)
    assert abs(energy(SYS, x) - energy(SYS, -x[::-1])) < 1e-10


def test_gradient_antisymmetry():
    rng = np.random.default_rng(11)
    x = random_feasible(SYS, rng)
    g = gradient(SYS, x)
    g_ref = gradient(SYS, -x[::-1])
    assert np.max(np.abs(g_ref + g[::-1])) < 1e-10


def test_gradient_infeasible_raises():
    with pytest.raises(InfeasibleError):
        gradient(SYS, np.linspace(-0.9, -0.5, SYS.n))


def test_finite_difference_gradient_and_hessian():
    rng = np.random.default_rng(0x5EED)
    for sys_ in (SYS, ChargeSystem(k=3, l=3, q=0.75), ChargeSystem(k=4, l=1, q=0.25)):
        x = random_feasible(sys_, rng)
        g = gradient(sys_, x)
        h = hessian(sys_, x)
        step = 1e-6
        for i in range(len(x)):
            xp, xm = x.copy(), x.copy()
            xp[i] += step
            xm[i] -= step
            fd_g = (energy(sys_, xp) - energy(sys_, xm)) / (2 * step)
            assert abs(fd_g - g[i]) / (1 + abs(g[i])) < 1e-5
            fd_h = (gradient(sys_, xp) - gradient(sys_, xm)) / (2 * step)
            assert np.max(np.abs(fd_h - h[i]) / (1 + np.abs(h[i]))) < 1e-4


def test_hessian_symmetric_diag_dominant_pd():
    rng = np.random.default_rng(23)
    for _ in range(5):
        x = random_feasible(SYS, rng)
        h = hessian(SYS, x)
        assert np.array_equal(h, h.T)
        # H is the pairs' Laplacian plus diag(m): each row's dominance
        # margin is the fixed charges' curvature m_i, positive at q >= 1/4
        diag = np.diag(h)
        off = np.abs(h).sum(axis=1) - np.abs(diag)
        m = fixed_margin_reference(SYS, x)
        assert np.all(np.abs(diag - off - m) <= 1e-13 * diag)
        assert np.all(m > 0)
        assert is_positive_definite(h)


def test_solver_matches_zeros():
    res = solve_equilibrium(SYS)
    assert res.converged
    assert np.max(np.abs(res.x_star - theorem_zero_set(SYS))) < 1e-10
    assert res.diag_dominant and res.hessian_pd


def test_solver_from_perturbed_start():
    zs = theorem_zero_set(SYS)
    rng = np.random.default_rng(0x5EED)
    pert = zs + rng.uniform(-1e-2, 1e-2, len(zs))
    assert is_feasible(SYS, pert)
    res = solve_equilibrium(SYS, init=pert)
    assert res.converged
    assert np.max(np.abs(res.x_star - zs)) < 1e-10


def test_solver_q_quarter_case():
    # q = 1/4 makes the interior charges inert (q_tilde = 0)
    sys_ = ChargeSystem(k=3, l=1, q=0.25)
    assert sys_.q_tilde == 0.0
    res = solve_equilibrium(sys_)
    expect = zeros(SievedFamily(SievedKind.FIRST, F(1, 2), 3), 3).values
    assert np.max(np.abs(res.x_star - expect)) < 1e-10


def test_solver_evaluates_energy_once_per_candidate(monkeypatch):
    # one energy for the start, then one per trial step: the first trial of
    # each iteration and one more per backtrack; the accepted candidate's
    # energy is carried, not evaluated again.  The solver reads each energy
    # with its gaps from _energy_and_gaps, so that is what is counted
    import sievedops.electrostatics as es

    calls = []
    energy_and_gaps = es._energy_and_gaps

    def counted(sys_, x):
        calls.append(1)
        return energy_and_gaps(sys_, x)

    monkeypatch.setattr(es, "_energy_and_gaps", counted)
    # the second system backtracks 3 times from its squeezed start
    sys_b = ChargeSystem(k=3, l=12, q=0.25)
    for sys_, init in ((SYS, None), (sys_b, squeezed_init(sys_b))):
        calls.clear()
        res = solve_equilibrium(sys_, init=init)
        assert res.converged and res.iterations > 1
        backtracks = sum(step.backtracks for step in res.trace)
        assert len(calls) == res.iterations + 1 + backtracks
        assert res.energy == energy(sys_, res.x_star)
    assert backtracks > 0


def test_solver_checks_feasibility_once_per_energy(monkeypatch):
    # the start point is checked through its energy alone, so every
    # feasibility check is the one inside an energy evaluation, which the
    # solver makes through _energy_and_gaps
    import sievedops.electrostatics as es

    checks, energies = [], []

    def counted(fn, calls):
        def wrapper(sys_, x):
            calls.append(1)
            return fn(sys_, x)
        return wrapper

    monkeypatch.setattr(es, "is_feasible", counted(is_feasible, checks))
    monkeypatch.setattr(es, "_energy_and_gaps", counted(es._energy_and_gaps, energies))
    for sys_ in (SYS, ChargeSystem(k=5, l=12, q=0.25)):
        checks.clear()
        energies.clear()
        assert solve_equilibrium(sys_).converged
        assert len(checks) == len(energies) > 1
    checks.clear()
    energies.clear()
    with pytest.raises(InfeasibleError, match="initial configuration infeasible"):
        solve_equilibrium(SYS, init=np.zeros(SYS.n))
    assert len(checks) == len(energies) == 1


def test_solver_trace():
    # the first charge of block 1 starts 9e-7 from its fence; the squeezed
    # blocks make the line search backtrack
    sys_ = ChargeSystem(k=3, l=12, q=0.25)
    lo, _ = sys_.charge_bounds
    init = squeezed_init(sys_)
    init[12] = lo[12] + 9e-7
    res = solve_equilibrium(sys_, init=init)
    assert res.converged and len(res.trace) == res.iterations
    first, last = res.trace[0], res.trace[-1]
    assert first.energy == energy(sys_, init)
    assert max(step.backtracks for step in res.trace) > 0
    assert last.decrement <= 1e-15 * (1 + abs(last.energy))
    assert all(step.energy >= nxt.energy for step, nxt in zip(res.trace, res.trace[1:]))
    assert all(step.t == 0.5**step.backtracks for step in res.trace)


@pytest.mark.parametrize("q,k,l", [(0.25, 3, 12), (0.25, 5, 12), (1.0, 5, 2)])
def test_trial_points_stop_halfway_to_the_inner_bounds(q, k, l, monkeypatch):
    # every trial point reads its energy through _energy_and_gaps, the start
    # first; the trace says which trial each iteration accepted
    import sievedops.electrostatics as es

    points = []
    energy_and_gaps = es._energy_and_gaps

    def recorded(sys_, x):
        points.append(x)
        return energy_and_gaps(sys_, x)

    monkeypatch.setattr(es, "_energy_and_gaps", recorded)
    sys_ = ChargeSystem(k=k, l=l, q=q)
    lo, hi = _inner_bounds(sys_)
    res = solve_equilibrium(sys_, init=squeezed_init(sys_))
    assert res.converged
    x, i, capped = points[0], 1, 0
    for step in res.trace:
        for cand in points[i:i + step.backtracks + 1]:
            floor, ceiling = (x + lo) / 2, (x + hi) / 2
            assert np.all(cand >= floor) and np.all(cand <= ceiling)
            capped += int(np.count_nonzero((cand == floor) | (cand == ceiling)))
        i += step.backtracks + 1
        x = points[i - 1]
    assert i == len(points)
    # the squeezed start makes Newton aim past the midpoint
    assert capped > 0


def test_solver_converges_from_a_charge_pushed_against_its_fence():
    # block 1 is cleared from its left half, so the last charge of block 0,
    # put near or on its inner upper bound, is pushed against it; the
    # halfway clip alone keeps it inside
    sys_ = ChargeSystem(k=3, l=12, q=0.25)
    _, hi = _inner_bounds(sys_)
    for offset in (9e-7, 1.1e-6, 1e-13, 0.0):
        x = default_init(sys_)
        x[12:24] = np.linspace(0.0, 0.45, 12)
        x[11] = hi[11] - offset
        assert gradient(sys_, x)[11] < 0.0
        res = solve_equilibrium(sys_, init=x)
        assert res.converged and res.iterations == 9
        assert np.max(np.abs(res.x_star - theorem_zero_set(sys_))) < 1e-10


def test_singular_hessian_stops_the_solve_unconverged():
    # two charges about 4e-16 apart across the uncharged fence cos(pi/4):
    # their 2 x 2 block of H rounds to a singular matrix
    sys_ = ChargeSystem(k=4, l=1, q=0.25)
    init = np.array([-0.9073483442348216, -0.023761603693008948,
                     0.7071067811865474, 0.7071067811865478])
    assert is_feasible(sys_, init)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(hessian(sys_, init), gradient(sys_, init))
    res = solve_equilibrium(sys_, init=init)
    assert not res.converged and res.iterations == 0 and res.trace == ()
    assert np.array_equal(res.x_star, init)
    assert res.energy == energy(sys_, init)


def test_charge_system_geometry_cached():
    sys_ = ChargeSystem(k=4, l=3, q=1.0)
    assert sys_.fixed_charges is sys_.fixed_charges
    assert sys_.column_weights is sys_.column_weights
    pos, size = sys_.fixed_charges
    # the interior points ascending, then -1 and 1
    assert pos.tolist() == partition_points(4)[1:-1].tolist() + [-1.0, 1.0]
    assert size.tolist() == [1.5, 1.5, 1.5, 1.0, 1.0]
    # a movable pair is met from both ends, so it weighs 1 in the energy
    energy_w, field_w = sys_.column_weights
    assert energy_w.tolist() == [1.0] * 12 + [3.0, 3.0, 3.0, 2.0, 2.0]
    assert field_w.tolist() == [2.0] * 12 + [3.0, 3.0, 3.0, 2.0, 2.0]


def test_solver_rejects_infeasible_init():
    with pytest.raises(InfeasibleError):
        solve_equilibrium(SYS, init=np.zeros(SYS.n))


def test_local_minimum_property():
    res = solve_equilibrium(SYS)
    e_star = res.energy
    rng = np.random.default_rng(0x5EED)
    trials = 0
    while trials < 100:
        cand = res.x_star + rng.uniform(-5e-3, 5e-3, SYS.n)
        if not is_feasible(SYS, cand):
            continue
        trials += 1
        assert energy(SYS, cand) > e_star


def test_partial_fraction_rhs_matches_gradient_form():
    # at a zero set, grad = 0 means p''/p' equals the partial-fraction sum
    zs = theorem_zero_set(SYS)
    rhs = partial_fraction_rhs(SYS, zs)
    assert rhs.shape == zs.shape


def test_psi_phi_mn_identity():
    # M_n'/M_n - Psi/Phi equals the negated partial-fraction right side
    from sievedops.semiclassical import pearson_data, structure_pair

    sys_ = ChargeSystem(k=4, l=2, q=1.0)
    fam = SievedFamily(SievedKind.FIRST, sys_.lam, 4)
    pd = pearson_data(fam)
    sp = structure_pair(fam, sys_.n)
    m_c, dm_c = float_coeffs(sp.m), float_coeffs(sp.m.derivative())
    phi_c, psi_c = float_coeffs(pd.phi), float_coeffs(pd.psi)
    rng = np.random.default_rng(0x5EED)
    pts = partition_points(sys_.k)
    checked = 0
    while checked < 32:
        t = float(rng.uniform(-1, 1))
        if np.min(np.abs(pts - t)) < 5e-2:
            continue
        checked += 1
        lhs = polyval(t, dm_c) / polyval(t, m_c) - polyval(t, psi_c) / polyval(t, phi_c)
        rhs = float(partial_fraction_rhs(sys_, np.array([t]))[0])
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize(
    "k,l,q", [(5, 2, 1.0), (3, 3, 0.75), (4, 1, 0.25), (3, 1, 0.5), (5, 6, 1.0)]
)
def test_verify_theorem(k, l, q):
    rep = verify_theorem(ChargeSystem(k=k, l=l, q=q))
    assert rep["all_ok"], rep


def test_verify_theorem_psi_phi_exact(monkeypatch):
    # one part in 2^40 (9.1e-13) is below a relative 1e-12 float bound
    import dataclasses

    from sievedops import semiclassical

    sys_ = ChargeSystem(k=5, l=2, q=1.0)
    rep = verify_theorem(sys_)
    assert rep["psi_phi_ok"] and rep["psi_phi_resid"] == 0.0
    exact = semiclassical.pearson_data

    def perturbed(fam):
        pd = exact(fam)
        return dataclasses.replace(pd, psi=pd.psi.scale(1 + F(1, 2**40)))

    monkeypatch.setattr(semiclassical, "pearson_data", perturbed)
    rep = verify_theorem(sys_)
    assert not rep["psi_phi_ok"] and not rep["all_ok"]
    assert rep["psi_phi_resid"] > 0.0


def test_energy_baseline_regression():
    # finite value at the theorem zero set, frozen once observed stable
    e = energy(SYS, theorem_zero_set(SYS))
    assert math.isfinite(e)
    assert abs(e - energy(SYS, solve_equilibrium(SYS).x_star)) < 1e-9


# the theorem cells of the float-model benchmark workload
FLOAT_MODEL_CELLS = [
    (q, k, l) for q in (0.25, 0.75, 1.25) for k in (3, 4, 5) for l in (4, 12)
]


@pytest.mark.parametrize("q,k,l", FLOAT_MODEL_CELLS)
def test_verify_theorem_float_model_cells(q, k, l):
    # at q = 1/4 and l = 12 the solver used to pin a charge at a block fence
    # and stall; at q = 3/4 it stopped short of an absolute gradient bound
    rep = verify_theorem(ChargeSystem(k=k, l=l, q=q))
    assert rep["solver_ok"] and rep["all_ok"], rep


def test_solver_q_quarter_lands_on_chebyshev_zeros():
    # q = 1/4 gives lam = 0: the equilibrium is the zero set of T_36
    res = solve_equilibrium(ChargeSystem(k=3, l=12, q=0.25))
    expect = np.cos((2 * np.arange(36, 0, -1) - 1) * math.pi / 72)
    assert res.converged
    assert np.max(np.abs(res.x_star - expect)) < 1e-10


@pytest.mark.parametrize("q,k", [(q, k) for q in (0.25, 0.75, 1.25) for k in (3, 4, 5)])
def test_solver_from_perturbed_start_l12(q, k):
    sys_ = ChargeSystem(k=k, l=12, q=q)
    zs = theorem_zero_set(sys_)
    rng = np.random.default_rng(0x5EED)
    pert = zs + rng.uniform(-1e-2, 1e-2, len(zs))
    while not is_feasible(sys_, pert):
        pert = zs + rng.uniform(-1e-2, 1e-2, len(zs))
    res = solve_equilibrium(sys_, init=pert)
    assert res.converged
    assert np.max(np.abs(res.x_star - zs)) < 1e-10


# Newton iterations from the default start of the l = 12 float-model cells;
# every l = 4 cell takes 7, or 6 at q = 0.25
FLOAT_MODEL_L12_ITERATIONS = {
    (0.25, 3): 8, (0.25, 4): 8, (0.25, 5): 7,
    (0.75, 3): 9, (0.75, 4): 9, (0.75, 5): 9,
    (1.25, 3): 10, (1.25, 4): 10, (1.25, 5): 9,
}


@pytest.mark.parametrize("q,k,l", FLOAT_MODEL_CELLS)
def test_solver_iterations_float_model_cells(q, k, l):
    expect = (6 if q == 0.25 else 7) if l == 4 else FLOAT_MODEL_L12_ITERATIONS[(q, k)]
    assert solve_equilibrium(ChargeSystem(k=k, l=l, q=q)).iterations == expect


# the cells of verify-electrostatics
VERIFY_CELLS = [
    (q, k, l) for q in (0.25, 0.5, 0.75, 1.0, 1.5) for k in (3, 4, 5) for l in (1, 2, 3)
]


def result_bits(res) -> tuple:
    """Every field of a solver result, the floats as their bytes."""
    return (res.x_star.tobytes(), np.array([res.energy, res.grad_inf_norm]).tobytes(),
            np.array(res.trace, dtype=float).tobytes(), res.hessian_pd,
            res.diag_dominant, res.iterations, res.converged)


@pytest.mark.parametrize("q,k,l", FLOAT_MODEL_CELLS + VERIFY_CELLS + [(1.0, 10, 60)])
def test_solver_matches_reference_loop_bit_for_bit(q, k, l):
    # the solver shares each trial point's gaps between its energy and the
    # next step's derivatives; iterates, trace and flags are the plain loop's
    sys_ = ChargeSystem(k=k, l=l, q=q)
    assert result_bits(solve_equilibrium(sys_)) == result_bits(
        solve_equilibrium_reference(sys_))


@pytest.mark.parametrize("q,k,l", FLOAT_MODEL_CELLS)
def test_energy_and_derivatives_match_term_by_term_oracle(q, k, l):
    import sievedops.electrostatics as es

    sys_ = ChargeSystem(k=k, l=l, q=q)
    rng = np.random.default_rng(0x5EED)
    for x in [default_init(sys_)] + [random_feasible(sys_, rng) for _ in range(3)]:
        e_ref = energy_reference(sys_, x)
        assert abs(energy(sys_, x) - e_ref) <= 1e-10 * abs(e_ref)
        g_ref, h_ref = derivatives_reference(sys_, x)
        g, h = es._derivatives(sys_, es._gaps(sys_, x))
        assert np.max(np.abs(g - g_ref)) <= 1e-10 * np.max(np.abs(g_ref))
        assert np.max(np.abs(h - h_ref)) <= 1e-10 * np.max(np.abs(h_ref))
        assert np.array_equal(gradient(sys_, x), g)
        assert np.array_equal(hessian(sys_, x), h)


def exact_gradient(sys_, x):
    """The energy's gradient at the float positions x, in exact rationals,
    the fixed charges at the float points cos(j pi / k) and +-1."""
    xs = [F(v) for v in x.tolist()]
    fixed = [(F(c), 2 * F(sys_.q_tilde)) for c in partition_points(sys_.k)[1:-1].tolist()]
    fixed += [(F(-1), 2 * F(sys_.q)), (F(1), 2 * F(sys_.q))]
    out = []
    for i, xi in enumerate(xs):
        g = -sum(F(2) / (xi - xj) for j, xj in enumerate(xs) if j != i)
        g -= sum(w / (xi - c) for c, w in fixed)
        out.append(float(g))
    return np.array(out)


@pytest.mark.parametrize("q,k,l", [(0.25, 5, 12), (1.0, 5, 20)])
def test_gradient_at_zeros_matches_exact_rationals(q, k, l):
    # the zeros crowd the endpoints, where the term -4qx / (x^2 - 1) of the
    # term-by-term formula loses digits to the cancellation in x^2 - 1
    sys_ = ChargeSystem(k=k, l=l, q=q)
    xz = theorem_zero_set(sys_)
    exact = exact_gradient(sys_, xz)
    assert np.max(np.abs(gradient(sys_, xz) - exact)) < 1e-12
    assert np.max(np.abs(derivatives_reference(sys_, xz)[0] - exact)) > 1e-12
