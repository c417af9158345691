import numpy as np
import pytest

import semifold as sf
import semifold.nonlinear as nonlinear
import semifold.subsuper as subsuper
from semifold.config import (CANONICAL_CONFIG, COARSE_N,
                             build_scenario_instance, parse_config)
from semifold.errors import (MonotonicityBroken, NoConvergence,
                             SingularOperator)
from semifold.grid import factor_tridiagonal, solve_tridiagonal
from semifold.nonlinear import (certify, monotone_newton, monotone_rise,
                                picard_solve, residual)
from semifold.subsuper import (OrderedInterval, build_subsolution,
                               monotone_iterate)
from reference import check_order_interval

T_DEEP = -300.0
T_SUPER = -50.0


@pytest.fixture(scope="module")
def inst():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="module")
def pair(inst):
    """The subsolution at T_DEEP, and the minimal solution at T_SUPER: a
    supersolution at T_DEEP, as F(v, T_DEEP) = (T_SUPER - T_DEEP) P phi1."""
    w = build_subsolution(inst, T_DEEP)
    v = monotone_newton(inst, T_SUPER)[0].u
    assert residual(inst, v, T_DEEP).min() > 0.0
    return OrderedInterval(lower=w, upper=v)


def test_subsolution_defect_sign(inst):
    """A w - P g(w) - P t phi1 <= 0 at every node: the slack inequality
    g(s) >= mu_lower s - theta transfers to the discrete residual."""
    for t in (T_DEEP, -50.0, 0.0):
        w = build_subsolution(inst, t)
        F = residual(inst, w, t)
        assert F.max() <= 1e-10 * inst.A.row_scale()


def test_subsolution_is_negative_for_nonpositive_forcing(inst):
    w = build_subsolution(inst, 0.0)
    assert w.max() < 0.0


def test_subsolution_needs_subcritical_slope(inst):
    from dataclasses import replace

    nl = sf.smooth_ramp_nonlinearity(1.5 * inst.eigen.lambda1,
                                     2.0 * inst.eigen.lambda1)
    bad = replace(inst, nonlinearity=nl)
    with pytest.raises(SingularOperator):
        build_subsolution(bad, 0.0)


def test_monotone_limits_coincide(inst, pair):
    lo = monotone_iterate(inst, T_DEEP, pair, start="lower")
    hi = monotone_iterate(inst, T_DEEP, pair, start="upper")
    assert np.abs(lo.u - hi.u).max() < 1e-8
    assert lo.residual_inf <= 1e-8 * inst.A.row_scale()
    assert (lo.u >= pair.lower - 1e-9).all()
    assert (lo.u <= pair.upper + 1e-9).all()


def test_monotone_limit_matches_newton(inst, pair):
    from semifold.nonlinear import newton_solve

    lo = monotone_iterate(inst, T_DEEP, pair)
    nw = newton_solve(inst, pair.lower, T_DEEP)
    assert np.abs(lo.u - nw.u).max() < 1e-7 * (1.0 + np.abs(nw.u).max())


def test_insufficient_shift_is_detected(inst, pair):
    """A negative shift below -mu_lower makes the update map s -> g(s) + c s
    decreasing, so the iterates cannot stay ordered and the step-wise
    check must catch it rather than iterate in silence."""
    bad_shift = -1.5 * inst.nonlinearity.mu_lower
    with pytest.raises(MonotonicityBroken):
        monotone_iterate(inst, T_DEEP, pair, shift=bad_shift, start="upper")


@pytest.mark.parametrize("caller", ["picard", "monotone"])
def test_fixed_point_loop_factors_once(inst, pair, monkeypatch, caller):
    """picard_solve and monotone_iterate run one loop: one
    factor_tridiagonal call per call, of A or A + cP, and every step a
    solve on that factor.  The last step is dropped where the loop keeps
    its iterate at the rounding floor."""
    factors, solved_on = [], []

    def factor(op):
        factors.append(factor_tridiagonal(op))
        return factors[-1]

    def solve(op, rhs):
        solved_on.append(op)
        return solve_tridiagonal(op, rhs)

    monkeypatch.setattr(nonlinear, "factor_tridiagonal", factor)
    monkeypatch.setattr(nonlinear, "solve_tridiagonal", solve)
    if caller == "picard":
        prof = picard_solve(inst, pair.lower, T_DEEP)
    else:
        prof = monotone_iterate(inst, T_DEEP, pair)
    assert len(factors) == 1
    assert all(op is factors[0] for op in solved_on)
    assert 1 <= prof.iterations <= len(solved_on) <= prof.iterations + 1


@pytest.mark.parametrize("start", ["lower", "upper"])
def test_monotone_limit_is_monotone_newtons_near_the_fold(
        canonical, fixture_data, start):
    """At t = alpha* - 1 on the canonical n = 4000 grid the steps contract
    slowly; run to the rounding floor, the iteration from either end of
    [subsolution, minimal solution at alpha* - 1/2] lands within 1e-10
    (1 + |u|_inf) of monotone Newton's solution (a stop on a step of
    1e-10 left 2.2e-10)."""
    alpha = fixture_data["alpha_star"]["value"]
    t = alpha - 1.0
    pair = OrderedInterval(lower=build_subsolution(canonical, t),
                           upper=monotone_newton(canonical, alpha - 0.5)[0].u)
    u = monotone_newton(canonical, t)[0].u
    prof = monotone_iterate(canonical, t, pair, start=start)
    assert np.abs(prof.u - u).max() <= 1e-10 * (1.0 + np.abs(u).max())


def test_order_interval_membership(inst, pair):
    sol = monotone_iterate(inst, T_DEEP, pair)
    rep = check_order_interval(sol.u, pair, inst.grid)
    assert rep["member"]
    assert rep["lower_tail_gap"] > 0 and rep["upper_tail_gap"] > 0
    outside = check_order_interval(pair.upper + 1.0, pair, inst.grid)
    assert not outside["member"]


def test_profile_metadata(inst, pair):
    sol = monotone_iterate(inst, T_DEEP, pair)
    assert sol.t == T_DEEP
    assert sol.iterations > 0
    assert sol.residual_inf == np.abs(residual(inst, sol.u, T_DEEP)).max()


def _iterates(monkeypatch, inst, t):
    """monotone_newton's limit and every iterate whose residual it, or the
    certificate after it, evaluates, in order."""
    seen = []

    def recording(inst_, u, t_):
        F = residual(inst_, u, t_)
        seen.append((u.copy(), F))
        return F

    monkeypatch.setattr(nonlinear, "residual", recording)
    return monotone_newton(inst, t), seen


@pytest.mark.parametrize("stretch", ["1.0", "1.0005"])
def test_monotone_newton_rises_through_subsolutions(monkeypatch, stretch):
    """On the canonical n = 4000 grid and on a stretched one, every Newton
    iterate from the subsolution lies above the one before (to rounding)
    and is itself a subsolution (F <= 0 to rounding)."""
    inst = build_scenario_instance(parse_config(
        CANONICAL_CONFIG.replace("stretch = 1.0", f"stretch = {stretch}")))
    rs = inst.A.row_scale()
    for t in (T_DEEP, -50.0, -7.04):
        (_, _, _, h, defect), seen = _iterates(monkeypatch, inst, t)
        assert len(seen) >= 3
        assert np.array_equal(seen[0][0], build_subsolution(inst, t))
        for (u, F), (u_next, _) in zip(seen, seen[1:]):
            assert (u_next >= u - 1e-8 * (1.0 + np.abs(u).max())).all()
            assert F.max() <= 1e-13 * rs
        assert defect <= 1e-13
        assert 0.0 <= h <= 0.5


def test_monotone_newton_matches_monotone_iteration(inst, pair):
    lo = monotone_iterate(inst, T_DEEP, pair)
    minimal = monotone_newton(inst, T_DEEP)[0]
    assert np.abs(minimal.u - lo.u).max() <= 5e-8


def test_monotone_newton_is_the_certified_rise(inst):
    """monotone_newton is monotone_rise from the subsolution, then
    certify, bit for bit."""
    u, steps, defect = monotone_rise(inst, -50.0)
    minimal, eta, beta, h, rel_defect = monotone_newton(inst, -50.0)
    polished, *cert = certify(inst, u, -50.0)
    assert np.array_equal(minimal.u, polished)
    assert [eta, beta, h] == cert
    assert minimal.iterations == steps
    assert rel_defect == defect / inst.A.row_scale()


@pytest.fixture(scope="module")
def fine():
    return sf.canonical_instance(n=16000)


def _fine_rise(inst, t):
    """monotone_newton's result from the rise on inst itself: (u,
    [eta, beta, h], steps, defect / rs)."""
    u, steps, defect = monotone_rise(inst, t)
    u, *cert = certify(inst, u, t)
    return u, cert, steps, defect / inst.A.row_scale()


@pytest.mark.parametrize("t", [T_SUPER, -24.86, -7.04])
def test_monotone_newton_starts_from_the_twin(fine, monkeypatch, t):
    """Above COARSE_N the rise runs on the twin, and certify from its
    lifted limit reaches the fine rise's certified solution to 1e-9
    (1 + |u|_inf), with h <= 1/2 and fewer solves on the fine grid."""
    sizes, solve = [], nonlinear.solve_tridiagonal

    def counted(op, rhs):
        sizes.append(len(rhs))
        return solve(op, rhs)

    for module in (nonlinear, subsuper):
        monkeypatch.setattr(module, "solve_tridiagonal", counted)
    u_ref = _fine_rise(fine, t)[0]
    fine_rise_solves = sizes.count(fine.grid.n)
    sizes.clear()
    minimal, _, _, h, _ = monotone_newton(fine, t)
    assert h <= 0.5
    assert np.abs(minimal.u - u_ref).max() <= 1e-9 * (1.0 + np.abs(u_ref).max())
    assert sizes.count(COARSE_N) > 0
    assert sizes.count(fine.grid.n) < fine_rise_solves


def test_certify_stops_at_the_rounding_floor(monkeypatch):
    """At n = 64000 and t = -9.536, certify from the twin's lifted limit
    stops once its correction no longer halves, rather than stepping on
    while the correction falls by chance at the rounding floor: at most
    5 fine-grid solve columns in all, x = J^-1 1 included, and h <= 1/2."""
    inst = sf.canonical_instance(n=64000)
    columns, solve = [], nonlinear.solve_tridiagonal

    def counted(op, rhs):
        if len(rhs) == inst.grid.n:
            columns.append(1 if rhs.ndim == 1 else rhs.shape[1])
        return solve(op, rhs)

    for module in (nonlinear, subsuper):
        monkeypatch.setattr(module, "solve_tridiagonal", counted)
    h = monotone_newton(inst, -9.536)[3]
    assert h <= 0.5
    assert sum(columns) <= 5


@pytest.mark.parametrize("failure", ["twin rise raises", "lift uncertified"])
def test_monotone_newton_falls_back_to_the_fine_rise(fine, monkeypatch,
                                                     failure):
    """Where the twin's rise raises, or certify from its lifted limit
    finds h > 1/2, monotone_newton is the rise from the subsolution on
    the fine grid, then certify, bit for bit."""
    t = -7.04
    u, cert, steps, defect = _fine_rise(fine, t)
    rise, certified = nonlinear.monotone_rise, nonlinear.certify
    lifted = []

    def twin_fails(inst, t_, u0=None):
        if inst is fine.twin:
            raise MonotonicityBroken("the twin's rise broke")
        return rise(inst, t_, u0)

    def lift_fails(inst, u0, t_):
        out = certified(inst, u0, t_)
        lifted.append(u0)
        return (*out[:3], 1.0) if len(lifted) == 1 else out

    if failure == "twin rise raises":
        monkeypatch.setattr(nonlinear, "monotone_rise", twin_fails)
    else:
        monkeypatch.setattr(nonlinear, "certify", lift_fails)
    minimal, *got, rel_defect = monotone_newton(fine, t)
    assert np.array_equal(minimal.u, u)
    assert got == cert
    assert minimal.iterations == steps
    assert rel_defect == defect
    if failure == "lift uncertified":
        assert len(lifted) == 2


@pytest.mark.parametrize("t_low, t", [(-50.0, -24.86), (-7.04, -6.663)])
def test_monotone_rise_from_a_smaller_minimal_solution(inst, t_low, t):
    """The minimal solution at a smaller t is a subsolution at t: the
    rise from it reaches the minimal solution at t."""
    cold = monotone_rise(inst, t)[0]
    warm, _, defect = monotone_rise(inst, t, monotone_rise(inst, t_low)[0])
    assert np.abs(warm - cold).max() <= 1e-9 * (1.0 + np.abs(cold).max())
    assert defect <= 1e-13 * inst.A.row_scale()


def test_monotone_newton_steps_up_to_the_fold(canonical, canonical_fold):
    """From deep below the fold to 1.4e-3 under it, at most 15 steps."""
    for t in (-300.0, -50.0, -24.86, -7.04, -6.663,
              canonical_fold.t - 1.4e-3):
        minimal, _, _, h, _ = monotone_newton(canonical, t)
        assert 1 <= minimal.iterations <= 15
        assert h <= 0.5
        assert minimal.residual_inf <= 1e-10 * canonical.A.row_scale()


def test_monotone_newton_reproduces_the_fixture_solutions(canonical,
                                                          fixture_solutions):
    """The stored solutions came from the ordered-interval iteration."""
    for t, u in fixture_solutions:
        minimal = monotone_newton(canonical, t)[0]
        assert np.abs(minimal.u - u).max() <= 1e-9 * np.abs(u).max()


def test_monotone_newton_counts_the_steps_it_ran_out_of(inst, monkeypatch):
    """Out of steps before its correction stops, monotone Newton raises,
    reporting every correction it applied."""
    assert monotone_newton(inst, -7.04)[0].iterations > 2
    monkeypatch.setattr(nonlinear, "FOLD_MAXIT", 2)
    with pytest.raises(NoConvergence, match="in 2 steps") as exc:
        monotone_newton(inst, -7.04)
    assert exc.value.iterations == 2


def test_monotone_newton_refuses_past_the_fold(inst):
    with pytest.raises(sf.SemifoldError, match="no minimal solution"):
        monotone_newton(inst, sf.tau_star(inst) + 1.0)


def test_monotone_newton_catches_a_concave_g(inst):
    """No preset has a concave g; a custom one is refused at run time by
    the first correction that falls."""
    from dataclasses import replace

    lam = inst.eigen.lambda1
    concave = replace(inst, nonlinearity=sf.smooth_ramp_nonlinearity(
        0.5 * lam, 0.1 * lam))
    with pytest.raises(MonotonicityBroken, match="not convex"):
        monotone_newton(concave, 0.0)
