import numpy as np
import pytest

import semifold as sf
from semifold.errors import MonotonicityBroken, RampFailed, SingularOperator
from semifold.nonlinear import residual
from semifold.subsuper import (OrderedInterval, build_subsolution,
                               build_supersolution, check_order_interval,
                               monotone_iterate)

T_DEEP = -300.0


@pytest.fixture(scope="module")
def inst():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="module")
def pair(inst):
    w = build_subsolution(inst, T_DEEP)
    v, t_thr = build_supersolution(inst, 1.0, 5.0, 10.0)
    assert T_DEEP <= t_thr
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


def test_supersolution_defect_sign(inst, pair):
    v, t_thr = build_supersolution(inst, 1.0, 5.0, 10.0)
    F = residual(inst, v, t_thr)
    assert F.min() >= -1e-8 * inst.A.row_scale()
    # strictly below the threshold the defect has a strict margin
    F2 = residual(inst, v, t_thr - 1.0)
    assert F2.min() > 0.0


def test_supersolution_rejects_impossible_plateau(inst):
    with pytest.raises(RampFailed):
        build_supersolution(inst, -1.0, 5.0, 10.0)
    with pytest.raises(RampFailed):
        build_supersolution(inst, 1.0, 30.0, 20.0)


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
