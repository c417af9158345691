import numpy as np
import pytest

import semifold as sf
import semifold.continuation as continuation
from semifold.continuation import (bisect_alpha, detect_fold, refine_fold,
                                   trace_branch, two_solutions)
from semifold.errors import (InitialPointInvalid, NoConvergence,
                             NoFoldInBranch, QueryPastFold)
from semifold.nonlinear import jacobian, newton_solve, residual
from semifold.subsuper import build_subsolution
from semifold.verify import tau_star
from branching import make_branch


@pytest.fixture(scope="module")
def inst():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="module")
def branch(inst):
    return make_branch(inst)


@pytest.fixture(scope="module")
def fold(inst, branch):
    return detect_fold(branch, inst)


def test_branch_passes_the_turn(inst, branch):
    ts = branch.t_values
    assert branch.status in ("window_exit", "max_points")
    idx = int(np.argmax(ts))
    assert 0 < idx < len(branch) - 1  # interior turn: both segments traced
    assert (np.diff(ts[: idx + 1]) > 0).all()
    assert ts[-1] < ts[idx]


def test_branch_points_are_solutions(inst, branch):
    rs = inst.A.row_scale()
    for p in branch.points[:: max(len(branch) // 8, 1)]:
        F = residual(inst, p.u, p.t)
        assert np.abs(F).max() <= 1e-8 * rs


def test_stability_changes_across_fold(inst, branch):
    ts = branch.t_values
    idx = int(np.argmax(ts))
    assert branch.points[0].stability_mu > 0
    assert branch.points[-1].stability_mu < 0


def test_trace_rejects_non_solution_start(inst):
    with pytest.raises(InitialPointInvalid):
        trace_branch(inst, 0.0, np.ones(inst.grid.n))


def test_fold_refinement_is_sharp(inst, branch, fold):
    """At the refined fold the Jacobian's stability indicator vanishes to
    rounding and the extended-system residual is tiny."""
    assert abs(fold.u_fold.stability_mu) < 1e-8
    assert fold.alpha_fit == pytest.approx(fold.alpha, abs=0.05)
    # a nearby Newton polish stays within the expected fold distance
    assert np.abs(residual(inst, fold.u_fold.u, fold.alpha)).max() \
        < 1e-4 * inst.A.row_scale()


def test_fit_fallback_is_labelled(inst, branch, fold, monkeypatch):
    assert fold.method == "arclength"

    def fail(*args, **kwargs):
        raise NoConvergence("fold refinement did not converge")

    monkeypatch.setattr(continuation, "refine_fold", fail)
    fit = detect_fold(branch, inst)
    assert fit.method == "fit"
    assert fit.alpha == fit.alpha_fit


def test_bisection_agrees_with_arclength(inst, branch, fold):
    p0 = branch.points[0]
    bis = bisect_alpha(inst, p0.t, p0.u,
                       dt_init=0.25 * (fold.alpha - p0.t),
                       dt_min=1e-6 * (1.0 + abs(fold.alpha)))
    assert abs(bis.alpha - fold.alpha) <= 1e-3 * (1.0 + abs(fold.alpha))
    assert bis.alpha <= tau_star(inst)
    assert fold.alpha <= tau_star(inst)


def test_bisect_alpha_respects_cap(inst, branch, fold):
    p0 = branch.points[0]
    cap = fold.alpha - 2.0
    out = bisect_alpha(inst, p0.t, p0.u, dt_init=1.0, dt_min=1e-4, t_cap=cap)
    assert out.hit_cap
    assert out.alpha == pytest.approx(cap)


def test_no_fold_in_short_window(inst):
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts)
    start = newton_solve(inst, build_subsolution(inst, t0), t0)
    # window closes long before the branch can turn
    stub = trace_branch(inst, t0, start.u, step_ds=0.5,
                        t_window=(t0 - 1.0, t0 + 3.0))
    with pytest.raises(NoFoldInBranch):
        detect_fold(stub, inst)


def test_two_solutions_ordering_and_stability(inst, branch, fold):
    t_q = fold.alpha - 1.0
    lo, hi = two_solutions(inst, t_q, branch, fold)
    assert (lo.u <= hi.u + 1e-9).all()
    assert np.abs(hi.u - lo.u).max() > 1e-3
    assert lo.stability_mu > 0 > hi.stability_mu
    assert lo.residual_inf <= 1e-8 * inst.A.row_scale()
    assert hi.residual_inf <= 1e-8 * inst.A.row_scale()


def test_query_past_fold_raises(inst, branch, fold):
    with pytest.raises(QueryPastFold):
        two_solutions(inst, fold.alpha + 0.1, branch, fold)


def test_refine_fold_from_crude_seed(inst, branch, fold):
    ts = branch.t_values
    idx = int(np.argmax(ts))
    v0 = np.ones(inst.grid.n)
    u, alpha, v = refine_fold(inst, branch.points[idx].u.copy(),
                              float(ts[idx]), v0)
    assert alpha == pytest.approx(fold.alpha, abs=1e-8)
    J = jacobian(inst, u)
    assert np.abs(J.apply(v)).max() < 1e-6 * inst.A.row_scale() * np.abs(v).max()
