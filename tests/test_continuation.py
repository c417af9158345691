import numpy as np
import pytest

import semifold as sf
import semifold.continuation as continuation
import semifold.nonlinear as nonlinear
from semifold.config import (CANONICAL_CONFIG, KEYS, build_scenario_instance,
                             parse_config)
from semifold.cli import PROBE_DECADES
from semifold.continuation import (certified_below, find_fold, refine_fold,
                                   stability, two_solutions)
from semifold.errors import (MonotonicityBroken, NoConvergence,
                             NoFoldInBranch, QueryPastFold, SingularOperator)
from semifold.grid import (TridiagonalOperator, factor_tridiagonal,
                           solve_tridiagonal)
from semifold.nonlinear import (certify, jacobian, monotone_newton,
                                monotone_rise, residual)
from semifold.verify import tau_star
from branching import (flipped_curvature, fold_seed, ladder_fold,
                       make_branch, row_fold)
from reference import second_solution


@pytest.fixture(scope="module")
def inst():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="module")
def fold(inst):
    return ladder_fold(inst)


@pytest.fixture(scope="module")
def branch(inst, fold):
    return make_branch(inst, fold)


@pytest.fixture(scope="module")
def fold_point(inst, branch):
    """refine_fold's (u, alpha, v) from the midpoint of the rows on either
    side of the fold row and their secant."""
    return row_fold(inst, branch)


def test_branch_passes_the_turn(inst, branch, fold):
    """2m + 1 rows, m = ceil(2 (alpha - t0) / step_ds): t rises to the
    fold row, the ladder's fold, and falls back through the same values;
    no two rows are more than step_ds apart in t."""
    step_ds = KEYS["run"]["step_ds"][0]
    ts = np.array([t for t, _ in branch])
    m = len(branch) // 2
    assert len(branch) == 2 * m + 1
    assert m == np.ceil(2.0 * (fold.t - ts[0]) / step_ds)
    assert ts[0] == -10.0 * abs(tau_star(inst))
    assert ts[m] == fold.t and branch[m][1] is fold.u
    assert (np.diff(ts[: m + 1]) > 0).all()
    assert np.array_equal(ts[m + 1:], ts[m - 1::-1])
    assert np.abs(np.diff(ts)).max() <= step_ds


def test_branch_is_capped_by_max_points(inst, fold):
    """At most max_points rows, an odd number, which widens the gaps;
    also at a step_ds so small that 2 (alpha - t0) / step_ds overflows
    to inf."""
    for cap, rows in ((1, 1), (2, 1), (7, 7), (8, 7)):
        assert len(make_branch(inst, fold, max_points=cap)) == rows
    assert len(make_branch(inst, fold, step_ds=1e-310, max_points=7)) == 7


def test_branch_points_are_solutions(inst, branch):
    rs = inst.A.row_scale()
    for t, u in branch:
        assert np.abs(residual(inst, u, t)).max() <= 1e-8 * rs


def test_stability_changes_across_fold(inst, branch):
    mu = [stability(inst, u) for _, u in branch]
    m = len(branch) // 2
    assert min(mu[:m]) > 0 > max(mu[m + 1:])


def test_branch_makes_no_eigensolve(inst, fold, monkeypatch):
    """The stability indicator is computed by the writers that report it,
    never by fold_branch."""
    calls = []
    eigensolve = continuation.smallest_eigenvalue

    def counted(*args):
        calls.append(args)
        return eigensolve(*args)

    monkeypatch.setattr(continuation, "smallest_eigenvalue", counted)
    make_branch(inst, fold)
    assert len(calls) == 0


def test_rise_past_the_fold_breaks(inst, fold, branch):
    """monotone_rise 1e-3 above the fold, from the subsolution or from
    the last row below the fold, finds no minimal solution."""
    for u in (None, branch[len(branch) // 2 - 1][1]):
        with pytest.raises(MonotonicityBroken):
            monotone_rise(inst, fold.t + 1e-3, u)


@pytest.mark.parametrize("cause", ["kappa", "eta"])
def test_branch_without_a_second_solution_raises(inst, fold, monkeypatch,
                                                 cause):
    """Above the fold the rows are two_solutions' second solutions, and
    raise as it does."""
    if cause == "eta":
        monkeypatch.setattr(continuation, "certify",
                            lambda inst, u, t: (u, 1.0, np.inf, np.inf))
    with pytest.raises(NoConvergence, match=cause):
        make_branch(flipped_curvature(inst) if cause == "kappa" else inst,
                    fold)


def test_fold_refinement_is_sharp(inst, fold, fold_point):
    """At the refined fold, from the ladder and from the rows beside the
    fold, the Jacobian's stability indicator vanishes to rounding, the
    extended-system residual is tiny and v is the Jacobian's null vector
    to rounding."""
    rs = inst.A.row_scale()
    for u, alpha, v, _ in (fold, fold_point):
        assert abs(stability(inst, u)) < 1e-8
        assert np.abs(residual(inst, u, alpha)).max() < 1e-4 * rs
        assert np.abs(jacobian(inst, u).apply(v)).max() \
            < 1e-10 * rs * np.abs(v).max()


def _probe(inst, fold):
    """alpha's certified lower bound, as `semifold alpha` takes it: the
    probe t just below the fold and certified_below's (eta, beta, h)
    there."""
    t = fold.t - (1.0 + abs(fold.t)) / 10.0 ** PROBE_DECADES
    _, eta, beta, h = certified_below(inst, fold, t)
    return t, eta, beta, h


def test_certified_probe_agrees_with_arclength(inst, fold):
    bis = _probe(inst, fold)[0]
    assert abs(bis - fold.t) <= 1e-3 * (1.0 + abs(fold.t))
    assert bis <= tau_star(inst)
    assert fold.t <= tau_star(inst)


def test_probe_certifies_one_millionth_below_the_fold(inst, fold):
    t, eta, beta, h = _probe(inst, fold)
    assert fold.t - t == pytest.approx(1e-6 * (1.0 + abs(fold.t)), rel=1e-12)
    assert 0.0 <= h <= 0.5
    assert h == pytest.approx(
        beta * inst.nonlinearity.g_second_sup
        * inst.weight_values.max() * eta, rel=1e-12)


@pytest.mark.parametrize("stretch, n", [("1.0", 4000), ("1.0001", 16000)])
def test_certified_probe_is_the_minimal_solution(stretch, n, monkeypatch):
    """certify from the normal-form predictor, with no fallback, lands on
    monotone Newton's minimal solution at the probe, to 1e-8 relative."""
    inst = build_scenario_instance(parse_config(CANONICAL_CONFIG.replace(
        "stretch = 1.0", f"stretch = {stretch}").replace(
        "n = 4000", f"n = {n}")))
    fold = ladder_fold(inst)
    t = _probe(inst, fold)[0]
    monkeypatch.setattr(continuation, "monotone_newton", None)  # no fallback
    u, _, _, h = certified_below(inst, fold, t)
    minimal = monotone_newton(inst, t)[0].u
    assert h < 0.5
    assert np.abs(u - minimal).max() <= 1e-8 * np.abs(minimal).max()


def test_nonpositive_curvature_falls_back_to_monotone_newton(inst, fold):
    """With kappa < 0 there is no predictor: the point and its
    certificate are monotone_newton's."""
    t = fold.t - 1e-3
    u, *cert = certified_below(flipped_curvature(inst), fold, t)
    minimal, eta, beta, h, _ = monotone_newton(inst, t)
    assert np.array_equal(u, minimal.u)
    assert cert == [eta, beta, h]


def test_certificate_of_h_one_half_is_refused(inst, fold, monkeypatch):
    """certify proves its solution minimal only for h < 1/2, where
    sqrt(1 - 2h) > 0: neither certified_below nor monotone_newton, its
    fallback, accepts h = 1/2 exactly."""
    def half(inst_, u, t):
        return u, 1e-3, 1.0, 0.5

    monkeypatch.setattr(continuation, "certify", half)
    monkeypatch.setattr(nonlinear, "certify", half)
    t = fold.t - 1e-3
    with pytest.raises(NoConvergence, match=r"h = 5\.00e-01 >= 1/2"):
        monotone_newton(inst, t)
    with pytest.raises(NoConvergence, match=r"h = 5\.00e-01 >= 1/2"):
        certified_below(inst, fold, t)


def test_upper_solution_is_not_certified(inst, fold):
    """The certificate covers the stable branch only: on the upper
    solution J is no M-matrix, so x = J^-1 1 is not positive."""
    t_q = fold.t - 1.0
    lo, hi = two_solutions(inst, t_q, fold)
    assert certify(inst, lo.u, t_q)[3] <= 0.5
    _, eta, beta, h = certify(inst, hi.u, t_q)
    assert eta < 1e-6
    assert beta == h == np.inf


@pytest.mark.parametrize("start", ["fold", "pre_fold", "post_fold"])
def test_probe_past_the_fold_never_certifies(inst, branch, fold, fold_point,
                                             start):
    t = fold.t + 1e-3
    idx = len(branch) // 2
    u0 = {"fold": fold_point[0], "pre_fold": branch[idx - 1][1],
          "post_fold": branch[idx + 1][1]}[start]
    assert not certify(inst, u0, t)[3] <= 0.5


def test_certified_bound_within_discretization_error():
    """At n = 4000 and 16000 the certified bound lies below the arclength
    fold by no more than the fold's O(h^2) error estimate
    |alpha_n - alpha_(n/2)| / 3 (refinement ratio about 4)."""
    prev = None
    for n in (2000, 4000, 8000, 16000):
        fine = sf.canonical_instance(R=40.0, n=n)
        fold = ladder_fold(fine)
        a_arc = fold.t
        if n in (4000, 16000):
            bound = abs(a_arc - prev) / 3.0
            assert 0.0 <= a_arc - _probe(fine, fold)[0] <= bound
        prev = a_arc


def test_no_fold_in_short_window(inst):
    ts = tau_star(inst)
    t0 = -10.0 * abs(ts)
    start = monotone_rise(inst, t0)[0]
    # the ladder may not climb far enough for the branch to turn
    with pytest.raises(NoFoldInBranch, match="1000-node grid"):
        find_fold(inst, t0, start, t0 + 3.0)


@pytest.mark.parametrize("gap", [1e-7, 1e-3, 1, 10, 1000])
def test_two_solutions_ordering_and_stability(inst, fold, gap):
    """The normal form's predictors hold from next to the fold to far
    below it: both roots solve, ordered, apart by more than sqrt(gap),
    the lower stable and the upper not."""
    t_q = fold.t - gap
    lo, hi = two_solutions(inst, t_q, fold)
    assert (lo.u <= hi.u + 1e-9).all()
    assert np.abs(hi.u - lo.u).max() > np.sqrt(gap)
    assert lo.stability_mu > 0 > hi.stability_mu
    assert lo.residual_inf <= 1e-8 * inst.A.row_scale()
    assert hi.residual_inf <= 1e-8 * inst.A.row_scale()


@pytest.mark.parametrize("gap", [1e-5, 1e-2])
def test_second_solution_is_converged(canonical, canonical_fold, gap):
    """One more Newton correction from the second solution at n = 4000
    is below 1e-8 relative.  A stop on the row-scaled residual does not
    give that: it accepts the reflection 2 u* - u_lower, 1.3e-6 off the
    root at gap 1e-5, after 0 steps."""
    t = canonical_fold.t - gap
    hi = two_solutions(canonical, t, canonical_fold)[1]
    du = solve_tridiagonal(jacobian(canonical, hi.u),
                           -residual(canonical, hi.u, t))
    assert np.abs(du).max() <= 1e-8 * (1.0 + np.abs(hi.u).max())


@pytest.mark.parametrize("gap", [10.0, 40.0])
def test_deflation_finds_the_upper_root_far_below_the_fold(
        canonical, canonical_fold, gap):
    """second_solution from two_solutions' lower root returns its upper
    root at n = 4000.  Deflation by the squared distance summed over the
    nodes, whose radius changes with the grid, stagnated from every
    start here."""
    t = canonical_fold.t - gap
    lo, hi = two_solutions(canonical, t, canonical_fold)
    sec = second_solution(canonical, lo, t)
    assert np.abs(sec.u - hi.u).max() <= 1e-9 * (1.0 + np.abs(hi.u).max())


@pytest.mark.parametrize("cause", ["kappa", "eta"])
def test_no_second_solution_raises(inst, fold, monkeypatch, cause):
    """Where kappa is not positive there is no predictor for the second
    solution, and a second whose correction stays above the rounding
    floor is not returned: both raise NoConvergence."""
    if cause == "eta":
        monkeypatch.setattr(continuation, "certify",
                            lambda inst, u, t: (u, 1.0, np.inf, np.inf))
    with pytest.raises(NoConvergence, match=cause):
        two_solutions(flipped_curvature(inst) if cause == "kappa" else inst,
                      fold.t - 1e-3, fold)


def test_query_past_fold_raises(inst, fold):
    with pytest.raises(QueryPastFold):
        two_solutions(inst, fold.t + 0.1, fold)


def test_refine_fold_from_crude_seed(inst, branch, fold):
    """From the midpoint of the rows beside the fold, with v0 = 1, the
    extended Newton lands on the fold: alpha to 1e-8 and v a null vector
    of the Jacobian there."""
    u0, t0, _ = fold_seed(branch)
    u, alpha, v, _ = refine_fold(inst, u0, t0, np.ones(inst.grid.n))
    assert alpha == pytest.approx(fold.t, abs=1e-8)
    J = jacobian(inst, u)
    assert np.abs(J.apply(v)).max() < 1e-6 * inst.A.row_scale() * np.abs(v).max()


@pytest.mark.parametrize("n_coarse, n", [(1000, 4000), (4000, 16000)])
def test_refine_fold_from_an_interpolated_coarse_fold(n_coarse, n):
    """The extended Newton stops on its correction, so it reaches the same
    fold from the fine branch rows beside the fold and from the coarse
    ladder's fold: mesh independence leaves the fine grid a few steps."""
    coarse = sf.canonical_instance(n=n_coarse)
    fine = sf.canonical_instance(n=n)
    traced = row_fold(fine)
    u, t, v, _ = ladder_fold(coarse)
    nodes = fine.grid.nodes, coarse.grid.nodes
    lifted = refine_fold(fine, np.interp(*nodes, u), t, np.interp(*nodes, v))
    assert abs(lifted.t - traced.t) <= 1e-10
    assert lifted.iterations <= 4


def test_small_residual_with_a_large_correction_is_not_a_fold(canonical,
                                                              canonical_fold):
    """At the converged fold with t moved by delta, F and J v pass the
    row-scaled residual test refine_fold used to stop on, while the
    correction, delta, is above FOLD_TOL: refine_fold steps back to the
    fold."""
    u, t, v, _ = canonical_fold
    J = jacobian(canonical, u)
    v = solve_tridiagonal(J, v)  # one inverse-iteration step: J v ~ 0
    v = v / np.abs(v).max()
    rs = canonical.A.row_scale()
    Pphi = canonical.weight_values * canonical.eigen.phi1
    delta = 0.9e-12 * rs / np.abs(Pphi).max()
    assert delta / (1.0 + abs(t)) > continuation.FOLD_TOL
    assert np.abs(residual(canonical, u, t + delta)).max() <= 1e-12 * rs
    assert np.abs(J.apply(v)).max() <= 1e-8 * rs * np.abs(v).max()
    point = refine_fold(canonical, u, t + delta, v)
    assert point.iterations >= 1
    assert abs(point.t - t) <= 1e-10


def test_refine_fold_stops_where_the_correction_stops_contracting(
        inst, branch, fold_point, monkeypatch):
    """With no tolerance to reach, the extended Newton from the rows
    beside the fold runs to its rounding floor and stops where the
    correction no longer contracts; a correction that stops contracting
    above FOLD_FLOOR is refused."""
    seed = fold_seed(branch)
    monkeypatch.setattr(continuation, "FOLD_TOL", 0.0)
    floor = refine_fold(inst, *seed)
    assert floor.iterations > fold_point.iterations
    assert abs(floor.t - fold_point.t) <= 1e-10
    monkeypatch.setattr(nonlinear, "FOLD_FLOOR", 0.0)
    with pytest.raises(NoConvergence, match="did not converge"):
        refine_fold(inst, *seed)


@pytest.mark.parametrize("shift, kept", [(0.0, True), (0.1, False)])
def test_refine_fold_keeps_an_iterate_whose_jacobian_is_singular(
        inst, fold, monkeypatch, shift, kept):
    """Step 1's factorization finds J exactly singular.  From the
    converged fold, step 0's correction is at the rounding floor, below
    FOLD_FLOOR, and its iterate is kept; from t moved by 0.1 it is
    above, and the SingularOperator propagates."""
    calls = []

    def singular_from_step_1(op):
        calls.append(op)
        if len(calls) > 1:  # each step factors J once
            raise SingularOperator("exactly singular: zero pivot at row 1")
        return factor_tridiagonal(op)

    monkeypatch.setattr(continuation, "FOLD_TOL", 0.0)
    monkeypatch.setattr(continuation, "factor_tridiagonal",
                        singular_from_step_1)
    seed = fold.u, fold.t - shift, fold.v
    if kept:
        point = refine_fold(inst, *seed)
        assert point.iterations == 1
        assert abs(point.t - fold.t) <= 1e-10
    else:
        with pytest.raises(SingularOperator):
            refine_fold(inst, *seed)
    assert len(calls) == 2


def _counted_solves(monkeypatch):
    """continuation's factor_tridiagonal and solve_tridiagonal, recording
    ("factor", the factor made) and ("solve", what was solved on) per
    call; every right-hand side must be 1-D."""
    calls = []

    def factor(op):
        lu = factor_tridiagonal(op)
        calls.append(("factor", lu))
        return lu

    def solve(op, rhs):
        assert np.ndim(rhs) == 1
        calls.append(("solve", op))
        return solve_tridiagonal(op, rhs)

    monkeypatch.setattr(continuation, "factor_tridiagonal", factor)
    monkeypatch.setattr(continuation, "solve_tridiagonal", solve)
    return calls


@pytest.mark.parametrize("stop", ["taken", "keep"])
def test_refine_fold_factors_each_jacobian_once(inst, branch, fold,
                                                monkeypatch, stop):
    """Each step makes one factor_tridiagonal call and four 1-D solves on
    that factor.  After a taken step, the null step is one ?gtsv solve
    on the new J; where the iterate is kept, it solves on the kept step's
    factor and factors nothing more."""
    if stop == "keep":  # from the converged fold, with no tolerance to reach
        monkeypatch.setattr(continuation, "FOLD_TOL", 0.0)
        seed = fold.u, fold.t, fold.v
    else:
        seed = fold_seed(branch)
    calls = _counted_solves(monkeypatch)
    point = refine_fold(inst, *seed)
    steps = point.iterations + (stop == "keep")
    assert steps >= 2
    assert len(calls) == 5 * steps + 1
    for k in range(steps):
        kind, lu = calls[5 * k]
        assert kind == "factor"
        assert all(what == "solve" and on is lu
                   for what, on in calls[5 * k + 1:5 * k + 5])
    kind, on = calls[-1]
    assert kind == "solve"
    if stop == "keep":
        assert on is lu
    else:
        assert isinstance(on, TridiagonalOperator)


@pytest.mark.parametrize("stop", ["taken", "keep"])
def test_refine_fold_and_certify_leave_their_arguments_alone(
        inst, branch, fold, monkeypatch, stop):
    """refine_fold reads u0 and v0 without copying them, and certify
    reads u: neither writes to an array it is given."""
    if stop == "keep":  # from the converged fold, with no tolerance to reach
        monkeypatch.setattr(continuation, "FOLD_TOL", 0.0)
        u0, t0, v0 = fold.u.copy(), fold.t, fold.v.copy()
    else:
        u0, t0, v0 = fold_seed(branch)
    t, lower = branch[len(branch) // 2 - 1]
    u = lower + 1e-3  # certify takes steps from it
    given = [u0, v0, u]
    before = [a.tobytes() for a in given]
    refine_fold(inst, u0, t0, v0)
    assert certify(inst, u, t)[3] < 0.5
    assert [a.tobytes() for a in given] == before


def _certify_with_abs_J(inst, u, t):
    """certify as it was written with the kept iterate's J and an explicit
    operator |J|: the reference for its bits."""
    L = float(inst.weight_values.max()) * inst.nonlinearity.g_second_sup
    best = None
    for _ in range(nonlinear.CERTIFY_MAXIT):
        J = jacobian(inst, u)
        du = solve_tridiagonal(J, -residual(inst, u, t))
        eta = float(np.abs(du).max())
        if best is not None and not eta < best[1]:
            break
        stalled = best is not None and \
            eta > best[1] / nonlinear.CERTIFY_CONTRACTION
        best = (u, eta, J)
        if stalled:
            break
        u = u + du
    u, eta, J = best
    x = solve_tridiagonal(J, np.ones(u.size))
    beta = h = np.inf
    if (J.sub <= 0.0).all() and (J.sup <= 0.0).all() and (x > 0.0).all():
        abs_J = TridiagonalOperator(sub=-J.sub, diag=np.abs(J.diag),
                                    sup=-J.sup)
        low = float((J.apply(x) - 4.0 * nonlinear.EPS * abs_J.apply(x)).min())
        if low > 0.0:
            beta = float(np.nextafter(np.abs(x).max() / low, np.inf))
            h = beta * L * eta
    return u, eta, beta, h


@pytest.mark.parametrize("sign", [-1.0, 1.0], ids=["lower", "upper"])
def test_certify_equals_its_explicit_abs_J_reference(canonical, canonical_fold,
                                                     sign):
    """At n = 4000, 1 below the fold, from each root's normal-form
    predictor: certify's (u, eta, beta, h), with |J| x by the stencil
    and J rebuilt for x, are the reference's bit for bit.  The lower root
    certifies; on the upper, J is no M-matrix."""
    fold = canonical_fold
    v, kappa = continuation._predictor(canonical, fold)
    t = fold.t - 1.0
    u0 = fold.u + sign * np.sqrt((fold.t - t) / kappa) * v
    u, *cert = certify(canonical, u0, t)
    u_ref, *cert_ref = _certify_with_abs_J(canonical, u0, t)
    assert u.tobytes() == u_ref.tobytes()
    assert np.array(cert).tobytes() == np.array(cert_ref).tobytes()
    assert (cert[2] < 0.5) == (sign < 0.0)


def test_refine_fold_holds_one_steps_vectors(traced_peak):
    """One refine_fold at n = 16000, from the twin's ladder fold lifted
    onto the nodes as the CLI lifts it, allocates at most 15 vectors of
    n floats at its peak: each step lets go of its factor, -F, P phi1,
    D, p, q, a1 and a2 before the next one factors."""
    inst = sf.canonical_instance(n=16000)
    found = ladder_fold(inst.twin)
    u0, v0 = (inst.grid.lift(inst.twin.grid, a) for a in (found.u, found.v))
    point, peak = traced_peak(lambda: refine_fold(inst, u0, found.t, v0))
    assert point.iterations >= 1
    assert peak <= 15 * 8 * inst.grid.n


@pytest.mark.parametrize("t0", [-17.6, -14.65, -11.7, -8.0])
def test_find_fold_equals_the_traced_fold(canonical, canonical_branch, t0):
    """From t_start across the fold-64k draw range, the ladder and
    refine_fold land on the fold refined from the branch rows beside the
    fold."""
    traced = row_fold(canonical, canonical_branch)
    found = find_fold(canonical, t0, monotone_rise(canonical, t0)[0],
                      tau_star(canonical) + 1.0)
    assert abs(found.t - traced.t) <= 1e-10


def test_find_fold_equals_the_traced_fold_on_a_stretched_grid():
    """From the lower row beside the fold, the upper one and their
    midpoint alike."""
    stretched = build_scenario_instance(parse_config(
        CANONICAL_CONFIG.replace("stretch = 1.0", "stretch = 1.0001")))
    fold = ladder_fold(stretched)
    rows = make_branch(stretched, fold)
    for start in ("lower", "mid", "upper"):
        assert abs(fold.t - row_fold(stretched, rows, start).t) <= 1e-10


def _recorded_rises(monkeypatch, fail_first=False):
    """monotone_rise as the ladder calls it, recording (t, ok) per call;
    the first call raises MonotonicityBroken if fail_first."""
    calls = []

    def recorded(inst_, t, u=None):
        if fail_first and not calls:
            calls.append((t, False))
            raise MonotonicityBroken("made to fail")
        try:
            out = monotone_rise(inst_, t, u)
        except (MonotonicityBroken, NoConvergence):
            calls.append((t, False))
            raise
        calls.append((t, True))
        return out

    monkeypatch.setattr(continuation, "monotone_rise", recorded)
    return calls


def test_ladder_stops_below_the_fold(inst, fold, monkeypatch):
    """Every rung the ladder keeps lies below the fold, the first one
    0.25 (1 + |t0|) above t0, and the last within 0.4 (1 + |alpha|) of it,
    close enough for refine_fold to finish in a few steps."""
    t0 = -10.0 * abs(tau_star(inst))
    calls = _recorded_rises(monkeypatch)
    found = find_fold(inst, t0, monotone_rise(inst, t0)[0],
                      tau_star(inst) + 1.0)
    kept = [t for t, ok in calls if ok]
    assert calls[0][0] == t0 + 0.25 * (1.0 + abs(t0))
    assert kept and max(kept) < fold.t
    assert fold.t - kept[-1] <= 0.4 * (1.0 + abs(fold.t))
    assert found.iterations <= 6
    assert abs(found.t - fold.t) <= 1e-10


def test_a_broken_rise_halves_the_step(inst, fold, monkeypatch):
    t0 = -10.0 * abs(tau_star(inst))
    calls = _recorded_rises(monkeypatch, fail_first=True)
    found = find_fold(inst, t0, monotone_rise(inst, t0)[0],
                      tau_star(inst) + 1.0)
    assert calls[0] == (t0 + 0.25 * (1.0 + abs(t0)), False)
    assert calls[1] == (t0 + 0.125 * (1.0 + abs(t0)), True)
    assert abs(found.t - fold.t) <= 1e-10


def test_two_solutions_straddle_the_fold_point(inst, fold):
    """The lower root is certified_below's minimal solution, monotone
    Newton's to 1e-8 relative; the upper one lies on the other side of
    the fold point along the null vector."""
    t_q = fold.t - 1e-3
    lo, hi = two_solutions(inst, t_q, fold)
    assert np.array_equal(lo.u, certified_below(inst, fold, t_q)[0])
    minimal = monotone_newton(inst, t_q)[0].u
    assert np.abs(lo.u - minimal).max() <= 1e-8 * np.abs(minimal).max()
    v = fold.v / np.abs(fold.v).max()
    w = inst.grid.volumes * v
    assert np.dot(w, lo.u - fold.u) < 0.0 < np.dot(w, hi.u - fold.u)
    assert lo.stability_mu > 0 > hi.stability_mu


def test_two_solutions_forms_the_normal_form_once(inst, fold, monkeypatch):
    """two_solutions takes the fold's normal form once, for both
    predictors, and its roots keep their bits."""
    t_q = fold.t - 1e-3
    before = two_solutions(inst, t_q, fold)
    formed, normal_form = [], continuation._normal_form

    def counted(*args):
        formed.append(args)
        return normal_form(*args)

    monkeypatch.setattr(continuation, "_normal_form", counted)
    after = two_solutions(inst, t_q, fold)
    assert len(formed) == 1
    for a, b in zip(before, after):
        assert np.array_equal(a.u, b.u)
