"""Fold location in the forcing coefficient t, and the branch through it.

A ladder of minimal solutions, each the warm start of the next, climbs
towards the fold along an extrapolation of the amplitude derivative,
and Newton on the extended fold system finishes it.  Below the fold,
certify's Newton steps correct the fold's quadratic normal form to each
of the two solutions (`semifold alpha`'s certified bound and `semifold
two`), and fold_branch lays the whole branch out in the normal form's
coordinate.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .eigen import smallest_eigenvalue
from .errors import (MonotonicityBroken, NoConvergence, NoFoldInBranch,
                     QueryPastFold, SingularOperator)
from .grid import dot, factor_tridiagonal, solve_tridiagonal
from .nonlinear import (FOLD_FLOOR, FOLD_MAXIT, FOLD_TOL, _correction_stop,
                        _newton_best, certify, jacobian, monotone_newton,
                        monotone_rise, residual)
from .problem import ProblemInstance
from .subsuper import SolutionProfile
from .verify import tau_star


class FoldPoint(NamedTuple):
    """The turning point (u, t, v) found by refine_fold, after
    `iterations` extended Newton steps."""
    u: np.ndarray
    t: float
    v: np.ndarray
    iterations: int


def stability(instance: ProblemInstance, u: np.ndarray) -> float:
    """The stability indicator mu of u: the smallest eigenvalue of its
    Jacobian, positive on the stable branch and negative past the fold."""
    # sqrt(volumes) phi1 is positive, so it has a component along the
    # positive ground state of the symmetrized Jacobian
    return smallest_eigenvalue(jacobian(instance, u),
                               np.sqrt(instance.grid.volumes) * instance.eigen.phi1)


def refine_fold(instance: ProblemInstance, u0: np.ndarray, t0: float,
                v0: np.ndarray) -> FoldPoint:
    """Newton on the extended system {F(u,t)=0, J(u,t)v=0, c.v=1}, to the
    quadratic turning point.  It stops on its correction by
    nonlinear._correction_stop at FOLD_TOL; one that stops contracting
    above FOLD_FLOOR raises NoConvergence.  Each step factors J once, for
    its four right-hand sides -F, P phi1, D p and D q.  J is singular at
    the fold, and a step may find it exactly so: the iterate is kept where
    the last correction's square, about the next one, is at most
    FOLD_FLOOR, on the fold to rounding; else SingularOperator propagates.

    Besides the iterate (u, v) and c, a step holds J's factor, p, q, a1
    and a2, and -F, P phi1 and D while they are solved for: -F goes once
    p is solved, P phi1 once q is, D once a1 and a2 are, and the rest
    before the next step factors.  a2 is solved from D q, and then D p
    for a1 is formed in D's buffer.  du is built in p's buffer and the
    new v in a1's.  u0 and v0 are only read.

    The v update is J^-1 of D du, so once du is near the rounding floor
    v carries its noise (|J v| up to 1e-3 rs |v|); the returned v is
    _null_step's, which leaves |J(u) v| at the rounding floor."""
    gsec = instance.nonlinearity.g_second
    P = instance.weight_values
    c = v0 / dot(v0, v0)  # so that c.v0 = 1
    # no copies: every update makes a new u and v.  Dropping the names
    # frees arguments made for this call, as the CLI's lifted fold is
    u, t, v = u0, float(t0), v0
    del u0, v0
    size_prev = np.inf
    for k in range(FOLD_MAXIT):
        F = residual(instance, u, t)
        np.negative(F, out=F)
        try:
            lu = factor_tridiagonal(jacobian(instance, u))
            p = solve_tridiagonal(lu, F)
            del F
            q = solve_tridiagonal(lu, P * instance.eigen.phi1)
            D = P * np.asarray(gsec(u)) * v
            a2 = solve_tridiagonal(lu, D * q)
            D *= p
            a1 = solve_tridiagonal(lu, D)
            del D
        except SingularOperator:
            if size_prev * size_prev > FOLD_FLOOR:
                raise
            return FoldPoint(u, float(t), v, k)
        ca2 = dot(c, a2)
        if ca2 == 0.0:
            raise NoConvergence("fold system degenerate (c.a2 = 0)",
                                iterations=k)
        dt = (1.0 - dot(c, a1)) / ca2
        p += dt * q  # du
        del q
        size = max(abs(dt) / (1.0 + abs(t)),
                   float(np.abs(p).max()) / (1.0 + float(np.abs(u).max())))
        stop = _correction_stop(size, size_prev, FOLD_TOL, "fold refinement")
        if stop == "keep":
            return _null_step(lu, u, t, v, c, k)
        del lu
        u = u + p
        t = t + dt
        a1 += dt * a2  # v + dv with dv = -v + a1 + dt*a2
        v = a1
        del p, a1, a2
        if stop:
            return _null_step(jacobian(instance, u), u, t, v, c, k + 1)
        size_prev = size
    raise NoConvergence(f"fold refinement did not converge (last correction "
                        f"{size:.2e} relative)", iterations=k + 1)


def _null_step(J, u: np.ndarray, t: float, v: np.ndarray, c: np.ndarray,
               k: int) -> FoldPoint:
    """FoldPoint(u, t, w / c.w, k) with w = J^-1 v, one inverse iteration
    step towards the null vector of J = J(u), given as its operator or
    its factor; v itself where the solve finds J singular."""
    try:
        w = solve_tridiagonal(J, v)
    except SingularOperator:
        return FoldPoint(u, float(t), v, k)
    return FoldPoint(u, float(t), w / dot(c, w), k)


# the most times first_rung steps down from the default footing
FOOTING_STEPS = 8


def first_rung(instance: ProblemInstance, t_start=None):
    """(t, u) of the fold ladder's first rung: u is monotone_rise's limit
    from the subsolution at t, the minimal solution there.  t is t_start
    where given, and is never moved.  By default it is the first of t_k =
    t0 - (2^k - 1) (1 + |t0|), k = 0 ... FOOTING_STEPS, with t0 = -10
    |tau*| of the instance's grid, whose rise does not break as past the
    fold; the last one's error propagates, naming the grid."""
    if t_start is not None:
        return t_start, monotone_rise(instance, t_start)[0]
    t0 = -10.0 * abs(tau_star(instance))
    for k in range(FOOTING_STEPS + 1):
        t = t0 - (2 ** k - 1) * (1.0 + abs(t0))
        try:
            return t, monotone_rise(instance, t)[0]
        except (MonotonicityBroken, NoConvergence, SingularOperator) as err:
            if k == FOOTING_STEPS:
                err.args = (f"on the {instance.grid.n}-node grid: {err}",)
                raise


def find_fold(instance: ProblemInstance, t_start: float,
              u_start: np.ndarray) -> FoldPoint:
    """The fold, from first_rung's (t_start, u_start), by a ladder of
    minimal solutions and refine_fold from its last rung.

    Each rung is monotone_rise from the one below, which is a subsolution
    at the rung's t.  At each, s' = <V P phi1, q> with q = J^-1 P phi1 =
    du/dt is the derivative of the amplitude <V P phi1, u>; near a
    quadratic fold 1/s'^2 falls linearly to zero at the fold, so its line
    through the last two rungs estimates alpha.  The ladder stops once
    the estimate is within 0.2 (1 + |alpha|) of the rung, and otherwise
    steps half way to it; the first step, and any step while 1/s'^2 does
    not fall, is that before (0.25 (1 + |t_start|) at first).  A rise
    that breaks, as past the fold, halves the step.  No rung lies above
    t_max = tau* + 1, as the paper leaves no solution above tau*: a
    ladder that would go past it raises NoFoldInBranch."""
    t_max = tau_star(instance) + 1.0
    Pphi = instance.weight_values * instance.eigen.phi1
    VPphi = instance.grid.volumes * Pphi
    t, u = float(t_start), u_start
    step = 0.25 * (1.0 + abs(t))
    last = None  # (t, 1/s'^2) of the rung below
    while True:
        q = solve_tridiagonal(jacobian(instance, u), Pphi)
        y = 1.0 / dot(VPphi, q) ** 2
        if last is not None and y < last[1]:
            est = t - y * (t - last[0]) / (y - last[1])
            if est - t <= 0.2 * (1.0 + abs(est)):
                return refine_fold(instance, u, t, q / np.abs(q).max())
            step = 0.5 * (est - t)
        last = t, y
        if t >= t_max:
            raise NoFoldInBranch(f"on the {instance.grid.n}-node grid: no "
                                 f"fold below t = {t_max}")
        step = min(step, t_max - t)
        for _ in range(60):
            try:
                u = monotone_rise(instance, t + step, u)[0]
                break
            except (MonotonicityBroken, NoConvergence, SingularOperator):
                step *= 0.5
        else:
            raise NoConvergence(f"fold ladder: no rung above t = {t}")
        t += step


def _normal_form(instance: ProblemInstance, fold: FoldPoint):
    """(v*, kappa): below the fold the two solutions are u* -+ sqrt((alpha
    - t) / kappa) v* + O(alpha - t), v* = v / ||v||_inf signed so that
    <V v*, P phi1> > 0, kappa = <V v*, P g''(u*) v*^2> / (2 <V v*, P
    phi1>), V v* J(u*)'s left null vector (Keller 1977).  NoConvergence
    where kappa is not positive and finite, which leaves no predictor."""
    P = instance.weight_values
    v = fold.v / np.abs(fold.v).max()
    Vv = instance.grid.volumes * v
    s = dot(Vv, P * instance.eigen.phi1)
    kappa = 0.5 * dot(Vv, P * np.asarray(
        instance.nonlinearity.g_second(fold.u)) * v * v) / s if s else np.nan
    if not 0.0 < kappa < np.inf:
        raise NoConvergence(f"no predictor: the fold's kappa is {kappa:.2e}")
    return np.sign(s) * v, kappa


def certified_below(instance: ProblemInstance, fold: FoldPoint, t: float,
                    normal_form=None):
    """certify's (u, eta, beta, h) at t from u* - sqrt((alpha - t) / kappa)
    v*, with (v*, kappa) the given normal form or else _normal_form's;
    monotone_newton's where _normal_form raises or h is not below 1/2."""
    try:
        v, kappa = (_normal_form(instance, fold) if normal_form is None
                    else normal_form)
    except NoConvergence:
        pass
    else:
        u, eta, beta, h = certify(
            instance, fold.u - np.sqrt((fold.t - t) / kappa) * v, t)
        if h < 0.5:
            return u, eta, beta, h
    prof, eta, beta, h, _ = monotone_newton(instance, t)
    return prof.u, eta, beta, h


def _second(instance: ProblemInstance, u0: np.ndarray, t: float):
    """certify's u at t from u0, the second solution's predictor, without
    the certificate, which fails off the stable branch; NoConvergence
    where its eta >= FOLD_FLOOR (1 + |u|_inf)."""
    u, eta, _ = _newton_best(instance, u0, t)
    if not eta < FOLD_FLOOR * (1.0 + float(np.abs(u).max())):
        raise NoConvergence(f"no converged second solution (eta {eta:.1e})")
    return u


def two_solutions(instance: ProblemInstance, t_query: float,
                  fold: FoldPoint):
    """The minimal solution at t_query below the fold (certified_below's)
    and the second (_second's from u* + sqrt((alpha - t) / kappa) v*),
    with stability indicators; NoConvergence where kappa is not positive
    and finite, or where the second does not converge."""
    if t_query >= fold.t:
        raise QueryPastFold(f"t = {t_query} is not below alpha = {fold.t}")
    v, kappa = _normal_form(instance, fold)
    lower = certified_below(instance, fold, t_query, (v, kappa))[0]
    upper = _second(instance, fold.u + np.sqrt(
        (fold.t - t_query) / kappa) * v, t_query)
    return tuple(SolutionProfile(
        u, t_query, float(np.abs(residual(instance, u, t_query)).max()),
        stability(instance, u)) for u in (lower, upper))


def fold_branch(instance: ProblemInstance, fold: FoldPoint, rung: tuple,
                step_ds: float, max_points: int) -> list:
    """The branch from first_rung's (t_start, u) through the fold and
    back, as (t, u) rows equally spaced in the normal form's sigma =
    -+sqrt((alpha - t) / kappa): m rows below the fold, at t_k = t_start
    + (alpha - t_start) k (2m - k) / m^2 for k = 0 ... m - 1, the fold
    itself, and m rows above it at the same t in decreasing order.  m =
    min(ceil(2 (alpha - t_start) / step_ds), (max_points - 1) // 2): there
    are at most max_points rows, and unless that caps m no two are more
    than step_ds apart in t (the widest gap is at t_start).

    The lower rows are minimal solutions: the first is the rung's u, and
    each next monotone_rise's limit from the row below.  The upper
    rows are _second's, the first from u* + sigma_1 v*, as in
    two_solutions, and each next from the secant in sigma through the
    two rows before it; they raise NoConvergence as two_solutions does."""
    t_start, u = rung
    v, kappa = _normal_form(instance, fold)
    gap = fold.t - t_start
    m = (max_points - 1) // 2
    if 2.0 * gap / step_ds < m:  # so that ceil never sees inf
        m = math.ceil(2.0 * gap / step_ds)
    ts = [t_start + gap * k * (2 * m - k) / m ** 2 for k in range(m)]
    rows = []
    for k, t in enumerate(ts):
        if k:
            u = monotone_rise(instance, t, u)[0]
        rows.append((t, u))
    rows.append((fold.t, fold.u))
    for j, t in enumerate(reversed(ts)):
        # at equal steps in sigma the secant through the last two rows
        # is 2 u_(j-1) - u_(j-2)
        u0 = (fold.u + np.sqrt((fold.t - t) / kappa) * v if j == 0
              else 2.0 * rows[-1][1] - rows[-2][1])
        rows.append((t, _second(instance, u0, t)))
    return rows
