"""Fold location in the forcing coefficient t, and branch tracing.

A ladder of minimal solutions, each the warm start of the next, climbs
towards the fold along an extrapolation of the amplitude derivative,
and Newton on the extended fold system finishes it.  Below the fold,
certify corrects the fold's quadratic normal form to each of the two
solutions (`semifold alpha`'s certified bound and `semifold two`).
Pseudo-arclength continuation with a bordered tridiagonal corrector
traces the whole branch, through the turning point where plain
parameter continuation has a singular Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, NamedTuple

import numpy as np

from .eigen import smallest_eigenvalue
from .errors import (InitialPointInvalid, MonotonicityBroken, NoConvergence,
                     NoFoldInBranch, QueryPastFold, SingularOperator)
from .grid import dot, solve_tridiagonal
from .nonlinear import (FOLD_FLOOR, FOLD_MAXIT, FOLD_TOL, SOLVE_TOL,
                        _correction_stop, certify, jacobian, monotone_newton,
                        monotone_rise, residual)
from .problem import ProblemInstance
from .subsuper import SolutionProfile


@dataclass
class BranchPoint:
    t: float
    u: np.ndarray
    arclength: float
    residual_inf: float

    @property
    def u_at_0(self) -> float:
        return float(self.u[0])


@dataclass
class Branch:
    points: List[BranchPoint] = field(default_factory=list)
    status: str = "ok"

    def __len__(self):
        return len(self.points)

    @property
    def t_values(self) -> np.ndarray:
        return np.array([p.t for p in self.points])


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
    return smallest_eigenvalue(instance.grid, jacobian(instance, u),
                               np.sqrt(instance.grid.volumes) * instance.eigen.phi1)


def trace_branch(instance: ProblemInstance, t_start: float,
                 u_start: np.ndarray, step_ds: float = 0.5,
                 t_window=(-np.inf, np.inf), max_points: int = 600) -> Branch:
    """Pseudo-arclength continuation of the branch through (t_start,
    u_start), until t leaves t_window (status "window_exit"), the step
    underflows ("step_underflow") or max_points are traced ("max_points").

    A corrector attempt is abandoned as soon as its weighted step
    sqrt(w2 |du|^2 + dt^2) stops shrinking, and the step ds is halved."""
    u = np.asarray(u_start, dtype=float).copy()
    t = float(t_start)
    rs = instance.A.row_scale()
    F = residual(instance, u, t)
    if np.abs(F).max() > 1e3 * SOLVE_TOL * rs:
        raise InitialPointInvalid(
            "starting point does not solve the system to branch tolerance")

    n = instance.grid.n
    w2 = 1.0 / n  # balances the u block against the scalar t in arclength
    Pphi = instance.weight_values * instance.eigen.phi1  # = -dF/dt

    # initial tangent from the parameter derivative du/dt
    y = solve_tridiagonal(jacobian(instance, u), Pphi)
    nrm = np.sqrt(w2 * dot(y, y) + 1.0)
    tau_u, tau_t = y / nrm, 1.0 / nrm

    branch = Branch()
    branch.points.append(BranchPoint(
        t=t, u=u.copy(), arclength=0.0, residual_inf=float(np.abs(F).max())))
    ds = float(step_ds)
    ds0 = abs(ds)
    easy = 0
    arc = 0.0
    while len(branch) < max_points:
        u_pred = u + ds * tau_u
        t_pred = t + ds * tau_t
        uc, tc = u_pred.copy(), t_pred
        ok = False
        step_prev = np.inf
        for _ in range(12):
            F = residual(instance, uc, tc)
            con = w2 * dot(tau_u, uc - u) + tau_t * (tc - t) - ds
            if np.abs(F).max() <= SOLVE_TOL * rs and \
                    abs(con) <= 1e-10 * (1.0 + abs(ds)):
                ok = True
                break
            J = jacobian(instance, uc)
            try:
                p, q = solve_tridiagonal(J, np.column_stack((-F, Pphi))).T
            except SingularOperator:
                break
            denom = w2 * dot(tau_u, q) + tau_t
            if denom == 0.0:
                break
            dt = (-con - w2 * dot(tau_u, p)) / denom
            du = p + dt * q
            step = np.sqrt(w2 * dot(du, du) + dt ** 2)
            if step >= step_prev:  # no contraction: the attempt diverges
                break
            step_prev = step
            # not uc + du: that rounds differently and moves every branch
            uc = uc + p + dt * q
            tc = tc + dt
            if not np.isfinite(uc).all():
                break
        if not ok:
            ds *= 0.5
            easy = 0
            if abs(ds) < 1e-6 * ds0:
                branch.status = "step_underflow"
                return branch
            continue

        # accept: secant tangent keeps orientation through the fold
        new_tau_u = (uc - u) / ds
        new_tau_t = (tc - t) / ds
        nrm = np.sqrt(w2 * dot(new_tau_u, new_tau_u) + new_tau_t ** 2)
        tau_u, tau_t = new_tau_u / nrm, new_tau_t / nrm
        arc += abs(ds)
        u, t = uc, tc
        branch.points.append(BranchPoint(
            t=t, u=u.copy(), arclength=arc,
            residual_inf=float(np.abs(F).max())))
        if not (t_window[0] <= t <= t_window[1]):
            branch.status = "window_exit"
            return branch
        easy += 1
        if easy >= 4:
            ds = np.sign(ds) * min(abs(ds) * 2.0, 8.0 * ds0)
            easy = 0
    branch.status = "max_points"
    return branch


def refine_fold(instance: ProblemInstance, u0: np.ndarray, t0: float,
                v0: np.ndarray) -> FoldPoint:
    """Newton on the extended system {F(u,t)=0, J(u,t)v=0, c.v=1}, to the
    quadratic turning point.  It stops on its correction, not on the
    residual, whose row scale grows as h^-2: once the correction is below
    FOLD_TOL, or once it stops contracting below FOLD_FLOOR (the rounding
    floor; nonlinear._correction_stop).  A correction that stops
    contracting above FOLD_FLOOR raises NoConvergence.  J is singular at
    the fold, and a solve may find it exactly so: after a correction at
    most FOLD_FLOOR, the iterate is on the fold to rounding and is kept;
    above it, SingularOperator propagates."""
    gsec = instance.nonlinearity.g_second
    P = instance.weight_values
    Pphi = P * instance.eigen.phi1
    c = v0 / dot(v0, v0)  # so that c.v0 = 1
    u, t, v = u0.copy(), float(t0), v0.copy()
    size_prev = np.inf
    for k in range(FOLD_MAXIT):
        F = residual(instance, u, t)
        J = jacobian(instance, u)
        try:
            p, q = solve_tridiagonal(J, np.column_stack((-F, Pphi))).T
            D = P * np.asarray(gsec(u)) * v
            a1, a2 = solve_tridiagonal(J, np.column_stack((D * p, D * q))).T
        except SingularOperator:
            if size_prev > FOLD_FLOOR:
                raise
            return FoldPoint(u, float(t), v, k)
        ca2 = dot(c, a2)
        if ca2 == 0.0:
            raise NoConvergence("fold system degenerate (c.a2 = 0)",
                                iterations=k)
        dt = (1.0 - dot(c, a1)) / ca2
        du = p + dt * q
        size = max(abs(dt) / (1.0 + abs(t)),
                   float(np.abs(du).max()) / (1.0 + float(np.abs(u).max())))
        if _correction_stop(size, size_prev, "fold refinement"):
            return FoldPoint(u, float(t), v, k)
        u = u + du
        t = t + dt
        v = a1 + dt * a2  # v + dv with dv = -v + a1 + dt*a2
        if size <= FOLD_TOL:
            return FoldPoint(u, float(t), v, k + 1)
        size_prev = size
    raise NoConvergence(f"fold refinement did not converge (last correction "
                        f"{size:.2e} relative)", iterations=k + 1)


def find_fold(instance: ProblemInstance, t_start: float, u_start: np.ndarray,
              t_max: float) -> FoldPoint:
    """The fold, from the minimal solution u_start at t_start, by a ladder
    of minimal solutions and refine_fold from its last rung.

    Each rung is monotone_rise from the one below, which is a subsolution
    at the rung's t.  At each, s' = <V P phi1, q> with q = J^-1 P phi1 =
    du/dt is the derivative of the amplitude <V P phi1, u>; near a
    quadratic fold 1/s'^2 falls linearly to zero at the fold, so its line
    through the last two rungs estimates alpha.  The ladder stops once
    the estimate is within 0.2 (1 + |alpha|) of the rung, and otherwise
    steps half way to it; the first step, and any step while 1/s'^2 does
    not fall, is that before (0.25 (1 + |t_start|) at first).  A rise
    that breaks, as past the fold, halves the step.  No rung lies above
    t_max: a ladder that would go past it raises NoFoldInBranch."""
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
    phi1>), V v* J(u*)'s left null vector (Keller 1977)."""
    P = instance.weight_values
    v = fold.v / np.abs(fold.v).max()
    Vv = instance.grid.volumes * v
    s = dot(Vv, P * instance.eigen.phi1)
    kappa = 0.5 * dot(Vv, P * np.asarray(
        instance.nonlinearity.g_second(fold.u)) * v * v) / s if s else np.nan
    return np.sign(s) * v, kappa


def certified_below(instance: ProblemInstance, fold: FoldPoint, t: float):
    """certify's (u, eta, beta, h) at t from u* - sqrt((alpha - t) / kappa)
    v*; monotone_newton's where kappa is not positive and finite or h is
    not below 1/2."""
    v, kappa = _normal_form(instance, fold)
    if 0.0 < kappa < np.inf:
        u, eta, beta, h = certify(
            instance, fold.u - np.sqrt((fold.t - t) / kappa) * v, t)
        if h < 0.5:
            return u, eta, beta, h
    prof, eta, beta, h, _ = monotone_newton(instance, t)
    return prof.u, eta, beta, h


def two_solutions(instance: ProblemInstance, t_query: float,
                  fold: FoldPoint):
    """The minimal solution at t_query below the fold (certified_below's)
    and the second (certify's from u* + sqrt((alpha - t) / kappa) v*),
    with stability indicators; NoConvergence where kappa is not positive
    and finite, or where the second's eta >= FOLD_FLOOR (1 + |u|_inf)."""
    if t_query >= fold.t:
        raise QueryPastFold(f"t = {t_query} is not below alpha = {fold.t}")
    v, kappa = _normal_form(instance, fold)
    if not 0.0 < kappa < np.inf:
        raise NoConvergence(f"no predictor: the fold's kappa is {kappa:.2e}")
    lower = certified_below(instance, fold, t_query)[0]
    upper, eta = certify(instance, fold.u + np.sqrt(
        (fold.t - t_query) / kappa) * v, t_query)[:2]
    if not eta < FOLD_FLOOR * (1.0 + float(np.abs(upper).max())):
        raise NoConvergence(f"no converged second solution (eta {eta:.1e})")
    return tuple(SolutionProfile(
        u, t_query, float(np.abs(residual(instance, u, t_query)).max()),
        stability(instance, u)) for u in (lower, upper))
