"""Branch tracing in the forcing coefficient t and fold location.

Pseudo-arclength continuation with a bordered tridiagonal corrector
passes the turning point where plain parameter continuation has a
singular Jacobian.  The fold estimate comes from a quadratic fit along
the branch, sharpened by Newton on the extended fold system; an
independent supersolution-reuse bisection climbs to the same value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .eigen import smallest_eigenvalue
from .errors import (InitialPointInvalid, NoConvergence, NoFoldInBranch,
                     QueryPastFold, SingularOperator)
from .grid import solve_tridiagonal
from .nonlinear import jacobian, newton_solve, residual
from .problem import ProblemInstance
from .subsuper import SolutionProfile, make_profile


@dataclass
class BranchPoint:
    t: float
    u: np.ndarray
    stability_mu: float
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

    @property
    def arclengths(self) -> np.ndarray:
        return np.array([p.arclength for p in self.points])


@dataclass
class FoldResult:
    alpha: float
    u_fold: SolutionProfile
    method: str
    hit_cap: bool = False
    alpha_fit: Optional[float] = None


def _stability(instance, u):
    return smallest_eigenvalue(instance.grid, jacobian(instance, u))


def trace_branch(instance: ProblemInstance, t_start: float,
                 u_start: np.ndarray, step_ds: float = 0.5,
                 t_window=(-np.inf, np.inf), max_points: int = 600,
                 tol: float = 1e-10, corrector_maxit: int = 12) -> Branch:
    u = np.asarray(u_start, dtype=float).copy()
    t = float(t_start)
    rs = instance.A.row_scale()
    if np.abs(residual(instance, u, t)).max() > 1e3 * tol * rs:
        raise InitialPointInvalid(
            "starting point does not solve the system to branch tolerance")

    n = instance.grid.n
    w2 = 1.0 / n  # balances the u block against the scalar t in arclength
    Pphi = instance.weight_values * instance.eigen.phi1  # = -dF/dt

    # initial tangent from the parameter derivative du/dt
    y = solve_tridiagonal(jacobian(instance, u), Pphi)
    nrm = np.sqrt(w2 * float(y @ y) + 1.0)
    tau_u, tau_t = y / nrm, 1.0 / nrm

    branch = Branch()
    branch.points.append(BranchPoint(
        t=t, u=u.copy(), stability_mu=_stability(instance, u), arclength=0.0,
        residual_inf=float(np.abs(residual(instance, u, t)).max())))
    ds = float(step_ds)
    ds0 = abs(ds)
    easy = 0
    arc = 0.0
    while len(branch) < max_points:
        u_pred = u + ds * tau_u
        t_pred = t + ds * tau_t
        uc, tc = u_pred.copy(), t_pred
        ok = False
        for _ in range(corrector_maxit):
            F = residual(instance, uc, tc)
            con = w2 * float(tau_u @ (uc - u)) + tau_t * (tc - t) - ds
            if np.abs(F).max() <= tol * rs and abs(con) <= 1e-10 * (1.0 + abs(ds)):
                ok = True
                break
            J = jacobian(instance, uc)
            try:
                p = solve_tridiagonal(J, -F)
                q = solve_tridiagonal(J, Pphi)
            except SingularOperator:
                break
            denom = w2 * float(tau_u @ q) + tau_t
            if denom == 0.0:
                break
            dt = (-con - w2 * float(tau_u @ p)) / denom
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
        nrm = np.sqrt(w2 * float(new_tau_u @ new_tau_u) + new_tau_t ** 2)
        tau_u, tau_t = new_tau_u / nrm, new_tau_t / nrm
        arc += abs(ds)
        u, t = uc, tc
        branch.points.append(BranchPoint(
            t=t, u=u.copy(), stability_mu=_stability(instance, u),
            arclength=arc, residual_inf=float(np.abs(residual(instance, u, t)).max())))
        if not (t_window[0] <= t <= t_window[1]):
            branch.status = "window_exit"
            return branch
        easy += 1
        if easy >= 4:
            ds = np.sign(ds) * min(abs(ds) * 2.0, 8.0 * ds0)
            easy = 0
    branch.status = "max_points"
    return branch


def _g_second(instance):
    nl = instance.nonlinearity
    if nl.g_second is not None:
        return nl.g_second

    def fd(s):
        s = np.asarray(s, dtype=float)
        h = 1e-6 * (1.0 + np.abs(s))
        return (np.asarray(nl.g_prime(s + h)) - np.asarray(nl.g_prime(s - h))) / (2 * h)

    return fd


def refine_fold(instance: ProblemInstance, u0: np.ndarray, t0: float,
                v0: np.ndarray, tol: float = 1e-12, maxit: int = 40):
    """Newton on the extended system {F(u,t)=0, J(u,t)v=0, c.v=1}.
    Returns (u, t, v) at the quadratic turning point."""
    gsec = _g_second(instance)
    P = instance.weight_values
    Pphi = P * instance.eigen.phi1
    c = v0 / float(v0 @ v0)  # so that c.v0 = 1
    u, t, v = u0.copy(), float(t0), v0.copy()
    rs = instance.A.row_scale()
    for _ in range(maxit):
        F = residual(instance, u, t)
        J = jacobian(instance, u)
        Jv = J.apply(v)
        if np.abs(F).max() <= tol * rs and \
                np.abs(Jv).max() <= 1e-8 * rs * np.abs(v).max():
            break
        p = solve_tridiagonal(J, -F)
        q = solve_tridiagonal(J, Pphi)
        D = P * np.asarray(gsec(u)) * v
        a1 = solve_tridiagonal(J, D * p)
        a2 = solve_tridiagonal(J, D * q)
        ca2 = float(c @ a2)
        if ca2 == 0.0:
            raise NoConvergence("fold system degenerate (c.a2 = 0)")
        dt = (1.0 - float(c @ a1)) / ca2
        u = u + p + dt * q
        t = t + dt
        v = a1 + dt * a2  # v + dv with dv = -v + a1 + dt*a2
    else:
        raise NoConvergence("fold refinement did not converge", iterations=maxit)
    return u, t, v


def detect_fold(branch: Branch, instance: ProblemInstance,
                fit_window: int = 5, tol: float = 1e-10) -> FoldResult:
    ts = branch.t_values
    ss = branch.arclengths
    if len(branch) < 5:
        raise NoFoldInBranch("branch too short")
    d = np.diff(ts)
    turns = np.where((d[:-1] > 0) & (d[1:] < 0))[0] + 1
    if turns.size == 0:
        raise NoFoldInBranch("no sign change of dt/ds along the branch")
    idx = int(turns[np.argmax(ts[turns])])

    # fit only points within a local arclength radius of the turn: the
    # adaptive stepping leaves wildly nonuniform spacing there, and far
    # points poison the parabola
    lo = max(idx - fit_window, 0)
    hi = min(idx + fit_window + 1, len(branch))
    local = np.abs(np.diff(ss[max(idx - 2, 0):min(idx + 3, len(branch))]))
    radius = 10.0 * float(np.median(local)) if local.size else np.inf
    sel = np.arange(lo, hi)
    sel = sel[np.abs(ss[sel] - ss[idx]) <= radius]
    if sel.size < 3:
        sel = np.arange(max(idx - 1, 0), min(idx + 2, len(branch)))
    coef = np.polyfit(ss[sel] - ss[idx], ts[sel], 2)
    alpha_fit = float(coef[2] - coef[1] ** 2 / (4.0 * coef[0])) \
        if coef[0] != 0.0 else float(ts[idx])

    # null-vector seed from the branch secant around the turn
    v0 = branch.points[min(idx + 1, len(branch) - 1)].u - branch.points[idx - 1].u
    v0 = v0 / np.abs(v0).max()
    try:
        u_star, alpha, _ = refine_fold(instance, branch.points[idx].u.copy(),
                                       float(ts[idx]), v0)
    except (NoConvergence, SingularOperator):
        alpha, u_star = alpha_fit, branch.points[idx].u.copy()

    t_polish = alpha - 1e-8 * (1.0 + abs(alpha))
    try:
        prof = newton_solve(instance, u_star, t_polish, tol=1e-8, maxit=20)
    except NoConvergence:
        prof = make_profile(instance, u_star, t_polish,
                            float(np.abs(residual(instance, u_star, t_polish)).max()))
    prof.stability_mu = _stability(instance, prof.u)
    return FoldResult(alpha=float(alpha), u_fold=prof, method="arclength",
                      alpha_fit=alpha_fit)


def bisect_alpha(instance: ProblemInstance, t_known: float,
                 u_known: np.ndarray, dt_init: float = 0.5,
                 dt_min: float = 1e-6, t_cap: Optional[float] = None,
                 tol: float = 1e-10) -> FoldResult:
    """Climb the solvable half-line by Newton warm starts; each success
    certifies solvability at the new t, each failure halves the step."""
    t = float(t_known)
    u = np.asarray(u_known, dtype=float).copy()
    dt = float(dt_init)
    hi: Optional[float] = None
    streak = 0
    while dt >= dt_min:
        t_try = t + dt
        if t_cap is not None and t_try > t_cap:
            t_try = t_cap
        if hi is not None and t_try >= hi:
            dt *= 0.5
            continue
        try:
            prof = newton_solve(instance, u, t_try, tol=tol, maxit=30)
            t, u = t_try, prof.u
            streak += 1
            if t_cap is not None and t >= t_cap:
                prof = make_profile(instance, u, t,
                                    float(np.abs(residual(instance, u, t)).max()))
                prof.stability_mu = _stability(instance, u)
                return FoldResult(alpha=t, u_fold=prof, method="bisection",
                                  hit_cap=True)
            if streak >= 2:
                dt = min(dt * 2.0, dt_init)
                streak = 0
        except NoConvergence:
            hi = t_try
            dt *= 0.5
            streak = 0
    alpha = 0.5 * (t + hi) if hi is not None else t + dt_min
    prof = make_profile(instance, u, t, float(np.abs(residual(instance, u, t)).max()))
    prof.stability_mu = _stability(instance, u)
    return FoldResult(alpha=float(alpha), u_fold=prof, method="bisection")


def two_solutions(instance: ProblemInstance, t_query: float, branch: Branch,
                  fold: Optional[FoldResult] = None, tol: float = 1e-10):
    """The minimal and the second solution at t_query < alpha, polished
    from the pre-fold and post-fold branch segments."""
    if fold is None:
        fold = detect_fold(branch, instance)
    if t_query >= fold.alpha:
        raise QueryPastFold(f"t = {t_query} is not below alpha = {fold.alpha}")
    ts = branch.t_values
    idx = int(np.argmax(ts))
    out = []
    for seg in (list(range(0, idx + 1)), list(range(len(branch) - 1, idx - 1, -1))):
        seg_ts = ts[seg]
        j = int(np.argmin(np.abs(seg_ts - t_query)))
        u0 = branch.points[seg[j]].u
        prof = newton_solve(instance, u0, t_query, tol=tol, maxit=60)
        prof.stability_mu = _stability(instance, prof.u)
        out.append(prof)
    u_lower, u_upper = out
    if u_lower.u.mean() > u_upper.u.mean():
        u_lower, u_upper = u_upper, u_lower
    return u_lower, u_upper
