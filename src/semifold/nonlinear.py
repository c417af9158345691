"""Nonlinear residual/Jacobian assembly, damped Newton, monotone Newton
from the subsolution, and the fixed-point iteration of the solution
operator (Picard's, and shifted, the sub-supersolution method's)."""

from __future__ import annotations

import numpy as np

from .config import COARSE_N
from .errors import MonotonicityBroken, NoConvergence, SingularOperator
from .grid import (TridiagonalOperator, dot, factor_tridiagonal,
                   solve_tridiagonal)
from .problem import ProblemInstance
from .subsuper import SolutionProfile, build_subsolution, make_profile

# Every loop but certify stops on its correction (_correction_stop), not
# on the residual, whose row scale grows as h^-2: u + du once |du|_inf <=
# tol (1 + |u|_inf), where tol is SOLVE_TOL for newton_solve (picard_solve
# bounds its estimated error by it, monotone_iterate by 0) and FOLD_TOL
# for monotone Newton and the fold system (quadratic, so u + du is then
# good to about tol^2), and u once a correction below FOLD_FLOOR stops
# falling: the rounding floor, about 1e-12 at n = 4000, 4e-10 at 128000.
# NEWTON_MAXIT, PICARD_MAXIT and FOLD_MAXIT cap the steps
SOLVE_TOL = 1e-10
NEWTON_MAXIT = 50
PICARD_MAXIT = 2000
FOLD_TOL = 1e-8
FOLD_FLOOR = 1e-7
FOLD_MAXIT = 40
# full Newton steps certify takes at most, and the factor by which each
# correction must fall below the one before for it to take another
CERTIFY_MAXIT = 8
CERTIFY_CONTRACTION = 2.0
EPS = float(np.finfo(float).eps)


def residual(inst: ProblemInstance, u: np.ndarray, t: float) -> np.ndarray:
    """F(u, t) = A u - P g(u) - P (t phi1 + f1)."""
    return (inst.A.apply(u) - inst.weight_values * np.asarray(inst.nonlinearity.g(u))
            - inst.forcing_term(t))


def jacobian(inst: ProblemInstance, u: np.ndarray) -> TridiagonalOperator:
    return inst.A.shifted(-inst.weight_values
                          * np.asarray(inst.nonlinearity.g_prime(u)))


def _correction_stop(size: float, size_prev: float, tol: float,
                     what: str = ""):
    """"take" a correction of relative size `size` and stop once it is at
    most tol and below `size_prev`, the one before; "keep" the iterate,
    dropping it, once a size at most FOLD_FLOOR does not fall (the rounding
    floor); else None, or NoConvergence naming `what` if a size above
    FOLD_FLOOR does not fall (damped Newton and Picard name none)."""
    if size < size_prev:
        return "take" if size <= tol else None
    if size <= FOLD_FLOOR:
        return "keep"
    if what:
        raise NoConvergence(f"{what} did not converge (last correction "
                            f"{size:.2e} relative)")


def newton_solve(inst: ProblemInstance, u0: np.ndarray,
                 t: float) -> SolutionProfile:
    """Damped Newton with Armijo backtracking on the merit 0.5*||F||_2^2,
    stopped by _correction_stop at SOLVE_TOL on the Newton correction
    -J^-1 F.  Raises NoConvergence after NEWTON_MAXIT steps, or sooner;
    callers probing nonexistence catch it."""
    u = np.asarray(u0, dtype=float).copy()
    F = residual(inst, u, t)
    size_prev = np.inf
    for k in range(1, NEWTON_MAXIT + 1):
        try:
            du = solve_tridiagonal(jacobian(inst, u), -F)
        except SingularOperator as exc:
            raise NoConvergence(f"singular Jacobian at step {k}: {exc}",
                                iterations=k, residual=float(np.abs(F).max()))
        size = float(np.abs(du).max()) / (1.0 + float(np.abs(u).max()))
        stop = _correction_stop(size, size_prev, SOLVE_TOL)
        if stop == "keep":
            return make_profile(inst, u, t, np.abs(F).max(), iterations=k - 1)
        if stop:
            u = u + du
            return make_profile(inst, u, t, np.abs(residual(inst, u, t)).max(),
                                iterations=k)
        size_prev = size
        merit, step = dot(F, F), 1.0
        for _ in range(30):
            u_try = u + step * du
            F_try = residual(inst, u_try, t)
            if np.isfinite(F_try).all() and \
                    dot(F_try, F_try) <= (1.0 - 1e-4 * step) * merit:
                break
            step *= 0.5
        else:
            raise NoConvergence(f"line search stagnated at step {k}",
                                iterations=k, residual=float(np.abs(F).max()))
        u, F = u_try, F_try
    raise NoConvergence(f"Newton: {NEWTON_MAXIT} iterations, residual "
                        f"{np.abs(F).max():.3e}", iterations=NEWTON_MAXIT,
                        residual=float(np.abs(F).max()))


def monotone_rise(inst: ProblemInstance, t: float, u=None):
    """Full Newton steps at t from the subsolution u, by default
    build_subsolution(inst, t), as (limit, steps, defect): the last
    iterate, the steps taken and max(F, 0) over the iterates.

    For convex g, F is order-concave and J = A - P g'(u) a Z-matrix, so
    Newton from a subsolution rises monotonically through subsolutions
    below every solution, to the minimal one, with no supersolution
    (Ortega & Rheinboldt 1970, 13.3).  The minimal solution at a smaller
    t is a subsolution at t, since F(u, t) = F(u, s) - (t - s) P phi1.
    Every preset's g is convex (smooth_ramp: mu_upper > mu_lower; linear:
    g'' = 0); a correction with an entry below -FOLD_FLOOR (1 + |u|_inf),
    as for a custom nonconvex g or past the fold, raises
    MonotonicityBroken.  The steps stop by _correction_stop at FOLD_TOL."""
    u = build_subsolution(inst, t) if u is None else u
    why = f"no minimal solution at t = {t}: Newton from the subsolution"
    F = residual(inst, u, t)
    defect, size_prev, steps = max(float(F.max()), 0.0), np.inf, 0
    for _ in range(FOLD_MAXIT):
        du = solve_tridiagonal(jacobian(inst, u), -F)
        scale = 1.0 + float(np.abs(u).max())
        if du.min() < -FOLD_FLOOR * scale:
            raise MonotonicityBroken(
                f"{why} falls by {-du.min() / scale:.1e} relative at step "
                f"{steps + 1} (past the fold, or g is not convex)")
        size = float(np.abs(du).max()) / scale
        stop = _correction_stop(size, size_prev, FOLD_TOL, why)
        if stop == "keep":
            break
        u, steps = u + du, steps + 1
        F = residual(inst, u, t)
        defect = max(defect, float(F.max()))
        if stop:
            break
        size_prev = size
    else:
        raise NoConvergence(f"{why} did not converge in {FOLD_MAXIT} steps",
                            iterations=steps)
    return u, steps, defect


def monotone_newton(inst: ProblemInstance, t: float):
    """The minimal solution at t, as (profile, eta, beta, h, defect):
    certify's iterate from a monotone_rise limit, its certificate, and
    max(F, 0) / rs over the rise's iterates, rs the row scale of the
    grid the rise ran on.  The certified iterate is returned only if its
    h < 1/2, which for convex g proves it the minimal solution wherever
    certify started (see certify).

    Above COARSE_N nodes, where inst has its COARSE_N-node twin, the rise
    runs on the twin, and its limit, lifted onto inst's nodes, starts
    certify: Newton from a coarse-grid solution needs a number of steps
    that does not grow with the grid (mesh independence; Allgower,
    Boehmer, Potra & Rheinboldt 1986).  Where the twin's rise raises, or
    its lifted limit does not certify (as near an upper root, where beta
    is inf), the rise runs from the subsolution on inst itself, as at n
    <= COARSE_N, where a rise on the 125-node twin moved a near-fold root
    by 4.5e-7."""
    coarse = inst.grid.n > COARSE_N and inst.twin is not None
    for level in (inst.twin, inst) if coarse else (inst,):
        try:
            u, steps, defect = monotone_rise(level, t)
        except (MonotonicityBroken, NoConvergence, SingularOperator):
            if level is inst:
                raise
            continue
        u, eta, beta, h = certify(
            inst, u if level is inst else inst.grid.lift(level.grid, u), t)
        if h < 0.5:
            res = float(np.abs(residual(inst, u, t)).max())
            prof = make_profile(inst, u, t, res, iterations=steps)
            return prof, eta, beta, h, defect / level.A.row_scale()
    raise NoConvergence(f"the minimal solution at t = {t} does not "
                        f"certify (h = {h:.2e} >= 1/2)", iterations=steps)


def certify(inst: ProblemInstance, u: np.ndarray, t: float):
    """Newton-Kantorovich test for a discrete solution near u.

    Takes full Newton steps while each correction eta = ||J^-1 F||_inf
    falls to at most 1/CERTIFY_CONTRACTION of the one before (Deuflhard's
    natural-monotonicity test) and returns the iterate with the smallest
    eta as (u, eta, beta, h): the last one if its eta still fell, else
    the one before.  Kantorovich's bound gives eta_next <= h eta / (2 (1
    - h)), at most eta / 2 wherever h <= 1/2, so a step that does not
    halve eta started where no certificate holds, or at the rounding
    floor of F, where eta rises or falls by chance and more steps buy
    nothing.  (A factor of 4 holds only for h <= 1/3; at alpha's probe,
    where h is 0.01 to 0.4 at the floor, it kept h up to 0.50.)  The stop
    is not _correction_stop's, which accepts a correction below a
    tolerance, relative to |u|_inf, and takes a stall above FOLD_FLOOR
    for divergence: certify has no tolerance, as h is valid at any eta,
    and returns its best iterate wherever the steps stall.  Each step
    solves for its correction alone; x = J^-1 1 is solved once, after the
    loop, on the returned iterate's own Jacobian, so the proof below
    holds however the loop stopped.  The loop keeps the best iterate's
    (u, eta) but not its J, rebuilt for x unless u is the last (0.3 ms
    at n = 64000): one more vector held through the loop would raise its
    peak, and ?gttrf + ?gttrs on every iterate costs more than the
    single ?gtsv it would save.

    J is a Z-matrix (A's off-diagonals are <= 0, the shift is diagonal),
    so x > 0 with J x > 0 proves J an M-matrix, and then ||J^-1||_inf <=
    beta = ||x||_inf / min(J x).  With L = max P * sup|g''|, a Lipschitz
    constant of J in the inf-norm, h = beta L eta <= 1/2 proves a
    solution within (1 - sqrt(1 - 2h)) / (beta L) of u (Kantorovich;
    Ortega & Rheinboldt 1970).  beta and h are inf where the M-matrix
    proof fails, as on the upper solution or for a singular J.

    For convex g, h < 1/2 also proves that solution u' the minimal one,
    wherever the iteration started.  J(u') - J(u) is diagonal and at most
    L r in size, r the radius, so with m = min(J x), J(u') x >= m -
    ||x||_inf L r = m (1 - beta L r) = m sqrt(1 - 2h) > 0: J(u') is an
    M-matrix too.  F is order-concave, so any solution u'' has 0 =
    F(u'') <= J(u') (u'' - u'), and u'' >= u'.

    Rounding in x is bounded: min(J x) is taken less 4 eps (|J| x), which
    covers the rounding of the product, so the solve's error in x needs
    no bound, and beta is rounded up.  |J| x comes from apply's stencil
    with the off-diagonal terms subtracted, not from an operator |J|.
    Rounding in F, in g' and in the matrix entries is not bounded: eta,
    and so h, is a floating-point value."""
    L = float(inst.weight_values.max()) * inst.nonlinearity.g_second_sup
    u = np.asarray(u, dtype=float)
    best = None
    for _ in range(CERTIFY_MAXIT):
        J = jacobian(inst, u)
        F = residual(inst, u, t)
        np.negative(F, out=F)
        try:
            du = solve_tridiagonal(J, F)
        except SingularOperator:
            break
        del F
        eta = float(np.abs(du).max())
        if best is not None and not eta < best[1]:
            break
        stalled = best is not None and eta > best[1] / CERTIFY_CONTRACTION
        best = (u, eta)
        if stalled:
            break
        u = u + du
        del du
    if best is None:
        return u, np.inf, np.inf, np.inf
    if best[0] is not u:  # else J is J(u) already: the stalled exit
        del J
        J = jacobian(inst, best[0])
    u, eta = best
    try:
        x = solve_tridiagonal(J, np.ones(u.size))
    except SingularOperator:
        return u, eta, np.inf, np.inf
    beta = h = np.inf
    if (J.sub <= 0.0).all() and (J.sup <= 0.0).all() and (x > 0.0).all():
        # |J| x by apply's stencil: J's off-diagonals are <= 0, and
        # -(s x) is exactly (-s) x
        margin = np.abs(J.diag) * x
        margin[:-1] -= J.sup * x[1:]
        margin[1:] -= J.sub * x[:-1]
        margin *= 4.0 * EPS
        low = float(np.subtract(J.apply(x), margin, out=margin).min())
        if low > 0.0:
            beta = float(np.nextafter(np.abs(x).max() / low, np.inf))
            h = beta * L * eta
    return u, eta, beta, h


def _fixed_point(inst: ProblemInstance, u, t: float, tol: float, maxit: int,
                 shift: float = 0.0, interval=None, up: bool = True):
    """Fixed-point iteration (A + cP) u_next = P (g(u) + c u + t phi1 + f1),
    c = shift, from u, each step on one factor of A + cP.  It converges
    linearly: at a ratio rho = size / size_prev > 1/2 of two steps, u_next
    lies about size rho / (1 - rho) > size from the limit, and that is
    what _correction_stop holds to tol.  Given an OrderedInterval, each
    step must rise from u (fall, unless `up`) and stay inside it, to 1e-9
    (1 + |bounds|_inf), as the far bound may be a solution at t."""
    u = np.asarray(u, dtype=float)
    op = factor_tridiagonal(inst.A.shifted(shift * inst.weight_values))
    scale0 = 1.0 + np.abs(u).max()
    if interval is not None:
        slack = 1e-9 * (1.0 + max(np.abs(interval.lower).max(),
                                  np.abs(interval.upper).max()))
    size_prev = np.inf
    for k in range(1, maxit + 1):
        u_next = solve_tridiagonal(op, inst.weight_values * (
            np.asarray(inst.nonlinearity.g(u)) + shift * u)
            + inst.forcing_term(t))
        if not np.isfinite(u_next).all() or np.abs(u_next).max() > 1e8 * scale0:
            raise NoConvergence(f"Picard iteration diverged at step {k}",
                                iterations=k)
        if interval is not None:
            lo, hi = (u, interval.upper) if up else (interval.lower, u)
            if ((u_next < lo - slack) | (u_next > hi + slack)).any():
                raise MonotonicityBroken(
                    f"step {k} left the order between the iterate and the "
                    f"{'upper' if up else 'lower'} bound; shift too small?")
        size = float(np.abs(u_next - u).max()) / (1.0 + float(np.abs(u).max()))
        rho = size / size_prev
        stop = _correction_stop(size, size_prev,
                                tol * (1.0 - rho) / rho if rho > 0.5 else tol)
        if stop:
            u = u if stop == "keep" else u_next
            return make_profile(inst, u, t, np.abs(residual(inst, u, t)).max(),
                                iterations=k - (stop == "keep"))
        u, size_prev = u_next, size
    raise NoConvergence(f"Picard: {maxit} iterations, last step {size:.3e} "
                        "relative", iterations=maxit, residual=size)


def picard_solve(inst: ProblemInstance, u0: np.ndarray,
                 t: float) -> SolutionProfile:
    """Picard iteration of the solution operator: _fixed_point at c = 0,
    to SOLVE_TOL in at most PICARD_MAXIT steps."""
    return _fixed_point(inst, u0, t, SOLVE_TOL, PICARD_MAXIT)
