"""Nonlinear residual/Jacobian assembly, damped Newton, Picard solution
operator, and deflation for extra roots."""

from __future__ import annotations

from typing import List

import numpy as np

from .errors import NoConvergence, SingularOperator
from .grid import TridiagonalOperator, solve_tridiagonal
from .problem import ProblemInstance
from .subsuper import SolutionProfile, make_profile


_last_forcing = (None, None, None)


def _forcing(inst: ProblemInstance, t: float) -> np.ndarray:
    """P (t phi1 + f1), kept for the last (instance, t) asked for: Newton
    and its line search evaluate many residuals at one t."""
    global _last_forcing
    last_inst, last_t, rhs = _last_forcing
    if last_inst is not inst or last_t != t:
        rhs = inst.weight_values * (t * inst.eigen.phi1 + inst.forcing.f1)
        _last_forcing = (inst, t, rhs)
    return rhs


def residual(inst: ProblemInstance, u: np.ndarray, t: float) -> np.ndarray:
    """F(u, t) = A u - P g(u) - P (t phi1 + f1)."""
    return (inst.A.apply(u) - inst.weight_values * np.asarray(inst.nonlinearity.g(u))
            - _forcing(inst, t))


def jacobian(inst: ProblemInstance, u: np.ndarray) -> TridiagonalOperator:
    return inst.A.shifted(-inst.weight_values
                          * np.asarray(inst.nonlinearity.g_prime(u)))


def apply_solution_operator(inst: ProblemInstance, v: np.ndarray,
                            t: float) -> np.ndarray:
    """One Picard step: solve A u = P g(v) + P (t phi1 + f1)."""
    return solve_tridiagonal(inst.A, inst.weight_values
                             * np.asarray(inst.nonlinearity.g(v))
                             + _forcing(inst, t))


def newton_solve(inst: ProblemInstance, u0: np.ndarray, t: float,
                 tol: float = 1e-10, maxit: int = 50,
                 damping: bool = True) -> SolutionProfile:
    """Damped Newton with Armijo backtracking on the merit 0.5*||F||_2^2.
    Raises NoConvergence; callers probing nonexistence catch it."""
    u = np.asarray(u0, dtype=float).copy()
    rs = inst.A.row_scale()
    F = residual(inst, u, t)
    for k in range(1, maxit + 1):
        if np.abs(F).max() <= tol * rs:
            return make_profile(inst, u, t, np.abs(F).max(),
                                iterations=k - 1)
        J = jacobian(inst, u)
        try:
            du = solve_tridiagonal(J, -F)
        except SingularOperator as exc:
            raise NoConvergence(f"singular Jacobian at step {k}: {exc}",
                                iterations=k, residual=float(np.abs(F).max()))
        merit = float(F @ F)
        step = 1.0
        for _ in range(30):
            u_try = u + step * du
            F_try = residual(inst, u_try, t)
            if not np.isfinite(F_try).all():
                step *= 0.5
                continue
            if not damping or float(F_try @ F_try) <= (1.0 - 1e-4 * step) * merit:
                break
            step *= 0.5
        else:
            raise NoConvergence(f"line search stagnated at step {k}",
                                iterations=k, residual=float(np.abs(F).max()))
        u, F = u_try, F_try
    raise NoConvergence(f"Newton: {maxit} iterations, residual "
                        f"{np.abs(F).max():.3e}", iterations=maxit,
                        residual=float(np.abs(F).max()))


def picard_solve(inst: ProblemInstance, u0: np.ndarray, t: float,
                 tol: float = 1e-10, maxit: int = 2000) -> SolutionProfile:
    """Fixed-point iteration of the solution operator."""
    u = np.asarray(u0, dtype=float).copy()
    rs = inst.A.row_scale()
    scale0 = 1.0 + np.abs(u).max()
    for k in range(1, maxit + 1):
        u_next = apply_solution_operator(inst, u, t)
        if not np.isfinite(u_next).all() or np.abs(u_next).max() > 1e8 * scale0:
            raise NoConvergence(f"Picard iteration diverged at step {k}",
                                iterations=k)
        delta = np.abs(u_next - u).max()
        u = u_next
        if delta <= tol * (1.0 + np.abs(u).max()):
            F = residual(inst, u, t)
            if np.abs(F).max() <= 1e2 * tol * rs:
                return make_profile(inst, u, t, np.abs(F).max(),
                                    iterations=k)
    raise NoConvergence(f"Picard: {maxit} iterations, last delta {delta:.3e}",
                        iterations=maxit, residual=float(delta))


def _deflation_factor(u: np.ndarray, known: List[SolutionProfile]):
    """Product of (1/||u-u_k||^2 + 1) and its gradient prefactors."""
    eta = 1.0
    grads = []
    for prof in known:
        d = u - prof.u
        n2 = float(d @ d)
        if n2 < 1e-300:
            return 1e300, None  # sitting on a known root: hard penalty
        eta *= 1.0 / n2 + 1.0
        # d/du of log(1/n2 + 1) = -2 d / (n2 * (1 + n2))
        grads.append(-2.0 * d / (n2 * (1.0 + n2)))
    return eta, np.sum(grads, axis=0) if grads else np.zeros_like(u)


def deflated_solve(inst: ProblemInstance, known: List[SolutionProfile],
                   u0: np.ndarray, t: float, tol: float = 1e-10,
                   maxit: int = 200) -> SolutionProfile:
    """Newton on the deflated residual eta(u) F(u).  The deflated step is
    a scalar rescaling of the plain Newton step, so the tridiagonal solve
    is reused unchanged."""
    if not known:
        raise ValueError("deflated_solve requires at least one known solution")
    u = np.asarray(u0, dtype=float).copy()
    rs = inst.A.row_scale()
    for k in range(1, maxit + 1):
        F = residual(inst, u, t)
        eta, grad_log_eta = _deflation_factor(u, known)
        if np.abs(F).max() <= tol * rs and grad_log_eta is not None:
            sep_ok = all(np.abs(u - p.u).max() >= 1e-4 * (1.0 + np.abs(p.u).max())
                         for p in known)
            if sep_ok:
                return make_profile(inst, u, t, np.abs(F).max(),
                                    iterations=k - 1)
        J = jacobian(inst, u)
        try:
            du_newton = solve_tridiagonal(J, -F)
        except SingularOperator as exc:
            raise NoConvergence(f"singular Jacobian at step {k}: {exc}",
                                iterations=k)
        if grad_log_eta is None:
            # perched exactly on a known root: nudge off along the grid
            u = u + 1e-3 * (1.0 + np.abs(u).max())
            continue
        # Newton step for eta*F: scale du by 1/(1 - grad(log eta).du)
        denom = 1.0 - float(grad_log_eta @ du_newton)
        if abs(denom) < 1e-12:
            denom = np.sign(denom) * 1e-12 if denom != 0.0 else 1e-12
        du = du_newton / denom
        merit = eta ** 2 * float(F @ F)
        step = 1.0
        for _ in range(40):
            u_try = u + step * du
            F_try = residual(inst, u_try, t)
            eta_try, _ = _deflation_factor(u_try, known)
            if np.isfinite(F_try).all() and \
                    eta_try ** 2 * float(F_try @ F_try) <= (1.0 - 1e-4 * step) * merit:
                break
            step *= 0.5
        else:
            raise NoConvergence(f"deflated line search stagnated at step {k}",
                                iterations=k, residual=float(np.abs(F).max()))
        u = u_try
    raise NoConvergence(f"deflated Newton: {maxit} iterations", iterations=maxit)


def second_solution(inst: ProblemInstance, known: SolutionProfile, t: float,
                    perturbations=(0.2, 0.5, 1.0, 2.0, 4.0),
                    tol: float = 1e-10) -> SolutionProfile:
    """Deflate a known solution and search for another one, retrying with
    larger starting perturbations along the first eigenfunction (the
    direction in which the second branch separates)."""
    phi = inst.eigen.phi1
    direction = phi / np.abs(phi).max()
    last = None
    for eps in perturbations:
        try:
            return deflated_solve(inst, [known], known.u + eps * direction, t,
                                  tol=tol)
        except NoConvergence as exc:
            last = exc
    raise NoConvergence(f"no second solution found: {last}")
