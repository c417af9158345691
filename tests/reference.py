"""Reference routines that only the tests call: deflated Newton for a
second root, one step of the solution operator, membership in an order
interval, the split of a forcing along phi1, the pencil's Rayleigh
quotient, and the canonical scenario with some of its keys edited.  No
command runs them, so they live here rather than in the package; each
is checked against what the package computes."""

import re
from typing import Sequence

import numpy as np

from semifold.config import (CANONICAL_CONFIG, build_scenario_instance,
                             parse_config)
from semifold.eigen import _quotient
from semifold.errors import NoConvergence, NotNormalized, SingularOperator
from semifold.grid import dot, solve_tridiagonal, weighted_integral
from semifold.nonlinear import SOLVE_TOL, _correction_stop, jacobian, residual
from semifold.subsuper import SolutionProfile, make_profile


def _deflation_factor(u: np.ndarray, known: Sequence[SolutionProfile]):
    """Product of (1/m_k + 1) and the gradient of its log, m_k = ||u -
    u_k||_2^2 / n the mean square distance to the k-th known root: a
    distance that does not grow with the grid."""
    eta, grads = 1.0, []
    for prof in known:
        d = u - prof.u
        m = dot(d, d) / d.size
        eta *= 1.0 / m + 1.0
        # d/du of log(1/m + 1) = -2 d / (n m (1 + m))
        grads.append(-2.0 * d / (d.size * m * (1.0 + m)))
    return eta, np.sum(grads, axis=0)


def deflated_newton(inst, u0: np.ndarray, t: float,
                    known: Sequence[SolutionProfile], tol: float = SOLVE_TOL,
                    maxit: int = 50) -> SolutionProfile:
    """Deflated Newton (Farrell, Birkisson & Funke, SIAM J. Sci. Comput.
    37, 2015): nonlinear.newton_solve's damped Newton on eta(u) F(u)
    (_deflation_factor), whose step is the plain one divided by 1 -
    grad(log eta).du, so the tridiagonal solve is unchanged.  The merit
    is 0.5*||eta F||_2^2, and _correction_stop applies to the plain
    correction only once u is at least 1e-4 (1 + |u_k|_inf) from every
    known root u_k.  With no known root this is newton_solve."""
    u = np.asarray(u0, dtype=float).copy()
    if any(np.array_equal(u, p.u) for p in known):
        raise NoConvergence("deflated Newton cannot start on a known root")
    eta, grad_log_eta = _deflation_factor(u, known)
    F = residual(inst, u, t)
    size_prev = np.inf
    for k in range(1, maxit + 1):
        try:
            du = solve_tridiagonal(jacobian(inst, u), -F)
        except SingularOperator as exc:
            raise NoConvergence(f"singular Jacobian at step {k}: {exc}",
                                iterations=k, residual=float(np.abs(F).max()))
        size = float(np.abs(du).max()) / (1.0 + float(np.abs(u).max()))
        stop = _correction_stop(size, size_prev, tol) if all(
            np.abs(u - p.u).max() >= 1e-4 * (1.0 + np.abs(p.u).max())
            for p in known) else None
        if stop == "keep":
            return make_profile(inst, u, t, np.abs(F).max(), iterations=k - 1)
        if stop:
            u = u + du
            return make_profile(inst, u, t, np.abs(residual(inst, u, t)).max(),
                                iterations=k)
        size_prev = size
        if known:
            denom = 1.0 - dot(grad_log_eta, du)
            du = du / np.copysign(max(abs(denom), 1e-12), denom)
        merit = eta ** 2 * dot(F, F)
        step = 1.0
        for _ in range(30):
            u_try = u + step * du
            F_try = residual(inst, u_try, t)
            eta, grad_log_eta = _deflation_factor(u_try, known)
            if np.isfinite(F_try).all() and \
                    eta ** 2 * dot(F_try, F_try) <= (1.0 - 1e-4 * step) * merit:
                break
            step *= 0.5
        else:
            raise NoConvergence(f"line search stagnated at step {k}",
                                iterations=k, residual=float(np.abs(F).max()))
        u, F = u_try, F_try
    raise NoConvergence(f"Newton: {maxit} iterations, residual "
                        f"{np.abs(F).max():.3e}", iterations=maxit,
                        residual=float(np.abs(F).max()))


def second_solution(inst, known: SolutionProfile, t: float) -> SolutionProfile:
    """Deflate a known solution and search for another one from
    perturbations along the first eigenfunction, in which the second
    branch separates.  No one size serves: on the canonical scenario, 100
    below the fold, Newton from 4 (at n = 1000 also from 2) stagnates,
    while from 0.01 to 40 below it every size reaches the second solution."""
    phi = inst.eigen.phi1
    direction = phi / np.abs(phi).max()
    last = None
    for eps in (4.0, 2.0, 1.0, 0.5, 0.2):
        try:
            return deflated_newton(inst, known.u + eps * direction, t,
                                   [known], maxit=200)
        except NoConvergence as exc:
            last = exc
    raise NoConvergence(f"no second solution found: {last}")


def apply_solution_operator(inst, v: np.ndarray, t: float) -> np.ndarray:
    """One Picard step: solve A u = P g(v) + P (t phi1 + f1)."""
    g = np.asarray(inst.nonlinearity.g(v))
    return solve_tridiagonal(inst.A, inst.weight_values * g
                             + inst.forcing_term(t))


def check_order_interval(u: np.ndarray, interval, grid) -> dict:
    """Membership in the order set: strictly between the pair, with
    strictly positive weighted tail gaps on both sides on [R/2, R]."""
    mask = grid.tail_window()
    rw = grid.nodes[mask] ** (grid.N - 2)
    strict = bool((interval.lower < u).all() and (u < interval.upper).all())
    lower_gap = float((rw * (u[mask] - interval.lower[mask])).min())
    upper_gap = float((rw * (interval.upper[mask] - u[mask])).min())
    return {
        "strict_ordering": strict,
        "lower_tail_gap": lower_gap,
        "upper_tail_gap": upper_gap,
        "member": strict and lower_gap > 0.0 and upper_gap > 0.0,
    }


def decompose_forcing(f: np.ndarray, eigen, grid, weight_values: np.ndarray):
    """Split f = t*phi1 + f1 with f1 P-orthogonal to phi1."""
    norm_res = abs(weighted_integral(grid, weight_values * eigen.phi1 ** 2) - 1.0)
    if norm_res > 1e-10:
        raise NotNormalized(f"eigen normalization residual {norm_res:.3e}")
    f = np.asarray(f, dtype=float)
    t = weighted_integral(grid, weight_values * f * eigen.phi1)
    return float(t), f - t * eigen.phi1


def rayleigh_quotient(grid, A, weight_values: np.ndarray,
                      v: np.ndarray) -> float:
    """eigen._quotient of v, with A v formed here: lambda1 at phi1, and
    above it for any other trial function.  (The plain Dirichlet-energy
    quotient would miss the far-field term of the decay-matched Robin
    row.)"""
    v = np.asarray(v, dtype=float)
    return _quotient(grid, weight_values, v, A.apply(v))


def edited_canonical(R: float, n: int, **keys):
    """The instance of CANONICAL_CONFIG at radius R and n nodes, with the
    line of each other key in `keys` (farfield, mu_lower_factor, ...) set
    to its value, as a scenario file would set it."""
    text = CANONICAL_CONFIG
    for key, value in {"r": float(R), "n": n, **keys}.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text,
                              flags=re.M)
        if count != 1:
            raise KeyError(f"CANONICAL_CONFIG has no line for {key!r}")
    return build_scenario_instance(parse_config(text))
