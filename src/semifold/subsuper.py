"""Explicit sub/supersolutions and the shifted monotone iteration.

The subsolution solves the linear comparison problem with the lower
slack slope; the supersolution is the potential of a plateau source
that dominates the nonlinearity on [0, L].  Between an ordered pair the
shifted Picard scheme converges monotonically to the minimal solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .eigen import decay_constants
from .errors import (MonotonicityBroken, NoConvergence, RampFailed,
                     SingularOperator)
from .grid import RadialGrid, solve_tridiagonal, weighted_integral
from .problem import ProblemInstance


@dataclass
class OrderedInterval:
    lower: np.ndarray
    upper: np.ndarray

    @property
    def ordering_margin(self) -> float:
        return float((self.upper - self.lower).min())


@dataclass
class SolutionProfile:
    u: np.ndarray
    t: float
    residual_inf: float
    e0_norm: float
    decay_coeff: float
    stability_mu: Optional[float] = None
    iterations: int = 0


def make_profile(instance: ProblemInstance, u: np.ndarray, t: float,
                 residual_inf: float, iterations: int = 0) -> SolutionProfile:
    from .verify import e0_norm

    grid = instance.grid
    dec = decay_constants(grid, np.abs(u) + 1e-300)
    return SolutionProfile(u=u, t=float(t), residual_inf=float(residual_inf),
                           e0_norm=e0_norm(grid, u),
                           decay_coeff=0.5 * (dec.C1 + dec.C2),
                           iterations=iterations)


def build_subsolution(instance: ProblemInstance, t: float) -> np.ndarray:
    """Solution of the linear lower-slope problem; a subsolution whenever
    g(s) >= mu_lower*s - theta."""
    nl = instance.nonlinearity
    if nl.mu_lower >= instance.eigen.lambda1:
        raise SingularOperator(
            f"mu_lower = {nl.mu_lower} >= lambda1 = {instance.eigen.lambda1}; "
            "the comparison operator loses positivity")
    P = instance.weight_values
    op = instance.A.shifted(-nl.mu_lower * P)
    if not op.is_m_matrix():
        raise SingularOperator("shifted operator lost the M-matrix pattern")
    rhs = P * (-nl.theta + t * instance.eigen.phi1 + instance.forcing.f1)
    return solve_tridiagonal(op, rhs)


def _smoothstep(r, r1, r2):
    x = np.clip((r - r1) / (r2 - r1), 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def build_supersolution(instance: ProblemInstance, L: float,
                        R1: float, R2: float, margin_rel: float = 1e-6):
    """Plateau supersolution: v solves -Lap v = P F with F ramping from 0
    inside radius R1 to the dominating level m outside R2.  Also returns
    the largest t for which v is a strict supersolution."""
    grid = instance.grid
    if not (0.0 < R1 < R2 <= grid.R) or L <= 0.0:
        raise RampFailed(f"need 0 < R1 < R2 <= R and L > 0, got {R1}, {R2}, {L}")
    nl = instance.nonlinearity
    f1_max = float(instance.forcing.f1.max())
    s = np.linspace(0.0, L, 2001)
    m = float(np.asarray(nl.g(s)).max()) + f1_max

    r1 = R1
    while True:
        F = m * _smoothstep(grid.nodes, r1, max(R2, min(2.0 * r1, grid.R)))
        v = solve_tridiagonal(instance.A, instance.weight_values * F)
        if np.abs(v).max() <= L or m == 0.0:
            break
        r1 *= 1.5
        if r1 > 0.5 * grid.R:
            raise RampFailed(
                f"no inner radius <= R/2 keeps the plateau potential below {L}")

    eps0 = margin_rel * (1.0 + abs(m))
    phi1 = instance.eigen.phi1
    # largest t with m + t*phi1 <= F - eps0 everywhere
    t_threshold = float(((F - eps0 - m) / phi1).min())
    return v, t_threshold


def monotone_iterate(instance: ProblemInstance, t: float,
                     interval: OrderedInterval, shift: Optional[float] = None,
                     tol: float = 1e-10, maxit: int = 50000,
                     start: str = "lower") -> SolutionProfile:
    """Shifted Picard scheme (A + cP) u_{k+1} = P (g(u_k) + c u_k + t phi1 + f1),
    monotone from either end of the ordered interval."""
    from .nonlinear import residual

    nl = instance.nonlinearity
    lower, upper = interval.lower, interval.upper
    if shift is None:
        s = np.linspace(float(lower.min()), float(upper.max()), 2001)
        shift = 1.05 * max(0.0, float(np.asarray(nl.g_prime(s)).max()))
    P = instance.weight_values
    op = instance.A.shifted(shift * P)
    affine = P * (t * instance.eigen.phi1 + instance.forcing.f1)
    # containment slack: the upper bound may itself be a solution at the
    # same t (the climb path), so allow rounding-level grazing
    scale = 1e-9 * (1.0 + max(np.abs(lower).max(), np.abs(upper).max()))

    up = start == "lower"
    u = lower.copy() if up else upper.copy()
    for k in range(1, maxit + 1):
        rhs = P * (np.asarray(nl.g(u)) + shift * u) + affine
        u_next = solve_tridiagonal(op, rhs)
        if up:
            if (u_next < u - scale).any():
                raise MonotonicityBroken(
                    f"upward iterate decreased at step {k}; shift too small?")
            if (u_next > upper + scale).any():
                raise MonotonicityBroken(
                    f"upward iterate escaped above the supersolution at step {k}")
        else:
            if (u_next > u + scale).any():
                raise MonotonicityBroken(
                    f"downward iterate increased at step {k}; shift too small?")
            if (u_next < lower - scale).any():
                raise MonotonicityBroken(
                    f"downward iterate escaped below the subsolution at step {k}")
        delta = np.abs(u_next - u).max()
        u = u_next
        if delta <= tol:
            res = np.abs(residual(instance, u, t)).max()
            return make_profile(instance, u, t, res, iterations=k)
    raise NoConvergence(f"monotone iteration: {maxit} steps, last delta {delta:.3e}",
                        iterations=maxit, residual=float(delta))


def check_order_interval(u: np.ndarray, interval: OrderedInterval,
                         grid: RadialGrid) -> dict:
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
