"""The explicit subsolution and the shifted monotone iteration.

The subsolution solves the linear comparison problem with the lower
slack slope.  Between it and a supersolution, such as the minimal
solution at a larger t, the shifted Picard scheme converges
monotonically to the minimal solution; for a convex g, Newton from the
subsolution alone does too (nonlinear.monotone_newton).  The scheme is
Picard's loop, nonlinear._fixed_point, shifted and held to the interval.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import SingularOperator
from .grid import solve_tridiagonal
from .problem import ProblemInstance

MONOTONE_MAXIT = 50000


@dataclass
class OrderedInterval:
    lower: np.ndarray
    upper: np.ndarray


@dataclass
class SolutionProfile:
    u: np.ndarray
    t: float
    residual_inf: float
    stability_mu: Optional[float] = None
    iterations: int = 0


def make_profile(instance: ProblemInstance, u: np.ndarray, t: float,
                 residual_inf: float, iterations: int = 0) -> SolutionProfile:
    """The profile of a solution u at t.  `instance` is not read; callers
    outside the package (perfbench's output checks) pass it."""
    return SolutionProfile(u=u, t=float(t), residual_inf=float(residual_inf),
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


def monotone_iterate(instance: ProblemInstance, t: float,
                     interval: OrderedInterval, shift: Optional[float] = None,
                     start: str = "lower") -> SolutionProfile:
    """Shifted Picard scheme (A + cP) u_{k+1} = P (g(u_k) + c u_k + t phi1 + f1),
    monotone from either end of the ordered interval, run to the rounding
    floor (tol 0): near the fold a stop on a 1e-10 step left 2.2e-10."""
    from .nonlinear import _fixed_point

    lower, upper = interval.lower, interval.upper
    if shift is None:
        s = np.linspace(float(lower.min()), float(upper.max()), 2001)
        shift = 1.05 * max(0.0, float(np.asarray(
            instance.nonlinearity.g_prime(s)).max()))
    up = start == "lower"
    return _fixed_point(instance, lower if up else upper, t, 0.0,
                        MONOTONE_MAXIT, shift, interval, up)
