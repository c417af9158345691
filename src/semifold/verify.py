"""Desk-checkable estimates: nonexistence threshold, negative-part and
energy bounds, decay-space norm, shell-formula potential, and the
discrete comparison principle."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import SingularOperator
from .grid import (RadialGrid, TridiagonalOperator, dirichlet_energy,
                   solve_tridiagonal, weighted_integral)


def tau_star(instance) -> float:
    """Upper bound Theta * int P phi1 dx on the solvable t half-line."""
    return instance.nonlinearity.theta * weighted_integral(
        instance.grid, instance.weight_values * instance.eigen.phi1)


def check_negative_part(u: np.ndarray, w: np.ndarray) -> dict:
    """u >= w restricted to the set where u < 0 (uniform negative-part
    bound via the linear subsolution)."""
    neg = u < 0.0
    viol = float((w[neg] - u[neg]).max()) if neg.any() else 0.0
    viol = max(viol, 0.0)
    tol = 1e-8 * (1.0 + np.abs(w).max())
    return {"pass": viol <= tol, "max_violation": viol, "tolerance": tol}


def weighted_source_functional(u: np.ndarray, eigen, instance) -> float:
    """int P g(u+) phi1 dx, bounded uniformly along any branch sweep."""
    up = np.maximum(u, 0.0)
    gu = np.asarray(instance.nonlinearity.g(up), dtype=float)
    return weighted_integral(instance.grid,
                             instance.weight_values * gu * eigen.phi1)


def gradient_bound(grid: RadialGrid, u: np.ndarray) -> dict:
    """Dirichlet energy of the positive part, with the exponent metadata
    sigma = N/(N-2), beta = (sigma-1)/sigma, gamma = 2/(N-2)."""
    sigma = grid.N / (grid.N - 2)
    return {
        "value": dirichlet_energy(grid, np.maximum(u, 0.0)),
        "sigma": sigma,
        "beta": (sigma - 1.0) / sigma,
        "gamma": 2.0 / (grid.N - 2),
    }


def e0_norm(grid: RadialGrid, u: np.ndarray) -> float:
    """max|u| + max(r^{N-2}|u|) over the nodes."""
    u = np.asarray(u, dtype=float)
    return float(np.abs(u).max() + (grid.nodes ** (grid.N - 2) * np.abs(u)).max())


def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over x, starting from 0 at x[0]:
    the arithmetic of scipy.integrate.cumulative_trapezoid(y, x,
    initial=0), in its order, so the bits are the same, without importing
    scipy.integrate (which pulls in scipy.optimize, sparse and spatial)."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def riesz_potential(grid: RadialGrid, rho: np.ndarray) -> np.ndarray:
    """Newtonian potential of a radial source by the shell formula
    u(r) = (1/(N-2)) [ r^{-(N-2)} int_0^r s^{N-1} rho ds + int_r^R s rho ds ],
    so that -Lap u = rho on the truncated domain."""
    r = grid.nodes
    rho = np.asarray(rho, dtype=float)
    inner = _cumulative_trapezoid(r ** (grid.N - 1) * rho, r)
    outer_full = _cumulative_trapezoid(r * rho, r)
    outer = outer_full[-1] - outer_full
    u = np.empty_like(rho)
    u[1:] = (inner[1:] / r[1:] ** (grid.N - 2) + outer[1:]) / (grid.N - 2)
    u[0] = outer[0] / (grid.N - 2)
    return u


def representation_residual(instance, t: float, u: np.ndarray) -> float:
    """Relative E0-distance between u and the shell-formula potential of
    its own source P(g(u) + t phi1 + f1)."""
    grid = instance.grid
    src = instance.weight_values * (
        np.asarray(instance.nonlinearity.g(u))
        + t * instance.eigen.phi1 + instance.forcing.f1)
    u_pot = riesz_potential(grid, src)
    denom = e0_norm(grid, u)
    if denom == 0.0:
        return e0_norm(grid, u_pot - u)
    return e0_norm(grid, u_pot - u) / denom


def check_comparison(A: TridiagonalOperator, mP: np.ndarray, mu: float,
                     rhs: np.ndarray, lambda1: float) -> dict:
    """Discrete comparison principle: (A - mu P) u = rhs >= 0 implies
    u >= 0 whenever mu < lambda1 (inverse positivity of the M-matrix)."""
    if mu >= lambda1:
        raise SingularOperator(
            f"mu = {mu} >= lambda1 = {lambda1}: comparison hypothesis violated")
    op = A.shifted(-mu * mP)
    u = solve_tridiagonal(op, rhs)
    min_u = float(u.min())
    return {"min_u": min_u,
            "pass": min_u >= -1e-12 * max(np.abs(u).max(), 1.0)}


@dataclass
class VerificationReport:
    instance_id: str
    solution_id: str
    entries: List[dict] = field(default_factory=list)

    def add(self, name, value, bound, tolerance, passed=None):
        if passed is None:
            passed = value <= bound + tolerance
        self.entries.append({"name": name, "value": value, "bound": bound,
                             "tolerance": tolerance, "pass": bool(passed)})

    @property
    def all_pass(self) -> bool:
        return all(e["pass"] for e in self.entries)

    def to_dict(self) -> dict:
        return {"instance_id": self.instance_id, "solution_id": self.solution_id,
                "entries": self.entries, "all_pass": self.all_pass}


def verify_solution(instance, profile, solution_id: str = "solution",
                    instance_id: str = "instance") -> VerificationReport:
    """Run every per-solution check against one stored profile."""
    from .subsuper import build_subsolution

    rep = VerificationReport(instance_id=instance_id, solution_id=solution_id)
    ts = tau_star(instance)
    rep.add("tau_star_bound", profile.t, ts, 1e-6 * (1.0 + abs(ts)))
    w = build_subsolution(instance, profile.t)
    neg = check_negative_part(profile.u, w)
    rep.add("negative_part", neg["max_violation"], 0.0, neg["tolerance"],
            passed=neg["pass"])
    below = float((w - profile.u).max())
    rep.add("subsolution_ordering", below, 0.0, 1e-8 * (1.0 + np.abs(w).max()))
    src = weighted_source_functional(profile.u, instance.eigen, instance)
    rep.add("weighted_source_finite", abs(src), np.inf, 0.0,
            passed=np.isfinite(src))
    grad = gradient_bound(instance.grid, profile.u)
    rep.add("gradient_bound_finite", grad["value"], np.inf, 0.0,
            passed=np.isfinite(grad["value"]))
    rep.add("representation_residual",
            representation_residual(instance, profile.t, profile.u), 1e-3, 0.0)
    return rep
