"""Problem data: weight, nonlinearity, forcing, and hypothesis checks.

The driving data are a positive radial weight with finite second moment,
a C^1 nonlinearity whose asymptotic slopes straddle the first weighted
eigenvalue, and a forcing split along/against the first eigenfunction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eigen import EigenPair
from .errors import (BadGridConfig, BoundarySlackWarning, DivergentMoment,
                     ProbeOutOfRange, SlopeViolation, TailInstabilityWarning)
from .grid import RadialGrid, TridiagonalOperator, weighted_integral

TAIL_WARN_REL = 0.01
TAIL_DIVERGENT_REL = 0.25


def expit(s) -> np.ndarray:
    """The logistic 1/(1 + e^-s), by the formula of scipy.special.expit.
    numpy's vectorized exp and libm's differ by one unit in the last
    place on a few percent of arguments, so the two differ by up to
    2 eps relative.  e^-s overflows to inf for s < -709, where the
    result is 0, as it should be."""
    e = np.array(s, dtype=float)
    np.negative(e, out=e)
    with np.errstate(over="ignore"):
        np.exp(e, out=e)
    e += 1.0
    return np.divide(1.0, e, out=e)


# ---------------------------------------------------------------- weights

def rational_decay_weight(power: float) -> Callable:
    return lambda r: (1.0 + np.asarray(r, dtype=float) ** 2) ** (-power)


def exponential_weight(scale: float = 1.0) -> Callable:
    return lambda r: np.exp(-np.asarray(r, dtype=float) / scale)


def table_weight(radii, values) -> Callable:
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    return lambda r: np.interp(np.asarray(r, dtype=float), radii, values)


@dataclass(frozen=True)
class NonlinearitySpec:
    g: Callable
    g_prime: Callable
    mu_lower: float
    mu_upper: float
    theta: float
    g_second: Callable
    g_second_sup: float  # sup |g''|: with max P, the Lipschitz constant of J


def smooth_ramp_nonlinearity(mu_lower: float, mu_upper: float,
                             offset: float = 1.0) -> NonlinearitySpec:
    """Slope mu_lower at -inf, mu_upper at +inf, softplus transition.
    Slack constant against both slope lines is exactly `offset`."""
    gap = mu_upper - mu_lower

    def g(s):
        # softplus log(1 + e^s) as max(s, 0) + log1p(e^-|s|), the formula
        # np.logaddexp(0, s) uses inside its loop, built from vectorized
        # ufuncs that are several times cheaper on long vectors; e^-|s| is
        # subnormal or 0 for |s| > 708, an underflow that is meant
        s = np.asarray(s, dtype=float)
        with np.errstate(under="ignore"):
            softplus = np.maximum(s, 0.0) + np.log1p(np.exp(-np.abs(s)))
            return mu_lower * s + gap * softplus - offset

    def g_prime(s):
        return mu_lower + gap * expit(s)

    def g_second(s):
        e = expit(s)
        return gap * e * (1.0 - e)

    return NonlinearitySpec(g=g, g_prime=g_prime, mu_lower=mu_lower,
                            mu_upper=mu_upper, theta=offset,
                            g_second=g_second, g_second_sup=0.25 * abs(gap))


def linear_nonlinearity(slope: float) -> NonlinearitySpec:
    def g(s):
        return slope * np.asarray(s, dtype=float)

    def g_prime(s):
        return np.full_like(np.asarray(s, dtype=float), slope)

    def g_second(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return NonlinearitySpec(g=g, g_prime=g_prime, mu_lower=slope,
                            mu_upper=slope, theta=0.0, g_second=g_second,
                            g_second_sup=0.0)


@dataclass(frozen=True)
class ForcingSpec:
    """The forcing t phi1 + f1.  f1 holds grid values, P-weighted-
    orthogonal to phi1.  For a file's `zero` preset it stores no array:
    it is np.broadcast_to(0.0, n), a read-only view of one zero."""
    t: float
    f1: np.ndarray


@dataclass(frozen=True)
class ProblemInstance:
    nonlinearity: NonlinearitySpec
    forcing: ForcingSpec
    grid: RadialGrid
    weight_values: np.ndarray
    A: TridiagonalOperator
    eigen: EigenPair
    # the scenario's next coarser level (config._twin), or None
    twin: "ProblemInstance | None" = None

    def forcing_term(self, t: float) -> np.ndarray:
        """P (t phi1 + f1), formed afresh on each call."""
        return self.weight_values * (t * self.eigen.phi1 + self.forcing.f1)


# ------------------------------------------------------------- hypotheses

def _tail_stability(grid: RadialGrid, integrand: np.ndarray):
    """Relative contribution of the outer half of the domain."""
    full = weighted_integral(grid, integrand)
    half = np.where(grid.nodes <= 0.5 * grid.R, integrand, 0.0)
    inner = weighted_integral(grid, half)
    rel = abs(full - inner) / max(abs(full), 1e-300)
    return full, rel


def check_P1(vals: np.ndarray, grid: RadialGrid) -> dict:
    """Mass and second moment of the weight, given by its values `vals`
    at the nodes (positive: assemble_weight_mass checks them), with
    tail-stability flags."""
    mass, mass_rel = _tail_stability(grid, vals)
    second, second_rel = _tail_stability(grid, vals * grid.nodes ** 2)
    report = {
        "mass": mass,
        "second_moment": second,
        "sup_P": float(vals.max()),
        "mass_tail_stable": mass_rel < TAIL_WARN_REL,
        "second_moment_tail_stable": second_rel < TAIL_WARN_REL,
        "mass_tail_rel": mass_rel,
        "second_moment_tail_rel": second_rel,
    }
    for name, rel in (("mass", mass_rel), ("second moment", second_rel)):
        if rel >= TAIL_DIVERGENT_REL:
            raise DivergentMoment(
                f"{name} gains {rel:.1%} from the outer half of [0, R]; "
                "the moment looks divergent")
        if rel >= TAIL_WARN_REL:
            warnings.warn(f"{name} not tail-stable to 1% on [0, {grid.R}]",
                          TailInstabilityWarning)
    return report


def check_P2(vals: np.ndarray, grid: RadialGrid, probe_radii) -> dict:
    """Riesz-kernel bound: sup over probes of r^{N-2} * int P(y)/|x-y|^{N-2} dy,
    P given by its values `vals` at the nodes."""
    from .verify import riesz_potential

    probes = np.atleast_1d(np.asarray(probe_radii, dtype=float))
    if (probes <= 0.0).any() or (probes > grid.R).any():
        raise ProbeOutOfRange(f"probe radii must lie in (0, {grid.R}]")
    # raw kernel integral, without the -Lap normalization constant
    kernel = (grid.N - 2) * grid.sphere_area * riesz_potential(grid, vals)
    at_probes = np.interp(probes, grid.nodes, kernel)
    scaled = probes ** (grid.N - 2) * at_probes
    # the kernel of a nonnegative radial source is nonincreasing in r;
    # the scaled values saturate toward the mass from below, so a growing
    # kernel flags a broken (non-decaying) weight
    order = np.argsort(probes)
    kp = at_probes[order]
    trend_ok = bool(np.all(np.diff(kp) <= 1e-10 * max(abs(kp[0]), 1.0)))
    return {
        "constant_estimate": float(scaled.max()) if scaled.size else 0.0,
        "probe_radii": probes,
        "scaled_values": scaled,
        "kernel_at_origin": float(kernel[0]),
        "nonincreasing_tail": trend_ok,
    }


def derive_slack_constants(g: Callable, mu_lower: float,
                           mu_upper: float) -> dict:
    """Minimal Theta with g(s) >= mu s - Theta for both slack slopes,
    sampled on [-50, 50].  The slopes may be equal, as the `linear`
    preset's are; its gap is flat, so the supremum counts as attained at
    the sampling boundary only where a boundary sample exceeds every
    interior one."""
    if mu_lower > mu_upper:
        raise SlopeViolation(
            f"need mu_lower <= mu_upper, got ({mu_lower}, {mu_upper})")
    num = 20001
    s = np.linspace(-50.0, 50.0, num)
    gs = np.asarray(g(s), dtype=float)
    boundary = False
    theta = 0.0
    for mu, tail_sign in ((mu_lower, -1), (mu_upper, +1)):
        gap = mu * s - gs
        theta = max(theta, float(gap.max()))
        boundary |= bool(max(gap[0], gap[-1]) > gap[1:-1].max())
        # divergence probe on the relevant tail: increments of the gap
        # function must decay, else no finite slack exists for this slope
        tail = gap[-num // 10:] if tail_sign > 0 else gap[:num // 10][::-1]
        inc = np.diff(tail)
        lead, trail = inc[:inc.size // 2].sum(), inc[inc.size // 2:].sum()
        span = max(abs(gap).max(), 1.0)
        if trail > 1e-8 * span and trail > 0.9 * lead and lead > 0:
            raise SlopeViolation(
                f"gap against slope {mu} keeps growing at the sampling "
                "boundary; no finite slack constant")
    if boundary:
        warnings.warn("slack supremum attained at the sampling boundary",
                      BoundarySlackWarning)
    return {"theta": theta, "boundary_attained": boundary}


def check_sigma_growth(nonlin: NonlinearitySpec, N: int) -> dict:
    """Subcritical growth report: sigma = N/(N-2) and tail of g(s)/s^sigma
    on s in (0, 1e4]."""
    if N < 3:
        raise BadGridConfig(f"dimension must be >= 3, got {N}")
    sigma = N / (N - 2)
    s = np.linspace(1e-8, 1e4, 4001)
    ratio = np.asarray(nonlin.g(s), dtype=float) / s ** sigma
    top = ratio[s >= 1e3]
    decreasing = bool(top[-1] <= top[0])
    return {"sigma": sigma, "max_ratio_tail": float(np.abs(top).max()),
            "compliant": decreasing}
