"""Problem data: weight, nonlinearity, forcing, and hypothesis checks.

The driving data are a positive radial weight with finite second moment,
a C^1 nonlinearity whose asymptotic slopes straddle the first weighted
eigenvalue, and a forcing split along/against the first eigenfunction.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np
from scipy.special import expit

from .eigen import EigenPair
from .errors import (BadGridConfig, BoundarySlackWarning, DivergentMoment,
                     NonPositiveWeight, NotNormalized, ProbeOutOfRange,
                     SlopeViolation, TailInstabilityWarning)
from .grid import RadialGrid, TridiagonalOperator, weighted_integral

TAIL_WARN_REL = 0.01
TAIL_DIVERGENT_REL = 0.25


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
class WeightSpec:
    evaluator: Callable
    preset_id: str
    N: int
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class NonlinearitySpec:
    g: Callable
    g_prime: Callable
    mu_lower: float
    mu_upper: float
    theta: float
    g_second: Optional[Callable] = None
    preset_id: str = "custom"
    params: dict = field(default_factory=dict)


def smooth_ramp_nonlinearity(mu_lower: float, mu_upper: float,
                             offset: float = 1.0) -> NonlinearitySpec:
    """Slope mu_lower at -inf, mu_upper at +inf, softplus transition.
    Slack constant against both slope lines is exactly `offset`."""
    gap = mu_upper - mu_lower

    def g(s):
        s = np.asarray(s, dtype=float)
        return mu_lower * s + gap * np.logaddexp(0.0, s) - offset

    def g_prime(s):
        return mu_lower + gap * expit(np.asarray(s, dtype=float))

    def g_second(s):
        e = expit(np.asarray(s, dtype=float))
        return gap * e * (1.0 - e)

    return NonlinearitySpec(g=g, g_prime=g_prime, mu_lower=mu_lower,
                            mu_upper=mu_upper, theta=offset,
                            g_second=g_second, preset_id="smooth_ramp",
                            params={"mu_lower": mu_lower, "mu_upper": mu_upper,
                                    "offset": offset})


def linear_nonlinearity(slope: float, mu_lower=None, mu_upper=None,
                        theta: float = 0.0) -> NonlinearitySpec:
    def g(s):
        return slope * np.asarray(s, dtype=float)

    def g_prime(s):
        return np.full_like(np.asarray(s, dtype=float), slope)

    def g_second(s):
        return np.zeros_like(np.asarray(s, dtype=float))

    return NonlinearitySpec(g=g, g_prime=g_prime,
                            mu_lower=slope if mu_lower is None else mu_lower,
                            mu_upper=slope if mu_upper is None else mu_upper,
                            theta=theta, g_second=g_second, preset_id="linear",
                            params={"slope": slope})


@dataclass(frozen=True)
class ForcingSpec:
    t: float
    f1: np.ndarray  # grid values, P-weighted-orthogonal to phi1


@dataclass(frozen=True)
class ProblemInstance:
    weight: WeightSpec
    nonlinearity: NonlinearitySpec
    forcing: ForcingSpec
    grid: RadialGrid
    farfield: str
    weight_values: np.ndarray
    A: TridiagonalOperator
    eigen: EigenPair

    @property
    def N(self) -> int:
        return self.grid.N

    def with_forcing(self, t=None, f1=None) -> "ProblemInstance":
        new = ForcingSpec(t=self.forcing.t if t is None else float(t),
                          f1=self.forcing.f1 if f1 is None else np.asarray(f1, float))
        return replace(self, forcing=new)


def canonical_weight(N: int = 3) -> WeightSpec:
    return WeightSpec(evaluator=rational_decay_weight(3.0),
                      preset_id="rational_decay", N=N, params={"power": 3.0})


# ------------------------------------------------------------- hypotheses

def _tail_stability(grid: RadialGrid, integrand: np.ndarray):
    """Relative contribution of the outer half of the domain."""
    full = weighted_integral(grid, integrand)
    half = np.where(grid.nodes <= 0.5 * grid.R, integrand, 0.0)
    inner = weighted_integral(grid, half)
    rel = abs(full - inner) / max(abs(full), 1e-300)
    return full, rel


def check_P1(weight: WeightSpec, grid: RadialGrid) -> dict:
    """Mass and second moment of the weight, with tail-stability flags."""
    vals = np.asarray(weight.evaluator(grid.nodes), dtype=float)
    if not (vals > 0.0).all():
        raise NonPositiveWeight("weight must be strictly positive on the grid")
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


def check_P2(weight: WeightSpec, grid: RadialGrid, probe_radii) -> dict:
    """Riesz-kernel bound: sup over probes of r^{N-2} * int P(y)/|x-y|^{N-2} dy."""
    from .verify import riesz_potential

    probes = np.atleast_1d(np.asarray(probe_radii, dtype=float))
    if (probes <= 0.0).any() or (probes > grid.R).any():
        raise ProbeOutOfRange(f"probe radii must lie in (0, {grid.R}]")
    vals = np.asarray(weight.evaluator(grid.nodes), dtype=float)
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


def derive_slack_constants(g: Callable, g_prime: Callable, mu_lower: float,
                           mu_upper: float, sample_range=(-50.0, 50.0),
                           num: int = 20001) -> dict:
    """Minimal Theta with g(s) >= mu s - Theta for both slack slopes."""
    if mu_lower >= mu_upper:
        raise SlopeViolation(
            f"need mu_lower < mu_upper, got ({mu_lower}, {mu_upper})")
    lo, hi = sample_range
    if lo > -50.0 or hi < 50.0:
        raise SlopeViolation("sample range must cover at least [-50, 50]")
    s = np.linspace(lo, hi, num)
    gs = np.asarray(g(s), dtype=float)
    boundary = False
    theta = 0.0
    for mu, tail_sign in ((mu_lower, -1), (mu_upper, +1)):
        gap = mu * s - gs
        k = int(np.argmax(gap))
        theta = max(theta, float(gap[k]))
        if k in (0, num - 1):
            boundary = True
        # divergence probe on the relevant tail: increments of the gap
        # function must decay, else no finite slack exists for this slope
        tail = gap[-num // 10:] if tail_sign > 0 else gap[:num // 10][::-1]
        inc = np.diff(tail)
        if inc.size >= 4:
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


def check_sigma_growth(nonlin: NonlinearitySpec, N: int,
                       sample_range=(0.0, 1e4), num: int = 4001) -> dict:
    """Subcritical growth report: sigma = N/(N-2) and tail of g(s)/s^sigma."""
    if N < 3:
        raise BadGridConfig(f"dimension must be >= 3, got {N}")
    sigma = N / (N - 2)
    lo, hi = sample_range
    s = np.linspace(max(lo, 1e-8), hi, num)
    ratio = np.asarray(nonlin.g(s), dtype=float) / s ** sigma
    top = ratio[s >= 0.1 * hi]
    decreasing = bool(top[-1] <= top[0])
    return {"sigma": sigma, "max_ratio_tail": float(np.abs(top).max()),
            "compliant": decreasing}


def decompose_forcing(f: np.ndarray, eigen: EigenPair, grid: RadialGrid,
                      weight_values: np.ndarray):
    """Split f = t*phi1 + f1 with f1 P-orthogonal to phi1."""
    norm_res = abs(weighted_integral(grid, weight_values * eigen.phi1 ** 2) - 1.0)
    if norm_res > 1e-10:
        raise NotNormalized(f"eigen normalization residual {norm_res:.3e}")
    f = np.asarray(f, dtype=float)
    t = weighted_integral(grid, weight_values * f * eigen.phi1)
    f1 = f - t * eigen.phi1
    return float(t), f1
