"""First eigenpair of the weighted problem -Lap u = lambda P(x) u.

Inverse power iteration with the tridiagonal direct solve as inner
kernel.  The discrete operator is self-adjoint in the cell-volume inner
product, so Rayleigh quotients and deflation use that weighting.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (NoConvergence, NonPositiveEigenfunction, NonSimpleWarning,
                     SingularOperator, ZeroDenominator)
from .grid import (RadialGrid, TridiagonalOperator, dirichlet_energy,
                   solve_tridiagonal, weighted_integral)

PLATEAU_RATIO_LIMIT = 1.05


@dataclass
class DecayWindow:
    C1: float
    C2: float
    ratio: float
    plateau_ok: bool


@dataclass
class EigenPair:
    lambda1: float
    phi1: np.ndarray
    normalization_residual: float
    decay_C1: float
    decay_C2: float
    plateau_ok: bool
    residual: float
    iterations: int

    def __post_init__(self):
        if not (self.phi1 > 0.0).all():
            raise NonPositiveEigenfunction("first eigenfunction must be positive")


def decay_constants(grid: RadialGrid, phi: np.ndarray) -> DecayWindow:
    """Min/max of r^{N-2} phi over the tail window [R/2, R]."""
    mask = grid.tail_window()
    vals = grid.nodes[mask] ** (grid.N - 2) * phi[mask]
    c1, c2 = float(vals.min()), float(vals.max())
    ratio = c2 / c1 if c1 > 0.0 else np.inf
    return DecayWindow(C1=c1, C2=c2, ratio=ratio, plateau_ok=ratio <= PLATEAU_RATIO_LIMIT)


def _volume_rayleigh(grid, A, mP, x):
    vol = grid.volumes
    num = float(np.dot(vol * x, A.apply(x)))
    den = float(np.dot(vol * x, mP * x))
    return num / den


def first_eigenpair(grid: RadialGrid, A: TridiagonalOperator, mP: np.ndarray,
                    tol: float = 1e-12, maxit: int = 10000) -> EigenPair:
    x = 1.0 / (1.0 + grid.nodes ** 2)
    lam = _volume_rayleigh(grid, A, mP, x)
    prev_res = None
    eps = np.finfo(float).eps
    for k in range(1, maxit + 1):
        y = solve_tridiagonal(A, mP * x)
        y /= np.abs(y).max()
        lam = _volume_rayleigh(grid, A, mP, y)
        res = np.abs(A.apply(y) - lam * mP * y).max()
        x = y
        # rounding floor: applying A cannot be more accurate than
        # eps times its row scale
        floor = 50.0 * eps * A.row_scale() * np.abs(y).max()
        if res <= tol * abs(lam) * np.abs(mP * y).max() + floor:
            if prev_res is not None and prev_res > 0.0:
                # contraction factor approximates lambda1/lambda2
                q = min(res / prev_res, 1.0 - 1e-16)
                if lam * (1.0 / q - 1.0) < 1e-8:
                    warnings.warn("first eigenvalue appears nearly degenerate",
                                  NonSimpleWarning)
            break
        prev_res = res
    else:
        raise NoConvergence(f"inverse power iteration: {maxit} iterations",
                            iterations=maxit, residual=float(res))

    if x.sum() < 0.0:
        x = -x
    # enforce the discrete P-weighted normalization exactly
    x /= np.sqrt(weighted_integral(grid, mP * x ** 2))
    norm_res = abs(weighted_integral(grid, mP * x ** 2) - 1.0)
    dec = decay_constants(grid, x)
    res = np.abs(A.apply(x) - lam * mP * x).max()
    return EigenPair(lambda1=float(lam), phi1=x, normalization_residual=float(norm_res),
                     decay_C1=dec.C1, decay_C2=dec.C2, plateau_ok=dec.plateau_ok,
                     residual=float(res), iterations=k)


def second_eigenvalue(grid: RadialGrid, A: TridiagonalOperator, mP: np.ndarray,
                      pair: EigenPair, tol: float = 1e-10, maxit: int = 5000) -> float:
    """Second eigenvalue of the pencil by deflated inverse iteration."""
    vol = grid.volumes
    phi = pair.phi1
    b_phi = vol * mP * phi
    phi_norm2 = float(np.dot(b_phi, phi))

    def project(v):
        return v - (np.dot(b_phi, v) / phi_norm2) * phi

    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(grid.n))
    x /= np.abs(x).max()
    lam = _volume_rayleigh(grid, A, mP, x)
    for _ in range(maxit):
        y = project(solve_tridiagonal(A, mP * x))
        y /= np.abs(y).max()
        lam = _volume_rayleigh(grid, A, mP, y)
        res = np.abs(project(A.apply(y) - lam * mP * y)).max()
        x = y
        if res <= max(tol, 1e3 * pair.residual) * abs(lam) * np.abs(mP * y).max():
            return float(lam)
    raise NoConvergence("deflated inverse iteration did not converge",
                        iterations=maxit, residual=float(res))


def rayleigh_quotient(grid: RadialGrid, A: TridiagonalOperator,
                      weight_values: np.ndarray, v: np.ndarray) -> float:
    """Discrete pencil quotient <v, A v> / <v, P v> in the cell-volume
    inner product: equals lambda1 at phi1 and bounds it from above for
    any trial function.  (The plain Dirichlet-energy quotient would miss
    the far-field boundary term of the decay-matched Robin row.)"""
    v = np.asarray(v, dtype=float)
    den = float(np.dot(grid.volumes * v, weight_values * v))
    if den <= 0.0 or not np.isfinite(den):
        raise ZeroDenominator("trial function vanishes in the P-weighted norm")
    return float(np.dot(grid.volumes * v, A.apply(v))) / den


def smallest_eigenvalue(grid: RadialGrid, op: TridiagonalOperator) -> float:
    """Smallest (most negative) eigenvalue of a volume-symmetrizable
    tridiagonal operator; used as the Jacobian stability indicator."""
    from scipy.linalg import eigh_tridiagonal

    prod = op.sub * op.sup
    if not (prod >= -1e-30).all():
        raise SingularOperator("operator not symmetrizable")
    off = -np.sqrt(np.maximum(prod, 0.0))
    vals = eigh_tridiagonal(op.diag, off, select="i", select_range=(0, 0),
                            eigvals_only=True)
    return float(vals[0])
