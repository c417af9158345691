"""First eigenpair of the weighted problem -Lap u = lambda P(x) u, and
the smallest eigenvalue of a linearization (the stability indicator).

Inverse power iteration with the tridiagonal direct solve, from one LU
factorization of the operator less a shift times the weight, as inner
kernel, started from a given vector or else from 1/(1 + r^2).  An
instance build with a twin (config._twin) passes the twin's first
eigenfunction, lifted onto its nodes, as the start and the twin's
lambda1 as the shift, and a few steps then suffice.  The discrete
operator is self-adjoint in the cell-volume inner product, so its
Rayleigh quotient uses that weighting, summed by grid.dot: the module
makes no BLAS call, so its bits do not depend on the core count.

The stability indicator mu is the smallest eigenvalue of the
volume-symmetrized tridiagonal S of a Jacobian.  It comes from shifted
inverse iteration on LAPACK ?pttrf/?pttrs factors of S - sigma I, with
sigma kept below the spectrum, and is certified by Sylvester inertia
(Parlett, The Symmetric Eigenvalue Problem): ?pttrf of S - sigma I
succeeds exactly when sigma lies below every eigenvalue.  A residual r
at the Rayleigh quotient mu puts an eigenvalue within r of mu, and a
successful factorization at mu - r - floor puts none below it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._lapack import dpttrf, dpttrs
from .errors import (NoConvergence, NonPositiveEigenfunction, NotNormalized,
                     SingularOperator, ZeroDenominator)
from .grid import (RadialGrid, TridiagonalOperator, dot, factor_tridiagonal,
                   solve_tridiagonal, weighted_integral)

PLATEAU_RATIO_LIMIT = 1.05
# first_eigenpair's relative residual stop, and its inverse power
# iterations before NoConvergence
EIGENPAIR_TOL = 1e-12
EIGENPAIR_MAXIT = 10000
# inverse-iteration steps of smallest_eigenvalue before NoConvergence
STABILITY_MAXIT = 60


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
    iterations: int
    # the last node is pinned by a Dirichlet penalty row (sub[-1] = 0),
    # which couples it to no other node: phi1's exact entry there is 0
    pinned: bool = False

    def __post_init__(self):
        coupled = self.phi1[:-1] if self.pinned else self.phi1
        if not ((coupled > 0.0).all() and self.phi1[-1] >= 0.0):
            raise NonPositiveEigenfunction("first eigenfunction must be "
                                           "positive at every coupled node")


def decay_constants(grid: RadialGrid, phi: np.ndarray) -> DecayWindow:
    """Min/max of r^{N-2} phi over the tail window [R/2, R]."""
    mask = grid.tail_window()
    vals = grid.nodes[mask] ** (grid.N - 2) * phi[mask]
    c1, c2 = float(vals.min()), float(vals.max())
    ratio = c2 / c1 if c1 > 0.0 else np.inf
    return DecayWindow(C1=c1, C2=c2, ratio=ratio, plateau_ok=ratio <= PLATEAU_RATIO_LIMIT)


def first_eigenpair(grid: RadialGrid, A: TridiagonalOperator, mP: np.ndarray,
                    start: np.ndarray | None = None,
                    shift: float = 0.0) -> EigenPair:
    """Inverse power iteration from `start`, by default 1/(1 + r^2), on
    one factor of A - shift P.  Each step contracts the error by |lambda1
    - shift| / |lambda2 - shift|, about 1e-4 at a 4000-node twin's lambda1
    (Parlett, The Symmetric Eigenvalue Problem, SIAM 1998, ch. 4).  Each
    step applies A once, for both its Rayleigh quotient and its residual,
    which stops the iteration once it is at most EIGENPAIR_TOL |lambda|
    |P x|_inf above the rounding floor; the pair holds no diagnostic, and
    `eigen` computes the ones it writes.  `start` is not kept past the
    first step, and the factor and the last step's vectors are released
    before the eigenfunction is normalized."""
    x = 1.0 / (1.0 + grid.nodes ** 2) if start is None else \
        np.asarray(start, dtype=float)
    del start
    lu = factor_tridiagonal(A.shifted(-shift * mP) if shift else A)
    # rounding floor: applying A to a vector of max norm 1, as each
    # iterate is, cannot be more accurate than eps times its row scale
    floor = 50.0 * np.finfo(float).eps * A.row_scale()
    for k in range(1, EIGENPAIR_MAXIT + 1):
        x = solve_tridiagonal(lu, mP * x)
        x /= np.abs(x).max()
        Ax = A.apply(x)
        lam = _quotient(grid, mP, x, Ax)
        # Ax - lam P x, and then P x, in one scratch vector
        r = lam * mP
        r *= x
        np.subtract(Ax, r, out=r)
        res = np.abs(r, out=r).max()
        np.multiply(mP, x, out=r)
        if res <= EIGENPAIR_TOL * abs(lam) * np.abs(r, out=r).max() + floor:
            break
    else:
        raise NoConvergence(f"inverse power iteration: {EIGENPAIR_MAXIT} "
                            "iterations", iterations=EIGENPAIR_MAXIT,
                            residual=float(res))
    del lu, Ax, r

    if x.sum() < 0.0:
        x = -x
    # enforce the discrete P-weighted normalization exactly
    mass = weighted_integral(grid, mP * x ** 2)
    if not 0.0 < mass < np.inf:
        raise NotNormalized(f"the eigenfunction's P-weighted integral is "
                            f"{mass:.3g} on the {grid.n}-node grid: no "
                            f"normalization in floating point")
    x /= np.sqrt(mass)
    return EigenPair(lambda1=float(lam), phi1=x, iterations=k,
                     pinned=bool(A.sub[-1] == 0.0))


def _quotient(grid: RadialGrid, weight_values: np.ndarray, v: np.ndarray,
              Av: np.ndarray) -> float:
    """<v, A v> / <v, P v> in the cell-volume inner product, A v given:
    lambda1 at phi1, and above it for any other trial function."""
    den = dot(grid.volumes * v, weight_values * v)
    if den <= 0.0 or not np.isfinite(den):
        raise ZeroDenominator("trial function vanishes in the P-weighted norm")
    return dot(grid.volumes * v, Av) / den


def _rayleigh_residual(S: TridiagonalOperator, x: np.ndarray):
    """Rayleigh quotient mu of a unit vector x and ||S x - mu x||_2."""
    Sx = S.apply(x)
    mu = dot(x, Sx)
    res = Sx - mu * x
    return mu, float(np.sqrt(dot(res, res)))


def _factor_below(S: TridiagonalOperator, sigma: float):
    """LAPACK ?pttrf factors of S - sigma I, or None when that matrix is
    not positive definite, i.e. when some eigenvalue of S is <= sigma."""
    d, e, info = dpttrf(S.diag - sigma, S.sup)
    return (d, e) if info == 0 else None


def smallest_eigenvalue(op: TridiagonalOperator, start: np.ndarray) -> float:
    """Smallest (most negative) eigenvalue of a volume-symmetrizable
    tridiagonal operator; used as the Jacobian stability indicator.

    Shifted inverse iteration on the symmetrized S = V^(1/2) op V^(-1/2),
    from `start`, a vector of op.n entries in the symmetrized coordinates
    (any vector with a positive component along the ground state, such as
    sqrt(volumes) * phi1).  The shift starts at the Rayleigh quotient minus
    the residual and drops geometrically, at worst to the Gershgorin lower
    bound, until ?pttrf succeeds; each step then does one ?pttrs, takes the
    Rayleigh quotient mu and the residual r = ||S x - mu x||_2, and moves
    the shift up to mu - r when ?pttrf still succeeds there.  It stops when
    r <= floor = 50 eps row_scale (the rounding floor of applying S) and
    returns mu only if ?pttrf of S - (mu - r - floor) I succeeds: then an
    eigenvalue lies within r of mu and none below mu - r - floor.  Raises
    NoConvergence when that certificate fails or the iteration does not
    settle within STABILITY_MAXIT steps."""
    prod = op.sub * op.sup
    if not (np.isfinite(op.diag).all() and np.isfinite(prod).all()):
        raise SingularOperator("operator has non-finite entries")
    if not (prod >= -1e-30).all():
        raise SingularOperator("operator not symmetrizable")
    off = -np.sqrt(np.maximum(prod, 0.0))
    S = TridiagonalOperator(sub=off, diag=op.diag, sup=off)
    floor = 50.0 * np.finfo(float).eps * S.row_scale()

    x = np.asarray(start, dtype=float)
    nrm = float(np.sqrt(dot(x, x))) if x.shape == (op.n,) else 0.0
    if not (np.isfinite(nrm) and nrm > 0.0):
        raise ZeroDenominator("start vector is zero, non-finite or off the grid")
    x = x / nrm
    mu, r = _rayleigh_residual(S, x)

    radius = np.zeros(S.n)
    radius[:-1] -= off
    radius[1:] -= off
    lowest = float((S.diag - radius).min()) - floor  # below the spectrum
    drop = max(r, floor)
    while True:
        sigma = max(mu - drop, lowest)
        factors = _factor_below(S, sigma)
        if factors is not None:
            break
        if sigma == lowest:
            raise NoConvergence("no shift below the Gershgorin bound factors")
        drop *= 2.0

    for k in range(1, STABILITY_MAXIT + 1):
        y, info = dpttrs(*factors, x)
        nrm = float(np.sqrt(dot(y, y)))
        if info != 0 or not (np.isfinite(nrm) and nrm > 0.0):
            raise NoConvergence(f"shifted solve failed at step {k}",
                                iterations=k, residual=r)
        x = y / nrm
        mu, r = _rayleigh_residual(S, x)
        if r <= floor:
            break
        if mu - r > sigma:
            closer = _factor_below(S, mu - r)
            if closer is not None:
                sigma, factors = mu - r, closer
    else:
        raise NoConvergence(f"shifted inverse iteration: {STABILITY_MAXIT} "
                            "iterations", iterations=STABILITY_MAXIT, residual=r)
    if _factor_below(S, mu - r - floor) is None:
        raise NoConvergence(f"eigenvalue {mu:.6e} not certified smallest: an "
                            f"eigenvalue lies below {mu - r - floor:.6e}",
                            iterations=k, residual=r)
    return mu
