"""Radial grid and finite-volume discretization of -Laplace in N dimensions.

The discrete operator acts on node values u(r_i) of radially symmetric
functions.  Interior rows come from the conservative form
-(1/r^{N-1}) (r^{N-1} u')', integrated over cells bounded by midpoint
faces, which guarantees the M-matrix sign pattern on any monotone grid.
The origin is a regular finite-volume cell (no coordinate singularity);
the far-field row encodes either a decay-matched Robin condition
u'(R) + ((N-2)/R) u(R) = 0, which annihilates r^{-(N-2)} exactly, or a
penalty-form Dirichlet condition u(R) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._lapack import dgtsv, dgttrf, dgttrs
from .errors import BadGridConfig, NonPositiveWeight, SingularOperator

ROBIN_DECAY = "robin_decay"
DIRICHLET = "dirichlet"


def sphere_area(N: int) -> float:
    """Surface area of the unit (N-1)-sphere, 2 pi^{N/2} / Gamma(N/2),
    through log Gamma where Gamma(N/2) overflows (N >= 344)."""
    try:
        return 2.0 * math.pi ** (N / 2.0) / math.gamma(N / 2.0)
    except OverflowError:
        return 2.0 * math.exp(N / 2.0 * math.log(math.pi)
                              - math.lgamma(N / 2.0))


@dataclass(frozen=True)
class RadialGrid:
    N: int
    R: float
    nodes: np.ndarray

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def faces(self) -> np.ndarray:
        """Cell boundaries: r=0, node midpoints, r=R (length n+1).  Not
        kept: assembly, the cell volumes and dirichlet_energy read them."""
        r = self.nodes
        return np.concatenate(([0.0], 0.5 * (r[:-1] + r[1:]), [self.R]))

    @cached_property
    def volumes(self) -> np.ndarray:
        """Cell volumes (f_{i+1}^N - f_i^N)/N, without the sphere factor."""
        f = self.faces
        return (f[1:] ** self.N - f[:-1] ** self.N) / self.N

    def tail_window(self) -> np.ndarray:
        """Boolean node mask for [R/2, R], excluding r=0."""
        r = self.nodes
        return (r >= 0.5 * self.R) & (r <= self.R) & (r > 0.0)

    def lift(self, coarse: "RadialGrid", values: np.ndarray) -> np.ndarray:
        """`values` at the nodes of `coarse`, a grid on the same [0, R],
        interpolated linearly onto these nodes."""
        return np.interp(self.nodes, coarse.nodes, values)


def build_grid(N: int, R: float, n: int, stretch: float = 1.0) -> RadialGrid:
    if N < 3:
        raise BadGridConfig(f"dimension must be >= 3, got {N}")
    if R <= 0.0:
        raise BadGridConfig(f"truncation radius must be positive, got {R}")
    if n < 5:
        raise BadGridConfig(f"need at least 5 nodes, got {n}")
    if stretch < 1.0:
        raise BadGridConfig(f"stretch factor must be >= 1, got {stretch}")
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        if stretch == 1.0:
            nodes = np.linspace(0.0, R, n)
        else:
            # geometric intervals h0 * stretch^i scaled so the last node is R
            ratios = stretch ** np.arange(n - 1)
            nodes = np.concatenate(([0.0], np.cumsum(ratios)))
            nodes *= R / nodes[-1]
        grid = RadialGrid(N=N, R=float(R), nodes=nodes)
        volumes = grid.volumes
    # the cells are differences of face powers f^N, up to R^N
    if not (np.isfinite(volumes).all() and (volumes > 0.0).all()):
        raise BadGridConfig(
            f"cell volumes are not finite and positive in floating point "
            f"(N = {N:g}, R = {R}, n = {n}, stretch = {stretch})")
    return grid


@dataclass
class TridiagonalOperator:
    """Tridiagonal matrix with sub/super diagonals of length n-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.sup * u[1:]
        out[1:] += self.sub * u[:-1]
        return out

    def row_scale(self) -> float:
        return float(_row_sums(self).max())

    def shifted(self, d) -> "TridiagonalOperator":
        """Operator with d (scalar or array) added to the diagonal.  It
        shares sub and sup with this one: nothing writes to them."""
        return TridiagonalOperator(sub=self.sub, diag=self.diag + d,
                                   sup=self.sup)

    def is_m_matrix(self) -> bool:
        return bool((self.sub <= 0.0).all() and (self.sup <= 0.0).all()
                    and (self.diag > 0.0).all())


def assemble_laplacian(grid: RadialGrid, farfield: str = ROBIN_DECAY) -> TridiagonalOperator:
    if farfield not in (ROBIN_DECAY, DIRICHLET):
        raise BadGridConfig(f"unknown far-field condition {farfield!r}")
    r = grid.nodes
    n = grid.n
    h = np.diff(r)
    cond = grid.faces[1:n] ** (grid.N - 1) / h  # face conductances
    vol = grid.volumes

    sub = np.empty(n - 1)
    diag = np.empty(n)
    sup = np.empty(n - 1)

    sup[:] = -cond / vol[:-1]
    sub[:] = -cond / vol[1:]
    diag[0] = cond[0] / vol[0]
    diag[1:-1] = (cond[:-1] + cond[1:]) / vol[1:-1]

    if farfield == ROBIN_DECAY:
        # outflow flux r^{N-1} u'(R) = -(N-2) R^{N-2} u(R)
        diag[-1] = cond[-1] / vol[-1] + (grid.N - 2) * grid.R ** (grid.N - 2) / vol[-1]
    else:
        # penalty row enforcing u(R) = 0 to discretization accuracy
        sub[-1] = 0.0
        diag[-1] = 2.0 / h[-1] ** 2
    return TridiagonalOperator(sub=sub, diag=diag, sup=sup)


def assemble_weight_mass(grid: RadialGrid, weight) -> np.ndarray:
    """Diagonal of the weight mass operator: P evaluated at the nodes."""
    vals = np.asarray(weight(grid.nodes), dtype=float)
    if not (vals > 0.0).all():
        raise NonPositiveWeight("weight must be strictly positive at all nodes")
    return vals


def _row_sums(op: TridiagonalOperator) -> np.ndarray:
    """|sup| + |sub| of each row, and then |diag| added to that."""
    rows = np.zeros(op.n)
    np.abs(op.sup, out=rows[:-1])
    rows[1:] += np.abs(op.sub)
    rows += np.abs(op.diag)
    return rows


def _checked_row_scale(op: TridiagonalOperator) -> float:
    """The largest absolute row sum; raises on a (near-)zero row."""
    rows = _row_sums(op)
    scale = float(rows.max())
    if (rows <= 1e-14 * max(scale, 1.0)).any():
        raise SingularOperator("operator has a (near-)zero row")
    return scale


@dataclass(frozen=True)
class TridiagonalFactor:
    """LU factors of an operator (LAPACK ?gttrf, partial pivoting), for
    many solves with one matrix: solve_tridiagonal takes it in place of
    the operator and runs only ?gttrs and the per-solve guards."""

    lu: tuple  # dl, d, du, du2, ipiv as ?gttrf returns them
    n: int  # the order, which each right-hand side must match


def factor_tridiagonal(op: TridiagonalOperator) -> TridiagonalFactor:
    """Factor once, with solve_tridiagonal's zero-row and zero-pivot
    guards.  For a single right-hand side ?gtsv is cheaper."""
    _checked_row_scale(op)
    *lu, info = dgttrf(op.sub, op.diag, op.sup)
    if info > 0:
        raise SingularOperator(f"exactly singular: zero pivot at row {info}")
    return TridiagonalFactor(lu=tuple(lu), n=op.n)


def solve_tridiagonal(op, rhs: np.ndarray) -> np.ndarray:
    """LAPACK ?gtsv (partial pivoting), guarded against a (near-)zero row,
    a zero pivot, a subnormal right-hand side and non-finite output.

    `op` is a TridiagonalOperator, or its TridiagonalFactor, whose solve
    gives the same bits.  `rhs` is one column, a 1-D array of length n;
    any other shape raises ValueError.

    The solve is not checked by its residual, because no residual test
    can see near-singularity.  Gaussian elimination with partial pivoting
    on a tridiagonal matrix has a growth factor of at most 2, so the
    computed u solves (A + dA) u = b with |dA| bounded by a small
    constant, independent of n, times eps |A| (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, ch. 9): the
    residual |A u - b| is at most that multiple of eps |A| |u|, however
    ill-conditioned A is.  The proof needs arithmetic without underflow.
    A right-hand side whose largest entry is subnormal breaks it, as the
    solution then rounds by whole subnormal units; such a right-hand side
    raises.  Overflow shows up as non-finite output, which raises too."""
    if np.shape(rhs) != (op.n,):
        raise ValueError(f"need one right-hand side of length {op.n}")
    if 0.0 < np.abs(rhs).max() < np.finfo(float).tiny:
        raise SingularOperator("right-hand side is subnormal, where the "
                               "solve has no backward-error bound: treated "
                               "as near-singular")
    if isinstance(op, TridiagonalFactor):
        u, info = dgttrs(*op.lu, rhs)
    else:
        _checked_row_scale(op)
        *_, u, info = dgtsv(op.sub, op.diag, op.sup, rhs)
        if info > 0:
            raise SingularOperator(f"exactly singular: zero pivot at row {info}")
    if not np.isfinite(u).all():
        raise SingularOperator("direct solve produced non-finite values")
    return u


def dot(x: np.ndarray, y: np.ndarray) -> float:
    """x . y of two grid vectors, summed by einsum rather than BLAS: at
    n = 64000 a BLAS ddot wakes OpenBLAS helper threads, which burn a
    second core without making the sum faster."""
    return float(np.einsum("i,i->", x, y))


def weighted_integral(grid: RadialGrid, v: np.ndarray) -> float:
    """Integral of a radial profile over R^N by trapezoidal shell quadrature."""
    return float(sphere_area(grid.N)
                 * np.trapezoid(np.asarray(v) * grid.nodes ** (grid.N - 1), grid.nodes))


def dirichlet_energy(grid: RadialGrid, u: np.ndarray) -> float:
    """Integral of |grad u|^2 over R^N, midpoint-flux discrete form."""
    h = np.diff(grid.nodes)
    return float(sphere_area(grid.N) * np.sum(
        grid.faces[1:-1] ** (grid.N - 1) * (np.diff(u) / h) ** 2 * h))
