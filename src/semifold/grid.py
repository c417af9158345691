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

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import solve_banded
from scipy.special import gamma

from .errors import BadGridConfig, NonPositiveWeight, SingularOperator

ROBIN_DECAY = "robin_decay"
DIRICHLET = "dirichlet"


def sphere_area(N: int) -> float:
    """Surface area of the unit (N-1)-sphere, 2 pi^{N/2} / Gamma(N/2)."""
    return float(2.0 * np.pi ** (N / 2.0) / gamma(N / 2.0))


@dataclass(frozen=True)
class RadialGrid:
    N: int
    R: float
    nodes: np.ndarray
    stretch: float = 1.0

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def sphere_area(self) -> float:
        return sphere_area(self.N)

    @cached_property
    def faces(self) -> np.ndarray:
        """Cell boundaries: r=0, node midpoints, r=R (length n+1)."""
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


def build_grid(N: int, R: float, n: int, stretch: float = 1.0) -> RadialGrid:
    if N < 3:
        raise BadGridConfig(f"dimension must be >= 3, got {N}")
    if R <= 0.0:
        raise BadGridConfig(f"truncation radius must be positive, got {R}")
    if n < 5:
        raise BadGridConfig(f"need at least 5 nodes, got {n}")
    if stretch < 1.0:
        raise BadGridConfig(f"stretch factor must be >= 1, got {stretch}")
    if stretch == 1.0:
        nodes = np.linspace(0.0, R, n)
    else:
        # geometric intervals h0 * stretch^i scaled so the last node is R
        ratios = stretch ** np.arange(n - 1)
        nodes = np.concatenate(([0.0], np.cumsum(ratios)))
        nodes *= R / nodes[-1]
    return RadialGrid(N=N, R=float(R), nodes=nodes, stretch=float(stretch))


@dataclass
class TridiagonalOperator:
    """Tridiagonal matrix with sub/super diagonals of length n-1."""

    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
    bc_tag: str = ROBIN_DECAY

    @property
    def n(self) -> int:
        return self.diag.size

    def apply(self, u: np.ndarray) -> np.ndarray:
        out = self.diag * u
        out[:-1] += self.sup * u[1:]
        out[1:] += self.sub * u[:-1]
        return out

    def row_scale(self) -> float:
        rows = np.abs(self.diag).copy()
        rows[:-1] += np.abs(self.sup)
        rows[1:] += np.abs(self.sub)
        return float(rows.max())

    def shifted(self, d) -> "TridiagonalOperator":
        """Operator with d (scalar or array) added to the diagonal."""
        return TridiagonalOperator(
            sub=self.sub.copy(), diag=self.diag + d, sup=self.sup.copy(),
            bc_tag=self.bc_tag,
        )

    def is_m_matrix(self) -> bool:
        return bool((self.sub <= 0.0).all() and (self.sup <= 0.0).all()
                    and (self.diag > 0.0).all())

    def to_banded(self) -> np.ndarray:
        ab = np.zeros((3, self.n))
        ab[0, 1:] = self.sup
        ab[1, :] = self.diag
        ab[2, :-1] = self.sub
        return ab


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
    return TridiagonalOperator(sub=sub, diag=diag, sup=sup, bc_tag=farfield)


def assemble_weight_mass(grid: RadialGrid, weight) -> np.ndarray:
    """Diagonal of the weight mass operator: P evaluated at the nodes."""
    vals = np.asarray(weight(grid.nodes), dtype=float)
    if vals.shape != grid.nodes.shape:
        vals = np.broadcast_to(vals, grid.nodes.shape).astype(float)
    if not (vals > 0.0).all():
        raise NonPositiveWeight("weight must be strictly positive at all nodes")
    return vals


def solve_tridiagonal(op: TridiagonalOperator, rhs: np.ndarray) -> np.ndarray:
    rows = np.abs(op.diag).copy()
    rows[:-1] += np.abs(op.sup)
    rows[1:] += np.abs(op.sub)
    if (rows <= 1e-14 * max(rows.max(), 1.0)).any():
        raise SingularOperator("operator has a (near-)zero row")
    try:
        u = solve_banded((1, 1), op.to_banded(), rhs, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises rarely
        raise SingularOperator(str(exc)) from exc
    if not np.isfinite(u).all():
        raise SingularOperator("direct solve produced non-finite values")
    res = np.abs(op.apply(u) - rhs).max()
    tol = 1e-10 * (np.abs(rhs).max() + np.abs(u).max() * op.row_scale())
    if res > tol:
        raise SingularOperator(
            f"solve residual {res:.3e} exceeds {tol:.3e}; operator near-singular")
    return u


def weighted_integral(grid: RadialGrid, v: np.ndarray) -> float:
    """Integral of a radial profile over R^N by trapezoidal shell quadrature."""
    return float(grid.sphere_area
                 * np.trapezoid(np.asarray(v) * grid.nodes ** (grid.N - 1), grid.nodes))


def dirichlet_energy(grid: RadialGrid, u: np.ndarray) -> float:
    """Integral of |grad u|^2 over R^N, midpoint-flux discrete form."""
    r = grid.nodes
    h = np.diff(r)
    mid = 0.5 * (r[:-1] + r[1:])
    slopes = np.diff(u) / h
    return float(grid.sphere_area * np.sum(mid ** (grid.N - 1) * slopes ** 2 * h))


def dump_operator_csv(grid: RadialGrid, op: TridiagonalOperator, path) -> None:
    """Debug dump: index, r, sub, diag, super."""
    n = grid.n
    sub = np.concatenate(([0.0], op.sub))
    sup = np.concatenate((op.sup, [0.0]))
    data = np.column_stack([np.arange(n), grid.nodes, sub, op.diag, sup])
    np.savetxt(path, data, delimiter=",",
               header="index,r,sub,diag,super", comments="")
