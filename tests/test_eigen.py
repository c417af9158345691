import time
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

import semifold as sf
from semifold import eigen
from semifold import grid as grid_module
from semifold.config import CANONICAL_CONFIG, LADDER_N
from semifold.eigen import decay_constants, smallest_eigenvalue
from semifold.errors import (NoConvergence, NonPositiveEigenfunction,
                             SemifoldError, ZeroDenominator)
from semifold.nonlinear import jacobian
from reference import edited_canonical, rayleigh_quotient


def _start(inst):
    return np.sqrt(inst.grid.volumes) * inst.eigen.phi1


def _stebz_smallest(op):
    """LAPACK ?stebz bisection on the volume-symmetrized operator."""
    off = -np.sqrt(np.maximum(op.sub * op.sup, 0.0))
    return float(eigh_tridiagonal(op.diag, off, select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


def _second_eigenvalue(grid, A, mP, pair, tol=1e-10, maxit=5000):
    """Second eigenvalue of the pencil by deflated inverse iteration."""
    vol = grid.volumes
    phi = pair.phi1
    b_phi = vol * mP * phi
    phi_norm2 = float(np.dot(b_phi, phi))

    def project(v):
        return v - (np.dot(b_phi, v) / phi_norm2) * phi

    pair_res = np.abs(A.apply(phi) - pair.lambda1 * mP * phi).max()
    rng = np.random.default_rng(0)
    x = project(rng.standard_normal(grid.n))
    x /= np.abs(x).max()
    lam = rayleigh_quotient(grid, A, mP, x)
    for _ in range(maxit):
        y = project(sf.solve_tridiagonal(A, mP * x))
        y /= np.abs(y).max()
        lam = rayleigh_quotient(grid, A, mP, y)
        res = np.abs(project(A.apply(y) - lam * mP * y)).max()
        x = y
        if res <= max(tol, 1e3 * pair_res) * abs(lam) * np.abs(mP * y).max():
            return float(lam)
    raise NoConvergence("deflated inverse iteration did not converge",
                        iterations=maxit, residual=float(res))


def test_dirichlet_ball_oracle():
    """Unit weight on a ball of radius pi: lambda1 = 1, phi1 = sin(r)/r."""
    grid = sf.build_grid(3, np.pi, 2000)
    A = sf.assemble_laplacian(grid, "dirichlet")
    eig = sf.first_eigenpair(grid, A, np.ones(grid.n))
    assert eig.lambda1 == pytest.approx(1.0, abs=1e-4)
    exact = np.ones(grid.n)
    exact[1:] = np.sin(grid.nodes[1:]) / grid.nodes[1:]
    scale = eig.phi1[0] / exact[0]
    assert np.abs(eig.phi1 - scale * exact).max() < 1e-4 * abs(scale)


def test_canonical_eigenvalue_matches_oracle_fixture(canonical, fixture_data):
    lam = fixture_data["lambda_star"]
    assert abs(canonical.eigen.lambda1 - lam["value"]) <= lam["error_bar"]


def test_eigenfunction_positive_and_normalized(canonical):
    eig = canonical.eigen
    assert (eig.phi1 > 0).all()
    norm = sf.weighted_integral(canonical.grid,
                                canonical.weight_values * eig.phi1 ** 2)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_decay_plateau(canonical):
    dec = decay_constants(canonical.grid, canonical.eigen.phi1)
    assert dec.plateau_ok
    assert dec.C2 / dec.C1 <= 1.05
    assert dec.C1 > 0


def test_dirichlet_tail_has_no_plateau():
    """With a hard wall the scaled eigenfunction dives to zero at R, so
    the plateau flag must come back false."""
    inst = edited_canonical(40.0, 1000, farfield="dirichlet")
    assert not decay_constants(inst.grid, inst.eigen.phi1).plateau_ok


def test_dirichlet_phi1_is_zero_only_at_the_pinned_node():
    """The Dirichlet penalty row pins u(R) and couples it to no other
    node, so phi1's exact entry there is 0: the LADDER_N-node level's
    unshifted steps reach it, and the lift hands it on to the levels
    above, as with the weight e^-r.  phi1 stays positive at every other
    node, and a pair may hold a 0 only at that pinned node."""
    inst = sf.build_scenario_instance(sf.parse_config(
        CANONICAL_CONFIG.replace("rational_decay", "exponential").replace(
            "robin_decay", "dirichlet")))
    for level in (inst, inst.twin):
        assert level.eigen.pinned
        assert (level.eigen.phi1[:-1] > 0.0).all()
        assert level.eigen.phi1[-1] == 0.0
    zero_inside = inst.eigen.phi1.copy()
    zero_inside[1] = 0.0
    for bad in ({"pinned": False}, {"phi1": zero_inside}):
        with pytest.raises(NonPositiveEigenfunction):
            replace(inst.eigen, **bad)
    assert not edited_canonical(40.0, 400).eigen.pinned


def test_second_eigenvalue_above_first(coarse):
    lam2 = _second_eigenvalue(coarse.grid, coarse.A, coarse.weight_values,
                              coarse.eigen)
    assert lam2 > coarse.eigen.lambda1 * 1.5


def test_rayleigh_quotient_bounds_lambda1(coarse):
    grid = coarse.grid
    lam1 = coarse.eigen.lambda1
    assert rayleigh_quotient(grid, coarse.A, coarse.weight_values,
                             coarse.eigen.phi1) == pytest.approx(lam1, rel=1e-9)
    trial = np.exp(-grid.nodes)
    assert rayleigh_quotient(grid, coarse.A, coarse.weight_values,
                             trial) >= lam1
    with pytest.raises(ZeroDenominator):
        rayleigh_quotient(grid, coarse.A, coarse.weight_values,
                          np.zeros(grid.n))


def test_smallest_eigenvalue_sign_tracks_shift(coarse):
    lam1 = coarse.eigen.lambda1
    below = coarse.A.shifted(-0.9 * lam1 * coarse.weight_values)
    above = coarse.A.shifted(-1.1 * lam1 * coarse.weight_values)
    assert smallest_eigenvalue(below, _start(coarse)) > 0
    assert smallest_eigenvalue(above, _start(coarse)) < 0


@pytest.mark.parametrize("point", ["stable", "fold", "unstable", "dirichlet"])
def test_smallest_eigenvalue_matches_bisection_oracle(canonical,
                                                      canonical_branch, point):
    inst = canonical
    if point == "dirichlet":
        # the penalty row decouples: the last off-diagonal product is 0
        inst = edited_canonical(40.0, 4000, farfield="dirichlet")
        J = inst.A.shifted(-1.1 * inst.eigen.lambda1 * inst.weight_values)
        assert J.sub[-1] == 0.0
    else:
        rows = canonical_branch
        idx = {"stable": 0, "fold": len(rows) // 2,
               "unstable": len(rows) - 1}[point]
        J = jacobian(inst, rows[idx][1])
    mu = smallest_eigenvalue(J, _start(inst))
    ref = _stebz_smallest(J)
    assert abs(mu - ref) <= 100 * np.finfo(float).eps * J.row_scale()
    if point == "stable":
        assert mu > 0
    elif point == "unstable":
        assert mu < 0


@pytest.mark.parametrize("entry", ["diag", "sub", "start"])
def test_smallest_eigenvalue_rejects_nan_promptly(coarse, entry):
    J = coarse.A.shifted(0.0)
    start = _start(coarse)
    bad = start if entry == "start" else getattr(J, entry)
    bad[coarse.grid.n // 2] = np.nan
    tic = time.perf_counter()
    with pytest.raises(SemifoldError):
        smallest_eigenvalue(J, start)
    assert time.perf_counter() - tic < 1.0


def test_first_eigenpair_factors_once(canonical, monkeypatch):
    """Inverse power iteration runs every step from one ?gttrf factor
    and makes no ?gtsv solve: from the LADDER_N-node twin's lifted phi1,
    shifted by its lambda1, it returns the build's eigenpair at n = 4000
    in 2 to 6 steps."""
    calls = {"dgttrf": 0, "dgtsv": 0}

    def counted(name):
        kernel = getattr(grid_module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(grid_module, name, counted(name))
    twin = canonical.twin
    assert twin.grid.n == LADDER_N
    pair = sf.first_eigenpair(
        canonical.grid, canonical.A, canonical.weight_values,
        start=canonical.grid.lift(twin.grid, twin.eigen.phi1),
        shift=twin.eigen.lambda1)
    assert calls == {"dgttrf": 1, "dgtsv": 0}
    assert 1 < pair.iterations == canonical.eigen.iterations <= 6
    assert pair.lambda1 == canonical.eigen.lambda1
    assert np.array_equal(pair.phi1, canonical.eigen.phi1)


@pytest.mark.parametrize("n", [LADDER_N, 4000, 16000])
def test_first_eigenpair_applies_A_once_per_step(n, monkeypatch):
    """Each inverse-iteration step applies A once, and nothing else
    does: from the default start at n = LADDER_N, and above it from the
    twin's lifted phi1."""
    inst = sf.canonical_instance(n=n)
    start, shift = (None, 0.0) if inst.twin is None else (
        inst.grid.lift(inst.twin.grid, inst.twin.eigen.phi1),
        inst.twin.eigen.lambda1)
    applies = []
    apply = grid_module.TridiagonalOperator.apply

    def counted(self, x):
        applies.append(self)
        return apply(self, x)

    monkeypatch.setattr(grid_module.TridiagonalOperator, "apply", counted)
    pair = sf.first_eigenpair(inst.grid, inst.A, inst.weight_values,
                              start=start, shift=shift)
    assert len(applies) == pair.iterations
    assert pair.lambda1 == inst.eigen.lambda1


def test_twin_start_halves_the_fine_iteration():
    """Above COARSE_N nodes the build starts inverse iteration from the
    twin's lifted phi1: at n = 16000 it takes at most 7 steps, where it
    takes 12 from 1/(1 + r^2), to the same eigenpair."""
    inst = sf.canonical_instance(n=16000)
    eig = inst.eigen
    default = sf.first_eigenpair(inst.grid, inst.A, inst.weight_values)
    assert eig.iterations <= 7 < default.iterations
    assert eig.lambda1 == pytest.approx(default.lambda1, rel=1e-10, abs=0.0)
    assert (eig.phi1 > 0.0).all()
    assert sf.weighted_integral(inst.grid, inst.weight_values * eig.phi1 ** 2) \
        == pytest.approx(1.0, abs=1e-12)


def test_shifted_fine_eigenpair_in_two_steps():
    """Above COARSE_N the fine iteration is shifted by the twin's
    lambda1, so each step contracts by about 1e-4: at n = 16000 it takes
    at most 2 steps, and matches 6 steps of the same shifted iteration
    to 1e-10 in lambda1 and 1e-8 in phi1."""
    inst = sf.canonical_instance(n=16000)
    grid, A, P, twin = inst.grid, inst.A, inst.weight_values, inst.twin
    assert inst.eigen.iterations <= 2
    x = np.interp(grid.nodes, twin.grid.nodes, twin.eigen.phi1)
    lu = grid_module.factor_tridiagonal(A.shifted(-twin.eigen.lambda1 * P))
    for _ in range(6):
        x = grid_module.solve_tridiagonal(lu, P * x)
        x /= np.abs(x).max()
    lam = rayleigh_quotient(grid, A, P, x)
    phi = np.sign(x.sum()) * x / np.sqrt(
        grid_module.weighted_integral(grid, P * x * x))
    assert abs(inst.eigen.lambda1 - lam) <= 1e-10
    assert np.abs(inst.eigen.phi1 - phi).max() <= 1e-8 * np.abs(phi).max()


def test_fine_eigenpair_holds_few_vectors(traced_peak):
    """At n = 16000, from the twin's lifted phi1 handed to it alone, as
    the build hands it, first_eigenpair allocates at most 9.5 vectors of
    n floats at its peak: each step's solve replaces the iterate, and
    its stop residual and P x share one scratch vector."""
    inst = sf.canonical_instance(n=16000)
    twin = inst.twin
    pair, peak = traced_peak(lambda: sf.first_eigenpair(
        inst.grid, inst.A, inst.weight_values,
        start=inst.grid.lift(twin.grid, twin.eigen.phi1),
        shift=twin.eigen.lambda1))
    assert pair.lambda1 == inst.eigen.lambda1
    assert peak <= 9.5 * 8 * inst.grid.n


@pytest.mark.parametrize("c, tiny_gap", [(1.0, False), (1e10, True)])
def test_started_iteration_flags_a_near_degenerate_pencil(c, tiny_gap):
    """On the ball of radius pi with weight c the first two eigenvalues
    are 1/c and 4/c.  From a start (the lifted phi1 of a 100-node grid,
    as a build passes) the iteration converges to 1/c with no warning at
    every c, even at c = 1e10, where the absolute gap 3/c is below
    1e-8."""
    assert (3.0 / c < 1e-8) == tiny_gap
    pairs = []
    for n in (100, 1000):
        grid = sf.build_grid(3, np.pi, n)
        start = np.interp(grid.nodes, pairs[0][0].nodes,
                          pairs[0][1].phi1) if pairs else None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            pair = sf.first_eigenpair(grid, sf.assemble_laplacian(
                grid, "dirichlet"), np.full(n, c), start=start)
        pairs.append((grid, pair))
    assert pair.iterations >= 2
    assert pair.lambda1 * c == pytest.approx(1.0, abs=1e-4)
    assert [w.category for w in caught] == []


def test_smallest_eigenvalue_iteration_cap_raises(canonical, canonical_branch,
                                                  monkeypatch):
    J = jacobian(canonical, canonical_branch[len(canonical_branch) // 2][1])
    monkeypatch.setattr(eigen, "STABILITY_MAXIT", 1)
    with pytest.raises(NoConvergence):
        smallest_eigenvalue(J, _start(canonical))


def test_eigenvalue_second_order_in_h():
    vals = {}
    for n in (500, 1000, 2000):
        grid = sf.build_grid(3, np.pi, n)
        A = sf.assemble_laplacian(grid, "dirichlet")
        vals[n] = sf.first_eigenpair(grid, A, np.ones(grid.n)).lambda1
    ratio = (vals[500] - vals[1000]) / (vals[1000] - vals[2000])
    assert 3.5 <= ratio <= 4.5
