from dataclasses import replace

import numpy as np
import pytest

import semifold as sf
import semifold.nonlinear as nonlinear
from semifold.errors import NoConvergence, SingularOperator
from semifold.grid import factor_tridiagonal, solve_tridiagonal
from semifold.nonlinear import (SOLVE_TOL, certify, jacobian,
                                monotone_newton, monotone_rise, newton_solve,
                                picard_solve, residual)
from semifold.subsuper import build_subsolution
from reference import (apply_solution_operator, deflated_newton,
                       second_solution)


@pytest.fixture(scope="module")
def inst():
    return sf.canonical_instance(R=40.0, n=1000)


@pytest.fixture(scope="module")
def minimal(inst):
    return newton_solve(inst, build_subsolution(inst, -50.0), -50.0)


def test_jacobian_consistency(inst):
    """Directional finite differences of the residual match J within
    second-order error in the step."""
    rng = np.random.default_rng(11)
    u = build_subsolution(inst, -50.0)
    for _ in range(5):
        d = rng.standard_normal(inst.grid.n)
        d /= np.abs(d).max()
        eps = 1e-6
        fd = (residual(inst, u + eps * d, -50.0)
              - residual(inst, u - eps * d, -50.0)) / (2 * eps)
        jd = jacobian(inst, u).apply(d)
        assert np.abs(fd - jd).max() < 1e-6 * inst.A.row_scale()


def test_jacobian_solve_leaves_the_operator_alone(inst, minimal):
    """J shares A's off-diagonals; neither a solve nor a factorization
    with J writes to them, nor to A's diagonal."""
    A = inst.A
    before = [A.sub.copy(), A.diag.copy(), A.sup.copy()]
    J = jacobian(inst, minimal.u)
    assert J.sub is A.sub and J.sup is A.sup
    rhs = np.ones(inst.grid.n)
    solve_tridiagonal(J, rhs)
    solve_tridiagonal(factor_tridiagonal(J), rhs)
    for kept, now in zip(before, [A.sub, A.diag, A.sup]):
        assert np.array_equal(kept, now)


def test_newton_exact_on_linear_problem():
    """g linear: the first Newton step solves the problem, and the second
    correction, at the rounding floor, accepts it."""
    from dataclasses import replace

    base = sf.canonical_instance(R=20.0, n=500)
    nl = sf.linear_nonlinearity(0.5 * base.eigen.lambda1)
    inst = replace(base, nonlinearity=nl)
    prof = newton_solve(inst, np.zeros(inst.grid.n), 1.0)
    assert prof.iterations == 2
    assert prof.residual_inf <= 1e-10 * inst.A.row_scale()


def test_newton_from_the_subsolution_reaches_the_minimal_solution(canonical):
    """Far below the fold at n = 4000 the subsolution's residual is below
    1e-10 of the row scale, yet the subsolution is 4e-8 (relative) from
    the minimal solution: newton_solve stops on its correction, so it
    steps to where monotone Newton lands."""
    t = -300.0
    prof = newton_solve(canonical, build_subsolution(canonical, t), t)
    ref = monotone_newton(canonical, t)[0].u
    assert prof.iterations >= 1
    assert np.abs(prof.u - ref).max() <= 1e-10 * (1.0 + np.abs(ref).max())


def test_certify_on_linear_problem_has_h_zero():
    """g linear: J is constant (L = 0), so h = 0 wherever J is proved an
    M-matrix, which it is for a slope below lambda1; beta bounds the
    inverse's row sums."""
    from dataclasses import replace

    base = sf.canonical_instance(R=20.0, n=500)
    inst = replace(base,
                   nonlinearity=sf.linear_nonlinearity(0.5 * base.eigen.lambda1))
    u, eta, beta, h = certify(inst, np.zeros(inst.grid.n), 1.0)
    assert h == 0.0
    assert eta <= 1e-10 * (1.0 + np.abs(u).max())
    J = jacobian(inst, u)
    x = np.linalg.solve(np.diag(J.diag) + np.diag(J.sub, -1) + np.diag(J.sup, 1),
                        np.ones(inst.grid.n))
    assert x.max() <= beta <= x.max() * (1.0 + 1e-6)


def test_certify_proves_the_minimal_solution(inst, minimal):
    u, eta, beta, h = certify(inst, minimal.u, -50.0)
    assert 0.0 < h <= 0.5
    assert h == beta * inst.nonlinearity.g_second_sup \
        * inst.weight_values.max() * eta
    assert np.abs(u - minimal.u).max() <= 1e-8 * np.abs(minimal.u).max()


def test_certify_without_x_returns_no_bound(inst, minimal, monkeypatch):
    """Where the solve for x = J^-1 1 on the kept iterate's Jacobian
    raises SingularOperator, certify returns that iterate and its eta
    with beta = h = inf, and does not pass the exception on."""
    u_ref, eta_ref = certify(inst, minimal.u, -50.0)[:2]
    solve = nonlinear.solve_tridiagonal

    def singular_on_ones(op, rhs):
        if np.all(rhs == 1.0):
            raise SingularOperator("forced")
        return solve(op, rhs)

    monkeypatch.setattr(nonlinear, "solve_tridiagonal", singular_on_ones)
    u, eta, beta, h = certify(inst, minimal.u, -50.0)
    assert np.array_equal(u, u_ref) and eta == eta_ref
    assert beta == h == np.inf


def test_certify_holds_few_vectors(traced_peak):
    """certify at n = 16000, from the twin's minimal solution at t = -8
    lifted onto the nodes, allocates at most 9 vectors of n floats at its
    peak: it keeps the best iterate's (u, eta) but not its J, and forms
    |J| x and the margin without an operator |J|."""
    inst = sf.canonical_instance(n=16000)
    t = -8.0
    u0 = inst.grid.lift(inst.twin.grid, monotone_rise(inst.twin, t)[0])
    (u, eta, beta, h), peak = traced_peak(lambda: certify(inst, u0, t))
    assert h < 0.5
    assert peak <= 9 * 8 * inst.grid.n


def test_certify_reuses_the_last_jacobian(monkeypatch):
    """Where certify stops because its correction no longer halves, the
    iterate it keeps is the loop's last, and x = J^-1 1 is solved on the
    J the loop built for it: at n = 16000 and t = -50, from the twin's
    lifted minimal solution, it builds each iterate's Jacobian once."""
    inst = sf.canonical_instance(n=16000)
    t = -50.0
    u0 = inst.grid.lift(inst.twin.grid, monotone_rise(inst.twin, t)[0])
    built, build = [], nonlinear.jacobian

    def recorded(inst_, u):
        built.append(u)
        return build(inst_, u)

    monkeypatch.setattr(nonlinear, "jacobian", recorded)
    u, eta, beta, h = certify(inst, u0, t)
    assert h < 0.5
    assert built[-1] is u
    assert len({id(v) for v in built}) == len(built) >= 2


def test_picard_matches_newton(inst, minimal):
    pic = picard_solve(inst, build_subsolution(inst, -50.0), -50.0)
    assert np.abs(pic.u - minimal.u).max() < 1e-6 * (1.0 + np.abs(minimal.u).max())


@pytest.mark.parametrize("t", [-12.0, -50.0])
def test_picard_stops_on_its_estimated_error(t):
    """Picard converges linearly, at a ratio above 1/2 here, so a step
    below tol leaves more than tol to go; stopped on its estimated error
    it lands within SOLVE_TOL (1 + |u|_inf) of monotone Newton's
    solution (at t = -12 a stop on the step left 1.2e-10)."""
    inst = sf.canonical_instance(n=4000)
    u = monotone_newton(inst, t)[0].u
    pic = picard_solve(inst, build_subsolution(inst, t), t)
    assert np.abs(pic.u - u).max() <= SOLVE_TOL * (1.0 + np.abs(u).max())


def test_solution_operator_fixed_point(inst, minimal):
    once = apply_solution_operator(inst, minimal.u, -50.0)
    assert np.abs(once - minimal.u).max() < 1e-8 * (1.0 + np.abs(minimal.u).max())


def test_solution_operator_is_monotone(inst):
    """v1 <= v2 implies K v1 <= K v2 (monotone g + inverse positivity)."""
    rng = np.random.default_rng(5)
    for _ in range(10):
        v1 = rng.standard_normal(inst.grid.n)
        v2 = v1 + rng.random(inst.grid.n)
        assert (apply_solution_operator(inst, v1, -50.0)
                <= apply_solution_operator(inst, v2, -50.0) + 1e-12).all()


def test_newton_diverges_without_solution(inst, fixture_data):
    t_bad = fixture_data["tau_star_canonical"] + 2.0
    with pytest.raises(NoConvergence):
        newton_solve(inst, np.zeros(inst.grid.n), t_bad)


def test_deflation_finds_distinct_root(inst, minimal):
    # -50 is far below the fold; the second solution is well separated
    sec = second_solution(inst, minimal, -50.0)
    assert sec.residual_inf <= 1e-8 * inst.A.row_scale()
    sep = np.abs(sec.u - minimal.u).max()
    assert sep > 1e-3 * (1.0 + np.abs(minimal.u).max())


def test_newton_with_known_root_finds_another(inst, minimal):
    """Started a tenth of max|u| away from the known root, deflated Newton
    returns a different solution to the plain convergence tolerance."""
    direction = inst.eigen.phi1 / np.abs(inst.eigen.phi1).max()
    prof = deflated_newton(inst, minimal.u + 2.0 * direction, -50.0,
                           [minimal], maxit=200)
    assert prof.residual_inf <= 1e-10 * inst.A.row_scale()
    assert np.abs(residual(inst, prof.u, -50.0)).max() == prof.residual_inf
    sep = np.abs(prof.u - minimal.u).max()
    assert sep >= 1e-4 * (1.0 + np.abs(minimal.u).max())


def test_deflated_newton_refuses_a_start_on_a_known_root(inst, minimal):
    with pytest.raises(NoConvergence, match="known root"):
        deflated_newton(inst, minimal.u.copy(), -50.0, [minimal])


def test_residual_scaling_invariance(inst, minimal):
    """The residual of a converged solution stays small relative to the
    operator's row scale across grid resolutions."""
    for n in (500, 2000):
        fine = sf.canonical_instance(R=40.0, n=n)
        prof = newton_solve(fine, build_subsolution(fine, -50.0), -50.0)
        assert prof.residual_inf <= 1e-10 * fine.A.row_scale()


def test_residual_formula_across_instances_and_t(inst):
    """residual(inst, u, t) is A u - P g(u) - P (t phi1 + f1) to the bit,
    whichever instance and t came before it."""
    rng = np.random.default_rng(3)
    other = replace(inst, forcing=replace(
        inst.forcing, f1=1e-3 * rng.standard_normal(inst.grid.n)))
    u = build_subsolution(inst, -50.0)
    for x, t in ((inst, -50.0), (inst, -40.0), (other, -40.0), (inst, -40.0)):
        P = x.weight_values
        expected = (x.A.apply(u) - P * x.nonlinearity.g(u)
                    - P * (t * x.eigen.phi1 + x.forcing.f1))
        assert np.array_equal(residual(x, u, t), expected)
