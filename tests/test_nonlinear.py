import numpy as np
import pytest

import semifold as sf
from semifold.errors import NoConvergence
from semifold.nonlinear import (apply_solution_operator, deflated_solve,
                                jacobian, newton_solve, picard_solve,
                                residual, second_solution)
from semifold.subsuper import build_subsolution


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


def test_newton_exact_on_linear_problem():
    from dataclasses import replace

    base = sf.canonical_instance(R=20.0, n=500)
    nl = sf.linear_nonlinearity(0.5 * base.eigen.lambda1)
    inst = replace(base, nonlinearity=nl)
    prof = newton_solve(inst, np.zeros(inst.grid.n), 1.0)
    assert prof.iterations <= 1
    assert prof.residual_inf <= 1e-10 * inst.A.row_scale()


def test_picard_matches_newton(inst, minimal):
    pic = picard_solve(inst, build_subsolution(inst, -50.0), -50.0)
    assert np.abs(pic.u - minimal.u).max() < 1e-6 * (1.0 + np.abs(minimal.u).max())


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


def test_deflated_solve_requires_known_roots(inst, minimal):
    with pytest.raises(ValueError):
        deflated_solve(inst, [], minimal.u, -50.0)


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
    other = inst.with_forcing(f1=1e-3 * rng.standard_normal(inst.grid.n))
    u = build_subsolution(inst, -50.0)
    for x, t in ((inst, -50.0), (inst, -40.0), (other, -40.0), (inst, -40.0)):
        P = x.weight_values
        expected = (x.A.apply(u) - P * x.nonlinearity.g(u)
                    - P * (t * x.eigen.phi1 + x.forcing.f1))
        assert np.array_equal(residual(x, u, t), expected)
