import numpy as np
import pytest
from hypothesis import given, strategies as st

import semifold as sf
from semifold.errors import SingularOperator
from semifold.subsuper import make_profile
from semifold.verify import (_cumulative_trapezoid, check_comparison,
                             check_negative_part, e0_norm, gradient_bound,
                             representation_residual, riesz_potential,
                             tau_star, verify_solution,
                             weighted_source_functional)


def test_tau_star_fixture_value(canonical, fixture_data):
    assert tau_star(canonical) == pytest.approx(
        fixture_data["tau_star_canonical"], rel=1e-12)


def test_riesz_closed_forms(canonical):
    """Potential of the weight itself: u(0) = 1/4 and r u -> pi/16."""
    grid = canonical.grid
    u = riesz_potential(grid, canonical.weight_values)
    assert u[0] == pytest.approx(0.25, rel=1e-3)
    assert grid.nodes[-1] * u[-1] == pytest.approx(np.pi / 16.0, rel=1e-3)


def test_riesz_inverts_the_laplacian(canonical):
    """-Lap applied (discretely) to the shell potential returns the source
    away from the far-field row."""
    grid = canonical.grid
    # the source must be smooth as a function on R^3: exp(-r) has a cusp
    # at the origin that defeats pointwise second-order consistency there
    rho = np.exp(-grid.nodes ** 2)
    u = riesz_potential(grid, rho)
    Au = canonical.A.apply(u)
    # skip the first interior node: dividing the shell quadrature's
    # O(h^3) startup error by the O(h^3) first cell volume leaves an O(1)
    # pointwise gap there, even though u itself is accurate to O(h^2)
    inner = slice(2, grid.n // 2)
    assert np.abs(Au[inner] - rho[inner]).max() < 1e-3


def _stretched(n, R=40.0, ratio=1.001):
    nodes = np.concatenate(([0.0], np.cumsum(ratio ** np.arange(n - 1))))
    return nodes * (R / nodes[-1])


@pytest.mark.parametrize("n", [2, 3, 4000, 64000])
@pytest.mark.parametrize("spacing", ["uniform", "stretched"])
def test_cumulative_trapezoid_is_scipys_bitwise(n, spacing):
    """The numpy running trapezoid gives scipy's bits, on mixed magnitudes
    up to 1e+-300 and on the shell integrand riesz_potential passes."""
    from scipy.integrate import cumulative_trapezoid

    rng = np.random.default_rng(n)
    x = np.linspace(0.0, 40.0, n) if spacing == "uniform" else _stretched(n)
    mixed = rng.standard_normal(n) * 10.0 ** rng.uniform(-300.0, 300.0, n)
    shell = x ** 2 * np.exp(-x)
    for y in (mixed, shell):
        expected = cumulative_trapezoid(y, x, initial=0.0)
        assert np.isfinite(expected).all()
        assert np.array_equal(_cumulative_trapezoid(y, x), expected)


def test_representation_residual_fixture_solutions(canonical,
                                                   fixture_solutions):
    for t, u in fixture_solutions:
        assert representation_residual(canonical, t, u) <= 1e-3


def test_e0_norm_axioms_fixed(canonical):
    grid = canonical.grid
    assert e0_norm(grid, np.zeros(grid.n)) == 0.0
    u = np.exp(-grid.nodes)
    assert e0_norm(grid, 2.0 * u) == pytest.approx(2.0 * e0_norm(grid, u))


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_e0_norm_triangle_inequality(seed):
    grid = _GRID["grid"]
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(grid.n)
    v = rng.standard_normal(grid.n)
    assert e0_norm(grid, u + v) <= e0_norm(grid, u) + e0_norm(grid, v) + 1e-12


_GRID = {}


def setup_module(module):
    _GRID["grid"] = sf.build_grid(3, 10.0, 200)


def test_negative_part_check():
    u = np.array([-1.0, 0.5, -0.2])
    w = np.array([-1.5, -1.0, -0.5])
    rep = check_negative_part(u, w)
    assert rep["pass"]
    rep2 = check_negative_part(np.array([-2.0, 0.5, -0.2]), w)
    assert not rep2["pass"]
    assert rep2["max_violation"] == pytest.approx(0.5)


def test_comparison_principle_guard(canonical):
    lam1 = canonical.eigen.lambda1
    rep = check_comparison(canonical.A, canonical.weight_values, 0.9 * lam1,
                           np.ones(canonical.grid.n), lam1)
    assert rep["pass"]
    with pytest.raises(SingularOperator):
        check_comparison(canonical.A, canonical.weight_values, 1.1 * lam1,
                         np.ones(canonical.grid.n), lam1)


def test_gradient_bound_metadata(canonical):
    rep = gradient_bound(canonical.grid, canonical.eigen.phi1)
    assert rep["sigma"] == pytest.approx(3.0)
    assert rep["beta"] == pytest.approx(2.0 / 3.0)
    assert rep["gamma"] == pytest.approx(2.0)
    assert rep["value"] > 0 and np.isfinite(rep["value"])


def test_source_functional_positive_part_only(canonical):
    u = -np.ones(canonical.grid.n)
    val = weighted_source_functional(u, canonical.eigen, canonical)
    # g(0) is a constant, so the functional reduces to g(0) * tau*/theta
    g0 = float(np.asarray(canonical.nonlinearity.g(0.0)))
    assert val == pytest.approx(g0 * tau_star(canonical), rel=1e-10)


def test_verify_solution_report(canonical, fixture_solutions):
    t, u = fixture_solutions[0]
    from semifold.nonlinear import residual

    prof = make_profile(canonical, u, t,
                        float(np.abs(residual(canonical, u, t)).max()))
    rep = verify_solution(canonical, prof)
    assert rep.all_pass, [e for e in rep.entries if not e["pass"]]
    d = rep.to_dict()
    assert {e["name"] for e in d["entries"]} >= {
        "tau_star_bound", "negative_part", "subsolution_ordering",
        "representation_residual"}


def test_verify_solution_catches_corruption(canonical, fixture_solutions):
    t, u = fixture_solutions[0]
    from semifold.nonlinear import residual

    bad = u - 1.0  # breaks the subsolution lower bound
    prof = make_profile(canonical, bad, t,
                        float(np.abs(residual(canonical, bad, t)).max()))
    rep = verify_solution(canonical, prof)
    assert not rep.all_pass
