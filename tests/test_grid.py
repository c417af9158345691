import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import semifold as sf
import semifold.grid as grid_module
from semifold.errors import BadGridConfig, NonPositiveWeight, SingularOperator
from semifold.grid import (TridiagonalOperator, _row_sums,
                           dirichlet_energy, dot, factor_tridiagonal,
                           sphere_area, solve_tridiagonal, weighted_integral)


def test_sphere_area_closed_forms():
    assert sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-14)
    assert sphere_area(4) == pytest.approx(2.0 * np.pi ** 2, rel=1e-14)


def test_sphere_area_keeps_its_bits_at_three_dimensions():
    """Gamma comes from math.gamma, so the area at N = 3 is 4 pi
    correctly rounded."""
    assert sphere_area(3) == 4.0 * math.pi


def test_sphere_area_above_the_range_of_gamma():
    """Where Gamma(N/2) overflows, from N = 344, the area comes from
    log Gamma and keeps the recurrence |S^{N+1}| = 2 pi |S^{N-1}| / N."""
    for N in range(338, 352):
        assert sphere_area(N + 2) == pytest.approx(
            2.0 * math.pi * sphere_area(N) / N, rel=1e-12), N
    assert 0.0 < sphere_area(400) < sphere_area(343)


def test_build_grid_rejects_bad_configs():
    with pytest.raises(BadGridConfig):
        sf.build_grid(2, 10.0, 100)
    with pytest.raises(BadGridConfig):
        sf.build_grid(3, -1.0, 100)
    with pytest.raises(BadGridConfig):
        sf.build_grid(3, 10.0, 3)
    with pytest.raises(BadGridConfig):
        sf.build_grid(3, 10.0, 100, stretch=0.9)


def test_volumes_partition_the_ball():
    for stretch in (1.0, 1.01):
        grid = sf.build_grid(3, 7.0, 300, stretch=stretch)
        assert grid.volumes.sum() == pytest.approx(7.0 ** 3 / 3.0, rel=1e-12)
        assert (np.diff(grid.nodes) > 0).all()


def test_laplacian_is_m_matrix_any_dimension():
    for N in (3, 4, 5, 7):
        grid = sf.build_grid(N, 20.0, 500)
        for farfield in ("robin_decay", "dirichlet"):
            A = sf.assemble_laplacian(grid, farfield)
            assert A.is_m_matrix()


def test_robin_row_annihilates_decay_profile():
    """The far-field row is exact on u = r^-(N-2): applying the operator
    to (1+r^2)^(-1/2)-like decay at the last cell gives the same value it
    would give on the untruncated profile."""
    grid = sf.build_grid(3, 30.0, 3000)
    A = sf.assemble_laplacian(grid, "robin_decay")
    u = np.empty(grid.n)
    u[0] = 1.0  # value at r=0 irrelevant to the last row
    u[1:] = 1.0 / grid.nodes[1:]
    out = A.apply(u)
    # interior harmonic: -Lap(1/r) = 0 away from the origin, and the
    # Robin row must not see the truncation at all
    assert abs(out[-1]) < 1e-12 * A.row_scale()
    assert np.abs(out[grid.n // 2:]).max() < 1e-10 * A.row_scale()


def test_inverse_positivity_random_sources():
    grid = sf.build_grid(3, 15.0, 400)
    A = sf.assemble_laplacian(grid, "robin_decay")
    rng = np.random.default_rng(7)
    for _ in range(100):
        rhs = rng.random(grid.n)
        u = solve_tridiagonal(A, rhs)
        assert u.min() >= 0.0


def test_solve_tridiagonal_flags_singular_operator():
    from semifold.grid import TridiagonalOperator

    n = 50
    sub = np.zeros(n - 1)
    sup = np.zeros(n - 1)
    diag = np.ones(n)
    diag[20] = 0.0  # a genuinely zero row
    bad = TridiagonalOperator(sub=sub, diag=diag, sup=sup)
    with pytest.raises(SingularOperator):
        solve_tridiagonal(bad, np.ones(n))
    # no zero row, but rows 20 and 21 are equal: an exactly zero pivot
    diag[20] = 1.0
    sub[20] = sup[20] = 1.0
    with pytest.raises(SingularOperator):
        solve_tridiagonal(bad, np.ones(n))


def test_factor_solve_is_bitwise_the_direct_solve():
    """?gttrf + ?gttrs and ?gtsv pivot alike and give the same bits; the
    factor is reusable."""
    rng = np.random.default_rng(11)
    grid = sf.build_grid(3, 40.0, 2000)
    A = sf.assemble_laplacian(grid)
    J = A.shifted(-rng.random(grid.n) * 1e-2)  # a Jacobian-like shift
    lu = factor_tridiagonal(J)
    for _ in range(3):
        rhs = rng.standard_normal(grid.n)
        assert np.array_equal(solve_tridiagonal(lu, rhs),
                              solve_tridiagonal(J, rhs))


@pytest.mark.parametrize("lapack", ["in use", "scipy"])
def test_solve_takes_one_column(monkeypatch, lapack):
    """A right-hand side that is not 1-D of length n raises ValueError on
    the operator path and the factor path alike, on SciPy's routines too,
    which would solve a matrix."""
    if lapack == "scipy":
        import scipy.linalg.lapack as ref
        for name in ("dgtsv", "dgttrf", "dgttrs"):
            monkeypatch.setattr(grid_module, name, getattr(ref, name))
    n = 50
    op = TridiagonalOperator(sub=-np.ones(n - 1), diag=np.full(n, 3.0),
                             sup=-np.ones(n - 1))
    for solver in (op, factor_tridiagonal(op)):
        for rhs in (np.ones((n, 2)), np.ones((n, 1)), np.ones(n - 1)):
            with pytest.raises(ValueError, match="one right-hand side of length 50"):
                solve_tridiagonal(solver, rhs)


def test_a_shift_shares_its_off_diagonals_and_sums_its_rows():
    """A shifted operator shares sub and sup with the one it shifts, and
    its row sums are |diag| + |sub| + |sup| to the last unit, with a
    zero row still caught."""
    rng = np.random.default_rng(5)
    A = sf.assemble_laplacian(sf.build_grid(3, 40.0, 2000))
    J = A.shifted(-rng.random(A.n))
    assert J.sub is A.sub and J.sup is A.sup
    direct = np.abs(J.diag)
    direct[:-1] += np.abs(J.sup)
    direct[1:] += np.abs(J.sub)
    assert np.allclose(_row_sums(J), direct, rtol=4e-16, atol=0.0)
    assert J.row_scale() == pytest.approx(direct.max(), rel=4e-16)
    n = 50
    diagonal = TridiagonalOperator(sub=np.zeros(n - 1), diag=np.ones(n),
                                   sup=np.zeros(n - 1))
    shift = np.zeros(n)
    shift[20] = -1.0  # row 20 of the shift is zero
    with pytest.raises(SingularOperator, match="zero row"):
        solve_tridiagonal(diagonal.shifted(shift), np.ones(n))


def _raised(fn):
    with pytest.raises(SingularOperator) as info:
        fn()
    return str(info.value)


def test_factor_solve_raises_as_the_direct_solve():
    n = 50
    # a zero row, caught when the factor is made
    diag = np.ones(n)
    diag[20] = 0.0
    zero_row = TridiagonalOperator(sub=np.zeros(n - 1), diag=diag,
                                   sup=np.zeros(n - 1))
    assert _raised(lambda: factor_tridiagonal(zero_row)) == \
        _raised(lambda: solve_tridiagonal(zero_row, np.ones(n)))
    # a solution that overflows
    tiny = TridiagonalOperator(sub=np.full(n - 1, -1e-11),
                               diag=np.full(n, 1e-10), sup=np.full(n - 1, -1e-11))
    big = np.full(n, 1e300)
    assert _raised(lambda: solve_tridiagonal(factor_tridiagonal(tiny), big)) \
        == _raised(lambda: solve_tridiagonal(tiny, big)) \
        == "direct solve produced non-finite values"
    # a solve residual above its tolerance: with a subnormal right-hand
    # side the solution rounds by a whole subnormal unit, and the
    # tolerance underflows to 0
    op = TridiagonalOperator(sub=-np.ones(n - 1), diag=np.full(n, 3.0),
                             sup=-np.ones(n - 1))
    sub = np.full(n, 1e-320)
    msg = _raised(lambda: solve_tridiagonal(op, sub))
    assert "near-singular" in msg
    assert _raised(lambda: solve_tridiagonal(factor_tridiagonal(op), sub)) == msg


def test_solve_applies_no_operator(monkeypatch):
    """Neither the operator path nor the factor path re-applies the
    operator: the backward-error bound of the solve is its proof."""
    n = 50
    op = TridiagonalOperator(sub=-np.ones(n - 1), diag=np.full(n, 3.0),
                             sup=-np.ones(n - 1))
    factor = factor_tridiagonal(op)

    def refused(self, u):
        raise AssertionError("TridiagonalOperator.apply called")

    monkeypatch.setattr(TridiagonalOperator, "apply", refused)
    rhs = np.ones(n)
    assert np.array_equal(solve_tridiagonal(op, rhs),
                          solve_tridiagonal(factor, rhs))


def test_apply_matches_banded_form():
    grid = sf.build_grid(4, 12.0, 200)
    A = sf.assemble_laplacian(grid, "dirichlet")
    rng = np.random.default_rng(3)
    u = rng.standard_normal(grid.n)
    sol = solve_tridiagonal(A, A.apply(u))
    assert np.abs(sol - u).max() < 1e-9 * (1.0 + np.abs(u).max())


def test_dot_matches_exact_sum():
    """grid.dot sums in its own order: it agrees with the correctly
    rounded sum to n eps times the sum of |x_i y_i|."""
    rng = np.random.default_rng(5)
    x, y = rng.standard_normal((2, 64000))
    exact = math.fsum(x * y)
    assert abs(dot(x, y) - exact) <= x.size * np.finfo(float).eps * \
        float(np.abs(x * y).sum())
    assert dot(x[:1], y[:1]) == x[0] * y[0]


def test_weighted_integral_gaussian_oracle():
    grid = sf.build_grid(3, 40.0, 4000)
    val = weighted_integral(grid, np.exp(-grid.nodes ** 2))
    assert val == pytest.approx(np.pi ** 1.5, abs=1e-12)


def test_weighted_integral_second_order():
    """Trapezoid shell quadrature halves its error by 4x per refinement.
    (The integrand must not vanish to all orders at the endpoints, or the
    trapezoid rule becomes spectrally accurate and the ratio degenerates:
    use cos(r), whose antiderivative terms survive at r = R.)"""
    R = 8.0
    exact = 4.0 * np.pi * ((R ** 2 - 2.0) * np.sin(R) + 2.0 * R * np.cos(R))

    def err(n):
        grid = sf.build_grid(3, R, n)
        return abs(weighted_integral(grid, np.cos(grid.nodes)) - exact)

    ratio1 = err(200) / err(400)
    ratio2 = err(400) / err(800)
    assert 3.5 <= ratio1 <= 4.5
    assert 3.5 <= ratio2 <= 4.5


def test_dirichlet_energy_oracle():
    # u = r^2 on a ball: int |grad u|^2 = sigma * int 4 r^2 * r^2 dr
    R = 5.0
    grid = sf.build_grid(3, R, 5000)
    u = grid.nodes ** 2
    exact = 4.0 * np.pi * 4.0 * R ** 5 / 5.0
    assert dirichlet_energy(grid, u) == pytest.approx(exact, rel=1e-6)


def test_weight_mass_rejects_sign_changes():
    grid = sf.build_grid(3, 10.0, 100)
    with pytest.raises(NonPositiveWeight):
        sf.assemble_weight_mass(grid, lambda r: np.cos(r))


@given(st.floats(min_value=0.1, max_value=50.0),
       st.integers(min_value=10, max_value=300))
def test_grid_nodes_span_the_domain(R, n):
    grid = sf.build_grid(3, R, n)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(R)
    assert grid.faces.size == n + 1
