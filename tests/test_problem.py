import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import semifold as sf
from semifold.errors import (BoundarySlackWarning, DivergentMoment,
                             NotNormalized, ProbeOutOfRange, SlopeViolation,
                             TailInstabilityWarning)
from semifold.problem import (check_P1, check_P2, check_sigma_growth,
                              derive_slack_constants, expit,
                              rational_decay_weight)
from reference import decompose_forcing, edited_canonical


def test_expit_is_scipys_to_the_rounding_of_exp():
    """numpy's exp and libm's differ by one unit in the last place on a
    few percent of arguments.  After 1 + e and the division that is at
    most 2 eps relative (up to 3 units where 1/(1 + e) lies just below a
    power of 2), and one unit of the subnormal range."""
    from scipy.special import expit as reference
    s = np.concatenate([np.random.default_rng(7).uniform(-800.0, 800.0, 10 ** 6),
                        [0.0, -0.0, np.inf, -np.inf, np.nan, -709.5, -744.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = expit(s)
    want = reference(s)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    ok = ~np.isnan(want)
    tiny = np.finfo(float).smallest_subnormal
    assert (np.abs(got - want)[ok]
            <= np.maximum(2.0 * np.finfo(float).eps * want[ok], tiny)).all()
    assert expit(0.0) == 0.5 and expit(np.inf) == 1.0 and expit(-np.inf) == 0.0


def test_weight_mass_oracle(canonical):
    """Closed form: int (1+r^2)^-3 over R^3 = pi^2/4."""
    with pytest.warns(TailInstabilityWarning):
        rep = check_P1(canonical.weight_values, canonical.grid)
    assert rep["mass"] == pytest.approx(np.pi ** 2 / 4.0, abs=1e-4)
    assert rep["mass_tail_stable"]
    # the second moment converges like 1/R, so at R = 40 the outer half
    # still carries a few percent -- flagged, not fatal
    assert not rep["second_moment_tail_stable"]
    assert rep["second_moment"] == pytest.approx(3.0 * np.pi ** 2 / 4.0,
                                                 rel=0.05)


def test_second_moment_tail_stabilizes_at_large_radius():
    grid = sf.build_grid(3, 2000.0, 20000)
    rep = check_P1(rational_decay_weight(3.0)(grid.nodes), grid)
    assert rep["second_moment_tail_stable"]
    assert rep["second_moment"] == pytest.approx(3.0 * np.pi ** 2 / 4.0,
                                                 rel=1e-3)


def test_divergent_moment_is_fatal():
    grid = sf.build_grid(3, 100.0, 2000)
    with pytest.raises(DivergentMoment):
        check_P1(1.0 / (1.0 + grid.nodes ** 2), grid)


def test_kernel_bound_oracle(canonical):
    """Raw kernel of the canonical weight at the origin is exactly pi."""
    rep = check_P2(canonical.weight_values, canonical.grid,
                   [10.0, 20.0, 40.0])
    assert rep["kernel_at_origin"] == pytest.approx(np.pi, abs=1e-3)
    # far field: r * int P/|x-y| -> mass, i.e. scaled value -> pi^2/4
    assert rep["scaled_values"][-1] == pytest.approx(np.pi ** 2 / 4.0,
                                                     abs=1e-3)
    assert rep["nonincreasing_tail"]
    with pytest.raises(ProbeOutOfRange):
        check_P2(canonical.weight_values, canonical.grid, [50.0])


def test_slack_constants_recover_offset(canonical):
    nl = canonical.nonlinearity
    rep = derive_slack_constants(nl.g, nl.mu_lower, nl.mu_upper)
    assert rep["theta"] == pytest.approx(1.0, abs=1e-6)
    assert not rep["boundary_attained"]


def test_slack_constants_reject_single_slope():
    """A purely linear g touches only one asymptotic slope; against the
    other slack line the gap grows without bound."""
    nl = sf.linear_nonlinearity(2.0)
    with pytest.raises(SlopeViolation):
        derive_slack_constants(nl.g, 1.0, 2.0)


def test_slack_constants_accept_equal_slopes():
    """The linear preset's slopes are equal and its gap is flat, 0 at
    every sample: theta is 0, and no boundary sample exceeds the interior
    ones, so no BoundarySlackWarning."""
    nl = sf.linear_nonlinearity(2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundarySlackWarning)
        rep = derive_slack_constants(nl.g, 2.0, 2.0)
    assert rep == {"theta": 0.0, "boundary_attained": False}


def test_slack_supremum_at_the_sampling_boundary_warns():
    """A gap that still rises at s = +-50, as -1/(1 + |s|), but slowly
    enough to settle, peaks at a boundary sample alone."""
    ramp = sf.smooth_ramp_nonlinearity(1.0, 2.0).g

    def g(s):
        return ramp(s) + 1.0 / (1.0 + np.abs(s))

    with pytest.warns(BoundarySlackWarning):
        rep = derive_slack_constants(g, 1.0, 2.0)
    assert rep["boundary_attained"]


def test_slack_constants_reject_bad_ordering():
    nl = sf.smooth_ramp_nonlinearity(1.0, 2.0)
    with pytest.raises(SlopeViolation):
        derive_slack_constants(nl.g, 2.0, 1.0)


def test_smooth_ramp_shape():
    nl = sf.smooth_ramp_nonlinearity(1.0, 3.0, offset=1.0)
    s = np.linspace(-40.0, 40.0, 1001)
    gp = np.asarray(nl.g_prime(s))
    assert gp.min() >= 1.0 - 1e-12 and gp.max() <= 3.0 + 1e-12
    assert nl.g(-300.0) == pytest.approx(1.0 * -300.0 - 1.0, abs=1e-8)
    assert nl.g(300.0) == pytest.approx(3.0 * 300.0 - 1.0, rel=1e-8)
    # slack inequality g(s) >= mu s - theta holds for both slopes
    gs = np.asarray(nl.g(s))
    assert (gs >= 1.0 * s - 1.0 - 1e-10).all()
    assert (gs >= 3.0 * s - 1.0 - 1e-10).all()
    # sup |g''| is a quarter of the slope gap, at s = 0
    assert nl.g_second_sup == 0.5
    assert np.abs(nl.g_second(s)).max() == pytest.approx(0.5, rel=1e-12)
    assert sf.linear_nonlinearity(2.0).g_second_sup == 0.0


def test_softplus_kernel_matches_logaddexp():
    """With slopes (0, 1) and offset 0, g is the softplus log(1 + e^s)
    alone.  It agrees with np.logaddexp(0, s) to 4 eps relative wherever
    that is a normal number, to one unit of the last subnormal place
    below, and at +-1e300, and it raises no floating-point error."""
    g = sf.smooth_ramp_nonlinearity(0.0, 1.0, 0.0).g
    s = np.concatenate([np.linspace(-745.0, 745.0, 200001),
                        [-1e300, 1e300, 0.0, -0.0]])
    with np.errstate(all="raise"):
        got = g(s)
    np.testing.assert_allclose(got, np.logaddexp(0.0, s),
                               rtol=4.0 * np.finfo(float).eps,
                               atol=np.finfo(float).smallest_subnormal)


def test_sigma_growth_report(canonical):
    rep = check_sigma_growth(canonical.nonlinearity, 3)
    assert rep["sigma"] == pytest.approx(3.0)
    assert rep["compliant"]


def test_straddle_enforced():
    inst = sf.canonical_instance(R=20.0, n=200)
    with pytest.raises(SlopeViolation):
        edited_canonical(20.0, 200, mu_lower_factor=1.5)
    assert inst.eigen is not None


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_decompose_forcing_projection(seed):
    inst = _SHARED["inst"]
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(inst.grid.n) * np.exp(-inst.grid.nodes)
    t, f1 = decompose_forcing(f, inst.eigen, inst.grid, inst.weight_values)
    recon = t * inst.eigen.phi1 + f1
    assert np.abs(recon - f).max() < 1e-12 * (1.0 + np.abs(f).max())
    resid = sf.weighted_integral(inst.grid,
                                 inst.weight_values * f1 * inst.eigen.phi1)
    assert abs(resid) < 1e-10 * (1.0 + abs(t))


_SHARED = {}


def setup_module(module):
    _SHARED["inst"] = sf.canonical_instance(R=20.0, n=300)


def test_decompose_requires_normalized_eigenfunction():
    inst = _SHARED["inst"]
    bad = replace(inst.eigen, phi1=2.0 * inst.eigen.phi1)
    with pytest.raises(NotNormalized):
        decompose_forcing(np.ones(inst.grid.n), bad, inst.grid,
                          inst.weight_values)


def test_forcing_override():
    inst = _SHARED["inst"]
    f1 = np.ones(inst.grid.n)
    inst2 = replace(inst, forcing=replace(inst.forcing, f1=f1))
    assert inst2.forcing.f1 is f1
    assert not inst.forcing.f1.any()


def test_validation_survives_python_O():
    """The eigenpair, symmetrizability and dimension checks raise package
    errors, not asserts, so `python -O` keeps them."""
    import subprocess
    import sys
    from pathlib import Path

    code = """
import sys
from dataclasses import replace
import semifold as sf
from semifold.eigen import smallest_eigenvalue
from semifold.errors import SemifoldError
from semifold.problem import check_sigma_growth

assert False, "asserts must be stripped in this interpreter"
inst = sf.canonical_instance(R=20.0, n=50)
checks = {
    "EigenPair": lambda: replace(inst.eigen, phi1=-inst.eigen.phi1),
    "smallest_eigenvalue": lambda: smallest_eigenvalue(
        replace(inst.A, sub=-inst.A.sub),
        inst.grid.volumes ** 0.5 * inst.eigen.phi1),
    "check_sigma_growth": lambda: check_sigma_growth(inst.nonlinearity, 2),
}
for name, check in checks.items():
    try:
        check()
    except SemifoldError:
        continue
    sys.exit(name + " did not raise")
"""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-O", "-c", code], cwd=src,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
