import numpy as np
import pytest
from hypothesis import given, strategies as st

import semifold as sf
from semifold.errors import (DivergentMoment, NotNormalized, ProbeOutOfRange,
                             SlopeViolation, TailInstabilityWarning)
from semifold.problem import (check_P1, check_P2, check_sigma_growth,
                              decompose_forcing, derive_slack_constants)


def test_weight_mass_oracle(canonical):
    """Closed form: int (1+r^2)^-3 over R^3 = pi^2/4."""
    with pytest.warns(TailInstabilityWarning):
        rep = check_P1(canonical.weight, canonical.grid)
    assert rep["mass"] == pytest.approx(np.pi ** 2 / 4.0, abs=1e-4)
    assert rep["mass_tail_stable"]
    # the second moment converges like 1/R, so at R = 40 the outer half
    # still carries a few percent -- flagged, not fatal
    assert not rep["second_moment_tail_stable"]
    assert rep["second_moment"] == pytest.approx(3.0 * np.pi ** 2 / 4.0,
                                                 rel=0.05)


def test_second_moment_tail_stabilizes_at_large_radius():
    weight = sf.canonical_weight()
    grid = sf.build_grid(3, 2000.0, 20000)
    rep = check_P1(weight, grid)
    assert rep["second_moment_tail_stable"]
    assert rep["second_moment"] == pytest.approx(3.0 * np.pi ** 2 / 4.0,
                                                 rel=1e-3)


def test_divergent_moment_is_fatal():
    from semifold.problem import WeightSpec

    slow = WeightSpec(evaluator=lambda r: 1.0 / (1.0 + np.asarray(r) ** 2),
                      preset_id="custom", N=3)
    grid = sf.build_grid(3, 100.0, 2000)
    with pytest.raises(DivergentMoment):
        check_P1(slow, grid)


def test_kernel_bound_oracle(canonical):
    """Raw kernel of the canonical weight at the origin is exactly pi."""
    rep = check_P2(canonical.weight, canonical.grid, [10.0, 20.0, 40.0])
    assert rep["kernel_at_origin"] == pytest.approx(np.pi, abs=1e-3)
    # far field: r * int P/|x-y| -> mass, i.e. scaled value -> pi^2/4
    assert rep["scaled_values"][-1] == pytest.approx(np.pi ** 2 / 4.0,
                                                     abs=1e-3)
    assert rep["nonincreasing_tail"]
    with pytest.raises(ProbeOutOfRange):
        check_P2(canonical.weight, canonical.grid, [50.0])


def test_slack_constants_recover_offset(canonical):
    nl = canonical.nonlinearity
    rep = derive_slack_constants(nl.g, nl.g_prime, nl.mu_lower, nl.mu_upper)
    assert rep["theta"] == pytest.approx(1.0, abs=1e-6)
    assert not rep["boundary_attained"]


def test_slack_constants_reject_single_slope():
    """A purely linear g touches only one asymptotic slope; against the
    other slack line the gap grows without bound."""
    nl = sf.linear_nonlinearity(2.0)
    with pytest.raises(SlopeViolation):
        derive_slack_constants(nl.g, nl.g_prime, 1.0, 2.0)


def test_slack_constants_reject_bad_ordering():
    nl = sf.smooth_ramp_nonlinearity(1.0, 2.0)
    with pytest.raises(SlopeViolation):
        derive_slack_constants(nl.g, nl.g_prime, 2.0, 1.0)


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


def test_sigma_growth_report(canonical):
    rep = check_sigma_growth(canonical.nonlinearity, 3)
    assert rep["sigma"] == pytest.approx(3.0)
    assert rep["compliant"]


def test_straddle_enforced():
    inst = sf.canonical_instance(R=20.0, n=200, mu_factors=(0.5, 2.0))
    with pytest.raises(SlopeViolation):
        sf.canonical_instance(R=20.0, n=200, mu_factors=(1.5, 2.0))
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
    from dataclasses import replace

    inst = _SHARED["inst"]
    bad = replace(inst.eigen, phi1=2.0 * inst.eigen.phi1)
    with pytest.raises(NotNormalized):
        decompose_forcing(np.ones(inst.grid.n), bad, inst.grid,
                          inst.weight_values)


def test_forcing_override():
    inst = _SHARED["inst"]
    inst2 = inst.with_forcing(t=3.5)
    assert inst2.forcing.t == 3.5
    assert inst.forcing.t == 0.0


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
        inst.grid, replace(inst.A, sub=-inst.A.sub)),
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
