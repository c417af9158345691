"""Refinement gate: `semifold alpha` on the canonical scenario at
n = 16000, 32000 and 64000 certifies its probe on every grid, 10^-6
(1 + |alpha|) below its fold, which converges at second order in h; and
`semifold two` finds both solutions 1e-6 below the fold at n = 64000."""

import json

import pytest

from semifold.cli import main
from semifold.config import CANONICAL_CONFIG

NS = (16000, 32000, 64000)


@pytest.fixture(scope="module")
def alphas(tmp_path_factory):
    """n -> (exit code, alpha.json) of `semifold alpha` at n nodes."""
    out = {}
    for n in NS:
        tmp = tmp_path_factory.mktemp(f"alpha{n}")
        path = tmp / "scenario.ini"
        path.write_text(CANONICAL_CONFIG.replace("n = 4000", f"n = {n}"))
        code = main(["alpha", str(path), "--outdir", str(tmp)])
        report = tmp / "alpha.json"
        out[n] = code, json.loads(report.read_text()) if code == 0 else None
    return out


@pytest.mark.parametrize("n", NS)
def test_alpha_certifies_below_the_fold(alphas, n):
    code, report = alphas[n]
    assert code == 0
    assert report["certificate_h"] < 0.5
    assert report["alpha_bisection"] < report["alpha_arclength"]


def test_alpha_converges_at_second_order(alphas):
    """Halving h divides the change in alpha_arclength by about 4."""
    a = [alphas[n][1]["alpha_arclength"] for n in NS]
    assert 3.5 <= (a[1] - a[0]) / (a[2] - a[1]) <= 4.5


@pytest.mark.parametrize("n", NS)
def test_alpha_probes_its_certified_delta_below_the_fold(alphas, n):
    report = alphas[n][1]
    alpha = report["alpha_arclength"]
    assert report["certified_delta"] == (1.0 + abs(alpha)) / 1e6
    assert report["alpha_bisection"] == alpha - report["certified_delta"]


def test_two_near_the_fold_on_the_finest_grid(alphas, tmp_path):
    """At n = 64000, 1e-6 below alpha_arclength, the minimal solution is
    stable and the second one is not.  (At 1e-7 `two` still exits 2: the
    second solution's certificate sits on the residual's rounding floor.)"""
    n = NS[-1]
    path = tmp_path / "scenario.ini"
    path.write_text(CANONICAL_CONFIG.replace("n = 4000", f"n = {n}"))
    t = alphas[n][1]["alpha_arclength"] - 1e-6
    assert main(["two", str(path), "--t", repr(t),
                 "--outdir", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "two.json").read_text())
    assert report["stability_mu_lower"] > 0.0 > report["stability_mu_upper"]
