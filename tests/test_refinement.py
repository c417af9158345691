"""Refinement gate: `semifold alpha` on the canonical scenario at
n = 16000, 32000 and 64000 certifies its probe on every grid, and its
fold converges at second order in h."""

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
