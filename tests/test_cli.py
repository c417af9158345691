import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from semifold.cli import main
from semifold.config import CANONICAL_CONFIG

SMALL = CANONICAL_CONFIG.replace("n = 4000", "n = 800")


@pytest.fixture(scope="module")
def scenario(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "scenario.ini"
    path.write_text(SMALL)
    return str(path)


def _sha(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_check_command(scenario, tmp_path):
    rc = main(["check", scenario, "--outdir", str(tmp_path)])
    assert rc == 0
    rep = json.loads((tmp_path / "report.json").read_text())
    assert rep["comparison_principle"] is True
    assert rep["slack"]["theta"] == pytest.approx(1.0, abs=1e-6)
    assert rep["P1"]["mass"] == pytest.approx(np.pi ** 2 / 4.0, abs=1e-3)


def test_eigen_command(scenario, tmp_path):
    rc = main(["eigen", scenario, "--outdir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "eigen.json").read_text())
    assert meta["plateau_ok"] is True
    data = np.loadtxt(tmp_path / "eigen.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 3
    assert (data[:, 1] > 0).all()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"]["eigen.csv"] == _sha(tmp_path / "eigen.csv")


def test_solve_and_verify_roundtrip(scenario, tmp_path):
    sol = tmp_path / "sol"
    rc = main(["solve", scenario, "--method", "monotone", "--t", "-50",
               "--outdir", str(sol)])
    assert rc == 0
    rep = json.loads((sol / "report.json").read_text())
    assert rep["converged"] and rep["t"] == -50.0
    # the coarse grid cannot meet the representation tolerance: verify
    # must fail honestly with the dedicated exit code
    rc = main(["verify", scenario, "--solutions", str(sol),
               "--outdir", str(tmp_path / "ver")])
    report = json.loads((tmp_path / "ver" / "report.json").read_text())
    assert report["count"] == 1
    failed = [e for e in report["reports"][0]["entries"] if not e["pass"]]
    if failed:
        assert rc == 3
        assert {e["name"] for e in failed} == {"representation_residual"}
    else:
        assert rc == 0


def test_verify_passes_at_production_resolution(tmp_path):
    path = tmp_path / "fine.ini"
    path.write_text(CANONICAL_CONFIG)
    sol = tmp_path / "sol"
    assert main(["solve", str(path), "--method", "monotone", "--t", "-50",
                 "--outdir", str(sol)]) == 0
    assert main(["verify", str(path), "--solutions", str(sol),
                 "--outdir", str(tmp_path / "ver")]) == 0


def test_alpha_command_and_determinism(scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["alpha", scenario, "--outdir", str(out1)]) == 0
    assert main(["alpha", scenario, "--outdir", str(out2)]) == 0
    a1 = json.loads((out1 / "alpha.json").read_text())
    assert a1["agreement_gap"] <= 1e-3 * (1.0 + abs(a1["alpha_arclength"]))
    assert a1["alpha_arclength"] <= a1["tau_star"]
    # bit-reproducibility: identical bytes on a re-run
    for name in ("alpha.json", "branch.csv"):
        assert _sha(out1 / name) == _sha(out2 / name)
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["scenario_id"] == m2["scenario_id"]


def test_two_command(scenario, tmp_path):
    rc = main(["two", scenario, "--t", "-9", "--outdir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "two.json").read_text())
    assert meta["separation_inf"] > 1e-3
    assert meta["stability_mu_lower"] > 0 > meta["stability_mu_upper"]
    lo = np.loadtxt(tmp_path / "solution_lower.csv", delimiter=",", skiprows=1)
    hi = np.loadtxt(tmp_path / "solution_upper.csv", delimiter=",", skiprows=1)
    assert (lo[:, 1] <= hi[:, 1] + 1e-9).all()


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[weight]\npreset = rational_decay\n")
    assert main(["check", str(path)]) == 1
    assert main(["check", str(tmp_path / "missing.ini")]) == 1


def test_numerical_failure_exit_code(scenario, tmp_path):
    # far above the solvability threshold: Newton must fail, exit code 2
    rc = main(["solve", scenario, "--method", "newton", "--t", "10",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_outdir_env_override(scenario, tmp_path, monkeypatch):
    target = tmp_path / "env_out"
    monkeypatch.setenv("SEMIFOLD_OUTDIR", str(target))
    assert main(["eigen", scenario]) == 0
    assert (target / "eigen.json").exists()


def test_sweep_command(scenario, tmp_path):
    rc = main(["sweep", scenario, "--configs", scenario, scenario,
               "--outdir", str(tmp_path)])
    assert rc == 0
    subdirs = [p for p in tmp_path.iterdir() if p.is_dir()]
    assert len(subdirs) == 1  # identical configs share a scenario id
    assert (subdirs[0] / "eigen.json").exists()


@pytest.mark.parametrize("old, new", [
    ("stretch = 1.0", "stretch = 0.5"),
    ("dimension = 3", "dimension = 2"),
    ("mu_lower_factor = 0.5", "mu_lower_factor = 1.5"),
    ("n = 800", "n = 400.9"),
])
def test_config_mistakes_exit_1(tmp_path, old, new):
    path = tmp_path / "bad.ini"
    path.write_text(SMALL.replace(old, new))
    assert main(["eigen", str(path), "--outdir", str(tmp_path / "out")]) == 1


@pytest.fixture(scope="module")
def coarse_solution(tmp_path_factory):
    """A solution written on an n = 400 grid, foreign to `scenario`."""
    root = tmp_path_factory.mktemp("coarse")
    path = root / "coarse.ini"
    path.write_text(CANONICAL_CONFIG.replace("n = 4000", "n = 400"))
    assert main(["solve", str(path), "--t", "-50",
                 "--outdir", str(root / "sol")]) == 0
    return root / "sol"


def test_verify_rejects_solution_from_other_grid(scenario, coarse_solution,
                                                 tmp_path, capsys):
    rc = main(["verify", scenario, "--solutions", str(coarse_solution),
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "does not match the grid" in capsys.readouterr().err


def test_solve_start_rejects_solution_from_other_grid(scenario, coarse_solution,
                                                      tmp_path, capsys):
    rc = main(["solve", scenario, "--t", "-50",
               "--start", str(coarse_solution / "solution.csv"),
               "--outdir", str(tmp_path)])
    assert rc == 1
    assert "does not match the grid" in capsys.readouterr().err
