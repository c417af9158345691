import configparser
import ctypes
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import semifold
from semifold import _lapack, cli, config, continuation, nonlinear
from semifold.cli import main
from semifold.config import (CANONICAL_CONFIG, COARSE_N, KEYS, LADDER_N,
                             build_scenario_instance, load_config)
from semifold.eigen import decay_constants, smallest_eigenvalue
from semifold.errors import BoundarySlackWarning, NoConvergence
from semifold.grid import build_grid, solve_tridiagonal, weighted_integral
from branching import flipped_curvature, ladder_fold, row_fold

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


@pytest.mark.parametrize("argv, emitted", [
    (["eigen"], {"eigen.csv", "eigen.json"}),
    (["solve", "--t", "-50"], {"solution.csv", "report.json"}),
    (["alpha"], {"alpha.json"}),
    (["two", "--t", "-9"],
     {"solution_lower.csv", "solution_upper.csv", "two.json"}),
], ids=["eigen", "solve", "alpha", "two"])
def test_manifest_digests_every_emitted_file(scenario, tmp_path, argv,
                                             emitted):
    assert main([argv[0], scenario, *argv[1:],
                 "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    on_disk = {p.name: _sha(p) for p in tmp_path.iterdir()
               if p.name != "manifest.json"}
    assert set(on_disk) == emitted
    assert manifest["files"] == on_disk
    assert manifest["exit_code"] == 0 and manifest["error"] is None


@pytest.mark.parametrize("failure", ["NoConvergence", "t_start = 5.0"])
def test_failed_run_leaves_its_own_manifest(tmp_path, monkeypatch, capsys,
                                           failure):
    """alpha that exits 2 into the outdir of an earlier alpha writes the
    manifest of the failed run: the error it printed, exit code 2, its
    config hash, and a file list without the earlier alpha.json."""
    out = tmp_path / "out"
    assert main(["alpha", _scenario(tmp_path / "ok.ini", 600),
                 "--outdir", str(out)]) == 0
    if failure == "NoConvergence":
        def fail(*args, **kwargs):
            raise NoConvergence("probe did not converge", iterations=7,
                                residual=np.float64(2.5e-3))

        monkeypatch.setattr(cli, "certified_below", fail)
        t_start = -40.0
        error = {"type": "NoConvergence", "iterations": 7, "residual": 2.5e-3}
    else:
        t_start, error = 5.0, {"type": "MonotonicityBroken"}
    path = _scenario(tmp_path / "bad.ini", 600, t_start=t_start)
    assert main(["alpha", path, "--outdir", str(out)]) == 2
    printed = capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert printed == f"numerical failure: {manifest['error']['message']}\n"
    assert manifest["error"] == {**error,
                                 "message": manifest["error"]["message"]}
    assert manifest["exit_code"] == 2
    assert manifest["config_hash"] == load_config(path).content_hash()
    assert "alpha.json" not in manifest["files"]
    assert (out / "alpha.json").exists()  # the earlier run's, not listed
    assert "build_instance" in manifest["wall_clock_s"]


def test_manifest_hashes_the_bytes_as_written(scenario, tmp_path):
    """finish reads no emitted file back: a file changed on disk after it
    was emitted keeps the digest of what was written."""
    run = cli._Run("test", load_config(scenario), tmp_path)
    run.emit("a.csv", [b"x\n", b"1\n"])
    (tmp_path / "a.csv").write_text("changed\n")
    run.finish(0, None)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["files"] == {"a.csv": hashlib.sha256(b"x\n1\n").hexdigest()}


def test_manifest_names_the_lapack_in_use(scenario, tmp_path):
    """The bound OpenBLAS's configuration string or the SciPy fallback:
    which LAPACK ran shows in the output files alone."""
    assert main(["eigen", scenario, "--outdir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["lapack"] == _lapack.LIBRARY
    assert (manifest["lapack"] == "scipy.linalg.lapack"
            or manifest["lapack"].startswith("OpenBLAS "))


def _savetxt_bytes(table, header):
    """The reference writer the CSV renderer must match byte for byte."""
    buf = io.BytesIO()
    np.savetxt(buf, table, delimiter=",", header=header, comments="")
    return buf.getvalue()


def _rendered_bytes(chunks):
    return b"".join(chunks)


# the edges of _e18_fields' window of exact digits, 1e-9 and 1e14, and
# their neighbours, in both signs
WINDOW_EDGES = [s * y for b in (1e-9, 1e14)
                for y in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))
                for s in (1.0, -1.0)]
SPECIAL_VALUES = np.array([-0.0, 0.0, 5e-324, -2.5e-310, np.inf, -np.inf,
                           np.nan, 1e300, -1e-300, 1e-300, -1e300, 1.0, 0.1,
                           *WINDOW_EDGES])


@pytest.mark.parametrize("rows", [1, 2047, 2048, 2049, 64000])
def test_csv_blocks_match_savetxt(rows):
    """Row counts around one block of CSV_BLOCK_ROWS = 2048, and a
    64000-row table, over magnitudes 1e-300 ... 1e300, rendered in such
    blocks and as one; each column starts with -0.0, subnormals,
    infinities, nan, 1e+-300 and the window edges where it has room."""
    assert cli.CSV_BLOCK_ROWS == 2048
    rng = np.random.default_rng(rows)
    columns = [rng.standard_normal(rows) * 10.0 ** rng.uniform(-300, 300, rows)
               for _ in range(3)]
    for shift, col in enumerate(columns):
        head = np.roll(SPECIAL_VALUES, shift)[:rows]
        col[:len(head)] = head
    header = "r,u,r_pow_u"
    table = np.column_stack(columns)
    blocks = [table[start:start + cli.CSV_BLOCK_ROWS]
              for start in range(0, rows, cli.CSV_BLOCK_ROWS)]
    expected = _savetxt_bytes(table, header)
    assert _rendered_bytes(cli._csv_text(header, blocks)) == expected
    assert _rendered_bytes(cli._csv_text(header, [table])) == expected


def _rendered_lines(values):
    """The data lines of a one-column CSV of `values`, from the renderer."""
    column = np.asarray(values, dtype=float).reshape(-1, 1)
    text = b"".join(cli._csv_text("x", [column]))
    text = text.decode("ascii")
    return text.split("\n")[1:-1]


def _ulps_around(x, count):
    """x and the `count` floats on each side of it."""
    down = up = x
    near = [x]
    for _ in range(count):
        down, up = np.nextafter(down, -np.inf), np.nextafter(up, np.inf)
        near += [down, up]
    return near


def test_decades_bracket_powers_of_ten():
    """Each of the renderer's decade bounds is the least float at or
    above its power of ten, which is what places a value's exponent."""
    for k, bound in zip(range(cli.EXACT_K_LOW, cli.EXACT_K_HIGH + 2),
                        cli._DECADES):
        power = Fraction(10) ** k
        assert Fraction(bound) >= power > Fraction(np.nextafter(bound, 0.0))


def test_digit_tables_hold_the_ascii_of_their_index():
    for table, width in ((cli._DIGITS4, 4), (cli._DIGITS2, 2)):
        assert len(table) == 10 ** width
        assert table.tobytes() == b"".join(b"%0*d" % (width, i)
                                           for i in range(10 ** width))


def test_decimal_exponent_is_the_decades_one():
    """The exponent from frexp's binary exponent and one comparison is
    the one searchsorted finds among _DECADES, at every decade bound and
    every power of two in the window, and at their neighbours."""
    bounds = list(cli._DECADES) + list(np.ldexp(1.0, np.arange(-32, 50)))
    a = np.array([y for b in bounds
                  for y in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))])
    a = a[(a >= cli._DECADES[0]) & (a < cli._DECADES[-1])]
    expected = np.searchsorted(cli._DECADES, a, side="right") + (
        cli.EXACT_K_LOW - 1)
    assert np.array_equal(cli._decimal_exponent(a, np.frexp(a)[1]), expected)


def test_exact_window_matches_percent_format():
    """Inside the window of exact integer arithmetic, about 1e-9 to 1e14,
    and at its edges, each number is `'%.18e' % v`: random bit patterns
    (over every float, and with exponents in and around the window),
    powers of ten and both window edges within 2 ulps, where the decimal
    exponent changes, dyadic values, whose 20th digit can be an exact
    tie, and the values outside the window."""
    rng = np.random.default_rng(2018)
    bits = rng.integers(0, 2 ** 64, 100_000, dtype=np.uint64)
    windowed = bits & np.uint64(0x800F_FFFF_FFFF_FFFF) | (
        rng.integers(1023 - 32, 1023 + 49, 100_000).astype(np.uint64) << 52)
    powers = [y for k in range(cli.EXACT_K_LOW - 1, cli.EXACT_K_HIGH + 3)
              for y in _ulps_around(float(Fraction(10) ** k), 2)]
    edges = [y for b in (cli._DECADES[0], cli._DECADES[-1])
             for y in _ulps_around(b, 1)]
    dyadic = (rng.integers(1, 2 ** 21, 50_000)
              * np.ldexp(1.0, rng.integers(-40, 48, 50_000)))
    ties = [1e13 + 2.0 ** -6, 20973 * 2.0 ** -21]
    values = np.concatenate([
        bits.view(np.float64), windowed.view(np.float64), powers, edges,
        dyadic, ties, [-0.0, 0.0, 5e-324, -2.2e-308, np.nan, np.inf, -np.inf]])
    values = np.concatenate([values, -values])
    assert _rendered_lines(values) == ["%.18e" % v for v in values.tolist()]


@given(st.lists(st.one_of(st.floats(), st.floats(1e-9, 1e14),
                          st.floats(-1e14, -1e-9)), min_size=1))
def test_any_float_renders_as_percent_format(values):
    assert _rendered_lines(values) == ["%.18e" % v for v in values]


def test_branch_csv_matches_savetxt(monkeypatch):
    """The 7-column branch table, integer index first, past one block;
    arclength sums the chords sqrt(|du|^2 / n + dt^2)."""
    monkeypatch.setattr(cli, "stability", lambda inst, u: -float(u[0]))
    monkeypatch.setattr(cli, "e0_norm", lambda grid, u: float(u[1]) * 1e-300)
    monkeypatch.setattr(cli, "residual",
                        lambda inst, u, t: u[2:] * 1e-310 * t)
    rng = np.random.default_rng(7)
    rows = [(-10.0 + 1e-3 * i, x)
            for i, x in enumerate(rng.standard_normal((2100, 3)))]
    inst = SimpleNamespace(grid=None)
    header = "index,t,u_at_0,e0_norm,residual_inf,stability_mu,arclength"
    text = _rendered_bytes(cli.emit_bifurcation(inst, rows))
    arcs = np.loadtxt(io.BytesIO(text), delimiter=",", skiprows=1)[:, 6]
    chords = [0.0] + [np.sqrt(np.sum((u - w) ** 2) / 3 + (t - s) ** 2)
                      for (s, w), (t, u) in zip(rows, rows[1:])]
    np.testing.assert_allclose(arcs, np.cumsum(chords), rtol=1e-12)
    table = [[i, t, u[0], u[1] * 1e-300, abs(u[2] * 1e-310 * t), -u[0], arc]
             for i, ((t, u), arc) in enumerate(zip(rows, arcs))]
    assert text == _savetxt_bytes(np.array(table), header)


def test_solution_csv_writes_in_small_blocks(tmp_path, traced_peak):
    """Writing a 64000-row solution allocates at most 4 MB at its peak
    (the table itself is 1.5 MB, its text about 5 MB), and the file holds
    savetxt's bytes."""
    grid = build_grid(3, 40.0, 64000)
    u = -np.exp(-grid.nodes)
    run = cli._Run(None, None, tmp_path)
    _, peak = traced_peak(
        lambda: run.emit("solution.csv", cli._solution_csv(grid, u)))
    assert peak <= 4_000_000
    expected = _savetxt_bytes(np.column_stack(
        [grid.nodes, u, grid.nodes ** (grid.N - 2) * u]), "r,u,r_pow_u")
    assert (tmp_path / "solution.csv").read_bytes() == expected
    assert run.files["solution.csv"] == hashlib.sha256(expected).hexdigest()


def test_solution_csv_block_holds_few_arrays(tmp_path, traced_peak):
    """Writing a 4000-row solution whose numbers all lie in the window of
    exact digits allocates at most 1 MB at its peak: each block's working
    arrays are dropped once dead, and r^(N-2) u is formed per block."""
    grid = build_grid(3, 40.0, 4000)
    u = -1.0 / (1.0 + grid.nodes ** 2)
    run = cli._Run(None, None, tmp_path)
    _, peak = traced_peak(
        lambda: run.emit("solution.csv", cli._solution_csv(grid, u)))
    assert peak <= 1_000_000


def test_solution_csv_at_n_5_keeps_savetxt_bytes():
    """At N = 5, r^(N-2) = r^3 goes through pow one block at a time; the
    bytes are savetxt's of the whole column r^3 u."""
    grid = build_grid(5, 40.0, 5000)
    u = np.cos(grid.nodes) / (1.0 + grid.nodes ** 3)
    expected = _savetxt_bytes(np.column_stack(
        [grid.nodes, u, grid.nodes ** 3 * u]), "r,u,r_pow_u")
    assert _rendered_bytes(cli._solution_csv(grid, u)) == expected


def test_solve_and_verify_roundtrip(scenario, tmp_path):
    sol = tmp_path / "sol"
    rc = main(["solve", scenario, "--method", "monotone", "--t", "-50",
               "--outdir", str(sol)])
    assert rc == 0
    rep = json.loads((sol / "report.json").read_text())
    assert rep["converged"] and rep["t"] == -50.0
    assert rep["e0_norm"] > 0 and np.isfinite(rep["decay_coeff"])
    assert "interval_margin" not in rep
    assert 0.0 <= rep["certificate_h"] <= 0.5
    assert rep["certificate_eta"] >= 0.0 and rep["certificate_beta"] > 0.0
    assert 0.0 <= rep["subsolution_defect"] <= 1e-13
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


def test_verify_checks_both_solutions_of_two(scenario, tmp_path):
    two = tmp_path / "two"
    assert main(["two", scenario, "--t", "-9", "--outdir", str(two)]) == 0
    rc = main(["verify", scenario, "--solutions", str(two),
               "--outdir", str(tmp_path / "ver")])
    report = json.loads((tmp_path / "ver" / "report.json").read_text())
    assert [r["solution_id"] for r in report["reports"]] == \
        ["two_lower", "two_upper"]
    assert rc == (0 if report["all_pass"] else 3)


@pytest.mark.parametrize("source", ["eigen", None])
def test_verify_without_a_solution_exits_1(scenario, tmp_path, capsys,
                                          source):
    soldir = tmp_path / "sol"
    if source:
        assert main([source, scenario, "--outdir", str(soldir)]) == 0
    rc = main(["verify", scenario, "--solutions", str(soldir),
               "--outdir", str(tmp_path / "ver")])
    assert rc == 1
    assert str(soldir) in capsys.readouterr().err
    assert not (tmp_path / "ver").exists()


def test_solve_start_is_refused_by_monotone(scenario, tmp_path, capsys):
    rc = main(["solve", scenario, "--method", "monotone", "--t", "-50",
               "--start", str(tmp_path / "missing.csv"),
               "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert "--start applies only to" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_monotone_solve_above_the_fold_exits_2(tmp_path, capsys):
    """Just above the fold of the scenario's own grid there is no minimal
    solution: exit 2 with one line, and no solution written."""
    path = tmp_path / "fine.ini"
    path.write_text(CANONICAL_CONFIG)
    inst = build_scenario_instance(load_config(str(path)))
    alpha = ladder_fold(inst).t
    out = tmp_path / "out"
    rc = main(["solve", str(path), "--method", "monotone",
               "--t", repr(alpha + 1e-3), "--outdir", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: no minimal solution")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (out / "solution.csv").exists()


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
    assert abs(a1["alpha_arclength"] - a1["alpha_bisection"]) \
        <= 1e-3 * (1.0 + abs(a1["alpha_arclength"]))
    assert a1["alpha_arclength"] <= a1["tau_star"]
    # bit-reproducibility: identical bytes on a re-run
    assert _sha(out1 / "alpha.json") == _sha(out2 / "alpha.json")
    m1 = json.loads((out1 / "manifest.json").read_text())
    m2 = json.loads((out2 / "manifest.json").read_text())
    assert m1["files"] == m2["files"]
    assert m1["scenario_id"] == m2["scenario_id"]


def test_alpha_single_level_reports_its_own_grid(scenario, tmp_path):
    """At n <= LADDER_N the fold is found and refined on the grid itself;
    at n = 800 the ladder climbs the LADDER_N-node twin."""
    own = _alpha(_scenario(tmp_path / "ladder.ini", LADDER_N), tmp_path / "a")
    assert own["coarse_n"] == LADDER_N
    assert own["alpha_coarse"] == own["alpha_arclength"]
    assert 1 <= own["fold_iterations"] <= 6
    assert _alpha(scenario, tmp_path / "b")["coarse_n"] == LADDER_N


def test_branch_rows_have_their_own_stage(scenario, tmp_path):
    assert main(["branch", scenario, "--outdir", str(tmp_path)]) == 0
    stages = json.loads((tmp_path / "manifest.json").read_text())["wall_clock_s"]
    assert {"build_instance", "branch_start", "trace",
            "branch_rows"} <= set(stages)


def _recorded_rows(monkeypatch):
    """[(fold, rows)] of each fold_branch call the CLI makes."""
    calls = []
    build = cli.fold_branch

    def recorded(inst, fold, *args):
        calls.append((fold, build(inst, fold, *args)))
        return calls[-1][1]

    monkeypatch.setattr(cli, "fold_branch", recorded)
    return calls


def test_branch_starts_from_the_minimal_solution(scenario, tmp_path,
                                                 monkeypatch):
    """branch's first row is monotone_rise's limit at t_start, bit for
    bit, and no newton_solve call makes it."""
    def refused(*args, **kwargs):
        raise AssertionError("newton_solve called")

    for module in (nonlinear, cli):
        monkeypatch.setattr(module, "newton_solve", refused)
    calls = _recorded_rows(monkeypatch)
    assert main(["branch", scenario, "--outdir", str(tmp_path)]) == 0
    cfg = load_config(scenario)
    inst = build_scenario_instance(cfg)
    t_start = cli._t_range(cfg, inst)[0]
    t, u = calls[0][1][0]
    assert t == t_start
    assert np.array_equal(u, nonlinear.monotone_rise(inst, t_start)[0])


@pytest.mark.parametrize("n", [4000, 64000])
def test_branch_rows_are_converged(tmp_path, monkeypatch, n):
    """One more Newton correction from every row of branch.csv off the
    fold is at most FOLD_TOL relative, and one more extended Newton step
    from the fold row moves it by no more; the rows below the fold are
    monotone_rise's limits, each from the row below, bit for bit."""
    path = _scenario(tmp_path / "scenario.ini", n)
    calls = _recorded_rows(monkeypatch)
    assert main(["branch", path, "--outdir", str(tmp_path / "out")]) == 0
    inst = build_scenario_instance(load_config(path))
    (fold, rows), = calls
    tol = nonlinear.FOLD_TOL
    m = len(rows) // 2
    u_prev = None
    for k, (t, u) in enumerate(rows):
        scale = 1.0 + np.abs(u).max()
        if k == m:
            again = cli.refine_fold(inst, u, t, fold.v)
            assert abs(again.t - t) <= tol * (1.0 + abs(t))
            assert np.abs(again.u - u).max() <= tol * scale
            continue
        du = solve_tridiagonal(nonlinear.jacobian(inst, u),
                               -nonlinear.residual(inst, u, t))
        assert np.abs(du).max() <= tol * scale
        if k < m:
            u_prev = nonlinear.monotone_rise(inst, t, u_prev)[0]
            assert np.array_equal(u, u_prev)


@pytest.fixture(scope="module")
def branch_16k(tmp_path_factory):
    """(config path, fold_branch's rows) of `branch` at n = 16000."""
    tmp = tmp_path_factory.mktemp("b16")
    path = _scenario(tmp / "scenario.ini", 16000)
    with pytest.MonkeyPatch.context() as mp:
        calls = _recorded_rows(mp)
        assert main(["branch", path, "--outdir", str(tmp / "out")]) == 0
    t_csv = np.loadtxt(tmp / "out" / "branch.csv", delimiter=",",
                       skiprows=1)[:, 1]
    assert np.array_equal(t_csv, [t for t, _ in calls[0][1]])
    return path, calls[0][1]


def test_branch_turns_at_alpha(branch_16k, tmp_path):
    """The fold row's t is alpha.json's alpha_arclength, bit for bit."""
    path, rows = branch_16k
    alpha = _alpha(path, tmp_path)["alpha_arclength"]
    assert rows[len(rows) // 2][0] == alpha


def test_first_row_above_the_fold_is_twos_second_solution(branch_16k,
                                                           tmp_path):
    """The first row above the fold is `two --t <its t>`'s second
    solution, bit for bit."""
    path, rows = branch_16k
    t, upper = rows[len(rows) // 2 + 1]
    assert main(["two", path, "--t", repr(t), "--outdir", str(tmp_path)]) == 0
    assert np.array_equal(upper, np.loadtxt(
        tmp_path / "solution_upper.csv", delimiter=",", skiprows=1)[:, 1])


@pytest.mark.parametrize("n", [800, 16000])
def test_alpha_and_two_trace_no_branch(tmp_path, monkeypatch, n):
    """The fold comes from the ladder: neither alpha nor two calls
    fold_branch, with or without the 4000-node level in the chain, and
    each manifest keeps the stages of the trace's place.  Both alpha's
    bound and two's roots come from the fold's normal form, one certify
    call per point, and neither calls monotone_newton or newton_solve.
    Each solves one first eigenpair per level of the chain, the
    LADDER_N-node one first from the default start and each finer one
    from its twin's lifted phi1, climbs the ladder on the LADDER_N-node
    level and refines its fold once on each level above it."""
    path = _scenario(tmp_path / "scenario.ini", n)
    levels = [LADDER_N] + [COARSE_N] * (n > COARSE_N) + [n]
    traced = _recorded_rows(monkeypatch)
    solved, climbed, refined = [], [], []
    eigenpair = config.first_eigenpair

    def recorded(grid, *args, start=None, **kwargs):
        solved.append((grid.n, start is None))
        return eigenpair(grid, *args, start=start, **kwargs)

    def on_level(fn, sizes):
        def recorded(inst, *args):
            sizes.append(inst.grid.n)
            return fn(inst, *args)
        return recorded

    monkeypatch.setattr(config, "first_eigenpair", recorded)
    monkeypatch.setattr(cli, "find_fold", on_level(cli.find_fold, climbed))
    monkeypatch.setattr(cli, "refine_fold",
                        on_level(cli.refine_fold, refined))
    calls = []

    def counted(fn):
        def recorded(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return recorded

    # each module calls the name it imported
    for module in (nonlinear, continuation, cli):
        for name in ("certify", "monotone_newton", "newton_solve"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name,
                                    counted(getattr(module, name)))
    for argv in (["alpha"], ["two", "--t", "-9"]):
        out = tmp_path / argv[0]
        for recorded in (calls, solved, climbed, refined):
            recorded.clear()
        assert main([argv[0], path, *argv[1:], "--outdir", str(out)]) == 0
        assert solved == [(m, m == LADDER_N) for m in levels]
        assert climbed == [LADDER_N] and refined == levels[1:]
        stages = json.loads((out / "manifest.json").read_text())["wall_clock_s"]
        assert {"build_instance", "branch_start", "trace", argv[0]} == \
            set(stages)
        assert calls == ["certify"] * {"alpha": 1, "two": 2}[argv[0]]
    assert traced == []


def test_alpha_falls_back_to_monotone_newton(scenario, tmp_path,
                                             monkeypatch):
    """Where the predictor does not certify, alpha takes monotone
    Newton's certificate at the same probe."""
    kept = _alpha(scenario, tmp_path / "kept")
    monkeypatch.setattr(continuation, "certify",
                        lambda inst, u, t: (u, np.inf, np.inf, np.inf))
    fallback = _alpha(scenario, tmp_path / "fallback")
    probe = fallback["alpha_bisection"]
    assert probe == kept["alpha_bisection"]
    _, eta, beta, h, _ = nonlinear.monotone_newton(
        build_scenario_instance(load_config(scenario)), probe)
    assert [fallback[f"certificate_{k}"] for k in ("eta", "beta", "h")] == \
        [eta, beta, h]
    assert h <= 0.5


def _scenario(path, n, **keys):
    """The canonical scenario at n nodes, with `stretch` and `farfield`
    set in [grid] and other keys in [run], written to `path`."""
    cp = configparser.ConfigParser()
    cp.read_string(CANONICAL_CONFIG)
    cp["grid"]["n"] = str(n)
    for key, value in keys.items():
        cp["grid" if key in ("stretch", "farfield") else "run"][key] = \
            str(value)
    with open(path, "w") as fh:
        cp.write(fh)
    return str(path)


def _alpha(path, outdir):
    assert main(["alpha", path, "--outdir", str(outdir)]) == 0
    return json.loads((outdir / "alpha.json").read_text())


def _traced_fold(path):
    """The fold refined from the branch rows beside the fold on the
    file's own grid."""
    return row_fold(build_scenario_instance(load_config(path))).t


@pytest.fixture(scope="module")
def fold_16k(tmp_path_factory):
    return _traced_fold(_scenario(
        tmp_path_factory.mktemp("f16") / "scenario.ini", 16000))


def test_nested_alpha_is_the_fine_fold(fixture_data, fold_16k, tmp_path):
    """alpha at n = 16000 from two (step_ds, t_start) draws of the fold-64k
    range: the fold is found at LADDER_N, where it is that file's alpha at
    n = LADDER_N bit for bit, and refined at COARSE_N and on the fine
    grid, and both land on the fold refined from a fine trace.  (The
    single-level path with a residual-stopped refinement missed it by
    about 3e-8, by an amount that moved with the draw.)"""
    tau = abs(fixture_data["tau_star_canonical"])
    alphas = []
    for step_ds, t_start in ((1.6, -8.5 * tau), (2.4, -11.5 * tau)):
        keys = dict(step_ds=step_ds, t_start=t_start)
        path = _scenario(tmp_path / f"draw{step_ds}.ini", 16000, **keys)
        a = _alpha(path, tmp_path / f"out{step_ds}")
        ladder = _alpha(_scenario(tmp_path / f"ladder{step_ds}.ini",
                                  LADDER_N, **keys),
                        tmp_path / f"ladder{step_ds}")
        assert a["coarse_n"] == LADDER_N
        assert 1 <= a["fold_iterations"] <= 4
        assert a["alpha_coarse"] == ladder["alpha_arclength"]
        assert a["certified_delta"] == pytest.approx(
            1e-6 * (1.0 + abs(a["alpha_arclength"])), rel=1e-12)
        assert a["certificate_h"] <= 0.5
        alphas.append(a["alpha_arclength"])
    assert abs(alphas[0] - alphas[1]) <= 1e-9
    assert max(abs(a - fold_16k) for a in alphas) <= 1e-9


@pytest.mark.parametrize("keys", [{}, {"stretch": 1.0005},
                                  {"farfield": "dirichlet"}])
@pytest.mark.parametrize("n", [800, 4000])
def test_nested_alpha_is_the_single_level_fold(tmp_path, n, keys):
    """alpha's fold, climbed on the LADDER_N-node twin and refined on the
    file's grid, is within 1e-11 (1 + |alpha|) of the fold that the ladder
    climbed on that grid itself finds."""
    path = _scenario(tmp_path / "scenario.ini", n, **keys)
    alpha = _alpha(path, tmp_path / "out")["alpha_arclength"]
    single = ladder_fold(build_scenario_instance(load_config(path))).t
    assert abs(alpha - single) <= 1e-11 * (1.0 + abs(single))


def test_every_command_builds_one_chain(scenario, tmp_path, monkeypatch):
    """solve (each method), eigen, check, verify and alpha each build the
    scenario's grid and each coarser level of its chain, the next
    smaller of COARSE_N and LADDER_N each time, by build_scenario_instance
    alone."""
    built = []
    build = config.build_scenario_instance

    def recorded(cfg):
        built.append(cfg.get("grid", "n"))
        return build(cfg)

    for module in (config, cli):  # cli calls the name it imported
        monkeypatch.setattr(module, "build_scenario_instance", recorded)
    fine = _scenario(tmp_path / "fine.ini", 16000)
    sol = tmp_path / "sol"
    for path, argv, sizes in (
            (fine, ["solve", "--method", "monotone", "--t", "-50",
                    "--outdir", str(sol)], [16000, COARSE_N, LADDER_N]),
            (scenario, ["solve", "--method", "newton", "--t", "-50"],
             [800, LADDER_N]),
            (scenario, ["solve", "--method", "picard", "--t", "-50"],
             [800, LADDER_N]),
            (scenario, ["eigen"], [800, LADDER_N]),
            (scenario, ["check"], [800, LADDER_N]),
            (fine, ["verify", "--solutions", str(sol)],
             [16000, COARSE_N, LADDER_N]),
            (scenario, ["alpha"], [800, LADDER_N])):
        built.clear()
        argv.insert(1, path)
        if "--outdir" not in argv:
            argv += ["--outdir", str(tmp_path / argv[0])]
        assert main(argv) == 0
        assert built == sizes, argv


@pytest.mark.parametrize("n", [800, COARSE_N])
def test_monotone_solve_rises_on_its_own_grid(tmp_path, monkeypatch, n):
    """At n <= COARSE_N solve --method monotone rises from the subsolution
    on the scenario's own grid, not on its LADDER_N-node twin."""
    rises, rise = [], nonlinear.monotone_rise

    def recorded(inst, *args):
        rises.append(inst.grid.n)
        return rise(inst, *args)

    monkeypatch.setattr(nonlinear, "monotone_rise", recorded)
    assert main(["solve", _scenario(tmp_path / "scenario.ini", n),
                 "--method", "monotone", "--t", "-9",
                 "--outdir", str(tmp_path / "out")]) == 0
    assert rises == [n]


def _slopes(mu_lower, mu_upper, n=800):
    """The canonical scenario at n nodes with absolute slack slopes."""
    return CANONICAL_CONFIG.replace("n = 4000", f"n = {n}").replace(
        "mu_lower_factor = 0.5", f"mu_lower = {mu_lower}").replace(
        "mu_upper_factor = 2.0", f"mu_upper = {mu_upper}")


def test_scenario_valid_on_its_own_grid_runs_every_command(tmp_path):
    """Absolute slopes (5.5, 11) straddle lambda1 = 5.661 at n = 800 but
    not lambda1 = 5.377 on the LADDER_N-node level of its chain.  That
    level would only speed the scenario up, so it is left out: every
    command exits 0, and alpha climbs the fold ladder on the scenario's
    own grid."""
    path = tmp_path / "slopes.ini"
    path.write_text(_slopes(5.5, 11.0))
    assert build_scenario_instance(load_config(str(path))).twin is None
    for argv in (["eigen"], ["check"],
                 ["solve", "--method", "monotone", "--t", "-8"], ["alpha"],
                 ["two", "--t", "-7"]):
        out = tmp_path / argv[0]
        assert main([argv[0], str(path), *argv[1:],
                     "--outdir", str(out)]) == 0, argv
    alpha = json.loads((tmp_path / "alpha" / "alpha.json").read_text())
    assert alpha["coarse_n"] == 800


def test_slopes_refused_on_the_scenarios_own_grid_exit_1(tmp_path, capsys):
    """Slopes (2, 5.5) straddle lambda1 = 5.377 on the LADDER_N-node level
    but not lambda1 = 5.661 at n = 800: whatever its twin accepts, the
    scenario's own build refuses them, and every command exits 1 naming
    the scenario's grid."""
    path = tmp_path / "slopes.ini"
    path.write_text(_slopes(2.0, 5.5))
    for argv in (["eigen"], ["check"],
                 ["solve", "--method", "monotone", "--t", "-8"], ["alpha"]):
        out = tmp_path / argv[0]
        assert main([argv[0], str(path), *argv[1:],
                     "--outdir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: slack slopes (2.0, 5.5) do "
                              "not straddle lambda1 = 5.66")
        assert err.endswith("on the 800-node grid\n")
        assert json.loads((out / "manifest.json").read_text())[
            "exit_code"] == 1


def test_check_accepts_the_linear_preset(tmp_path):
    """The linear preset's equal slopes pass check, which reports
    theta = 0 and no slack supremum at the sampling boundary: its gap
    is flat, 0 at every sample."""
    path = tmp_path / "linear.ini"
    path.write_text(CANONICAL_CONFIG.replace("n = 4000", "n = 400").replace(
        "preset = smooth_ramp", "preset = linear\nslope = 1.0"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", BoundarySlackWarning)
        assert main(["check", str(path), "--outdir", str(tmp_path)]) == 0
    slack = json.loads((tmp_path / "report.json").read_text())["slack"]
    assert slack == {"theta": 0.0, "boundary_attained": False}


@pytest.mark.parametrize("n", [400, COARSE_N, 64000])
def test_exponential_weight_with_dirichlet_runs(tmp_path, n):
    """Under Dirichlet phi1 is 0 at R, on every level of the chain, and
    eigen, solve and alpha still exit 0 with an exponential weight."""
    path = tmp_path / "exp.ini"
    path.write_text(CANONICAL_CONFIG.replace("n = 4000", f"n = {n}").replace(
        "preset = rational_decay", "preset = exponential").replace(
        "farfield = robin_decay", "farfield = dirichlet"))
    for argv in (["eigen"], ["solve", "--method", "monotone", "--t", "-20"],
                 ["alpha"]):
        assert main([argv[0], str(path), *argv[1:],
                     "--outdir", str(tmp_path / argv[0])]) == 0, argv
    phi1 = np.loadtxt(tmp_path / "eigen" / "eigen.csv", delimiter=",",
                      skiprows=1)[:, 1]
    assert (phi1[:-1] > 0.0).all() and phi1[-1] == 0.0


# the smoke matrix's weights: each preset's lines, absolute slopes that
# straddle its lambda1 at 400 nodes under either far field, and a t
# below its fold (at 400 nodes, about -6.7, -2.3 and -6.2 at the lowest)
SMOKE_WEIGHTS = {
    "rational_decay": ("preset = rational_decay", (3.0, 11.0), -8.0),
    "exponential": ("preset = exponential", (0.75, 3.0), -3.0),
    "table": ("preset = table\ntable = 0:1, 1:0.125, 2:0.008, 4:2.1e-4, "
              "8:3.6e-6, 16:1.5e-8, 40:2.4e-10", (2.5, 9.0), -7.0),
}


@pytest.mark.parametrize("farfield", ["robin_decay", "dirichlet"])
@pytest.mark.parametrize("nonlinearity", ["factor", "absolute", "linear"])
@pytest.mark.parametrize("weight", list(SMOKE_WEIGHTS))
def test_smoke_matrix(tmp_path, weight, nonlinearity, farfield):
    """Each weight preset, with factor slopes, absolute slopes or the
    linear preset, under each far field, is valid on its own 400-node
    grid, and eigen, check and solve --method monotone each exit 0."""
    preset, (mu_lower, mu_upper), t = SMOKE_WEIGHTS[weight]
    text = _slopes(mu_lower, mu_upper, 400) if nonlinearity == "absolute" \
        else CANONICAL_CONFIG.replace("n = 4000", "n = 400")
    if nonlinearity == "linear":
        text = text.replace("preset = smooth_ramp",
                            "preset = linear\nslope = 1.0")
    path = tmp_path / "scenario.ini"
    path.write_text(text.replace("preset = rational_decay", preset).replace(
        "farfield = robin_decay", f"farfield = {farfield}"))
    for argv in (["eigen"], ["check"],
                 ["solve", "--method", "monotone", "--t", str(t)]):
        assert main([argv[0], str(path), *argv[1:],
                     "--outdir", str(tmp_path / argv[0])]) == 0, argv


def test_failed_fine_refinement_exits_2(tmp_path, monkeypatch, capsys):
    """The fine refinement raising ends the run with exit code 2 and its
    message: no other path finds the fold, and no alpha.json is
    written."""
    path = _scenario(tmp_path / "scenario.ini", 16000)

    def fail(*args, **kwargs):
        raise NoConvergence("fold refinement did not converge")

    monkeypatch.setattr(cli, "refine_fold", fail)
    out = tmp_path / "out"
    assert main(["alpha", path, "--outdir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "numerical failure: fold refinement did not converge\n"
    assert not (out / "alpha.json").exists()


def test_nested_alpha_on_a_stretched_grid(tmp_path):
    """The LADDER_N- and 4000-node twins of a stretched grid have other
    cell profiles (the cell ratio is stretch^(n - 1)); the fine
    refinement still lands on the fold refined from a trace on the fine
    grid."""
    path = _scenario(tmp_path / "scenario.ini", 16000, stretch=1.0001)
    a = _alpha(path, tmp_path / "out")
    assert a["coarse_n"] == LADDER_N
    assert abs(a["alpha_arclength"] - _traced_fold(path)) <= 1e-9
    assert a["certified_delta"] == pytest.approx(
        1e-6 * (1.0 + abs(a["alpha_arclength"])), rel=1e-12)
    assert a["certificate_h"] <= 0.5


def test_coarse_ladder_without_a_fold_exits_2(tmp_path, capsys, monkeypatch):
    """A linear g has no fold: the ladder climbs to tau* + 1 on the
    LADDER_N-node twin and finds none, the run exits 2 naming that grid,
    and no finer ladder is climbed."""
    text = CANONICAL_CONFIG.replace("n = 4000", "n = 8000").replace(
        "preset = smooth_ramp", "preset = linear\nslope = 2.0")
    path = tmp_path / "linear.ini"
    path.write_text(text)
    ladders = []
    ladder = cli.find_fold

    def recorded(inst, *args, **kwargs):
        ladders.append(inst.grid.n)
        return ladder(inst, *args, **kwargs)

    monkeypatch.setattr(cli, "find_fold", recorded)
    assert main(["alpha", str(path), "--outdir", str(tmp_path / "out")]) == 2
    assert f"on the {LADDER_N}-node grid" in capsys.readouterr().err
    assert ladders == [LADDER_N]


def _count_eigensolves(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return smallest_eigenvalue(*args)

    monkeypatch.setattr(continuation, "smallest_eigenvalue", counted)
    return calls


def test_branch_command_writes_stability(scenario, tmp_path, monkeypatch):
    """One eigensolve per written row; the indicator changes sign across
    the fold."""
    eigensolves = _count_eigensolves(monkeypatch)
    assert main(["branch", scenario, "--outdir", str(tmp_path)]) == 0
    with open(tmp_path / "branch.csv") as f:
        header = f.readline().strip().split(",")
    mu = np.loadtxt(tmp_path / "branch.csv", delimiter=",",
                    skiprows=1)[:, header.index("stability_mu")]
    assert len(eigensolves) == len(mu)
    assert mu[0] > 0 > mu[-1]


def test_two_command_makes_two_eigensolves(scenario, tmp_path, monkeypatch):
    """One stability indicator per written solution, none for the branch."""
    eigensolves = _count_eigensolves(monkeypatch)
    assert main(["two", scenario, "--t", "-9", "--outdir", str(tmp_path)]) == 0
    assert len(eigensolves) == 2


def test_two_command(scenario, tmp_path):
    rc = main(["two", scenario, "--t", "-9", "--outdir", str(tmp_path)])
    assert rc == 0
    meta = json.loads((tmp_path / "two.json").read_text())
    assert meta["separation_inf"] > 1e-3
    assert meta["gap"] == meta["alpha"] - meta["t"]
    assert meta["separation_over_sqrt_gap"] == \
        meta["separation_inf"] / np.sqrt(meta["gap"])
    assert meta["stability_mu_lower"] > 0 > meta["stability_mu_upper"]
    lo = np.loadtxt(tmp_path / "solution_lower.csv", delimiter=",", skiprows=1)
    hi = np.loadtxt(tmp_path / "solution_upper.csv", delimiter=",", skiprows=1)
    assert (lo[:, 1] <= hi[:, 1] + 1e-9).all()


def test_two_without_a_second_solution_exits_2(scenario, tmp_path,
                                               monkeypatch, capsys):
    """With g'' flipped the fold's kappa is negative, so there is no
    predictor for the second solution: a message and exit code 2."""
    real = cli.two_solutions
    monkeypatch.setattr(cli, "two_solutions", lambda inst, t, fold: real(
        flipped_curvature(inst), t, fold))
    assert main(["two", scenario, "--t", "-9", "--outdir", str(tmp_path)]) == 2
    assert "numerical failure: no predictor" in capsys.readouterr().err


def test_two_roots_separate_as_the_square_root_of_the_gap(tmp_path):
    """At n = 4000 the two roots of `two` at alpha - gap, gap = 1e-2 ...
    1e-6, stay apart by at least half of c sqrt(gap), c fitted at 1e-2,
    as a quadratic fold has them, the lower stable and the upper not."""
    path = _scenario(tmp_path / "scenario.ini", 4000)
    alpha = ladder_fold(build_scenario_instance(load_config(path))).t
    c = None
    for k in range(2, 7):
        gap = 10.0 ** -k
        out = tmp_path / f"gap{k}"
        assert main(["two", path, "--t", repr(alpha - gap),
                     "--outdir", str(out)]) == 0
        meta = json.loads((out / "two.json").read_text())
        sep = meta["separation_inf"]
        c = sep / np.sqrt(gap) if c is None else c
        assert sep >= 0.5 * c * np.sqrt(gap), (gap, sep)
        assert meta["stability_mu_lower"] > 0.0 > meta["stability_mu_upper"]


def test_bad_config_exit_code(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[weight]\npreset = rational_decay\n")
    assert main(["check", str(path)]) == 1
    assert main(["check", str(tmp_path / "missing.ini")]) == 1
    binary = tmp_path / "binary.ini"
    binary.write_bytes(b"\xff\xfe\x00[weight]")
    assert main(["check", str(binary)]) == 1
    good = tmp_path / "good.ini"
    good.write_text(SMALL)
    assert main(["sweep", str(good), "--configs", str(good),
                 str(tmp_path / "missing.ini"),
                 "--outdir", str(tmp_path / "sweep")]) == 1


def test_numerical_failure_exit_code(scenario, tmp_path):
    # far above the solvability threshold: Newton must fail, exit code 2
    rc = main(["solve", scenario, "--method", "newton", "--t", "10",
               "--outdir", str(tmp_path)])
    assert rc == 2


def test_newton_solve_writes_a_converged_solution(tmp_path):
    """solve --method newton far below the fold at n = 4000 writes a
    solution whose next Newton correction is within SOLVE_TOL of 1 +
    |u|_inf.  A stop on the row-scaled residual left 1.1e-6 there."""
    path = tmp_path / "scenario.ini"
    path.write_text(CANONICAL_CONFIG)
    assert main(["solve", str(path), "--method", "newton", "--t", "-300",
                 "--outdir", str(tmp_path / "out")]) == 0
    inst = build_scenario_instance(load_config(str(path)))
    u = cli._read_solution_csv(tmp_path / "out" / "solution.csv", inst.grid)
    du = solve_tridiagonal(nonlinear.jacobian(inst, u),
                           -nonlinear.residual(inst, u, -300.0))
    assert np.abs(du).max() <= nonlinear.SOLVE_TOL * (1.0 + np.abs(u).max())


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
    top = json.loads((tmp_path / "manifest.json").read_text())
    sid = subdirs[0].name
    assert top["command"] == "sweep" and top["exit_code"] == 0
    assert top["files"] == {f"{sid}/{p.name}": _sha(p)
                            for p in subdirs[0].iterdir()}


@pytest.mark.parametrize("old, new", [
    ("stretch = 1.0", "stretch = 0.5"),
    ("dimension = 3", "dimension = 2"),
    ("mu_lower_factor = 0.5", "mu_lower_factor = 1.5"),
    ("n = 800", "n = 400.9"),
    ("dimension = 3", "dimension = 3.5"),
    ("seed = 0", "seed = x"),
    ("seed = 0", "seed = 1.5"),
    ("seed = 0", "seed = -1"),
    ("seed = 0", "step_ds = abc"),
    ("seed = 0", "step_ds = -2"),
    ("seed = 0", "step_ds = 0"),
    ("seed = 0", "step_ds = nan"),
    ("seed = 0", "step_ds = inf"),
    ("seed = 0", "t_start = x"),
    ("seed = 0", "t_start = nan"),
    ("seed = 0", "t_start = -inf"),
    ("seed = 0", "max_points = abc"),
    ("seed = 0", "max_points = 1.5"),
    ("seed = 0", "max_points = 0"),
    ("seed = 0", "seed = 5%"),
    ("r = 40.0", "r = nan"),
    ("r = 40.0", "r = inf"),
    ("stretch = 1.0", "stretch = nan"),
    ("power = 3.0", "power = nan"),
    ("offset = 1.0", "offset = nan"),
    ("t = 0.0", "t = nan"),
    ("stretch = 1.0", "strech = 1.05"),
    ("offset = 1.0", "ofset = 5.0"),
    ("power = 3.0", "power = 3.0\nscale = x"),
    ("offset = 1.0", "offset = 1.0\nslope = x"),
    ("offset = 1.0", "offset = 1.0\nmu_upper = 8.0"),
    ("dimension = 3", "dimension = 200"),
    ("power = 3.0", "power = 1e6"),
    ("power = 3.0", "power = -1"),
    ("preset = rational_decay", "preset = table\ntable = 40:0.1, 10:0.5, 0:1"),
])
def test_config_mistakes_exit_1(tmp_path, old, new):
    # check builds what eigen builds, then tests the hypotheses on P:
    # power = 1e6 underflows P to 0 at the nodes, power = -1 makes it grow
    path = tmp_path / "bad.ini"
    path.write_text(SMALL.replace(old, new))
    assert main(["check", str(path), "--outdir", str(tmp_path / "out")]) == 1


@pytest.mark.parametrize("key", ["eigen_tol", "newton_tol"])
def test_removed_run_tolerances_are_refused(tmp_path, capsys, key):
    """[run] has no tolerance keys: the eigenpair and the solvers stop at
    their own tolerances, and a file that names one is refused."""
    assert key not in KEYS["run"]
    path = tmp_path / "bad.ini"
    path.write_text(SMALL.replace("seed = 0", f"seed = 0\n{key} = 1e-12"))
    assert main(["eigen", str(path), "--outdir", str(tmp_path / "out")]) == 1
    assert f"unknown key '{key}' in section [run]" in capsys.readouterr().err


@pytest.mark.parametrize("n", [4000, 16000])
def test_eigen_json_holds_its_formulas_on_the_written_phi1(tmp_path, n):
    """eigen.json's normalization residual and decay window are the
    formulas on the phi1 that eigen.csv holds, bit for bit: %.18e reads
    back exactly."""
    path = _scenario(tmp_path / "scenario.ini", n)
    assert main(["eigen", path, "--outdir", str(tmp_path / "out")]) == 0
    meta = json.loads((tmp_path / "out" / "eigen.json").read_text())
    inst = build_scenario_instance(load_config(path))
    phi = cli._read_solution_csv(tmp_path / "out" / "eigen.csv", inst.grid)
    assert np.array_equal(phi, inst.eigen.phi1)
    mass = weighted_integral(inst.grid, inst.weight_values * phi ** 2)
    window = decay_constants(inst.grid, phi)
    assert meta == {"lambda1": inst.eigen.lambda1, "C1": window.C1,
                    "C2": window.C2, "normalization_residual": abs(mass - 1.0),
                    "plateau_ok": window.plateau_ok}


def test_unusable_stretched_grid_exits_1(tmp_path, capsys, monkeypatch):
    """At stretch 1.0003 and n = 64000 the first cell's volume is 7e-33
    and the operator's row sums span more than 1e14: every command exits
    1 naming the grid, before the twin is built or an eigenpair solved."""
    path = _scenario(tmp_path / "scenario.ini", 64000, stretch=1.0003)
    monkeypatch.setattr(config, "first_eigenpair", None)
    assert main(["alpha", path, "--outdir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: grid N = 3, R = 40.0, n = 64000, stretch = 1.0003 "
        "is not usable")


def test_unnormalizable_eigenfunction_exits_2(tmp_path, capsys):
    """At dimension 400, r = 1.5 and n = 5 the eigenfunction's P-weighted
    integral underflows to 0: eigen exits 2 with a message, writes no
    eigen.csv and raises no RuntimeWarning."""
    path = tmp_path / "d400.ini"
    path.write_text(SMALL.replace("dimension = 3", "dimension = 400")
                    .replace("r = 40.0", "r = 1.5").replace("n = 800", "n = 5"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["eigen", str(path), "--outdir", str(tmp_path / "out")])
    assert rc == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the eigenfunction's "
                          "P-weighted integral is 0")
    assert not (tmp_path / "out" / "eigen.csv").exists()


def test_uncreatable_outdir_exits_1(scenario, tmp_path, capsys):
    afile = tmp_path / "afile"
    afile.write_text("")
    outdir = afile / "sub"
    assert main(["eigen", scenario, "--outdir", str(outdir)]) == 1
    assert str(outdir) in capsys.readouterr().err


@pytest.mark.parametrize("argv,blocked", [(["check"], "report.json"),
                                           (["eigen"], "manifest.json")])
def test_blocked_output_file_exits_1(scenario, tmp_path, capsys, argv,
                                     blocked):
    """An output name taken by a directory is a config error naming the
    file, not an IsADirectoryError traceback."""
    (tmp_path / blocked).mkdir()
    assert main([argv[0], scenario, "--outdir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write ")
    assert str(tmp_path / blocked) in err


def test_verify_header_only_solution_prints_one_message(scenario, tmp_path,
                                                        capsys):
    soldir = tmp_path / "sol"
    soldir.mkdir()
    (soldir / "report.json").write_text('{"t": -50.0}')
    (soldir / "solution.csv").write_text("r,u,r_pow_u\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["verify", scenario, "--solutions", str(soldir),
                   "--outdir", str(tmp_path / "out")])
    assert rc == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert str(soldir / "solution.csv") in err


HEAP_PROBE = """
import resource
from semifold.cli import keep_heap_pages
from semifold.config import canonical_instance
from semifold.nonlinear import residual
keep_heap_pages()
inst = canonical_instance(n=64000)
u = -inst.eigen.phi1
residual(inst, u, -20.0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    residual(inst, u, -20.0)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_heap_pad_keeps_64k_temporaries_resident():
    """Once keep_heap_pages has run, freed 512 KiB temporaries at
    n = 64000 stay in the heap: 20 residual evaluations fault fewer than
    200 pages in (several thousand without the pad).  Measured in a
    fresh interpreter, as a CLI run starts: how much freed heap a
    long-lived process such as this one keeps depends on its history."""
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        pytest.skip("libc has no mallopt")
    src = str(Path(semifold.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", HEAP_PROBE], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=300)
    assert int(out.stdout) < 200


@pytest.mark.parametrize("argv", [
    ["solve", "--t", "nan"],
    ["two", "--t", "nan"],
    ["solve", "--t=inf", "--method", "monotone"],
])
def test_nonfinite_t_exits_1(scenario, tmp_path, capsys, argv):
    rc = main([argv[0], scenario, "--outdir", str(tmp_path), *argv[1:]])
    assert rc == 1
    assert "--t" in capsys.readouterr().err


TINY = CANONICAL_CONFIG.replace("n = 4000", "n = 50")
VALUES = st.one_of(st.text(), st.sampled_from(["nan", "inf", "-inf"]),
                   st.floats(-1e6, 1e6).map(repr),
                   st.integers(-10 ** 6, 10 ** 6).map(str))
# [grid] n stays small, so that no example builds a large grid
GRID_N = st.one_of(st.text(st.characters(blacklist_categories=("Nd", "Cs"))),
                   st.sampled_from(["nan", "inf", "-inf"]),
                   st.integers(max_value=200).map(str))


@given(data=st.data())
def test_config_values_never_escape(data):
    """Any value of any key ends in an exit code, never in a traceback,
    and a non-finite number is a configuration error wherever it goes."""
    section = data.draw(st.sampled_from(sorted(KEYS)))
    key = data.draw(st.sampled_from(sorted(KEYS[section])))
    value = data.draw(GRID_N if (section, key) == ("grid", "n") else VALUES)
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(TINY)
    cp[section][key] = value
    commands = [["check"]]
    if section == "run":
        commands += [["branch"], ["solve", "--t", "-50"]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        with open(path, "w") as fh:
            cp.write(fh)
        for argv in commands:
            rc = main(argv[:1] + [str(path), "--outdir", tmp] + argv[1:])
            assert rc in (0, 1, 2, 3)
            if value in ("nan", "inf", "-inf") and key != "outdir":
                assert rc == 1


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


@pytest.mark.parametrize("entry", ["nan", "-inf", "1e400"])
def test_nonfinite_solution_csv_is_a_config_error(coarse_solution, tmp_path,
                                                  capsys, entry):
    """`solve --start` and `verify` refuse a solution CSV holding a
    non-finite u (`1e400` reads as inf) with exit 1, naming the file and
    the row, before any arithmetic on it can warn."""
    config = str(coarse_solution.parent / "coarse.ini")
    sol = tmp_path / "sol"
    sol.mkdir()
    (sol / "report.json").write_bytes(
        (coarse_solution / "report.json").read_bytes())
    lines = (coarse_solution / "solution.csv").read_text().splitlines(True)
    r, _, r_pow_u = lines[7].split(",")
    lines[7] = ",".join([r, entry, r_pow_u])
    csv = sol / "solution.csv"
    csv.write_text("".join(lines))
    for argv in (["solve", config, "--t", "-50", "--start", str(csv)],
                 ["verify", config, "--solutions", str(sol)]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(argv + ["--outdir", str(tmp_path / argv[0])])
        assert rc == 1
        assert f"{csv}: data row 7 holds a non-finite number" in \
            capsys.readouterr().err
