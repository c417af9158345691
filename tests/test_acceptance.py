"""Acceptance gate: one test per criterion, each printing a single
PASS/FAIL line.  Tolerances are pinned here and nowhere else.

All criteria run on the canonical instance (N = 3, P = (1+r^2)^-3,
softplus-ramp nonlinearity with slopes 0.5/2.0 times lambda1, Theta = 1,
f1 = 0, R = 40, n = 4000, decay-matched Robin far field) against the
pre-built oracle fixture tests/fixtures/canonical.json.
"""

import time

import numpy as np
import pytest

import semifold as sf
from semifold.continuation import bisect_alpha, detect_fold
from semifold.eigen import decay_constants
from semifold.errors import NoConvergence
from semifold.nonlinear import (newton_solve, picard_solve, residual,
                                second_solution)
from semifold.subsuper import (OrderedInterval, build_subsolution,
                               check_order_interval, monotone_iterate)
from semifold.verify import (check_comparison, dirichlet_energy,
                             representation_residual, riesz_potential,
                             tau_star, weighted_source_functional)
from branching import make_branch

T0 = time.perf_counter()


def _report(num, ok, desc):
    line = f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {desc}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def fine():
    return sf.canonical_instance(R=40.0, n=8000)


@pytest.fixture(scope="module")
def fine_branch(fine):
    return make_branch(fine)


def test_acceptance_1_eigenpair(canonical, fixture_data):
    tic = time.perf_counter()
    lam = fixture_data["lambda_star"]
    gap = abs(canonical.eigen.lambda1 - lam["value"])
    grid = sf.build_grid(3, np.pi, 2000)
    A = sf.assemble_laplacian(grid, "dirichlet")
    ball = sf.first_eigenpair(grid, A, np.ones(grid.n)).lambda1
    elapsed = time.perf_counter() - tic
    ok = gap <= lam["error_bar"] and abs(ball - 1.0) <= 1e-4 and elapsed < 5.0
    _report(1, ok, f"eigenpair: |lambda1 - Lambda*| = {gap:.2e} <= "
            f"{lam['error_bar']:.2e}, ball oracle off by {abs(ball-1):.2e} "
            f"<= 1e-4 ({elapsed:.2f}s < 5s)")


def test_acceptance_2_eigenfunction_decay(canonical):
    tic = time.perf_counter()
    dec = decay_constants(canonical.grid, canonical.eigen.phi1)
    elapsed = time.perf_counter() - tic
    ok = dec.ratio <= 1.05 and elapsed < 1.0
    _report(2, ok, f"decay plateau: max/min of r^(N-2) phi1 on [R/2, R] "
            f"= {dec.ratio:.6f} <= 1.05 ({elapsed:.2f}s < 1s)")


def test_acceptance_3_comparison_principle(canonical):
    tic = time.perf_counter()
    lam1 = canonical.eigen.lambda1
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        rhs = rng.random(canonical.grid.n)
        rep = check_comparison(canonical.A, canonical.weight_values,
                               0.9 * lam1, rhs, lam1)
        worst = min(worst, rep["min_u"])
        if not rep["pass"]:
            break
    elapsed = time.perf_counter() - tic
    ok = rep["pass"] and elapsed < 2.0
    _report(3, ok, f"comparison principle: 100 random sources at 0.9*lambda1, "
            f"worst min(u) = {worst:.2e} >= -1e-12*scale ({elapsed:.2f}s < 2s)")


def test_acceptance_4_monotone_method(canonical, fixture_data):
    tic = time.perf_counter()
    alpha = fixture_data["alpha_star"]["value"]
    t = alpha - 1.0
    rs = canonical.A.row_scale()
    w = build_subsolution(canonical, t)
    # supersolution: the minimal solution at a strictly larger forcing
    # coefficient (the plateau construction only covers much smaller t)
    from semifold.cli import _solve_monotone
    v = _solve_monotone(canonical, alpha - 0.5)[0].u
    F_w = residual(canonical, w, t)
    F_v = residual(canonical, v, t)
    defect_ok = F_w.max() <= 1e-8 * rs and F_v.min() >= -1e-8 * rs
    interval = OrderedInterval(lower=w, upper=v)
    # monotone_iterate asserts pointwise monotonicity at every step and
    # raises MonotonicityBroken on any violation
    prof = monotone_iterate(canonical, t, interval)
    inside = ((prof.u >= w - 1e-8 * (1 + np.abs(w).max())).all()
              and (prof.u <= v + 1e-8 * (1 + np.abs(v).max())).all())
    elapsed = time.perf_counter() - tic
    ok = (defect_ok and prof.residual_inf <= 1e-8 * rs and inside
          and elapsed < 5.0)
    _report(4, ok, f"monotone method at t = alpha*-1: stepwise monotone, "
            f"residual {prof.residual_inf:.2e} <= 1e-8*rowscale, limit in "
            f"[w, v], defects signed to 1e-8*rowscale ({elapsed:.2f}s < 5s)")


def test_acceptance_5_fold_location(canonical, canonical_branch,
                                    canonical_fold, fine, fine_branch,
                                    fixture_data):
    tic = time.perf_counter()
    alpha_star = fixture_data["alpha_star"]["value"]
    tol = 1e-3 * (1.0 + abs(alpha_star))
    a_arc = canonical_fold.alpha
    p0 = canonical_branch.points[0]
    a_bis = bisect_alpha(canonical, p0.t, p0.u,
                         dt_init=0.25 * (a_arc - p0.t),
                         dt_min=1e-6 * (1.0 + abs(a_arc))).alpha
    ts = tau_star(canonical)
    # second-order refinement stability across n = 2000, 4000, 8000
    mid = sf.canonical_instance(R=40.0, n=2000)
    a_2000 = detect_fold(make_branch(mid), mid).alpha
    a_8000 = detect_fold(fine_branch, fine).alpha
    ratio = (a_2000 - a_arc) / (a_arc - a_8000)
    elapsed = time.perf_counter() - tic
    ok = (abs(a_arc - a_bis) <= tol and a_arc <= ts and a_bis <= ts
          and 3.5 <= ratio <= 4.5
          and abs(a_arc - alpha_star) <= fixture_data["alpha_star"]["error_bar"]
          and elapsed < 60.0)
    _report(5, ok, f"fold: |arclength - bisection| = {abs(a_arc-a_bis):.2e} "
            f"<= {tol:.2e}, both <= tau* = {ts:.4f}, refinement ratio "
            f"{ratio:.3f} in [3.5, 4.5] ({elapsed:.2f}s < 60s)")


def test_acceptance_6_multiplicity(canonical, canonical_branch,
                                   canonical_fold):
    from semifold.cli import _solve_monotone
    from semifold.continuation import two_solutions

    tic = time.perf_counter()
    alpha = canonical_fold.alpha
    t = alpha - 0.5 * (1.0 + abs(alpha))
    u1, u2 = two_solutions(canonical, t, canonical_branch, canonical_fold)
    sep = np.abs(u1.u - u2.u).max()
    sep_ok = sep >= 1e-3 * (1.0 + np.abs(u1.u).max())
    w = build_subsolution(canonical, t)
    v = _solve_monotone(canonical, alpha - 0.4 * (1.0 + abs(alpha)))[0].u
    interval = OrderedInterval(lower=w, upper=v)
    m1 = check_order_interval(u1.u, interval, canonical.grid)
    m2 = check_order_interval(u2.u, interval, canonical.grid)
    sec = second_solution(canonical, u1, t)
    defl_gap = np.abs(sec.u - u2.u).max() / (1.0 + np.abs(u2.u).max())
    elapsed = time.perf_counter() - tic
    ok = (sep_ok and m1["member"] and not m2["member"] and defl_gap <= 1e-6
          and u1.stability_mu > 0 > u2.stability_mu and elapsed < 20.0)
    _report(6, ok, f"multiplicity at t = {t:.3f}: separation {sep:.3f}, "
            f"u1 in order set / u2 outside, deflated Newton matches u2 to "
            f"{defl_gap:.2e} <= 1e-6, stability {u1.stability_mu:.2e} > 0 > "
            f"{u2.stability_mu:.2e} ({elapsed:.2f}s < 20s)")


def test_acceptance_7_nonexistence(canonical, fixture_data):
    tic = time.perf_counter()
    t_bad = tau_star(canonical) + 1.0
    rng = np.random.default_rng(0)
    failures = 0
    for _ in range(20):
        try:
            newton_solve(canonical, rng.standard_normal(canonical.grid.n),
                         t_bad, maxit=50)
        except NoConvergence:
            failures += 1
    for _ in range(5):
        try:
            picard_solve(canonical, rng.standard_normal(canonical.grid.n),
                         t_bad, maxit=500)
        except NoConvergence:
            failures += 1
    stored_ok = all(meta["t"] <= fixture_data["tau_star_canonical"]
                    for meta in fixture_data["solutions"])
    elapsed = time.perf_counter() - tic
    ok = failures == 25 and stored_ok and elapsed < 20.0
    _report(7, ok, f"nonexistence at t = tau*+1 (falsifiable-only): "
            f"{failures}/25 solver runs failed to converge, no stored "
            f"fixture solution above tau* ({elapsed:.2f}s < 20s)")


def test_acceptance_8_a_priori_estimates(canonical, canonical_branch, fine,
                                         fine_branch):
    tic = time.perf_counter()

    def sweep(inst, branch):
        worst = 0.0
        src_max = 0.0
        grad_max = 0.0
        for p in branch.points:
            w = build_subsolution(inst, p.t)
            neg = p.u < 0
            if neg.any():
                worst = max(worst, float((w[neg] - p.u[neg]).max()))
            src_max = max(src_max, weighted_source_functional(
                p.u, inst.eigen, inst))
            grad_max = max(grad_max, dirichlet_energy(
                inst.grid, np.maximum(p.u, 0.0)))
        return worst, src_max, grad_max

    worst, src_max, grad_max = sweep(canonical, canonical_branch)
    worst_f, src_f, grad_f = sweep(fine, fine_branch)
    finite = np.isfinite([src_max, grad_max, src_f, grad_f]).all()
    src_drift = abs(src_f - src_max) / max(src_max, 1e-300)
    grad_drift = abs(grad_f - grad_max) / max(grad_max, 1e-300)
    elapsed = time.perf_counter() - tic
    ok = (worst <= 1e-8 and worst_f <= 1e-8 and finite
          and src_drift < 0.5 and grad_drift < 0.5 and elapsed < 30.0)
    _report(8, ok, f"a priori: u >= w on (u<0) within {max(worst, worst_f):.2e}"
            f" <= 1e-8 at every branch point; running maxima drift "
            f"{src_drift:.1%} / {grad_drift:.1%} < 50% under refinement "
            f"({elapsed:.2f}s < 30s)")


def test_acceptance_9_representation(canonical, fixture_solutions):
    tic = time.perf_counter()
    gaps = [representation_residual(canonical, t, u)
            for t, u in fixture_solutions]
    grid = canonical.grid
    pot = riesz_potential(grid, canonical.weight_values)
    origin = abs(pot[0] - 0.25) / 0.25
    tail = abs(grid.nodes[-1] * pot[-1] - np.pi / 16.0) / (np.pi / 16.0)
    elapsed = time.perf_counter() - tic
    ok = (len(gaps) == 3 and max(gaps) <= 1e-3
          and origin <= 1e-3 and tail <= 1e-3 and elapsed < 5.0)
    _report(9, ok, f"representation: E0-relative gaps "
            f"{', '.join(f'{g:.2e}' for g in gaps)} <= 1e-3; closed forms "
            f"u(0)=1/4 off {origin:.2e}, r*u->pi/16 off {tail:.2e} "
            f"({elapsed:.2f}s < 5s)")


def test_acceptance_10_reproducibility(tmp_path):
    import hashlib

    from semifold.cli import main
    from semifold.config import CANONICAL_CONFIG

    tic = time.perf_counter()
    cfg = tmp_path / "s.ini"
    cfg.write_text(CANONICAL_CONFIG.replace("n = 4000", "n = 600"))
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["alpha", str(cfg), "--outdir", str(out)]) == 0
        digests.append(tuple(
            hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("alpha.json", "branch.csv")))
    identical = digests[0] == digests[1]
    suite_elapsed = time.perf_counter() - T0
    elapsed = time.perf_counter() - tic
    ok = identical and suite_elapsed < 150.0
    _report(10, ok, f"reproducibility: repeated runs bit-identical "
            f"({elapsed:.2f}s); acceptance module wall clock "
            f"{suite_elapsed:.1f}s < 150s (full-suite budget 180s)")
