#!/usr/bin/env python3
"""Generate the oracle fixture file used by the test suite.

Every derived number in tests/fixtures/canonical.json comes from a route
independent of the library's production path:

* lambda_star: dense symmetric generalized eigensolve (LAPACK, full
  matrices, no inverse iteration) at n in {500, 1000, 2000}, followed by
  Richardson extrapolation in h^2.  The error bar is the coarse/fine
  eigenvalue gap, a generous bound on the remaining truncation error.
* alpha_star: the fold coefficient at n = 4000 and n = 8000 with
  Richardson extrapolation; the error bar is twice the n-refinement gap
  plus the measured domain-truncation shift R = 40 -> 60.  The fold
  comes from continuation.find_fold.  The stored values were refined
  from the turn of a traced branch by a residual-stopped Newton, and lie
  3e-8 (n = 4000) and 5e-8 (n = 8000) above find_fold's.
* Three reference solutions on the canonical grid, stored as CSV, each
  the minimal solution by monotone Newton from the subsolution, with a
  passing Newton-Kantorovich certificate (the stored CSVs were made by
  the ordered-interval iteration; tests/test_subsuper.py checks that
  monotone Newton reproduces them).

Run from the repository root:  python3 scripts/make_fixtures.py
"""

import json
import time
from pathlib import Path

import numpy as np
import scipy.linalg

import semifold as sf
from semifold.continuation import find_fold, first_rung
from semifold.nonlinear import monotone_newton
from semifold.problem import rational_decay_weight
from semifold.verify import tau_star

FIXDIR = Path(__file__).resolve().parents[1] / "tests" / "fixtures"


def dense_lambda1(R: float, n: int) -> float:
    """Smallest eigenvalue of A u = lambda P u by a dense spectral solve.

    The pencil (S, B) in the cell-volume inner product has cond(B) ~ 1e12
    because the weight decays like r^-6, so LAPACK's generalized path
    (Cholesky of B) loses ~1e-4 absolute accuracy.  Inverting the pencil
    instead: the largest eigenvalue of M = B^(1/2) S^(-1) B^(1/2) is
    1/lambda1 and is computed at full relative accuracy since it sits at
    the top of M's spectrum."""
    grid = sf.build_grid(3, R, n)
    A = sf.assemble_laplacian(grid, "robin_decay")
    P = rational_decay_weight(3.0)(grid.nodes)
    vol = grid.volumes
    S = np.diag(vol * A.diag)
    idx = np.arange(n - 1)
    S[idx, idx + 1] = vol[:-1] * A.sup
    S[idx + 1, idx] = vol[1:] * A.sub
    S = 0.5 * (S + S.T)  # symmetric up to rounding by construction
    b_half = np.sqrt(vol * P)
    M = b_half[:, None] * scipy.linalg.solve(S, np.diag(b_half),
                                             assume_a="pos")
    M = 0.5 * (M + M.T)
    mu_max = scipy.linalg.eigh(M, subset_by_index=[n - 1, n - 1],
                               eigvals_only=True)[0]
    return 1.0 / float(mu_max)


def fold_alpha(R: float, n: int) -> float:
    inst = sf.canonical_instance(R=R, n=n)
    return find_fold(inst, *first_rung(inst)).t


def main() -> None:
    FIXDIR.mkdir(parents=True, exist_ok=True)
    t0 = time.time()

    lams = {n: dense_lambda1(40.0, n) for n in (500, 1000, 2000)}
    lambda_star = lams[2000] + (lams[2000] - lams[1000]) / 3.0
    lambda_bar = abs(lams[2000] - lams[1000])
    print("lambda_star = %.12f +- %.2e  (%.1fs)"
          % (lambda_star, lambda_bar, time.time() - t0))

    alphas = {n: fold_alpha(40.0, n) for n in (4000, 8000)}
    alpha_shift_R = abs(fold_alpha(60.0, 6000) - alphas[4000])
    alpha_star = alphas[8000] + (alphas[8000] - alphas[4000]) / 3.0
    alpha_bar = 2.0 * abs(alphas[8000] - alphas[4000]) + alpha_shift_R
    print("alpha_star  = %.12f +- %.2e" % (alpha_star, alpha_bar))

    inst = sf.canonical_instance(R=40.0, n=4000)
    ts = tau_star(inst)
    solutions = []
    for label, t in (("deep", -300.0), ("mid", -50.0),
                     ("near_fold", alpha_star - 1.0)):
        prof = monotone_newton(inst, t)[0]
        name = f"solution_{label}.csv"
        np.savetxt(FIXDIR / name,
                   np.column_stack([inst.grid.nodes, prof.u]),
                   delimiter=",", header="r,u", comments="")
        solutions.append({"file": name, "t": t,
                          "residual_inf": prof.residual_inf})
        print(f"stored {name}: t = {t}, residual = {prof.residual_inf:.2e}")

    fixture = {
        "grid": {"dimension": 3, "R": 40.0, "n": 4000,
                 "farfield": "robin_decay"},
        "lambda_star": {"value": lambda_star, "error_bar": lambda_bar,
                        "method": "dense spectral solve of the inverted "
                                  "pencil, Richardson over n in "
                                  "{500, 1000, 2000}",
                        "raw": {str(k): v for k, v in lams.items()}},
        "alpha_star": {"value": alpha_star, "error_bar": alpha_bar,
                       "method": "fold by find_fold at n in "
                                 "{4000, 8000}, Richardson, plus R = 40 -> "
                                 "60 shift",
                       "raw": {str(k): v for k, v in alphas.items()}},
        "lambda1_canonical": inst.eigen.lambda1,
        "tau_star_canonical": ts,
        "solutions": solutions,
    }
    (FIXDIR / "canonical.json").write_text(
        json.dumps(fixture, indent=2, sort_keys=True) + "\n")
    print("wrote", FIXDIR / "canonical.json", " total %.1fs" % (time.time() - t0))


if __name__ == "__main__":
    main()
