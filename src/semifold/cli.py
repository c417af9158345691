"""Command-line orchestration: check, eigen, solve, branch, alpha, two,
verify, sweep.  CSV for array data, JSON for scalar reports, plus a
manifest with content checksums per run.

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .config import ScenarioConfig, build_scenario_instance, load_config
from .continuation import bisect_alpha, detect_fold, trace_branch, two_solutions
from .errors import ConfigError, NoFoldInBranch, SemifoldError
from .nonlinear import newton_solve, picard_solve, residual
from .problem import (check_P1, check_P2, check_sigma_growth,
                      derive_slack_constants)
from .subsuper import (OrderedInterval, build_subsolution, build_supersolution,
                       make_profile, monotone_iterate)
from .verify import check_comparison, e0_norm, tau_star, verify_solution

OUTDIR_ENV = "SEMIFOLD_OUTDIR"


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _write_solution_csv(path: Path, grid, u) -> None:
    scaled = grid.nodes ** (grid.N - 2) * u
    np.savetxt(path, np.column_stack([grid.nodes, u, scaled]), delimiter=",",
               header="r,u,r_pow_u", comments="")


def _read_solution_csv(path, grid) -> np.ndarray:
    """The u column of a solution CSV whose r column is this grid's nodes."""
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{path}: not a readable solution CSV ({exc})") from exc
    if data.shape[0] != grid.n or data.shape[1] < 2 or not np.allclose(
            data[:, 0], grid.nodes, rtol=1e-12, atol=1e-12 * grid.R):
        raise ConfigError(f"{path}: r column does not match the grid "
                          f"({data.shape[0]} rows, grid has n = {grid.n})")
    return data[:, 1]


class _Run:
    """Tracks emitted files and per-stage wall clock for the manifest."""

    def __init__(self, cfg: ScenarioConfig, outdir: Path):
        self.cfg = cfg
        self.outdir = outdir
        self.files = []
        self.stages = {}
        outdir.mkdir(parents=True, exist_ok=True)

    def emit(self, name: str, writer) -> Path:
        path = self.outdir / name
        writer(path)
        self.files.append(name)
        return path

    @contextlib.contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = time.perf_counter() - t0

    def finish(self, command: str) -> None:
        manifest = {
            "scenario_id": self.cfg.scenario_id(),
            "command": command,
            "version": __version__,
            "config_hash": self.cfg.content_hash(),
            "seed": self.cfg.seed,
            "files": {name: _sha256(self.outdir / name) for name in self.files},
            "wall_clock_s": self.stages,
        }
        _write_json(self.outdir / "manifest.json", manifest)


def _resolve_outdir(cfg: ScenarioConfig, args) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    if OUTDIR_ENV in os.environ:
        return Path(os.environ[OUTDIR_ENV])
    return Path(cfg.outdir)


def _instance(cfg, run):
    with run.stage("build_instance"):
        return build_scenario_instance(cfg)


def cmd_check(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    grid = inst.grid
    with run.stage("check"):
        p1 = check_P1(inst.weight, grid)
        p2 = check_P2(inst.weight, grid, [0.25 * grid.R, 0.5 * grid.R, grid.R])
        nl = inst.nonlinearity
        slack = derive_slack_constants(nl.g, nl.g_prime, nl.mu_lower, nl.mu_upper)
        sigma = check_sigma_growth(nl, grid.N)
        rng = np.random.default_rng(cfg.seed)
        lam = inst.eigen.lambda1
        oks = []
        for _ in range(20):
            rhs = rng.random(grid.n)
            oks.append(check_comparison(inst.A, inst.weight_values,
                                        0.9 * lam, rhs, lam)["pass"])
        comparison = all(oks)
        report = {
            "P1": {k: v for k, v in p1.items()},
            "P2": {"constant_estimate": p2["constant_estimate"],
                   "nonincreasing_tail": p2["nonincreasing_tail"]},
            "slack": slack,
            "sigma": sigma,
            "lambda1": lam,
            "comparison_principle": comparison,
        }
    run.emit("report.json", lambda p: _write_json(p, report))
    run.finish("check")
    return 0


def cmd_eigen(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    eig = inst.eigen
    grid = inst.grid
    run.emit("eigen.csv", lambda p: _write_solution_csv(p, grid, eig.phi1))
    run.emit("eigen.json", lambda p: _write_json(p, {
        "lambda1": eig.lambda1, "C1": eig.decay_C1, "C2": eig.decay_C2,
        "normalization_residual": eig.normalization_residual,
        "plateau_ok": eig.plateau_ok,
    }))
    run.finish("eigen")
    return 0


def _solve_monotone(inst, t, L=None):
    w = build_subsolution(inst, t)
    if L is None:
        # keep the plateau as low as ordering allows: raising it only
        # drags the supersolution threshold further down
        L = max(1.0, 2.0 * float(w.max()))
    grid = inst.grid
    v, t_thr = build_supersolution(inst, L, 0.125 * grid.R, 0.25 * grid.R)
    if t <= t_thr:
        interval = OrderedInterval(lower=w, upper=v)
        return monotone_iterate(inst, t, interval), interval
    # plateau threshold exceeded: reach t by the half-line climb, then use
    # the climbed solution (a supersolution for every smaller coefficient)
    interval0 = OrderedInterval(lower=build_subsolution(inst, t_thr), upper=v)
    prof = monotone_iterate(inst, t_thr, interval0)
    fold = bisect_alpha(inst, t_thr, prof.u, dt_init=max(abs(t - t_thr), 1.0),
                        dt_min=1e-8, t_cap=t)
    if not fold.hit_cap:
        raise SemifoldError(
            f"no solution reachable at t = {t}; branch folds near {fold.alpha}")
    # polish the climbed solution hard: it bounds the minimal solution
    # from above only to within its own residual
    upper = fold.u_fold.u
    try:
        upper = newton_solve(inst, upper, t, tol=1e-13).u
    except SemifoldError:
        pass
    interval = OrderedInterval(lower=w, upper=upper)
    return monotone_iterate(inst, t, interval), interval


def cmd_solve(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    t = args.t if args.t is not None else inst.forcing.t
    grid = inst.grid
    with run.stage("solve"):
        interval = None
        if args.method == "monotone":
            prof, interval = _solve_monotone(inst, t)
        else:
            if args.start:
                u0 = _read_solution_csv(args.start, grid)
            else:
                u0 = np.zeros(grid.n)
            tol = float(cfg.run.get("newton_tol", 1e-10))
            solver = newton_solve if args.method == "newton" else picard_solve
            prof = solver(inst, u0, t, tol=tol)
    run.emit("solution.csv", lambda p: _write_solution_csv(p, grid, prof.u))
    report = {"converged": True, "t": t, "iterations": prof.iterations,
              "residual_inf": prof.residual_inf, "e0_norm": prof.e0_norm,
              "decay_coeff": prof.decay_coeff, "method": args.method}
    if interval is not None:
        report["interval_margin"] = interval.ordering_margin
    run.emit("report.json", lambda p: _write_json(p, report))
    run.finish("solve")
    return 0


def _traced_branch(cfg, inst, run):
    ts = tau_star(inst)
    t_start = float(cfg.run.get("t_start", -10.0 * abs(ts)))
    with run.stage("branch_start"):
        w = build_subsolution(inst, t_start)
        start = newton_solve(inst, w, t_start)
    with run.stage("trace"):
        branch = trace_branch(inst, t_start, start.u,
                              step_ds=float(cfg.run.get("step_ds", 2.0)),
                              t_window=(t_start - 1.0, ts + 1.0),
                              max_points=int(cfg.run.get("max_points", 600)))
    return branch


def _branch_rows(inst, branch):
    rows = []
    for i, p in enumerate(branch.points):
        rows.append([i, p.t, p.u_at_0, e0_norm(inst.grid, p.u),
                     p.residual_inf, p.stability_mu, p.arclength])
    return np.array(rows)


def emit_bifurcation(inst, branch, path: Path) -> None:
    if not branch.points:
        raise SemifoldError("cannot emit an empty branch")
    np.savetxt(path, _branch_rows(inst, branch), delimiter=",",
               header="index,t,u_at_0,e0_norm,residual_inf,stability_mu,arclength",
               comments="")


def cmd_branch(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    branch = _traced_branch(cfg, inst, run)
    run.emit("branch.csv", lambda p: emit_bifurcation(inst, branch, p))
    run.finish("branch")
    return 0


def cmd_alpha(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    branch = _traced_branch(cfg, inst, run)
    ts = tau_star(inst)
    with run.stage("alpha"):
        fold = detect_fold(branch, inst)
        p0 = branch.points[0]
        bis = bisect_alpha(inst, p0.t, p0.u,
                           dt_init=0.25 * (fold.alpha - p0.t),
                           dt_min=1e-6 * (1.0 + abs(fold.alpha)))
        gap = abs(fold.alpha - bis.alpha)
    run.emit("branch.csv", lambda p: emit_bifurcation(inst, branch, p))
    run.emit("alpha.json", lambda p: _write_json(p, {
        "alpha_arclength": fold.alpha, "alpha_bisection": bis.alpha,
        "agreement_gap": gap, "tau_star": ts,
    }))
    run.finish("alpha")
    return 0


def cmd_two(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    branch = _traced_branch(cfg, inst, run)
    with run.stage("two"):
        fold = detect_fold(branch, inst)
        lower, upper = two_solutions(inst, args.t, branch, fold)
    grid = inst.grid
    run.emit("solution_lower.csv", lambda p: _write_solution_csv(p, grid, lower.u))
    run.emit("solution_upper.csv", lambda p: _write_solution_csv(p, grid, upper.u))
    run.emit("two.json", lambda p: _write_json(p, {
        "t": args.t, "alpha": fold.alpha,
        "separation_inf": float(np.abs(lower.u - upper.u).max()),
        "stability_mu_lower": lower.stability_mu,
        "stability_mu_upper": upper.stability_mu,
    }))
    run.finish("two")
    return 0


def cmd_verify(cfg: ScenarioConfig, args) -> int:
    run = _Run(cfg, _resolve_outdir(cfg, args))
    inst = _instance(cfg, run)
    soldir = Path(args.solutions)
    reports = []
    with run.stage("verify"):
        for meta_path in sorted(soldir.glob("*.json")):
            if meta_path.name == "manifest.json":
                continue
            meta = json.loads(meta_path.read_text())
            if "t" not in meta:
                continue
            csv_path = meta_path.with_suffix(".csv")
            if not csv_path.exists():
                csv_path = soldir / "solution.csv"
            u = _read_solution_csv(csv_path, inst.grid)
            t = float(meta["t"])
            prof = make_profile(inst, u, t,
                                float(np.abs(residual(inst, u, t)).max()))
            reports.append(verify_solution(inst, prof,
                                           solution_id=meta_path.stem,
                                           instance_id=cfg.scenario_id()))
    summary = {"reports": [r.to_dict() for r in reports],
               "all_pass": all(r.all_pass for r in reports),
               "count": len(reports)}
    run.emit("report.json", lambda p: _write_json(p, summary))
    run.finish("verify")
    return 0 if summary["all_pass"] else 3


def cmd_sweep(cfg: ScenarioConfig, args) -> int:
    """Run `eigen` on several scenario configs, one subdir per scenario."""
    base = _resolve_outdir(cfg, args)
    configs = {c.scenario_id(): c for c in (load_config(p) for p in args.configs)}
    rc = 0
    for sid, sub_cfg in configs.items():
        ns = argparse.Namespace(outdir=str(base / sid),
                                t=None, start=None, method="newton")
        rc = max(rc, cmd_eigen(sub_cfg, ns))
    return rc


COMMANDS = {
    "check": cmd_check, "eigen": cmd_eigen, "solve": cmd_solve,
    "branch": cmd_branch, "alpha": cmd_alpha, "two": cmd_two,
    "verify": cmd_verify, "sweep": cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="semifold",
                                 description="Radial semilinear fold solver")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", help="scenario config file (INI sections "
                       "[weight] [nonlinearity] [forcing] [grid] [run])")
        p.add_argument("--outdir", default=None)
        if name == "solve":
            p.add_argument("--method", default="newton",
                           choices=["monotone", "newton", "picard"])
            p.add_argument("--t", type=float, default=None)
            p.add_argument("--start", default=None)
        if name == "two":
            p.add_argument("--t", type=float, required=True)
        if name == "verify":
            p.add_argument("--solutions", required=True)
        if name == "sweep":
            p.add_argument("--configs", nargs="+", required=True)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        return COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SemifoldError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
