"""Workloads, operations, output checks and metrics of the semifold
benchmark.  ``run.py`` is the command-line entry; this module assumes
``semifold`` is importable from the checkout's ``src/``.

One closed-loop client with no concurrency: each operation is one CLI
command run in-process through ``semifold.cli.main``, started only after
the previous one has finished and been checked.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Callable, Optional

import numpy as np

import semifold
from semifold import cli
from semifold.config import CANONICAL_CONFIG, build_scenario_instance, load_config
from semifold.subsuper import make_profile
from semifold.verify import representation_residual, verify_solution

import spans as spanlib

FIXTURE = Path("tests") / "fixtures" / "canonical.json"
STAGES = ("build_instance", "branch_start", "trace", "alpha", "two", "solve")
NEWTON_TOL = 1e-10  # two_solutions' default tolerance
MAX_RUN_S = 150.0  # no input starts later than this into a run
# Kronecker-sequence generators: 1/phi in one dimension, the R2 pair
# (powers of 1/plastic number) in two.  Any prefix of the sequence covers
# the unit cube evenly, so every run sees the same mix of inputs.
_PLASTIC = 1.324717957244746
GENERATORS = {1: (0.6180339887498949,),
              2: (1.0 / _PLASTIC, 1.0 / _PLASTIC ** 2)}

END_TO_END = {  # name -> unit
    "op_s": "s", "ops_per_s": "1/s", "op_cpu_s": "s", "setup_s": "s",
    "peak_rss_mb": "MB", "answer_err": "1",
}
PER_LAYER_UNITS = {".calls": "1/op", ".s": "s/op", ".self_s": "s/op",
                   ".repeat_share": "ratio", ".bytes_computed": "B/op",
                   ".iterations": "1/call", ".fails": "1/op",
                   ".success_ratio": "ratio", ".residuals_per_call": "1/call",
                   ".points": "1/op", ".probes": "1/op",
                   ".failed_probes": "1/op", "cli.io_s": "s/op",
                   "trace_overhead": "ratio"}


@dataclass(frozen=True)
class Fixture:
    alpha: float
    error_bar: float
    tau_star: float


def load_fixture(root: Path) -> Fixture:
    data = json.loads((root / FIXTURE).read_text())
    return Fixture(alpha=data["alpha_star"]["value"],
                   error_bar=data["alpha_star"]["error_bar"],
                   tau_star=data["tau_star_canonical"])


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    dims: int
    draw: Callable  # (unit point, Fixture) -> inputs dict
    argv: Callable  # (inputs, config path) -> CLI argv without --outdir
    op_s: float  # nominal seconds per operation, its checks included
    run_keys: tuple = ()  # inputs that go into the config's [run] section


def _fold_draw(u, fx):
    return {"step_ds": 1.5 + float(u[0]),
            "t_start": -(8.0 + 4.0 * float(u[1])) * abs(fx.tau_star)}


def _two_draw(u, fx):
    return {"t": fx.alpha - 10.0 ** (-3.0 + 4.0 * float(u[0]))}


def _monotone_draw(u, fx):
    return {"t": fx.alpha - 10.0 ** (-1.0 + 2.7 * float(u[0]))}


WORKLOADS = {wl.name: wl for wl in (
    Workload("fold-64k", 64000, 2, _fold_draw,
             lambda x, cfg: ["alpha", cfg], 8.3,
             run_keys=("step_ds", "t_start")),
    Workload("two-4k", 4000, 1, _two_draw,
             lambda x, cfg: ["two", cfg, "--t", repr(x["t"])], 0.31),
    Workload("monotone-64k", 64000, 1, _monotone_draw,
             lambda x, cfg: ["solve", cfg, "--method", "monotone",
                             "--t", repr(x["t"])], 1.5),
)}


def unit_point(seed: int, k: int, dims: int) -> np.ndarray:
    """Point k of a Kronecker sequence shifted by a seed-drawn offset;
    each coordinate is uniform on [0, 1) over the seed."""
    shift = np.random.default_rng(seed).random(dims)
    return (shift + (k + 1) * np.array(GENERATORS[dims])) % 1.0


def inputs_for(wl: Workload, fx: Fixture, seed: int, k: int) -> dict:
    return wl.draw(unit_point(seed, k, wl.dims), fx)


def config_text(n: int, run_extra: Optional[dict] = None) -> str:
    cp = configparser.ConfigParser()
    cp.read_string(CANONICAL_CONFIG)
    cp["grid"]["n"] = str(n)
    for key, val in (run_extra or {}).items():
        cp["run"][key] = repr(val)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


# ----------------------------------------------------------------- checks

def _max_residual(inst, t: float, u: np.ndarray) -> float:
    nl = inst.nonlinearity
    F = inst.A.apply(u) - inst.weight_values * (
        np.asarray(nl.g(u)) + t * inst.eigen.phi1 + inst.forcing.f1)
    return float(np.abs(F).max())


def _csv_u(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1)[:, 1]


def check_outputs(wl: Workload, outdir: Path, inputs: dict, inst, fx: Fixture):
    """Verdicts on one operation's outputs, the workload's answer error,
    and the name of the known defect the outputs show, if any."""
    if wl.name == "fold-64k":
        a = json.loads((outdir / "alpha.json").read_text())
        gap = abs(a["alpha_bisection"] - a["alpha_arclength"])
        checks = {
            "arclength_within_error_bar":
                abs(a["alpha_arclength"] - fx.alpha) <= fx.error_bar,
            "bisection_below_tau_star": a["alpha_bisection"] <= fx.tau_star,
            "gap_within_acceptance_5":
                gap <= 1e-3 * (1.0 + abs(a["alpha_arclength"])),
        }
        return checks, gap, None
    if wl.name == "two-4k":
        two = json.loads((outdir / "two.json").read_text())
        t = float(inputs["t"])
        checks = {"separation_positive": two["separation_inf"] > 0.0,
                  "mu_lower_positive": two["stability_mu_lower"] > 0.0,
                  "mu_upper_negative": two["stability_mu_upper"] < 0.0}
        for side in ("lower", "upper"):
            u = _csv_u(outdir / f"solution_{side}.csv")
            checks[f"{side}_residual"] = (_max_residual(inst, t, u)
                                          <= NEWTON_TOL * inst.A.row_scale())
            checks[f"{side}_representation"] = (
                representation_residual(inst, t, u) <= 1e-3)
        defect = "two_collapse" if two["separation_inf"] == 0.0 else None
        return checks, abs(two["alpha"] - fx.alpha), defect
    t = float(inputs["t"])
    u = _csv_u(outdir / "solution.csv")
    prof = make_profile(inst, u, t, _max_residual(inst, t, u))
    report = verify_solution(inst, prof)
    checks = {e["name"]: e["pass"] for e in report.entries}
    rep = next(e["value"] for e in report.entries
               if e["name"] == "representation_residual")
    return checks, rep, None


def known_failure(wl: Workload, rc, err: str) -> Optional[str]:
    """The documented defect a failing exit reproduces, if it is one."""
    if wl.name == "monotone-64k" and rc == 2 \
            and "escaped above the supersolution" in err:
        return "monotone_escape"
    return None


# ------------------------------------------------------------- operations

@dataclass
class OpRecord:
    k: int
    inputs: dict
    argv: list
    traced: bool
    rc: object = None
    error: str = ""
    wall_s: float = 0.0
    cpu_s: float = 0.0
    stages: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    answer_err: Optional[float] = None
    outcome: str = ""

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"


def call_cli(argv: list) -> tuple[object, str]:
    """semifold.cli.main in-process; (exit code, captured stderr)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects its arguments
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a traceback is an operation failure, not ours
        rc = "exception"
        err.write(traceback.format_exc())
    return rc, err.getvalue()


class Runner:
    """Runs operations of one workload and checks their outputs."""

    def __init__(self, wl: Workload, seed: int, root: Path, workdir: Path):
        self.wl, self.seed, self.root = wl, seed, root
        self.fx = load_fixture(root)
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.base_cfg = workdir / "scenario.ini"
        self.base_cfg.write_text(config_text(wl.n))
        self.inst = build_scenario_instance(load_config(self.base_cfg))
        self.tracer = spanlib.Tracer()

    def prepare(self, k: int, traced: bool = False) -> OpRecord:
        inputs = inputs_for(self.wl, self.fx, self.seed, k)
        cfg = self.base_cfg
        if self.wl.run_keys:
            cfg = self.workdir / f"scenario_{k}.ini"
            cfg.write_text(config_text(
                self.wl.n, {key: inputs[key] for key in self.wl.run_keys}))
        return OpRecord(k=k, inputs=inputs, traced=traced,
                        argv=self.wl.argv(inputs, str(cfg)))

    def execute(self, rec: OpRecord) -> OpRecord:
        outdir = self.workdir / "out"
        shutil.rmtree(outdir, ignore_errors=True)
        argv = rec.argv + ["--outdir", str(outdir)]
        if rec.traced:
            with self.tracer.instrumented(), self.tracer.root(rec.k) as root:
                c0 = process_time()
                rc, err = call_cli(argv)
                rec.cpu_s = process_time() - c0
            rec.wall_s = root.duration
        else:
            t0, c0 = perf_counter(), process_time()
            rc, err = call_cli(argv)
            rec.wall_s, rec.cpu_s = perf_counter() - t0, process_time() - c0
        rec.rc = rc
        rec.error = err.strip().splitlines()[-1] if err.strip() else ""
        defect = None
        if rc == 0:
            manifest = json.loads((outdir / "manifest.json").read_text())
            rec.stages = manifest["wall_clock_s"]
            rec.checks, rec.answer_err, defect = check_outputs(
                self.wl, outdir, rec.inputs, self.inst, self.fx)
            if all(rec.checks.values()):
                rec.outcome = "ok"
        else:
            defect = known_failure(self.wl, rc, err)
        if not rec.outcome:
            rec.outcome = f"known:{defect}" if defect else "unexpected"
        return rec


# ---------------------------------------------------------------- metrics

def setup_samples(wl: Workload, root: Path, cfg: Path, count: int) -> list:
    """What every CLI invocation pays before its first solve, measured in
    fresh interpreters: import semifold.cli, load the config, build the
    scenario instance (grid, operator, eigenpair)."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            "import semifold.cli\n"
            "from semifold.config import build_scenario_instance, load_config\n"
            "build_scenario_instance(load_config(sys.argv[1]))\n"
            "print(time.perf_counter() - t0)\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", code, str(cfg)], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def _median(values):
    return float(statistics.median(values)) if values else None


def end_to_end(ops: list, setup: list) -> dict:
    done = [o for o in ops if not o.traced]
    ok = [o for o in done if o.ok]
    return {
        "op_s": _median([o.wall_s for o in done]),
        "ops_per_s": len(done) / sum(o.wall_s for o in done),
        "op_cpu_s": _median([o.cpu_s for o in done]),
        "setup_s": _median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        # a mean: the error moves with t, and the successful draws lie in
        # bands of t, so a median jumps between bands from seed to seed
        "answer_err": (statistics.fmean(o.answer_err for o in ok)
                       if ok else None),
    }


def per_layer(ops: list, tracer: spanlib.Tracer) -> dict:
    traced = [o for o in ops if o.traced]
    plain = {o.k: o.wall_s for o in ops if not o.traced}
    m = spanlib.layer_metrics(tracer.spans)
    for stage in STAGES:
        m[f"cli.stage.{stage}.s"] = statistics.fmean(
            o.stages.get(stage, 0.0) for o in traced)
    # operation wall minus staged time: CSV/JSON writes and SHA-256.  Only
    # operations that wrote a manifest have stage times.
    staged = [o.wall_s - sum(o.stages.values()) for o in traced if o.stages]
    m["cli.io_s"] = statistics.fmean(staged) if staged else 0.0
    pairs = [o for o in traced if o.k in plain]
    m["trace_overhead"] = (statistics.median(o.wall_s for o in pairs)
                           / statistics.median(plain[o.k] for o in pairs) - 1.0)
    return m


def span_sums_hold(tracer: spanlib.Tracer) -> bool:
    """The self times of each operation's spans add up to its wall time."""
    own = spanlib.self_times(tracer.spans)
    by_op: dict = {}
    for span, s in zip(tracer.spans, own):
        by_op[span.op] = by_op.get(span.op, 0.0) + s
    roots = {s.op: s.duration for s in tracer.spans if s.parent < 0}
    return all(abs(by_op[op] - wall) <= 1e-9 * max(wall, 1.0)
               for op, wall in roots.items())


def environment(root: Path, wl: Workload) -> dict:
    def cache(level):
        try:
            out = subprocess.run(["getconf", f"LEVEL{level}_CACHE_SIZE"],
                                 capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.SubprocessError):
            return None

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "l2_bytes": cache(2), "l3_bytes": cache(3),
        "vector_bytes": wl.n * 8,
        "semifold": semifold.__version__,
        "git_commit": git_commit(root),
    }


def git_commit(root: Path) -> Optional[str]:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = root / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def high_percentile(values: list) -> tuple:
    """The highest of p99/p90/p75 with at least ten samples beyond it."""
    for p in (99, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, float(np.percentile(values, p))
    return None, None


# -------------------------------------------------------------------- run

def op_count(wl: Workload, seconds: float, trace: bool) -> int:
    """Inputs in one run: as many as fill ``seconds`` at the workload's
    nominal operation time.  The count depends on nothing measured, so
    two runs of one seed make the same operations and get the same
    outcomes.  A traced run runs each input twice."""
    return max(1, round(seconds / wl.op_s / (2 if trace else 1)))


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool,
                 root: Path, workdir: Path, setup_count: int = 5) -> dict:
    """One run: set-up samples, then ``op_count`` inputs, which take about
    ``seconds`` seconds.  With ``trace`` every input runs twice, untraced
    and traced, in an order alternating with k, so that tracing overhead
    is paired.  A run that passes ``MAX_RUN_S`` starts no further input
    and says so in ``cut``."""
    t_start = perf_counter()
    runner = Runner(wl, seed, root, workdir)
    setup = setup_samples(wl, root, runner.base_cfg, setup_count)
    ops: list[OpRecord] = []
    count = op_count(wl, seconds, trace)
    for k in range(count):
        if ops and perf_counter() - t_start > MAX_RUN_S:
            break
        if trace:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                ops.append(runner.execute(runner.prepare(k, traced)))
        else:
            ops.append(runner.execute(runner.prepare(k)))
    result = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "n": wl.n, "inputs": count,
        "cut": len({o.k for o in ops}) < count,
        "setup_s_samples": setup,
        "environment": environment(root, wl),
        "operations": [vars(o) for o in ops],
        "correct": all(not o.outcome.startswith("unexpected") for o in ops),
        "attempted": len(ops),
        "failed": sum(not o.ok for o in ops),
    }
    if trace:
        result["metrics"] = per_layer(ops, runner.tracer)
        result["span_sums_hold"] = span_sums_hold(runner.tracer)
    else:
        result["metrics"] = end_to_end(ops, setup)
    result["spans"] = runner.tracer.spans
    return result
