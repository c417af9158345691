"""Command-line orchestration: check, eigen, solve, branch, alpha, two,
verify, sweep.  CSV for array data, JSON for scalar reports, plus a
manifest with content checksums per run.

Exit codes: 0 success, 1 config error, 2 numerical failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import json
import math
import os
import sys
import time
import warnings
from functools import cache, partial
from pathlib import Path

import numpy as np

from . import __version__, _lapack
from .config import ScenarioConfig, build_scenario_instance, load_config
from .continuation import (certified_below, find_fold, fold_branch,
                           ladder_range, refine_fold, stability,
                           two_solutions)
from .eigen import decay_constants
from .errors import ConfigError, NoConvergence, SemifoldError
from .grid import dot, weighted_integral
from .nonlinear import (monotone_newton, monotone_rise, newton_solve,
                        picard_solve, residual)
from .problem import (check_P1, check_P2, check_sigma_growth,
                      derive_slack_constants)
from .subsuper import make_profile
from .verify import check_comparison, e0_norm, tau_star, verify_solution

OUTDIR_ENV = "SEMIFOLD_OUTDIR"
# glibc mallopt parameters: free bytes kept at the top of the heap, and
# the request size from which an allocation is mapped on its own
M_TOP_PAD = -2
M_MMAP_THRESHOLD = -3
HEAP_TOP_PAD = 64 << 20
HEAP_MMAP_THRESHOLD = 32 << 20  # the largest glibc accepts on 64-bit


def keep_heap_pages() -> None:
    """Ask glibc to take vectors below HEAP_MMAP_THRESHOLD from the heap
    and to keep HEAP_TOP_PAD bytes of freed heap in the process.

    At n = 64000 each temporary vector is 512 KiB.  Above glibc's default
    mmap threshold of 128 KiB, each is mapped on its own and its pages
    fault in anew on every allocation, a cost comparable to the kernel
    that fills it; glibc raises that threshold only after it frees a
    mapped chunk larger than it, which nothing in a run need do.  On the
    heap, when several are freed together, glibc trims the heap top, and
    the pad keeps those pages.  A libc without mallopt leaves the
    allocator as it is."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(M_TOP_PAD, HEAP_TOP_PAD)


# rows per formatted block of a CSV: one block's text and its working
# arrays stay small next to a 64000-row table
CSV_BLOCK_ROWS = 2048
# bytes per number in a block's text: the longest '%.18e',
# -d.<18 digits>e-308, and its delimiter
CSV_FIELD = 27
# the decimal exponents that _e18_fields writes by integer arithmetic:
# from 1e-9, so that 5**(18 - k) < 2**64, to below 1e14, so that the
# scaled mantissa is shifted right by at least one bit
EXACT_K_LOW, EXACT_K_HIGH = -9, 13


def _least_float_at_least(num: int, den: int) -> float:
    t = num / den  # correctly rounded
    a, b = t.as_integer_ratio()
    return t if a * den >= num * b else math.nextafter(t, math.inf)


# _DECADES[i] is the least float >= 10**(EXACT_K_LOW + i): a float x has
# decimal exponent EXACT_K_LOW + i exactly when
# _DECADES[i] <= |x| < _DECADES[i + 1]
_DECADES = np.array([_least_float_at_least(10 ** max(k, 0), 10 ** max(-k, 0))
                     for k in range(EXACT_K_LOW, EXACT_K_HIGH + 2)])
_POW5 = np.array([5 ** p for p in range(18 - EXACT_K_LOW + 1)], np.uint64)


def _digit_table(width: int) -> np.ndarray:
    """Entry i is the ASCII of `'%0{width}d' % i`, as one native word of
    `width` bytes, for i < 10**width."""
    rest = np.arange(10 ** width, dtype=np.uint32)
    digits = np.empty((rest.size, width), np.uint8)
    for col in range(width - 1, -1, -1):
        tenth = rest // np.uint32(10)
        digits[:, col] = rest - tenth * np.uint32(10) + ord("0")
        rest = tenth
    return digits.view(f"u{width}").ravel()


_DIGITS4 = _digit_table(4)
_DIGITS2 = _digit_table(2)


def _json_text(data) -> list:
    return [(json.dumps(data, indent=2, sort_keys=True) + "\n").encode("ascii")]


def _decimal_exponent(a: np.ndarray, e: np.ndarray) -> np.ndarray:
    """The decimal exponent of each a in [_DECADES[0], _DECADES[-1]),
    given its binary exponent e from frexp.  a lies in [2**(e - 1),
    2**e), so its exponent is floor((e - 1) log10 2) or one more, and
    one comparison with _DECADES decides which; 78913 / 2**18 is log10 2
    closely enough to floor alike for |e - 1| <= 1650, far beyond the
    window."""
    k = e - 1
    k *= 78913
    k >>= 18
    k += a >= _DECADES[k + (1 - EXACT_K_LOW)]
    return k


def _words(out: np.ndarray, col: int, dtype) -> np.ndarray:
    """The bytes out[:, col:col + itemsize] of each row of the C-ordered
    uint8 `out`, as one (unaligned) word of `dtype` per row."""
    return np.ndarray(len(out), dtype, out, col, (out.strides[0],))


def _e18_fields(x: np.ndarray) -> np.ndarray:
    """Row i is the ASCII of `'%.18e' % x[i]`, NUL-padded to CSV_FIELD
    bytes; the last byte is always free for a delimiter.

    For |x| in [_DECADES[0], _DECADES[-1]), about [1e-9, 1e14), with
    decimal exponent k, the 19 digits are |x| * 10**(18 - k) rounded half
    to even, computed exactly: |x| = M * 2**(e - 53) with an integer
    M < 2**53, so they are the 128-bit M * 5**(18 - k) shifted right by
    s = 35 + k - e >= 1 bits, rounded on the s bits shifted out.  The
    leading digit is written alone, the 18 after the point as two 9-digit
    halves, each one digit and two 4-digit words of _DIGITS4, and the
    exponent as a word of _DIGITS2.  Zeros, subnormals, nan, inf and
    magnitudes outside that window are formatted by `'%.18e'` one at a
    time.  Each working array is updated in place where it can be and
    dropped once it is dead, so a block holds a few of them at a time."""
    u64 = np.uint64
    a = np.abs(x)
    inexact = ~((a >= _DECADES[0]) & (a < _DECADES[-1]))
    a[inexact] = 1.0
    m, e = np.frexp(a)
    m *= 2.0 ** 53
    mant = m.astype(u64)
    del m
    e = e.astype(np.intp)  # table indices gather fastest as intp
    k = _decimal_exponent(a, e)
    del a
    pow5 = _POW5[18 - k]
    s = (35 + k - e).astype(u64)
    del e
    # mant * pow5 = hi * 2**64 + lo, from 32-bit halves that cannot overflow
    m_lo = mant & u64(0xFFFFFFFF)
    m_hi = mant
    m_hi >>= u64(32)
    p_lo = pow5 & u64(0xFFFFFFFF)
    p_hi = pow5
    p_hi >>= u64(32)
    del mant, pow5
    mid = m_lo * p_hi
    mid += m_hi * p_lo
    lo = m_lo
    lo *= p_lo
    hi = m_hi
    hi *= p_hi
    del m_lo, m_hi, p_lo, p_hi
    mid_low = mid << u64(32)
    lo += mid_low
    mid >>= u64(32)
    hi += mid
    hi += lo < mid_low  # carry of lo
    del mid, mid_low
    hi <<= u64(64) - s
    q = lo >> s
    q |= hi
    del hi
    rem = lo & ((u64(1) << s) - u64(1))
    del lo
    s -= u64(1)
    half = u64(1) << s
    del s
    # never up to 10**19: in the window, the floats below 10**(k + 1) are
    # at least 4e-17 of it below, far more than the 5e-20 of half a unit
    # of the 19th digit
    up = rem == half
    up &= q & u64(1) == u64(1)
    up |= rem > half
    del rem, half
    q += up
    del up
    out = np.zeros((len(x), CSV_FIELD), np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    lead = q // u64(10 ** 18)
    out[:, 1] = lead + ord("0")
    out[:, 2] = ord(".")
    lead *= u64(10 ** 18)
    q -= lead
    del lead
    upper = q // u64(10 ** 9)
    q -= upper * u64(10 ** 9)
    # below 10**9 each, so a view as intp indexes _DIGITS4
    for col, part in ((3, upper), (12, q)):
        top = part // u64(10 ** 8)
        out[:, col] = top + ord("0")
        top *= u64(10 ** 8)
        part -= top
        del top
        word = part // u64(10 ** 4)
        _words(out, col + 1, np.uint32)[:] = _DIGITS4[word.view(np.intp)]
        word *= u64(10 ** 4)
        part -= word
        del word
        _words(out, col + 5, np.uint32)[:] = _DIGITS4[part.view(np.intp)]
    del q, upper, part
    out[:, 21] = ord("e")
    out[:, 22] = np.where(k < 0, ord("-"), ord("+"))
    _words(out, 23, np.uint16)[:] = _DIGITS2[np.abs(k)]
    del k
    rest = np.flatnonzero(inexact)
    if len(rest):
        text = b"".join(("%.18e" % v).encode("ascii").ljust(CSV_FIELD, b"\0")
                        for v in x[rest].tolist())
        out[rest] = np.frombuffer(text, np.uint8).reshape(len(rest), -1)
    return out


def _csv_text(header: str, blocks):
    """The ASCII bytes of a CSV: the header line, then the rows of each
    2-D block of `blocks`.  Every number is `%.18e`, which reads back
    exactly, and the bytes are those of `np.savetxt` with `delimiter=","`,
    `comments=""` and its default format, however the rows are split
    into blocks.  The digits come from exact integer arithmetic on whole
    blocks (`_e18_fields`), with `'%.18e'` per value outside its window
    of about 1e-9 to 1e14."""
    yield (header + "\n").encode("ascii")
    for block in blocks:
        text = _e18_fields(block.ravel()).reshape(*block.shape, CSV_FIELD)
        del block
        text[:, :-1, -1] = ord(",")
        text[:, -1, -1] = ord("\n")
        chunk = text.tobytes().replace(b"\0", b"")
        del text
        yield chunk


def _solution_csv(grid, u):
    """_csv_text of the columns r, u and r^(N-2) u in blocks of
    CSV_BLOCK_ROWS rows, the last column formed block by block rather
    than as a whole column."""
    def blocks():
        for start in range(0, grid.n, CSV_BLOCK_ROWS):
            r = grid.nodes[start:start + CSV_BLOCK_ROWS]
            v = u[start:start + CSV_BLOCK_ROWS]
            yield np.column_stack([r, v, r ** (grid.N - 2) * v])
    return _csv_text("r,u,r_pow_u", blocks())


def _read_solution_csv(path, grid) -> np.ndarray:
    """The u column of a solution CSV whose r column is this grid's nodes
    and whose every entry is finite."""
    try:
        # a file with no rows makes loadtxt warn; that is this error too
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError(f"{path}: not a readable solution CSV ({exc})") from exc
    bad = np.flatnonzero(~np.isfinite(data).all(axis=1))
    if len(bad):
        raise ConfigError(f"{path}: data row {bad[0] + 1} holds a "
                          f"non-finite number")
    if data.shape[0] != grid.n or data.shape[1] < 2 or not np.allclose(
            data[:, 0], grid.nodes, rtol=1e-12, atol=1e-12 * grid.R):
        raise ConfigError(f"{path}: r column does not match the grid "
                          f"({data.shape[0]} rows, grid has n = {grid.n})")
    return data[:, 1]


class _Run:
    """One command's run: builds its instance, writes its files and keeps,
    for the manifest, the SHA-256 of each one's bytes and the wall clock
    of each stage.  The outdir is made by the first write, so a command
    that refuses before then leaves nothing."""

    def __init__(self, command: str, cfg: ScenarioConfig, outdir: Path):
        self.command = command
        self.cfg = cfg
        self.outdir = outdir
        self.files = {}
        self.stages = {}

    def instance(self):
        """The scenario's instance, built in the stage `build_instance`."""
        with self.stage("build_instance"):
            return build_scenario_instance(self.cfg)

    def emit(self, name: str, chunks) -> None:
        """Write the byte `chunks` to `name`, hashing them as they are
        written."""
        try:
            self.outdir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory "
                              f"{self.outdir}: {exc}") from exc
        digest = hashlib.sha256()
        path = self.outdir / name
        try:
            with open(path, "wb") as fh:
                for chunk in chunks:
                    fh.write(chunk)
                    digest.update(chunk)
        except OSError as exc:
            raise ConfigError(f"cannot write {path}: {exc}") from exc
        self.files[name] = digest.hexdigest()

    @contextlib.contextmanager
    def stage(self, name):
        """Time the block into stage `name`, added to what it holds."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = (self.stages.get(name, 0.0)
                                 + time.perf_counter() - t0)

    def finish(self, exit_code: int, error) -> tuple:
        """Write manifest.json for the outcome (exit_code, error), error
        None on success, and return that outcome, or (1, the write's
        error) where a run without one cannot write the manifest."""
        manifest = {
            "scenario_id": self.cfg.scenario_id(),
            "command": self.command,
            "version": __version__,
            "config_hash": self.cfg.content_hash(),
            "seed": self.cfg.get("run", "seed"),
            "files": self.files,
            "wall_clock_s": self.stages,
            "lapack": _lapack.LIBRARY,
            "exit_code": exit_code,
            "error": _error_record(error),
        }
        try:
            self.emit("manifest.json", _json_text(manifest))
        except ConfigError as exc:
            return (1, exc) if error is None else (exit_code, error)
        return exit_code, error


def _error_record(exc):
    """The manifest's `error`: None, or the class and message of `exc`,
    with NoConvergence's iterations and residual."""
    if exc is None:
        return None
    record = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, NoConvergence):
        record.update(iterations=exc.iterations, residual=exc.residual)
    return record


def _resolve_outdir(cfg: ScenarioConfig, args) -> Path:
    if getattr(args, "outdir", None):
        return Path(args.outdir)
    if OUTDIR_ENV in os.environ:
        return Path(os.environ[OUTDIR_ENV])
    return Path(cfg.get("run", "outdir"))


def cmd_check(run: _Run, args) -> int:
    inst = run.instance()
    grid = inst.grid
    with run.stage("check"):
        p1 = check_P1(inst.weight_values, grid)
        p2 = check_P2(inst.weight_values, grid,
                      [0.25 * grid.R, 0.5 * grid.R, grid.R])
        nl = inst.nonlinearity
        slack = derive_slack_constants(nl.g, nl.mu_lower, nl.mu_upper)
        sigma = check_sigma_growth(nl, grid.N)
        rng = np.random.default_rng(run.cfg.get("run", "seed"))
        lam = inst.eigen.lambda1
        comparison = all(check_comparison(inst.A, inst.weight_values, 0.9 * lam,
                                          rng.random(grid.n), lam)["pass"]
                         for _ in range(20))
        report = {
            "P1": p1,
            "P2": {"constant_estimate": p2["constant_estimate"],
                   "nonincreasing_tail": p2["nonincreasing_tail"]},
            "slack": slack,
            "sigma": sigma,
            "lambda1": lam,
            "comparison_principle": comparison,
        }
    run.emit("report.json", _json_text(report))
    return 0


def cmd_eigen(run: _Run, args) -> int:
    inst = run.instance()
    eig = inst.eigen
    grid = inst.grid
    run.emit("eigen.csv", _solution_csv(grid, eig.phi1))
    dec = decay_constants(grid, eig.phi1)
    mass = weighted_integral(grid, inst.weight_values * eig.phi1 ** 2)
    run.emit("eigen.json", _json_text({
        "lambda1": eig.lambda1, "C1": dec.C1, "C2": dec.C2,
        "normalization_residual": abs(mass - 1.0),
        "plateau_ok": dec.plateau_ok,
    }))
    return 0


def cmd_solve(run: _Run, args) -> int:
    if args.start and args.method == "monotone":
        raise ConfigError("--start applies only to --method newton and "
                          "picard; monotone starts from the subsolution")
    inst = run.instance()
    t = args.t if args.t is not None else inst.forcing.t
    grid = inst.grid
    extra = {}
    with run.stage("solve"):
        if args.method == "monotone":
            prof, eta, beta, h, defect = monotone_newton(inst, t)
            extra = {"certificate_eta": eta, "certificate_beta": beta,
                     "certificate_h": h, "subsolution_defect": defect}
        else:
            if args.start:
                u0 = _read_solution_csv(args.start, grid)
            else:
                u0 = np.zeros(grid.n)
            solver = newton_solve if args.method == "newton" else picard_solve
            prof = solver(inst, u0, t)
    run.emit("solution.csv", _solution_csv(grid, prof.u))
    dec = decay_constants(grid, np.abs(prof.u) + 1e-300)
    report = {"converged": True, "t": t, "iterations": prof.iterations,
              "residual_inf": prof.residual_inf,
              "e0_norm": e0_norm(grid, prof.u),
              "decay_coeff": 0.5 * (dec.C1 + dec.C2), "method": args.method,
              **extra}
    run.emit("report.json", _json_text(report))
    return 0


def emit_bifurcation(inst, rows):
    """The text of `branch.csv` for the (t, u) rows of fold_branch; each
    row's residual, eigensolve and chord are computed here, before any
    of it is written.  `arclength` sums the weighted chords
    sqrt(|du|^2 / n + dt^2) between consecutive rows."""
    table, arc, (t_prev, u_prev) = [], 0.0, rows[0]
    for i, (t, u) in enumerate(rows):
        du = u - u_prev
        arc += math.sqrt(dot(du, du) / len(u) + (t - t_prev) ** 2)
        table.append([i, t, u[0], e0_norm(inst.grid, u),
                      float(np.abs(residual(inst, u, t)).max()),
                      stability(inst, u), arc])
        t_prev, u_prev = t, u
    return _csv_text(
        "index,t,u_at_0,e0_norm,residual_inf,stability_mu,arclength",
        [np.array(table)])


def cmd_branch(run: _Run, args) -> int:
    """The rows of fold_branch through the fold that alpha reports,
    from [run] t_start on the scenario's grid."""
    inst = run.instance()
    point = _fold(inst, run)[2]
    cfg = run.cfg
    with run.stage("branch_rows"):
        rows = emit_bifurcation(inst, fold_branch(
            inst, point, ladder_range(inst, cfg.get("run", "t_start"))[0],
            cfg.get("run", "step_ds"), cfg.get("run", "max_points")))
    run.emit("branch.csv", rows)
    return 0


def _fold(inst, run):
    """(ladder level, its fold, inst's fold).  The ladder climbs the
    bottom of inst's chain of twins, inst itself where it has none, and
    its fold is refined once on each level above it up to inst, lifted
    from the level below.  The ladder's first rung, the minimal solution
    at [run] t_start, is timed as `branch_start`, and the rest of the
    ladder and the refinements as `trace`."""
    if inst.twin is None:
        t_start, t_max = ladder_range(inst, run.cfg.get("run", "t_start"))
        with run.stage("branch_start"):
            u = monotone_rise(inst, t_start)[0]
        with run.stage("trace"):
            found = find_fold(inst, t_start, u, t_max)
        return inst, found, found
    level, found, point = _fold(inst.twin, run)
    lift = partial(inst.grid.lift, inst.twin.grid)
    with run.stage("trace"):
        return level, found, refine_fold(inst, lift(point.u), point.t,
                                         lift(point.v))


# alpha's certified lower bound is the minimal solution at one probe,
# 10^-PROBE_DECADES (1 + |alpha_arclength|) below the fold
PROBE_DECADES = 6


def cmd_alpha(run: _Run, args) -> int:
    inst = run.instance()
    level, found, point = _fold(inst, run)
    alpha = point.t
    delta = (1.0 + abs(alpha)) / 10.0 ** PROBE_DECADES
    probe = alpha - delta
    with run.stage("alpha"):
        _, eta, beta, h = certified_below(inst, point, probe)
    # alpha_bisection keeps its name: the probe, where certified_below
    # proves the minimal solution
    run.emit("alpha.json", _json_text({
        "alpha_arclength": alpha, "alpha_bisection": probe,
        "tau_star": tau_star(inst), "certified_delta": delta,
        "certificate_eta": eta, "certificate_beta": beta,
        "certificate_h": h, "coarse_n": level.grid.n,
        "alpha_coarse": found.t, "fold_iterations": point.iterations,
    }))
    return 0


def cmd_two(run: _Run, args) -> int:
    inst = run.instance()
    point = _fold(inst, run)[2]
    with run.stage("two"):
        lower, upper = two_solutions(inst, args.t, point)
    grid = inst.grid
    gap = point.t - args.t
    separation = float(np.abs(lower.u - upper.u).max())
    run.emit("solution_lower.csv", _solution_csv(grid, lower.u))
    run.emit("solution_upper.csv", _solution_csv(grid, upper.u))
    run.emit("two.json", _json_text({
        "t": args.t, "alpha": point.t, "gap": gap,
        "separation_inf": separation,
        "separation_over_sqrt_gap": separation / math.sqrt(gap),
        "stability_mu_lower": lower.stability_mu,
        "stability_mu_upper": upper.stability_mu,
    }))
    return 0


# the solution files of each report that holds a coefficient `t`, by the
# id `verify` reports them under
SOLUTION_FILES = {
    "report.json": {"report": "solution.csv"},
    "two.json": {"two_lower": "solution_lower.csv",
                 "two_upper": "solution_upper.csv"},
}


def cmd_verify(run: _Run, args) -> int:
    soldir = Path(args.solutions)
    targets = []
    for meta_name, solutions in SOLUTION_FILES.items():
        meta_path = soldir / meta_name
        if not meta_path.is_file():
            continue
        try:
            t = json.loads(meta_path.read_text()).get("t")
            if t is None:
                continue
            t = float(t)
        except (OSError, ValueError, TypeError, AttributeError) as exc:
            raise ConfigError(f"{meta_path}: not a readable report "
                              f"({exc})") from exc
        targets += [(sid, soldir / csv, t) for sid, csv in solutions.items()]
    if not targets:
        raise ConfigError(f"{soldir}: no solution to verify (looked for "
                          f"{' and '.join(SOLUTION_FILES)} with a 't')")
    inst = run.instance()
    reports = []
    with run.stage("verify"):
        for solution_id, csv_path, t in targets:
            u = _read_solution_csv(csv_path, inst.grid)
            prof = make_profile(inst, u, t,
                                float(np.abs(residual(inst, u, t)).max()))
            reports.append(verify_solution(inst, prof,
                                           solution_id=solution_id,
                                           instance_id=run.cfg.scenario_id()))
    summary = {"reports": [r.to_dict() for r in reports],
               "all_pass": all(r.all_pass for r in reports),
               "count": len(reports)}
    run.emit("report.json", _json_text(summary))
    return 0 if summary["all_pass"] else 3


COMMANDS = {
    "check": cmd_check, "eigen": cmd_eigen, "solve": cmd_solve,
    "branch": cmd_branch, "alpha": cmd_alpha, "two": cmd_two,
    # sweep runs eigen once per scenario of --configs (see main)
    "verify": cmd_verify, "sweep": cmd_eigen,
}


@cache  # built once per process, for callers that run main many times
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
    keep_heap_pages()
    try:
        # not an argparse type: its usage errors exit 2
        t = getattr(args, "t", None)
        if t is not None and not np.isfinite(t):
            raise ConfigError(f"--t must be a finite number, got {t}")
        cfg = load_config(args.config)
        top = _Run(args.command, cfg, _resolve_outdir(cfg, args))
        runs = [top]
        if args.command == "sweep":  # one subdir per scenario id
            scenarios = {c.scenario_id(): c for c in map(load_config,
                                                         args.configs)}
            runs = [_Run("eigen", c, top.outdir / sid)
                    for sid, c in scenarios.items()]
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    for run in runs:
        try:
            code, error = COMMANDS[run.command](run, args), None
        except SemifoldError as exc:
            code, error = (1 if isinstance(exc, ConfigError) else 2), exc
        if "build_instance" in run.stages:  # refusals write nothing
            code, error = run.finish(code, error)
        if run is not top:
            top.files.update((f"{run.outdir.name}/{name}", digest)
                             for name, digest in run.files.items())
        if code:
            break
    if args.command == "sweep":  # its own manifest, over its scenarios'
        code, error = top.finish(code, error)
    if error is not None:
        kind = "config error" if isinstance(error, ConfigError) \
            else "numerical failure"
        print(f"{kind}: {error}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
