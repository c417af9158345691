"""semifold benchmark: times `semifold alpha`, `semifold two` and
`semifold solve --method monotone` end to end and layer by layer.

    python3 perfbench/run.py --workload fold-64k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload two-4k --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --workload monotone-64k --seed 1 --op 3

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones.  ``--op K`` replays operation K of the
seed alone.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, every operation's inputs and outcome, spans) is written
under ``.perfbench/results/``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = ROOT / "tests" / "fixtures" / "canonical.json"


def load_program() -> None:
    """Put the checkout's sources first on the path and make sure they,
    not some installed copy, are what gets imported."""
    pkg = ROOT / "src" / "semifold" / "__init__.py"
    for need in (pkg, FIXTURE):
        if not need.is_file():
            raise RuntimeError(f"missing {need.relative_to(ROOT)} in {ROOT}")
    sys.path.insert(0, str(ROOT / "src"))
    import semifold
    if Path(semifold.__file__).resolve() != pkg.resolve():
        raise RuntimeError(f"semifold imported from {semifold.__file__}, "
                           f"not from {pkg}")


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def summary(result: dict, units: dict) -> list[str]:
    import harness
    ops = result["operations"]
    plain = [o for o in ops if not o["traced"]]
    traced = [o for o in ops if o["traced"]]
    lines = [f"workload {result['workload']}  n={result['n']}  "
             f"seed={result['seed']}  trace={int(result['trace'])}  "
             f"inputs={result['inputs']}  attempted={result['attempted']}  "
             f"failed={result['failed']}"]
    if result["cut"]:
        lines.append(f"cut short after {harness.MAX_RUN_S:g} s: fewer inputs "
                     "than the seed's, so outcomes differ from a full run")
    outcomes = collections.Counter(o["outcome"] for o in ops)
    lines.append("outcomes: " + ", ".join(f"{k}={v}" for k, v in sorted(outcomes.items())))
    verdicts = collections.defaultdict(lambda: [0, 0])
    for o in ops:
        for name, passed in o["checks"].items():
            verdicts[name][0] += bool(passed)
            verdicts[name][1] += 1
    for name, (passed, total) in sorted(verdicts.items()):
        lines.append(f"check {name}: {passed}/{total} passed")
    samples = {"setup_s": len(result["setup_s_samples"]), "peak_rss_mb": 1,
               "answer_err": sum(o["outcome"] == "ok" for o in plain)}
    for name, value in result["metrics"].items():
        count = samples.get(name, len(traced) if result["trace"] else len(plain))
        lines.append(f"metric {name} = {_fmt(value)} {units[name]}  (samples={count})")
    if not result["trace"]:
        walls = [o["wall_s"] for o in plain]
        p, value = harness.high_percentile(walls)
        if p is not None:
            lines.append(f"metric op_s.p{p} = {_fmt(value)} s  (samples={len(walls)})")
        ok_share = 1.0 - result["failed"] / result["attempted"]
        lines.append(f"fail_share = {1.0 - ok_share:.6g}  successful ops per second"
                     f" = {result['metrics']['ops_per_s'] * ok_share:.6g} 1/s")
    else:
        lines.append(f"span self times sum to operation wall: {result['span_sums_hold']}")
    return lines


def units_for(names, harness) -> dict:
    units = dict(harness.END_TO_END)
    for name in names:
        if name not in units:
            units[name] = next(u for suffix, u in harness.PER_LAYER_UNITS.items()
                               if name.endswith(suffix))
    return units


def write_results(result: dict, stem: str) -> Path:
    outdir = ROOT / ".perfbench" / "results"
    outdir.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if spans:
        with open(outdir / f"{stem}.spans.jsonl", "w") as fh:
            for s in spans:
                fh.write(json.dumps([s.name, s.parent, s.op, s.start, s.end,
                                     s.error, s.attrs]) + "\n")
    path = outdir / f"{stem}.json"
    path.write_text(json.dumps(result, indent=1, default=str) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--op", type=int, default=None,
                    help="replay operation K of this seed alone")
    args = ap.parse_args(argv)
    try:
        load_program()
    except (RuntimeError, ImportError) as exc:
        print(f"perfbench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    import harness
    wl = harness.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        if args.op is not None:
            runner = harness.Runner(wl, args.seed, ROOT, workdir)
            rec = runner.execute(runner.prepare(args.op))
            print(runner.base_cfg.read_text() if not wl.run_keys else
                  (workdir / f"scenario_{args.op}.ini").read_text())
            print("semifold " + " ".join(rec.argv[:1] + ["scenario.ini"] + rec.argv[2:]))
            print(json.dumps(vars(rec), default=str))
            return 0 if rec.ok else 1
        result = harness.run_workload(wl, args.seed, args.seconds,
                                      bool(args.trace), ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    path = write_results(result, f"{wl.name}-seed{args.seed}-trace{args.trace}")
    units = units_for(result["metrics"], harness)
    for line in summary(result, units):
        print(line)
    print(f"results: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
