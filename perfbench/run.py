"""Benchmark of the `dimerdecay` CLI: one workload per process, closed loop.

Usage, from the repository root:

    python3 perfbench/run.py --workload dynamics --seed 1 --seconds 20 --trace 0

The package is imported from ./src without installation.  Each operation
calls `dimerdecay.cli.main(argv)` once, in process, with generated inputs;
operations run back to back from this one caller.  A run repeats whole
rounds of the workload's operations until --seconds have passed, checks
every operation's CSVs against `reference` outside the timed region, and
prints one JSON object as its last line: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  See README.md.
"""

from __future__ import annotations

import argparse
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
import tempfile
import time
from pathlib import Path

T_PROCESS = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = HERE / "runs"
SETUP_REPEATS = 7
DOCUMENTED_EXITS = (0, 2, 3, 4)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def import_cli():
    """Import dimerdecay.cli from this checkout's src/, or exit 2."""
    sys.path.insert(0, str(SRC))
    try:
        import dimerdecay
        import dimerdecay.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import dimerdecay from {SRC}: {exc}")
    if Path(dimerdecay.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: dimerdecay was imported from {dimerdecay.__file__}, not {SRC}")
    return cli


def setup_once(workload: str, seed: int, parent: Path):
    """A fresh interpreter importing dimerdecay.cli, then the inputs on disk."""
    t0 = time.perf_counter()
    code = "import sys; sys.path.insert(0, sys.argv[1]); import dimerdecay.cli"
    # no timeout: with one, subprocess polls the child in sleeps of up to 50 ms
    subprocess.run([sys.executable, "-c", code, str(SRC)], check=True)
    root = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=parent))
    ops = workloads.WORKLOADS[workload](np.random.default_rng(seed), root)
    return time.perf_counter() - t0, root, ops


def run_op(cli, op):
    """Run one operation; return (seconds, exit code or the exception)."""
    shutil.rmtree(op.outdir, ignore_errors=True)
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a crash is an outcome to count, not to stop on
            rc = exc
        elapsed = time.perf_counter() - t0
    return elapsed, rc


def judge(op, rc):
    """(failed, wrong, reason, check extras) for one operation's outcome."""
    if isinstance(rc, BaseException):
        return True, False, f"raised {type(rc).__name__}: {rc}", {}
    if rc not in DOCUMENTED_EXITS:
        return True, False, f"undocumented exit code {rc}", {}
    if op.expect == "refuse":
        if rc in (2, 4):
            return False, False, "", {}
        return True, True, f"exit {rc} where a refusal (2 or 4) is due", {}
    if rc != 0:
        return True, True, f"exit {rc} on a valid input", {}
    try:
        return False, False, "", op.check(op.outdir)
    except (workloads.Mismatch, ValueError, IndexError, KeyError) as exc:
        return True, True, f"output check: {exc}", {}


def machine_record(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    commit = "unknown"
    with contextlib.suppress(OSError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": commit,
        "seed": seed,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_cli()
    main_import_s = time.perf_counter() - T_PROCESS
    RUNS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="run-", dir=RUNS) as tmp:
        setups, roots = [], []
        for _ in range(SETUP_REPEATS):
            seconds, root, ops = setup_once(args.workload, args.seed, Path(tmp))
            setups.append(seconds)
            roots.append(root)
        for root in roots[:-1]:
            shutil.rmtree(root)
        for op in ops:
            op.check = op.prepare() if op.prepare else None
        result = measure(cli, ops, args)
    result["setup_s"] = setups
    result["main_import_s"] = main_import_s
    return report(args, ops, result)


def measure(cli, ops, args) -> dict:
    """Run whole rounds until args.seconds have passed.

    With tracing, rounds come in pairs, one traced and one not, in
    alternating order, so the difference of their medians is the tracing
    overhead.
    """
    tracer = Tracer() if args.trace else None
    walls = {False: [], True: []}
    durations, failures = [], {}
    attempted = failed = 0
    correct = True
    extras = {"numeric_vs_reference": 0.0, "bytes": 0, "bytes_ops": 0}
    start = time.perf_counter()
    pair = 0
    while True:
        order = (False,) if not tracer else ((False, True) if pair % 2 == 0 else (True, False))
        for traced in order:
            if traced:
                tracer.install()
            wall = 0.0
            for op in ops:
                if traced:
                    tracer.op = attempted
                elapsed, rc = run_op(cli, op)
                wall += elapsed
                if not traced:
                    durations.append(elapsed)
                bad, wrong, reason, extra = judge(op, rc)
                attempted += 1
                failed += bad
                correct &= not wrong
                if bad:
                    failures.setdefault(op.name, reason)
                if "numeric_vs_reference" in extra:
                    extras["numeric_vs_reference"] = max(extras["numeric_vs_reference"], extra["numeric_vs_reference"])
                if traced and op.outdir.is_dir():
                    extras["bytes"] += sum(f.stat().st_size for f in op.outdir.iterdir())
                extras["bytes_ops"] += traced
            if traced:
                tracer.uninstall()
                tracer.end_round()
            walls[traced].append(wall)
        pair += 1
        if time.perf_counter() - start >= args.seconds:
            break
    return dict(walls=walls, durations=durations, failures=failures, attempted=attempted,
                failed=failed, correct=correct, tracer=tracer, extras=extras)


def per_layer(result: dict, n_ops: int) -> dict[str, tuple[float, str, str]]:
    """Per-layer metrics as name -> (value, unit, base)."""
    tr, ex = result["tracer"], result["extras"]
    tot, rounds = tr.totals, tr.rounds
    ops = n_ops * rounds
    per_op = f"{ops} ops ({n_ops} per round x {rounds} traced rounds)"
    per_round = f"{rounds} traced rounds"

    def ratio(num, den):
        return num / den if den else 0.0

    def calls(name):
        return tot[f"{name}.calls"]

    def mean_call(name, scale):
        return ratio(tot[f"{name}.incl_s"], calls(name)) * scale, f"{calls(name):.0f} calls"

    out = {}
    for layer in ("dynamics", "analysis", "excitons", "rates", "cli"):
        out[f"{layer}.self_s"] = (ratio(tot[f"{layer}.self_s"], rounds), "s", f"per round, {per_round}")
    for name in ("dynamics.lindblad_generator", "dynamics.OneExcitationState", "rates.attenuation_factor",
                 "excitons.DimerParams", "rates.frequency_renormalization"):
        out[f"{name}.calls_per_op"] = (ratio(calls(name), ops), "calls/op", per_op)
    for name, unit, scale in (("dynamics.analytic_evolve", "us", 1e6), ("dynamics.OneExcitationState", "us", 1e6),
                              ("rates.attenuation_factor", "us", 1e6), ("excitons.DimerParams", "us", 1e6),
                              ("excitons.exciton_frame", "us", 1e6), ("cli.build_config", "us", 1e6),
                              ("analysis.find_alpha_minimum", "ms", 1e3), ("analysis.estimate_eta", "ms", 1e3),
                              ("analysis.sweep_inverse_alpha", "ms", 1e3), ("analysis.write_sweep_csv", "ms", 1e3),
                              ("analysis.write_theta_table_csv", "ms", 1e3)):
        value, base = mean_call(name, scale)
        out[f"{name}.{unit}"] = (value, unit, f"per call, {base}")
    evolve = "dynamics.numeric_evolve"
    out[f"{evolve}.us_per_fs"] = (ratio(tot[f"{evolve}.incl_s"], tot[f"{evolve}.fs"]) * 1e6, "us/fs",
                                  f"{tot[f'{evolve}.fs']:.0f} simulated fs")
    out[f"{evolve}.steps_per_op"] = (ratio(tot[f"{evolve}.steps"], ops), "steps/op", per_op)
    out["dynamics.write_trajectory_csv.ms_per_op"] = (
        ratio(tot["dynamics.write_trajectory_csv.incl_s"], ops) * 1e3, "ms/op", per_op)
    out["dynamics.numeric_vs_reference.supnorm"] = (ex["numeric_vs_reference"], "1", "max over checked operations")
    out["analysis.attenuation_evals_per_minimum"] = (
        ratio(tot["analysis.find_alpha_minimum.attenuation_evals"], calls("analysis.find_alpha_minimum")),
        "calls/min", f"{calls('analysis.find_alpha_minimum'):.0f} find_alpha_minimum calls")
    for name in ("rates.frequency_renormalization", "rates.load_modes_csv"):
        modes = tot[f"{name}.modes"]
        out[f"{name}.us_per_mode"] = (ratio(tot[f"{name}.incl_s"], modes) * 1e6, "us/mode", f"{modes:.0f} modes")
    out["cli.bytes_written_per_op"] = (ratio(ex["bytes"], ex["bytes_ops"]), "B/op", f"{ex['bytes_ops']} ops")
    traced, plain = result["walls"][True], result["walls"][False]
    out["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s",
                               f"per round, median of {len(traced)} traced minus {len(plain)} untraced rounds")
    return out


def report(args, ops, result) -> int:
    if args.trace:
        metrics = per_layer(result, len(ops))
    else:
        metrics = {
            "setup_s": (statistics.median(result["setup_s"]), "s", f"median of {SETUP_REPEATS} set-ups"),
            "wall_s": (statistics.median(result["walls"][False]), "s",
                       f"per round of {len(ops)} ops, median of {len(result['walls'][False])} rounds"),
            "op_p50_ms": (statistics.median(result["durations"]) * 1e3, "ms", f"{len(result['durations'])} ops"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "whole process"),
        }
    record = machine_record(args.seed) | {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "ops_per_round": len(ops),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": result["correct"],
        "failures": result["failures"],
        "setup_samples_s": result["setup_s"],
        "main_import_s": result["main_import_s"],
        "round_walls_s": result["walls"][False],
        "traced_round_walls_s": result["walls"][True],
        "metrics": {k: {"value": v, "unit": u, "base": b} for k, (v, u, b) in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(RUNS / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for i, (name, parent, op, t0, t1) in enumerate(result["tracer"].first_spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "op": op, "start": t0, "end": t1}) + "\n")

    print(f"workload {args.workload}, seed {args.seed}: {record['cpu_model']} x{record['nproc']}, "
          f"python {record['python']}, numpy {record['numpy']}, commit {record['commit'][:12]}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
    for name, reason in result["failures"].items():
        print(f"  failed: {name}: {reason[:200]}")
    for name, (value, unit, base) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}  ({base})")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
