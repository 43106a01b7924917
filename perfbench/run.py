"""Benchmark of the C-LARA loop: desk, catalog and live-HTTP workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all  --seed 1 --seconds 30

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` is the separate
traced run, which prints the per-layer metrics and writes its spans to
``perfbench/.work/trace-<workload>-s<seed>.json``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``all`` runs each workload in a fresh process, one after the
other.

The process re-executes itself once with a fixed hash seed and one BLAS
thread, so these settings are the same on every run; both are recorded in
the README.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve()
HERE = SCRIPT.parent
ROOT = HERE.parent
WORK = HERE / ".work"
PINNED_ENV = {
    "PYTHONHASHSEED": "0",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
WORKLOAD_NAMES = ("desk", "catalog", "live")


def _pin_environment() -> None:
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.execve(sys.executable, [sys.executable, str(SCRIPT), *sys.argv[1:]], {**os.environ, **PINNED_ENV})


def _parse(argv):
    parser = argparse.ArgumentParser(description="Benchmark of the C-LARA loop")
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    return parser.parse_args(argv)


def _on_sigterm(signum, frame):
    sys.exit(128 + signum)  # unwinds through every finally, which stops the stub


def run_all(args) -> int:
    """Each workload in a fresh process; prints each result and a combined one."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, str(SCRIPT), *argv], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"{name}: {lines[-1]}")
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def run_workload(args) -> int:
    import numpy as np

    import loop
    import tracing
    from workloads import WORKLOADS, write_inputs

    w = WORKLOADS[args.workload]
    print(
        f"environment: python {platform.python_version()}, numpy {np.__version__}, "
        f"{os.cpu_count()} CPUs, " + ", ".join(f"{k}={os.environ.get(k)}" for k in PINNED_ENV)
    )
    workdir = WORK / f"{w.name}-s{args.seed}-p{os.getpid()}"
    signal.signal(signal.SIGTERM, _on_sigterm)
    try:
        files = write_inputs(w, args.seed, workdir)
        outcome = loop.run(w, files, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured, metrics, failures = outcome.measured, outcome.metrics, outcome.failures
    if args.trace:
        summary = tracing.layer_summary(outcome.spans)
        trace_path = WORK / f"trace-{w.name}-s{args.seed}.json"
        tracing.write_trace(trace_path, outcome.spans, summary, outcome.stub_stats)
        _print_summary(summary, measured, trace_path)

    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(f"set-up seconds: {measured.setup_s}")
    for i, (pipeline_s, label_s, train_s, predict_s) in enumerate(measured.rounds):
        print(f"round {i}: pipeline {pipeline_s:.4f} s = label {label_s:.4f} + train {train_s:.4f} + predict {predict_s:.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name} {name} = {value} {unit}")
    result = {
        "correct": not failures,
        "attempted": len(measured.rounds) * loop.attempted_per_round(w),
        "failed": len(measured.rounds) * measured.first.stats.errored,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _print_summary(summary: dict, measured, trace_path: Path) -> None:
    print(f"{'span':<24}{'count':>9}{'busy_s':>11}{'self_s':>11}{'median_ms':>12}")
    for name, row in summary.items():
        print(f"{name:<24}{row['count']:>9}{row['busy_s']:>11.4f}{row['self_s']:>11.4f}{row['median_ms']:>12.4f}")
    pipeline = statistics.median(r[0] for r in measured.rounds)
    print(f"traced pipeline_s (median of {len(measured.rounds)} rounds) = {pipeline}")
    print(f"spans written to {trace_path.relative_to(ROOT)}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "clara" / "__init__.py").is_file():
        print(f"error: the clara sources are not at {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    _pin_environment()
    sys.exit(main())
