"""delsim benchmark: fixed paper instances, timed end to end and by layer.

    python3 perfbench/run.py --workload sa2-d --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seconds 40

Each iteration of a workload runs in a fresh ``worker.py`` process; the run
keeps starting iterations while they fit in ``--seconds`` (at least one) and
reports medians. With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced iterations and prints the
per-layer metrics derived from the traced ones' spans, plus the tracing
overhead. Human-readable lines go to stderr; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. The instances are
fixed, so the seed only orders the workloads and the traced/untraced
alternation. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench"
WORKLOADS = sorted(p.stem for p in (HERE / "references").glob("*.json"))
BENCHMARK_WORKLOADS = ("consensus-k", "sa2-d", "staircase-deep")
CHILD_TIMEOUT_S = 150
# One BLAS thread: on a shared 2-vCPU VM, two threads made verdict times vary
# twice as much between iterations as one thread does.
BLAS_THREADS = 1
END_TO_END_UNITS = {"setup_s": "s", "verdict_s": "s", "check_s": "s",
                    "peak_rss_mb": "MB"}


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def environment(seed: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "seed": seed}


def run_child(workload: str, trace_out: Path | None, run_id: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--run-id", run_id]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{workload} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def phase_total(r: dict) -> float:
    return r["setup_s"] + r["verdict_s"] + r["check_s"]


def measure(workload: str, seconds: float, trace: bool, rng: random.Random) -> dict:
    """Run iterations until the next round would overrun ``seconds``."""
    trace_out = TRACE_DIR / f"{workload}.jsonl"
    if trace:
        TRACE_DIR.mkdir(exist_ok=True)
        trace_out.write_text("")
    kinds = [False, True] if trace else [False]
    rng.shuffle(kinds)
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        round_start = time.perf_counter()
        for is_traced in kinds:
            run_id = f"{workload}-{len(untraced) + len(traced)}"
            r = run_child(workload, trace_out if is_traced else None, run_id)
            r["run_id"] = run_id
            (traced if is_traced else untraced).append(r)
            print(f"{workload} {'traced' if is_traced else 'untraced'} {run_id}: "
                  f"setup {r['setup_s']:.4f} s, verdict {r['verdict_s']:.4f} s, "
                  f"check {r['check_s']:.4f} s, rss {r['rss_mb']:.1f} MB, "
                  f"failed {r['failed']}/{r['attempted']}", file=sys.stderr)
            for target in r.get("missing_targets", []):
                print(f"trace target missing: {target}", file=sys.stderr)
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            break
    return {"untraced": untraced, "traced": traced, "trace_out": trace_out}


def end_to_end(runs: list[dict]) -> dict:
    med = statistics.median
    return {"setup_s": med(r["setup_per_build_s"] for r in runs),
            "verdict_s": med(r["verdict_s"] for r in runs),
            "check_s": med(r["check_s"] for r in runs),
            "peak_rss_mb": med(r["rss_mb"] for r in runs)}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_per_step"):
        return "pairs/step"
    return "count"


def per_layer(workload: str, measured: dict) -> dict:
    runs = tracing.read_runs(str(measured["trace_out"]))
    per_run = [tracing.layer_metrics(runs.get(r["run_id"], []))
               for r in measured["traced"]]
    out = {name: statistics.median(m[name] for m in per_run) for name in per_run[0]}
    untraced_total = statistics.median(phase_total(r) for r in measured["untraced"])
    out["trace.overhead_s"] = (
        statistics.median(phase_total(r) for r in measured["traced"]) - untraced_total)
    self_total = sum(v for n, v in out.items() if n.endswith("_s") and n != "trace.overhead_s")
    print(f"{workload} traced self times sum to {self_total:.4f} s; untraced "
          f"setup+verdict+check {untraced_total:.4f} s; overhead "
          f"{out['trace.overhead_s']:.4f} s", file=sys.stderr)
    return out


def report(workload: str, seconds: float, trace: bool, rng: random.Random) -> dict:
    measured = measure(workload, seconds, trace, rng)
    runs = measured["untraced"] + measured["traced"]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values = per_layer(workload, measured) if trace else end_to_end(measured["untraced"])
    units = {n: layer_unit(n) for n in values} if trace else END_TO_END_UNITS
    for name, value in values.items():
        print(f"{workload} {name} {value:.6g} {units[name]}", file=sys.stderr)
    print(f"{workload} failed_frac {failed / attempted:.6g} "
          f"({failed}/{attempted} operations, {len(runs)} iterations)", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "delsim" / "__init__.py").is_file():
        print(f"delsim sources not found under {SRC}", file=sys.stderr)
        return 2
    rng = random.Random(args.seed)
    print("env " + json.dumps(environment(args.seed)), file=sys.stderr)
    names = [args.workload]
    if args.workload == "all":
        names = list(BENCHMARK_WORKLOADS)
        rng.shuffle(names)
    try:
        for name in names:
            result = report(name, args.seconds, bool(args.trace), rng)
            if args.workload == "all":
                result = {"workload": name, **result}
            print(json.dumps(result), flush=True)
    except (ChildFailed, subprocess.TimeoutExpired) as e:
        print(f"benchmark aborted: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
