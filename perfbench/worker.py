"""One iteration of one workload, in a process of its own.

Started by ``run.py`` as ``python worker.py --workload NAME [--trace-out
FILE --run-id ID]``; prints one JSON object on its last stdout line with the
phase times, the process's peak RSS and the operations that failed. A fresh
process per iteration keeps ``ru_maxrss``, the models' lazy indexes and the
global formula table from carrying over, so every verdict is cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

from delsim import obstruction

import tracing
import workloads

REFERENCES = Path(__file__).resolve().parent / "references"
# One set-up takes 15-200 ms, shorter than the spells in which a shared host
# runs this process slower, so set-up is repeated for at least this long and
# reported per build. The models of the last build go on to the verdict.
SETUP_WINDOW_S = 0.5


def load_expected(name: str) -> dict:
    with open(REFERENCES / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)["expected"]


def _no_span(name):
    return nullcontext({})


def run_iteration(workload: workloads.Workload, tracer: tracing.Tracer | None = None) -> dict:
    """Run the three phases once and return their times, outputs and errors.

    An operation that raises is recorded in ``errors`` and produces no
    output; operations that depend on it are skipped and also recorded.
    """
    span = tracer.span if tracer is not None else _no_span
    errors: dict[str, str] = {}
    times = {"setup_s": 0.0, "verdict_s": 0.0, "check_s": 0.0}
    builds, spent = 0, 0.0
    try:
        while spent < SETUP_WINDOW_S:
            t0 = time.perf_counter()
            workload.build()
            spent += time.perf_counter() - t0
            builds += 1
    except Exception:  # left for the recorded build below to report
        pass

    def attempt(phase, op, fn):
        t0 = time.perf_counter()
        try:
            with span(f"bench.{phase}"):
                return fn()
        except Exception as e:  # a failed operation is counted, not fatal
            errors[op] = f"{type(e).__name__}: {e}"
            return None
        finally:
            times[f"{phase}_s"] += time.perf_counter() - t0

    with tracer if tracer is not None else nullcontext():
        bundles = attempt("setup", "setup", workload.build)
        verdicts = {}
        checked = None
        if bundles is not None:
            protocol, task = bundles[0].model, bundles[1].model
            for mode in workload.modes:
                v = attempt("verdict", f"verdict.{mode}",
                            lambda: obstruction.decide_obstruction(protocol, task, mode))
                if v is not None:
                    verdicts[mode] = v
            if verdicts:
                checked = attempt("check", "check", lambda: workload.check(bundles, verdicts))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs: dict = dict(checked or {})
    summaries = [("setup", workloads.setup_outputs, bundles)] if bundles is not None else []
    summaries += [(f"verdict.{mode}", workloads.verdict_outputs, v)
                  for mode, v in verdicts.items()]
    for op, summarize, value in summaries:
        try:
            outputs[op] = summarize(value)
        except Exception as e:
            errors[op] = f"{type(e).__name__}: {e}"
    return {**times,
            "setup_per_build_s": (spent + times["setup_s"]) / (builds + 1),
            "rss_mb": rss_mb, "outputs": outputs, "errors": errors}


def compare(result: dict, expected: dict) -> dict[str, str]:
    """For each expected operation that raised, was skipped or whose outputs
    differ from the reference: why."""
    failures = {}
    for op, want in expected.items():
        got = result["outputs"].get(op)
        if op in result["errors"]:
            failures[op] = f"raised {result['errors'][op]}"
        elif got is None:
            failures[op] = f"not run ({'; '.join(result['errors'].values())})"
        else:
            wrong = [f"{key}: got {got.get(key)!r}, want {value!r}"
                     for key, value in want.items() if got.get(key) != value]
            if wrong:
                failures[op] = "; ".join(wrong)
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--trace-out")
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args(argv)
    expected = load_expected(args.workload)
    tracer = tracing.Tracer(args.run_id) if args.trace_out else None
    result = run_iteration(workloads.WORKLOADS[args.workload], tracer)
    if tracer is not None:
        tracer.write(args.trace_out)
        result["missing_targets"] = tracer.missing
    failures = compare(result, expected)
    for op, why in failures.items():
        print(f"FAILED {args.workload} {op}: {why}"[:2000], file=sys.stderr)
    result.update(attempted=len(expected), failed=len(failures))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
