"""The benchmark's own tests, on the tiny smoke workloads.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_benchmark(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=120)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(tmp_path: Path, with_sources: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", tmp_path / "src",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path


@pytest.mark.parametrize("workload", ["smoke-consensus", "smoke-staircase"])
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_output_schema_names_every_metric(workload, trace, section):
    out = last_json(run_benchmark(ROOT, workload, trace))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {name: m["unit"] for name, m in out["metrics"].items()} == want
    for m in out["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in out["metrics"].values())


def test_wrong_reference_counts_as_failed(tmp_path):
    root = copy_checkout(tmp_path, with_sources=True)
    ref_path = root / "perfbench" / "references" / "smoke-consensus.json"
    ref = json.loads(ref_path.read_text())
    assert ref["expected"]["verdict.K"]["step_sizes"] == [18, 14, 10, 6, 2, 0]
    ref["expected"]["verdict.K"]["step_sizes"] = [18, 14, 10, 6, 2, 1]
    ref_path.write_text(json.dumps(ref))
    out = last_json(run_benchmark(root, "smoke-consensus", 0))
    assert out["correct"] is False
    # exactly the verdict operation of each iteration fails
    assert out["failed"] * 3 == out["attempted"]


def test_exception_counts_as_failed():
    def broken(bundles, verdicts):
        raise RuntimeError("boom")
    wl = workloads.WORKLOADS["smoke-staircase"]
    broken_wl = workloads.Workload(wl.name, wl.modes, wl.build, broken)
    result = worker.run_iteration(broken_wl)
    failures = worker.compare(result, worker.load_expected(wl.name))
    assert set(failures) == {"check.K", "check.D"}


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = copy_checkout(tmp_path, with_sources=False)
    proc = run_benchmark(root, "smoke-consensus", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", ["smoke-consensus", "smoke-staircase"])
def test_traced_and_untraced_outputs_identical(name):
    wl = workloads.WORKLOADS[name]
    plain = worker.run_iteration(wl)
    traced = worker.run_iteration(wl, tracing.Tracer("t"))
    assert plain["errors"] == traced["errors"] == {}
    assert plain["outputs"] == traced["outputs"]
    assert worker.compare(traced, worker.load_expected(name)) == {}


def _current(target: tracing.Target):
    module_name, _, qual = target.where.partition(":")
    owner = importlib.import_module(module_name)
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_wrappers_are_removed_and_spans_cover_the_phases():
    before = [_current(t) for t in tracing.TARGETS]
    tracer = tracing.Tracer("t")
    result = worker.run_iteration(workloads.WORKLOADS["smoke-staircase"], tracer)
    assert tracer.missing == []
    assert [_current(t) for t in tracing.TARGETS] == before
    assert isinstance(_current(tracing.TARGETS[6]), functools.cached_property)
    names = {s["name"] for s in tracer.spans}
    assert {"bench.setup", "simulation.chain", "obstruction.synth",
            "logic.sexp_read", "serialize.load"} <= names
    runs = {s["run"] for s in tracer.spans}
    assert runs == {"t"}
    metrics = tracing.layer_metrics(tracer.spans)
    self_total = sum(v for k, v in metrics.items() if k.endswith("_s"))
    phases = result["setup_s"] + result["verdict_s"] + result["check_s"]
    assert 0 < phases - self_total < 0.01 + 0.05 * phases
    assert metrics["simulation.chain_steps"] == 9
    assert metrics["simulation.pairs_removed_per_step"] == 2


def test_missing_target_is_reported_not_raised():
    targets = (tracing.Target("delsim.logic:no_such_function", "logic.x"),
               tracing.Target("delsim.no_such_module:f", "x.y"),
               tracing.Target("delsim.logic:ModelTable.no_such_method", "logic.x"))
    with tracing.Tracer("t", targets) as tracer:
        pass
    assert tracer.missing == [t.where for t in targets]


def test_trace_file_round_trip(tmp_path):
    tracer = tracing.Tracer("run-7")
    with tracer:
        with tracer.span("bench.setup"):
            workloads.WORKLOADS["smoke-consensus"].build()
    path = tmp_path / "t.jsonl"
    tracer.write(str(path))
    runs = tracing.read_runs(str(path))
    assert list(runs) == ["run-7"]
    spans = runs["run-7"]
    root = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in root] == ["bench.setup"]
    assert all(s["parent"] is not None for s in spans if s is not root[0])
