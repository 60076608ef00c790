"""Trace shim: spans around calls into delsim's public callables.

The library itself is not instrumented. Instead, a :class:`Tracer` replaces
each target callable at the name its caller resolves (a module global such as
``delsim.obstruction.characteristic_formula``, or a class attribute such as
``SimulationEngine.chain``) with a wrapper that records a span, and puts the
original back on exit. A target that no longer exists is listed in
``Tracer.missing`` instead of raising, so the benchmark keeps running when a
later refactor removes or renames a callable.

Each span records its name, parent span, run id, start and end
(``time.perf_counter`` seconds), the process's ``ru_maxrss`` at its end, and
counts taken from the call's arguments and result. Spans are kept in memory
and written as JSON lines by :meth:`Tracer.write`. :func:`layer_metrics`
turns one run's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import json
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

Counter = Callable[[tuple, dict, Any], dict]


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module:Qual.name`` and the span it records."""

    where: str
    span: str
    counts: Counter | None = None


def _chain_counts(args, kwargs, chain):
    return {"simulation.s0_pairs": chain.steps[0].count,
            "simulation.fixpoint_pairs": chain.fixpoint.count,
            "simulation.chain_steps": len(chain.steps) - 1}


def _dag_nodes(args, kwargs, phi):
    from delsim.logic import dag_size
    return {"obstruction.formula_dag_nodes": dag_size(phi)}


def _modelcheck_counts(args, kwargs, vec):
    from delsim.logic import dag_size
    return {"logic.modelcheck_calls": 1,
            "logic.modelcheck_nodes": dag_size(args[1])}


def _action_facets(args, kwargs, made):
    return {"generators.action_facets": getattr(made, "action", made).n_facets}


TARGETS = (
    Target("delsim.generators:snapshot_action", "generators.action", _action_facets),
    Target("delsim.generators:agreement_action", "generators.action", _action_facets),
    Target("delsim.generators:staircase_task", "generators.action", _action_facets),
    Target("delsim.generators:constant_true_protocol", "generators.action",
           _action_facets),
    Target("delsim.generators:input_model", "models.input_model"),
    Target("delsim.generators:product_update", "models.product_update",
           lambda a, k, r: {"models.product_facets": r.model.n_facets}),
    Target("delsim.complexes:ChromaticComplex.adjacency", "complexes.adjacency",
           lambda a, k, r: {"complexes.adjacency_entries": sum(map(len, r))}),
    Target("delsim.simulation:SimulationEngine.__init__", "simulation.engine_init"),
    Target("delsim.simulation:SimulationEngine.chain", "simulation.chain",
           _chain_counts),
    Target("delsim.simulation:SimulationEngine.forth", "simulation.forth",
           lambda a, k, r: {"simulation.forth_calls": 1}),
    Target("delsim.simulation:SimulationEngine.verify", "simulation.verify"),
    Target("delsim.obstruction:characteristic_formula", "obstruction.synth",
           _dag_nodes),
    Target("delsim.obstruction:verify_obstruction", "obstruction.verify"),
    Target("delsim.logic:ModelTable.satisfies", "logic.modelcheck",
           _modelcheck_counts),
    Target("delsim.logic:ModelTable.check", "logic.modelcheck"),
    Target("delsim.logic:to_sexp", "logic.sexp_write",
           lambda a, k, text: {"logic.sexp_bytes": len(text.encode())}),
    Target("delsim.logic:from_sexp", "logic.sexp_read"),
    Target("delsim.case_is2:conflict_relation", "case_is2.conflicts"),
    Target("delsim.case_is2:explicit_sa2_relation", "case_is2.explicit"),
    Target("delsim.serialize:model_to_json", "serialize.dump"),
    Target("delsim.serialize:relation_to_json", "serialize.dump"),
    Target("delsim.serialize:dumps", "serialize.dump",
           lambda a, k, text: {"serialize.json_bytes": len(text.encode())}),
    Target("delsim.serialize:load_json", "serialize.load"),
    Target("delsim.serialize:model_from_json", "serialize.load"),
    Target("delsim.serialize:relation_from_json", "serialize.load"),
)

# Spans whose descendants are charged to them: the Forth evaluation inside
# SimulationEngine.verify is part of the independent re-check, not the chain.
ABSORBING = frozenset({"simulation.verify"})

# Benchmark phases; their self time is time that no module span covers.
PHASES = ("bench.setup", "bench.verdict", "bench.check")

MODULES = ("generators", "models", "complexes", "simulation", "obstruction",
           "logic", "case_is2", "serialize")


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Context manager that installs the wrappers and restores the originals.

    Single-threaded: the open spans form one stack.
    """

    def __init__(self, run_id: str, targets=TARGETS):
        self.run_id = run_id
        self.targets = targets
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record one span; yields a dict the caller may add counts to."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        counts: dict = {}
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append({"run": self.run_id, "id": sid, "parent": parent,
                               "name": name, "start": start, "end": end,
                               "rss_mb": _maxrss_mb(), "counts": counts})

    def _wrap(self, fn, target: Target):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(target.span) as counts:
                result = fn(*args, **kwargs)
                if target.counts is not None:
                    counts.update(target.counts(args, kwargs, result))
            return result
        return traced

    # -- install / restore ---------------------------------------------------

    def __enter__(self) -> "Tracer":
        for target in self.targets:
            module_name, _, qual = target.where.partition(":")
            *owner_path, attr = qual.split(".")
            try:
                owner = importlib.import_module(module_name)
                for part in owner_path:
                    owner = getattr(owner, part)
            except (ImportError, AttributeError):
                self.missing.append(target.where)
                continue
            raw = owner.__dict__.get(attr) if isinstance(owner, type) \
                else getattr(owner, attr, None)
            if isinstance(raw, functools.cached_property):
                wrapped = functools.cached_property(self._wrap(raw.func, target))
                wrapped.__set_name__(owner, attr)
            elif callable(raw):
                wrapped = self._wrap(raw, target)
            else:
                self.missing.append(target.where)
                continue
            self._restore.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def write(self, path: str) -> None:
        """Append this run's spans as JSON lines, in start order."""
        with open(path, "a", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps(s) + "\n")


def read_runs(path: str) -> dict[str, list[dict]]:
    """Spans of a JSONL trace file grouped by run id."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            runs.setdefault(span["run"], []).append(span)
    return runs


def layer_metric_names() -> list[str]:
    """Every per-layer metric :func:`layer_metrics` reports, in order."""
    names = list(dict.fromkeys(t.span + "_s" for t in TARGETS))
    names += ["generators.action_facets", "models.product_facets",
              "complexes.adjacency_entries", "simulation.forth_calls",
              "simulation.s0_pairs", "simulation.fixpoint_pairs",
              "simulation.chain_steps", "simulation.pairs_removed_per_step",
              "obstruction.formula_dag_nodes", "logic.modelcheck_calls",
              "logic.modelcheck_nodes", "logic.sexp_bytes",
              "serialize.json_bytes"]
    names += [m + ".rss_mb" for m in MODULES]
    names += ["trace.unattributed_s", "trace.overhead_s"]
    return names


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one run, without ``trace.overhead_s``.

    ``<span>_s`` is the summed self time of that span name: duration minus
    the time covered by child spans, with the descendants of an absorbing
    span charged to it. Counts are summed, except over descendants of an
    absorbing span. ``<module>.rss_mb`` is ``ru_maxrss`` at the end of the
    module's last span. ``trace.unattributed_s`` is the self time of the
    benchmark's phase spans. A layer that was never called reports 0.
    """
    out = {name: 0.0 for name in layer_metric_names()}
    del out["trace.overhead_s"]
    child_time: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) \
                + s["end"] - s["start"]
    charge: dict[int, str] = {}
    last_end: dict[str, tuple[float, float]] = {}
    for s in sorted(spans, key=lambda s: s["id"]):
        owner = charge.get(s["parent"])
        absorbed = owner in ABSORBING
        charge[s["id"]] = owner if absorbed else s["name"]
        own = s["end"] - s["start"] - child_time.get(s["id"], 0.0)
        key = "trace.unattributed_s" if charge[s["id"]] in PHASES \
            else charge[s["id"]] + "_s"
        out[key] += own
        if not absorbed:
            for name, value in s["counts"].items():
                out[name] += value
        module = s["name"].split(".")[0]
        if module in MODULES and s["end"] >= last_end.get(module, (-1.0, 0))[0]:
            last_end[module] = (s["end"], s["rss_mb"])
    for module, (_, rss) in last_end.items():
        out[module + ".rss_mb"] = rss
    steps = out["simulation.chain_steps"]
    if steps:
        out["simulation.pairs_removed_per_step"] = \
            (out["simulation.s0_pairs"] - out["simulation.fixpoint_pairs"]) / steps
    return out
