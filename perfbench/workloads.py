"""The benchmark's workloads and the outputs checked against references.

Every instance is a fixed case from the paper, so a workload has no random
inputs. A workload runs in three phases, each timed on its own:

* set-up builds the protocol and task models through the public generators;
* verdict runs ``decide_obstruction`` once per mode, cold;
* check is the independent re-check a user runs after the verdict.

The phases call delsim through module attributes (``obstruction.decide_...``)
so that the trace shim's wrappers are the functions that run.
``outputs`` names what each operation produced; ``references/<name>.json``
holds the expected values and where each comes from.
"""

from __future__ import annotations

import hashlib
import io
import itertools
from dataclasses import dataclass
from typing import Callable

from delsim import (case_is2, generators, logic, models, obstruction,
                    serialize, simulation)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verdict_document(verdict) -> str:
    """The canonical JSON that ``delsim obstruct -o verdict.json`` writes."""
    phi_file = "verdict.sexp" if verdict.exists else None
    return serialize.dumps({"format": serialize.VERDICT_FORMAT,
                            **verdict.to_json(phi_file=phi_file)})


def _reload_model(text: str, where: str):
    return serialize.model_from_json(
        serialize.load_json(where, io.StringIO(text)), where=where)


# -- check phases --------------------------------------------------------------

def formula_check(bundles, verdict) -> dict:
    """The ``delsim check`` route: write the obstruction with ``to_sexp``,
    read it back, and model-check it on both models reloaded from JSON: it
    must hold on every task facet and fail at the protocol witness."""
    text = logic.to_sexp(verdict.phi)
    phi = logic.from_sexp(text)
    protocol_text, task_text = (serialize.dumps(serialize.model_to_json(b.model))
                                for b in bundles)
    task = _reload_model(task_text, "task.json")
    protocol = _reload_model(protocol_text, "protocol.json")
    return {"sexp_roundtrip_identical": phi is verdict.phi,
            "task_json_sha256": sha256(task_text),
            "task_valid": bool(logic.ModelTable(task).satisfies(phi).all()),
            "protocol_refutes_at_witness":
                not logic.ModelTable(protocol).check(verdict.witness, phi)}


def formula_checks(bundles, verdicts) -> dict:
    return {f"check.{mode}": formula_check(bundles, v) for mode, v in verdicts.items()}


def sa2_check(bundles, verdicts) -> dict:
    """Conflict closures, the hand-built D-simulation and its verification,
    then a serialize round trip of both models and the relation."""
    snap, agree = bundles
    conflicts = {(p, q): case_is2.conflict_relation(snap, p, q)
                 for p, q in itertools.combinations(range(3), 2)}
    explicit = case_is2.explicit_sa2_relation(snap, agree, conflicts)
    report = simulation.SimulationEngine(snap.model, agree.model).verify(explicit, "D")
    texts = {"protocol.json": serialize.dumps(serialize.model_to_json(snap.model)),
             "task.json": serialize.dumps(serialize.model_to_json(agree.model)),
             "relation.json": serialize.dumps(serialize.relation_to_json(explicit))}
    identical = all(
        serialize.dumps(serialize.model_to_json(_reload_model(texts[name], name)))
        == texts[name] for name in ("protocol.json", "task.json"))
    relation = serialize.relation_from_json(
        serialize.load_json("relation.json", io.StringIO(texts["relation.json"])),
        where="relation.json")
    return {"check": {
        "conflict_final_sizes": [len(conflicts[pq].final) for pq in sorted(conflicts)],
        "explicit_pairs": explicit.count,
        "explicit_total": explicit.is_total(),
        "verify_is_simulation": report.is_simulation,
        "verify_total": report.total,
        "relation_json_sha256": sha256(texts["relation.json"]),
        "roundtrip_identical": identical and relation == explicit}}


# -- workloads -----------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    modes: str
    build: Callable[[], tuple]       # -> (protocol bundle, task bundle), each with .model
    check: Callable[[tuple, dict], dict]


def _snapshot_vs_agreement(n_agents: int, values, rounds: int, k: int):
    def build():
        ws = models.standard_workspace(n_agents, values)
        return generators.snapshot_run(ws, rounds), generators.agreement_run(ws, k)
    return build


def _staircase(n: int):
    def build():
        setup = generators.staircase_setup(n)
        return setup.protocol_run, setup.task_run
    return build


# Staircase depth for staircase-deep: 512 keeps several iterations inside one
# timed run (N=1024 takes about 21 s per iteration on a 2-core box).
STAIRCASE_N = 512

WORKLOADS = {w.name: w for w in (
    Workload("consensus-k", "K", _snapshot_vs_agreement(3, (0, 1), 2, 1),
             formula_checks),
    Workload("sa2-d", "D", _snapshot_vs_agreement(3, (0, 1, 2), 2, 2), sa2_check),
    Workload("staircase-deep", "KD", _staircase(STAIRCASE_N), formula_checks),
    # Tiny instances for the benchmark's own tests.
    Workload("smoke-consensus", "K", _snapshot_vs_agreement(2, (0, 1), 1, 1),
             formula_checks),
    Workload("smoke-staircase", "KD", _staircase(4), formula_checks),
)}


def setup_outputs(bundles) -> dict:
    protocol, task = bundles[0].model, bundles[1].model
    return {"protocol_facets": protocol.n_facets,
            "task_facets": task.n_facets,
            "protocol_json_sha256": sha256(
                serialize.dumps(serialize.model_to_json(protocol)))}


def verdict_outputs(verdict) -> dict:
    return {"exists": verdict.exists,
            "n": verdict.n,
            "witness": verdict.witness,
            "step_sizes": verdict.step_sizes,
            "confirms": verdict.verification.confirms if verdict.exists else None,
            "verdict_json_sha256": sha256(verdict_document(verdict))}
