"""The two-round snapshot vs 2-set-agreement case study.

Three agents run two rounds of immediate snapshots; the task is 2-set
agreement over the inputs {0, 1, 2}. The hand-built D-simulation below is
total, which certifies (jointly with the engine's fixpoint) that no
distributed-knowledge obstruction exists. Its third clause consults, per
ordered agent pair, a "conflict" relation R^{p,q} over protocol vertices:
pairs reachable by an edge-path construction along which both endpoints
deciding inputs p and q respectively would violate agreement.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .generators import AgreementRun, SnapshotRun, view_agents, view_values
from .simulation import Relation


@dataclass
class ConflictRelation:
    """Directed vertex pairs built in layers: the seed layer holds co-facet
    pairs (x, y) where x's view misses p or y's view misses q; each later
    layer closes under two-step paths through a common facet. ``final`` drops
    the seed layer, keeping only genuinely derived pairs."""

    p: int
    q: int
    layers: tuple[frozenset, ...]
    final: frozenset

    @property
    def stabilized_at(self) -> int:
        return len(self.layers) - 1

    def layer_sizes(self) -> list[int]:
        return [len(l) for l in self.layers]


def _require_case(snap: SnapshotRun) -> None:
    ws = snap.workspace
    if ws.n_agents != 3 or tuple(ws.values) != (0, 1, 2):
        raise UsageError("case study needs 3 agents with values (0, 1, 2)")
    if snap.protocol.rounds != 2:
        raise UsageError("case study needs the two-round snapshot protocol")


def conflict_relation(snap: SnapshotRun, p: int, q: int) -> ConflictRelation:
    _require_case(snap)
    if not 0 <= p < q <= 2:
        raise UsageError(f"need agents p < q, got {p}, {q}")
    model = snap.model
    n_vertices = len(model.complex.vertices)
    misses_p = np.zeros(n_vertices, dtype=bool)
    misses_q = np.zeros(n_vertices, dtype=bool)
    for v in range(n_vertices):
        agents = view_agents(snap.vertex_info(v)[2])
        misses_p[v] = p not in agents
        misses_q[v] = q not in agents

    seed: set[tuple[int, int]] = set()
    for f in model.facets:
        for x, y in itertools.permutations(f.vertices, 2):
            if misses_p[x] or misses_q[y]:
                seed.add((x, y))

    layers = [frozenset(seed)]
    current = set(seed)
    while True:
        added = set()
        for f in model.facets:
            for x, z, y in itertools.permutations(f.vertices, 3):
                if (x, y) not in current and (x, z) in current and (z, y) in current:
                    added.add((x, y))
        if not added:
            break
        current |= added
        layers.append(frozenset(current))
    return ConflictRelation(p, q, tuple(layers), frozenset(current - seed))


def initial_block_facets(snap: SnapshotRun, agent: int) -> frozenset:
    """Facets generated by a schedule whose first round starts with a stage
    containing ``agent`` (the agent writes before seeing anyone else's
    round-one snapshot)."""
    _require_case(snap)
    out = set()
    for t in range(snap.model.n_facets):
        for _, gammas in snap.facet_schedules(t):
            if agent in gammas[0].chain[0]:
                out.add(t)
                break
    return frozenset(out)


def explicit_sa2_relation(snap: SnapshotRun, agree: AgreementRun,
                          conflicts: dict | None = None) -> Relation:
    """The hand-built total D-simulation onto 2-set agreement.

    Relates a protocol facet to an output facet when (1) inputs agree,
    (2) each agent decides a value its view has seen, and (3) for every
    ordered agent pair related by a conflict relation R^{p,q} (on facets with
    pairwise distinct inputs) the two decisions avoid the (input of p,
    input of q) combination.
    """
    _require_case(snap)
    if agree.task.k != 2:
        raise UsageError("case study pairs with the 2-set agreement task")
    if snap.workspace != agree.workspace:
        raise UsageError("runs use different workspaces")
    if conflicts is None:
        conflicts = {(p, q): conflict_relation(snap, p, q)
                     for p, q in itertools.combinations(range(3), 2)}

    by_inputs: dict[tuple, list[int]] = {}
    for j in range(agree.model.n_facets):
        by_inputs.setdefault(agree.run.facet_inputs[j], []).append(j)

    pairs = []
    for i, facet in enumerate(snap.model.facets):
        inputs = snap.run.facet_inputs[i]
        seen = [view_values(snap.vertex_info(v)[2]) for v in facet.vertices]
        forbidden: list[tuple[int, int, int, int]] = []  # (a, b, i_p, i_q)
        if len(set(inputs)) == 3:
            for a, b in itertools.permutations(range(3), 2):
                for (p, q), rel in conflicts.items():
                    if (facet.vertices[a], facet.vertices[b]) in rel.final:
                        forbidden.append((a, b, inputs[p], inputs[q]))
        for j in by_inputs.get(inputs, ()):
            decisions = agree.facet_decisions(j)
            if not all(decisions[a] in seen[a] for a in range(3)):
                continue
            if any(decisions[a] == ip and decisions[b] == iq
                   for a, b, ip, iq in forbidden):
                continue
            pairs.append((i, j))
    return Relation.from_pairs((snap.model.n_facets, agree.model.n_facets), pairs)


def location_violations(snap: SnapshotRun, rel: ConflictRelation) -> list[tuple[int, int]]:
    """Derived conflict pairs that, contrary to the location property, do
    co-occur in a facet of either agent's initial-block subcomplex."""
    in_sub = {a: initial_block_facets(snap, a) for a in (rel.p, rel.q)}
    cofacets: dict[frozenset, set[int]] = {}
    for f in snap.model.facets:
        for x, y in itertools.combinations(f.vertices, 2):
            cofacets.setdefault(frozenset((x, y)), set()).add(f.index)
    bad = []
    for (x, y) in sorted(rel.final):
        owners = cofacets.get(frozenset((x, y)), set())
        if owners & in_sub[rel.p] or owners & in_sub[rel.q]:
            bad.append((x, y))
    return bad


def everyone_decides_input_of(agree: AgreementRun, agent: int,
                              inputs: tuple) -> int | None:
    """Output facet index where all three agents decide ``inputs[agent]``
    under the given inputs, or None if absent."""
    want = tuple([inputs[agent]] * 3)
    for j in by_input_candidates(agree, inputs):
        if agree.facet_decisions(j) == want:
            return j
    return None


def by_input_candidates(agree: AgreementRun, inputs: tuple) -> list[int]:
    return [j for j in range(agree.model.n_facets)
            if agree.run.facet_inputs[j] == tuple(inputs)]


def conflict_report(rel: ConflictRelation) -> dict:
    return {
        "p": rel.p,
        "q": rel.q,
        "layers": [sorted([list(pair) for pair in layer]) for layer in rel.layers],
        "final": sorted([list(pair) for pair in rel.final]),
    }
