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
from functools import cached_property

import numpy as np

from .errors import UsageError
from .generators import AgreementRun, SnapshotRun, explicit_agreement_relation
from .simulation import Relation, _find


@dataclass(eq=False)
class ConflictRelation:
    """Directed vertex pairs built in layers: the seed layer holds co-facet
    pairs (x, y) where x's view misses p or y's view misses q; each later
    layer closes under two-step paths through a common facet. ``final`` drops
    the seed layer, keeping only genuinely derived pairs.

    Stored as the sorted keys ``x * n_vertices + y`` of the last layer's
    pairs and, per key, the first layer holding it; ``layers`` and ``final``
    build the pair sets on first read."""

    p: int
    q: int
    n_vertices: int
    keys: np.ndarray
    joined: np.ndarray

    @property
    def stabilized_at(self) -> int:
        return int(self.joined.max()) if len(self.joined) else 0

    def layer_sizes(self) -> list[int]:
        return np.cumsum(np.bincount(self.joined, minlength=self.stabilized_at + 1)).tolist()

    def pairs(self, layer: int | None = None) -> np.ndarray:
        """The pairs of one layer (default: ``final``) as a sorted ``[n, 2]``
        array."""
        keep = self.joined > 0 if layer is None else self.joined <= layer
        return np.stack(np.divmod(self.keys[keep], self.n_vertices), axis=1)

    @cached_property
    def layers(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(map(tuple, self.pairs(k).tolist()))
                     for k in range(self.stabilized_at + 1))

    @cached_property
    def final(self) -> frozenset:
        return frozenset(map(tuple, self.pairs().tolist()))

    @property
    def final_keys(self) -> np.ndarray:
        return self.keys[self.joined > 0]


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
    table = model.vertex_table.astype(np.int64)
    # every facet's ordered vertex pairs, as indices into their sorted keys
    cols = list(itertools.permutations(range(table.shape[1]), 2))
    keys, at = np.unique(
        np.stack([table[:, a] * n_vertices + table[:, b] for a, b in cols], axis=1).ravel(),
        return_inverse=True)
    at = at.reshape(len(table), len(cols))
    col = {ab: k for k, ab in enumerate(cols)}
    # the two-step paths x -> z -> y inside each facet
    paths = list(itertools.permutations(range(table.shape[1]), 3))
    xz = np.concatenate([at[:, col[x, z]] for x, z, _ in paths])
    zy = np.concatenate([at[:, col[z, y]] for _, z, y in paths])
    xy = np.concatenate([at[:, col[x, y]] for x, _, y in paths])

    agents, _ = snap.view_masks
    current = ((agents[keys // n_vertices] >> p & 1) == 0) \
        | ((agents[keys % n_vertices] >> q & 1) == 0)
    joined = np.where(current, 0, -1)
    layer = 0
    while True:
        # every path is read against the layer as it was at the round's start
        added = xy[current[xz] & current[zy] & ~current[xy]]
        if not len(added):
            break
        layer += 1
        current[added] = True
        joined[added] = layer
    return ConflictRelation(p, q, n_vertices, keys[current], joined[current])


def initial_block_facets(snap: SnapshotRun, agent: int) -> frozenset:
    """Facets generated by a schedule whose first round starts with a stage
    containing ``agent`` (the agent writes before seeing anyone else's
    round-one snapshot).

    Read from the run table in bulk: a facet is in the block when one of its
    action facet's runs has such a first-round schedule."""
    _require_case(snap)
    proto = snap.protocol
    first_round = proto.run_digits(np.arange(len(proto.facet_of)))[:, snap.workspace.n_agents]
    starts = np.array([agent in g.chain[0] for g in proto.partitions])[first_round]
    in_block = np.isin(snap.run.result.facet_sources[:, 1], proto.facet_of[starts])
    return frozenset(np.flatnonzero(in_block).tolist())


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

    # (1) and (2)
    base = explicit_agreement_relation(snap, agree)
    xs, js = base.xs, base.js
    # (3): on facets with pairwise distinct inputs, for each conflict pair of
    # agent a's and agent b's vertices, a must not decide p's input while b
    # decides q's (values as indices, per candidate pair)
    index = {v: i for i, v in enumerate(snap.workspace.values)}
    inputs, decide = (
        np.array([[index[v] for v in row] for row in rows], dtype=np.int64)[js]
        for rows in (agree.run.facet_inputs,
                     [agree.facet_decisions(j) for j in range(agree.model.n_facets)]))
    distinct = ((inputs[:, 0] != inputs[:, 1]) & (inputs[:, 0] != inputs[:, 2])
                & (inputs[:, 1] != inputs[:, 2]))
    table = snap.model.vertex_table.astype(np.int64)
    n_vertices = len(snap.model.complex.vertices)
    ok = np.ones(len(xs), dtype=bool)
    for a, b in itertools.permutations(range(3), 2):
        edge = table[:, a] * n_vertices + table[:, b]
        for (p, q), rel in conflicts.items():
            in_final = _find(rel.final_keys, edge)[1]
            ok &= ~(in_final[xs] & distinct & (decide[:, a] == inputs[:, p])
                    & (decide[:, b] == inputs[:, q]))
    return Relation._sorted(base.dims, xs[ok], js[ok])


def location_violations(snap: SnapshotRun, rel: ConflictRelation) -> list[tuple[int, int]]:
    """Derived conflict pairs that, contrary to the location property, do
    co-occur in a facet of either agent's initial-block subcomplex.

    Read as keys ``x * n_vertices + y``: the ordered vertex pairs of those
    facets' ``vertex_table`` rows, as :func:`conflict_relation` builds
    them, against ``final_keys``."""
    facets = sorted(initial_block_facets(snap, rel.p) | initial_block_facets(snap, rel.q))
    rows = snap.model.vertex_table[facets].astype(np.int64)
    pairs = itertools.permutations(range(rows.shape[1]), 2)
    inside = np.sort(np.concatenate([rows[:, a] * rel.n_vertices + rows[:, b] for a, b in pairs]))
    bad = rel.final_keys[_find(inside, rel.final_keys)[1]]
    return [divmod(key, rel.n_vertices) for key in bad.tolist()]


def conflict_report(rel: ConflictRelation) -> dict:
    return {
        "p": rel.p,
        "q": rel.q,
        "layers": [rel.pairs(k).tolist() for k in range(rel.stabilized_at + 1)],
        "final": rel.pairs().tolist(),
    }
