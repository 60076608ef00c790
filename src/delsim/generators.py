"""Generators for the protocol and task families under study.

Protocols and tasks are produced as action models over a shared workspace,
together with the payload needed to interpret their vertices (snapshot views,
decisions, communication graphs). The ``*_run`` helpers pair a generator with
the input model and its product update, keeping provenance so downstream
analyses can ask "which agent/view/decision does this product vertex carry?".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .complexes import ChromaticComplex, Vertex, first_appearance_ids, intern_ids
from .errors import InternalConsistencyError, UsageError
from .logic import Formula, atom, conj, disj, neg
from .models import (ActionModel, Morphism, ProductResult, SimplicialModel,
                     Value, Workspace, input_model, product_update,
                     standard_workspace)
from .simulation import Relation, SimulationEngine

# ---------------------------------------------------------------------------
# Round schedules

@dataclass(frozen=True)
class OrderedPartition:
    """A concurrency schedule for one round: a strictly increasing chain of
    agent sets ending at the full set. chain[j] collects everyone who has
    written by the j-th step, so earlier agents see less."""

    chain: tuple[frozenset, ...]

    def __post_init__(self):
        if not self.chain or not self.chain[0]:
            raise UsageError("schedule needs a nonempty first stage")
        for a, b in zip(self.chain, self.chain[1:]):
            if not a < b:
                raise UsageError("schedule stages must strictly increase")

    def stage_of(self, agent: int) -> frozenset:
        """Everyone visible to ``agent``: the first stage containing it."""
        for block in self.chain:
            if agent in block:
                return block
        raise UsageError(f"agent {agent} not scheduled")

    def __repr__(self):
        return "(" + " < ".join("{" + ",".join(map(str, sorted(b))) + "}"
                                for b in self.chain) + ")"


def ordered_partitions(n_agents: int) -> list[OrderedPartition]:
    """All schedules over ``n_agents`` agents (1, 3, 13, 75, ... of them)."""
    if n_agents < 1:
        raise UsageError("need at least one agent")
    full = frozenset(range(n_agents))
    out: list[OrderedPartition] = []

    def extend(chain: list[frozenset]):
        cur = chain[-1] if chain else frozenset()
        if cur == full:
            out.append(OrderedPartition(tuple(chain)))
            return
        rest = sorted(full - cur)
        for mask in range(1, 1 << len(rest)):
            step = cur | {rest[b] for b in range(len(rest)) if mask >> b & 1}
            extend(chain + [step])

    extend([])
    return out


# ---------------------------------------------------------------------------
# Immediate-snapshot protocol

@dataclass
class SnapshotProtocol:
    """r rounds of immediate snapshots, as an action model.

    Kept as int arrays. ``view_masks[v]`` holds the bitmasks of the agents
    (bit a for agent a) and of the values (bit i for ``workspace.values[i]``)
    that action vertex v's view mentions. ``facet_of[k]`` is the action facet
    of run k; facets are deduplicated by their vertex sets, so a facet may
    have several runs (for up to three agents and two rounds none has).

    A run is an input assignment and r round schedules. Run k is the
    mixed-radix number ``first_run + k`` over ``radix``: each agent's value
    position (base ``len(values)``), then each round's position in
    ``ordered_partitions(n)``, so runs follow lexicographic (inputs,
    schedules) order. ``first_run`` is 0 over all inputs and the first run
    of the one assignment otherwise. :meth:`runs` decodes a facet's runs on
    demand.
    """

    rounds: int
    action: ActionModel
    view_masks: np.ndarray = field(repr=False, compare=False)
    facet_of: np.ndarray = field(repr=False, compare=False)
    radix: tuple[int, ...]
    first_run: int = 0

    @cached_property
    def partitions(self) -> list[OrderedPartition]:
        return ordered_partitions(self.action.workspace.n_agents)

    @cached_property
    def _by_facet(self) -> tuple[np.ndarray, np.ndarray]:
        """The run indices sorted stably by facet, and each facet's start."""
        order = np.argsort(self.facet_of, kind="stable")
        return order, np.concatenate(([0], np.cumsum(np.bincount(self.facet_of))))

    def run_digits(self, runs: np.ndarray) -> np.ndarray:
        """Per run in ``runs``, its digits over ``radix`` as a row."""
        return np.stack(np.unravel_index(runs + self.first_run, self.radix), axis=-1)

    def runs(self, facet: int) -> tuple[tuple[tuple, tuple], ...]:
        """The (inputs, schedules) of every run of action facet ``facet``, in
        run order."""
        order, start = self._by_facet
        ws, parts = self.action.workspace, self.partitions
        n = ws.n_agents
        return tuple((tuple(ws.values[i] for i in row[:n]), tuple(parts[g] for g in row[n:]))
                     for row in self.run_digits(order[start[facet]:start[facet + 1]]).tolist())


def snapshot_action(workspace: Workspace, rounds: int,
                    inputs: Sequence[Value] | None = None) -> SnapshotProtocol:
    """Build the r-round snapshot action. ``inputs`` restricts generation to a
    single input assignment (for figure-scale runs); default is all of them.

    Built round by round, as the iterated chromatic subdivision, one int
    table per round. ``runs`` holds each run's vertex ids by agent, runs in
    the order :class:`SnapshotProtocol` numbers them. Round r has a key row
    per (run of r-1 rounds, schedule, agent), in that order: the agent, then
    each agent's round-(r-1) id where that agent is in its stage, -1
    elsewhere. Interning the rows by first appearance gives the round's
    vertex ids, and at the last round interning the runs' rows gives the
    facets. Each new vertex's view masks are built once, from its first
    row: its own agent and input bits at round 0, later the OR of its stage
    members' masks. Vertex and facet ids follow first appearance in (inputs,
    schedules, agent) order. What is kept is the action, the masks and each
    run's facet; no view or schedule is built per vertex or per facet.
    """
    if rounds < 1:
        raise UsageError("need at least one round")
    n = workspace.n_agents
    if inputs is not None:
        inputs = tuple(inputs)
        if len(inputs) != n or any(v not in workspace.value_set for v in inputs):
            raise UsageError(f"inputs must assign a workspace value to each of {n} agents")
        assignments = [inputs]
    else:
        assignments = list(itertools.product(workspace.values, repeat=n))
    parts = ordered_partitions(n)
    # in_stage[g, a, p]: p is in a's stage of schedule g
    in_stage = np.array([[[p in g.stage_of(a) for p in range(n)] for a in range(n)]
                         for g in parts])
    agents = np.arange(n)

    # round 0: a vertex per (agent, input), keyed by the value's position;
    # masks[v] is the current round's vertex v's (agents, values) bitmasks
    position = {v: i for i, v in enumerate(workspace.values)}
    values = np.array([[position[v] for v in inp] for inp in assignments], dtype=np.intp)
    keys = np.stack((np.broadcast_to(agents, values.shape), values), axis=-1).reshape(-1, 2)
    ids, first = first_appearance_ids(keys)
    masks = np.left_shift(1, keys[first], dtype=np.int64)
    runs = ids.reshape(-1, n)
    for _ in range(rounds):
        keys = np.full((len(runs), len(parts), n, n + 1), -1, dtype=np.intp)
        keys[..., 0] = agents
        np.copyto(keys[..., 1:], runs[:, None, None, :], where=in_stage)
        keys = keys.reshape(-1, n + 1)
        ids, first = first_appearance_ids(keys)
        # a -1 (not in the stage) reads the zero row appended last
        masks = np.bitwise_or.reduce(np.vstack((masks, [0, 0]))[keys[first, 1:]], axis=1)
        runs = ids.reshape(-1, n)

    facet_of, first_run = first_appearance_ids(runs)
    per_input = len(runs) // len(assignments)
    phis = [conj([atom(a, inp[a]) for a in range(n)]) for inp in assignments]
    pre = list(map(phis.__getitem__, (first_run // per_input).tolist()))
    action = ActionModel(workspace, _action_complex(n, keys[first, :1].tolist(), runs[first_run]),
                         pre)
    radix = (len(workspace.values),) * n + (len(parts),) * rounds
    # over all inputs, the first assignment's digits are all zero
    first_input = int(np.ravel_multi_index(values[0], radix[:n]))
    return SnapshotProtocol(rounds, action, masks, facet_of, radix, first_input * per_input)


def _action_complex(n: int, vertex_keys: Iterable[tuple], facets) -> ChromaticComplex:
    """An action complex: vertex i has color ``vertex_keys[i][0]``, no atoms."""
    no_atoms = frozenset()
    vertices = [Vertex(i, key[0], no_atoms) for i, key in enumerate(vertex_keys)]
    return ChromaticComplex(n, vertices, facets)


# ---------------------------------------------------------------------------
# k-set agreement task

@dataclass
class AgreementTask:
    """Everyone decides an input value; at most k distinct decisions. The
    precondition only asks that each decided value was someone's input."""

    k: int
    action: ActionModel
    vertex_data: tuple[tuple[int, Value], ...]          # (agent, decision)
    facet_decisions: tuple[tuple[Value, ...], ...]      # per facet, by agent


def agreement_action(workspace: Workspace, k: int) -> AgreementTask:
    n = workspace.n_agents
    if not 1 <= k <= n:
        raise UsageError(f"k must be within 1..{n}, got {k}")
    vertex_ids: dict[tuple[int, Value], int] = {}
    facets: list[list[int]] = []
    pre: list[Formula] = []
    decisions: list[tuple[Value, ...]] = []
    someone_has = {v: disj([atom(b, v) for b in range(n)]) for v in workspace.values}
    for decide in itertools.product(workspace.values, repeat=n):
        if len(set(decide)) > k:
            continue
        facets.append(intern_ids(enumerate(decide), vertex_ids))
        decisions.append(decide)
        pre.append(conj([someone_has[d] for d in decide]))
    action = ActionModel(workspace, _action_complex(n, vertex_ids, facets), pre)
    return AgreementTask(k, action, tuple(vertex_ids), tuple(decisions))


# ---------------------------------------------------------------------------
# Communication graphs and the know-all protocol

@dataclass(frozen=True)
class DiGraph:
    """A directed communication graph; self-loops are mandatory (every agent
    hears itself)."""

    n: int
    edges: frozenset

    def __post_init__(self):
        for (p, q) in self.edges:
            if not (0 <= p < self.n and 0 <= q < self.n):
                raise UsageError(f"edge ({p}, {q}) out of range")
        for p in range(self.n):
            if (p, p) not in self.edges:
                raise UsageError(f"missing self-loop at {p}")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "DiGraph":
        return cls(n, frozenset((int(p), int(q)) for p, q in edges))


def in_neighbors(g: DiGraph, p: int) -> frozenset:
    return frozenset(q for (pp, q) in g.edges if pp == p)


def out_neighbors(g: DiGraph, p: int) -> frozenset:
    return frozenset(q for (q, pp) in g.edges if pp == p)


def compose(h: DiGraph, g: DiGraph) -> DiGraph:
    """Two-round composition (g first, then h): p reaches q when someone
    p hears from in g is heard by q in h."""
    if h.n != g.n:
        raise UsageError("graphs have different agent counts")
    edges = frozenset((p, q) for p in range(g.n) for q in range(g.n)
                      if out_neighbors(g, p) & in_neighbors(h, q))
    return DiGraph(g.n, edges)


def compose_rounds(graphs: Sequence[DiGraph], rounds: int) -> DiGraph:
    if rounds < 1 or len(graphs) < rounds:
        raise UsageError(f"need >= {max(rounds, 1)} graphs, got {len(graphs)}")
    acc = graphs[0]
    for g in graphs[1:rounds]:
        acc = compose(g, acc)
    return acc


def domination_number(g: DiGraph) -> int:
    """Minimum size of an agent set whose outputs cover everyone."""
    everyone = frozenset(range(g.n))
    for size in range(1, g.n + 1):
        for ps in itertools.combinations(range(g.n), size):
            if frozenset().union(*(out_neighbors(g, p) for p in ps)) == everyone:
                return size
    raise InternalConsistencyError("self-loops guarantee domination by all agents")


@dataclass
class KnowAllProtocol:
    """r rounds of message exchange along fixed graphs, collapsed to the
    effective graph; each agent ends up seeing the inputs of its effective
    in-neighborhood."""

    graphs: tuple[DiGraph, ...]
    rounds: int
    effective: DiGraph
    action: ActionModel
    vertex_data: tuple[tuple[int, Value, frozenset], ...]


def knowall_action(workspace: Workspace, graphs: Sequence[DiGraph],
                   rounds: int) -> KnowAllProtocol:
    n = workspace.n_agents
    for g in graphs:
        if g.n != n:
            raise UsageError("graph size does not match workspace")
    eff = compose_rounds(graphs, rounds)
    hears = [in_neighbors(eff, a) for a in range(n)]

    vertex_ids: dict[tuple[int, Value, frozenset], int] = {}
    facets: list[list[int]] = []
    pre: list[Formula] = []
    for inp in itertools.product(workspace.values, repeat=n):
        facets.append(intern_ids([(a, inp[a], frozenset((p, inp[p]) for p in hears[a]))
                                  for a in range(n)], vertex_ids))
        pre.append(conj([atom(a, inp[a]) for a in range(n)]))
    action = ActionModel(workspace, _action_complex(n, vertex_ids, facets), pre)
    return KnowAllProtocol(tuple(graphs[:rounds]), rounds, eff, action, tuple(vertex_ids))


# ---------------------------------------------------------------------------
# Staircase task (a finite slice of an unbounded-decision task)

@dataclass
class StaircaseTask:
    max_decision: int
    action: ActionModel
    facet_decisions: tuple[tuple[int, int], ...]


def staircase_task(max_decision: int) -> StaircaseTask:
    """Two agents decide naturals with 0 <= d0 - d1 <= 1; the precondition
    ties each decision's parity to that agent's input bit. Decisions are
    truncated to 0..max_decision, so the top facet has no successor."""
    if max_decision < 1:
        raise UsageError("max_decision must be >= 1")
    ws = standard_workspace(2, (0, 1))
    pairs = []
    for d1 in range(max_decision + 1):
        for d0 in (d1, d1 + 1):
            if d0 <= max_decision:
                pairs.append((d0, d1))
    pairs.sort(key=lambda p: (p[0] + p[1], p[0]))

    vertex_ids: dict[tuple[int, int], int] = {}
    facets = [intern_ids(((0, d0), (1, d1)), vertex_ids) for d0, d1 in pairs]
    pre = [conj([atom(0, d0 % 2), atom(1, d1 % 2)]) for d0, d1 in pairs]
    action = ActionModel(ws, _action_complex(2, vertex_ids, facets), pre)
    return StaircaseTask(max_decision, action, tuple(pairs))


def constant_true_protocol(workspace: Workspace) -> ActionModel:
    """The do-nothing protocol: a single facet whose precondition always
    holds, so the product is the input model itself."""
    n = workspace.n_agents
    vertices = [Vertex(id=a, color=a, atoms=frozenset()) for a in range(n)]
    p = atom(0, workspace.values[0])
    top = disj([p, neg(p)])
    cx = ChromaticComplex(n, vertices, [list(range(n))])
    return ActionModel(workspace, cx, [top])


# ---------------------------------------------------------------------------
# Run bundles: input model x action, with provenance helpers

@dataclass
class ModelRun:
    """An action applied to the full input model over its workspace."""

    workspace: Workspace
    input: SimplicialModel
    action: ActionModel
    result: ProductResult

    @property
    def model(self) -> SimplicialModel:
        return self.result.model

    def action_vertex(self, product_vertex: int) -> int:
        return int(self.result.vertex_sources[product_vertex, 1])

    def action_facet(self, product_facet: int) -> int:
        return int(self.result.facet_sources[product_facet, 1])

    @cached_property
    def facet_inputs(self) -> list[tuple[Value, ...]]:
        """Per product facet, the input values of agents 0..n-1."""
        return [tuple(v for _, v in sorted(self.model.label(t)))
                for t in range(self.model.n_facets)]


def _run(workspace: Workspace, action: ActionModel) -> ModelRun:
    inp = input_model(workspace)
    return ModelRun(workspace, inp, action, product_update(inp, action))


@dataclass
class SnapshotRun:
    protocol: SnapshotProtocol
    run: ModelRun

    @property
    def model(self) -> SimplicialModel:
        return self.run.model

    @property
    def workspace(self) -> Workspace:
        return self.run.workspace

    def facet_schedules(self, product_facet: int):
        """The (inputs, schedules) runs of a product facet's action facet."""
        return self.protocol.runs(self.run.action_facet(product_facet))

    @cached_property
    def view_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """Per product vertex, the bitmasks of the agents and of the values
        its view mentions (``SnapshotProtocol.view_masks``)."""
        if len(self.workspace.values) > 64:
            raise UsageError("view masks hold at most 64 values")
        table = self.protocol.view_masks[self.run.result.vertex_sources[:, 1]]
        return table[:, 0], table[:, 1]


def snapshot_run(workspace: Workspace, rounds: int,
                 inputs: Sequence[Value] | None = None) -> SnapshotRun:
    proto = snapshot_action(workspace, rounds, inputs)
    return SnapshotRun(proto, _run(workspace, proto.action))


@dataclass
class AgreementRun:
    task: AgreementTask
    run: ModelRun

    @property
    def model(self) -> SimplicialModel:
        return self.run.model

    @property
    def workspace(self) -> Workspace:
        return self.run.workspace

    def facet_decisions(self, product_facet: int) -> tuple[Value, ...]:
        return self.task.facet_decisions[self.run.action_facet(product_facet)]


def agreement_run(workspace: Workspace, k: int) -> AgreementRun:
    task = agreement_action(workspace, k)
    return AgreementRun(task, _run(workspace, task.action))


@dataclass
class KnowAllRun:
    protocol: KnowAllProtocol
    run: ModelRun

    @property
    def model(self) -> SimplicialModel:
        return self.run.model

    def vertex_info(self, product_vertex: int) -> tuple[int, Value, frozenset]:
        return self.protocol.vertex_data[self.run.action_vertex(product_vertex)]


def knowall_run(workspace: Workspace, graphs: Sequence[DiGraph],
                rounds: int) -> KnowAllRun:
    proto = knowall_action(workspace, graphs, rounds)
    return KnowAllRun(proto, _run(workspace, proto.action))


@dataclass
class StaircaseSetup:
    """Both sides of the staircase question: the do-nothing protocol's model
    and the truncated task's model."""

    task: StaircaseTask
    protocol_run: ModelRun
    task_run: ModelRun


def staircase_setup(max_decision: int) -> StaircaseSetup:
    task = staircase_task(max_decision)
    ws = task.action.workspace
    return StaircaseSetup(task,
                          _run(ws, constant_true_protocol(ws)),
                          _run(ws, task.action))


# ---------------------------------------------------------------------------
# Hand-built relations and morphisms for the agreement cases

def explicit_agreement_relation(snap: SnapshotRun, agree: AgreementRun) -> Relation:
    """The by-construction K-simulation from snapshot runs to agreement
    outputs: inputs agree, and every decision is a value the deciding agent's
    view has seen.

    Read as masks over the label-equal pairs (for runs over the input model,
    equal labels are equal inputs), with each view's values as a bitmask
    indexed by the decision."""
    if snap.workspace != agree.workspace:
        raise UsageError("runs use different workspaces")
    s0 = SimulationEngine(snap.model, agree.model).initial_relation()
    index = {v: i for i, v in enumerate(snap.workspace.values)}
    decide = np.array([[index[v] for v in agree.facet_decisions(j)]
                       for j in range(agree.model.n_facets)], dtype=np.int64)
    _, seen = snap.view_masks
    table = snap.model.vertex_table
    ok = np.ones(s0.count, dtype=bool)
    for a in range(snap.workspace.n_agents):
        ok &= (seen[table[s0.xs, a]] >> decide[s0.js, a] & 1) == 1
    return Relation._sorted(s0.dims, s0.xs[ok], s0.js[ok])


def decide_own_input_morphism(snap: SnapshotRun, agree: AgreementRun) -> Morphism:
    """Map each snapshot vertex of color a and input atom (a, i) to the output
    vertex where a decides its own input. A morphism only when k equals the
    agent count."""
    if snap.workspace != agree.workspace:
        raise UsageError("runs use different workspaces")
    target: dict[tuple[int, Value, Value], int] = {}
    for pid, act_v in enumerate(agree.run.result.vertex_sources[:, 1].tolist()):
        a, d = agree.task.vertex_data[act_v]
        (i,) = [val for (_, val) in agree.model.complex.vertices[pid].atoms]
        target[(a, i, d)] = pid
    vmap = []
    for vertex in snap.model.complex.vertices:
        ((a, i),) = vertex.atoms
        if (a, i, i) not in target:
            raise UsageError(f"target has no vertex for agent {a} deciding {i!r}")
        vmap.append(target[(a, i, i)])
    return Morphism(tuple(vmap))


def round_prefix_morphism(src: SnapshotRun, dst: SnapshotRun) -> Morphism:
    """Forget later rounds: send the run of (g_1..g_r) to the run of its
    prefix (g_1..g_s), vertex-wise by color. Well defined because an r-round
    view determines every prefix view.

    Read in bulk: each source facet's first run keeps its value digits and
    its first s schedule digits. They give the target run, its action facet
    and the product facet over that."""
    if src.workspace != dst.workspace:
        raise UsageError("runs use different workspaces")
    s = dst.protocol.rounds
    if not s < src.protocol.rounds:
        raise UsageError("target must have strictly fewer rounds")
    _, first = np.unique(src.protocol.facet_of, return_index=True)
    digits = src.protocol.run_digits(first[src.run.result.facet_sources[:, 1]])
    runs = np.ravel_multi_index(digits[:, :src.workspace.n_agents + s].T, dst.protocol.radix) \
        - dst.protocol.first_run
    if ((runs < 0) | (runs >= len(dst.protocol.facet_of))).any():
        raise UsageError("target run does not cover the source inputs")
    # each action facet lies under one product facet: its inputs' facet
    over = np.argsort(dst.run.result.facet_sources[:, 1])
    xs = src.model.vertex_table.ravel()
    ys = dst.model.vertex_table[over[dst.protocol.facet_of[runs]]].ravel()
    vmap = np.zeros(len(src.model.complex.vertices), dtype=np.int64)
    vmap[xs] = ys
    bad = xs[vmap[xs] != ys]
    if len(bad):
        raise InternalConsistencyError(f"prefix map sends vertex {bad[0]} to two vertices")
    return Morphism(tuple(vmap.tolist()))
