"""Simplicial models, action models, product update, morphisms.

A simplicial model wraps a valid chromatic complex whose vertices are labeled
with input atoms; its facets are the worlds, and two facets are
indistinguishable to agent ``a`` when they share their color-``a`` vertex.
An action model is a complex of the same shape whose facets carry epistemic
preconditions instead of labels; the product update glues a model and an
action along colors, keeping only the pairs where the precondition holds.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .complexes import (ChromaticComplex, Facet, Vertex, first_appearance_ids,
                        validate_complex)
from .errors import UsageError
from .logic import Formula, ModelTable, _shown
from .simulation import Relation, SimulationEngine

Value = int | str


@dataclass(frozen=True)
class Workspace:
    """The ambient signature: agent names and the input value universe.

    Atoms are all pairs (agent index, value); every model in one analysis
    shares a workspace so labels and formulas line up.
    """

    agents: tuple[str, ...]
    values: tuple[Value, ...]

    def __post_init__(self):
        if not self.agents or len(set(self.agents)) != len(self.agents):
            raise UsageError("agents must be nonempty and distinct")
        if not self.values or len(set(self.values)) != len(self.values):
            raise UsageError("values must be nonempty and distinct")
        for v in self.values:
            if type(v) is not int and type(v) is not str:
                raise UsageError(f"values must be int or str, got {v!r}")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def value_set(self) -> frozenset:
        return frozenset(self.values)

    def atom_universe(self) -> list[tuple[int, Value]]:
        """All atoms, ordered by (agent, value position)."""
        return [(a, v) for a in range(self.n_agents) for v in self.values]


def standard_workspace(n_agents: int, values: Sequence[Value] | None = None) -> Workspace:
    """Agents p0..p{n-1}; values default to the agent indices (the standing
    one-value-per-agent-name setup used by the agreement tasks)."""
    if n_agents < 1:
        raise UsageError("need at least one agent")
    vals = tuple(values) if values is not None else tuple(range(n_agents))
    return Workspace(tuple(f"p{i}" for i in range(n_agents)), vals)


class _ComplexCarrier:
    """Shared plumbing: validation and facet access."""

    def __init__(self, workspace: Workspace, complex_: ChromaticComplex, kind: str):
        if complex_.n_agents != workspace.n_agents:
            raise UsageError(
                f"{kind}: complex has {complex_.n_agents} colors, workspace {workspace.n_agents} agents")
        problems = validate_complex(complex_)
        if problems:
            raise UsageError(f"invalid {kind} complex:\n  " + "\n  ".join(problems))
        if complex_.n_facets == 0:
            raise UsageError(f"{kind} has no facets")
        # each distinct label once; the first vertex carrying a bad one is named
        labels = [v.atoms for v in complex_.vertices]
        for atoms in dict.fromkeys(labels):
            for (a, val) in atoms:
                if val not in workspace.value_set:
                    raise UsageError(f"{kind}: vertex {labels.index(atoms)} carries value "
                                     f"{val!r} outside the workspace")
        self.workspace = workspace
        self.complex = complex_

    @property
    def n_facets(self) -> int:
        return self.complex.n_facets

    @property
    def facets(self) -> list[Facet]:
        return self.complex.facets

    @property
    def vertex_table(self) -> np.ndarray:
        """``[n_facets, n_agents]`` ints: entry ``[x, a]`` is facet x's
        color-a vertex."""
        return self.complex.facet_table


class SimplicialModel(_ComplexCarrier):
    def __init__(self, workspace: Workspace, complex_: ChromaticComplex):
        super().__init__(workspace, complex_, "model")
        self._face_classes: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    @cached_property
    def facet_labels(self) -> list[frozenset]:
        atoms = [v.atoms for v in self.complex.vertices]
        return [frozenset().union(*map(atoms.__getitem__, row))
                for row in self.vertex_table.tolist()]

    def label(self, facet: int) -> frozenset:
        return self.facet_labels[facet]

    def face_classes(self, colors) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Group the facets by their face of color set S = ``colors``.

        Returns ``(ids, order, starts)``: ``ids[x]`` is the class of facet x's
        S-face, ``order`` lists the facets sorted by class, and class c is
        ``order[starts[c]:starts[c + 1]]``. Facets sharing their S-face are
        exactly the ones that group S cannot tell apart; for S empty there
        is one class.
        """
        key = tuple(sorted(set(colors)))
        cached = self._face_classes.get(key)
        if cached is None:
            n_agents = self.workspace.n_agents
            for a in key:
                if not 0 <= a < n_agents:
                    raise UsageError(f"agent {_shown(a)} out of range")
            # classes in lexicographic order of the S-face's vertex ids:
            # rank by the first color, then refine by each next color's rank
            ids = np.zeros(self.n_facets, dtype=np.intp)
            for a in key:
                _, rank = np.unique(self.vertex_table[:, a], return_inverse=True)
                _, ids = np.unique(ids * (rank.max() + 1) + rank, return_inverse=True)
            order = np.argsort(ids, kind="stable")
            starts = np.concatenate(([0], np.cumsum(np.bincount(ids))[:-1]))
            cached = (ids, order, starts)
            for arr in cached:
                arr.setflags(write=False)
            self._face_classes[key] = cached
        return cached


class ActionModel(_ComplexCarrier):
    """A chromatic complex with a precondition per facet (vertex labels stay
    empty; knowledge-free of D operators)."""

    def __init__(self, workspace: Workspace, complex_: ChromaticComplex,
                 pre: Sequence[Formula]):
        super().__init__(workspace, complex_, "action")
        for v in complex_.vertices:
            if v.atoms:
                raise UsageError(f"action vertex {v.id} must carry no atoms")
        pre = tuple(pre)
        if len(pre) != complex_.n_facets:
            raise UsageError(
                f"need one precondition per facet ({complex_.n_facets}), got {len(pre)}")
        if set(map(type, pre)) != {Formula}:
            for i, f in enumerate(pre):
                if not isinstance(f, Formula):
                    raise UsageError(f"precondition {i} is not a formula")
        # formulas are interned, so each distinct one is checked once
        for f in dict.fromkeys(pre):
            if f.has_d:
                raise UsageError(f"precondition {pre.index(f)} contains a D operator "
                                 "(preconditions must be D-free)")
        self.pre = pre


def input_model(workspace: Workspace) -> SimplicialModel:
    """The initial-uncertainty model: one vertex per (agent, value), one facet
    per total assignment of values to agents."""
    n, values = workspace.n_agents, workspace.values
    vertices = [Vertex(id=a * len(values) + i, color=a, atoms=frozenset({(a, v)}))
                for a in range(n) for i, v in enumerate(values)]
    facets = [[a * len(values) + combo[a] for a in range(n)]
              for combo in itertools.product(range(len(values)), repeat=n)]
    cx = ChromaticComplex(n, vertices, facets)
    return SimplicialModel(workspace, cx)


@dataclass
class ProductResult:
    """A product-update model plus provenance back into its factors, as
    read-only ``[n, 2]`` int arrays."""

    model: SimplicialModel
    facet_sources: np.ndarray   # product facet -> (model facet, action facet)
    vertex_sources: np.ndarray  # product vertex -> (model vertex, action vertex)


def product_update(model: SimplicialModel, action: ActionModel) -> ProductResult:
    """Glue each model facet X to each action facet T with M, X |= pre(T);
    paired vertices match colors, labels come from the model side."""
    if model.workspace != action.workspace:
        raise UsageError("model and action use different workspaces")
    table = ModelTable(model)
    # formulas are interned: equal is identical, and each is checked once
    distinct = {f: i for i, f in enumerate(dict.fromkeys(action.pre))}
    holds = np.stack([table.satisfies(p) for p in distinct])  # [distinct, facets]
    holds = holds[list(map(distinct.__getitem__, action.pre))]  # [actions, facets]
    xs, ts = np.nonzero(holds.T)  # model facet by model facet
    if not len(xs):
        raise UsageError("product update is empty: no precondition holds anywhere")
    # a product vertex per distinct (model vertex, action vertex) pair
    pairs = np.stack((model.vertex_table[xs], action.vertex_table[ts]), axis=-1).reshape(-1, 2)
    ids, first = first_appearance_ids(pairs)
    facets = ids.reshape(len(xs), -1)
    facet_sources, vertex_sources = np.stack((xs, ts), axis=1), pairs[first]
    for a in (facet_sources, vertex_sources):
        a.setflags(write=False)
    src = [(v.color, v.atoms) for v in model.complex.vertices]
    vertices = [Vertex(i, *src[m]) for i, m in enumerate(vertex_sources[:, 0].tolist())]
    cx = ChromaticComplex(model.workspace.n_agents, vertices, facets)
    return ProductResult(SimplicialModel(model.workspace, cx), facet_sources, vertex_sources)


# ---------------------------------------------------------------------------
# Morphisms

@dataclass(frozen=True)
class Morphism:
    """A vertex map; valid when it preserves colors, labels, and facets."""

    vmap: tuple[int, ...]

    def validate(self, source: SimplicialModel, target: SimplicialModel) -> list[str]:
        return self._checked(source, target)[0]

    def _checked(self, source: SimplicialModel,
                 target: SimplicialModel) -> tuple[list[str], list[int | None]]:
        """The problems, and the facet images when every vertex maps well
        (else an empty list)."""
        problems = []
        if len(self.vmap) != len(source.complex.vertices):
            return [f"vmap covers {len(self.vmap)} vertices, model has "
                    f"{len(source.complex.vertices)}"], []
        tv = target.complex.vertices
        for v, w in enumerate(self.vmap):
            if not 0 <= w < len(tv):
                problems.append(f"vertex {v}: image {w} out of range")
                continue
            sv = source.complex.vertices[v]
            if tv[w].color != sv.color:
                problems.append(f"vertex {v}: color {sv.color} -> {tv[w].color}")
            if tv[w].atoms != sv.atoms:
                problems.append(f"vertex {v}: labels not preserved")
        images = [] if problems else self.facet_images(source, target)
        return problems or [f"facet {i}: image is not a facet"
                            for i, j in enumerate(images) if j is None], images

    def facet_images(self, source: SimplicialModel, target: SimplicialModel) -> list[int | None]:
        """Per source facet, the target facet that is its image, or None.
        A colour-preserving map sends a ``vertex_table`` row, ordered by
        colour, to a row ordered by colour."""
        index = {tuple(row): j for j, row in enumerate(target.vertex_table.tolist())}
        return [index.get(tuple(map(self.vmap.__getitem__, row)))
                for row in source.vertex_table.tolist()]


def graph_of_morphism(f: Morphism, source: SimplicialModel,
                      target: SimplicialModel) -> Relation:
    """Facet-level graph of a (validated) morphism, as a relation."""
    problems, images = f._checked(source, target)
    if problems:
        raise UsageError("not a morphism:\n  " + "\n  ".join(problems))
    return Relation.from_pairs((source.n_facets, target.n_facets), list(enumerate(images)))


def find_morphism(source: SimplicialModel, target: SimplicialModel) -> Morphism | None:
    """Exhaustive backtracking search for a morphism.

    Variables are source facets, domains are target facets; facets sharing
    a vertex must agree on its image. Forward checking plus
    smallest-domain-first selection (degree as tiebreak) keeps the search
    tractable at the scales used here. The search runs on an explicit
    stack, so its depth is not bounded by the recursion limit, and takes
    the next facet from a heap of the free ones, not from a scan of all.

    The domains are the partners in the maximum D-simulation (the D chain's
    fixpoint), and there is no morphism when that is not total: a colour-
    and label-preserving simplicial map sends facets that share their
    S-face to facets that share at least that face, so its facet graph is a
    D-simulation and lies inside the maximum one. No vertex is filtered by
    colour and atoms: validated atoms sit on their own colour's vertex, so
    label-equal facets carry equal atoms colour by colour, and every pair of
    the fixpoint already maps each vertex to one with its colour and atoms.
    """
    if source.workspace != target.workspace:
        raise UsageError("models use different workspaces")
    fixpoint = SimulationEngine(source, target).chain("D").fixpoint
    if not fixpoint.is_total():
        return None
    domains = [fixpoint.partners(i).tolist() for i in range(source.n_facets)]
    src, dst = source.vertex_table.tolist(), target.vertex_table.tolist()
    # owners[v]: the facets holding vertex v, the {a}-class of v's colour a
    owners: dict[int, list[int]] = {}
    for a in range(source.workspace.n_agents):
        _, order, starts = source.face_classes((a,))
        for members in np.split(order, starts[1:]):
            owners[src[members[0]][a]] = members.tolist()
    # degree: how many other facets share a vertex with the facet
    degree = [len(set().union(*map(owners.__getitem__, row))) - 1 for row in src]
    assignment: list[int | None] = [None] * source.n_facets
    vassign: dict[int, int] = {}
    # free facets keyed by (domain size, -degree, index); an entry is stale
    # once its facet is assigned or its domain changes size, and every change
    # pushes a fresh one, so the least live entry is the facet to branch on
    heap = [(len(d), -deg, i) for i, (d, deg) in enumerate(zip(domains, degree))]
    heapq.heapify(heap)

    def consistent(i: int, j: int) -> bool:
        return all(vassign.get(v, w) == w for v, w in zip(src[i], dst[j]))

    def push(k: int) -> None:
        heapq.heappush(heap, (len(domains[k]), -degree[k], k))

    def pick() -> int | None:
        while heap:
            size, _, i = heapq.heappop(heap)
            if assignment[i] is None and len(domains[i]) == size:
                return i
        return None

    def undo(frame: list) -> None:
        i, _, _, newly, trail = frame
        for k, old in trail:
            domains[k] = old
            push(k)
        assignment[i] = None
        for v in newly:
            del vassign[v]

    # depth-first search on an explicit stack; a frame is [facet, its
    # candidates, the next one to try, vertices it bound, domains it pruned].
    # A model has facets, so there is a first facet to branch on.
    first = pick()
    stack = [[first, domains[first], 0, (), ()]]
    while stack:
        frame = stack[-1]
        undo(frame)  # the last candidate's binding (none yet on a new frame)
        i, candidates, pos = frame[:3]
        while pos < len(candidates):
            j = candidates[pos]
            pos += 1
            if not consistent(i, j):
                continue
            newly = [v for v in src[i] if v not in vassign]
            assignment[i] = j
            vassign.update(zip(src[i], dst[j]))
            # forward checking: prune the free facets sharing a newly bound vertex
            touched = {k for v in newly for k in owners[v] if assignment[k] is None}
            trail = [(k, domains[k]) for k in touched]
            for k in touched:
                domains[k] = [jj for jj in domains[k] if consistent(k, jj)]
                push(k)
            frame[2:] = pos, newly, trail
            if all(domains[k] for k in touched):
                break
            undo(frame)
        else:
            stack.pop()
            push(i)
            if not stack:
                return None
            continue
        nxt = pick()
        if nxt is None:
            break
        stack.append([nxt, domains[nxt], 0, (), ()])

    return Morphism(tuple(vassign[v] for v in range(len(source.complex.vertices))))
