"""Simplicial models, action models, product update, morphisms.

A simplicial model wraps a valid chromatic complex whose vertices are labeled
with input atoms; its facets are the worlds, and two facets are
indistinguishable to agent ``a`` when they share their color-``a`` vertex.
An action model is a complex of the same shape whose facets carry epistemic
preconditions instead of labels; the product update glues a model and an
action along colors, keeping only the pairs where the precondition holds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .complexes import ChromaticComplex, Facet, Vertex, validate_complex
from .errors import UsageError
from .logic import Formula, ModelTable
from .simulation import Relation

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
            if isinstance(v, bool) or not isinstance(v, (int, str)):
                raise UsageError(f"values must be int or str, got {v!r}")

    @property
    def n_agents(self) -> int:
        return len(self.agents)

    @cached_property
    def value_set(self) -> frozenset:
        return frozenset(self.values)

    def value_index(self, v: Value) -> int:
        try:
            return self.values.index(v)
        except ValueError:
            raise UsageError(f"value {v!r} not in workspace") from None

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
        for v in complex_.vertices:
            for (a, val) in v.atoms:
                if val not in workspace.value_set:
                    raise UsageError(
                        f"{kind}: vertex {v.id} carries value {val!r} outside the workspace")
        self.workspace = workspace
        self.complex = complex_

    @property
    def n_facets(self) -> int:
        return self.complex.n_facets

    @property
    def facets(self) -> list[Facet]:
        return self.complex.facets


class SimplicialModel(_ComplexCarrier):
    def __init__(self, workspace: Workspace, complex_: ChromaticComplex):
        super().__init__(workspace, complex_, "model")
        self._face_classes: dict[tuple[int, ...], tuple[np.ndarray, ...]] = {}

    @cached_property
    def facet_labels(self) -> list[frozenset]:
        cx = self.complex
        return [frozenset().union(*(cx.vertices[v].atoms for v in f.vertices))
                for f in cx.facets]

    def label(self, facet: int) -> frozenset:
        return self.facet_labels[facet]

    @cached_property
    def vertex_table(self) -> np.ndarray:
        """``[n_facets, n_agents]`` ints: entry ``[x, a]`` is facet x's
        color-a vertex."""
        table = np.array([f.vertices for f in self.facets], dtype=np.intp)
        table.setflags(write=False)
        return table

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
                    raise UsageError(f"agent {a} out of range")
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
        if len(pre) != complex_.n_facets:
            raise UsageError(
                f"need one precondition per facet ({complex_.n_facets}), got {len(pre)}")
        for i, f in enumerate(pre):
            if not isinstance(f, Formula):
                raise UsageError(f"precondition {i} is not a formula")
            if f.has_d:
                raise UsageError(
                    f"precondition {i} contains a D operator (preconditions must be D-free)")
        self.pre = tuple(pre)


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
    """A product-update model plus provenance back into its factors."""

    model: SimplicialModel
    facet_sources: list[tuple[int, int]]   # product facet -> (model facet, action facet)
    vertex_sources: list[tuple[int, int]]  # product vertex -> (model vertex, action vertex)


def product_update(model: SimplicialModel, action: ActionModel) -> ProductResult:
    """Glue each model facet X to each action facet T with M, X |= pre(T);
    paired vertices match colors, labels come from the model side."""
    if model.workspace != action.workspace:
        raise UsageError("model and action use different workspaces")
    table = ModelTable(model)
    holds = np.stack([table.satisfies(p) for p in action.pre])  # [actions, facets]

    n = model.workspace.n_agents
    vert_ids: dict[tuple[int, int], int] = {}
    vertex_sources: list[tuple[int, int]] = []
    vertices: list[Vertex] = []
    facets: list[list[int]] = []
    facet_sources: list[tuple[int, int]] = []
    for x, xf in enumerate(model.facets):
        for t in np.flatnonzero(holds[:, x]):
            tf = action.facets[t]
            members = []
            for a in range(n):
                pair = (xf.vertices[a], tf.vertices[a])
                vid = vert_ids.get(pair)
                if vid is None:
                    vid = len(vertices)
                    vert_ids[pair] = vid
                    src = model.complex.vertices[pair[0]]
                    vertices.append(Vertex(id=vid, color=a, atoms=src.atoms))
                    vertex_sources.append(pair)
                members.append(vid)
            facets.append(members)
            facet_sources.append((x, int(t)))
    if not facets:
        raise UsageError("product update is empty: no precondition holds anywhere")
    cx = ChromaticComplex(n, vertices, facets)
    return ProductResult(SimplicialModel(model.workspace, cx), facet_sources, vertex_sources)


# ---------------------------------------------------------------------------
# Morphisms

@dataclass(frozen=True)
class Morphism:
    """A vertex map; valid when it preserves colors, labels, and facets."""

    vmap: tuple[int, ...]

    def apply(self, vertex: int) -> int:
        return self.vmap[vertex]

    def validate(self, source: SimplicialModel, target: SimplicialModel) -> list[str]:
        problems = []
        if len(self.vmap) != len(source.complex.vertices):
            return [f"vmap covers {len(self.vmap)} vertices, model has "
                    f"{len(source.complex.vertices)}"]
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
        if problems:
            return problems
        target_facets = {f.vertices: f.index for f in target.facets}
        for f in source.facets:
            image = tuple(sorted({self.vmap[v] for v in f.vertices},
                                 key=lambda w: (tv[w].color, w)))
            if image not in target_facets:
                problems.append(f"facet {f.index}: image is not a facet")
        return problems


def graph_of_morphism(f: Morphism, source: SimplicialModel,
                      target: SimplicialModel) -> Relation:
    """Facet-level graph of a (validated) morphism, as a relation."""
    problems = f.validate(source, target)
    if problems:
        raise UsageError("not a morphism:\n  " + "\n  ".join(problems))
    tv = target.complex.vertices
    target_facets = {fa.vertices: fa.index for fa in target.facets}
    bits = np.zeros((source.n_facets, target.n_facets), dtype=bool)
    for fa in source.facets:
        image = tuple(sorted({f.vmap[v] for v in fa.vertices},
                             key=lambda w: (tv[w].color, w)))
        bits[fa.index, target_facets[image]] = True
    return Relation(bits)


def find_morphism(source: SimplicialModel, target: SimplicialModel) -> Morphism | None:
    """Exhaustive backtracking search for a morphism.

    Variables are source facets, domains are label-compatible target facets;
    facets sharing a vertex must agree on its image. Forward checking plus
    smallest-domain-first selection (degree as tiebreak) keeps the search
    tractable at the scales used here.
    """
    if source.workspace != target.workspace:
        raise UsageError("models use different workspaces")
    sv, tv = source.complex.vertices, target.complex.vertices

    by_color_atoms: dict[tuple, list[int]] = {}
    for w in tv:
        by_color_atoms.setdefault((w.color, w.atoms), []).append(w.id)
    vdom = [frozenset(by_color_atoms.get((v.color, v.atoms), ())) for v in sv]
    if any(not d for d in vdom):
        return None

    n = source.workspace.n_agents
    domains: list[list[int]] = []
    for fa in source.facets:
        cands = [g.index for g in target.facets
                 if all(g.vertices[a] in vdom[fa.vertices[a]] for a in range(n))]
        if not cands:
            return None
        domains.append(cands)

    # degree: how many other facets share a vertex with the facet
    owners = source.complex.vertex_facets
    degree = [len(set().union(*(owners[v] for v in fa.vertices))) - 1
              for fa in source.facets]
    assignment: list[int | None] = [None] * source.n_facets
    vassign: dict[int, int] = {}

    def consistent(i: int, j: int) -> bool:
        gf = target.facets[j]
        fa = source.facets[i]
        for a in range(n):
            bound = vassign.get(fa.vertices[a])
            if bound is not None and bound != gf.vertices[a]:
                return False
        return True

    def search() -> bool:
        best, best_key = None, None
        for i in range(source.n_facets):
            if assignment[i] is None:
                key = (len(domains[i]), -degree[i], i)
                if best_key is None or key < best_key:
                    best, best_key = i, key
        if best is None:
            return True
        i = best
        fa = source.facets[i]
        for j in domains[i]:
            if not consistent(i, j):
                continue
            gf = target.facets[j]
            newly = [fa.vertices[a] for a in range(n) if fa.vertices[a] not in vassign]
            assignment[i] = j
            for a in range(n):
                vassign[fa.vertices[a]] = gf.vertices[a]
            trail: list[tuple[int, list[int]]] = []
            dead = False
            for v in newly:
                for k in source.complex.vertex_facets[v]:
                    if assignment[k] is not None:
                        continue
                    kept = [jj for jj in domains[k] if consistent(k, jj)]
                    if len(kept) != len(domains[k]):
                        trail.append((k, domains[k]))
                        domains[k] = kept
                        if not kept:
                            dead = True
                            break
                if dead:
                    break
            if not dead and search():
                return True
            for k, old in trail:
                domains[k] = old
            assignment[i] = None
            for v in newly:
                del vassign[v]
        return False

    if not search():
        return None
    return Morphism(tuple(vassign[v] for v in range(len(sv))))
