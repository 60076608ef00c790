"""Independent reference implementations used to cross-check the library.

Everything here chases definitions directly over the raw complex data
(vertex ids, colors, per-vertex atoms) with plain sets and dicts. Nothing
imports the library's face-class index, the vectorized model table, or the
simulation engine, so agreement between these oracles and the fast
paths is meaningful evidence rather than a tautology.
"""

from __future__ import annotations

import itertools
from math import comb


# -- raw structure ----------------------------------------------------------

def facet_label(model, i: int) -> frozenset:
    cx = model.complex
    out = set()
    for v in cx.facets[i].vertices:
        out |= set(cx.vertices[v].atoms)
    return frozenset(out)


def shared_colors(model, i: int, j: int) -> frozenset:
    cx = model.complex
    if i == j:
        return frozenset(cx.vertices[v].color for v in cx.facets[i].vertices)
    common = set(cx.facets[i].vertices) & set(cx.facets[j].vertices)
    return frozenset(cx.vertices[v].color for v in common)


# -- formula evaluation -----------------------------------------------------

def eval_naive(model, facet: int, f) -> bool:
    """Tree-walk satisfaction with an explicit (node, facet) memo."""
    n = model.n_facets
    memo: dict[tuple[int, int], bool] = {}

    def go(x: int, node) -> bool:
        key = (node.uid, x)
        if key in memo:
            return memo[key]
        if node.kind == "atom":
            res = node.payload in facet_label(model, x)
        elif node.kind == "not":
            res = not go(x, node.children[0])
        elif node.kind == "and":
            res = all(go(x, c) for c in node.children)
        elif node.kind == "or":
            res = any(go(x, c) for c in node.children)
        elif node.kind == "K":
            a = node.payload
            res = all(go(y, node.children[0]) for y in range(n)
                      if a in shared_colors(model, x, y))
        elif node.kind == "D":
            group = node.payload
            res = all(go(y, node.children[0]) for y in range(n)
                      if group <= shared_colors(model, x, y))
        else:
            raise AssertionError(f"unknown kind {node.kind!r}")
        memo[key] = res
        return res

    return go(facet, f)


# -- simulation chains ------------------------------------------------------

def forth_naive(left, right, bits, mode: str) -> list[list[dict | None]]:
    """The Forth operator applied to the relation ``bits`` (``bits[y][y']``
    for every left facet y and right facet y'), by literal quantifier
    chasing. Entry ``[x][x']`` is None where Forth holds and otherwise the
    first unmet obligation: in K mode by agent a, then by Y among the facets
    that a cannot tell from x; in D mode by Y."""
    nl, nr = left.n_facets, right.n_facets
    sh_l = [[shared_colors(left, i, k) for k in range(nl)] for i in range(nl)]
    sh_r = [[shared_colors(right, j, k) for k in range(nr)] for j in range(nr)]

    def met(y, need, xp):
        return any(bits[y][yp] and need <= sh_r[xp][yp] for yp in range(nr))

    def unmet(x, xp):
        found = {"kind": "forth", "left": x, "right": xp}
        if mode == "K":
            for a in sorted(sh_l[x][x]):
                for y in range(nl):
                    if a in sh_l[x][y] and not met(y, {a}, xp):
                        return {**found, "agent": a, "witness": y}
            return None
        for y in range(nl):
            if not met(y, sh_l[x][y], xp):
                return {**found, "witness": y}
        return None

    return [[unmet(x, xp) for xp in range(nr)] for x in range(nl)]


def forth_holds(left, right, bits, mode: str) -> list[list[bool]]:
    """Where :func:`forth_naive` finds no unmet obligation."""
    return [[o is None for o in row]
            for row in forth_naive(left, right, bits, mode)]


def chain_naive(left, right, mode: str) -> list[frozenset]:
    """Greatest-fixpoint iteration over :func:`forth_naive`.

    Returns the descending sequence of pair sets, last element = fixpoint.
    """
    nl, nr = left.n_facets, right.n_facets
    labels_l = [facet_label(left, i) for i in range(nl)]
    labels_r = [facet_label(right, j) for j in range(nr)]
    s0 = frozenset((i, j) for i in range(nl) for j in range(nr)
                   if labels_l[i] == labels_r[j])

    steps = [s0]
    while True:
        cur = steps[-1]
        bits = [[(y, yp) in cur for yp in range(nr)] for y in range(nl)]
        forth = forth_naive(left, right, bits, mode)
        # K: S_0 ∩ Forth(cur); D: cur ∩ Forth(cur)
        new = frozenset(p for p in (s0 if mode == "K" else cur)
                        if forth[p[0]][p[1]] is None)
        if new == cur:
            return steps
        assert new < cur, "refinement must descend"
        steps.append(new)


# -- morphism enumeration ---------------------------------------------------

def morphisms_naive(source, target):
    """Yield every color- and label-preserving vertex map sending facets to
    facets, as a tuple indexed by source vertex id. Plain DFS, no pruning
    heuristics; intended for models with at most ~20 vertices.
    """
    scx, tcx = source.complex, target.complex
    n = len(scx.vertices)
    candidates = []
    for v in scx.vertices:
        candidates.append([w.id for w in tcx.vertices
                           if w.color == v.color and w.atoms == v.atoms])
    target_facets = {frozenset(f.vertices) for f in tcx.facets}
    assignment: list[int | None] = [None] * n

    def facets_ok() -> bool:
        for f in scx.facets:
            image = [assignment[v] for v in f.vertices]
            if None in image:
                continue
            if frozenset(image) not in target_facets:
                return False
        return True

    def go(v: int):
        if v == n:
            yield tuple(assignment)
            return
        for w in candidates[v]:
            assignment[v] = w
            if facets_ok():
                yield from go(v + 1)
            assignment[v] = None

    yield from go(0)


# -- counting ---------------------------------------------------------------

def fubini(n: int) -> int:
    """Number of ordered set partitions of an n-element set."""
    if n == 0:
        return 1
    return sum(comb(n, k) * fubini(n - k) for k in range(1, n + 1))


def surjections(n: int, k: int) -> int:
    return sum((-1) ** i * comb(k, i) * (k - i) ** n for i in range(k + 1))


def count_agreement_facets(n_agents: int, values, k: int) -> int:
    """Facets of the input model updated with k-set agreement: per input
    assignment, decision maps into the input's value set using at most k
    distinct values."""
    total = 0
    for inputs in itertools.product(values, repeat=n_agents):
        m = len(set(inputs))
        total += sum(comb(m, j) * surjections(n_agents, j)
                     for j in range(1, min(k, m) + 1))
    return total


def count_snapshot_facets(n_agents: int, n_values: int, rounds: int,
                          single_input: bool) -> int:
    """Facets of the (iterated) immediate-snapshot protocol applied to the
    input model: one facet per (input assignment, schedule of ordered
    partitions), with no collisions."""
    per_input = fubini(n_agents) ** rounds
    return per_input if single_input else per_input * n_values ** n_agents


# -- snapshot views via relational composition ------------------------------

def heard_from(gammas, agent: int) -> frozenset:
    """Agents whose inputs occur as leaves of ``agent``'s nested view,
    computed by composing per-round visibility relations instead of by
    recursing over nested structures."""
    reach = {a: frozenset([a]) for a in gammas[0].agents}
    for g in gammas:
        reach = {a: frozenset().union(*(reach[p] for p in g.stage_of(a)))
                 for a in g.agents}
    return reach[agent]


# -- conflict closure via local boolean matrices ----------------------------

def conflict_naive(facet_vertices, view_agent_sets, p: int, q: int):
    """Layered closure rebuilt with per-facet 3x3 boolean matrix products.

    ``facet_vertices``: list of vertex-id triples. ``view_agent_sets``:
    per-vertex set of agents visible in its view. Returns (layers, final).
    """
    seed = set()
    for tri in facet_vertices:
        for x, y in itertools.permutations(tri, 2):
            if p not in view_agent_sets[x] or q not in view_agent_sets[y]:
                seed.add((x, y))

    layers = [frozenset(seed)]
    cur = set(seed)
    while True:
        added = set()
        for tri in facet_vertices:
            m = len(tri)
            local = [[(tri[i], tri[j]) in cur for j in range(m)]
                     for i in range(m)]
            for i in range(m):
                for j in range(m):
                    if i == j or local[i][j]:
                        continue
                    if any(local[i][t] and local[t][j] for t in range(m)
                           if t != i and t != j):
                        added.add((tri[i], tri[j]))
        if not added:
            break
        cur |= added
        layers.append(frozenset(cur))
    return layers, frozenset(cur - seed)
