"""Independent reference implementations used to cross-check the library.

Everything here chases definitions directly over the raw complex data
(vertex ids, colors, per-vertex atoms) with plain sets and dicts. Nothing
here calls the library's face-class index, the vectorized model table, or
the simulation engine, so agreement between these oracles and the fast
paths is meaningful evidence rather than a tautology. From the library the
snapshot oracle takes only the definitions ``compute_view`` and
``ordered_partitions``, the s-expression oracle only the tokenizer, and
both take the formula factories, which intern.
"""

from __future__ import annotations

import itertools
import json
from math import comb

from delsim.errors import UsageError
from delsim.generators import compute_view, ordered_partitions
from delsim.logic import Formula, _tokenize, atom, conj, disj, dknow, know, neg


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


# -- complexes and product update -------------------------------------------

class ChromaticComplexNaive:
    """The complex constructor's checks and facet order, one facet at a
    time: the reference for ``ChromaticComplex``'s array path. ``facets``
    holds ``(index, vertices, colors)`` triples."""

    def __init__(self, n_agents, vertices, facets):
        self.n_agents = n_agents
        self.vertices = list(vertices)
        for pos, v in enumerate(self.vertices):
            if v.id != pos:
                raise UsageError(f"vertex ids must be dense: position {pos} holds id {v.id}")
        self.facets = []
        for i, members in enumerate(facets):
            for v in members:
                if not 0 <= v < len(self.vertices):
                    raise UsageError(f"facet {i} references unknown vertex {v}")
            ordered = sorted(members, key=lambda v: (self.vertices[v].color, v))
            self.facets.append((i, tuple(ordered),
                                tuple(self.vertices[v].color for v in ordered)))


def validate_complex_naive(c: ChromaticComplexNaive) -> list[str]:
    """Every invariant violation of ``c``, walking every vertex and facet."""
    problems = []
    for v in c.vertices:
        if not 0 <= v.color < c.n_agents:
            problems.append(f"vertex {v.id}: color {v.color} out of range")
        for pair in v.atoms:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                problems.append(f"vertex {v.id}: malformed atom {pair!r}")
            elif pair[0] != v.color:
                problems.append(
                    f"vertex {v.id}: atom for agent {pair[0]} on a color-{v.color} vertex")
    for index, vertices, colors in c.facets:
        if len(vertices) != c.n_agents:
            problems.append(
                f"facet {index}: {len(vertices)} vertices, expected {c.n_agents}")
        seen = {}
        for v, col in zip(vertices, colors):
            if col in seen:
                problems.append(
                    f"facet {index}: color {col} repeated (vertices {seen[col]}, {v})")
            seen[col] = v
        if len(set(vertices)) != len(vertices):
            problems.append(f"facet {index}: repeated vertex")
    covered = set()
    for _, vertices, _ in c.facets:
        covered.update(vertices)
    for v in c.vertices:
        if v.id not in covered:
            problems.append(f"vertex {v.id} lies in no facet")
    return problems


def product_update_naive(model, action) -> dict:
    """The product update by its definition: model facet x (in order) meets
    action facet t (in order) where ``pre[t]`` holds at x (by
    :func:`eval_naive`); the pair's color-a vertex is (x's color-a vertex,
    t's color-a vertex), numbered by first appearance. Returns
    ``facet_sources``, ``vertex_sources``, ``vertices`` as (color, atoms)
    and ``facets`` as vertex lists in color order."""
    mcx, acx = model.complex, action.complex

    def by_color(cx, i):
        return {cx.vertices[v].color: v for v in cx.facets[i].vertices}

    ids, vertices, facets, facet_sources = {}, [], [], []
    for x in range(model.n_facets):
        mine = by_color(mcx, x)
        for t in range(action.n_facets):
            if not eval_naive(model, x, action.pre[t]):
                continue
            theirs = by_color(acx, t)
            members = []
            for a in range(model.workspace.n_agents):
                pair = (mine[a], theirs[a])
                if pair not in ids:
                    ids[pair] = len(ids)
                    vertices.append((a, mcx.vertices[mine[a]].atoms))
                members.append(ids[pair])
            facets.append(members)
            facet_sources.append((x, t))
    return {"facet_sources": facet_sources, "vertex_sources": list(ids),
            "vertices": vertices, "facets": facets}


# -- snapshot protocol ------------------------------------------------------

def snapshot_action_naive(workspace, rounds: int, inputs=None) -> dict:
    """The r-round snapshot action by :func:`compute_view` over every
    (inputs, schedules) pair in order: a vertex per distinct (agent, input,
    view) and a facet per distinct vertex list, numbered by first
    appearance. Returns ``vertex_data``, ``facets``, ``pre`` and
    ``schedules`` as ``snapshot_action`` does."""
    n = workspace.n_agents
    assignments = ([tuple(inputs)] if inputs is not None
                   else itertools.product(workspace.values, repeat=n))
    parts = ordered_partitions(n)
    vert_ids, vertex_data = {}, []
    facet_ids, facets, pre, schedules = {}, [], [], []
    for inp in assignments:
        for gammas in itertools.product(parts, repeat=rounds):
            members = []
            for a in range(n):
                key = (a, inp[a], compute_view(inp, gammas, a))
                if key not in vert_ids:
                    vert_ids[key] = len(vertex_data)
                    vertex_data.append(key)
                members.append(vert_ids[key])
            fkey = tuple(members)
            if fkey not in facet_ids:
                facet_ids[fkey] = len(facets)
                facets.append(members)
                pre.append(conj([atom(a, inp[a]) for a in range(n)]))
                schedules.append([])
            schedules[facet_ids[fkey]].append((inp, gammas))
    return {"vertex_data": tuple(vertex_data), "facets": facets, "pre": tuple(pre),
            "schedules": tuple(tuple(s) for s in schedules)}


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


def classify_naive(f) -> dict:
    """Modal depth, the syntactic flags and the language class of ``f``, by
    recursion over the tree: positive means negation only on atoms, a wide
    ``D`` is one over a group of other than one agent, and the class is the
    tightest of L_K+ ⊂ L_D+ (positive) or L_K ⊂ L_D (no disjunction)."""
    kids = [classify_naive(c) for c in f.children]
    out = {
        "degree": (f.kind in ("K", "D")) + max((k["degree"] for k in kids), default=0),
        "positive": (f.children[0].kind == "atom" if f.kind == "not"
                     else all(k["positive"] for k in kids)),
        "has_or": f.kind == "or" or any(k["has_or"] for k in kids),
        "has_d": f.kind == "D" or any(k["has_d"] for k in kids),
        "has_wide_d": (f.kind == "D" and len(f.payload) != 1)
        or any(k["has_wide_d"] for k in kids),
    }
    if out["positive"]:
        out["class"] = "L_D+" if out["has_wide_d"] else "L_K+"
    elif out["has_or"]:
        out["class"] = "none-positive"
    else:
        out["class"] = "L_D" if out["has_wide_d"] else "L_K"
    return out


# -- s-expression reading ---------------------------------------------------

def from_sexp_naive(text: str) -> Formula:
    """A recursive-descent reader of ``to_sexp``'s text: each form is a
    generator that yields the scope of each subformula it needs and gets the
    subformula sent back, so nesting lives on a list, not on the call stack.
    The reference for ``from_sexp``, which must accept and reject the same
    texts and return the same node."""
    tokens = _tokenize(text)
    if not tokens:
        raise UsageError("empty formula")
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take(expected=None):
        nonlocal pos
        if pos >= len(tokens):
            raise UsageError("unexpected end of formula")
        tok = tokens[pos]
        pos += 1
        if expected is not None and tok != expected:
            raise UsageError(f"expected {expected!r}, got {tok!r}")
        return tok

    def parse_int(tok: str) -> int:
        try:
            return int(tok)
        except ValueError:
            raise UsageError(f"expected an integer, got {tok!r}") from None

    def parse_value(tok: str):
        if tok.startswith('"'):
            return json.loads(tok)
        return parse_int(tok)

    def start(env: dict[str, Formula]):
        """Read a name or an atom outright; for any other form return the
        generator that reads the rest of it."""
        tok = take()
        if tok != "(":
            if tok in env:
                return env[tok]
            raise UsageError(f"unbound name {tok!r} in formula")
        head = take()
        if head == "atom":
            a = parse_int(take())
            v = parse_value(take())
            take(")")
            return atom(a, v)
        return compound(head, env)

    def compound(head: str, env: dict[str, Formula]):
        if head == "not":
            f = yield env
            take(")")
            return neg(f)
        if head in ("and", "or"):
            parts = []
            while peek() != ")":
                parts.append((yield env))
            take(")")
            return conj(parts) if head == "and" else disj(parts)
        if head == "K":
            a = parse_int(take())
            f = yield env
            take(")")
            return know(a, f)
        if head == "D":
            take("(")
            group = []
            while peek() != ")":
                group.append(parse_int(take()))
            take(")")
            f = yield env
            take(")")
            return dknow(group, f)
        if head == "let":
            take("(")
            inner = dict(env)
            while peek() == "(":
                take("(")
                name = take()
                inner[name] = yield inner
                take(")")
            take(")")
            body = yield inner
            take(")")
            return body
        raise UsageError(f"unknown operator {head!r}")

    stack = []
    value = start({})
    while True:
        if not isinstance(value, Formula):
            stack.append(value)
            value = None
        if not stack:
            break
        try:
            scope = stack[-1].send(value)
        except StopIteration as done:
            stack.pop()
            value = done.value
        else:
            value = start(scope)
    if pos != len(tokens):
        raise UsageError("trailing tokens after formula")
    return value


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


def location_violations_naive(facet_vertices, blocks, final) -> list[tuple[int, int]]:
    """The pairs of ``final`` whose two vertices co-occur in a facet listed
    in ``blocks``, in sorted order, by a dict from each facet's unordered
    vertex pairs to the facets holding them."""
    cofacets: dict[frozenset, set[int]] = {}
    for i, vertices in enumerate(facet_vertices):
        for x, y in itertools.combinations(vertices, 2):
            cofacets.setdefault(frozenset((x, y)), set()).add(i)
    return [(x, y) for x, y in sorted(final)
            if cofacets.get(frozenset((x, y)), set()) & blocks]


# -- the hand-built relation of the two-round case study --------------------

def view_leaves(view) -> frozenset:
    """The (agent, input) pairs at the bottom of a nested snapshot view."""
    if all(not isinstance(sub, frozenset) for _, sub in view):
        return frozenset(view)
    out = set()
    for _, sub in view:
        out |= view_leaves(sub)
    return frozenset(out)


def _views_seen(snap):
    """Per product vertex, the agents and the values its raw snapshot view
    (``vertex_data`` through the product's vertex sources) mentions."""
    leaves = [view_leaves(snap.protocol.vertex_data[act][2])
              for _, act in snap.run.result.vertex_sources]
    return [{p for p, _ in lv} for lv in leaves], [{v for _, v in lv} for lv in leaves]


def _decisions(agree, j: int) -> tuple:
    return agree.task.facet_decisions[agree.run.result.facet_sources[j][1]]


def explicit_agreement_naive(snap, agree) -> frozenset:
    """The pairs (protocol facet, output facet) with (1) equal inputs, read
    from the facet labels, where (2) every agent decides a value its raw
    view has seen, by the task's decision table."""
    model, task = snap.model, agree.model
    cx = model.complex
    _, values_seen = _views_seen(snap)

    def inputs_of(m, i):
        return tuple(v for _, v in sorted(facet_label(m, i)))

    by_inputs: dict[tuple, list[int]] = {}
    for j in range(task.n_facets):
        by_inputs.setdefault(inputs_of(task, j), []).append(j)
    out = set()
    for i, f in enumerate(model.facets):
        of_color = {cx.vertices[v].color: v for v in f.vertices}
        for j in by_inputs.get(inputs_of(model, i), []):
            decide = _decisions(agree, j)
            if all(decide[a] in values_seen[of_color[a]] for a in of_color):
                out.add((i, j))
    return frozenset(out)


def explicit_sa2_naive(snap, agree) -> frozenset:
    """The case study's explicit relation: the pairs of
    :func:`explicit_agreement_naive` where, (3) on facets with pairwise
    distinct inputs, no ordered agent pair (a, b) whose vertices form a
    derived conflict pair of R^{p,q} (from :func:`conflict_naive`) decides
    (input of p, input of q)."""
    cx = snap.model.complex
    agents_seen, _ = _views_seen(snap)
    facet_vertices = [f.vertices for f in snap.model.facets]
    finals = {(p, q): conflict_naive(facet_vertices, agents_seen, p, q)[1]
              for p, q in itertools.combinations(range(3), 2)}
    out = set()
    for i, j in explicit_agreement_naive(snap, agree):
        inputs = tuple(v for _, v in sorted(facet_label(snap.model, i)))
        of_color = {cx.vertices[v].color: v for v in facet_vertices[i]}
        decide = _decisions(agree, j)
        if len(set(inputs)) == 3 and any(
                (of_color[a], of_color[b]) in final
                and decide[a] == inputs[p] and decide[b] == inputs[q]
                for a, b in itertools.permutations(range(3), 2)
                for (p, q), final in finals.items()):
            continue
        out.add((i, j))
    return frozenset(out)
