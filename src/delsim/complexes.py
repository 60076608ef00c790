"""Chromatic simplicial complexes.

A complex here is pure and colored: every vertex carries an agent color and a
set of atomic propositions, facets are the maximal simplices, and only facets
are materialized (all lower-dimensional simplices are their subsets). Facet
intersections are the carrier of indistinguishability, so the color sets of
pairwise facet intersections get a cached adjacency index for the scalar
code paths (morphism search, counterexample scans).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import UsageError

# An atomic proposition "agent a was dealt value v" as a plain (a, v) pair.
AtomPair = tuple


@dataclass(frozen=True)
class Vertex:
    id: int
    color: int
    atoms: frozenset


@dataclass(frozen=True)
class Facet:
    """A maximal simplex; vertex ids stored sorted by (color, id).

    For a valid (pure, color-injective) complex the entry at position ``a`` is
    the unique vertex of color ``a``.
    """

    index: int
    vertices: tuple[int, ...]
    colors: tuple[int, ...]

    def vertex_of_color(self, color: int) -> int:
        if len(self.colors) > color and self.colors[color] == color:
            return self.vertices[color]
        for v, c in zip(self.vertices, self.colors):
            if c == color:
                return v
        raise UsageError(f"facet {self.index} has no vertex of color {color}")


class ChromaticComplex:
    """Vertices plus facets; inclusion-closure is implicit.

    Construction only checks what is needed to store the data (dense vertex
    ids, facet members exist); semantic invariants are reported by
    :func:`validate_complex` so malformed complexes stay representable.
    """

    def __init__(self, n_agents: int, vertices: Sequence[Vertex],
                 facets: Iterable[Sequence[int]]):
        self.n_agents = n_agents
        self.vertices = list(vertices)
        for pos, v in enumerate(self.vertices):
            if v.id != pos:
                raise UsageError(f"vertex ids must be dense: position {pos} holds id {v.id}")
        self.facets: list[Facet] = []
        for i, members in enumerate(facets):
            for v in members:
                if not 0 <= v < len(self.vertices):
                    raise UsageError(f"facet {i} references unknown vertex {v}")
            ordered = sorted(members, key=lambda v: (self.vertices[v].color, v))
            self.facets.append(Facet(
                index=i,
                vertices=tuple(ordered),
                colors=tuple(self.vertices[v].color for v in ordered),
            ))

    @property
    def n_facets(self) -> int:
        return len(self.facets)

    @cached_property
    def vertex_facets(self) -> list[list[int]]:
        """For each vertex, the facets containing it."""
        table: list[list[int]] = [[] for _ in self.vertices]
        for f in self.facets:
            for v in f.vertices:
                table[v].append(f.index)
        return table

    @cached_property
    def adjacency(self) -> list[list[tuple[int, frozenset[int]]]]:
        """Per facet: the other facets sharing >= 1 vertex, with the shared
        color set. Self is excluded (its color set is all of Pi)."""
        shared: list[dict[int, set[int]]] = [{} for _ in self.facets]
        for v, owners in enumerate(self.vertex_facets):
            c = self.vertices[v].color
            for i in owners:
                row = shared[i]
                for j in owners:
                    if i != j:
                        row.setdefault(j, set()).add(c)
        return [sorted(((j, frozenset(cs)) for j, cs in row.items()))
                for row in shared]

    def shared_colors(self, i: int, j: int) -> frozenset[int]:
        if i == j:
            return frozenset(self.facets[i].colors)
        for k, cs in self.adjacency[i]:
            if k == j:
                return cs
        return frozenset()


def validate_complex(c: ChromaticComplex) -> list[str]:
    """All invariant violations, as human-readable strings (empty = valid).

    Checked: colors in range, facet purity (|Pi| vertices), color injectivity
    per facet, and that every vertex lies in some facet.
    """
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
    for f in c.facets:
        if len(f.vertices) != c.n_agents:
            problems.append(
                f"facet {f.index}: {len(f.vertices)} vertices, expected {c.n_agents}")
        seen: dict[int, int] = {}
        for v, col in zip(f.vertices, f.colors):
            if col in seen:
                problems.append(
                    f"facet {f.index}: color {col} repeated (vertices {seen[col]}, {v})")
            seen[col] = v
        if len(set(f.vertices)) != len(f.vertices):
            problems.append(f"facet {f.index}: repeated vertex")
    covered = set()
    for f in c.facets:
        covered.update(f.vertices)
    for v in c.vertices:
        if v.id not in covered:
            problems.append(f"vertex {v.id} lies in no facet")
    return problems
