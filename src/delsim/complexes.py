"""Chromatic simplicial complexes.

A complex here is pure and colored: every vertex carries an agent color and a
set of atomic propositions, facets are the maximal simplices, and only facets
are materialized (all lower-dimensional simplices are their subsets). Facet
intersections are the carrier of indistinguishability; the library reads
them from :meth:`SimplicialModel.face_classes` and ``vertex_table``. The
per-facet adjacency lists here (the color sets of pairwise intersections),
and the per-vertex facet lists they are built from, stay only as the
benchmark's trace target (``perfbench/tracing.py``); nothing else in the
library reads them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import UsageError


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


def intern_ids(keys: Iterable, ids: dict) -> list[int]:
    """Dense ids for ``keys``: a key already in ``ids`` keeps its id and a
    new one takes the next, so ``list(ids)`` stays the distinct keys in
    order of first appearance, which is id order."""
    return [ids.setdefault(key, len(ids)) for key in keys]


def first_appearance_ids(table) -> tuple[np.ndarray, np.ndarray]:
    """:func:`intern_ids` for the rows of a 2-D int array, in bulk.

    Returns ``(ids, first)``: ``ids[i]`` is row i's id, dense and numbered
    by first appearance, and ``first[c]`` the index of the first row with
    id c (so ``first`` increases). Each row is read as one mixed-radix key,
    column by column: a column spanning fewer values than there are rows is
    a digit as it is, a wider one is re-ranked first, and the key is
    re-ranked whenever the next digit could take it past 2**62. So the key
    is exact for any entries, and needs no sort while it stays small.
    """
    table = np.asarray(table)
    rows = len(table)
    if not rows:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    key = np.zeros(rows, dtype=np.int64)
    span = 1  # every key lies in range(span)
    for column in table.T:
        lo, hi = int(column.min()), int(column.max())
        if hi - lo < rows:
            digit, width = column - lo, hi - lo + 1
        else:
            _, digit = np.unique(column, return_inverse=True)
            width = int(digit.max()) + 1
        if span * width > 1 << 62:
            _, key = np.unique(key, return_inverse=True)
            span = int(key.max()) + 1
        key = key * width + digit
        span *= width
    _, ids = np.unique(key, return_inverse=True)
    first = np.full(int(ids.max()) + 1, rows, dtype=np.intp)
    np.minimum.at(first, ids, np.arange(rows))
    order = np.argsort(first)
    renumber = np.empty_like(order)
    renumber[order] = np.arange(len(order))
    return renumber[ids], first[order]


class ChromaticComplex:
    """Vertices plus facets; inclusion-closure is implicit.

    Construction only checks what is needed to store the data (dense vertex
    ids, facet members exist); semantic invariants are reported by
    :func:`validate_complex` so malformed complexes stay representable.
    Facets of one width over agent-colored vertices are sorted and checked as
    one int array, ``facet_table``, with :class:`Facet` records made on first
    read; other input goes facet by facet (a table only if widths agree).
    """

    def __init__(self, n_agents: int, vertices: Sequence[Vertex],
                 facets: Iterable[Sequence[int]]):
        self.n_agents = n_agents
        self.vertices = list(vertices)
        for pos, v in enumerate(self.vertices):
            if v.id != pos:
                raise UsageError(f"vertex ids must be dense: position {pos} holds id {v.id}")
        facets = facets if isinstance(facets, np.ndarray) else list(facets)
        self.facet_table = self._sorted_table(facets)
        if self.facet_table is None:
            self.facets = []
            for i, members in enumerate(facets):
                for v in members:
                    if not 0 <= v < len(self.vertices):
                        raise UsageError(f"facet {i} references unknown vertex {v}")
                ordered = sorted(members, key=lambda v: (self.vertices[v].color, v))
                self.facets.append(Facet(i, tuple(ordered),
                                         tuple(self.vertices[v].color for v in ordered)))
            if len({len(f.vertices) for f in self.facets}) == 1:  # e.g. bool members
                self.facet_table = np.array([f.vertices for f in self.facets], dtype=np.intp)
                self.facet_table.setflags(write=False)
        self.n_facets = len(self.facets if self.facet_table is None else self.facet_table)

    def _sorted_table(self, facets) -> np.ndarray | None:
        """``facets`` as a read-only int array, rows sorted by (color, id), if
        they are one width of known vertex ids and every color is an agent."""
        try:
            table = np.asarray(facets)
        except ValueError:  # ragged
            return None
        nv = len(self.vertices)
        colors = [v.color for v in self.vertices]
        if (table.ndim != 2 or table.dtype.kind not in "iu" or not table.size
                or table.min() < 0 or table.max() >= nv or set(map(type, colors)) != {int}
                or min(colors) < 0 or max(colors) >= self.n_agents):
            return None
        table = np.sort(np.array(colors, dtype=np.intp)[table] * nv + table.astype(np.intp),
                        axis=1) % nv
        table.setflags(write=False)
        return table

    @cached_property
    def facets(self) -> list[Facet]:
        colors = [v.color for v in self.vertices]
        return [Facet(i, tuple(row), tuple(map(colors.__getitem__, row)))
                for i, row in enumerate(self.facet_table.tolist())]

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


def _vertex_faults(color, atoms: frozenset, n_agents: int) -> list[str]:
    faults = []
    if not 0 <= color < n_agents:
        faults.append(f"color {color} out of range")
    for pair in atoms:
        if not (isinstance(pair, tuple) and len(pair) == 2):
            faults.append(f"malformed atom {pair!r}")
        elif pair[0] != color:
            faults.append(f"atom for agent {pair[0]} on a color-{color} vertex")
    return faults


def validate_complex(c: ChromaticComplex) -> list[str]:
    """All invariant violations, as human-readable strings (empty = valid).

    Checked: colors in range, facet purity (|Pi| vertices), color injectivity
    per facet, and that every vertex lies in some facet. Of a |Pi|-column
    ``facet_table``, only the rows with a repeated color are walked.
    """
    problems = []
    # a vertex's own faults depend on its color and label alone: each distinct
    # pair is checked once, and the vertices are walked only if one is bad
    kinds = [(v.color, v.atoms) for v in c.vertices]
    faults = {kind: found for kind in dict.fromkeys(kinds)
              if (found := _vertex_faults(*kind, c.n_agents))}
    if faults:
        for v, kind in zip(c.vertices, kinds):
            problems += [f"vertex {v.id}: {fault}" for fault in faults.get(kind, ())]
    table = c.facet_table
    suspects: Iterable[int] = range(c.n_facets)
    if table is not None and table.shape[1] == c.n_agents:
        colors = np.array([v.color for v in c.vertices])[table]
        suspects = np.flatnonzero((colors[:, 1:] == colors[:, :-1]).any(axis=1)).tolist()
    for i in suspects:
        f = c.facets[i]
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
    covered = np.zeros(len(c.vertices), dtype=bool)
    covered[table.ravel() if table is not None else
            np.array([v for f in c.facets for v in f.vertices], dtype=np.intp)] = True
    return problems + [f"vertex {v} lies in no facet" for v in np.flatnonzero(~covered).tolist()]
