"""Simulations between simplicial models, by counting.

A relation R between the facets of two models is a K-simulation when related
facets carry equal labels and every ``a``-indistinguishability step on the
left can be matched on the right (Forth); a D-simulation strengthens Forth to
all facets Y at once, requiring the matched pair to share at least the colors
that X and Y share. The maximum n-step simulations arise as a descending
chain: S_0 relates label-equal facets, each refinement step keeps the pairs
whose Forth obligations are met inside the previous step.

Indistinguishability for a color set S is one rule: two facets are
S-indistinguishable when they share their S-face. Each model groups its
facets into S-face classes (:meth:`SimplicialModel.face_classes`), and Forth
for S factors through those classes: X' can answer every Y in X's S-class
exactly when each such Y has an R-partner in the S-class of X'. K mode takes
S = {a} for each agent. D mode takes every S, including the empty set (R
must be total) and the full set (Y = X itself); this is exact because a
larger shared set only strengthens the obligation (S ⊆ T implies
D_S ψ → D_T ψ).

Forth is read from two counters per group S, kept only where R has pairs
(:class:`_Counters`): a cell (y, c) counts y's R-partners in right S-class
c, and a block (b, c) counts the facets of left S-class b with no partner in
c. Forth for S holds at (X, X') exactly when the block of their classes
counts zero. ``forth``, ``refine`` and ``verify`` build the counters from
scratch; the chain builds them once over S_0 and then only subtracts.

In both modes each step is r_{k+1} = r_k ∩ Forth(r_k). In K mode
S_0 ∩ Forth(r_k) ⊆ S_0 ∩ Forth(r_{k-1}) = r_k by monotonicity. In D mode the
full group keeps Forth(S_0) inside S_0 (for Y = X, some S_0-partner of X has
the same vertices as X', hence the same label), and then
Forth(r_k) ⊆ Forth(r_{k-1}) = r_k by monotonicity. So the chain removes,
round by round, the live pairs in the blocks that the previous round's
removals pushed from zero to nonzero (the counting scheme of Henzinger,
Henzinger and Kopke, FOCS 1995); each round touches only the cells and
blocks of the pairs it removes. At the fixpoint, Forth rebuilt from scratch
must hold at every pair, or the chain raises
:class:`InternalConsistencyError`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Literal, Sequence

import numpy as np

from .errors import InternalConsistencyError, UsageError

Mode = Literal["K", "D"]


def _check_mode(mode: str) -> Mode:
    if mode not in ("K", "D"):
        raise UsageError(f"mode must be 'K' or 'D', got {mode!r}")
    return mode  # type: ignore[return-value]


class Relation:
    """An immutable boolean matrix over facet-index pairs (left x right)."""

    __slots__ = ("bits",)

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise UsageError("relation must be a 2-d boolean matrix")
        bits = bits.copy()
        bits.setflags(write=False)
        self.bits = bits

    @classmethod
    def from_pairs(cls, dims: tuple[int, int], pairs: Iterable[Sequence[int]]) -> "Relation":
        bits = np.zeros(dims, dtype=bool)
        for i, j in pairs:
            if not (0 <= i < dims[0] and 0 <= j < dims[1]):
                raise UsageError(f"pair ({i}, {j}) outside dims {dims}")
            bits[i, j] = True
        return cls(bits)

    @property
    def dims(self) -> tuple[int, int]:
        return self.bits.shape  # type: ignore[return-value]

    @property
    def count(self) -> int:
        return int(self.bits.sum())

    def contains(self, i: int, j: int) -> bool:
        return bool(self.bits[i, j])

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs in lexicographic order."""
        return [(int(i), int(j)) for i, j in np.argwhere(self.bits)]

    def row(self, i: int) -> np.ndarray:
        return self.bits[i]

    def is_total(self) -> bool:
        return bool(self.bits.any(axis=1).all())

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.dims == other.dims
                and bool(np.array_equal(self.bits, other.bits)))

    def __hash__(self):
        return hash((self.dims, self.bits.tobytes()))

    def __le__(self, other: "Relation") -> bool:
        return self.dims == other.dims and not bool((self.bits & ~other.bits).any())

    def __repr__(self):
        return f"<Relation {self.dims[0]}x{self.dims[1]}, {self.count} pairs>"


def totality_witnesses(r: Relation) -> list[int]:
    """Left facets with no related right facet (empty = total relation)."""
    return [int(i) for i in np.flatnonzero(~r.bits.any(axis=1))]


@dataclass
class SimulationChain:
    """The descending chain S_0, S_1, ..., ending at its fixpoint.

    Stored as S_0, the pairs each step removed (``removed[k - 1]`` is an
    ``[n, 2]`` array of the pairs in S_{k-1} but not in S_k), the fixpoint,
    and each step's size and totality; ``steps`` rebuilds the relations.
    """

    mode: Mode
    initial: Relation
    removed: list[np.ndarray]
    fixpoint: Relation
    step_sizes: list[int]
    step_total: list[bool]

    @property
    def stabilized_at(self) -> int:
        return len(self.removed)

    @property
    def steps(self) -> list[Relation]:
        """S_0, S_1, ..., rebuilt from S_0 and the removed pairs."""
        bits = self.initial.bits.copy()
        steps = [self.initial]
        for gone in self.removed:
            bits[gone[:, 0], gone[:, 1]] = False
            steps.append(Relation(bits))
        return steps


@dataclass
class VerificationReport:
    atom_ok: bool
    forth_ok: bool
    total: bool
    counterexamples: list[dict] = field(default_factory=list)

    @property
    def is_simulation(self) -> bool:
        return self.atom_ok and self.forth_ok

    def to_json(self) -> dict:
        return {"atom_ok": self.atom_ok, "forth_ok": self.forth_ok,
                "total": self.total, "counterexamples": self.counterexamples}


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each query, a position in the sorted, non-empty ``keys`` and
    whether the key there equals the query."""
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return at, keys[at] == query


class _Counters:
    """Forth counters for one color group S over the pairs (ys, yys).

    A cell (y, c) counts y's pairs into right S-class c; a block (b, c)
    counts the facets of left S-class b with no pair into any facet of c.
    Only cells and blocks that some pair lands in are kept, as sorted keys
    ``y * n_classes + c`` and ``b * n_classes + c``.
    """

    def __init__(self, left, right, group, ys: np.ndarray, yys: np.ndarray):
        self.lid, self.lorder, self.lstarts = left.face_classes(group)
        self.rid, self.rorder, self.rstarts = right.face_classes(group)
        self.lsize = np.diff(self.lstarts, append=left.n_facets)
        self.rsize = np.diff(self.rstarts, append=right.n_facets)
        self.nc = len(self.rstarts)
        self.cells, cnt = np.unique(ys * self.nc + self.rid[yys], return_counts=True)
        self.cnt = cnt.astype(np.int32)
        y = self.cells // self.nc
        self.blocks, self.block_of_cell, hits = np.unique(
            self.cells + (self.lid[y] - y) * self.nc, return_inverse=True,
            return_counts=True)
        self.block_of_cell = self.block_of_cell.astype(np.int32)
        self.miss = (self.lsize[self.blocks // self.nc] - hits).astype(np.int32)

    def holds(self, xs: np.ndarray, js: np.ndarray) -> np.ndarray:
        """Forth for S at each pair (xs[k], js[k])."""
        if not len(self.blocks):
            return np.zeros(len(xs), dtype=bool)
        at, found = _find(self.blocks, self.lid[xs] * self.nc + self.rid[js])
        return found & (self.miss[at] == 0)

    def remove(self, ys: np.ndarray, yys: np.ndarray) -> np.ndarray:
        """Subtract the pairs (ys, yys); return the blocks that just failed."""
        at, k = np.unique(np.searchsorted(self.cells, ys * self.nc + self.rid[yys]),
                          return_counts=True)
        self.cnt[at] -= k
        blocks, k = np.unique(self.block_of_cell[at[self.cnt[at] == 0]],
                              return_counts=True)
        fresh = blocks[self.miss[blocks] == 0]
        self.miss[blocks] += k
        return fresh

    def live_pairs(self, blocks: np.ndarray, live: np.ndarray, n_live: int):
        """The pairs of ``live`` (a boolean matrix with ``n_live`` pairs)
        in the given blocks, as two index arrays."""
        b, c = np.divmod(self.blocks[blocks], self.nc)
        widths = self.rsize[c]
        n = self.lsize[b] * widths
        if n.sum() > n_live:
            # fewer live pairs than block members: scan the live pairs
            xs, js = np.nonzero(live)
            _, inside = _find(self.blocks[blocks], self.lid[xs] * self.nc + self.rid[js])
            return xs[inside], js[inside]
        # every (left member, right member) pair of each block, vectorized
        blk = np.repeat(np.arange(len(b)), n)
        k = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
        xs = self.lorder[self.lstarts[b][blk] + k // widths[blk]]
        js = self.rorder[self.rstarts[c][blk] + k % widths[blk]]
        inside = live[xs, js]
        return xs[inside], js[inside]


class SimulationEngine:
    """Refinement machinery for one (left, right) model pair.

    Precomputes the label-equality base relation; Forth reads the S-face
    classes that both models cache.
    """

    def __init__(self, left, right):
        if left.workspace != right.workspace:
            raise UsageError("left and right models use different workspaces")
        self.left = left
        self.right = right
        label_ids: dict[frozenset, int] = {}
        left_ids, right_ids = (
            np.array([label_ids.setdefault(lab, len(label_ids))
                      for lab in m.facet_labels], dtype=np.intp)
            for m in (left, right))
        s0 = left_ids[:, None] == right_ids[None, :]
        s0.setflags(write=False)
        self._s0 = s0

    # -- core steps ----------------------------------------------------------

    def initial_relation(self) -> Relation:
        return Relation(self._s0)

    def _groups(self, mode: Mode, own_pairs: bool = False) -> list[tuple[int, ...]]:
        """The color groups Forth ranges over. Evaluated only at the
        relation's own pairs, D mode leaves out the full group when every
        full-color class of both models is a single facet: the group's block
        at a pair (x, j) is then {x} × {j}, met by the pair itself."""
        agents = range(self.left.workspace.n_agents)
        if mode == "K":
            return [(a,) for a in agents]
        groups = [g for k in range(len(agents) + 1)
                  for g in itertools.combinations(agents, k)]
        full = groups[-1]
        if (own_pairs
                and len(self.left.face_classes(full)[2]) == self.left.n_facets
                and len(self.right.face_classes(full)[2]) == self.right.n_facets):
            groups.pop()
        return groups

    def _forth_at(self, r_pairs: tuple[np.ndarray, np.ndarray], mode: Mode,
                  at: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
        """Forth applied to the relation with pairs ``r_pairs`` (two index
        arrays), evaluated at the pairs ``at`` (default: ``r_pairs``)."""
        ys, yys = r_pairs
        xs, js = r_pairs if at is None else at
        ok = np.ones(len(xs), dtype=bool)
        for g in self._groups(mode, own_pairs=at is None):
            ok &= _Counters(self.left, self.right, g, ys, yys).holds(xs, js)
        return ok

    def forth(self, r: Relation, mode: Mode) -> np.ndarray:
        """The Forth operator applied to ``r``, evaluated at every pair."""
        _check_mode(mode)
        self._check_dims(r)
        every = tuple(np.indices(r.dims).reshape(2, -1))
        return self._forth_at(np.nonzero(r.bits), mode, at=every).reshape(r.dims)

    def refine(self, r: Relation, mode: Mode) -> Relation:
        """One chain step: S_0 ∩ Forth(r) in K mode, Forth(r) in D mode."""
        bits = self.forth(r, mode)
        return Relation(bits & self._s0 if mode == "K" else bits)

    def chain(self, mode: Mode) -> SimulationChain:
        """The chain to its fixpoint, checked by a from-scratch Forth."""
        mode = _check_mode(mode)
        live, removed, sizes, totals = self._removal_rounds(mode)
        if not self._forth_at(np.nonzero(live), mode).all():
            raise InternalConsistencyError(
                "the chain stopped at a relation that Forth does not keep")
        return SimulationChain(mode, self.initial_relation(), removed,
                               Relation(live), sizes, totals)

    def _removal_rounds(self, mode: Mode):
        """Run the counters from S_0 until a round removes nothing; return
        the live pairs, each step's removed pairs, sizes and totality."""
        xs, js = np.nonzero(self._s0)
        counters = [_Counters(self.left, self.right, g, xs, js)
                    for g in self._groups(mode, own_pairs=True)]
        fresh = [np.flatnonzero(c.miss) for c in counters]
        live = self._s0.copy()
        row_live = np.bincount(xs, minlength=self.left.n_facets)
        empty_rows = int((row_live == 0).sum())
        sizes, totals, removed = [len(xs)], [empty_rows == 0], []
        while True:
            # a pair that several groups drop is dead for the groups after
            # the first, so each pair is found once
            gone = [np.zeros((0, 2), dtype=np.intp)]
            for c, f in zip(counters, fresh):
                if len(f):
                    xs, js = c.live_pairs(f, live, sizes[-1])
                    live[xs, js] = False
                    gone.append(np.stack([xs, js], axis=1))
            gone = np.concatenate(gone)
            if not len(gone):
                break
            xs, js = gone.T
            rows, k = np.unique(xs, return_counts=True)
            row_live[rows] -= k
            empty_rows += int((row_live[rows] == 0).sum())
            removed.append(gone.astype(np.int32))
            sizes.append(sizes[-1] - len(gone))
            totals.append(empty_rows == 0)
            fresh = [c.remove(xs, js) for c in counters]
        return live, removed, sizes, totals

    def verify(self, r: Relation, mode: Mode, max_counterexamples: int = 10) -> VerificationReport:
        """Check the simulation conditions for an arbitrary relation."""
        mode = _check_mode(mode)
        self._check_dims(r)
        atom_bad = r.bits & ~self._s0
        xs, js = np.nonzero(r.bits)
        kept = self._forth_at((xs, js), mode)
        examples: list[dict] = []
        for i, j in np.argwhere(atom_bad)[:max_counterexamples]:
            examples.append({"kind": "atom", "left": int(i), "right": int(j)})
        room = max(max_counterexamples - len(examples), 0)
        for i, j in zip(xs[~kept][:room], js[~kept][:room]):
            examples.append(self._first_unmet((xs, js), int(i), int(j), mode))
        return VerificationReport(
            atom_ok=not bool(atom_bad.any()),
            forth_ok=bool(kept.all()),
            total=r.is_total(),
            counterexamples=examples,
        )

    def _first_unmet(self, r_pairs: tuple[np.ndarray, np.ndarray], x: int, j: int,
                     mode: Mode) -> dict:
        """The first Forth obligation of (x, j) that the relation with pairs
        ``r_pairs`` leaves unmet: in K mode by agent a, then by Y in x's
        a-class; in D mode by Y."""
        ys, yys = r_pairs
        bit = 1 << np.arange(self.left.workspace.n_agents)
        # as bitmasks: the colors each Y shares with x, and each Y' with j
        need = (self.left.vertex_table == self.left.vertex_table[x]) @ bit
        have = (self.right.vertex_table == self.right.vertex_table[j]) @ bit

        def met(ok: np.ndarray) -> np.ndarray:
            """The left facets with a pair for which ``ok`` holds."""
            out = np.zeros(self.left.n_facets, dtype=bool)
            out[ys[ok]] = True
            return out

        found = {"kind": "forth", "left": x, "right": j}
        if mode == "D":
            unmet = np.flatnonzero(~met((need[ys] & ~have[yys]) == 0))
            if len(unmet):
                return {**found, "witness": int(unmet[0])}
        else:
            for a, b in enumerate(bit):
                unmet = np.flatnonzero(((need & b) != 0) & ~met((have[yys] & b) != 0))
                if len(unmet):
                    return {**found, "agent": a, "witness": int(unmet[0])}
        raise InternalConsistencyError(f"verify found Forth failing at ({x}, {j}), "
                                       "but every obligation there is met")

    def _check_dims(self, r: Relation) -> None:
        want = (self.left.n_facets, self.right.n_facets)
        if r.dims != want:
            raise UsageError(f"relation dims {r.dims} do not match models {want}")

