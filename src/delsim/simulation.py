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
counts zero. The chain's fixpoint guard, ``verify`` and ``forth`` build the
counters from scratch; the chain builds them once over S_0 and then only
subtracts.

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

Relations are stored as pairs, never as left x right matrices: a
:class:`Relation` is two sorted index arrays, S_0 is built by grouping both
models' facets by label, the chain's live set is a boolean mask over S_0's
pairs, and :class:`SimulationChain` keeps each step's removals as indices
into S_0. A round that removes only a few pairs updates the counters one
pair at a time in Python ints, and a few small failed blocks are expanded by
walking their members; larger rounds use whole-array numpy calls, whose
fixed cost would dominate a small round.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

from .complexes import first_appearance_ids, intern_ids
from .errors import InternalConsistencyError, UsageError

Mode = Literal["K", "D"]

# Relations store facet indices as int32.
_MAX_DIM = 2**31 - 1


def _check_mode(mode: str) -> Mode:
    if mode not in ("K", "D"):
        raise UsageError(f"mode must be 'K' or 'D', got {mode!r}")
    return mode  # type: ignore[return-value]


class Relation:
    """An immutable set of facet-index pairs (left x right).

    Stored as two int32 arrays ``xs`` and ``js`` in lexicographic order of
    (left, right), with ``dims``; :attr:`bits` builds the dense boolean
    matrix on request. ``Relation(bits)`` reads such a matrix.
    """

    __slots__ = ("dims", "xs", "js")

    def __init__(self, bits: np.ndarray):
        bits = np.asarray(bits, dtype=bool)
        if bits.ndim != 2:
            raise UsageError("relation must be a 2-d boolean matrix")
        self._set(bits.shape, *np.nonzero(bits))

    def _set(self, dims, xs: np.ndarray, js: np.ndarray) -> None:
        self.dims = (int(dims[0]), int(dims[1]))
        self.xs, self.js = (np.asarray(a, dtype=np.int32) for a in (xs, js))
        self.xs.setflags(write=False)
        self.js.setflags(write=False)

    @classmethod
    def _sorted(cls, dims, xs: np.ndarray, js: np.ndarray) -> "Relation":
        """The relation with the pairs (xs[k], js[k]), which are distinct,
        inside ``dims`` and in lexicographic order."""
        r = cls.__new__(cls)
        r._set(dims, xs, js)
        return r

    @classmethod
    def from_pairs(cls, dims: tuple[int, int], pairs: Iterable[Sequence[int]]) -> "Relation":
        """The relation holding ``pairs`` (repeats collapse), read as one
        ``[n, 2]`` integer array."""
        rows, cols = (int(d) for d in dims)
        if not (0 <= rows <= _MAX_DIM and 0 <= cols <= _MAX_DIM):
            raise UsageError(f"dims {dims} outside 0..{_MAX_DIM}: indices are int32")
        a = np.asarray(pairs if isinstance(pairs, np.ndarray) else list(pairs))
        if a.size == 0:
            a = np.zeros((0, 2), dtype=np.int64)
        if a.ndim != 2 or a.shape[1] != 2 or a.dtype.kind not in "iu":
            raise UsageError("pairs must be [left, right] index pairs")
        outside = ((a < 0) | (a >= (rows, cols))).any(axis=1)
        if outside.any():
            i, j = a[outside][0].tolist()
            raise UsageError(f"pair ({i}, {j}) outside dims {dims}")
        keys = np.sort(a[:, 0].astype(np.int64) * cols + a[:, 1])
        keys = keys[np.diff(keys, prepend=-1) != 0]
        return cls._sorted((rows, cols), *np.divmod(keys, max(cols, 1)))

    @property
    def bits(self) -> np.ndarray:
        """The dense boolean matrix, built on each call."""
        bits = np.zeros(self.dims, dtype=bool)
        bits[self.xs, self.js] = True
        return bits

    @property
    def count(self) -> int:
        return len(self.xs)

    def keys(self) -> np.ndarray:
        """The pairs as sorted int64 keys ``left * dims[1] + right``."""
        return self.xs.astype(np.int64) * self.dims[1] + self.js

    def partners(self, i: int) -> np.ndarray:
        """The right facets related to left facet ``i``, in increasing order."""
        i = range(self.dims[0])[i]
        lo, hi = np.searchsorted(self.xs, (i, i + 1))
        return self.js[lo:hi]

    def contains(self, i: int, j: int) -> bool:
        return bool((self.partners(i) == range(self.dims[1])[j]).any())

    def pairs(self) -> list[tuple[int, int]]:
        """All related pairs in lexicographic order."""
        return list(zip(self.xs.tolist(), self.js.tolist()))

    def row(self, i: int) -> np.ndarray:
        out = np.zeros(self.dims[1], dtype=bool)
        out[self.partners(i)] = True
        return out

    def is_total(self) -> bool:
        return bool(np.bincount(self.xs, minlength=self.dims[0]).all())

    def __eq__(self, other):
        return (isinstance(other, Relation)
                and self.dims == other.dims
                and np.array_equal(self.xs, other.xs)
                and np.array_equal(self.js, other.js))

    def __hash__(self):
        return hash((self.dims, self.xs.tobytes(), self.js.tobytes()))

    def __le__(self, other: "Relation") -> bool:
        return self.dims == other.dims and bool(_find(other.keys(), self.keys())[1].all())

    def __repr__(self):
        return f"<Relation {self.dims[0]}x{self.dims[1]}, {self.count} pairs>"


def totality_witnesses(r: Relation) -> list[int]:
    """Left facets with no related right facet (empty = total relation)."""
    return np.flatnonzero(np.bincount(r.xs, minlength=r.dims[0]) == 0).tolist()


@dataclass
class SimulationChain:
    """The descending chain S_0, S_1, ..., ending at its fixpoint.

    Stored as S_0, the pairs each step removed (``removed[k - 1]`` holds the
    sorted indices into S_0's pairs of the pairs in S_{k-1} but not in
    S_k), the fixpoint, and each step's size and totality; ``steps``
    rebuilds the relations.
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
        s0 = self.initial
        live = np.ones(s0.count, dtype=bool)
        steps = [s0]
        for gone in self.removed:
            live[gone] = False
            steps.append(Relation._sorted(s0.dims, s0.xs[live], s0.js[live]))
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


# Rounds that remove at most this many pairs, and failed blocks with at most
# this many members, are handled one pair at a time in Python ints: below it,
# the fixed cost of a whole-array numpy call outweighs the work.
_FEW = 32


def _find(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each query, a position in the sorted ``keys`` and whether the key
    there equals the query."""
    if not len(keys):
        return np.zeros(len(query), dtype=np.intp), np.zeros(len(query), dtype=bool)
    at = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return at, keys[at] == query


def _ranges(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``n[k]`` items each: every item's run k and its offset
    within that run."""
    owner = np.repeat(np.arange(len(n)), n)
    return owner, np.arange(len(owner)) - np.repeat(np.cumsum(n) - n, n)


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
        self.cells, cnt = np.unique(np.asarray(ys, dtype=np.intp) * self.nc + self.rid[yys],
                                    return_counts=True)
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

    def unmet(self, x: int, j: int) -> int | None:
        """The first member Y of x's S-class with no pair into j's S-class:
        the obligation that fails Forth for S at (x, j), or None."""
        b = self.lid[x]
        members = self.lorder[self.lstarts[b]:self.lstarts[b] + self.lsize[b]]
        at, found = _find(self.cells, members * self.nc + self.rid[j])
        found[found] = self.cnt[at[found]] > 0  # the chain subtracts cells to zero
        missing = members[~found]
        return int(missing[0]) if len(missing) else None

    def remove(self, ys: np.ndarray, yys: np.ndarray):
        """Subtract the pairs (ys, yys); return the blocks that just failed."""
        at = np.searchsorted(self.cells, ys * self.nc + self.rid[yys])
        if len(at) <= _FEW:
            cnt, miss, block_of_cell = self.cnt, self.miss, self.block_of_cell
            fresh = []
            for k in at.tolist():
                cnt[k] -= 1
                if not cnt[k]:
                    b = block_of_cell[k]
                    if not miss[b]:
                        fresh.append(b)
                    miss[b] += 1
            return fresh
        at, k = np.unique(at, return_counts=True)
        self.cnt[at] -= k
        blocks, k = np.unique(self.block_of_cell[at[self.cnt[at] == 0]],
                              return_counts=True)
        fresh = blocks[self.miss[blocks] == 0]
        self.miss[blocks] += k
        return fresh

    def live_pairs(self, blocks, s0: Relation, s0_keys: np.ndarray,
                   live: np.ndarray, n_live: int):
        """The positions in S_0 of the ``live`` pairs (a mask over S_0's
        pairs, ``n_live`` of them live) in the given blocks."""
        nr = s0.dims[1]
        if len(blocks) <= _FEW:
            # a few small blocks: walk their (left member, right member) pairs
            members = []
            for k in blocks:
                b, c = divmod(int(self.blocks[k]), self.nc)
                if len(members) + self.lsize[b] * self.rsize[c] > _FEW:
                    break
                l0, r0 = self.lstarts[b], self.rstarts[c]
                right = self.rorder[r0:r0 + self.rsize[c]].tolist()
                members += [x * nr + j for x in self.lorder[l0:l0 + self.lsize[b]].tolist()
                            for j in right]
            else:
                found = []
                for key in members:
                    at = int(s0_keys.searchsorted(key))
                    if at < len(s0_keys) and s0_keys[at] == key and live[at]:
                        found.append(at)
                return np.array(found, dtype=np.intp)
        keys = np.sort(self.blocks[blocks])
        b, c = np.divmod(keys, self.nc)
        widths = self.rsize[c]
        n = self.lsize[b] * widths
        if n.sum() > n_live:
            # fewer live pairs than block members: scan the live pairs
            at = np.flatnonzero(live)
            _, inside = _find(keys, self.lid[s0.xs[at]] * self.nc + self.rid[s0.js[at]])
            return at[inside]
        # every (left member, right member) pair of each block, vectorized
        blk, k = _ranges(n)
        xs = self.lorder[self.lstarts[b][blk] + k // widths[blk]]
        js = self.rorder[self.rstarts[c][blk] + k % widths[blk]]
        at, found = _find(s0_keys, xs * nr + js)
        at = at[found]
        return at[live[at]]


class SimulationEngine:
    """Refinement machinery for one (left, right) model pair.

    Precomputes the label-equality base relation S_0 as pairs; Forth reads
    the S-face classes that both models cache.
    """

    def __init__(self, left, right):
        if left.workspace != right.workspace:
            raise UsageError("left and right models use different workspaces")
        self.left = left
        self.right = right
        # a facet's label is the union of its vertices' atoms, and validated
        # atoms sit on their own colour's vertex, so label-equal facets are
        # the ones whose vertices carry equal atoms colour by colour
        atom_ids: dict[frozenset, int] = {}
        labels, first = first_appearance_ids(np.concatenate(
            [np.array(intern_ids([v.atoms for v in m.complex.vertices], atom_ids),
                      dtype=np.intp)[m.vertex_table] for m in (left, right)]))
        left_ids, right_ids = labels[:left.n_facets], labels[left.n_facets:]
        # S_0: each left facet against the right facets of its label, in order
        per_label = np.bincount(right_ids, minlength=len(first))
        xs, k = _ranges(per_label[left_ids])
        by_label = np.argsort(right_ids, kind="stable")
        js = by_label[(np.cumsum(per_label) - per_label)[left_ids[xs]] + k]
        self._s0 = Relation._sorted((left.n_facets, right.n_facets), xs, js)
        self._s0_keys = self._s0.keys()

    # -- core steps ----------------------------------------------------------

    def initial_relation(self) -> Relation:
        return self._s0

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

    def _counters(self, r: Relation, mode: Mode, own_pairs: bool = True) -> Iterator[_Counters]:
        """Forth counters over ``r``'s pairs, built from scratch, one group
        at a time."""
        for g in self._groups(mode, own_pairs):
            yield _Counters(self.left, self.right, g, r.xs, r.js)

    def forth(self, r: Relation, mode: Mode) -> np.ndarray:
        """The Forth operator applied to ``r``, evaluated at every pair, as
        a dense boolean matrix. No library code calls it; it is kept for the
        tests and as a benchmark trace target.

        Forth for S at (x, j) depends only on the S-classes of x and j, so
        each group's verdict is one [left classes, right classes] table,
        set where a block misses nothing."""
        _check_mode(mode)
        self._check_dims(r)
        ok = np.ones(r.dims, dtype=bool)
        for c in self._counters(r, mode, own_pairs=False):
            table = np.zeros((len(c.lstarts), c.nc), dtype=bool)
            table[np.divmod(c.blocks[c.miss == 0], c.nc)] = True
            ok &= table[np.ix_(c.lid, c.rid)]
        return ok

    def chain(self, mode: Mode) -> SimulationChain:
        """The chain to its fixpoint, checked by a from-scratch Forth."""
        mode = _check_mode(mode)
        live, removed, sizes, totals = self._removal_rounds(mode)
        s0 = self._s0
        fixpoint = Relation._sorted(s0.dims, s0.xs[live], s0.js[live])
        if not all(c.holds(fixpoint.xs, fixpoint.js).all()
                   for c in self._counters(fixpoint, mode)):
            raise InternalConsistencyError(
                "the chain stopped at a relation that Forth does not keep")
        return SimulationChain(mode, s0, removed, fixpoint, sizes, totals)

    def _removal_rounds(self, mode: Mode):
        """Run the counters from S_0 until a round removes nothing; return
        the live mask over S_0's pairs, each step's removed pair indices,
        sizes and totality."""
        s0 = self._s0
        xs = s0.xs.astype(np.intp)
        counters = list(self._counters(s0, mode))
        fresh = [np.flatnonzero(c.miss) for c in counters]
        live = np.ones(len(xs), dtype=bool)
        row_live = np.bincount(xs, minlength=self.left.n_facets)
        sizes, totals, removed = [len(xs)], [bool(row_live.all())], []
        while True:
            # a pair that several groups drop is dead for the groups after
            # the first, so each pair is found once
            gone = [np.zeros(0, dtype=np.intp)]
            for c, f in zip(counters, fresh):
                if len(f):
                    at = c.live_pairs(f, s0, self._s0_keys, live, sizes[-1])
                    live[at] = False
                    gone.append(at)
            gone = np.concatenate(gone)
            if not len(gone):
                break
            ys, yys = xs[gone], s0.js[gone]
            np.subtract.at(row_live, ys, 1)
            removed.append(np.sort(gone).astype(np.int32))
            sizes.append(sizes[-1] - len(gone))
            totals.append(bool(row_live.all()))
            fresh = [c.remove(ys, yys) for c in counters]
        return live, removed, sizes, totals

    def verify(self, r: Relation, mode: Mode, max_counterexamples: int = 10) -> VerificationReport:
        """Check the simulation conditions for an arbitrary relation.

        Counterexamples list the pairs outside S_0, then for each pair (x, j)
        where Forth fails its first unmet obligation, both in pair order.
        The obligations are read from the counters that decided Forth
        (:meth:`_Counters.unmet`): in K mode the first agent a, then the
        first Y of x's a-class with no partner in j's a-class; in D mode the
        least such Y over all groups. Y is unmet for some group S ⊆ sh(x, Y)
        exactly when it is unmet for sh(x, Y), as a larger group only
        strengthens the obligation. Leaving out the full group at the
        relation's own pairs hides no Y: its only member there is x, met by
        (x, j) itself.
        """
        mode = _check_mode(mode)
        if max_counterexamples < 0:
            raise UsageError(f"max_counterexamples must be >= 0, got {max_counterexamples}")
        self._check_dims(r)
        xs, js = r.xs, r.js
        _, in_s0 = _find(self._s0_keys, r.keys())
        counters = list(self._counters(r, mode))
        kept = np.logical_and.reduce([c.holds(xs, js) for c in counters])
        examples: list[dict] = [
            {"kind": "atom", "left": i, "right": j}
            for i, j in zip(xs[~in_s0][:max_counterexamples].tolist(),
                            js[~in_s0][:max_counterexamples].tolist())]
        room = max_counterexamples - len(examples)
        for i, j in zip(xs[~kept][:room].tolist(), js[~kept][:room].tolist()):
            found = {"kind": "forth", "left": i, "right": j}
            ys = [c.unmet(i, j) for c in counters]
            if mode == "K":  # the groups are (0,), (1,), ...
                a = next(a for a, y in enumerate(ys) if y is not None)
                examples.append({**found, "agent": a, "witness": ys[a]})
            else:
                examples.append({**found, "witness": min(y for y in ys if y is not None)})
        return VerificationReport(
            atom_ok=bool(in_s0.all()),
            forth_ok=bool(kept.all()),
            total=r.is_total(),
            counterexamples=examples,
        )

    def _check_dims(self, r: Relation) -> None:
        want = (self.left.n_facets, self.right.n_facets)
        if r.dims != want:
            raise UsageError(f"relation dims {r.dims} do not match models {want}")

