"""Simulations between simplicial models, as bitmatrix fixpoints.

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
exactly when each such Y has an R-partner in the S-class of X'. That is one
OR-reduction of R over right classes and one AND-reduction over left
classes. K mode takes S = {a} for each agent. D mode takes every S,
including the empty set (R must be total) and the full set (Y = X itself,
so each D refinement only shrinks); this is exact because a larger shared
set only strengthens the obligation (S ⊆ T implies D_S ψ → D_T ψ). A
definition-chasing scan is kept alongside for cross-checking and for
counterexample reports.
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
    """The descending chain S_0, S_1, ..., ending at its fixpoint."""

    mode: Mode
    steps: list[Relation]

    @property
    def fixpoint(self) -> Relation:
        return self.steps[-1]

    @property
    def stabilized_at(self) -> int:
        return len(self.steps) - 1


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
        nl, nr = left.n_facets, right.n_facets

        labels: dict[frozenset, list[int]] = {}
        for j, lab in enumerate(right.facet_labels):
            labels.setdefault(lab, []).append(j)
        s0 = np.zeros((nl, nr), dtype=bool)
        for i, lab in enumerate(left.facet_labels):
            for j in labels.get(lab, ()):
                s0[i, j] = True
        s0.setflags(write=False)
        self._s0 = s0

    # -- core steps ----------------------------------------------------------

    def initial_relation(self) -> Relation:
        return Relation(self._s0)

    def forth(self, r: Relation, mode: Mode) -> np.ndarray:
        """The Forth operator applied to ``r``, evaluated at every pair."""
        _check_mode(mode)
        self._check_dims(r)
        agents = range(self.left.workspace.n_agents)
        if mode == "K":
            groups = [(a,) for a in agents]
        else:
            groups = [g for k in range(len(agents) + 1)
                      for g in itertools.combinations(agents, k)]
        out = np.ones(r.dims, dtype=bool)
        for g in groups:
            left_ids, left_order, left_starts = self.left.face_classes(g)
            right_ids, right_order, right_starts = self.right.face_classes(g)
            # hit[y, c]: y has an R-partner in right class c
            hit = np.logical_or.reduceat(r.bits[:, right_order], right_starts, axis=1)
            # met[b, c]: every y in left class b has one
            met = np.logical_and.reduceat(hit[left_order], left_starts, axis=0)
            out &= met[np.ix_(left_ids, right_ids)]
        return out

    def forth_naive(self, r: Relation, mode: Mode) -> np.ndarray:
        """Definition-chasing reference for ``forth`` (small models only)."""
        _check_mode(mode)
        self._check_dims(r)
        nl, nr = r.dims
        out = np.zeros((nl, nr), dtype=bool)
        for i in range(nl):
            for j in range(nr):
                out[i, j] = self._forth_holds_naive(r, i, j, mode) is None
        return out

    def _forth_holds_naive(self, r: Relation, i: int, j: int, mode: Mode):
        """None if the Forth condition holds at (i, j); else a violation dict."""
        if mode == "K":
            n_agents = self.left.workspace.n_agents
            for a in range(n_agents):
                ys = [i] + [y for y, colors in self.left.neighbors(i) if a in colors]
                for y in ys:
                    ok = any(r.contains(y, yy)
                             and a in self.right.shared_colors(j, yy)
                             for yy in range(self.right.n_facets))
                    if not ok:
                        return {"kind": "forth", "left": i, "right": j,
                                "agent": a, "witness": y}
            return None
        for y in range(self.left.n_facets):
            colors = self.left.shared_colors(i, y)
            ok = any(r.contains(y, yy)
                     and colors <= self.right.shared_colors(j, yy)
                     for yy in range(self.right.n_facets))
            if not ok:
                return {"kind": "forth", "left": i, "right": j, "witness": y}
        return None

    def refine(self, r: Relation, mode: Mode) -> Relation:
        """One chain step: S_0 ∩ Forth(r) in K mode, Forth(r) in D mode."""
        mode = _check_mode(mode)
        fo = self.forth(r, mode)
        if mode == "K":
            fo &= self._s0
        return Relation(fo)

    def chain(self, mode: Mode) -> SimulationChain:
        mode = _check_mode(mode)
        steps = [self.initial_relation()]
        while True:
            nxt = self.refine(steps[-1], mode)
            if not nxt <= steps[-1]:
                raise InternalConsistencyError(
                    "refinement added pairs; the chain must descend")
            if nxt == steps[-1]:
                return SimulationChain(mode, steps)
            steps.append(nxt)

    def verify(self, r: Relation, mode: Mode, max_counterexamples: int = 10) -> VerificationReport:
        """Check the simulation conditions for an arbitrary relation."""
        mode = _check_mode(mode)
        self._check_dims(r)
        atom_bad = r.bits & ~self._s0
        forth_bad = r.bits & ~self.forth(r, mode)
        examples: list[dict] = []
        for i, j in np.argwhere(atom_bad)[:max_counterexamples]:
            examples.append({"kind": "atom", "left": int(i), "right": int(j)})
        room = max_counterexamples - len(examples)
        for i, j in np.argwhere(forth_bad)[:max(room, 0)]:
            examples.append(self._forth_holds_naive(r, int(i), int(j), mode))
        return VerificationReport(
            atom_ok=not bool(atom_bad.any()),
            forth_ok=not bool(forth_bad.any()),
            total=r.is_total(),
            counterexamples=examples,
        )

    def _check_dims(self, r: Relation) -> None:
        want = (self.left.n_facets, self.right.n_facets)
        if r.dims != want:
            raise UsageError(f"relation dims {r.dims} do not match models {want}")


# ---------------------------------------------------------------------------
# Functional wrappers

def initial_relation(left, right) -> Relation:
    return SimulationEngine(left, right).initial_relation()


def refine(left, right, r: Relation, mode: Mode) -> Relation:
    return SimulationEngine(left, right).refine(r, mode)


def simulation_chain(left, right, mode: Mode) -> SimulationChain:
    return SimulationEngine(left, right).chain(mode)


def max_simulation(left, right, mode: Mode) -> tuple[Relation, int]:
    """The maximum simulation and the step at which the chain stabilized."""
    chain = simulation_chain(left, right, mode)
    return chain.fixpoint, chain.stabilized_at


def verify_simulation(left, right, r: Relation, mode: Mode,
                      max_counterexamples: int = 10) -> VerificationReport:
    return SimulationEngine(left, right).verify(r, mode, max_counterexamples)
