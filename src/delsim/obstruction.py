"""Obstruction formulas: synthesis from a stalled simulation, and independent
verification by model checking.

The characteristic formula of depth n at a facet X is the positive formula
that exactly refutes n-step similarity: X' falsifies it precisely when X is
n-step simulated by X'. When the maximum-simulation chain between a protocol
model and a task model stabilizes without covering some protocol facet X, the
characteristic formula at X holds everywhere on the task model but fails at X,
which is the logical obstruction to solvability. Verification never consults
the simulation engine; it only model-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InternalConsistencyError, UsageError
from .logic import (Formula, FormulaClass, ModelTable, atom, classify, disj,
                    dknow, know, neg)
from .simulation import Mode, SimulationEngine, _check_mode, totality_witnesses


# facet x facet cells in one block of D-mode shared-color rows
_BLOCK_CELLS = 1 << 10


def characteristic_formulas(model, mode: Mode, n: int) -> list[list[Formula]]:
    """Level table: entry [k][X] is the depth-k formula at facet X.

    Depth 0 disagrees with X's label on some atom. In K mode each later level
    adds, per agent a and per facet Y in X's {a}-class (the facets sharing
    X's color-a vertex, X included, in ascending order), that a knows Y's
    previous-level formula; in D mode it disjoins, over every facet Y,
    distributed knowledge (for the colors shared with Y) of Y's formula - Y
    ranging over all facets, including X itself and color-disjoint ones.
    Every entry is the interned node that :func:`characteristic_formula`
    builds for that facet and depth.
    """
    return [list(level.values())
            for level in _levels(model, mode, n, range(model.n_facets))]


def characteristic_formula(model, mode: Mode, n: int, facet: int) -> Formula:
    """The depth-n formula at ``facet``, built over its backward cone only.

    The cone is ``facet`` at depth n and, at each depth k - 1, the facets
    that the cone's depth-k formulas mention: in K mode the members of their
    {a}-classes for every agent a, in D mode every facet. Formulas outside
    the cone are never built. The result is the same interned node as
    ``characteristic_formulas(model, mode, n)[n][facet]``, disjuncts and
    their order included, so its s-expression is the same too.
    """
    if not 0 <= facet < model.n_facets:
        raise UsageError(f"facet index {facet} out of range")
    return _levels(model, mode, n, (facet,))[n][facet]


def _levels(model, mode: Mode, n: int, top) -> list[dict[int, Formula]]:
    """Formulas of depth 0..n over the backward cone of the facets ``top``:
    entry [k] maps each cone facet at depth k, in ascending order, to its
    depth-k formula."""
    _check_mode(mode)
    if n < 0:
        raise UsageError("formula depth must be >= 0")
    ws = model.workspace
    universe = [atom(a, v) for (a, v) in ws.atom_universe()]
    if not universe:
        raise UsageError("empty atom universe")
    nf, n_agents = model.n_facets, ws.n_agents

    # cone[k]: the facets whose depth-k formula is needed. A facet lies in
    # its own classes, so each level's cone contains the one above it.
    cone = [sorted(top)]
    if mode == "K":
        classes = []
        for a in range(n_agents):
            ids, order, starts = model.face_classes((a,))
            classes.append((ids.tolist(),
                            [c.tolist() for c in np.split(order, starts[1:])]))
        for _ in range(n):
            below = set()
            for x in cone[-1]:
                for ids, members in classes:
                    below.update(members[ids[x]])
            cone.append(sorted(below))
    else:
        cone += [range(nf)] * n
    cone.reverse()

    base = {}
    for x in cone[0]:
        lab = model.facet_labels[x]
        parts = [neg(p) for p in universe if p.payload in lab]
        parts += [p for p in universe if p.payload not in lab]
        base[x] = disj(parts)
    levels = [base]

    if mode == "K":
        def level(prev, xs):
            # the K a disjuncts are the same for all members of one {a}-class
            known: list[dict[int, list[Formula]]] = [{} for _ in classes]
            out = {}
            for x in xs:
                parts = [base[x]]
                for a, (ids, members) in enumerate(classes):
                    c = ids[x]
                    if c not in known[a]:
                        known[a][c] = [know(a, prev[y]) for y in members[c]]
                    parts += known[a][c]
                out[x] = disj(parts)
            return out
    else:
        # groups[bits]: the colors whose bits are set. The rows of shared-color
        # bits are made a block of facets at a time, in one comparison each,
        # and dropped after their formulas, so no facet x facet table is kept
        vt = model.vertex_table
        weights = 1 << np.arange(n_agents)
        groups = [frozenset(a for a in range(n_agents) if bits >> a & 1)
                  for bits in range(1 << n_agents)]
        block = max(1, _BLOCK_CELLS // nf)

        def level(prev, xs):
            out = {}
            for start in range(0, len(xs), block):
                part = xs[start:start + block]
                rows = ((vt[part, None] == vt) @ weights).tolist()
                for x, row in zip(part, rows):
                    out[x] = disj([dknow(groups[bits], prev[y])
                                   for y, bits in enumerate(row)])
            return out

    for k in range(1, n + 1):
        levels.append(level(levels[-1], cone[k]))
    return levels


@dataclass
class ObstructionCheck:
    """Model-checking outcome for a candidate obstruction formula."""

    task_models_phi: bool
    protocol_countermodel: int | None
    # phi's truth vector on the protocol, kept for the witness check
    _protocol_truth: np.ndarray | None = field(default=None, repr=False,
                                               compare=False)

    @property
    def confirms(self) -> bool:
        return self.task_models_phi and self.protocol_countermodel is not None

    def to_json(self) -> dict:
        return {"task_models_phi": self.task_models_phi,
                "protocol_countermodel": self.protocol_countermodel}


def verify_obstruction(phi: Formula, task, protocol) -> ObstructionCheck:
    """phi obstructs when the task model satisfies it everywhere and some
    protocol facet refutes it. Only positive formulas qualify. Both models
    are checked in one table over their disjoint union."""
    if classify(phi) not in (FormulaClass.LK_POS, FormulaClass.LD_POS):
        raise UsageError("obstruction candidates must be positive formulas")
    vec = ModelTable(task, protocol).satisfies(phi)
    task_vec, prot_vec = vec[:task.n_facets], vec[task.n_facets:]
    refuted = np.flatnonzero(~prot_vec)
    return ObstructionCheck(task_models_phi=bool(task_vec.all()),
                            protocol_countermodel=int(refuted[0]) if len(refuted) else None,
                            _protocol_truth=prot_vec)


@dataclass
class ObstructionVerdict:
    exists: bool
    mode: Mode
    n: int
    witness: int | None
    phi: Formula | None
    verification: ObstructionCheck | None
    step_sizes: list[int]
    step_total: list[bool]

    def to_json(self, phi_file: str | None = None) -> dict:
        return {
            "exists": self.exists,
            "mode": self.mode,
            "n": self.n,
            "witness": self.witness,
            "phi_file": phi_file,
            "verified": self.verification.to_json() if self.verification else None,
            "steps": [{"n": i, "pairs": p, "total": t}
                      for i, (p, t) in enumerate(zip(self.step_sizes, self.step_total))],
        }


def decide_obstruction(protocol, task, mode: Mode) -> ObstructionVerdict:
    """Run the chain; either it is total at stabilization (no obstruction,
    the task is solvable as far as this mode can tell) or the characteristic
    formula at the lowest uncovered facet is a verified obstruction.

    The per-step totality record lets callers spot smaller depths by hand.
    A synthesized formula that fails verification raises
    InternalConsistencyError: the two routes must agree.
    """
    engine = SimulationEngine(protocol, task)
    chain = engine.chain(mode)
    sizes, totals = chain.step_sizes, chain.step_total
    witnesses = totality_witnesses(chain.fixpoint)
    if not witnesses:
        return ObstructionVerdict(False, mode, chain.stabilized_at, None, None,
                                  None, sizes, totals)
    x = witnesses[0]
    n = chain.stabilized_at
    phi = characteristic_formula(protocol, mode, n, x)
    check = verify_obstruction(phi, task, protocol)
    refuted_at_witness = not check._protocol_truth[x]
    if not (check.task_models_phi and refuted_at_witness):
        raise InternalConsistencyError(
            f"obstruction at facet {x} (depth {n}) failed verification: "
            f"{check.to_json()}")
    return ObstructionVerdict(True, mode, n, x, phi, check, sizes, totals)
