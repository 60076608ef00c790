"""Acceptance suite: the eight headline guarantees, one test each.

Each test prints a single ``ACCEPTANCE n: PASS/FAIL`` line (visible with
``pytest tests/test_acceptance.py -v -s``) and enforces its time budget
where one is stated. Builds happen inside the timed region so the budgets
cover the whole decision procedure, not just the last step.
"""

import itertools
import random
import time
from contextlib import contextmanager

import oracles
from delsim.case_is2 import (conflict_relation, explicit_sa2_relation,
                             location_violations)
from delsim.generators import (DiGraph, agreement_run,
                               domination_number, explicit_agreement_relation,
                               knowall_run, ordered_partitions,
                               round_prefix_morphism, snapshot_run,
                               staircase_setup)
from delsim.logic import ModelTable, atom, conj, disj, dknow, know, neg
from delsim.models import (find_morphism, graph_of_morphism, input_model,
                           standard_workspace)
from delsim.obstruction import characteristic_formulas, decide_obstruction
from delsim.simulation import SimulationEngine
from oracles import compute_view


@contextmanager
def criterion(n: int, what: str, budget: float | None = None):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException as e:
        print(f"\nACCEPTANCE {n}: FAIL ({what}) [{type(e).__name__}: {e}]")
        raise
    dt = time.perf_counter() - t0
    if budget is not None and dt > budget:
        print(f"\nACCEPTANCE {n}: FAIL ({what}) [{dt:.1f}s over {budget:.0f}s budget]")
        raise AssertionError(f"criterion {n} took {dt:.1f}s, budget {budget}s")
    print(f"\nACCEPTANCE {n}: PASS ({what}) [{dt:.1f}s]")


def test_acceptance_1_one_round_two_set_agreement_solvable():
    with criterion(1, "one-round snapshots solve 2-set agreement, K mode",
                   budget=10.0):
        for n_agents in (3, 2):
            ws = standard_workspace(n_agents) if n_agents == 3 else \
                standard_workspace(2, (0, 1))
            snap = snapshot_run(ws, 1)
            agree = agreement_run(ws, 2)
            eng = SimulationEngine(snap.model, agree.model)
            fix = eng.chain("K").fixpoint
            assert fix.is_total(), f"{n_agents}-agent fixpoint not total"
            rel = explicit_agreement_relation(snap, agree)
            report = eng.verify(rel, "K")
            assert report.is_simulation and report.total
            assert rel <= fix


def test_acceptance_2_consensus_obstructed():
    with criterion(2, "one-round snapshots cannot solve consensus",
                   budget=5.0):
        ws = standard_workspace(2, (0, 1))
        snap = snapshot_run(ws, 1)
        agree = agreement_run(ws, 1)
        verdict = decide_obstruction(snap.model, agree.model, "K")
        assert verdict.exists
        assert verdict.verification.confirms
        assert find_morphism(snap.model, agree.model) is None


def test_acceptance_3_formula_relation_duality():
    with criterion(3, "characteristic formulas mirror chain membership "
                      "exhaustively on three small model pairs"):
        ws = standard_workspace(2, (0, 1))
        stair = staircase_setup(4)
        pairs = [
            (stair.protocol_run.model, stair.task_run.model),
            (input_model(ws), agreement_run(ws, 1).model),
            (input_model(ws), input_model(ws)),
        ]
        for left, right in pairs:
            assert left.n_facets <= 10 and right.n_facets <= 10
            for mode in ("K", "D"):
                ch = SimulationEngine(left, right).chain(mode)
                phis = characteristic_formulas(left, mode, ch.stabilized_at)
                table = ModelTable(right)
                for n, step in enumerate(ch.steps):
                    for x in range(left.n_facets):
                        vec = table.satisfies(phis[n][x])
                        for y in range(right.n_facets):
                            assert (y in step.partners(x)) == (not vec[y])
        # replay one pair through the definition-chasing evaluator
        left, right = pairs[0]
        for mode in ("K", "D"):
            ch = SimulationEngine(left, right).chain(mode)
            phis = characteristic_formulas(left, mode, ch.stabilized_at)
            for n, step in enumerate(ch.steps):
                for x in range(left.n_facets):
                    for y in range(right.n_facets):
                        assert (y in step.partners(x)) == \
                            (not oracles.eval_naive(right, y, phis[n][x]))


def test_acceptance_4_two_round_snapshots_solve_2set_agreement():
    with criterion(4, "two-round snapshots solve 2-set agreement, D mode, "
                      "full input space", budget=600.0):
        ws = standard_workspace(3)
        snap = snapshot_run(ws, 2)
        agree = agreement_run(ws, 2)
        assert snap.model.n_facets == 4563 and agree.model.n_facets == 273

        conflicts = {(p, q): conflict_relation(snap, p, q)
                     for p, q in itertools.combinations(range(3), 2)}
        for rel in conflicts.values():
            assert location_violations(snap, rel) == []

        explicit = explicit_sa2_relation(snap, agree, conflicts)
        assert explicit.is_total()
        eng = SimulationEngine(snap.model, agree.model)
        report = eng.verify(explicit, "D")
        assert report.is_simulation and report.total

        verdict = decide_obstruction(snap.model, agree.model, "D")
        assert not verdict.exists
        assert verdict.step_total[-1]


def test_acceptance_5_conflict_construction_facts():
    with criterion(5, "conflict relations: seeds are edges, closure stops "
                      "by round six"):
        ws = standard_workspace(3)
        snap = snapshot_run(ws, 2, (0, 0, 0))
        edges = set()
        for f in snap.model.facets:
            for x, y in itertools.combinations(f.vertices, 2):
                edges.add(frozenset((x, y)))
        for p, q in itertools.combinations(range(3), 2):
            rel = conflict_relation(snap, p, q)
            assert rel.stabilized_at <= 6  # no pair added from round six on
            for x, y in rel.layers[0]:
                assert x != y and frozenset((x, y)) in edges


def test_acceptance_6_isolated_agents_cannot_agree():
    with criterion(6, "self-loop message graphs leave 2-set agreement "
                      "unsolvable, D mode", budget=5.0):
        ws = standard_workspace(3)
        g = DiGraph(3, frozenset((p, p) for p in range(3)))
        run = knowall_run(ws, [g], 1)
        agree = agreement_run(ws, 2)
        assert domination_number(run.protocol.effective) == 3 > 2
        verdict = decide_obstruction(run.model, agree.model, "D")
        assert verdict.exists
        assert verdict.verification.confirms
        # after one refinement the rainbow inputs are already uncovered,
        # among them the facet where each agent holds its own index
        chain = SimulationEngine(run.model, agree.model).chain("D")
        s1 = chain.steps[1]
        uncovered = {i for i in range(run.model.n_facets)
                     if not len(s1.partners(i))}
        identity = {i for i in range(run.model.n_facets)
                    if run.model.label(i) ==
                    frozenset((a, a) for a in range(3))}
        assert identity and identity <= uncovered


def test_acceptance_7_structural_properties():
    with criterion(7, "descent, morphism graphs, singleton groups, view "
                      "bounds, snapshot laws"):
        ws2 = standard_workspace(2, (0, 1))
        ws3 = standard_workspace(3)
        snap2 = snapshot_run(ws2, 1)
        stair = staircase_setup(4)

        # refinement only removes pairs, in both modes, on assorted pairs
        chain_pairs = [
            (snap2.model, agreement_run(ws2, 1).model),
            (snap2.model, agreement_run(ws2, 2).model),
            (stair.protocol_run.model, stair.task_run.model),
        ]
        for left, right in chain_pairs:
            for mode in ("K", "D"):
                ch = SimulationEngine(left, right).chain(mode)
                for a, b in zip(ch.steps, ch.steps[1:]):
                    assert b <= a

        # morphism graphs are total simulations in both modes
        agree22 = agreement_run(ws2, 2)
        f = find_morphism(snap2.model, agree22.model)
        assert f is not None
        graphs = [(graph_of_morphism(f, snap2.model, agree22.model),
                   snap2.model, agree22.model)]
        s3, s2 = snapshot_run(ws2, 3), snapshot_run(ws2, 2)
        prefix = round_prefix_morphism(s3, s2)
        graphs.append((graph_of_morphism(prefix, s3.model, s2.model),
                       s3.model, s2.model))
        for rel, left, right in graphs:
            eng = SimulationEngine(left, right)
            for mode in ("K", "D"):
                report = eng.verify(rel, mode)
                assert report.is_simulation and report.total

        # singleton-group knowledge collapses to individual knowledge
        m = input_model(ws3)
        table = ModelTable(m)
        rng = random.Random(73)

        def rand_formula(depth):
            if depth == 0 or rng.random() < 0.3:
                return atom(rng.randrange(3), rng.choice(ws3.values))
            op = rng.choice(["not", "and", "or", "K", "D"])
            if op == "not":
                return neg(rand_formula(depth - 1))
            if op in ("and", "or"):
                parts = [rand_formula(depth - 1)
                         for _ in range(rng.randint(1, 3))]
                return (conj if op == "and" else disj)(parts)
            if op == "K":
                return know(rng.randrange(3), rand_formula(depth - 1))
            return dknow([a for a in range(3) if rng.random() < 0.5],
                         rand_formula(depth - 1))

        for _ in range(1000):
            f = rand_formula(2)
            a, x = rng.randrange(3), rng.randrange(m.n_facets)
            assert table.check(x, know(a, f)) == table.check(x, dknow([a], f))

        # flattened views sit between the first stage and the full input
        parts3 = ordered_partitions(3)
        for _ in range(1000):
            gammas = tuple(rng.choice(parts3)
                           for _ in range(rng.randint(1, 2)))
            inputs = tuple(rng.choice(ws3.values) for _ in range(3))
            a = rng.randrange(3)
            flat = oracles.view_leaves(compute_view(inputs, gammas, a))
            low = frozenset((p, inputs[p]) for p in gammas[0].chain[0])
            high = frozenset((p, inputs[p]) for p in range(3))
            assert low <= flat <= high

        # snapshot laws on every one-round view: self-inclusion,
        # containment, immediacy
        for g in parts3:
            for inputs in itertools.product(ws3.values, repeat=3):
                views = {a: compute_view(inputs, (g,), a) for a in range(3)}
                for a in range(3):
                    assert (a, inputs[a]) in views[a]
                for a, b in itertools.combinations(range(3), 2):
                    assert views[a] <= views[b] or views[b] <= views[a]
                for a in range(3):
                    for b, _ in oracles.view_leaves(views[a]):
                        assert views[b] <= views[a]


def test_acceptance_8_staircase_obstruction():
    with criterion(8, "staircase slice: strictly shrinking chain, verified "
                      "obstruction"):
        stair = staircase_setup(4)
        left = stair.protocol_run.model
        right = stair.task_run.model
        # the independent chain first, then the engine must reproduce it
        naive = oracles.chain_naive(left, right, "K")
        assert [len(s) for s in naive] == [9, 7, 5, 3, 1, 0]
        ch = SimulationEngine(left, right).chain("K")
        assert [frozenset(s.pairs()) for s in ch.steps] == naive
        strict = sum(1 for a, b in zip(ch.steps, ch.steps[1:])
                     if b.count < a.count)
        assert strict >= 3
        verdict = decide_obstruction(left, right, "K")
        assert verdict.exists and verdict.verification.confirms
