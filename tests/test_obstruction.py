"""Characteristic formulas, simulation duality, obstruction decisions."""

import hashlib
import json
import tracemalloc

import pytest

import oracles
from delsim import logic, serialize
from delsim.errors import UsageError
from delsim.generators import agreement_run, snapshot_run, staircase_setup
from delsim.logic import (FormulaClass, ModelTable, atom, classify, dag_size,
                          from_sexp, neg, to_sexp, tree_size)
from delsim.models import find_morphism, input_model, standard_workspace
from delsim.obstruction import (characteristic_formula, characteristic_formulas,
                                decide_obstruction, verify_obstruction)
from delsim.simulation import SimulationEngine


def assert_duality(left, right, mode):
    """Exact correspondence: a pair is in step n iff the right facet fails
    the left facet's depth-n characteristic formula."""
    ch = SimulationEngine(left, right).chain(mode)
    phis = characteristic_formulas(left, mode, ch.stabilized_at)
    table = ModelTable(right)
    for n, step in enumerate(ch.steps):
        for x in range(left.n_facets):
            vec = table.satisfies(phis[n][x])
            for y in range(right.n_facets):
                assert (y in step.partners(x)) == (not vec[y]), (mode, n, x, y)


def test_base_level_encodes_label_difference(snap1_2, agree1_2):
    phis = characteristic_formulas(snap1_2.model, "K", 0)
    table = ModelTable(agree1_2.model)
    for x in range(snap1_2.model.n_facets):
        vec = table.satisfies(phis[0][x])
        for y in range(agree1_2.model.n_facets):
            differs = oracles.facet_label(snap1_2.model, x) != \
                oracles.facet_label(agree1_2.model, y)
            assert bool(vec[y]) == differs


@pytest.mark.parametrize("mode", ["K", "D"])
def test_duality_consensus(snap1_2, agree1_2, mode):
    assert_duality(snap1_2.model, agree1_2.model, mode)


@pytest.mark.parametrize("mode", ["K", "D"])
def test_duality_staircase(stair, mode):
    assert_duality(stair.protocol_run.model, stair.task_run.model, mode)


@pytest.mark.parametrize("mode", ["K", "D"])
def test_duality_against_naive_evaluator(stair, mode):
    # same statement, but the formula side goes through the oracle evaluator
    left = stair.protocol_run.model
    right = stair.task_run.model
    ch = SimulationEngine(left, right).chain(mode)
    phis = characteristic_formulas(left, mode, ch.stabilized_at)
    for n, step in enumerate(ch.steps):
        for x in range(left.n_facets):
            for y in range(right.n_facets):
                holds = oracles.eval_naive(right, y, phis[n][x])
                assert (y in step.partners(x)) == (not holds)


def test_formula_levels_stay_in_positive_fragment(stair):
    left = stair.protocol_run.model
    for mode, cls in (("K", FormulaClass.LK_POS), ("D", FormulaClass.LD_POS)):
        phis = characteristic_formulas(left, mode, 3)
        for level in phis[1:]:
            for f in level:
                assert classify(f) is cls
        # depth grows with the level
        assert phis[3][0].degree == 3


def test_characteristic_formula_single_facet(stair):
    left = stair.protocol_run.model
    f = characteristic_formula(left, "K", 2, 1)
    assert f is characteristic_formulas(left, "K", 2)[2][1]


def test_obstruction_found_for_consensus(snap1_2, agree1_2):
    v = decide_obstruction(snap1_2.model, agree1_2.model, "K")
    assert v.exists
    assert v.step_sizes == [18, 14, 10, 6, 2, 0]
    assert v.witness == 0
    assert v.verification.confirms
    assert classify(v.phi) is FormulaClass.LK_POS
    # no morphism either: the two solvability views agree
    assert find_morphism(snap1_2.model, agree1_2.model) is None
    d = v.to_json(phi_file="x.sexp")
    assert d["exists"] and d["phi_file"] == "x.sexp"
    assert [s["pairs"] for s in d["steps"]] == v.step_sizes


def test_no_obstruction_when_total(snap1_2, agree2_2):
    for mode in ("K", "D"):
        v = decide_obstruction(snap1_2.model, agree2_2.model, mode)
        assert not v.exists
        assert v.witness is None and v.phi is None and v.verification is None
        assert v.step_total[-1]
        assert v.to_json()["verified"] is None


def test_verify_obstruction_checks_both_sides(snap1_2, agree1_2):
    v = decide_obstruction(snap1_2.model, agree1_2.model, "K")
    check = verify_obstruction(v.phi, agree1_2.model, snap1_2.model)
    assert check.task_models_phi
    assert check.protocol_countermodel == 0
    # a formula the task refutes somewhere is no obstruction
    bad = atom(0, 0)
    check2 = verify_obstruction(bad, agree1_2.model, snap1_2.model)
    assert not check2.confirms


# sha256 of the obstructions' s-expressions, recorded before the writer
# changed: the text of a formula must not move when its code does.
PINNED_SEXP = {
    ("consensus", "K"): "a4132ec62b6abf0c28440fc716e4ca633031d63837e695f0b141983bc660de86",
    ("staircase", "K"): "8cf544d6d243a4f86c102c87d4560d5a1010cdee3158a9586ac00bfb2f13968c",
    ("staircase", "D"): "7d0d1e02ebc9e2832c7c81638ca957b3d6ec5adcbb6baa751798de90857304e5",
}


@pytest.mark.parametrize("case, mode", sorted(PINNED_SEXP))
def test_obstruction_sexp_text_is_pinned(case, mode, snap1_2, agree1_2, stair):
    protocol, task = ((snap1_2.model, agree1_2.model) if case == "consensus"
                      else (stair.protocol_run.model, stair.task_run.model))
    phi = decide_obstruction(protocol, task, mode).phi
    assert hashlib.sha256(to_sexp(phi).encode()).hexdigest() == PINNED_SEXP[case, mode]


@pytest.fixture(scope="module")
def stair256():
    return staircase_setup(256)


@pytest.mark.parametrize("mode", ["K", "D"])
def test_model_check_memory_follows_the_dag_width(stair256, mode):
    """Checking staircase N=256's obstruction on the task model holds well
    under half of one byte per DAG node and facet: a subformula's vector is
    freed once its last parent is computed. The formula is a long thin chain
    of modal steps, so a table that kept every node's vector would need
    about dag_size x n_facets bytes."""
    task = stair256.task_run.model
    phi = decide_obstruction(stair256.protocol_run.model, task, mode).phi
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        vec = ModelTable(task).satisfies(phi)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert vec.all()
    assert peak < dag_size(phi) * task.n_facets / 2, (peak, dag_size(phi))


def test_d_synthesis_keeps_no_facet_by_facet_table(snap1_3):
    """A depth-2 D formula over 351 facets takes each facet's row of shared
    colours only while that facet's formula is made. A row kept for every
    facet would be 351 x 351 references, about 1 MB; the bound is a quarter
    of that. Measured on a second build, whose nodes are already interned."""
    model = snap1_3.model
    phi = characteristic_formula(model, "D", 2, 0)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        again = characteristic_formula(model, "D", 2, 0)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert again is phi
    assert peak < 8 * model.n_facets ** 2 / 4, peak


@pytest.mark.parametrize("mode", ["K", "D"])
def test_characteristic_formula_builds_only_its_cone(snap1_3, mode, monkeypatch):
    """Every node the builder interns is a node of the formula: nothing
    outside the facet's backward cone is built, its top level included."""
    monkeypatch.setattr(logic, "_INTERNED", {})
    phi = characteristic_formula(snap1_3.model, mode, 2, 0)
    assert len(logic._INTERNED) == dag_size(phi)


def test_reading_an_obstruction_back_holds_no_token_list():
    """Reading back consensus' K obstruction over 3 agents, 2 rounds and
    inputs {0, 1}, about 100k tokens in 390 KB of text, peaks under 1 MB:
    the reader holds the bound names and the open forms, not a list of the
    text's tokens, which alone would take about 4 MB."""
    ws = standard_workspace(3, (0, 1))
    phi = decide_obstruction(snapshot_run(ws, 2).model, agreement_run(ws, 1).model, "K").phi
    text = to_sexp(phi)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        back = from_sexp(text)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert back is phi
    assert len(text) > 300_000 and peak < 1_000_000, (len(text), peak)


def test_an_obstruction_dag_is_walked_once(snap1_2, agree1_2, monkeypatch):
    """The verdict, the writer, the reader, re-checks on fresh tables of
    reloaded models and both size functions all read the one walk plan that
    the first of them leaves on phi, so phi's DAG is walked once."""
    monkeypatch.setattr(logic, "_INTERNED", {})  # phi built anew, with no plan
    walked = []
    postorder = logic._postorder
    monkeypatch.setattr(logic, "_postorder",
                        lambda f, *args: walked.append(f) or postorder(f, *args))
    verdict = decide_obstruction(snap1_2.model, agree1_2.model, "K")
    phi = verdict.phi
    assert from_sexp(to_sexp(phi)) is phi
    task, protocol = (serialize.model_from_json(json.loads(
        serialize.dumps(serialize.model_to_json(m)))) for m in (agree1_2.model, snap1_2.model))
    assert ModelTable(task).satisfies(phi).all()
    assert not ModelTable(protocol).check(verdict.witness, phi)
    assert 1 < dag_size(phi) <= tree_size(phi)
    assert walked.count(phi) == 1


def test_one_table_walks_nested_formulas_above_what_it_holds(monkeypatch):
    """Asked about every level of staircase N=32's characteristic formulas
    one at a time, as `assert_duality` asks, a table walks only the nodes
    above the formulas it holds and keeps a walk plan on none but the first
    it was asked about: walking each level's whole DAG would list every
    node once per level above it."""
    monkeypatch.setattr(logic, "_INTERNED", {})  # no plans from earlier tests
    s = staircase_setup(32)
    left, right = s.protocol_run.model, s.task_run.model
    phis = characteristic_formulas(
        left, "K", SimulationEngine(left, right).chain("K").stabilized_at)
    postorder, walks = logic._postorder, []
    monkeypatch.setattr(logic, "_postorder",
                        lambda f, *args: walks.append(postorder(f, *args)) or walks[-1])
    table = ModelTable(right)
    asked = [phi for level in phis for phi in level]
    for phi in asked:
        held, n_walks = set(table._vals), len(walks)
        table.satisfies(phi)
        assert all(held.isdisjoint(walk) for walk in walks[n_walks:])
    nodes = set().union(*map(postorder, asked))
    assert sum(map(len, walks)) < 2 * len(nodes)
    assert {phi for phi in asked if phi._plan is not None} == {asked[0]}


def test_verify_obstruction_rejects_non_positive(snap1_2, agree1_2):
    from delsim.logic import know
    with pytest.raises(UsageError):
        verify_obstruction(neg(know(0, atom(0, 0))), agree1_2.model,
                           snap1_2.model)


def test_identity_never_obstructed():
    m = input_model(standard_workspace(2, (0, 1)))
    for mode in ("K", "D"):
        assert not decide_obstruction(m, m, mode).exists
