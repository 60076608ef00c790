"""Characteristic formulas, simulation duality, obstruction decisions."""

import pytest

import oracles
from delsim.errors import UsageError
from delsim.logic import FormulaClass, ModelTable, atom, classify, neg
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
                assert step.contains(x, y) == (not vec[y]), (mode, n, x, y)


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
                assert step.contains(x, y) == (not holds)


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


def test_verify_obstruction_rejects_non_positive(snap1_2, agree1_2):
    from delsim.logic import know
    with pytest.raises(UsageError):
        verify_obstruction(neg(know(0, atom(0, 0))), agree1_2.model,
                           snap1_2.model)


def test_identity_never_obstructed():
    m = input_model(standard_workspace(2, (0, 1)))
    for mode in ("K", "D"):
        assert not decide_obstruction(m, m, mode).exists
