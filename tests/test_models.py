"""Workspaces, input models, product update, morphisms."""

import enum
import hashlib
import time

import pytest

import oracles
from delsim.errors import UsageError
from delsim.generators import agreement_run, snapshot_run
from delsim.logic import atom, conj, dknow
from delsim.models import (ActionModel, Morphism, Workspace, find_morphism,
                           graph_of_morphism, input_model, product_update,
                           standard_workspace)
from delsim.simulation import SimulationEngine


def test_workspace_validation():
    with pytest.raises(UsageError):
        Workspace((), (0,))
    with pytest.raises(UsageError):
        Workspace(("p0", "p0"), (0,))
    with pytest.raises(UsageError):
        Workspace(("p0",), ())
    with pytest.raises(UsageError):
        Workspace(("p0",), (0, 0))


def test_workspace_values_are_exactly_int_or_str():
    """An int or str subclass would intern atoms equal to, and so aliased
    with, the plain value's."""
    class Value(enum.IntEnum):
        ZERO = 0

    for bad in (True, Value.ZERO, 1.0):
        with pytest.raises(UsageError, match="values must be int or str"):
            Workspace(("p0",), (bad, "x"))


def test_standard_workspace_defaults():
    ws = standard_workspace(3)
    assert ws.agents == ("p0", "p1", "p2")
    assert ws.values == (0, 1, 2)
    assert ws.atom_universe() == [(a, v) for a in range(3) for v in (0, 1, 2)]


def test_input_model_counts():
    m2 = input_model(standard_workspace(2, (0, 1)))
    assert (m2.n_facets, len(m2.complex.vertices)) == (4, 4)
    m3 = input_model(standard_workspace(3))
    assert (m3.n_facets, len(m3.complex.vertices)) == (27, 9)
    # every facet's label is a complete input assignment
    for i in range(m3.n_facets):
        lab = m3.label(i)
        assert sorted(a for a, _ in lab) == [0, 1, 2]


def test_input_model_labels_are_distinct():
    m = input_model(standard_workspace(3))
    assert len({m.label(i) for i in range(m.n_facets)}) == m.n_facets


def test_product_update_consensus_counts(snap1_2, agree1_2):
    assert snap1_2.model.n_facets == 12
    assert agree1_2.model.n_facets == 6


def test_product_facets_inherit_source_labels(snap1_2):
    run = snap1_2.run
    src = run.input
    for i in range(snap1_2.model.n_facets):
        assert snap1_2.model.label(i) == src.label(run.source_facet(i))


def test_product_update_provenance_well_formed(agree1_2):
    run = agree1_2.run
    n_src = run.input.n_facets
    n_act = run.action.n_facets
    for i in range(agree1_2.model.n_facets):
        s, t = run.result.facet_sources[i]
        assert 0 <= s < n_src and 0 <= t < n_act
        # the product facet satisfies exactly what provenance promises:
        # labels copied from the source facet
        assert agree1_2.model.label(i) == run.input.label(s)


def test_product_update_rejects_workspace_mismatch():
    ws_a = standard_workspace(2, (0, 1))
    ws_b = standard_workspace(2, (0, 2))
    m = input_model(ws_a)
    from delsim.generators import agreement_action
    act = agreement_action(ws_b, 1).action
    with pytest.raises(UsageError):
        product_update(m, act)


def test_product_update_rejects_empty_result():
    ws = standard_workspace(2, (0, 1))
    m = input_model(ws)
    from delsim.complexes import ChromaticComplex, Vertex
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 1, frozenset())]
    cx = ChromaticComplex(2, vs, [(0, 1)])
    # precondition no facet satisfies
    bad = conj([atom(0, 0), atom(0, 1)])
    act = ActionModel(ws, cx, [bad])
    with pytest.raises(UsageError):
        product_update(m, act)


def test_action_model_rejects_group_knowledge_preconditions():
    ws = standard_workspace(2, (0, 1))
    from delsim.complexes import ChromaticComplex, Vertex
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 1, frozenset())]
    cx = ChromaticComplex(2, vs, [(0, 1)])
    with pytest.raises(UsageError):
        ActionModel(ws, cx, [dknow([0, 1], atom(0, 0))])


def test_find_morphism_agrees_with_enumeration(snap1_2, agree1_2, agree2_2):
    found_none = find_morphism(snap1_2.model, agree1_2.model)
    oracle_none = next(oracles.morphisms_naive(snap1_2.model, agree1_2.model),
                       None)
    assert found_none is None and oracle_none is None

    found = find_morphism(snap1_2.model, agree2_2.model)
    oracle = next(oracles.morphisms_naive(snap1_2.model, agree2_2.model), None)
    assert found is not None and oracle is not None
    assert found.validate(snap1_2.model, agree2_2.model) == []
    assert Morphism(oracle).validate(snap1_2.model, agree2_2.model) == []


def test_no_morphism_when_d_fixpoint_not_total(snap1_3, agree2_3):
    """One round of 3-agent snapshots has no morphism to 2-set agreement;
    the D chain is not total there, so the search ends before it starts."""
    t0 = time.perf_counter()
    assert find_morphism(snap1_3.model, agree2_3.model) is None
    assert time.perf_counter() - t0 < 10


def test_identity_morphism_found():
    m = input_model(standard_workspace(2, (0, 1)))
    f = find_morphism(m, m)
    assert f is not None
    assert f.validate(m, m) == []


# sha256 of repr(vmap) for each case: a change to the order in which the
# search visits candidates shows here
MORPHISM_SHA256 = {
    "2x1-sa2": "fa141468422097084231188e0e209debe6c3b0e5946a50dc4298775a6c9fb24d",
    "2x2-sa2": "edb03d8f9d0f3445a65da5a8e7d4ab374bf417c8ee854f56c82605728754ecac",
    "3x1-sa3": "f9b4969c7e1f9c2418b700d4209b4261a573b0a4a3c0d9580d7c2c54671ce6a9",
    "input3": "43f8bb95f4bf3f1f0f7dc0f1f32a3f1d9b6519fda024d63edec2621e50e1ff21",
}


@pytest.mark.parametrize("case", sorted(MORPHISM_SHA256))
def test_find_morphism_vmaps_are_pinned(case, ws2, ws3):
    ws, rounds, k = {"2x1-sa2": (ws2, 1, 2), "2x2-sa2": (ws2, 2, 2),
                     "3x1-sa3": (ws3, 1, 3), "input3": (ws3, 0, 0)}[case]
    if rounds:
        source, target = snapshot_run(ws, rounds).model, agreement_run(ws, k).model
    else:
        source = target = input_model(ws)
    found = find_morphism(source, target)
    assert found.validate(source, target) == []
    assert hashlib.sha256(repr(found.vmap).encode()).hexdigest() == MORPHISM_SHA256[case]


def test_find_morphism_searches_without_recursion(snap2_3, ws3):
    """Two rounds of 3-agent snapshots (4563 facets) map to 3-set agreement
    by deciding one's own input. The search branches once per source facet,
    so it must not recurse per branch: at the default recursion limit a
    recursive search raises RecursionError here."""
    task = agreement_run(ws3, 3).model
    found = find_morphism(snap2_3.model, task)
    assert found is not None
    report = SimulationEngine(snap2_3.model, task).verify(
        graph_of_morphism(found, snap2_3.model, task), "D")
    assert report.is_simulation and report.total


def test_morphism_validate_reports_violations(snap1_2, agree2_2):
    n = len(snap1_2.model.complex.vertices)
    bogus = Morphism(tuple([0] * n))
    errs = bogus.validate(snap1_2.model, agree2_2.model)
    assert errs


def test_graph_of_morphism_is_a_simulation_both_ways(snap1_2, agree2_2):
    f = find_morphism(snap1_2.model, agree2_2.model)
    rel = graph_of_morphism(f, snap1_2.model, agree2_2.model)
    assert rel.is_total()
    eng = SimulationEngine(snap1_2.model, agree2_2.model)
    for mode in ("K", "D"):
        report = eng.verify(rel, mode)
        assert report.is_simulation and report.total


def test_graph_of_morphism_rejects_non_morphism(snap1_2, agree2_2):
    n = len(snap1_2.model.complex.vertices)
    with pytest.raises(UsageError):
        graph_of_morphism(Morphism(tuple([0] * n)), snap1_2.model,
                          agree2_2.model)
