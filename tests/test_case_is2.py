"""The two-round snapshot vs 2-set agreement case study."""

import itertools

import numpy as np
import pytest

import oracles
from delsim.case_is2 import (ConflictRelation, conflict_relation, conflict_report,
                             explicit_sa2_relation, initial_block_facets,
                             location_violations)
from delsim.errors import UsageError
from delsim.generators import agreement_run, snapshot_run
from delsim.models import standard_workspace
from delsim.simulation import SimulationEngine

# layer sizes frozen after matching the matrix-closure oracle exactly
SINGLE_INPUT_LAYERS = [102, 118, 120, 122, 124, 126]
SINGLE_INPUT_FINAL = 24
FULL_LAYERS = [2070, 2502, 2556, 2610, 2664, 2718]
FULL_FINAL = 648


def conflict_inputs(snap):
    agents_seen, _ = oracles.views_seen(snap)
    return [f.vertices for f in snap.model.facets], agents_seen


@pytest.mark.parametrize("p,q", [(0, 1), (0, 2), (1, 2)])
def test_single_input_conflicts_match_oracle(snap_si, p, q):
    rel = conflict_relation(snap_si, p, q)
    assert rel.layer_sizes() == SINGLE_INPUT_LAYERS
    assert len(rel.final) == SINGLE_INPUT_FINAL
    assert rel.stabilized_at == 5
    fv, va = conflict_inputs(snap_si)
    layers, final = oracles.conflict_naive(fv, va, p, q)
    assert tuple(layers) == rel.layers and final == rel.final


def test_full_conflicts_match_oracle(snap2_3):
    rel = conflict_relation(snap2_3, 0, 1)
    assert rel.layer_sizes() == FULL_LAYERS
    assert len(rel.final) == FULL_FINAL
    fv, va = conflict_inputs(snap2_3)
    layers, final = oracles.conflict_naive(fv, va, 0, 1)
    assert tuple(layers) == rel.layers and final == rel.final


def test_seed_pairs_are_edges(snap_si):
    edges = set()
    for f in snap_si.model.facets:
        for x, y in itertools.combinations(f.vertices, 2):
            edges.add(frozenset((x, y)))
    rel = conflict_relation(snap_si, 0, 1)
    for x, y in rel.layers[0]:
        assert x != y and frozenset((x, y)) in edges


def test_derived_pairs_avoid_initial_blocks(snap_si):
    for p, q in itertools.combinations(range(3), 2):
        rel = conflict_relation(snap_si, p, q)
        assert location_violations(snap_si, rel) == []


@pytest.fixture(scope="module", params=[(0, 0, 0), (0, 1, 2)], ids=["000", "012"])
def snap_by_inputs(request, ws3):
    return snapshot_run(ws3, 2, request.param)


@pytest.mark.parametrize("seed", range(3))
def test_location_violations_match_oracle_on_synthetic_relations(snap_by_inputs, seed):
    """Real conflict relations have no violations, so random relations
    stand in: half their keys are co-facet vertex pairs, many of them
    inside the initial blocks."""
    snap = snap_by_inputs
    rng = np.random.default_rng(seed)
    n = len(snap.model.complex.vertices)
    table = snap.model.vertex_table.astype(np.int64)
    edges = np.concatenate([table[:, a] * n + table[:, b]
                            for a, b in itertools.permutations(range(3), 2)])
    keys = np.unique(np.concatenate([rng.choice(edges, 60), rng.integers(0, n * n, 60)]))
    rel = ConflictRelation(0, 2, n, keys, rng.integers(0, 3, len(keys)))
    got = location_violations(snap, rel)
    blocks = initial_block_facets(snap, 0) | initial_block_facets(snap, 2)
    fv = [f.vertices for f in snap.model.facets]
    assert got == oracles.location_violations_naive(fv, blocks, rel.final)
    assert got


def test_initial_block_facets_partition_sensibly(snap_si):
    blocks = {a: initial_block_facets(snap_si, a) for a in range(3)}
    n = snap_si.model.n_facets
    for a in range(3):
        assert 0 < len(blocks[a]) < n
    # schedules whose first round starts with everyone at once land in all
    # three blocks, so the union covers more than any single block
    assert len(blocks[0] | blocks[1] | blocks[2]) > len(blocks[0])


def test_conflict_requires_ordered_distinct_agents(snap_si):
    with pytest.raises(UsageError):
        conflict_relation(snap_si, 1, 0)
    with pytest.raises(UsageError):
        conflict_relation(snap_si, 1, 1)


def test_case_guards_reject_other_setups(ws3):
    with pytest.raises(UsageError):
        conflict_relation(snapshot_run(ws3, 1), 0, 1)
    two = standard_workspace(2, (0, 1))
    with pytest.raises(UsageError):
        conflict_relation(snapshot_run(two, 2), 0, 1)


def test_explicit_relation_is_total_d_simulation_single_input(snap_si, ws3):
    agree = agreement_run(ws3, 2)
    rel = explicit_sa2_relation(snap_si, agree)
    assert rel.is_total()
    report = SimulationEngine(snap_si.model, agree.model).verify(rel, "D")
    assert report.is_simulation and report.total


@pytest.mark.parametrize("snap", ["snap_si", "snap2_3"])
def test_explicit_relation_matches_oracle(request, snap, agree2_3):
    snap = request.getfixturevalue(snap)
    rel = explicit_sa2_relation(snap, agree2_3)
    assert frozenset(rel.pairs()) == oracles.explicit_sa2_naive(snap, agree2_3)


def test_explicit_relation_needs_k2(snap_si, ws3):
    with pytest.raises(UsageError):
        explicit_sa2_relation(snap_si, agreement_run(ws3, 1))


def test_conflict_report_shape(snap_si):
    rel = conflict_relation(snap_si, 0, 2)
    doc = conflict_report(rel)
    assert doc["p"] == 0 and doc["q"] == 2
    assert [len(l) for l in doc["layers"]] == SINGLE_INPUT_LAYERS
    assert len(doc["final"]) == SINGLE_INPUT_FINAL
    assert doc["final"] == sorted(doc["final"])
