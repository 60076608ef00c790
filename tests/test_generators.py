"""Protocol and task generators: schedules, views, graphs, staircase."""

import gc
import hashlib
import itertools
import random
import tracemalloc

import pytest

import oracles
from delsim import serialize
from delsim.errors import UsageError
from delsim.generators import (DiGraph, OrderedPartition, agreement_run,
                               compose, compose_rounds,
                               constant_true_protocol, decide_own_input_morphism,
                               domination_number, explicit_agreement_relation,
                               in_neighbors, knowall_run, ordered_partitions,
                               out_neighbors, round_prefix_morphism,
                               snapshot_action, snapshot_run, staircase_task)
from delsim.models import graph_of_morphism, standard_workspace
from delsim.simulation import SimulationEngine
from oracles import compute_view


# -- schedules --------------------------------------------------------------

def test_ordered_partition_counts():
    for n in (1, 2, 3, 4):
        parts = ordered_partitions(n)
        assert len(parts) == oracles.fubini(n)
        assert len(set(map(repr, parts))) == len(parts)


def test_ordered_partition_chains_are_cumulative():
    for g in ordered_partitions(3):
        assert g.chain[-1] == frozenset({0, 1, 2})
        for a, b in zip(g.chain, g.chain[1:]):
            assert a < b


def test_ordered_partition_validation():
    with pytest.raises(UsageError):
        OrderedPartition(())
    with pytest.raises(UsageError):
        OrderedPartition((frozenset(), frozenset({0})))
    with pytest.raises(UsageError):
        OrderedPartition((frozenset({0, 1}), frozenset({0})))


def test_stage_of_is_first_containing_block():
    g = OrderedPartition((frozenset({2}), frozenset({0, 2}),
                          frozenset({0, 1, 2})))
    assert g.stage_of(2) == frozenset({2})
    assert g.stage_of(0) == frozenset({0, 2})
    assert g.stage_of(1) == frozenset({0, 1, 2})


# -- views ------------------------------------------------------------------

def test_view_walkthrough_three_stages():
    # schedule {2} < {0,2} < {0,1,2} on the all-zero input: agent 2 runs
    # first and sees only itself, agent 0 sees {0, 2}, agent 1 sees everyone
    g = OrderedPartition((frozenset({2}), frozenset({0, 2}),
                          frozenset({0, 1, 2})))
    inputs = (0, 0, 0)
    views = [compute_view(inputs, (g,), a) for a in range(3)]
    assert views[0] == frozenset({(0, 0), (2, 0)})
    assert views[1] == frozenset({(0, 0), (1, 0), (2, 0)})
    assert views[2] == frozenset({(2, 0)})


def test_single_round_views_are_snapshots():
    # Self-inclusion, containment, and immediacy on every one-round view
    ws = standard_workspace(3)
    for g in ordered_partitions(3):
        for inputs in itertools.product(ws.values, repeat=3):
            views = {a: compute_view(inputs, (g,), a) for a in range(3)}
            for a in range(3):
                assert (a, inputs[a]) in views[a]
            for a, b in itertools.combinations(range(3), 2):
                assert views[a] <= views[b] or views[b] <= views[a]
            for a in range(3):
                for b, _ in oracles.view_leaves(views[a]):
                    assert views[b] <= views[a]


def test_view_flattening_matches_relational_composition():
    # 1000 seeded schedules of one or two rounds
    parts = ordered_partitions(3)
    ws = standard_workspace(3)
    rng = random.Random(2201)
    for _ in range(1000):
        gammas = tuple(rng.choice(parts) for _ in range(rng.randint(1, 2)))
        inputs = tuple(rng.choice(ws.values) for _ in range(3))
        a = rng.randrange(3)
        flat = oracles.view_leaves(compute_view(inputs, gammas, a))
        heard = oracles.heard_from(gammas, a)
        assert {p for p, _ in flat} == heard
        assert flat == frozenset((p, inputs[p]) for p in heard)


def test_first_stage_inputs_bound_every_view():
    # everyone sees the first stage of round one; nobody sees more than all
    parts = ordered_partitions(3)
    ws = standard_workspace(3)
    rng = random.Random(7311)
    for _ in range(1000):
        gammas = tuple(rng.choice(parts) for _ in range(rng.randint(1, 2)))
        inputs = tuple(rng.choice(ws.values) for _ in range(3))
        a = rng.randrange(3)
        flat = oracles.view_leaves(compute_view(inputs, gammas, a))
        low = frozenset((p, inputs[p]) for p in gammas[0].chain[0])
        high = frozenset((p, inputs[p]) for p in range(3))
        assert low <= flat <= high


# -- snapshot protocol ------------------------------------------------------

def test_snapshot_facet_counts(snap1_3, snap2_3, snap_si):
    assert snap1_3.model.n_facets == oracles.count_snapshot_facets(3, 3, 1, False) == 351
    assert snap2_3.model.n_facets == oracles.count_snapshot_facets(3, 3, 2, False) == 4563
    assert snap_si.model.n_facets == oracles.count_snapshot_facets(3, 3, 2, True) == 169


def test_snapshot_two_agents_one_round(snap1_2):
    assert snap1_2.model.n_facets == 12


def test_snapshot_schedules_regenerate_views(snap1_3):
    # every facet holding a vertex gives it the same view, and distinct
    # vertices have distinct views
    views = oracles.snapshot_views(snap1_3)
    assert len(set(views)) == len(views)
    for t in range(snap1_3.model.n_facets):
        schedules = snap1_3.facet_schedules(t)
        assert len(schedules) == 1  # no facet collisions at this size
        inputs, gammas = schedules[0]
        assert inputs == snap1_3.run.facet_inputs[t]
        facet = snap1_3.model.facets[t]
        for v in facet.vertices:
            a, inp, view = views[v]
            assert inp == inputs[a]
            assert view == compute_view(inputs, gammas, a)


def test_snapshot_facet_inputs_consistent(snap_si):
    assert set(snap_si.run.facet_inputs) == {(0, 0, 0)}


def test_snapshot_labels_are_input_assignments(snap1_3):
    for i in range(snap1_3.model.n_facets):
        lab = snap1_3.model.label(i)
        assert lab == frozenset(enumerate(snap1_3.run.facet_inputs[i]))


def test_snapshot_input_validation(ws3):
    with pytest.raises(UsageError):
        snapshot_run(ws3, 0)
    with pytest.raises(UsageError):
        snapshot_run(ws3, 1, (0, 0))
    with pytest.raises(UsageError):
        snapshot_run(ws3, 1, (0, 0, 9))
    # a value's bit must fit the int64 masks
    assert len(snapshot_run(standard_workspace(1, tuple(range(64))), 1).view_masks[1]) == 64
    with pytest.raises(UsageError):
        snapshot_run(standard_workspace(1, tuple(range(65))), 1).view_masks


@pytest.mark.parametrize("n_agents,rounds",
                         [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2), (2, 3), (4, 1)])
@pytest.mark.parametrize("single_input", [False, True])
def test_snapshot_action_matches_naive_builder(n_agents, rounds, single_input):
    """The round-by-round builder against compute_view over every (inputs,
    schedules) pair: same vertex colors and facet numbering, view masks,
    preconditions and decoded schedules, over all inputs and over one
    assignment (``inputs=``). Facets and masks against the oracle's views
    pin the vertex numbering."""
    values = (0, "one", 2)[:max(n_agents, 2)]
    ws = standard_workspace(n_agents, values)
    inputs = tuple(values[a % len(values)] for a in range(n_agents)) if single_input else None
    got = snapshot_action(ws, rounds, inputs)
    want = oracles.snapshot_action_naive(ws, rounds, inputs)
    assert [v.color for v in got.action.complex.vertices] == \
        [a for a, _, _ in want["vertex_data"]]
    assert [list(f.vertices) for f in got.action.facets] == want["facets"]
    assert len(got.action.pre) == len(want["pre"])
    assert all(p is q for p, q in zip(got.action.pre, want["pre"]))
    assert tuple(map(got.runs, range(got.action.n_facets))) == want["schedules"]
    leaves = [oracles.view_leaves(view) for _, _, view in want["vertex_data"]]
    assert got.view_masks.tolist() == [
        [sum(1 << p for p in {p for p, _ in lv}),
         sum(1 << values.index(x) for x in {x for _, x in lv})] for lv in leaves]


# sha256 of the canonical JSON of the 3 agents x 3 rounds action (inputs
# {0, 1, 2}, 59319 facets) and of its product with the input model
SNAPSHOT_3X3_SHA256 = {
    "action": "b6cd80be3d326b3601932e909fb22fdf0f42e5d127cb849b0d2ccbc3aa8df666",
    "model": "7fe1789e85d334b00e1405bc70457a6745f1e13a7cce3200781b37838cbd7a21",
}


def test_three_round_snapshot_json_is_pinned():
    run = snapshot_run(standard_workspace(3, (0, 1, 2)), 3)
    assert run.model.n_facets == 59319
    texts = {"action": serialize.dumps(serialize.action_to_json(run.protocol.action)),
             "model": serialize.dumps(serialize.model_to_json(run.model))}
    assert {k: hashlib.sha256(t.encode()).hexdigest()
            for k, t in texts.items()} == SNAPSHOT_3X3_SHA256


def test_three_round_snapshot_action_retains_under_10_mb():
    """3 agents x 3 rounds (59319 facets) keeps int arrays and the action
    complex: 6.7 MB retained. A nested view per vertex and a schedule list
    per facet on top of them retain 22.1 MB."""
    ws = standard_workspace(3, (0, 1, 2))
    tracemalloc.start()
    try:
        proto = snapshot_action(ws, 3)
        gc.collect()
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert proto.action.n_facets == 59319
    assert retained < 10_000_000, retained


# -- agreement task ---------------------------------------------------------

def test_agreement_facet_counts(agree1_2, agree2_2, agree2_3):
    assert agree1_2.model.n_facets == oracles.count_agreement_facets(2, (0, 1), 1) == 6
    assert agree2_2.model.n_facets == oracles.count_agreement_facets(2, (0, 1), 2) == 10
    assert agree2_3.model.n_facets == oracles.count_agreement_facets(3, (0, 1, 2), 2) == 273
    three_one = agreement_run(standard_workspace(3), 1)
    assert three_one.model.n_facets == oracles.count_agreement_facets(3, (0, 1, 2), 1) == 57


def test_agreement_decisions_obey_task(agree2_3):
    for j in range(agree2_3.model.n_facets):
        decisions = agree2_3.facet_decisions(j)
        inputs = agree2_3.run.facet_inputs[j]
        assert len(set(decisions)) <= 2
        assert set(decisions) <= set(inputs)


def test_consensus_components_are_two_paths(agree1_2):
    # six facets form two chains of three, one per decided value
    cx = agree1_2.model.complex
    by_decision = {0: set(), 1: set()}
    for j in range(6):
        decisions = agree1_2.facet_decisions(j)
        assert len(set(decisions)) == 1
        by_decision[decisions[0]].add(j)
    assert all(len(v) == 3 for v in by_decision.values())
    for group in by_decision.values():
        degrees = sorted(sum(1 for other, _ in cx.adjacency[j]
                             if other in group) for j in group)
        assert degrees == [1, 1, 2]
        for j in group:
            assert all(other in group for other, _ in cx.adjacency[j])


def test_explicit_agreement_relation_clauses(snap1_3, agree2_3):
    rel = explicit_agreement_relation(snap1_3, agree2_3)
    for i, j in rel.pairs()[:500]:
        assert snap1_3.run.facet_inputs[i] == agree2_3.run.facet_inputs[j]
    # spot-check the view clause on one facet
    i = 0
    facet = snap1_3.model.facets[i]
    views = oracles.snapshot_views(snap1_3)
    seen = [{x for _, x in oracles.view_leaves(views[v][2])} for v in facet.vertices]
    for j in range(agree2_3.model.n_facets):
        if j in rel.partners(i):
            decisions = agree2_3.facet_decisions(j)
            assert all(decisions[a] in seen[a] for a in range(3))


@pytest.mark.parametrize("snap,agree", [("snap1_2", "agree1_2"), ("snap1_2", "agree2_2"),
                                        ("snap1_3", "agree2_3"), ("snap2_3", "agree2_3")])
def test_explicit_agreement_relation_matches_oracle(request, snap, agree):
    snap, agree = request.getfixturevalue(snap), request.getfixturevalue(agree)
    rel = explicit_agreement_relation(snap, agree)
    assert frozenset(rel.pairs()) == oracles.explicit_agreement_naive(snap, agree)


def test_decide_own_input_morphism(snap1_2, agree2_2):
    f = decide_own_input_morphism(snap1_2, agree2_2)
    assert f.validate(snap1_2.model, agree2_2.model) == []
    rel = graph_of_morphism(f, snap1_2.model, agree2_2.model)
    for mode in ("K", "D"):
        report = SimulationEngine(snap1_2.model, agree2_2.model).verify(rel, mode)
        assert report.is_simulation and report.total


# -- round prefixes ---------------------------------------------------------

def test_round_prefix_morphism_drops_last_round(ws2):
    src = snapshot_run(ws2, 2)
    dst = snapshot_run(ws2, 1)
    f = round_prefix_morphism(src, dst)
    assert f.validate(src.model, dst.model) == []
    rel = graph_of_morphism(f, src.model, dst.model)
    for mode in ("K", "D"):
        report = SimulationEngine(src.model, dst.model).verify(rel, mode)
        assert report.is_simulation and report.total


@pytest.mark.parametrize("n_agents,src,dst", [
    (2, (2, None), (1, None)), (2, (3, None), (2, None)), (2, (3, None), (1, None)),
    (2, (3, (0, 1)), (2, None)), (2, (2, (1, 0)), (1, (1, 0))), (2, (3, (1, 1)), (1, (1, 1))),
    (3, (2, (0, 1, 2)), (1, None)), (2, (2, None), (1, (0, 1)))])
def test_round_prefix_morphism_matches_oracle(n_agents, src, dst):
    """The bulk prefix map against dicts over every decoded run, over all
    inputs and one assignment on either side; a target lacking the source's
    inputs is refused."""
    ws = standard_workspace(n_agents)
    src, dst = snapshot_run(ws, *src), snapshot_run(ws, *dst)
    want = oracles.round_prefix_naive(src, dst)
    if want is None:
        with pytest.raises(UsageError, match="does not cover"):
            round_prefix_morphism(src, dst)
        return
    f = round_prefix_morphism(src, dst)
    assert f.vmap == want
    assert f.validate(src.model, dst.model) == []


# -- message graphs ---------------------------------------------------------

def test_digraph_requires_self_loops():
    with pytest.raises(UsageError):
        DiGraph(2, frozenset({(0, 0)}))
    g = DiGraph.from_edges(2, [(0, 0), (1, 1), (0, 1)])
    assert in_neighbors(g, 0) == frozenset({0, 1})
    assert out_neighbors(g, 1) == frozenset({0, 1})
    assert out_neighbors(g, 0) == frozenset({0})


def test_compose_follows_hearing_chains():
    loops = DiGraph(2, frozenset({(0, 0), (1, 1)}))
    g = DiGraph(2, frozenset({(0, 0), (1, 1), (0, 1)}))
    # hand-worked from the In/Out definition: edge (p, q) iff someone hears
    # p in the first round and is heard by q in the second
    assert compose(loops, g).edges == frozenset({(0, 0), (1, 0), (1, 1)})
    # under that definition the loops-only graph transposes its partner
    transpose = frozenset((b, a) for a, b in g.edges)
    assert compose(g, loops).edges == transpose
    assert compose(loops, loops).edges == loops.edges


def test_compose_rounds_folds_left():
    g = DiGraph(3, frozenset({(p, p) for p in range(3)} | {(0, 1), (1, 2)}))
    assert compose_rounds([g, g], 1).edges == g.edges
    assert compose_rounds([g, g], 2).edges == compose(g, g).edges
    with pytest.raises(UsageError):
        compose_rounds([g], 2)


def test_domination_numbers():
    loops = DiGraph(3, frozenset((p, p) for p in range(3)))
    assert domination_number(loops) == 3
    triangle = DiGraph(3, frozenset({(p, p) for p in range(3)}
                                    | {(0, 1), (1, 2), (2, 0)}))
    assert domination_number(triangle) == 2
    complete = DiGraph(3, frozenset(itertools.product(range(3), repeat=2)))
    assert domination_number(complete) == 1


def test_knowall_views_are_effective_in_neighborhoods(ws3, knowall_loops):
    assert knowall_loops.model.n_facets == 27
    for v in range(len(knowall_loops.model.complex.vertices)):
        a, inp, view = knowall_loops.vertex_info(v)
        assert view == frozenset({(a, inp)})
    triangle = DiGraph(3, frozenset({(p, p) for p in range(3)}
                                    | {(0, 1), (1, 2), (2, 0)}))
    run = knowall_run(ws3, [triangle], 1)
    for v in range(len(run.model.complex.vertices)):
        a, inp, view = run.vertex_info(v)
        assert {p for p, _ in oracles.view_leaves(view)} == in_neighbors(triangle, a)


# -- staircase --------------------------------------------------------------

def test_staircase_decision_pairs():
    task = staircase_task(4)
    assert task.facet_decisions == ((0, 0), (1, 0), (1, 1), (2, 1), (2, 2),
                                    (3, 2), (3, 3), (4, 3), (4, 4))
    with pytest.raises(UsageError):
        staircase_task(0)


def test_staircase_task_model_is_a_path(stair):
    cx = stair.task_run.model.complex
    degrees = sorted(len(cx.adjacency[i]) for i in range(9))
    assert degrees == [1, 1] + [2] * 7


def test_staircase_labels_follow_parity(stair):
    for i in range(stair.task_run.model.n_facets):
        d0, d1 = stair.task.facet_decisions[stair.task_run.action_facet(i)]
        assert stair.task_run.model.label(i) == \
            frozenset({(0, d0 % 2), (1, d1 % 2)})


def test_constant_true_protocol_reproduces_input_model(stair):
    m = stair.protocol_run.model
    assert m.n_facets == 4
    action = constant_true_protocol(standard_workspace(2, (0, 1)))
    assert action.n_facets == 1
    labels = {m.label(i) for i in range(4)}
    assert len(labels) == 4


@pytest.fixture(scope="module")
def snap3_2(ws2):
    return snapshot_run(ws2, 3)


@pytest.fixture(scope="module")
def snap3_si(ws3):
    return snapshot_run(ws3, 3, (0, 1, 2))


@pytest.mark.parametrize("run", ["snap1_2", "snap1_3", "snap2_3", "snap_si",
                                 "snap3_2", "snap3_si"])
def test_view_masks_match_view_helpers(request, run):
    """The masks built with the rounds against the leaves of each product
    vertex's nested view: 2 and 3 agents, 1 to 3 rounds, all inputs or one
    assignment."""
    snap = request.getfixturevalue(run)
    agents, values = snap.view_masks
    n_vertices = len(snap.model.complex.vertices)
    assert len(agents) == len(values) == n_vertices
    views = oracles.snapshot_views(snap)
    for v in range(n_vertices):
        leaves = oracles.view_leaves(views[v][2])
        assert {p for p in range(snap.workspace.n_agents) if agents[v] >> p & 1} \
            == {p for p, _ in leaves}
        assert {x for i, x in enumerate(snap.workspace.values) if values[v] >> i & 1} \
            == {x for _, x in leaves}
