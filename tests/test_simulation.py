"""Relations, refinement chains, verification, and the counter-based forth."""

import random
import tracemalloc

import numpy as np
import pytest

import oracles
from delsim import simulation
from delsim.errors import InternalConsistencyError, UsageError
from delsim.complexes import ChromaticComplex, Vertex
from delsim.models import SimplicialModel, input_model, standard_workspace
from delsim.obstruction import decide_obstruction
from delsim.simulation import Relation, SimulationEngine, totality_witnesses

# chain sizes frozen after matching the set-based oracle pair-for-pair
CONSENSUS_K = [18, 14, 10, 6, 2, 0]
CONSENSUS_D = [18, 14, 10, 0]
TWO_AGENT_K2 = [30, 22]
STAIR_K = [9, 7, 5, 3, 1, 0]
STAIR_D = [9, 7, 5, 3, 0]


def test_relation_basics():
    r = Relation.from_pairs((2, 3), [(0, 1), (1, 2), (0, 1)])
    assert r.dims == (2, 3)
    assert r.count == 2
    assert r.contains(0, 1) and not r.contains(1, 1)
    assert r.pairs() == [(0, 1), (1, 2)]
    assert r.is_total()
    smaller = Relation.from_pairs((2, 3), [(0, 1)])
    assert smaller <= r and not r <= smaller
    assert totality_witnesses(smaller) == [1]


def test_relation_bounds_checked():
    with pytest.raises(UsageError):
        Relation.from_pairs((2, 2), [(2, 0)])
    with pytest.raises(UsageError):
        Relation.from_pairs((2, 2), [(0, -1)])


def test_initial_relation_is_label_equality(snap1_2, agree1_2):
    r = SimulationEngine(snap1_2.model, agree1_2.model).initial_relation()
    for i in range(snap1_2.model.n_facets):
        for j in range(agree1_2.model.n_facets):
            same = oracles.facet_label(snap1_2.model, i) == \
                oracles.facet_label(agree1_2.model, j)
            assert r.contains(i, j) == same


@pytest.mark.parametrize("mode,expected", [("K", CONSENSUS_K),
                                           ("D", CONSENSUS_D)])
def test_consensus_chain_matches_oracle(snap1_2, agree1_2, mode, expected):
    ch = SimulationEngine(snap1_2.model, agree1_2.model).chain(mode)
    assert [s.count for s in ch.steps] == expected
    naive = oracles.chain_naive(snap1_2.model, agree1_2.model, mode)
    assert [frozenset(s.pairs()) for s in ch.steps] == naive
    assert ch.stabilized_at == len(expected) - 1
    assert ch.fixpoint.count == 0


@pytest.mark.parametrize("mode", ["K", "D"])
def test_two_agent_two_set_chain_total(snap1_2, agree2_2, mode):
    ch = SimulationEngine(snap1_2.model, agree2_2.model).chain(mode)
    assert [s.count for s in ch.steps] == TWO_AGENT_K2
    assert ch.fixpoint.is_total()
    naive = oracles.chain_naive(snap1_2.model, agree2_2.model, mode)
    assert frozenset(ch.fixpoint.pairs()) == naive[-1]


@pytest.mark.parametrize("mode,expected", [("K", STAIR_K), ("D", STAIR_D)])
def test_staircase_chain_matches_oracle(stair, mode, expected):
    left = stair.protocol_run.model
    right = stair.task_run.model
    ch = SimulationEngine(left, right).chain(mode)
    assert [s.count for s in ch.steps] == expected
    assert [frozenset(s.pairs()) for s in ch.steps] == \
        oracles.chain_naive(left, right, mode)


def test_identity_pair_stabilizes_immediately():
    m = input_model(standard_workspace(2, (0, 1)))
    for mode in ("K", "D"):
        ch = SimulationEngine(m, m).chain(mode)
        assert [s.count for s in ch.steps] == [4]
        assert ch.fixpoint.is_total()


def test_chain_descends_stepwise(snap1_2, agree1_2, stair):
    for left, right in [(snap1_2.model, agree1_2.model),
                        (stair.protocol_run.model, stair.task_run.model)]:
        for mode in ("K", "D"):
            ch = SimulationEngine(left, right).chain(mode)
            for a, b in zip(ch.steps, ch.steps[1:]):
                assert b <= a and b.count < a.count


def test_chain_records_match_steps(snap1_2, agree1_2, stair):
    for left, right in [(snap1_2.model, agree1_2.model),
                        (stair.protocol_run.model, stair.task_run.model)]:
        eng = SimulationEngine(left, right)
        for mode in ("K", "D"):
            ch = eng.chain(mode)
            assert [frozenset(s.pairs()) for s in ch.steps] == \
                oracles.chain_naive(left, right, mode)
            assert ch.steps[0] == eng.initial_relation()
            assert ch.steps[-1] == ch.fixpoint
            assert ch.step_sizes == [s.count for s in ch.steps]
            assert ch.step_total == [s.is_total() for s in ch.steps]
            s0_pairs = ch.initial.pairs()
            for a, b, gone in zip(ch.steps, ch.steps[1:], ch.removed):
                # removed pairs are sorted indices into S_0's pairs
                assert [s0_pairs[p] for p in gone.tolist()] == \
                    sorted(set(a.pairs()) - set(b.pairs()))


def test_chain_guard_catches_a_withheld_round(snap1_2, agree1_2, monkeypatch):
    """Drop the blocks that the first removal round makes fail: the chain
    then stops one step early, and the from-scratch Forth at its last
    relation must notice."""
    real = simulation._Counters.remove
    rounds = []

    def withhold(self, ys, yys):
        fresh = real(self, ys, yys)
        if not rounds:
            rounds.append(ys)
        return fresh[:0] if ys is rounds[0] else fresh

    monkeypatch.setattr(simulation._Counters, "remove", withhold)
    eng = SimulationEngine(snap1_2.model, agree1_2.model)
    with pytest.raises(InternalConsistencyError):
        eng.chain("K")


def test_max_simulation_via_engine(snap1_2, agree1_2):
    ch = SimulationEngine(snap1_2.model, agree1_2.model).chain("K")
    assert ch.stabilized_at == len(CONSENSUS_K) - 1
    assert ch.fixpoint.count == 0


def test_vectorized_forth_equals_naive_on_random_relations(snap1_2, agree2_2):
    eng = SimulationEngine(snap1_2.model, agree2_2.model)
    rng = random.Random(40)
    nl, nr = snap1_2.model.n_facets, agree2_2.model.n_facets
    for mode in ("K", "D"):
        for _ in range(60):
            bits = np.zeros((nl, nr), dtype=bool)
            for i in range(nl):
                for j in range(nr):
                    bits[i, j] = rng.random() < 0.55
            r = Relation(bits)
            fast = eng.forth(r, mode)
            slow = oracles.forth_holds(snap1_2.model, agree2_2.model, bits, mode)
            assert np.array_equal(fast, slow), mode


def test_forth_keeps_the_d_fixpoint_in_class_tables(snap2_3, agree2_3):
    """In D mode Forth keeps the maximum simulation, so on the 2-round IS
    protocol against 2-set agreement (4563 x 273 facets) ``forth`` at the D
    fixpoint is the fixpoint. Each group's verdict is one table over class
    pairs, not an index pair per left x right pair (about 50 MB here)."""
    eng = SimulationEngine(snap2_3.model, agree2_3.model)
    fix = eng.chain("D").fixpoint
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        got = eng.forth(fix, "D")
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()
    assert np.array_equal(got, fix.bits)
    assert peak < 20 * 2**20, peak


def test_refine_drops_unmatched_pairs(snap1_2, agree1_2):
    eng = SimulationEngine(snap1_2.model, agree1_2.model)
    s0 = eng.initial_relation()
    s1 = eng.chain("K").steps[1]
    assert s1 <= s0 and s1.count == CONSENSUS_K[1]


def test_fixpoint_is_maximal(snap1_2, agree2_2):
    # adding any absent pair to the fixpoint breaks the simulation property
    eng = SimulationEngine(snap1_2.model, agree2_2.model)
    for mode in ("K", "D"):
        fix = eng.chain(mode).fixpoint
        absent = [(i, j)
                  for i in range(snap1_2.model.n_facets)
                  for j in range(agree2_2.model.n_facets)
                  if not fix.contains(i, j)]
        rng = random.Random(7)
        for i, j in rng.sample(absent, min(100, len(absent))):
            bits = fix.bits.copy()
            bits[i, j] = True
            report = eng.verify(Relation(bits), mode)
            assert not report.is_simulation


def test_verify_reports_counterexamples(snap1_2, agree1_2):
    eng = SimulationEngine(snap1_2.model, agree1_2.model)
    s0 = eng.initial_relation()
    report = eng.verify(s0, "K")
    assert report.atom_ok
    assert not report.forth_ok
    assert report.counterexamples
    ce = report.counterexamples[0]
    assert ce["kind"] == "forth"
    assert not eng.verify(s0, "K", max_counterexamples=1).forth_ok


@pytest.mark.parametrize("limit", [-1, -3])
def test_verify_rejects_a_negative_counterexample_limit(snap1_2, agree1_2, limit):
    eng = SimulationEngine(snap1_2.model, agree1_2.model)
    full = Relation(np.ones((snap1_2.model.n_facets, agree1_2.model.n_facets), dtype=bool))
    with pytest.raises(UsageError, match="max_counterexamples must be >= 0"):
        eng.verify(full, "K", max_counterexamples=limit)
    assert eng.verify(full, "K", max_counterexamples=0).counterexamples == []


def test_verify_flags_label_mismatches(snap1_2, agree1_2):
    nl, nr = snap1_2.model.n_facets, agree1_2.model.n_facets
    full = Relation(np.ones((nl, nr), dtype=bool))
    report = SimulationEngine(snap1_2.model, agree1_2.model).verify(full, "K")
    assert not report.atom_ok
    assert any(c["kind"] == "atom" for c in report.counterexamples)


def test_verify_accepts_the_fixpoint(snap1_2, agree2_2):
    eng = SimulationEngine(snap1_2.model, agree2_2.model)
    for mode in ("K", "D"):
        fix = eng.chain(mode).fixpoint
        report = eng.verify(fix, mode)
        assert report.is_simulation and report.total
        assert report.to_json()["forth_ok"]


def test_verify_keeps_the_full_group_on_repeated_facets():
    """``verify`` checks Forth on any relation, so D mode must keep the
    full group when a model repeats a facet. Left facet 1 repeats facet 0,
    so at (0, 0) the obligation for Y = 1 asks for a partner of 1 with
    right facet 0's vertices, but 1's partners (right facets 1 and 2) each
    share one colour with right facet 0; every one-colour group is met."""
    ws = standard_workspace(2, (0, 1))

    def model(colors, facets):  # no atoms: every facet has the same label
        vertices = [Vertex(i, c, frozenset()) for i, c in enumerate(colors)]
        return SimplicialModel(ws, ChromaticComplex(2, vertices, facets))

    left = model([0, 1], [[0, 1], [0, 1]])
    right = model([0, 0, 1, 1], [[0, 2], [0, 3], [1, 2]])
    r = Relation.from_pairs((2, 3), [(0, 0), (1, 1), (1, 2)])
    report = SimulationEngine(left, right).verify(r, "D")
    assert {"kind": "forth", "left": 0, "right": 0, "witness": 1} in report.counterexamples


def test_mode_validation(snap1_2, agree1_2):
    with pytest.raises(UsageError):
        SimulationEngine(snap1_2.model, agree1_2.model).chain("KD")


def test_dims_validation(snap1_2, agree1_2):
    eng = SimulationEngine(snap1_2.model, agree1_2.model)
    with pytest.raises(UsageError):
        eng.verify(Relation.from_pairs((3, 3), [(0, 0)]), "K")


def test_one_round_is_vs_two_set_agreement_claim(snap1_3, agree2_3):
    """The paper's one-round claim at small scale (3 agents, inputs
    {0, 1, 2}, 351 x 273 facets): K finds no obstruction to 2-set
    agreement, D obstructs at depth 4 with a model-checked formula."""
    eng = SimulationEngine(snap1_3.model, agree2_3.model)
    d = eng.chain("D")
    assert d.step_sizes == [3549, 1695, 1587, 1425, 0]
    assert d.step_total == [True, True, True, False, False]
    k = eng.chain("K")
    assert k.step_sizes == [3549, 1695] and k.fixpoint.is_total()
    verdict = decide_obstruction(snap1_3.model, agree2_3.model, "D")
    assert (verdict.exists, verdict.n, verdict.witness) == (True, 4, 0)
    assert verdict.verification.confirms
