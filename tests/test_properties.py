"""Properties on random small pure chromatic models, checked against the
definition-chasing oracles: the face-class index, the simulation chain (also
on models that repeat a facet), the Forth operator on arbitrary sub-relations
of S_0, ``refine`` and ``verify`` on arbitrary relations (``verify``'s
counterexamples included), model checking of K and D formulas, and the
duality between characteristic formulas and the chain.
Also the s-expression round trip over random formulas."""

import itertools

import numpy as np
from hypothesis import given, settings, strategies as st

import oracles
from delsim.complexes import ChromaticComplex, Vertex
from delsim.logic import (ModelTable, atom, conj, disj, dknow, from_sexp, know,
                          neg, to_sexp)
from delsim.models import SimplicialModel, standard_workspace
from delsim.obstruction import characteristic_formula, characteristic_formulas
from delsim.simulation import Relation, SimulationEngine

VALUES = (0, 1)
WIDTH = 3     # vertices per color: 2 or 3 slots, not all of them used
N_AGENTS = st.integers(1, 3)
SETTINGS = settings(max_examples=40, deadline=None)


def atom_tables(n_agents: int):
    """Atoms for each (color, local vertex) slot: at most one value each."""
    slots = [(a, k) for a in range(n_agents) for k in range(WIDTH)]
    return st.fixed_dictionaries({
        (a, k): st.sets(st.sampled_from(VALUES), max_size=1).map(
            lambda vs, a=a: frozenset((a, v) for v in vs))
        for a, k in slots})


@st.composite
def models(draw, n_agents: int, atoms=None, repeats: bool = False):
    """A pure chromatic model with <= 12 facets over ``n_agents`` colors, its
    vertices drawn from ``WIDTH`` slots per color; slot atoms come from
    ``atoms`` when given, else are drawn. With ``repeats``, up to two drawn
    facets appear a second time (the same vertex set twice)."""
    if atoms is None:
        atoms = draw(atom_tables(n_agents))
    width = draw(st.integers(2, WIDTH))
    grid = list(itertools.product(range(width), repeat=n_agents))
    keep = draw(st.lists(st.booleans(), min_size=len(grid), max_size=len(grid)))
    facets = [cell for cell, k in zip(grid, keep) if k][:12] or grid[:1]
    if repeats:
        twice = draw(st.integers(1, 2))
        facets = facets[:12 - twice]
        facets += draw(st.lists(st.sampled_from(facets), min_size=twice,
                                max_size=twice))
    ids: dict[tuple[int, int], int] = {}
    vertices = []
    members = []
    for local in facets:
        row = []
        for slot in enumerate(local):
            if slot not in ids:
                ids[slot] = len(vertices)
                vertices.append(Vertex(len(vertices), slot[0], atoms[slot]))
            row.append(ids[slot])
        members.append(row)
    ws = standard_workspace(n_agents, VALUES)
    return SimplicialModel(ws, ChromaticComplex(n_agents, vertices, members))


@st.composite
def model_pairs(draw, repeats: bool = False):
    """Two models over one workspace, sometimes sharing slot atoms so that
    many facet labels coincide and the chains run several steps. With
    ``repeats``, one of the two (or both) repeats a facet."""
    n = draw(N_AGENTS)
    atoms = draw(st.none() | atom_tables(n))
    twice = draw(st.sampled_from(["left", "right", "both"])) if repeats else ""
    return (draw(models(n, atoms, repeats=twice in ("left", "both"))),
            draw(models(n, atoms, repeats=twice in ("right", "both"))))


def formulas(n_agents: int, values=st.sampled_from(VALUES)):
    atoms = st.builds(atom, st.integers(0, n_agents - 1), values)
    groups = st.sets(st.integers(0, n_agents - 1), max_size=min(2, n_agents)) | \
        st.just(frozenset(range(n_agents)))

    def extend(sub):
        return (st.builds(neg, sub)
                | st.builds(conj, st.lists(sub, min_size=1, max_size=3))
                | st.builds(disj, st.lists(sub, min_size=1, max_size=3))
                | st.builds(know, st.integers(0, n_agents - 1), sub)
                | st.builds(dknow, groups, sub))

    return st.recursive(atoms, extend, max_leaves=8)


@SETTINGS
@given(model_pairs())
def test_chain_matches_oracle(pair):
    left, right = pair
    eng = SimulationEngine(left, right)
    for mode in ("K", "D"):
        steps = [frozenset(s.pairs()) for s in eng.chain(mode).steps]
        assert steps == oracles.chain_naive(left, right, mode), mode


@SETTINGS
@given(model_pairs(), st.data())
def test_forth_matches_naive_on_sub_relations(pair, data):
    left, right = pair
    eng = SimulationEngine(left, right)
    s0 = eng.initial_relation().bits
    mask = data.draw(st.lists(st.booleans(), min_size=s0.size, max_size=s0.size))
    r = Relation(s0 & np.array(mask, dtype=bool).reshape(s0.shape))
    for mode in ("K", "D"):
        assert np.array_equal(eng.forth(r, mode),
                              oracles.forth_holds(left, right, r.bits, mode)), mode


@SETTINGS
@given(model_pairs(repeats=True), st.data())
def test_chain_and_forth_with_repeated_facets(pair, data):
    """Repeated facets make full-color classes of two facets, the one case in
    which the D chain cannot leave out the full group."""
    left, right = pair
    eng = SimulationEngine(left, right)
    s0 = eng.initial_relation().bits
    mask = data.draw(st.lists(st.booleans(), min_size=s0.size, max_size=s0.size))
    r = Relation(s0 & np.array(mask, dtype=bool).reshape(s0.shape))
    for mode in ("K", "D"):
        steps = [frozenset(s.pairs()) for s in eng.chain(mode).steps]
        assert steps == oracles.chain_naive(left, right, mode), mode
        assert np.array_equal(eng.forth(r, mode),
                              oracles.forth_holds(left, right, r.bits, mode)), mode


@SETTINGS
@given(st.booleans().flatmap(model_pairs), st.data())
def test_refine_and_verify_on_arbitrary_relations(pair, data):
    """Relations with pairs outside S_0 too: ``refine`` is S_0 ∩ Forth in K
    mode and Forth in D mode, and ``verify`` reports the definitions."""
    left, right = pair
    eng = SimulationEngine(left, right)
    s0 = eng.initial_relation().bits
    draw_mask = st.lists(st.booleans(), min_size=s0.size, max_size=s0.size).map(
        lambda m: np.array(m, dtype=bool).reshape(s0.shape))
    r = Relation(s0 & data.draw(draw_mask) | data.draw(draw_mask) & data.draw(draw_mask))
    pairs = r.pairs()
    label_ok = all(oracles.facet_label(left, x) == oracles.facet_label(right, j)
                   for x, j in pairs)
    total = {x for x, _ in pairs} == set(range(left.n_facets))
    for mode in ("K", "D"):
        naive = np.array(oracles.forth_holds(left, right, r.bits, mode))
        want = s0 & naive if mode == "K" else naive
        assert np.array_equal(eng.refine(r, mode).bits, want), mode
        report = eng.verify(r, mode)
        assert report.atom_ok == label_ok
        assert report.forth_ok == all(naive[x, j] for x, j in pairs)
        assert report.total == total


@SETTINGS
@given(st.booleans().flatmap(model_pairs), st.data())
def test_verify_counterexamples_are_first_unmet_obligations(pair, data):
    """``verify`` reports the label mismatches, then for each pair where
    Forth fails its first unmet obligation (agent, witness Y) in the order
    of the definition, all in pair order."""
    left, right = pair
    eng = SimulationEngine(left, right)
    s0 = eng.initial_relation().bits
    draw_mask = st.lists(st.booleans(), min_size=s0.size, max_size=s0.size).map(
        lambda m: np.array(m, dtype=bool).reshape(s0.shape))
    r = Relation(s0 & data.draw(draw_mask) | data.draw(draw_mask) & data.draw(draw_mask))
    for mode in ("K", "D"):
        forth = oracles.forth_naive(left, right, r.bits, mode)
        want = [{"kind": "atom", "left": x, "right": j} for x, j in r.pairs()
                if oracles.facet_label(left, x) != oracles.facet_label(right, j)]
        want += [forth[x][j] for x, j in r.pairs() if forth[x][j] is not None]
        assert eng.verify(r, mode, max_counterexamples=2 * r.count).counterexamples \
            == want
        assert eng.verify(r, mode).counterexamples == want[:10]


@SETTINGS
@given(st.data())
def test_model_checking_matches_oracle(data):
    n = data.draw(N_AGENTS)
    model = data.draw(models(n))
    phis = data.draw(st.lists(formulas(n), min_size=1, max_size=4))
    groups = [g for k in range(n + 1) for g in itertools.combinations(range(n), k)]
    table = ModelTable(model)
    for phi in phis:
        # every modal operator over each drawn formula, besides the formula
        for psi in [phi, *(know(a, phi) for a in range(n)),
                    *(dknow(g, phi) for g in groups)]:
            got = table.satisfies(psi)
            want = [oracles.eval_naive(model, x, psi) for x in range(model.n_facets)]
            assert got.tolist() == want


@SETTINGS
@given(N_AGENTS.flatmap(models))
def test_face_classes_group_shared_faces(model):
    n = model.workspace.n_agents
    for k in range(n + 1):
        for group in itertools.combinations(range(n), k):
            ids, order, starts = model.face_classes(group)
            assert sorted(order.tolist()) == list(range(model.n_facets))
            assert ids[order].tolist() == sorted(ids.tolist())
            assert starts.tolist() == np.flatnonzero(
                np.r_[True, np.diff(ids[order]) != 0]).tolist()
            for x, y in itertools.product(range(model.n_facets), repeat=2):
                same = set(group) <= oracles.shared_colors(model, x, y)
                assert (ids[x] == ids[y]) == same


@SETTINGS
@given(N_AGENTS.flatmap(models))
def test_face_class_ids_in_lexicographic_order(model):
    """Class ids number the S-faces in lexicographic order of their vertex
    ids, as ``np.unique(..., axis=0)`` does."""
    n = model.workspace.n_agents
    for k in range(1, n + 1):
        for group in itertools.combinations(range(n), k):
            _, want = np.unique(model.vertex_table[:, group], axis=0,
                                return_inverse=True)
            assert model.face_classes(group)[0].tolist() == want.reshape(-1).tolist()


@SETTINGS
@given(model_pairs())
def test_characteristic_formulas_dual_to_chain(pair):
    """(x, y) is in step n of the chain iff y refutes x's depth-n formula."""
    left, right = pair
    eng = SimulationEngine(left, right)
    table = ModelTable(right)
    for mode in ("K", "D"):
        chain = eng.chain(mode)
        phis = characteristic_formulas(left, mode, chain.stabilized_at)
        for n, step in enumerate(chain.steps):
            refuted = ~np.stack([table.satisfies(f) for f in phis[n]])
            assert np.array_equal(step.bits, refuted), (mode, n)


@SETTINGS
@given(N_AGENTS.flatmap(models), st.integers(0, 3))
def test_characteristic_formula_is_table_entry(model, n):
    for mode in ("K", "D"):
        table = characteristic_formulas(model, mode, n)
        for x in range(model.n_facets):
            assert characteristic_formula(model, mode, n, x) is table[n][x]


# str values with the characters the s-expression syntax itself uses
SEXP_VALUES = (st.text(alphabet='"\\() \n\tab', max_size=6)
               | st.text(max_size=3) | st.integers(-3, 3))


@SETTINGS
@given(N_AGENTS.flatmap(lambda n: formulas(n, SEXP_VALUES)))
def test_sexp_round_trip(phi):
    for share in (True, False):
        assert from_sexp(to_sexp(phi, share=share)) is phi
