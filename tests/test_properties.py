"""Properties on random small pure chromatic models, checked against the
definition-chasing oracles: the face-class index, the simulation chain (also
on models that repeat a facet), the Forth operator on arbitrary sub-relations
of S_0 and on arbitrary relations, ``verify`` on arbitrary relations (its
counterexamples included), the counters' unmet obligations after
subtraction, model checking of K and D formulas (also over
two models in one table, and one table asked about subformulas before and
after their superformula with failing queries in between), the formula
walk plan against a naive last-use schedule, formula flags against a
recursive classifier, the duality between characteristic
formulas and the chain, morphism search against plain enumeration (and the
equal atoms of D-fixpoint pairs that its domains rely on), and the product
update with random actions against its definition. Also the s-expression round trip over random
formulas, the s-expression reader against a recursive-descent reader on
mutated texts (also read in pieces far shorter than its own), formulas
that mix int and str atom values (distinct nodes, one text whatever the
build order), the JSON round trips of models and
relations, the JSON writer against the standard library's (also on lists
of vertex-shaped records), and the model reader's vertices against a
one-vertex-at-a-time reader on mutated vertex lists."""

import itertools
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from delsim import logic, serialize, simulation
from delsim.complexes import ChromaticComplex, Vertex
from delsim.logic import (Formula, ModelTable, atom, classify, conj, disj,
                          dknow, from_sexp, know, neg, to_sexp)
from delsim.errors import SchemaError, UsageError
from delsim.generators import staircase_setup
from delsim.models import (ActionModel, SimplicialModel, find_morphism,
                           product_update, standard_workspace)
from delsim.obstruction import (characteristic_formula, characteristic_formulas,
                                decide_obstruction)
from delsim.simulation import Relation, SimulationEngine

VALUES = (0, 1)
WIDTH = 3     # vertices per color: 2 or 3 slots, not all of them used
N_AGENTS = st.integers(1, 3)
SETTINGS = settings(deadline=None)  # example counts: conftest's profiles


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
@given(model_pairs(), st.sampled_from([0, simulation._FEW, 10**9]))
def test_chain_matches_oracle(pair, few):
    """Also with every round taken one pair at a time (``_FEW`` huge) or
    with whole arrays (``_FEW`` 0)."""
    left, right = pair
    eng = SimulationEngine(left, right)
    with mock.patch.object(simulation, "_FEW", few):
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
def test_forth_and_verify_on_arbitrary_relations(pair, data):
    """Relations with pairs outside S_0 too: ``forth`` is the definition at
    every pair, and ``verify`` reports the definitions."""
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
        assert np.array_equal(eng.forth(r, mode), naive), mode
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
@given(model_pairs(repeats=True), st.data())
def test_unmet_obligations_after_subtraction(pair, data):
    """``_Counters.unmet`` on counters built over S_0 and then subtracted
    down to a sub-relation (as the chain does) names the first Y of x's
    S-class with no pair into j's S-class: a cell counted down to zero is
    no cell."""
    left, right = pair
    s0 = SimulationEngine(left, right).initial_relation()
    keep = np.array(data.draw(st.lists(st.booleans(), min_size=s0.count, max_size=s0.count)),
                    dtype=bool)
    kept = set(zip(s0.xs[keep].tolist(), s0.js[keep].tolist()))
    n = left.workspace.n_agents
    for group in (g for k in range(n + 1) for g in itertools.combinations(range(n), k)):
        counters = simulation._Counters(left, right, group, s0.xs.astype(np.intp), s0.js)
        counters.remove(s0.xs[~keep].astype(np.intp), s0.js[~keep])
        for x, j in itertools.product(range(left.n_facets), range(right.n_facets)):
            want = next((y for y in range(left.n_facets)
                         if set(group) <= oracles.shared_colors(left, x, y)
                         and not any((y, yy) in kept
                                     and set(group) <= oracles.shared_colors(right, j, yy)
                                     for yy in range(right.n_facets))), None)
            assert counters.unmet(x, j) == want, (group, x, j)


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
@given(model_pairs(repeats=True), st.data())
def test_model_table_over_two_models_matches_oracle(pair, data):
    """One table over the disjoint union of two models, and one over the
    second alone, agree with the oracle on each model. Every modal operator
    over each drawn formula, with the models' repeated facets, reaches each
    way a modal step is taken: one-facet classes, one class (``D {}`` on one
    model) and the closure of larger classes."""
    left, right = pair
    n = left.workspace.n_agents
    phis = data.draw(st.lists(formulas(n), min_size=1, max_size=3))
    groups = [g for k in range(n + 1) for g in itertools.combinations(range(n), k)]
    both, alone = ModelTable(left, right), ModelTable(right)
    for phi in phis:
        for psi in [phi, *(know(a, phi) for a in range(n)),
                    *(dknow(g, phi) for g in groups)]:
            want = [oracles.eval_naive(m, x, psi)
                    for m in (left, right) for x in range(m.n_facets)]
            got = both.satisfies(psi)
            assert not got.flags.writeable
            assert got.tolist() == want
            assert alone.satisfies(psi).tolist() == want[left.n_facets:]


@SETTINGS
@given(model_pairs(repeats=True), st.data())
def test_modal_closures_agree(pair, data):
    """Over one model and over the union of two, each group's shifts and
    walk close a drawn failing set to the classes a numpy reference finds
    it meets. At most 12 facets a model keep every group's offsets within
    the shifts' bound."""
    left, right = pair
    n = left.workspace.n_agents
    groups = [g for k in range(n + 1) for g in itertools.combinations(range(n), k)]
    for table in (ModelTable(left), ModelTable(left, right)):
        k = table.n_facets
        fail_vec = np.array(data.draw(st.lists(st.booleans(), min_size=k, max_size=k)),
                            dtype=bool)
        fail = logic._pack(fail_vec)
        for group in groups:
            classes = table._group(group)
            want = logic._pack(np.isin(classes.ids, classes.ids[fail_vec]))
            assert classes.offsets is not None
            assert classes.shifts(fail) == classes.walk(fail) == classes.close(fail) == want


@SETTINGS
@given(st.data())
def test_one_table_answers_mixed_queries(data):
    """One table asked about subformulas before and after their
    superformula, with queries in between that fail on an atom outside the
    workspace after some of their work is done. Every answer matches the
    oracle and is read-only, a repeated query returns the same array, and
    the table keeps exactly the formulas it answered."""
    n = data.draw(N_AGENTS)
    model = data.draw(models(n))
    phi = data.draw(formulas(n))
    subs = st.sampled_from(logic._postorder(phi))
    outside = atom(0, 2)  # the workspace's values are 0 and 1
    queries = data.draw(st.lists(subs, max_size=4)) + [phi] + \
        data.draw(st.lists(subs, max_size=4))
    for i in sorted(data.draw(st.lists(st.integers(0, len(queries)), max_size=3)),
                    reverse=True):
        queries.insert(i, None)
    table = ModelTable(model)
    answers: dict[Formula, np.ndarray] = {}
    for psi in queries:
        if psi is None:
            with pytest.raises(UsageError, match="outside workspace"):
                table.satisfies(conj([outside, know(0, data.draw(subs))]))
            continue
        got = table.satisfies(psi)
        assert not got.flags.writeable
        assert got is answers.setdefault(psi, got)
        assert got.tolist() == [oracles.eval_naive(model, x, psi)
                                for x in range(model.n_facets)]
    assert table._vals.keys() == answers.keys()


@SETTINGS
@given(N_AGENTS.flatmap(formulas))
def test_walk_plan_matches_naive_schedule(phi):
    """The plan lists each node of phi's DAG once, every child before its
    parents, and frees each node but phi exactly once, right after its last
    parent: the schedule runs in order of position and ends with -1."""
    order, dying, ends = logic._plan(phi)
    at = {node: i for i, node in enumerate(order)}
    assert len(at) == len(order) and at.keys() == oracles.dag_nodes_naive(phi)
    assert all(at[c] < i for i, node in enumerate(order) for c in node.children)
    last = oracles.last_parents_naive(order)
    assert len(dying) == len(last) and set(dying) == last.keys() == at.keys() - {phi}
    assert list(ends) == [last[c] for c in dying] + [-1]
    assert list(ends[:-1]) == sorted(ends[:-1])
    assert logic._plan(phi) is logic._plan(phi)


@SETTINGS
@given(N_AGENTS.flatmap(formulas))
def test_formula_flags_match_oracle(phi):
    want = oracles.classify_naive(phi)
    assert classify(phi).value == want.pop("class")
    assert {key: getattr(phi, key) for key in want} == want


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


def rebuild(phi: Formula, reverse: bool) -> Formula:
    """φ built again through the builders, atoms first, each node's children
    (and a D node's group) in reverse order when ``reverse``."""
    built: dict[Formula, Formula] = {}

    def go(node):
        if node not in built:
            for c in (node.children[::-1] if reverse else node.children):
                go(c)
            kids = [built[c] for c in node.children]
            kind, payload = node.kind, node.payload
            built[node] = (
                atom(*payload) if kind == "atom" else neg(kids[0]) if kind == "not"
                else conj(kids) if kind == "and" else disj(kids) if kind == "or"
                else know(payload, kids[0]) if kind == "K"
                else dknow(sorted(payload, reverse=reverse), kids[0]))
        return built[node]
    return go(phi)


@SETTINGS
@given(N_AGENTS.flatmap(lambda n: formulas(n, st.sampled_from((0, 1, "0", "1")))))
def test_int_and_str_values_stay_apart(phi):
    """Atom values 1 and "1" are two nodes, the text reads back as φ, and φ
    built in either order, in a fresh intern table, has φ's text."""
    for share in (True, False):
        assert from_sexp(to_sexp(phi, share=share)) is phi
    texts = set()
    for first in (False, True):
        with mock.patch.object(logic, "_INTERNED", {}):
            assert atom(0, 1) is not atom(0, "1")
            built = rebuild(phi, reverse=first)
            assert rebuild(phi, reverse=not first) is built
            texts.add(to_sexp(built))
    assert texts == {to_sexp(phi)}


# tokens a mutation may insert: each form's head, both brackets, a number,
# a name and a string
SEXP_INSERTS = ("(", ")", "let", "and", "or", "not", "K", "D", "atom", "0", "x0", '"s"')


@st.composite
def mutated_sexp(draw):
    """The shared or expanded text of a random formula φ or of ``φ ∧ K φ``
    (whose shared text binds a non-atom φ in a let), after one to three
    token-level mutations: delete a token, insert one, swap two, or
    truncate."""
    phi = draw(N_AGENTS.flatmap(lambda n: formulas(n, SEXP_VALUES)))
    if draw(st.booleans()):
        phi = conj([phi, know(0, phi)])
    tokens = oracles.tokenize(to_sexp(phi, share=draw(st.booleans())))
    for _ in range(draw(st.integers(1, 3))):
        n = len(tokens)
        i, j = draw(st.integers(0, n)), draw(st.integers(0, n))
        kind = draw(st.sampled_from(["delete", "insert", "swap", "truncate"]))
        if kind == "insert":
            tokens.insert(i, draw(st.sampled_from(SEXP_INSERTS)))
        elif kind == "truncate":
            del tokens[i:]
        elif i < n and j < n:
            if kind == "delete":
                del tokens[i]
            else:
                tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


# characters an edit may insert: brackets, a quote, an escape, whitespace,
# a letter and a digit
SEXP_CHARS = '()"\\ \t\nx0'


@st.composite
def char_edited_sexp(draw):
    """The shared or expanded text of a random formula after one to three
    character-level edits (delete, insert or swap two neighbours), which
    can open, close, split or join strings and tokens."""
    phi = draw(N_AGENTS.flatmap(lambda n: formulas(n, SEXP_VALUES)))
    text = to_sexp(phi, share=draw(st.booleans()))
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        kind = draw(st.sampled_from(["delete", "insert", "swap"]))
        if kind == "insert":
            text = text[:i] + draw(st.sampled_from(SEXP_CHARS)) + text[i:]
        elif kind == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + text[i + 1:i + 2] + text[i:i + 1] + text[i + 2:]
    return text


def assert_reads_like_naive(text: str) -> Formula | None:
    """``from_sexp`` returns the recursive-descent reader's node, or both
    raise UsageError (then None)."""
    try:
        expected = oracles.from_sexp_naive(text)
    except UsageError:
        with pytest.raises(UsageError):
            from_sexp(text)
        return None
    assert from_sexp(text) is expected
    return expected


@SETTINGS
@given(mutated_sexp())
def test_from_sexp_matches_naive_reader(text):
    assert_reads_like_naive(text)


@SETTINGS
@given(char_edited_sexp())
def test_from_sexp_matches_naive_reader_after_character_edits(text):
    assert_reads_like_naive(text)


# (text, whether it reads) pairs at the reader's borders
SEXP_EDGE_TEXTS = [
    # names that are keywords, numbers, strings or brackets
    ("(let ((and (atom 0 0))) (and and and))", True),
    ("(let ((0 (atom 0 0))) (K 0 0))", True),
    ('(let (("s" (atom 0 0))) (not "s"))', True),
    ("(let ((( (atom 0 0))) (atom 1 1))", True),
    # a bound ")" is a name where a form still lacks its one subformula
    ("(let (() (atom 0 0))) (D (0 1) )))", True),
    ("(let (() (atom 0 0)) (y )) ) y)", True),
    ("(let (() (atom 0 0))) (and ) ))", False),
    # a later binding sees an earlier one; the scope closes with the let
    ("(let ((x (atom 0 0)) (x (not x))) x)", True),
    ("(let () (atom 0 0))", True),
    ("(let ((x (atom 0 0))) (let ((y x)) y) x)", False),
    ("(atom +1 1_0)", True),
    ("let (() (atom 0 0))) )", False),
    ("(let (x) (atom 0 0))", False),
    ("(let ((x (atom 0 0) (atom 1 1))) x)", False),
    ("(D 0 (atom 0 0))", False),
    ("((atom 0 0))", False),
    # strings that hold brackets, whitespace or escaped quotes
    ('(or (atom 0 "a(b") (atom 0 "a)b") (atom 1 "a b"))', True),
    ('(atom 0 "say \\"(hi)\\" ")', True),
    ('(atom 0 "a) (atom 1 1)', False),
    ('(atom 0 "a"b)', False),
    ('(D ("0") (atom 0 0))', False),
    ('("and" (atom 0 0))', False),
    # strings and quoted bare tokens as binding names
    ('(let (("s" (atom 0 "s")) ("a b" (not "s"))) (and "s" (K 1 "a b")))', True),
    ('(let (("x" (atom 0 0)) (x (atom 1 1))) (and "x" x))', True),
    ('(let ((a"b" (atom 0 0))) a"b")', True),
    ('(let (("s" (atom 0 0))) "t")', False),
    ('(let (("a" (atom 0 0)) ("b" (atom 1 1))) (and "a""b"))', True),
    ('(atom 0 "a"")', False),
    # tabs, newlines and carriage returns between tokens
    ("(and\t(atom 0 0)\n(K 1\r\n(atom 1 1)))", True),
    ("\n(let\t((x\n(atom 0 0)))\t(D\n(0\t1)\nx))\n", True),
]


@pytest.mark.parametrize("text, accepted", SEXP_EDGE_TEXTS)
def test_from_sexp_matches_naive_reader_on_edge_texts(text, accepted):
    assert (assert_reads_like_naive(text) is not None) == accepted


# piece lengths of the reader far below its own, so that texts are cut
# before nearly every "("
SEXP_PIECES = (1, 2, 7, 64)


@SETTINGS
@pytest.mark.parametrize("piece", SEXP_PIECES)
@given(st.one_of(mutated_sexp(), char_edited_sexp()))
def test_from_sexp_reads_alike_in_short_pieces(piece, text):
    with mock.patch.object(logic, "_PIECE", piece):
        assert_reads_like_naive(text)


@pytest.fixture(scope="module")
def staircase_32_obstructions():
    """The K and D obstructions of staircase N=32 and their texts."""
    setup = staircase_setup(32)
    phis = [decide_obstruction(setup.protocol_run.model, setup.task_run.model, mode).phi
            for mode in "KD"]
    return [(phi, to_sexp(phi)) for phi in phis]


@pytest.mark.parametrize("piece", SEXP_PIECES)
def test_edge_texts_and_obstructions_read_alike_in_short_pieces(
        piece, staircase_32_obstructions):
    with mock.patch.object(logic, "_PIECE", piece):
        for text, accepted in SEXP_EDGE_TEXTS:
            assert (assert_reads_like_naive(text) is not None) == accepted, text
        for phi, text in staircase_32_obstructions:
            assert from_sexp(text) is phi


@SETTINGS
@given(st.booleans().flatmap(model_pairs))
def test_find_morphism_matches_enumeration(pair):
    """A morphism is found exactly when plain enumeration finds one, and
    every map found is a morphism."""
    source, target = pair
    found = find_morphism(source, target)
    exists = next(oracles.morphisms_naive(source, target), None) is not None
    assert (found is not None) == exists
    if found is not None:
        assert found.validate(source, target) == []


@SETTINGS
@given(model_pairs(repeats=True))
def test_d_fixpoint_pairs_carry_equal_atoms_colour_by_colour(pair):
    """Every pair of the D fixpoint maps each colour's vertex to one with
    the same atoms, so a morphism search inside the fixpoint needs no
    vertex filter by colour and atoms."""
    left, right = pair
    fixpoint = SimulationEngine(left, right).chain("D").fixpoint

    def atoms_by_colour(model, i):
        cx = model.complex
        return {cx.vertices[v].color: cx.vertices[v].atoms for v in cx.facets[i].vertices}

    for x, j in fixpoint.pairs():
        assert atoms_by_colour(left, x) == atoms_by_colour(right, j)


@SETTINGS
@given(st.integers(0, 6), st.integers(0, 6), st.data())
def test_relation_json_round_trip(rows, cols, data):
    cells = st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1))
    pairs = data.draw(st.lists(cells, max_size=20)) if rows and cols else []
    r = Relation.from_pairs((rows, cols), pairs)
    assert r.pairs() == sorted(set(pairs))
    assert Relation(r.bits) == r
    doc = serialize.relation_to_json(r)
    text = serialize.dumps(doc)
    assert text == json.dumps({**doc, "pairs": doc["pairs"].tolist()},
                              sort_keys=True, indent=1) + "\n"
    back = serialize.relation_from_json(json.loads(text))
    assert back == r and hash(back) == hash(r)
    assert serialize.relation_from_json(doc) == r
    assert serialize.dumps(serialize.relation_to_json(back)) == text


@SETTINGS
@given(st.integers(0, 4), st.integers(0, 3), st.sampled_from([np.int64, np.int32, np.uint8]),
       st.data())
def test_dumps_writes_int_arrays_as_rows(rows, width, dtype, data):
    info = np.iinfo(dtype)
    values = st.integers(max(int(info.min), -(2**31)), min(int(info.max), 2**31 - 1))
    flat = data.draw(st.lists(values, min_size=rows * width, max_size=rows * width))
    arr = np.array(flat, dtype=dtype).reshape(rows, width)
    assert serialize.dumps({"a": arr}) == json.dumps(
        {"a": arr.tolist()}, sort_keys=True, indent=1) + "\n"


@SETTINGS
@given(st.booleans().flatmap(lambda repeats: N_AGENTS.flatmap(
    lambda n: models(n, repeats=repeats))))
def test_model_json_round_trip(model):
    text = serialize.dumps(serialize.model_to_json(model))
    back = serialize.model_from_json(json.loads(text))
    assert back.workspace == model.workspace
    assert back.complex.vertices == model.complex.vertices
    assert [f.vertices for f in back.facets] == [f.vertices for f in model.facets]
    assert serialize.dumps(serialize.model_to_json(back)) == text


def actions(model: SimplicialModel):
    """Actions over ``model``'s workspace and colors: a random atom-free
    complex whose facets draw their preconditions from a pool of up to two
    random D-free formulas, one that holds everywhere and one that holds
    nowhere, so preconditions repeat and some facets never fire."""
    n = model.workspace.n_agents
    bare = {(a, k): frozenset() for a in range(n) for k in range(WIDTH)}
    some = atom(0, VALUES[0])
    fixed = [disj([some, neg(some)]), conj([some, neg(some)])]
    pool = st.lists(formulas(n).filter(lambda f: not f.has_d), max_size=2)
    return st.tuples(models(n, bare), pool).flatmap(lambda cp: st.lists(
        st.sampled_from(cp[1] + fixed), min_size=cp[0].n_facets,
        max_size=cp[0].n_facets).map(
            lambda pre: ActionModel(model.workspace, cp[0].complex, pre)))


@SETTINGS
@given(N_AGENTS.flatmap(lambda n: models(n, repeats=True)).flatmap(
    lambda m: st.tuples(st.just(m), actions(m))))
def test_product_update_matches_oracle(pair):
    model, action = pair
    want = oracles.product_update_naive(model, action)
    if not want["facets"]:
        with pytest.raises(UsageError, match="product update is empty"):
            product_update(model, action)
        return
    got = product_update(model, action)
    assert got.facet_sources.tolist() == list(map(list, want["facet_sources"]))
    assert got.vertex_sources.tolist() == list(map(list, want["vertex_sources"]))
    ws = model.workspace
    doc = {"format": serialize.MODEL_FORMAT, "agents": list(ws.agents),
           "values": list(ws.values),
           "vertices": [{"id": i, "color": color, "atoms": sorted(map(list, atoms))}
                        for i, (color, atoms) in enumerate(want["vertices"])],
           "facets": want["facets"]}
    assert serialize.dumps(serialize.model_to_json(got.model)) == serialize.dumps(doc)


# payloads for the JSON writer: the shapes it writes fast (int lists, ragged
# lists of int lists) next to the ones it hands to the standard library
JSON_TEXT = st.text(st.sampled_from('"\\/\n\t\x00\x1f\x7f aé€ 😀') | st.characters())
JSON_INTS = st.integers() | st.integers(min_value=2**63, max_value=2**80) \
    | st.integers(max_value=-1)
JSON_LEAVES = JSON_INTS | JSON_TEXT | st.booleans() | st.none()
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.dictionaries(JSON_TEXT, inner, max_size=5)
                   | st.lists(JSON_INTS, max_size=5)
                   | st.lists(st.lists(JSON_INTS, max_size=4), max_size=5)
                   | st.lists(JSON_INTS | st.lists(JSON_INTS, max_size=3), max_size=5)
                   | st.lists(inner, max_size=3).map(tuple)),
    max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(JSON_TEXT, JSON_PAYLOADS, max_size=4) | JSON_PAYLOADS)
def test_dumps_matches_json_dumps(payload):
    assert serialize.dumps(payload) == json.dumps(payload, sort_keys=True, indent=1) + "\n"


# vertex-shaped records for the JSON writer's template path: int and str
# values (escapes, non-ASCII and "%" included) and [agent, value] atom lists;
# one list's records share their keys unless a mutation changes one record
RECORD_TEXT = st.text(st.sampled_from('%"\\/\n\x00 aé€😀') | st.characters(), max_size=4)
RECORD_VALUES = st.integers() | RECORD_TEXT
RECORD_ATOMS = st.lists(st.tuples(st.integers(-2, 3), RECORD_VALUES).map(list), max_size=3)
RECORD_MUTATIONS = ("bool id", "bool color", "bool agent", "bool value", "float value",
                    "int subclass", "drop atoms", "empty atoms", "extra key",
                    "tuple pair", "non-record")


@st.composite
def record_lists(draw):
    """A nonempty list of ``{"id", "color", "atoms"}`` records, maybe with
    the same extra keys in each, maybe without atoms, after up to two
    mutations of single records."""
    extra = draw(st.lists(RECORD_TEXT, max_size=2, unique=True))
    with_atoms = draw(st.integers(0, 3)) > 0

    def record():
        rec = {"id": draw(st.integers()), "color": draw(st.integers(0, 3))}
        if with_atoms:
            rec["atoms"] = draw(RECORD_ATOMS)
        rec.update((key, draw(RECORD_VALUES | RECORD_ATOMS)) for key in extra)
        return rec

    items = [record() for _ in range(draw(st.integers(1, 5)))]
    for mutation in draw(st.lists(st.sampled_from(RECORD_MUTATIONS), max_size=2)):
        i = draw(st.integers(0, len(items) - 1))
        rec = items[i]
        if type(rec) is not dict:
            continue
        atoms = rec.get("atoms") or []
        if mutation == "non-record":
            items[i] = draw(st.integers() | st.lists(st.integers(), max_size=2) | st.none())
        elif mutation in ("bool id", "bool color"):
            rec[mutation.split()[1]] = draw(st.booleans())
        elif mutation == "int subclass":
            rec["color"] = RecordInt(rec["color"])
        elif mutation == "drop atoms":
            rec.pop("atoms", None)
        elif mutation == "empty atoms":
            rec["atoms"] = []
        elif mutation == "extra key":
            rec[draw(RECORD_TEXT)] = draw(RECORD_VALUES)
        elif atoms:
            k = draw(st.integers(0, len(atoms) - 1))
            if mutation == "tuple pair":
                atoms[k] = tuple(atoms[k])
            else:
                slot, value = {"bool agent": (0, True), "bool value": (1, False),
                               "float value": (1, 0.5)}[mutation]
                atoms[k] = [*atoms[k]]
                atoms[k][slot] = value
    return items


class RecordInt(int):
    """An int subclass, which json writes through ``int.__repr__``."""

    def __repr__(self):
        return "RecordInt()"


@SETTINGS
@given(record_lists(), st.sampled_from(["top", "nested", "list"]))
def test_dumps_writes_records_like_json_dumps(items, where):
    payload = {"top": {"vertices": items},
               "nested": {"models": [{"facets": [[0]], "vertices": items}]},
               "list": items}[where]
    assert serialize.dumps(payload) == json.dumps(payload, sort_keys=True, indent=1) + "\n"


# single mutations of a valid vertex list: the pinned failure kinds of
# test_serialize's reader test, plus an extra key and a missing atoms list
VERTEX_MUTATIONS = ("not an object", "missing id", "missing color", "str id", "bool id",
                    "bool color", "atoms not a list", "long pair", "bool agent",
                    "bad value", "duplicate id", "id out of range", "extra key",
                    "missing atoms")
VERTEX_VALUES = st.integers(-3, 3) | st.text("aé0%", max_size=2)


@st.composite
def vertex_lists(draw, mutation: str | None):
    """A valid ``vertices`` list in random id order with int and str
    values, after ``mutation`` of one vertex and maybe one more random
    mutation (so that two faults meet: which one is named)."""
    n = draw(st.integers(0 if mutation is None else 1, 6))
    raw = [{"id": i, "color": draw(st.integers(-1, 3)),
            "atoms": draw(st.lists(st.tuples(st.integers(-1, 3), VERTEX_VALUES).map(list),
                                   max_size=3))}
           for i in draw(st.permutations(range(n)))]
    for kind in (mutation, draw(st.sampled_from((None,) * 3 + VERTEX_MUTATIONS))):
        if kind is not None and raw:
            k = draw(st.integers(0, len(raw) - 1))
            if type(raw[k]) is dict:
                raw[k] = mutate_vertex(draw, dict(raw[k]), kind, raw)
    return raw


def mutate_vertex(draw, rv: dict, mutation: str, raw: list):
    """``rv`` after one mutation; a pair mutation first gives it a pair."""
    if mutation == "not an object":
        return draw(st.sampled_from([5, None, "v", [0, 0]]))
    if mutation in ("missing id", "missing color", "missing atoms"):
        rv.pop(mutation.split()[1], None)
    elif mutation == "str id":
        rv["id"] = str(rv.get("id"))
    elif mutation in ("bool id", "bool color"):
        rv[mutation.split()[1]] = draw(st.booleans())
    elif mutation == "atoms not a list":
        rv["atoms"] = draw(st.sampled_from([{"0": 0}, 5, (0, 0), None]))
    elif mutation == "duplicate id":
        other = draw(st.sampled_from(raw))
        rv["id"] = other.get("id", 0) if type(other) is dict else 0
    elif mutation == "id out of range":
        rv["id"] = draw(st.sampled_from([-1, len(raw), 99]))
    elif mutation == "extra key":
        rv[draw(st.text(max_size=3))] = draw(VERTEX_VALUES)
    elif type(rv.get("atoms")) is list:
        atoms = rv["atoms"] = [list(pair) for pair in rv["atoms"]] or [[0, 0]]
        pair = atoms[draw(st.integers(0, len(atoms) - 1))]
        if mutation == "long pair":
            pair.append(0)
        elif mutation == "bool agent":
            pair[0] = True
        else:
            pair[1] = draw(st.sampled_from([0.5, None, True, [1]]))
    return rv


@SETTINGS
@pytest.mark.parametrize("mutation", (None,) + VERTEX_MUTATIONS)
@given(data=st.data(), where=st.sampled_from(["", "m.json"]))
def test_vertex_reader_matches_naive_reader(mutation, data, where):
    raw = data.draw(vertex_lists(mutation))
    try:
        want = oracles.vertices_from_json_naive(raw, where)
    except SchemaError as e:
        with pytest.raises(SchemaError) as got:
            serialize._vertices_from_json(raw, where)
        assert str(got.value) == str(e)
        return
    assert serialize._vertices_from_json(raw, where) == want
