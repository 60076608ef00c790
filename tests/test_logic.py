"""Formula construction, classification, model checking, s-expressions."""

import itertools
import random
import re
from unittest import mock

import numpy as np
import pytest

import oracles
from delsim import logic
from delsim.errors import UsageError
from delsim.generators import snapshot_run, staircase_setup
from delsim.logic import (FormulaClass, ModelTable, atom, classify, conj,
                          dag_size, disj, dknow, from_sexp, know, neg, to_sexp,
                          tree_size)
from delsim.complexes import ChromaticComplex, Vertex
from delsim.models import SimplicialModel, input_model, standard_workspace


def random_formula(rng, ws, depth):
    if depth == 0 or rng.random() < 0.3:
        return atom(rng.randrange(ws.n_agents), rng.choice(ws.values))
    op = rng.choice(["not", "and", "or", "K", "D"])
    if op == "not":
        return neg(random_formula(rng, ws, depth - 1))
    if op in ("and", "or"):
        parts = [random_formula(rng, ws, depth - 1)
                 for _ in range(rng.randint(1, 3))]
        return (conj if op == "and" else disj)(parts)
    if op == "K":
        return know(rng.randrange(ws.n_agents),
                    random_formula(rng, ws, depth - 1))
    group = [a for a in range(ws.n_agents) if rng.random() < 0.5]
    return dknow(group, random_formula(rng, ws, depth - 1))


def test_interning_gives_identical_nodes():
    a = atom(0, 1)
    assert a is atom(0, 1)
    assert conj([a, neg(a)]) is conj([a, neg(a)])
    assert dknow([1, 0], a) is dknow([0, 1], a)


def test_junctions_dedup_and_collapse():
    a, b = atom(0, 0), atom(1, 1)
    assert disj([a, a, b, a]).children == (a, b)
    assert conj([a, a]) is a
    with pytest.raises(UsageError):
        disj([])


def test_degree_counts_nested_modalities():
    a = atom(0, 0)
    assert a.degree == 0
    assert know(0, a).degree == 1
    assert dknow([0, 1], know(0, a)).degree == 2
    assert conj([know(0, a), know(1, know(0, a))]).degree == 2


def test_classify_language_fragments():
    a, b = atom(0, 0), atom(1, 1)
    assert classify(disj([a, neg(b)])) is FormulaClass.LK_POS
    assert classify(know(0, disj([a, b]))) is FormulaClass.LK_POS
    # singleton distributed knowledge stays K-expressible
    assert classify(dknow([1], a)) is FormulaClass.LK_POS
    assert classify(dknow([0, 1], a)) is FormulaClass.LD_POS
    assert classify(dknow([], a)) is FormulaClass.LD_POS
    # negation above a modality leaves the positive fragment
    assert classify(neg(know(0, a))) is FormulaClass.LK
    assert classify(neg(dknow([0, 1], a))) is FormulaClass.LD
    assert classify(neg(disj([know(0, a), b]))) is FormulaClass.NON_POSITIVE


def test_dag_vs_tree_size():
    a, b = atom(0, 0), atom(1, 1)
    f = a
    for _ in range(12):
        f = conj([disj([f, b]), neg(f)])
    assert dag_size(f) < 60
    assert tree_size(f) > 10_000


def test_model_table_matches_naive_eval():
    ws = standard_workspace(2, (0, 1))
    m = input_model(ws)
    table = ModelTable(m)
    rng = random.Random(91)
    for _ in range(300):
        f = random_formula(rng, ws, 3)
        vec = table.satisfies(f)
        for x in range(m.n_facets):
            assert bool(vec[x]) == oracles.eval_naive(m, x, f)


def test_single_agent_group_knowledge_equals_individual():
    # 1000 seeded samples: D over a singleton group behaves exactly like K
    ws = standard_workspace(3)
    m = input_model(ws)
    table = ModelTable(m)
    rng = random.Random(1723)
    for _ in range(1000):
        f = random_formula(rng, ws, 2)
        a = rng.randrange(3)
        x = rng.randrange(m.n_facets)
        assert table.check(x, know(a, f)) == table.check(x, dknow([a], f))


def test_empty_group_quantifies_globally():
    ws = standard_workspace(2, (0, 1))
    m = input_model(ws)
    table = ModelTable(m)
    p = atom(0, 0)
    # some facet satisfies p and some refutes it, so D over the empty group
    # (truth in every facet) must fail everywhere
    vec = table.satisfies(p)
    assert vec.any() and not vec.all()
    assert not table.satisfies(dknow([], p)).any()


def test_knowledge_requires_truth_in_adjacent_facets():
    ws = standard_workspace(2, (0, 1))
    m = input_model(ws)
    # agent 0 never knows agent 1's input in the full input model
    f = know(0, atom(1, 0))
    assert not ModelTable(m).satisfies(f).any()
    # but every agent knows its own input
    g = disj([know(0, atom(0, 0)), know(0, atom(0, 1))])
    assert ModelTable(m).satisfies(g).all()


def test_unknown_atom_rejected():
    ws = standard_workspace(2, (0, 1))
    m = input_model(ws)
    with pytest.raises(UsageError):
        ModelTable(m).satisfies(atom(0, 7))
    with pytest.raises(UsageError):
        ModelTable(m).satisfies(atom(5, 0))


@pytest.mark.parametrize("build", [lambda f: know(7, f), lambda f: dknow([0, 7], f)],
                         ids=["K", "D"])
def test_modal_agent_outside_workspace_rejected_over_a_tautology(build):
    """A step whose subformula holds everywhere still checks its group."""
    m = input_model(standard_workspace(2, (0, 1)))
    p = atom(0, 1)
    with pytest.raises(UsageError, match="agent 7 out of range"):
        ModelTable(m).satisfies(build(disj([p, neg(p)])))


def test_table_reads_each_group_once(snap1_2, agree1_2):
    """``K a`` and ``D {a}`` share the group {a}, and ``D`` groups compare as
    sets, so a table asks each model for one group's classes once."""
    models = (snap1_2.model, agree1_2.model)
    table = ModelTable(*models)
    calls = []
    for m in models:
        def spy(colors, m=m, real=m.face_classes):
            calls.append((id(m), tuple(sorted(colors))))
            return real(colors)
        m.face_classes = spy
    try:
        p = atom(0, 0)
        for f in (know(0, p), dknow([0], p), know(0, neg(p)), dknow([1, 0], p),
                  dknow([0, 1], know(1, p)), dknow([], p), dknow([], neg(p))):
            table.satisfies(f)
    finally:
        for m in models:
            del m.face_classes
    assert sorted(calls) == sorted({(id(m), g) for m in models
                                    for g in ((), (0,), (1,), (0, 1))})


def test_table_over_two_models_keeps_them_apart():
    """``D {}`` ranges over the facet's own model only: in the union of a
    one-facet model where agent 0 has input 0 and the input model, it holds
    on the first and fails on the second."""
    ws = standard_workspace(2, (0, 1))
    one = SimplicialModel(ws, ChromaticComplex(2, [Vertex(0, 0, frozenset({(0, 0)})),
                                                   Vertex(1, 1, frozenset({(1, 0)}))],
                                               [[0, 1]]))
    full = input_model(ws)
    q = atom(0, 0)
    table = ModelTable(one, full)
    assert table.satisfies(dknow([], q)).tolist() == [True] + [False] * full.n_facets
    assert table.satisfies(q).tolist() == [True] + ModelTable(full).satisfies(q).tolist()
    assert table.check(1, q) == ModelTable(full).check(0, q)
    with pytest.raises(UsageError):
        table.check(1 + full.n_facets, q)


def test_table_models_share_a_workspace():
    with pytest.raises(UsageError):
        ModelTable(input_model(standard_workspace(2, (0, 1))),
                   input_model(standard_workspace(2, (0, 2))))
    with pytest.raises(UsageError):
        ModelTable()


def all_groups(n_agents):
    return [g for k in range(n_agents + 1) for g in itertools.combinations(range(n_agents), k)]


def closures_agree(classes, fail_vec):
    """Every closure of one group's record, those ``close`` does not pick
    included, marks exactly the classes that meet ``fail_vec``: the ones a
    numpy reference finds. Returns the closures that ran."""
    fail = logic._pack(fail_vec)
    want = logic._pack(np.isin(classes.ids, classes.ids[fail_vec]))
    kernels = [classes.walk]
    if classes.offsets is not None:
        kernels.append(classes.shifts)
    for kernel in kernels:
        assert kernel(fail) == want, kernel.__name__
    assert classes.close(fail) == want
    return {kernel.__name__ for kernel in kernels}


@pytest.fixture(scope="module")
def large_models():
    return {"consensus-k protocol": snapshot_run(standard_workspace(3, (0, 1)), 2).model,
            "staircase N=512 task": staircase_setup(512).task_run.model}


@pytest.mark.parametrize("name, n_facets", [("consensus-k protocol", 1352),
                                            ("staircase N=512 task", 1025)])
def test_modal_closures_agree_on_large_models(large_models, name, n_facets):
    """On random failing sets from empty to full, the shifts (where a group
    has offsets) and the walk close alike on every group."""
    m = large_models[name]
    assert m.n_facets == n_facets
    table = ModelTable(m)
    rng = np.random.default_rng(16)
    ran = set()
    for group in all_groups(m.workspace.n_agents):
        classes = table._group(group)
        for density in (0, 1 / n_facets, 0.01, 0.2, 0.9, 1):
            ran |= closures_agree(classes, rng.random(n_facets) < density)
    assert ran == {"shifts", "walk"}


def test_offsets_are_bounded_before_pairs_are_enumerated(large_models):
    """One class of 1025 facets has over 2000 offsets: the record knows it
    from the class size and never lists the class's pairs. Staircase's pair
    classes have a few offsets, and the consensus protocol's {a}-classes
    (up to 36 facets) too many for shifts."""
    stair = ModelTable(large_models["staircase N=512 task"])
    with mock.patch.object(logic._Classes, "_offsets") as offsets:
        assert stair._group(()).offsets is None
    offsets.assert_not_called()
    assert all(0 < len(stair._group((a,)).offsets) <= 4 for a in range(2))
    consensus = ModelTable(large_models["consensus-k protocol"])
    assert all(consensus._group((a,)).offsets is None for a in range(3))
    assert all(consensus._group(g).offsets for g in itertools.combinations(range(3), 2))


def test_model_table_matches_naive_eval_past_one_word():
    """K and D over the staircase N=40 task (81 facets: more than 64, not a
    multiple of 8), alone and side by side with its protocol."""
    setup = staircase_setup(40)
    task, protocol = setup.task_run.model, setup.protocol_run.model
    assert task.n_facets == 81
    ws = task.workspace
    rng = random.Random(16)
    alone, both = ModelTable(task), ModelTable(task, protocol)
    for _ in range(6):
        phi = random_formula(rng, ws, 2)
        for psi in [*(know(a, phi) for a in range(ws.n_agents)),
                    *(dknow(g, phi) for g in all_groups(ws.n_agents)),
                    know(0, disj([know(1, phi), neg(phi)]))]:
            want = [oracles.eval_naive(m, x, psi)
                    for m in (task, protocol) for x in range(m.n_facets)]
            assert both.satisfies(psi).tolist() == want
            assert alone.satisfies(psi).tolist() == want[:task.n_facets]


def test_sexp_round_trip_shared_and_expanded():
    ws = standard_workspace(2, (0, 1))
    rng = random.Random(5)
    for _ in range(200):
        f = random_formula(rng, ws, 4)
        assert from_sexp(to_sexp(f, share=True)) is f
        assert from_sexp(to_sexp(f, share=False)) is f


def test_sexp_handles_string_values_and_empty_group():
    f = conj([atom(0, "crash"), dknow([], atom(1, "ok"))])
    assert from_sexp(to_sexp(f)) is f
    text = to_sexp(f, share=False)
    assert '"crash"' in text and "(D ()" in text.replace("( ", "(")


def test_sexp_shares_repeated_subterms():
    a = atom(0, 0)
    inner = disj([know(0, a), know(1, a)])
    f = conj([inner, neg(inner)])
    text = to_sexp(f, share=True)
    assert text.startswith("(let ")
    assert text.count("(K 0") == 1


def test_sexp_parse_errors():
    for bad in ["", "(", "(and)", "(atom 0)", "(K x (atom 0 0))",
                "(let ((x0)) x0)", "(atom 0 0) extra", '(atom 0 "\\q")',
                "(atom (atom 0 0) 0)", "(D ((atom 0 0)) (atom 0 0))", "()"]:
        with pytest.raises(UsageError):
            from_sexp(bad)


@pytest.mark.parametrize("bad, message", [
    ('(atom 0 "open)', "unterminated string in formula"),
    ('(atom 0 "escaped end\\")', "unterminated string in formula"),
    (")", "unbound name ')' in formula"),
    ("(atom 0 0))", "trailing tokens after formula"),
    # a string is named as the text spells it
    ('(let (("s" (atom 0 0))) (not "t"))', "unbound name '\"t\"' in formula"),
    ('(K "a" (atom 0 0))', "expected an int, got '\"a\"'"),
    ('("x y" (atom 0 0))', "unknown or malformed form (\"x y\" ...) in formula"),
    ('(atom 0 "tab\there")', "expected an int or a string, got '\"tab\\there\"'"),
])
def test_sexp_token_errors(bad, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        from_sexp(bad)


def test_sexp_nested_let_shadows_and_closes():
    text = "(let ((x (atom 0 0))) (and (let ((x (atom 1 1))) x) x))"
    assert from_sexp(text) is conj([atom(1, 1), atom(0, 0)])


def deep_k_chain():
    """K 0 nested 5000 deep over one atom: deeper than the interpreter's
    recursion limit."""
    f = atom(0, 0)
    for _ in range(5000):
        f = know(0, f)
    return f


@pytest.mark.parametrize("share", [True, False])
def test_sexp_round_trips_deep_nesting(share):
    f = deep_k_chain()
    assert from_sexp(to_sexp(f, share=share)) is f


def test_repr_counts_a_bounded_tree_and_leaves_no_plan(monkeypatch):
    """``repr`` prints a formula whose expanded tree has fewer than 80
    nodes and only the head kind of a larger one; it stops counting at the
    bound, without walking the DAG or keeping a walk plan on the node."""
    monkeypatch.setattr(logic, "_INTERNED", {})  # nodes of this test's own
    f = deep_k_chain()

    def walk(*args):
        raise AssertionError("repr walked the DAG")

    monkeypatch.setattr(logic, "_postorder", walk)
    assert repr(f) == "<Formula K>"
    small = know(0, conj([atom(0, 0), atom(1, "a")]))
    assert repr(small) == '<Formula (K 0 (and (atom 0 0) (atom 1 "a")))>'
    assert f._plan is None and small._plan is None


# Payloads are interned by equality, and True == 1 == 1.0: each spelling
# below, if accepted, would stand for the int one in the whole process.
@pytest.mark.parametrize("build, message", [
    pytest.param(lambda: atom(True, 0), "atom agent must be a nonnegative int, got True",
                 id="atom-agent"),
    pytest.param(lambda: know(True, atom(0, 0)), "K agent must be a nonnegative int, got True",
                 id="K-agent"),
    pytest.param(lambda: dknow([0, True], atom(0, 0)),
                 "D agent must be a nonnegative int, got True", id="D-agent"),
    pytest.param(lambda: atom(0, True), "values must be int or str, got True", id="bool-value"),
    pytest.param(lambda: atom(0, 1.0), "values must be int or str, got 1.0", id="float-value"),
    pytest.param(lambda: atom(0, None), "values must be int or str, got None", id="none-value"),
])
def test_builders_reject_bool_and_float_spellings(build, message):
    with pytest.raises(UsageError, match=re.escape(message)):
        build()


@pytest.mark.parametrize("agents", [[1, True], [True, 1], (a for a in (1, True))],
                         ids=["int-first", "bool-first", "generator"])
def test_dknow_checks_every_agent_before_merging_them(agents):
    """``True == 1``, so a set built first would keep whichever came first;
    the bool is refused in any position."""
    with pytest.raises(UsageError, match="D agent must be a nonnegative int, got True"):
        dknow(agents, atom(0, 0))


def test_dknow_keeps_a_given_frozenset():
    group, p = frozenset({0, 1}), atom(0, "a group given as a frozenset")
    assert dknow(group, p).payload is group
    assert dknow(iter([1, 0, 1]), p) is dknow(group, p)


def test_bool_agent_does_not_alias_the_int_agent():
    p = atom(0, "K spelled True")
    with pytest.raises(UsageError):
        know(True, p)
    text = to_sexp(know(1, p))
    assert text == '(K 1 (atom 0 "K spelled True"))'
    assert from_sexp(text) is know(1, p)


def test_bool_value_does_not_alias_the_int_value():
    with pytest.raises(UsageError):
        atom(9, True)
    assert to_sexp(atom(9, 1)) == "(atom 9 1)"


def test_float_value_is_not_checked_as_the_int_value():
    m = input_model(standard_workspace(2, (0, 1)))
    with pytest.raises(UsageError):
        ModelTable(m).satisfies(atom(0, 1.0))
