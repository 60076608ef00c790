"""JSON formats: round-trips, canonical output, schema errors."""

import json
import re

import pytest

from delsim import serialize
from delsim.errors import SchemaError
from delsim.generators import agreement_action, snapshot_action
from delsim.logic import atom, disj, know, to_sexp
from delsim.models import input_model, standard_workspace
from delsim.simulation import Relation


def test_model_round_trip(snap1_2):
    doc = serialize.model_to_json(snap1_2.model)
    back = serialize.model_from_json(json.loads(serialize.dumps(doc)))
    assert back.workspace == snap1_2.model.workspace
    assert back.n_facets == snap1_2.model.n_facets
    for i in range(back.n_facets):
        assert back.label(i) == snap1_2.model.label(i)
        assert back.facets[i].vertices == snap1_2.model.facets[i].vertices


def test_model_json_has_explicit_values():
    ws = standard_workspace(2, ("a", "b"))
    doc = serialize.model_to_json(input_model(ws))
    assert doc["values"] == ["a", "b"]
    assert doc["format"] == "delsim-model/1"


def test_action_round_trip():
    ws = standard_workspace(2, (0, 1))
    act = agreement_action(ws, 1).action
    doc = serialize.action_to_json(act)
    back = serialize.action_from_json(json.loads(serialize.dumps(doc)))
    assert back.n_facets == act.n_facets
    for i in range(act.n_facets):
        assert back.pre[i] is act.pre[i]  # interning makes equality identity


def test_action_round_trip_snapshot():
    """Each distinct precondition is written once and read once; the
    document still spells every facet's text, and reads back to the same
    nodes and the same bytes."""
    ws = standard_workspace(3)
    act = snapshot_action(ws, 1).action
    doc = serialize.action_to_json(act)
    assert doc["pre"] == {str(i): to_sexp(p) for i, p in enumerate(act.pre)}
    text = serialize.dumps(doc)
    back = serialize.action_from_json(json.loads(text))
    assert back.n_facets == act.n_facets == 351
    assert all(b is a for a, b in zip(act.pre, back.pre))
    assert serialize.dumps(serialize.action_to_json(back)) == text


@pytest.mark.parametrize("bad", ["(atom 0", ["(atom 0 0)"], None])
def test_action_reports_a_bad_precondition_at_its_first_facet(bad):
    act = snapshot_action(standard_workspace(2, (0, 1)), 1).action
    doc = json.loads(serialize.dumps(serialize.action_to_json(act)))
    doc["pre"]["3"] = doc["pre"]["1"] = doc["pre"]["5"] = bad
    with pytest.raises(SchemaError, match=re.escape("pre[1]: ")):
        serialize.action_from_json(doc)


def test_relation_round_trip():
    r = Relation.from_pairs((3, 4), [(0, 1), (2, 3)])
    doc = serialize.relation_to_json(r, mode="K", total=False)
    assert doc["mode"] == "K"
    back = serialize.relation_from_json(doc)
    assert back == r


def test_dumps_is_canonical(snap1_2):
    doc = serialize.model_to_json(snap1_2.model)
    a = serialize.dumps(doc)
    b = serialize.dumps(json.loads(a))
    assert a == b and a.endswith("\n")
    assert list(json.loads(a)) == sorted(json.loads(a))


def test_morphism_payloads():
    assert serialize.morphism_to_json(None) == {
        "format": "delsim-morphism/1", "found": False, "vmap": None}
    from delsim.models import Morphism
    doc = serialize.morphism_to_json(Morphism((2, 0, 1)))
    assert doc["found"] and doc["vmap"] == [[0, 2], [1, 0], [2, 1]]


def test_provenance_payload():
    doc = serialize.provenance_to_json([(0, 3), (1, 2)])
    assert doc["facets"] == [{"facet": 0, "source": 0, "action": 3},
                             {"facet": 1, "source": 1, "action": 2}]


def test_schema_errors_carry_context():
    with pytest.raises(SchemaError, match="missing key"):
        serialize.model_from_json({"format": "delsim-model/1"}, where="f.json")
    try:
        serialize.model_from_json({}, where="f.json")
    except SchemaError as e:
        assert "f.json" in str(e)


def test_model_rejects_bad_values(snap1_2):
    doc = serialize.model_to_json(snap1_2.model)
    doc["vertices"][0]["atoms"] = [[0, None]]
    with pytest.raises(SchemaError):
        serialize.model_from_json(doc)


GOOD_VERTEX_1 = {"id": 1, "color": 1, "atoms": [[1, 1]]}


@pytest.mark.parametrize("vertices, message", [
    ([5, GOOD_VERTEX_1], "m.json: vertices[0]: expected an object"),
    ([{"color": 0}, GOOD_VERTEX_1], "m.json:vertices[0]: missing key 'id'"),
    ([{"id": 0}, GOOD_VERTEX_1], "m.json:vertices[0]: missing key 'color'"),
    ([{"id": "0", "color": 0}, GOOD_VERTEX_1],
     "m.json: vertices[0]: id and color must be ints"),
    ([{"id": 0, "color": True}, GOOD_VERTEX_1],
     "m.json: vertices[0]: id and color must be ints"),
    ([{"id": 0, "color": 0, "atoms": {"0": 0}}, GOOD_VERTEX_1],
     "m.json: vertices[0].atoms: expected a list"),
    ([{"id": 0, "color": 0, "atoms": [[0, 0, 0]]}, GOOD_VERTEX_1],
     "m.json: vertices[0].atoms[0]: expected [agent, value]"),
    ([{"id": 0, "color": 0, "atoms": [[True, 0]]}, GOOD_VERTEX_1],
     "m.json: vertices[0].atoms[0]: expected [agent, value]"),
    ([{"id": 0, "color": 0, "atoms": [[0, 0.5]]}, GOOD_VERTEX_1],
     "m.json: vertices[0].atoms[0]: values must be int or str, got 0.5"),
    ([{"id": 1, "color": 0}, GOOD_VERTEX_1], "m.json: vertices[1]: duplicate vertex id 1"),
    ([{"id": 99, "color": 0}, GOOD_VERTEX_1], "m.json: vertex ids must be dense 0..n-1"),
    # the per-vertex checks run before the dense-id check
    ([{"id": 99, "color": 0}, {"id": 1, "color": 1, "atoms": 5}],
     "m.json: vertices[1].atoms: expected a list"),
])
def test_model_reader_names_the_first_bad_vertex(vertices, message):
    doc = {"format": "delsim-model/1", "agents": ["a", "b"], "values": [0, 1],
           "vertices": [{"id": 0, "color": 0, "atoms": [[0, 0]]}, GOOD_VERTEX_1],
           "facets": [[0, 1]]}
    serialize.model_from_json(doc, where="m.json")
    with pytest.raises(SchemaError) as err:
        serialize.model_from_json({**doc, "vertices": vertices}, where="m.json")
    assert str(err.value) == message


def test_relation_rejects_bad_dims():
    with pytest.raises(SchemaError):
        serialize.relation_from_json({"dims": [2], "pairs": []})
    with pytest.raises(SchemaError):
        serialize.relation_from_json({"dims": [2, 2], "pairs": [[0]]})
    with pytest.raises(SchemaError):
        serialize.relation_from_json({"dims": [2, 2], "pairs": [[0, 5]]})


def test_action_rejects_missing_precondition():
    ws = standard_workspace(2, (0, 1))
    act = agreement_action(ws, 1).action
    doc = serialize.action_to_json(act)
    del doc["pre"]["0"]
    with pytest.raises(SchemaError, match="facet 0"):
        serialize.action_from_json(doc)


def test_load_helpers_report_file_errors(tmp_path):
    with pytest.raises(SchemaError):
        serialize.load_json(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        serialize.load_json(str(bad))
    for name, load in (("latin1.json", serialize.load_json),
                       ("latin1.sexp", serialize.load_formula)):
        undecodable = tmp_path / name
        undecodable.write_bytes(b"\xff(atom 0 0)")
        with pytest.raises(SchemaError, match=f"^{re.escape(str(undecodable))}: not UTF-8 "):
            load(str(undecodable))


def test_formula_file_round_trip(tmp_path):
    f = disj([know(0, atom(0, 0)), atom(1, "x")])
    path = tmp_path / "f.sexp"
    path.write_text(to_sexp(f) + "\n")
    assert serialize.load_formula(str(path)) is f
