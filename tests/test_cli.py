"""Command-line behavior: pipelines, file outputs, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delsim import cli, serialize
from delsim.cli import main
from delsim.logic import atom, from_sexp, know, to_sexp


def run_cli(args):
    return main(args)


def read(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture()
def consensus_files(tmp_path):
    is1 = tmp_path / "is1.json"
    sa1 = tmp_path / "sa1.json"
    proto = tmp_path / "proto.json"
    task = tmp_path / "task.json"
    assert run_cli(["gen", "is", "--agents", "2", "--values", "0,1",
                    "--rounds", "1", "-o", str(is1)]) == 0
    assert run_cli(["gen", "sa", "--agents", "2", "--values", "0,1",
                    "--k", "1", "-o", str(sa1)]) == 0
    assert run_cli(["update", "--action", str(is1), "-o", str(proto)]) == 0
    assert run_cli(["update", "--action", str(sa1), "-o", str(task)]) == 0
    return {"proto": proto, "task": task, "dir": tmp_path}


def test_gen_input_writes_model(tmp_path):
    out = tmp_path / "input.json"
    assert run_cli(["gen", "input", "--agents", "3", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["format"] == "delsim-model/1"
    assert len(doc["facets"]) == 27
    model = serialize.model_from_json(doc)
    assert model.n_facets == 27


def test_gen_accepts_agent_names(tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["gen", "input", "--agents", "alice,bob",
                    "--values", "x,y", "-o", str(out)]) == 0
    assert read(out)["agents"] == ["alice", "bob"]


def test_update_provenance(consensus_files, tmp_path):
    prov = tmp_path / "prov.json"
    is1 = consensus_files["dir"] / "is1.json"
    out = tmp_path / "p2.json"
    assert run_cli(["update", "--action", str(is1), "-o", str(out),
                    "--provenance", str(prov)]) == 0
    doc = read(prov)
    assert doc["format"] == "delsim-provenance/1"
    assert len(doc["facets"]) == 12


def test_simulate_reports_chain(consensus_files, tmp_path):
    out = tmp_path / "sim.json"
    assert run_cli(["simulate", "--left", str(consensus_files["proto"]),
                    "--right", str(consensus_files["task"]),
                    "--mode", "K", "-o", str(out)]) == 0
    doc = read(out)
    assert doc["step_pairs"] == [18, 14, 10, 6, 2, 0]
    assert doc["total"] is False
    assert doc["pairs"] == []
    assert doc["witnesses"]


def test_obstruct_finds_consensus_obstruction(consensus_files, tmp_path):
    verdict = tmp_path / "verdict.json"
    phi = tmp_path / "phi.sexp"
    code = run_cli(["obstruct", "--protocol", str(consensus_files["proto"]),
                    "--task", str(consensus_files["task"]), "--mode", "K",
                    "--phi", str(phi), "-o", str(verdict)])
    assert code == 1
    doc = read(verdict)
    assert doc["exists"] and doc["mode"] == "K"
    assert doc["witness"] == 0 and doc["phi_file"] == str(phi)
    assert doc["verified"]["task_models_phi"] is True
    assert [s["pairs"] for s in doc["steps"]] == [18, 14, 10, 6, 2, 0]
    from_sexp(phi.read_text())  # parses back


def test_check_formula_round_trip(consensus_files, tmp_path):
    verdict = tmp_path / "v.json"
    phi = tmp_path / "phi.sexp"
    run_cli(["obstruct", "--protocol", str(consensus_files["proto"]),
             "--task", str(consensus_files["task"]), "--mode", "K",
             "--phi", str(phi), "-o", str(verdict)])
    out = tmp_path / "chk.json"
    assert run_cli(["check", "--model", str(consensus_files["task"]),
                    "--formula", str(phi), "-o", str(out)]) == 0
    assert read(out)["valid"] is True
    assert run_cli(["check", "--model", str(consensus_files["proto"]),
                    "--formula", str(phi), "--facet", "0",
                    "-o", str(out)]) == 0
    assert read(out)["holds"] is False


def test_check_deeply_nested_formula(consensus_files, tmp_path):
    # nesting deeper than the interpreter's recursion limit
    phi = tmp_path / "deep.sexp"
    phi.write_text("(K 0 " * 5000 + "(atom 0 0)" + ")" * 5000 + "\n")
    out = tmp_path / "check.json"
    assert run_cli(["check", "--model", str(consensus_files["proto"]),
                    "--formula", str(phi), "-o", str(out)]) == 0
    assert "valid" in read(out)


def test_check_relation(consensus_files, tmp_path):
    sim = tmp_path / "sim.json"
    run_cli(["simulate", "--left", str(consensus_files["proto"]),
             "--right", str(consensus_files["task"]), "--mode", "K",
             "-o", str(sim)])
    out = tmp_path / "rep.json"
    assert run_cli(["check", "--left", str(consensus_files["proto"]),
                    "--right", str(consensus_files["task"]),
                    "--relation", str(sim), "--mode", "K",
                    "-o", str(out)]) == 0
    doc = read(out)
    assert doc["atom_ok"] and doc["forth_ok"] and not doc["total"]


def test_check_requires_exactly_one_target(consensus_files):
    assert run_cli(["check", "--model", str(consensus_files["proto"])]) == 2


@pytest.mark.parametrize("facet", ["999", "-1"])
def test_check_facet_out_of_range_is_usage_error(consensus_files, tmp_path,
                                                 capsys, facet):
    phi = tmp_path / "phi.sexp"
    phi.write_text("(atom 0 0)\n")
    out = tmp_path / "chk.json"
    assert run_cli(["check", "--model", str(consensus_files["proto"]),
                    "--formula", str(phi), "--facet", facet,
                    "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: facet index") and err.count("\n") == 1
    assert not out.exists()


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def boom(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_gen", boom)
    assert run_cli(["gen", "input", "--agents", "2"]) == 3
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: boom\n"


def test_morphism_subcommand(consensus_files, tmp_path):
    out = tmp_path / "m.json"
    assert run_cli(["morphism", "--source", str(consensus_files["proto"]),
                    "--target", str(consensus_files["task"]),
                    "-o", str(out)]) == 0
    assert read(out)["found"] is False


def test_staircase_generation(tmp_path):
    t = tmp_path / "t.json"
    p = tmp_path / "p.json"
    assert run_cli(["gen", "staircase", "--max-decision", "3",
                    "-o", str(t)]) == 0
    assert len(read(t)["facets"]) == 7
    assert run_cli(["gen", "staircase", "--protocol", "-o", str(p)]) == 0
    assert len(read(p)["facets"]) == 1


def test_knowall_generation(tmp_path):
    graphs = tmp_path / "g.json"
    graphs.write_text(json.dumps({"graphs": [{"edges": [[0, 1]]}]}))
    out = tmp_path / "ka.json"
    # missing self-loops get added with a stderr note rather than an error
    assert run_cli(["gen", "knowall", "--agents", "2", "--rounds", "1",
                    "--graphs", str(graphs), "-o", str(out)]) == 0
    assert len(read(out)["facets"]) == 4


@pytest.mark.parametrize("doc", [
    lambda dims: "dims",
    lambda dims: {"dims": [True, dims[1]], "pairs": []},
    lambda dims: {"dims": dims, "pairs": [[0, False]]},
    lambda dims: {"dims": [dims[0], 10**30], "pairs": [[0, 0]]},
])
def test_malformed_relation_is_schema_error(consensus_files, tmp_path, capsys, doc):
    dims = [len(read(consensus_files[side])["facets"]) for side in ("proto", "task")]
    rel = tmp_path / "rel.json"
    rel.write_text(json.dumps(doc(dims)))
    assert run_cli(["check", "--left", str(consensus_files["proto"]),
                    "--right", str(consensus_files["task"]),
                    "--relation", str(rel)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def _two_agent_model(**change):
    """A valid one-facet model document, with the given vertex or facet
    fields replaced."""
    doc = {"format": "delsim-model/1", "agents": ["a", "b"], "values": [0],
           "vertices": [{"id": 0, "color": 0, "atoms": [[0, 0]]},
                        {"id": 1, "color": 1, "atoms": [[1, 0]]}],
           "facets": [[0, 1]]}
    for key, value in change.items():
        if key == "facets":
            doc["facets"] = value
        else:
            field, vertex = key.rsplit("_", 1)
            doc["vertices"][int(vertex)][field] = value
    return doc


@pytest.mark.parametrize("change", [
    {}, {"facets": [[False, True]]}, {"facets": [[0, True]]}, {"id_0": False},
    {"color_1": True}, {"atoms_1": [[True, 0]]},
])
def test_json_booleans_are_not_ids(tmp_path, capsys, change):
    """A JSON boolean is no vertex id, colour or atom agent, although
    Python's ``True == 1``: the reader exits 2 rather than load it."""
    model = tmp_path / "m.json"
    model.write_text(json.dumps(_two_agent_model(**change)))
    code = run_cli(["simulate", "--left", str(model), "--right", str(model),
                    "--mode", "K"])
    err = capsys.readouterr().err
    if not change:
        assert code == 0
    else:
        assert code == 2
        assert err.startswith(f"error: {model}: ")
        assert err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"graphs": [[[0, 1]]]},
    {"graphs": [{"edges": [["a", 1]]}]},
    {"graphs": [{"edges": [[0, True]]}]},
    {"graphs": [{"edges": [[0, 1, 2]]}]},
    {"graphs": [{"edges": {"0": 1}}]},
])
def test_malformed_graphs_file_is_schema_error(tmp_path, capsys, doc):
    graphs = tmp_path / "g.json"
    graphs.write_text(json.dumps(doc))
    assert run_cli(["gen", "knowall", "--agents", "2", "--rounds", "1",
                    "--graphs", str(graphs)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_missing_file_is_usage_error(tmp_path):
    assert run_cli(["simulate", "--left", str(tmp_path / "no.json"),
                    "--right", str(tmp_path / "no.json"),
                    "--mode", "K"]) == 2
    assert run_cli(["gen", "input", "--agents", "2",
                    "-o", str(tmp_path / "no-such-dir" / "m.json")]) == 2


def test_bad_arguments_are_usage_errors():
    assert run_cli(["simulate"]) == 2
    assert run_cli(["no-such-command"]) == 2
    assert run_cli(["--jobs", "0", "gen", "input", "--agents", "2"]) == 2
    assert run_cli(["gen", "input", "--agents", ""]) == 2


@pytest.mark.parametrize("argv", [
    ["gen", "input", "--agents", "2", "--values=--5,1"],
    ["gen", "is", "--agents", "2", "--rounds", "1", "--inputs=--0,1"],
    ["gen", "input", "--agents", "2", "--values=\u00b2,1"],
    ["gen", "input", "--agents", "\u00b2"],
])
def test_odd_value_tokens_are_no_internal_error(argv):
    """Tokens that look numeric to ``str.isdigit`` but are no ASCII int
    (a doubled sign, a superscript digit) read as strings."""
    code, err = _run_quietly(argv)
    assert code in (0, 2), err
    assert "internal error" not in err


def test_value_tokens_are_ascii_ints_or_strings(tmp_path):
    """Only ASCII ``-?[0-9]+`` reads as an int: an Arabic-Indic three is a
    string, not the int 3."""
    out = tmp_path / "m.json"
    assert run_cli(["gen", "input", "--agents", "2", "--values=\u0663, -3,--5,07",
                    "-o", str(out)]) == 0
    assert read(out)["values"] == ["\u0663", -3, "--5", 7]


# gen is / gen sa -> update -> obstruct (K, D) -> simulate -> morphism, over
# string values, whose hashes vary with PYTHONHASHSEED
PIPELINE = [
    ["gen", "is", "--agents", "2", "--values", "x,y", "--rounds", "1", "-o", "is.json"],
    ["gen", "sa", "--agents", "2", "--values", "x,y", "--k", "1", "-o", "sa1.json"],
    ["gen", "sa", "--agents", "2", "--values", "x,y", "--k", "2", "-o", "sa2.json"],
    ["update", "--action", "is.json", "-o", "proto.json"],
    ["update", "--action", "sa1.json", "-o", "task1.json"],
    ["update", "--action", "sa2.json", "-o", "task2.json"],
    ["obstruct", "--protocol", "proto.json", "--task", "task1.json", "--mode", "K",
     "--phi", "k.sexp", "-o", "k.json"],
    ["obstruct", "--protocol", "proto.json", "--task", "task1.json", "--mode", "D",
     "--phi", "d.sexp", "-o", "d.json"],
    ["simulate", "--left", "proto.json", "--right", "task1.json", "--mode", "D",
     "-o", "sim.json"],
    ["morphism", "--source", "proto.json", "--target", "task2.json", "-o", "m.json"],
]


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """The pipeline writes the same bytes under two ``PYTHONHASHSEED``
    values, each run in its own process."""
    script = ("import json, sys\nfrom delsim.cli import main\n"
              "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))")
    outputs = []
    for seed in ("1", "2"):
        work = tmp_path / seed
        work.mkdir()
        env = {**os.environ, "PYTHONHASHSEED": seed, "DELSIM_DIR": "",
               "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(PIPELINE)],
                              cwd=work, env=env, capture_output=True, text=True)
        assert json.loads(proc.stdout) == [0] * 6 + [1, 1, 0, 0], proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(work.iterdir())})
    assert len(outputs[0]) == 12
    assert outputs[0] == outputs[1]


def test_env_var_resolves_relative_paths(tmp_path, monkeypatch):
    monkeypatch.setenv("DELSIM_DIR", str(tmp_path))
    assert run_cli(["gen", "input", "--agents", "2", "-o", "m.json"]) == 0
    assert (tmp_path / "m.json").exists()
    assert run_cli(["simulate", "--left", "m.json", "--right", "m.json",
                    "--mode", "D", "-o", "sim.json"]) == 0
    assert read(tmp_path / "sim.json")["total"] is True


def test_stdin_stdout_pipeline(consensus_files, capsys, monkeypatch):
    import io
    is1 = (consensus_files["dir"] / "is1.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(is1))
    assert run_cli(["update", "--action", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["facets"]) == 12


def test_console_script_runs():
    proc = subprocess.run([sys.executable, "-m", "delsim", "gen", "input",
                           "--agents", "2"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["format"] == "delsim-model/1"


def test_case_study_single_input(tmp_path):
    out = tmp_path / "case.json"
    code = run_cli(["case-is2", "--single-input",
                    "--outdir", str(tmp_path / "rpq"), "-o", str(out)])
    assert code == 0
    doc = read(out)
    assert doc["single_input"] is True
    assert doc["obstruction_exists"] is False
    assert doc["conflict_layers"]["0,1"] == [102, 118, 120, 122, 124, 126]
    assert doc["location_violations"] == {"0,1": 0, "0,2": 0, "1,2": 0}
    assert doc["explicit_relation"]["total"] is True
    assert len(doc["rpq_files"]) == 3
    for path in doc["rpq_files"].values():
        dump = read(path)
        assert {"p", "q", "layers", "final"} <= set(dump)
        assert len(dump["final"]) == 24


# -- exit codes on random well-formed and mutated files ----------------------

def _json_paths(doc, path=()):
    """Every (container, key) position inside ``doc``, outermost first."""
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _mutated(doc, data) -> str:
    """The text of ``doc`` as drawn: unchanged, or with one key or item
    dropped, one value of a wrong type, an int made a bool or out of range,
    or the text cut short."""
    kind = data.draw(st.sampled_from(
        ["none", "drop", "type", "bool", "range", "truncate"]), label="mutation")
    doc = json.loads(json.dumps(doc))
    paths = list(_json_paths(doc))
    if kind == "truncate":
        text = json.dumps(doc)
        return text[:data.draw(st.integers(0, len(text) - 1), label="cut")]
    if kind != "none" and paths:
        if kind in ("bool", "range"):
            paths = [p for p in paths if type(_at(doc, p)) is int] or paths
        path = data.draw(st.sampled_from(paths), label="path")
        parent, key = _at(doc, path[:-1]), path[-1]
        if kind == "drop":
            del parent[key]
        elif kind == "type":
            parent[key] = data.draw(st.sampled_from(["x", 1.5, None, [], {}, [[0]]]))
        elif kind == "bool":
            parent[key] = data.draw(st.booleans())
        else:
            parent[key] = data.draw(st.sampled_from([-1, 2**31, 2**63, 10**30]))
    return json.dumps(doc)


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _run_quietly(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["relation", "formula", "simulate"]), st.sampled_from("KD"),
       st.data())
def test_cli_exit_codes_on_random_files(snap1_2, agree1_2, command, mode, data):
    """Reading well-formed or mutated files, ``check --relation``, ``check
    --formula`` and ``simulate`` exit 0, 1 or 2 and print no traceback."""
    left, right = (serialize.model_to_json(r.model) for r in (snap1_2, agree1_2))
    dims = [len(left["facets"]), len(right["facets"])]
    cells = st.tuples(st.integers(0, dims[0] - 1), st.integers(0, dims[1] - 1)).map(list)
    relation = {"format": serialize.RELATION_FORMAT, "dims": dims,
                "pairs": data.draw(st.lists(cells, max_size=8), label="pairs")}
    formula = to_sexp(know(data.draw(st.integers(0, 1)), atom(0, data.draw(st.integers(0, 1)))))
    target = data.draw(st.sampled_from(
        {"relation": ["left", "right", "relation"], "formula": ["left", "formula"],
         "simulate": ["left", "right"]}[command]), label="mutated file")
    with tempfile.TemporaryDirectory() as tmp:
        files = {"left": left, "right": right, "relation": relation}
        paths = {}
        for name, doc in files.items():
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w", encoding="utf-8") as fh:
                fh.write(_mutated(doc, data) if name == target else json.dumps(doc))
        paths["formula"] = os.path.join(tmp, "phi.sexp")
        if target == "formula":
            cut = data.draw(st.integers(0, len(formula)), label="formula cut")
            formula = formula[:cut] + data.draw(st.sampled_from(["", ")", "(", "x", "2"]))
        with open(paths["formula"], "w", encoding="utf-8") as fh:
            fh.write(formula)
        argv = {"relation": ["check", "--left", paths["left"], "--right", paths["right"],
                             "--relation", paths["relation"], "--mode", mode],
                "formula": ["check", "--model", paths["left"], "--formula",
                            paths["formula"]],
                "simulate": ["simulate", "--left", paths["left"], "--right",
                             paths["right"], "--mode", mode]}[command]
        argv += ["-o", os.path.join(tmp, "out.json")]
        code, err = _run_quietly(argv)
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
