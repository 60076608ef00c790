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

from conftest import python

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


@pytest.mark.parametrize("text", [
    "[" * 100000 + "]" * 100000,
    json.dumps(_two_agent_model()).replace('"id": 0', '"id": ' + "1" * 5000, 1),
], ids=["nested-past-the-recursion-limit", "id-past-the-int-digit-limit"])
def test_json_the_parser_refuses_is_schema_error(tmp_path, capsys, text):
    """JSON that Python's parser refuses with a RecursionError or a
    ValueError (its 4300-digit int limit) exits 2 naming the file."""
    model = tmp_path / "m.json"
    model.write_text(text)
    assert run_cli(["simulate", "--left", str(model), "--right", str(model),
                    "--mode", "K"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {model}: invalid JSON ") and err.count("\n") == 1


def test_update_writes_a_vertex_with_int_and_str_atoms(tmp_path):
    """One vertex may carry an int and a str value of its agent: the writer
    orders its atoms ints first rather than comparing an int with a str."""
    doc = {"format": "delsim-model/1", "agents": ["p0", "p1"], "values": [0, "a"],
           "vertices": [{"id": 0, "color": 0, "atoms": [[0, 0], [0, "a"]]},
                        {"id": 1, "color": 1, "atoms": [[1, 0]]}],
           "facets": [[0, 1]]}
    mixed, action, out = (tmp_path / name for name in ("mixed.json", "is.json", "out.json"))
    mixed.write_text(json.dumps(doc))
    assert run_cli(["gen", "is", "--agents", "2", "--values", "0,a", "--rounds", "1",
                    "-o", str(action)]) == 0
    assert run_cli(["update", "--input", str(mixed), "--action", str(action),
                    "-o", str(out)]) == 0
    written = read(out)
    assert serialize.model_to_json(serialize.model_from_json(written)) == written
    assert [[0, 0], [0, "a"]] in [v["atoms"] for v in written["vertices"]]


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


@pytest.mark.parametrize("text, length", [
    ("(atom 0 " + "1" * 5000 + ")", 5000),
    ("(K " + "1" * 5000 + " (atom 0 0))", 5000),
    ("(not " + "x" * 5000 + ")", 5000),
    # 4000 digits read as an int, so the errors come after the reader, from
    # the atom's workspace check, the agent check and the D group's classes
    ("(atom 0 " + "1" * 4000 + ")", 4005),
    ("(atom " + "1" * 4000 + " 0)", 4005),
    ("(K -" + "1" * 4000 + " (atom 0 0))", 4001),
    ("(D (0 " + "1" * 4000 + ") (atom 0 0))", 4000),
], ids=["atom-value", "k-agent", "unbound-name", "atom-value-outside",
        "atom-agent-outside", "k-agent-negative", "d-agent-out-of-range"])
def test_a_long_bad_token_gives_a_short_error(consensus_files, tmp_path, capsys,
                                              text, length):
    """A formula whose bad token or value is thousands of characters long
    exits 2 with one error line that quotes only its start and its
    length."""
    (tmp_path / "phi.sexp").write_text(text)
    assert run_cli(["check", "--model", str(consensus_files["task"]),
                    "--formula", str(tmp_path / "phi.sexp")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200, err
    assert f"({length} characters)" in err, err


@pytest.mark.parametrize("bad", ["model", "formula"])
def test_non_utf8_file_is_usage_error(consensus_files, tmp_path, capsys, bad):
    """A model or formula file that is not UTF-8 is a file error (exit 2)
    that names the file, not an internal error."""
    files = {"model": str(consensus_files["task"]), "formula": str(tmp_path / "phi.sexp")}
    (tmp_path / "phi.sexp").write_text("(atom 0 0)\n")
    files[bad] = str(tmp_path / f"bad.{bad}")
    with open(files[bad], "wb") as fh:
        fh.write(b"\xff(atom 0 0)\n")
    assert run_cli(["check", "--model", files["model"], "--formula", files["formula"]]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {files[bad]}: not UTF-8 ") and err.count("\n") == 1


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
        proc = subprocess.run(python("-c", script, json.dumps(PIPELINE)),
                              cwd=work, env=env, capture_output=True, text=True)
        assert json.loads(proc.stdout) == [0] * 6 + [1, 1, 0, 0], proc.stderr
        outputs.append({f.name: f.read_bytes() for f in sorted(work.iterdir())})
    assert len(outputs[0]) == 12
    assert outputs[0] == outputs[1]


def test_env_var_resolves_relative_paths(tmp_path, monkeypatch, capsys):
    """With ``$DELSIM_DIR`` set, every relative path, the default formula
    file and ``case-is2 --outdir`` included, resolves under it, so
    ``obstruct`` then ``check --formula`` works from relative paths alone
    and nothing lands in the working directory."""
    base, cwd = tmp_path / "d", tmp_path / "cwd"
    base.mkdir()
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    monkeypatch.setenv("DELSIM_DIR", str(base))
    assert run_cli(["gen", "input", "--agents", "2", "-o", "m.json"]) == 0
    assert run_cli(["simulate", "--left", "m.json", "--right", "m.json",
                    "--mode", "D", "-o", "sim.json"]) == 0
    assert read(base / "sim.json")["total"] is True
    for argv, code in [
        (["gen", "is", "--agents", "2", "--rounds", "1", "-o", "is.json"], 0),
        (["gen", "sa", "--agents", "2", "--k", "1", "-o", "sa.json"], 0),
        (["update", "--action", "is.json", "--provenance", "prov.json",
          "-o", "proto.json"], 0),
        (["update", "--action", "sa.json", "-o", "task.json"], 0),
        (["obstruct", "--protocol", "proto.json", "--task", "task.json",
          "--mode", "K"], 1),
        (["check", "--model", "task.json", "--formula", "obstruction.sexp",
          "-o", "chk.json"], 0),
        (["simulate", "--left", "proto.json", "--right", "task.json",
          "--mode", "K", "-o", "rel.json"], 0),
        (["check", "--left", "proto.json", "--right", "task.json",
          "--relation", "rel.json", "-o", "rep.json"], 0),
        (["morphism", "--source", "proto.json", "--target", "task.json",
          "-o", "mor.json"], 0),
        (["case-is2", "--single-input", "--outdir", "out", "-o", "case.json"], 0),
    ]:
        assert run_cli(argv) == code, (argv, capsys.readouterr().err)
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["phi_file"] == str(base / "obstruction.sexp")
    assert read(base / "chk.json")["valid"] is True
    assert read(base / "rep.json")["forth_ok"] is True
    assert all(path.startswith(str(base / "out"))
               for path in read(base / "case.json")["rpq_files"].values())
    assert sorted(p.relative_to(base).as_posix() for p in base.rglob("*")) == [
        "case.json", "chk.json", "is.json", "m.json", "mor.json",
        "obstruction.sexp", "out", "out/rpq_01.json", "out/rpq_02.json",
        "out/rpq_12.json", "proto.json", "prov.json", "rel.json", "rep.json",
        "sa.json", "sim.json", "task.json"]
    assert list(cwd.iterdir()) == []


def test_env_var_paths_are_normalised(tmp_path, monkeypatch, capsys):
    """A relative path joined under ``$DELSIM_DIR`` is normalised, so
    ``case-is2``'s default ``--outdir .`` reports its files in the directory
    itself, not under ``./``."""
    base = tmp_path / "d"
    base.mkdir()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("DELSIM_DIR", str(base))
    assert cli._path("./out/../m.json") == str(base / "m.json")
    assert cli._path("-") == "-"
    assert run_cli(["case-is2", "--single-input"]) == 0
    assert json.loads(capsys.readouterr().out)["rpq_files"] == {
        f"{p},{q}": str(base / f"rpq_{p}{q}.json") for p, q in ((0, 1), (0, 2), (1, 2))}


@pytest.mark.parametrize("output", [[], ["-o", "-"]])
def test_formula_and_verdict_cannot_share_stdout(consensus_files, capsys, output):
    """``--phi -`` with the verdict on stdout would write two documents
    there: a usage error naming both, before any work or output."""
    code = run_cli(["obstruct", "--protocol", str(consensus_files["proto"]),
                    "--task", str(consensus_files["task"]), "--mode", "K",
                    "--phi", "-", *output])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --phi - and the verdict (-o") and "stdout" in err


@pytest.mark.parametrize("argv, named", [
    (["update", "--input", "-"], "--action, --input"),  # --action defaults to -
    (["check", "--model", "-", "--formula", "-"], "--model, --formula"),
    (["check", "--left", "-", "--right", "-", "--relation", "-"],
     "--left, --right, --relation"),
    (["simulate", "--left", "-", "--right", "-", "--mode", "K"], "--left, --right"),
    (["obstruct", "--protocol", "-", "--task", "-", "--mode", "D"], "--protocol, --task"),
    (["morphism", "--source", "-", "--target", "-"], "--source, --target")],
    ids=["update", "check-formula", "check-relation", "simulate", "obstruct", "morphism"])
def test_two_inputs_cannot_share_stdin(monkeypatch, capsys, argv, named):
    """Stdin can be read once: two input options given as ``-`` are a usage
    error naming them, before anything is read."""
    stdin = io.StringIO("{}")
    monkeypatch.setattr(sys, "stdin", stdin)
    assert run_cli(argv) == 2
    assert stdin.tell() == 0
    assert capsys.readouterr() == ("", f"error: {named}: at most one input may read stdin (-)\n")


@pytest.mark.parametrize("case", ["obstruct-default-phi", "obstruct-phi", "update",
                                  "update-stdout", "case-is2"])
def test_two_outputs_cannot_share_a_place(consensus_files, tmp_path, monkeypatch, capsys,
                                          case):
    """Two outputs of one command that resolve to the same file, however
    spelled, or both to stdout, are a usage error naming both, before any
    work or output: the later document would replace the earlier."""
    monkeypatch.chdir(tmp_path)
    proto, task = str(consensus_files["proto"]), str(consensus_files["task"])
    is1 = str(consensus_files["dir"] / "is1.json")
    obstruct = ["obstruct", "--protocol", proto, "--task", task, "--mode", "K"]
    argv, place, first, second = {
        # -o X.sexp: the formula's default file is X.sexp too
        "obstruct-default-phi": ([*obstruct, "-o", "v.sexp"], "v.sexp",
                                 "the formula (--phi, default v.sexp)",
                                 "the verdict (-o, default stdout)"),
        "obstruct-phi": ([*obstruct, "--phi", "w.json", "-o", "./w.json"], "w.json",
                         "--phi w.json", "the verdict (-o, default stdout)"),
        "update": (["update", "--action", is1, "-o", "m.json", "--provenance", "./m.json"],
                   "m.json", "the model (-o, default stdout)", "--provenance ./m.json"),
        "update-stdout": (["update", "--action", is1, "--provenance", "-"], None,
                          "the model (-o, default stdout)", "--provenance -"),
        "case-is2": (["case-is2", "--single-input", "--outdir", "out",
                      "-o", "out/../out/rpq_01.json"], "out/rpq_01.json",
                     "the summary (-o, default stdout)", "the conflict dump out/rpq_01.json"),
    }[case]
    before = sorted(os.listdir(tmp_path))
    assert run_cli(argv) == 2
    where, fix = ("stdout", "send one of them to a file") if place is None else \
        (os.path.realpath(place), "give them different files")
    assert capsys.readouterr() == (
        "", f"error: {first} and {second} would both write to {where}; {fix}\n")
    assert sorted(os.listdir(tmp_path)) == before


def test_one_input_may_be_given_twice(consensus_files, tmp_path):
    """Only outputs must be distinct: one file read as both models is fine."""
    task = str(consensus_files["task"])
    assert run_cli(["simulate", "--left", task, "--right", "./" + os.path.relpath(task),
                    "--mode", "K", "-o", str(tmp_path / "sim.json")]) == 0
    assert read(tmp_path / "sim.json")["total"] is True


def test_formula_on_stdin_is_read_like_every_input(consensus_files, monkeypatch, capsys):
    """``check --formula -`` reads stdin through the one text reader: a
    formula there is checked, and a byte that a strict decoder rejects is a
    file error naming ``<stdin>`` (exit 2), not an internal error."""
    task = str(consensus_files["task"])
    monkeypatch.setattr(sys, "stdin", io.StringIO("(atom 0 0)\n"))
    assert run_cli(["check", "--model", task, "--formula", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is False
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"\xff(atom 0 0)\n"),
                                                       encoding="utf-8", errors="strict"))
    assert run_cli(["check", "--model", task, "--formula", "-"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: <stdin>: not UTF-8 ") and err.count("\n") == 1


def test_stdin_is_read_as_utf8_whatever_the_locale(consensus_files):
    """A byte on stdin that is not UTF-8 is a file error naming ``<stdin>``
    (exit 2), as it is in a file, also under C.UTF-8, whose stdin decoder
    would pass it through as a surrogate."""
    text = (consensus_files["dir"] / "is1.json").read_bytes().replace(b'"p0"', b'"p\xff"')
    env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
    proc = subprocess.run(python("-m", "delsim", "update", "--action", "-"), input=text,
                          capture_output=True, env={**env, "LC_ALL": "C.UTF-8"})
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(b"error: <stdin>: not UTF-8 ")


def test_stdin_errors_name_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO("{}"))
    assert run_cli(["update", "--action", "-"]) == 2
    assert capsys.readouterr().err == "error: <stdin>: missing key 'agents'\n"


def test_stdin_stdout_pipeline(consensus_files, capsys, monkeypatch):
    import io
    is1 = (consensus_files["dir"] / "is1.json").read_text()
    monkeypatch.setattr(sys, "stdin", io.StringIO(is1))
    assert run_cli(["update", "--action", "-"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["facets"]) == 12


def test_console_script_runs():
    proc = subprocess.run(python("-m", "delsim", "gen", "input", "--agents", "2"), capture_output=True, text=True)
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
