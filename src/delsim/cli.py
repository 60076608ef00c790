"""Command-line front end.

Every command reads/writes the JSON formats from :mod:`delsim.serialize` and
prints a single JSON document to stdout (or ``-o``), so commands compose in
pipelines. Relative paths resolve under ``$DELSIM_DIR`` when that is set.

Exit codes: 0 success (including "no obstruction"), 1 obstruction found,
2 usage, schema or file error, 3 internal error (a failed consistency check
or any other unexpected exception; reported in one line, without a
traceback).
"""

from __future__ import annotations

import argparse
import itertools
import os
import re
import sys
from typing import Iterable

import numpy as np

from . import serialize
from .case_is2 import (conflict_relation, conflict_report, explicit_sa2_relation,
                       location_violations)
from .errors import UsageError
from .generators import (DiGraph, agreement_action, agreement_run,
                         constant_true_protocol, domination_number,
                         knowall_action, snapshot_action, snapshot_run,
                         staircase_task)
from .logic import ModelTable, sexp_chunks
from .models import (ActionModel, Workspace, find_morphism, input_model,
                     product_update, standard_workspace)
from .obstruction import decide_obstruction
from .simulation import SimulationEngine, totality_witnesses

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _path(path: str) -> str:
    """The ``type=`` of every path option: a relative path resolves under
    ``$DELSIM_DIR`` when that is set, normalised (``.`` is the directory
    itself); ``-`` (stdin or stdout) stays."""
    base = os.environ.get("DELSIM_DIR")
    if base and path != "-" and not os.path.isabs(path):
        return os.path.normpath(os.path.join(base, path))
    return path


def _read(path: str, from_json=None):
    """The document at ``path`` (``-``: stdin): JSON read by ``from_json``,
    or without it a formula. Errors name the path read, or ``<stdin>``."""
    where, stream = ("<stdin>", sys.stdin) if path == "-" else (path, None)
    if from_json is None:
        return serialize.load_formula(where, stream=stream)
    return from_json(serialize.load_json(where, stream=stream), where=where)


def _one_place(args, inputs: tuple[str, ...] = (), outputs: dict | None = None) -> None:
    """Refuse a command line that would read stdin twice or write one place
    twice, before anything is read or written. At most one of the
    ``inputs`` options may be ``-`` (stdin): the second would find it
    consumed. No two ``outputs`` (label: path, where ``None`` and ``-`` are
    stdout) may resolve to the same place, files compared after
    :func:`os.path.realpath`: the later document would replace the
    earlier."""
    on_stdin = [f"--{o}" for o in inputs if getattr(args, o) == "-"]
    if len(on_stdin) > 1:
        raise UsageError(f"{', '.join(on_stdin)}: at most one input may read stdin (-)")
    placed: dict[str, str] = {}
    for label, path in (outputs or {}).items():
        place = "stdout" if path in (None, "-") else os.path.realpath(path)
        if place in placed:
            fix = "send one of them to a file" if place == "stdout" else "give them different files"
            raise UsageError(f"{placed[place]} and {label} would both write to {place}; {fix}")
        placed[place] = label


def _write(chunks: Iterable[str], path: str | None) -> None:
    """Write the texts ``chunks`` one after another to ``path`` (``None`` or
    ``-``: stdout)."""
    if path in (None, "-"):
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)


def _emit(payload: dict, out: str | None) -> None:
    _write([serialize.dumps(payload)], out)


def _values(text: str) -> list[int | str]:
    """Comma-separated value tokens: ASCII ``-?[0-9]+`` reads as an int,
    anything else as a string."""
    return [int(s) if re.fullmatch("-?[0-9]+", s) else s
            for s in (t.strip() for t in text.split(","))]


def _workspace_from_args(agents: str, values: str | None) -> Workspace:
    if re.fullmatch("[0-9]+", agents):
        names = tuple(f"p{i}" for i in range(int(agents)))
    else:
        names = tuple(s.strip() for s in agents.split(",") if s.strip())
    if not names:
        raise UsageError("--agents needs a count or a comma-separated name list")
    vals = tuple(range(len(names)) if values is None else _values(values))
    return Workspace(names, vals)


def _parse_inputs(text: str | None, ws: Workspace):
    if text is None:
        return None
    vals = _values(text)
    if len(vals) != ws.n_agents:
        raise UsageError(f"--inputs needs {ws.n_agents} values")
    return vals


# -- gen --------------------------------------------------------------------

def _cmd_gen(args) -> int:
    ws = _workspace_from_args(args.agents, args.values)
    if args.family == "input":
        doc = serialize.model_to_json(input_model(ws))
    else:
        doc = serialize.action_to_json(_gen_action(args, ws))
    _emit(doc, args.output)
    return EXIT_OK


def _gen_action(args, ws: Workspace) -> ActionModel:
    if args.family == "is":
        return snapshot_action(ws, args.rounds, _parse_inputs(args.inputs, ws)).action
    if args.family == "sa":
        return agreement_action(ws, args.k).action
    if args.family == "staircase":
        if args.protocol:
            return constant_true_protocol(ws)
        return staircase_task(args.max_decision).action
    graphs = []
    for edges in _read(args.graphs, serialize.graphs_from_json):
        loops = {(p, p) for p in range(ws.n_agents)} - edges
        if loops:
            print(f"note: added {len(loops)} missing self-loop(s)", file=sys.stderr)
        graphs.append(DiGraph(ws.n_agents, frozenset(edges | loops)))
    proto = knowall_action(ws, graphs, args.rounds)
    print(f"note: effective graph domination number = "
          f"{domination_number(proto.effective)}", file=sys.stderr)
    return proto.action


def _cmd_update(args) -> int:
    provenance = {f"--provenance {args.provenance}": args.provenance} if args.provenance else {}
    _one_place(args, ("action", "input"),
               {"the model (-o, default stdout)": args.output, **provenance})
    action = _read(args.action, serialize.action_from_json)
    if args.input == "default":
        model = input_model(action.workspace)
    else:
        model = _read(_path(args.input), serialize.model_from_json)
    result = product_update(model, action)
    _emit(serialize.model_to_json(result.model), args.output)
    if args.provenance:
        _emit(serialize.provenance_to_json(result.facet_sources), args.provenance)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    _one_place(args, ("left", "right"))
    left = _read(args.left, serialize.model_from_json)
    right = _read(args.right, serialize.model_from_json)
    chain = SimulationEngine(left, right).chain(args.mode)
    fix = chain.fixpoint
    _emit(serialize.relation_to_json(
        fix,
        mode=args.mode,
        stabilized_at=chain.stabilized_at,
        total=fix.is_total(),
        witnesses=totality_witnesses(fix),
        step_pairs=chain.step_sizes,
    ), args.output)
    return EXIT_OK


def _cmd_obstruct(args) -> int:
    phi = args.phi or _default_phi_path(args.output)
    _one_place(args, ("protocol", "task"),
               {f"--phi {phi}" if args.phi else f"the formula (--phi, default {phi})": phi,
                "the verdict (-o, default stdout)": args.output})
    protocol = _read(args.protocol, serialize.model_from_json)
    task = _read(args.task, serialize.model_from_json)
    verdict = decide_obstruction(protocol, task, args.mode)
    if verdict.exists:
        # φ goes out chunk by chunk as it is written, never whole
        _write(itertools.chain(sexp_chunks(verdict.phi, share=not args.expand), ["\n"]), phi)
    _emit({"format": serialize.VERDICT_FORMAT,
           **verdict.to_json(phi_file=phi if verdict.exists else None)}, args.output)
    return EXIT_OBSTRUCTION if verdict.exists else EXIT_OK


def _default_phi_path(output: str | None) -> str:
    """``<output>.sexp``, or ``obstruction.sexp`` when the verdict goes to
    stdout."""
    if output in (None, "-"):
        return _path("obstruction.sexp")
    return os.path.splitext(output)[0] + ".sexp"


def _cmd_check(args) -> int:
    _one_place(args, ("model", "formula", "left", "right", "relation"))
    if (args.formula is None) == (args.relation is None):
        raise UsageError("check needs exactly one of --formula / --relation")
    if args.formula is not None:
        if args.model is None:
            raise UsageError("--formula needs --model")
        model = _read(args.model, serialize.model_from_json)
        phi = _read(args.formula)
        table = ModelTable(model)
        if args.facet is not None:
            _emit({"facet": args.facet, "holds": table.check(args.facet, phi)},
                  args.output)
        else:
            vec = table.satisfies(phi)
            _emit({"holds_at": np.flatnonzero(vec).tolist(),
                   "fails_at": np.flatnonzero(~vec).tolist(),
                   "valid": bool(vec.all())}, args.output)
        return EXIT_OK
    if args.left is None or args.right is None:
        raise UsageError("--relation needs --left and --right")
    left = _read(args.left, serialize.model_from_json)
    right = _read(args.right, serialize.model_from_json)
    rel = _read(args.relation, serialize.relation_from_json)
    report = SimulationEngine(left, right).verify(rel, args.mode)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_morphism(args) -> int:
    _one_place(args, ("source", "target"))
    source = _read(args.source, serialize.model_from_json)
    target = _read(args.target, serialize.model_from_json)
    found = find_morphism(source, target)
    _emit(serialize.morphism_to_json(found), args.output)
    return EXIT_OK


def _cmd_case_is2(args) -> int:
    rpq_files = {f"{p},{q}": os.path.join(args.outdir, f"rpq_{p}{q}.json")
                 for p, q in itertools.combinations(range(3), 2)}
    _one_place(args, outputs={"the summary (-o, default stdout)": args.output,
                              **{f"the conflict dump {path}": path
                                 for path in rpq_files.values()}})
    ws = standard_workspace(3)
    inputs = (0, 0, 0) if args.single_input else None
    snap = snapshot_run(ws, 2, inputs)
    agree = agreement_run(ws, 2)

    os.makedirs(args.outdir, exist_ok=True)
    conflicts = {}
    for p, q in itertools.combinations(range(3), 2):
        rel = conflict_relation(snap, p, q)
        conflicts[(p, q)] = rel
        _emit(conflict_report(rel), rpq_files[f"{p},{q}"])

    location = {f"{p},{q}": len(location_violations(snap, rel))
                for (p, q), rel in conflicts.items()}
    explicit = explicit_sa2_relation(snap, agree, conflicts)
    engine = SimulationEngine(snap.model, agree.model)
    report = engine.verify(explicit, "D")
    verdict = decide_obstruction(snap.model, agree.model, "D")

    summary = {
        "single_input": bool(args.single_input),
        "protocol_facets": snap.model.n_facets,
        "task_facets": agree.model.n_facets,
        "conflict_layers": {f"{p},{q}": rel.layer_sizes()
                            for (p, q), rel in sorted(conflicts.items())},
        "location_violations": location,
        "explicit_relation": {"pairs": explicit.count, **report.to_json()},
        "fixpoint": {"n": verdict.n, "total": not verdict.exists,
                     "pairs": verdict.step_sizes[-1]},
        "obstruction_exists": verdict.exists,
        "rpq_files": rpq_files,
    }
    _emit(summary, args.output)
    return EXIT_OBSTRUCTION if verdict.exists else EXIT_OK


# -- parser -----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="delsim",
        description="Decide epistemic solvability of distributed tasks via "
                    "simulations over simplicial models.")
    sub = ap.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("-o", "--output", type=_path, default=None)

    gen = sub.add_parser("gen", help="generate models and action models")
    gsub = gen.add_subparsers(dest="family", required=True)
    for fam, extras in {
        "input": (),
        "is": ("rounds", "inputs"),
        "sa": ("k",),
        "knowall": ("rounds", "graphs"),
        "staircase": ("max_decision", "protocol"),
    }.items():
        g = gsub.add_parser(fam, parents=[out])
        if fam != "staircase":
            g.add_argument("--agents", required=True,
                           help="agent count or comma-separated names")
            g.add_argument("--values", default=None,
                           help="comma-separated input values (default: 0..n-1)")
        else:
            g.set_defaults(agents="2", values="0,1")
        if "rounds" in extras:
            g.add_argument("--rounds", type=int, required=True)
        if "inputs" in extras:
            g.add_argument("--inputs", default=None,
                           help="restrict to one input assignment (comma-separated)")
        if "k" in extras:
            g.add_argument("--k", type=int, required=True)
        if "graphs" in extras:
            g.add_argument("--graphs", type=_path, required=True,
                           help="JSON file: {'graphs': [{'edges': [[p,q],...]},...]}")
        if "max_decision" in extras:
            g.add_argument("--max-decision", type=int, default=4, dest="max_decision")
        if "protocol" in extras:
            g.add_argument("--protocol", action="store_true",
                           help="emit the do-nothing protocol instead of the task")
        g.set_defaults(func=_cmd_gen)

    up = sub.add_parser("update", parents=[out],
                        help="product-update a model with an action")
    up.add_argument("--action", type=_path, default="-",
                    help="action JSON (default: stdin)")
    up.add_argument("--input", default="default",
                    help="input model JSON, or 'default' for the full input model")
    up.add_argument("--provenance", type=_path, default=None,
                    help="also write facet provenance")
    up.set_defaults(func=_cmd_update)

    sim = sub.add_parser("simulate", parents=[out], help="maximum-simulation fixpoint")
    sim.add_argument("--left", type=_path, required=True)
    sim.add_argument("--right", type=_path, required=True)
    sim.add_argument("--mode", choices=("K", "D"), required=True)
    sim.set_defaults(func=_cmd_simulate)

    ob = sub.add_parser("obstruct", parents=[out],
                        help="decide and verify a logical obstruction")
    ob.add_argument("--protocol", type=_path, required=True)
    ob.add_argument("--task", type=_path, required=True)
    ob.add_argument("--mode", choices=("K", "D"), required=True)
    ob.add_argument("--phi", type=_path, default=None, help="where to write the formula")
    ob.add_argument("--expand", action="store_true",
                    help="write the formula as a tree instead of a shared DAG")
    ob.set_defaults(func=_cmd_obstruct)

    ck = sub.add_parser("check", parents=[out],
                        help="model-check a formula, or verify a relation")
    ck.add_argument("--model", type=_path, default=None)
    ck.add_argument("--formula", type=_path, default=None)
    ck.add_argument("--facet", type=int, default=None)
    ck.add_argument("--left", type=_path, default=None)
    ck.add_argument("--right", type=_path, default=None)
    ck.add_argument("--relation", type=_path, default=None)
    ck.add_argument("--mode", choices=("K", "D"), default="K")
    ck.set_defaults(func=_cmd_check)

    mo = sub.add_parser("morphism", parents=[out], help="search for a model morphism")
    mo.add_argument("--source", type=_path, required=True)
    mo.add_argument("--target", type=_path, required=True)
    mo.set_defaults(func=_cmd_morphism)

    cs = sub.add_parser("case-is2", parents=[out],
                        help="two-round snapshot vs 2-set agreement case study")
    cs.add_argument("--single-input", action="store_true",
                    help="restrict to the all-zero input (figure scale)")
    cs.add_argument("--outdir", type=_path, default=".",
                    help="directory for conflict dumps")
    cs.set_defaults(func=_cmd_case_is2)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except (UsageError, OSError) as e:  # OSError: an output path the user gave
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as e:  # exit 1 must only ever mean "obstruction found"
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
