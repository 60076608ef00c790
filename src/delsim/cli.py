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

import numpy as np

from . import serialize
from .case_is2 import (conflict_relation, conflict_report, explicit_sa2_relation,
                       location_violations)
from .errors import UsageError
from .generators import (DiGraph, agreement_action, agreement_run,
                         constant_true_protocol, domination_number,
                         knowall_action, snapshot_action, snapshot_run,
                         staircase_task, standard_two_bit_workspace)
from .logic import ModelTable, from_sexp, to_sexp
from .models import (Workspace, find_morphism, input_model, product_update,
                     standard_workspace)
from .obstruction import decide_obstruction
from .simulation import SimulationEngine, totality_witnesses

EXIT_OK = 0
EXIT_OBSTRUCTION = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _resolve(path: str | None) -> str | None:
    if path in (None, "-"):
        return path
    base = os.environ.get("DELSIM_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(payload: dict, out: str | None) -> None:
    text = serialize.dumps(payload)
    out = _resolve(out)
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _load_json_arg(path: str) -> dict:
    path = _resolve(path)
    if path == "-":
        return serialize.load_json("<stdin>", stream=sys.stdin)
    return serialize.load_json(path)


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
        _emit(serialize.model_to_json(input_model(ws)), args.output)
    elif args.family == "is":
        proto = snapshot_action(ws, args.rounds, _parse_inputs(args.inputs, ws))
        _emit(serialize.action_to_json(proto.action), args.output)
    elif args.family == "sa":
        task = agreement_action(ws, args.k)
        _emit(serialize.action_to_json(task.action), args.output)
    elif args.family == "knowall":
        graphs = []
        for edges in serialize.graphs_from_json(_load_json_arg(args.graphs),
                                                where=args.graphs):
            loops = {(p, p) for p in range(ws.n_agents)} - edges
            if loops:
                print(f"note: added {len(loops)} missing self-loop(s)", file=sys.stderr)
            graphs.append(DiGraph(ws.n_agents, frozenset(edges | loops)))
        proto = knowall_action(ws, graphs, args.rounds)
        print(f"note: effective graph domination number = "
              f"{domination_number(proto.effective)}", file=sys.stderr)
        _emit(serialize.action_to_json(proto.action), args.output)
    elif args.family == "staircase":
        if args.protocol:
            _emit(serialize.action_to_json(
                constant_true_protocol(standard_two_bit_workspace())), args.output)
        else:
            task = staircase_task(args.max_decision)
            _emit(serialize.action_to_json(task.action), args.output)
    else:
        raise UsageError(f"unknown family {args.family!r}")
    return EXIT_OK


def _cmd_update(args) -> int:
    action = serialize.action_from_json(_load_json_arg(args.action),
                                        where=args.action)
    if args.input == "default":
        model = input_model(action.workspace)
    else:
        model = serialize.model_from_json(_load_json_arg(args.input), where=args.input)
    result = product_update(model, action)
    _emit(serialize.model_to_json(result.model), args.output)
    if args.provenance:
        _emit(serialize.provenance_to_json(result.facet_sources), args.provenance)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    left = serialize.model_from_json(_load_json_arg(args.left), where=args.left)
    right = serialize.model_from_json(_load_json_arg(args.right), where=args.right)
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
    protocol = serialize.model_from_json(_load_json_arg(args.protocol), where=args.protocol)
    task = serialize.model_from_json(_load_json_arg(args.task), where=args.task)
    verdict = decide_obstruction(protocol, task, args.mode)
    phi_file = None
    if verdict.exists:
        phi_file = _resolve(args.phi) or _default_phi_path(args.output)
        text = to_sexp(verdict.phi, share=not args.expand)
        if phi_file == "-":
            sys.stdout.write(text + "\n")
        else:
            with open(phi_file, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
    _emit({"format": serialize.VERDICT_FORMAT,
           **verdict.to_json(phi_file=phi_file)}, args.output)
    return EXIT_OBSTRUCTION if verdict.exists else EXIT_OK


def _default_phi_path(output: str | None) -> str:
    out = _resolve(output)
    if out in (None, "-"):
        return "obstruction.sexp"
    root, _ = os.path.splitext(out)
    return root + ".sexp"


def _cmd_check(args) -> int:
    if (args.formula is None) == (args.relation is None):
        raise UsageError("check needs exactly one of --formula / --relation")
    if args.formula is not None:
        if args.model is None:
            raise UsageError("--formula needs --model")
        model = serialize.model_from_json(_load_json_arg(args.model), where=args.model)
        path = _resolve(args.formula)
        if path == "-":
            phi = from_sexp(sys.stdin.read())
        else:
            phi = serialize.load_formula(path)
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
    left = serialize.model_from_json(_load_json_arg(args.left), where=args.left)
    right = serialize.model_from_json(_load_json_arg(args.right), where=args.right)
    rel = serialize.relation_from_json(_load_json_arg(args.relation), where=args.relation)
    report = SimulationEngine(left, right).verify(rel, args.mode)
    _emit(report.to_json(), args.output)
    return EXIT_OK


def _cmd_morphism(args) -> int:
    source = serialize.model_from_json(_load_json_arg(args.source), where=args.source)
    target = serialize.model_from_json(_load_json_arg(args.target), where=args.target)
    found = find_morphism(source, target)
    _emit(serialize.morphism_to_json(found), args.output)
    return EXIT_OK


def _cmd_case_is2(args) -> int:
    ws = standard_workspace(3)
    inputs = (0, 0, 0) if args.single_input else None
    snap = snapshot_run(ws, 2, inputs)
    agree = agreement_run(ws, 2)

    outdir = _resolve(args.outdir) or "."
    os.makedirs(outdir, exist_ok=True)
    conflicts = {}
    rpq_files = {}
    for p, q in itertools.combinations(range(3), 2):
        rel = conflict_relation(snap, p, q)
        conflicts[(p, q)] = rel
        path = os.path.join(outdir, f"rpq_{p}{q}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize.dumps(conflict_report(rel)))
        rpq_files[f"{p},{q}"] = path

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

    gen = sub.add_parser("gen", help="generate models and action models")
    gsub = gen.add_subparsers(dest="family", required=True)
    for fam, extras in {
        "input": (),
        "is": ("rounds", "inputs"),
        "sa": ("k",),
        "knowall": ("rounds", "graphs"),
        "staircase": ("max_decision", "protocol"),
    }.items():
        g = gsub.add_parser(fam)
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
            g.add_argument("--graphs", required=True,
                           help="JSON file: {'graphs': [{'edges': [[p,q],...]},...]}")
        if "max_decision" in extras:
            g.add_argument("--max-decision", type=int, default=4, dest="max_decision")
        if "protocol" in extras:
            g.add_argument("--protocol", action="store_true",
                           help="emit the do-nothing protocol instead of the task")
        g.add_argument("-o", "--output", default=None)
        g.set_defaults(func=_cmd_gen)

    up = sub.add_parser("update", help="product-update a model with an action")
    up.add_argument("--action", default="-", help="action JSON (default: stdin)")
    up.add_argument("--input", default="default",
                    help="input model JSON, or 'default' for the full input model")
    up.add_argument("--provenance", default=None, help="also write facet provenance")
    up.add_argument("-o", "--output", default=None)
    up.set_defaults(func=_cmd_update)

    sim = sub.add_parser("simulate", help="maximum-simulation fixpoint")
    sim.add_argument("--left", required=True)
    sim.add_argument("--right", required=True)
    sim.add_argument("--mode", choices=("K", "D"), required=True)
    sim.add_argument("-o", "--output", default=None)
    sim.set_defaults(func=_cmd_simulate)

    ob = sub.add_parser("obstruct", help="decide and verify a logical obstruction")
    ob.add_argument("--protocol", required=True)
    ob.add_argument("--task", required=True)
    ob.add_argument("--mode", choices=("K", "D"), required=True)
    ob.add_argument("--phi", default=None, help="where to write the formula")
    ob.add_argument("--expand", action="store_true",
                    help="write the formula as a tree instead of a shared DAG")
    ob.add_argument("-o", "--output", default=None)
    ob.set_defaults(func=_cmd_obstruct)

    ck = sub.add_parser("check", help="model-check a formula, or verify a relation")
    ck.add_argument("--model", default=None)
    ck.add_argument("--formula", default=None)
    ck.add_argument("--facet", type=int, default=None)
    ck.add_argument("--left", default=None)
    ck.add_argument("--right", default=None)
    ck.add_argument("--relation", default=None)
    ck.add_argument("--mode", choices=("K", "D"), default="K")
    ck.add_argument("-o", "--output", default=None)
    ck.set_defaults(func=_cmd_check)

    mo = sub.add_parser("morphism", help="search for a model morphism")
    mo.add_argument("--source", required=True)
    mo.add_argument("--target", required=True)
    mo.add_argument("-o", "--output", default=None)
    mo.set_defaults(func=_cmd_morphism)

    cs = sub.add_parser("case-is2",
                        help="two-round snapshot vs 2-set agreement case study")
    cs.add_argument("--single-input", action="store_true",
                    help="restrict to the all-zero input (figure scale)")
    cs.add_argument("--outdir", default=".", help="directory for conflict dumps")
    cs.add_argument("-o", "--output", default=None)
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
