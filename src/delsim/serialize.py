"""File formats: models, action models, relations, morphisms, verdicts.

All writers emit canonical JSON (sorted keys, fixed indentation) with a
``format`` version header, so identical inputs produce byte-identical files.
Readers validate shape and report failures with file and JSON-path context.
"""

from __future__ import annotations

import json
from typing import IO, Any

from .complexes import ChromaticComplex, Vertex
from .errors import SchemaError
from .logic import Formula, from_sexp, to_sexp
from .models import ActionModel, Morphism, SimplicialModel, Workspace
from .simulation import Relation

MODEL_FORMAT = "delsim-model/1"
ACTION_FORMAT = "delsim-action/1"
RELATION_FORMAT = "delsim-relation/1"
MORPHISM_FORMAT = "delsim-morphism/1"
VERDICT_FORMAT = "delsim-verdict/1"
PROVENANCE_FORMAT = "delsim-provenance/1"


def dumps(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def _ctx(where: str, path: str) -> str:
    return f"{where}: {path}" if where else path


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(_ctx(where, f"missing key {key!r}"))
    return d[key]


def _check_value(v, where: str, path: str):
    if isinstance(v, bool) or not isinstance(v, (int, str)):
        raise SchemaError(_ctx(where, f"{path}: values must be int or str, got {v!r}"))
    return v


# -- models -----------------------------------------------------------------

def model_to_json(m: SimplicialModel) -> dict:
    return {
        "format": MODEL_FORMAT,
        "agents": list(m.workspace.agents),
        "values": list(m.workspace.values),
        "vertices": [
            {"id": v.id, "color": v.color,
             "atoms": sorted([[a, val] for (a, val) in v.atoms])}
            for v in m.complex.vertices
        ],
        "facets": [list(f.vertices) for f in m.complex.facets],
    }


def _workspace_from_json(d: dict, where: str) -> Workspace:
    agents = _need(d, "agents", where)
    values = _need(d, "values", where)
    if not isinstance(agents, list) or not all(isinstance(a, str) for a in agents):
        raise SchemaError(_ctx(where, "agents: expected a list of names"))
    if not isinstance(values, list):
        raise SchemaError(_ctx(where, "values: expected a list"))
    for i, v in enumerate(values):
        _check_value(v, where, f"values[{i}]")
    return Workspace(tuple(agents), tuple(values))


def _complex_from_json(d: dict, n_agents: int, where: str) -> ChromaticComplex:
    raw_vertices = _need(d, "vertices", where)
    raw_facets = _need(d, "facets", where)
    if not isinstance(raw_vertices, list) or not isinstance(raw_facets, list):
        raise SchemaError(_ctx(where, "vertices/facets must be lists"))
    ordered: dict[int, Vertex] = {}
    for i, rv in enumerate(raw_vertices):
        path = f"vertices[{i}]"
        if not isinstance(rv, dict):
            raise SchemaError(_ctx(where, f"{path}: expected an object"))
        vid = _need(rv, "id", f"{where}:{path}" if where else path)
        color = _need(rv, "color", f"{where}:{path}" if where else path)
        atoms = rv.get("atoms", [])
        if not isinstance(vid, int) or not isinstance(color, int):
            raise SchemaError(_ctx(where, f"{path}: id and color must be ints"))
        if not isinstance(atoms, list):
            raise SchemaError(_ctx(where, f"{path}.atoms: expected a list"))
        pairs = set()
        for k, pair in enumerate(atoms):
            if not (isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], int)):
                raise SchemaError(_ctx(where, f"{path}.atoms[{k}]: expected [agent, value]"))
            pairs.add((pair[0], _check_value(pair[1], where, f"{path}.atoms[{k}]")))
        if vid in ordered:
            raise SchemaError(_ctx(where, f"{path}: duplicate vertex id {vid}"))
        ordered[vid] = Vertex(id=vid, color=color, atoms=frozenset(pairs))
    if sorted(ordered) != list(range(len(ordered))):
        raise SchemaError(_ctx(where, "vertex ids must be dense 0..n-1"))
    vertices = [ordered[i] for i in range(len(ordered))]
    for i, rf in enumerate(raw_facets):
        if not (isinstance(rf, list) and all(isinstance(v, int) for v in rf)):
            raise SchemaError(_ctx(where, f"facets[{i}]: expected a list of vertex ids"))
        for v in rf:
            if not 0 <= v < len(vertices):
                raise SchemaError(_ctx(where, f"facets[{i}]: unknown vertex {v}"))
    return ChromaticComplex(n_agents, vertices, raw_facets)


def model_from_json(d: dict, where: str = "") -> SimplicialModel:
    if not isinstance(d, dict):
        raise SchemaError(_ctx(where, "expected a JSON object"))
    ws = _workspace_from_json(d, where)
    cx = _complex_from_json(d, ws.n_agents, where)
    try:
        return SimplicialModel(ws, cx)
    except Exception as e:
        raise SchemaError(_ctx(where, str(e))) from e


def action_to_json(a: ActionModel) -> dict:
    d = {
        "format": ACTION_FORMAT,
        "agents": list(a.workspace.agents),
        "values": list(a.workspace.values),
        "vertices": [{"id": v.id, "color": v.color, "atoms": []}
                     for v in a.complex.vertices],
        "facets": [list(f.vertices) for f in a.complex.facets],
        "pre": {str(i): to_sexp(p) for i, p in enumerate(a.pre)},
    }
    return d


def action_from_json(d: dict, where: str = "") -> ActionModel:
    if not isinstance(d, dict):
        raise SchemaError(_ctx(where, "expected a JSON object"))
    ws = _workspace_from_json(d, where)
    cx = _complex_from_json(d, ws.n_agents, where)
    raw_pre = _need(d, "pre", where)
    if not isinstance(raw_pre, dict):
        raise SchemaError(_ctx(where, "pre: expected an object facet-index -> formula"))
    pre: list[Formula] = []
    for i in range(cx.n_facets):
        if str(i) not in raw_pre:
            raise SchemaError(_ctx(where, f"pre: missing precondition for facet {i}"))
        try:
            pre.append(from_sexp(raw_pre[str(i)]))
        except Exception as e:
            raise SchemaError(_ctx(where, f"pre[{i}]: {e}")) from e
    try:
        return ActionModel(ws, cx, pre)
    except Exception as e:
        raise SchemaError(_ctx(where, str(e))) from e


# -- relations, morphisms, provenance ---------------------------------------

def relation_to_json(r: Relation, **extra: Any) -> dict:
    d = {"format": RELATION_FORMAT,
         "dims": list(r.dims),
         "pairs": [list(p) for p in r.pairs()]}
    d.update(extra)
    return d


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def relation_from_json(d: dict, where: str = "") -> Relation:
    if not isinstance(d, dict):
        raise SchemaError(_ctx(where, "expected a JSON object"))
    dims = _need(d, "dims", where)
    pairs = _need(d, "pairs", where)
    if not (isinstance(dims, list) and len(dims) == 2
            and all(_is_index(x) and x >= 0 for x in dims)):
        raise SchemaError(_ctx(where, "dims: expected [rows, cols]"))
    if not isinstance(pairs, list):
        raise SchemaError(_ctx(where, "pairs: expected a list"))
    for i, p in enumerate(pairs):
        if not (isinstance(p, list) and len(p) == 2 and all(map(_is_index, p))):
            raise SchemaError(_ctx(where, f"pairs[{i}]: expected [left, right]"))
        if not (0 <= p[0] < dims[0] and 0 <= p[1] < dims[1]):
            raise SchemaError(_ctx(where, f"pairs[{i}]: outside dims {dims}"))
    return Relation.from_pairs((dims[0], dims[1]), pairs)


def graphs_from_json(d: dict, where: str = "") -> list[set[tuple[int, int]]]:
    """The edge sets of ``{"graphs": [{"edges": [[p, q], ...]}, ...]}``; a
    graph may leave out ``edges``."""
    graphs = d.get("graphs") if isinstance(d, dict) else None
    if not isinstance(graphs, list) or not graphs:
        raise SchemaError(_ctx(where, "expected {'graphs': [{'edges': ...}, ...]}"))
    out = []
    for i, g in enumerate(graphs):
        edges = g.get("edges", []) if isinstance(g, dict) else None
        if not isinstance(edges, list):
            raise SchemaError(_ctx(where, f"graphs[{i}]: expected {{'edges': [[p, q], ...]}}"))
        for k, e in enumerate(edges):
            if not (isinstance(e, list) and len(e) == 2 and all(map(_is_index, e))):
                raise SchemaError(_ctx(where, f"graphs[{i}].edges[{k}]: expected [p, q]"))
        out.append({(p, q) for p, q in edges})
    return out


def morphism_to_json(found: Morphism | None) -> dict:
    return {"format": MORPHISM_FORMAT,
            "found": found is not None,
            "vmap": None if found is None else [list(p) for p in enumerate(found.vmap)]}


def provenance_to_json(facet_sources: list[tuple[int, int]]) -> dict:
    return {"format": PROVENANCE_FORMAT,
            "facets": [{"facet": i, "source": s, "action": t}
                       for i, (s, t) in enumerate(facet_sources)]}


# -- file helpers -----------------------------------------------------------

def load_json(path: str, stream: IO | None = None) -> dict:
    try:
        if stream is not None:
            return json.load(stream)
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON ({e})") from e
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from e


def load_model(path: str) -> SimplicialModel:
    return model_from_json(load_json(path), where=path)


def load_formula(path: str) -> Formula:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return from_sexp(fh.read())
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from e
