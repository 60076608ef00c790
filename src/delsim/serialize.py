"""File formats: models, action models, relations, morphisms, verdicts.

All writers emit canonical JSON (sorted keys, fixed indentation) with a
``format`` version header, so identical inputs produce byte-identical files.
Readers validate shape and report failures with file and JSON-path context.
"""

from __future__ import annotations

import itertools
import json
from typing import IO, Any

import numpy as np

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
    """``json.dumps(payload, sort_keys=True, indent=1) + "\\n"``, written
    without the standard library's pure-Python indenting encoder.

    Lists of ints and lists of int lists (facets, atoms) are written by one
    join or one ``%`` format each, and so is a 2-D int array (relation
    pairs), as its list of rows; any other scalar or shape that
    :func:`_write` does not handle goes to ``json.dumps`` itself.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# the types json writes as arrays
_SEQUENCES = frozenset({list, tuple})


def _write(o, nl: str, out: list[str]) -> None:
    """Append ``o`` as indented JSON; ``nl`` is a newline and the indent of
    the line that ``o`` starts on."""
    if type(o) is str:
        out.append(_encode_str(o))
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif type(o) in (list, tuple) and o:
        inner = nl + " "
        text = _int_lists(o, nl)
        if text is not None:
            out.append(text)
            return
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif type(o) is np.ndarray and o.ndim == 2 and o.dtype.kind in "iu":
        out.append(_rows(o.ravel().tolist(), [o.shape[1]] * len(o), nl) if len(o) else "[]")
    elif type(o) is dict and o and set(map(type, o)) == {str}:
        inner = nl + " "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            out.append(sep + _encode_str(key) + ": ")
            _write(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(o, sort_keys=True, indent=1).replace("\n", nl))


def _int_lists(items, nl: str) -> str | None:
    """The nonempty list ``items`` as indented JSON when it holds only ints
    or only lists of ints (ragged allowed); else None."""
    inner = nl + " "
    if set(map(type, items)) == {int}:
        return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + nl + "]"
    flat = _flat_ints(items, row_types=_SEQUENCES)
    return None if flat is None else _rows(flat, list(map(len, items)), nl)


def _rows(flat: list[int], lengths: list[int], nl: str) -> str:
    """The int rows of the given lengths, read in order from ``flat``, as
    one indented JSON list."""
    inner = nl + " "
    deeper = inner + " "
    rows = {n: "[" + deeper + ("," + deeper).join(["%d"] * n) + inner + "]" if n else "[]"
            for n in set(lengths)}
    return ("[" + inner + ("," + inner).join(map(rows.__getitem__, lengths))
            + nl + "]") % tuple(flat)


def _ctx(where: str, path: str) -> str:
    return f"{where}: {path}" if where else path


def _need(d: dict, key: str, where: str):
    if key not in d:
        raise SchemaError(_ctx(where, f"missing key {key!r}"))
    return d[key]


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


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
        "facets": m.vertex_table.tolist(),
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


def _flat_ints(rows: list, width: int | None = None,
               row_types: frozenset = frozenset({list})) -> list | None:
    """The items of ``rows`` in order, when the type of every row is in
    ``row_types``, every item is an int (not a bool) and, if ``width`` is
    given, every row has that length; else None."""
    if not set(map(type, rows)) <= row_types:
        return None
    if width is not None and not set(map(len, rows)) <= {width}:
        return None
    flat = list(itertools.chain.from_iterable(rows))
    return flat if set(map(type, flat)) <= {int} else None


def _complex_from_json(d: dict, n_agents: int, where: str) -> ChromaticComplex:
    raw_vertices = _need(d, "vertices", where)
    raw_facets = _need(d, "facets", where)
    if not isinstance(raw_vertices, list) or not isinstance(raw_facets, list):
        raise SchemaError(_ctx(where, "vertices/facets must be lists"))
    vertices = _vertices_from_json(raw_vertices, where)
    flat = _flat_ints(raw_facets)
    if flat is None or (flat and not 0 <= min(flat) <= max(flat) < len(vertices)):
        # name the first bad facet
        for i, rf in enumerate(raw_facets):
            if not (isinstance(rf, list) and all(map(_is_index, rf))):
                raise SchemaError(_ctx(where, f"facets[{i}]: expected a list of vertex ids"))
            for v in rf:
                if not 0 <= v < len(vertices):
                    raise SchemaError(_ctx(where, f"facets[{i}]: unknown vertex {v}"))
    return ChromaticComplex(n_agents, vertices, raw_facets)


def _vertices_from_json(raw_vertices: list, where: str) -> list[Vertex]:
    """The vertices in id order, each checked as it is built: names the
    first bad one, then checks that the ids are 0..n-1."""
    ordered: dict[int, Vertex] = {}
    for i, rv in enumerate(raw_vertices):
        if type(rv) is not dict:
            raise SchemaError(_ctx(where, f"vertices[{i}]: expected an object"))
        if "id" not in rv or "color" not in rv:
            at = f"{where}:vertices[{i}]" if where else f"vertices[{i}]"
            _need(rv, "id", at)
            _need(rv, "color", at)
        vid, color, atoms = rv["id"], rv["color"], rv.get("atoms", [])
        if type(vid) is not int or type(color) is not int:
            raise SchemaError(_ctx(where, f"vertices[{i}]: id and color must be ints"))
        if type(atoms) is not list:
            raise SchemaError(_ctx(where, f"vertices[{i}].atoms: expected a list"))
        for k, pair in enumerate(atoms):
            if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is int):
                raise SchemaError(
                    _ctx(where, f"vertices[{i}].atoms[{k}]: expected [agent, value]"))
            if type(pair[1]) is not int and type(pair[1]) is not str:
                _check_value(pair[1], where, f"vertices[{i}].atoms[{k}]")
        if vid in ordered:
            raise SchemaError(_ctx(where, f"vertices[{i}]: duplicate vertex id {vid}"))
        ordered[vid] = Vertex(id=vid, color=color, atoms=frozenset(map(tuple, atoms)))
    if sorted(ordered) != list(range(len(ordered))):
        raise SchemaError(_ctx(where, "vertex ids must be dense 0..n-1"))
    return [ordered[i] for i in range(len(ordered))]


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
        "facets": a.vertex_table.tolist(),
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
    """The relation document; its ``pairs`` is the ``[count, 2]`` int array
    of (left, right) rows, which :func:`dumps` writes without a list per row."""
    d = {"format": RELATION_FORMAT,
         "dims": list(r.dims),
         "pairs": np.stack([r.xs, r.js], axis=1)}
    d.update(extra)
    return d


def relation_from_json(d: dict, where: str = "") -> Relation:
    if not isinstance(d, dict):
        raise SchemaError(_ctx(where, "expected a JSON object"))
    dims = _need(d, "dims", where)
    pairs = _need(d, "pairs", where)
    if not (isinstance(dims, list) and len(dims) == 2
            and all(_is_index(x) and x >= 0 for x in dims)):
        raise SchemaError(_ctx(where, "dims: expected [rows, cols]"))
    if isinstance(pairs, np.ndarray):  # a document from relation_to_json
        pairs = pairs.tolist()
    if not isinstance(pairs, list):
        raise SchemaError(_ctx(where, "pairs: expected a list"))
    flat = _flat_ints(pairs, 2, _SEQUENCES)
    try:
        arr = None if flat is None else np.array(flat, dtype=np.int64).reshape(-1, 2)
    except OverflowError:
        arr = None
    if arr is None or ((arr < 0) | (arr >= dims)).any():
        # name the first bad pair
        for i, p in enumerate(pairs):
            if not (isinstance(p, list) and len(p) == 2 and all(map(_is_index, p))):
                raise SchemaError(_ctx(where, f"pairs[{i}]: expected [left, right]"))
            if not (0 <= p[0] < dims[0] and 0 <= p[1] < dims[1]):
                raise SchemaError(_ctx(where, f"pairs[{i}]: outside dims {dims}"))
    return Relation.from_pairs((dims[0], dims[1]), pairs if arr is None else arr)


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
