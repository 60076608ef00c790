"""File formats: models, action models, relations, morphisms, verdicts.

All writers emit canonical JSON (sorted keys, fixed indentation) with a
``format`` version header, so identical inputs produce byte-identical files.
Readers validate shape and report failures with file and JSON-path context.
"""

from __future__ import annotations

import itertools
import json
from operator import itemgetter
from typing import IO, Any, Iterable, Iterator, Sequence

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

    A nonempty list is written by one join when it holds only ints, and by
    one ``%`` format when its items are all int rows (facets, relation
    pairs; ragged allowed) or all records (vertices, provenance): dicts of
    one key tuple of strs, each key's values all ints and strs or all
    lists of ``[int, int or str]`` pairs. The format's template is made
    from one template per distinct row shape, or per key and distinct value
    shape; strs are encoded and passed as arguments, never put into a
    template. A 2-D int array is written as its list of rows. Bools, int
    subclasses, floats and any other shape go through :func:`_write` item
    by item, down to ``json.dumps`` itself.
    """
    out: list[str] = []
    _write(payload, "\n", out)
    out.append("\n")
    return "".join(out)


_encode_str = json.encoder.encode_basestring_ascii
# the types json writes as arrays
_SEQUENCES = frozenset({list, tuple})
# the ``%`` conversion that writes each scalar type in a template
_CONVERSION = {int: "d", str: "s"}


def _write(o, nl: str, out: list[str]) -> None:
    """Append ``o`` as indented JSON; ``nl`` is a newline and the indent of
    the line that ``o`` starts on."""
    if type(o) is str:
        out.append(_encode_str(o))
    elif type(o) is int:
        out.append(int.__repr__(o))
    elif type(o) in _SEQUENCES and o:
        text = _list_text(o, nl)
        if text is not None:
            out.append(text)
            return
        inner = nl + " "
        sep = "[" + inner
        for item in o:
            out.append(sep)
            _write(item, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif type(o) is np.ndarray and o.ndim == 2 and o.dtype.kind in "iu":
        out.append(_fill(["d" * o.shape[1]] * len(o), o.ravel().tolist(), _row_template, nl))
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


def _list_text(items, nl: str) -> str | None:
    """The nonempty list ``items`` as indented JSON when it holds only ints,
    only lists of ints (ragged allowed) or only records; else None."""
    types = set(map(type, items))
    if types == {int}:
        inner = nl + " "
        return "[" + inner + ("," + inner).join(map(int.__repr__, items)) + nl + "]"
    if types <= _SEQUENCES:
        flat = _flat_ints(items, row_types=_SEQUENCES)
        return None if flat is None else _fill(
            _int_shapes("", list(map(len, items))), flat, _row_template, nl)
    return _records(items, nl) if types == {dict} else None


def _fill(shapes: list, args, template, nl: str) -> str:
    """:func:`_list_template` filled in order from ``args`` by one ``%``."""
    return _list_template(shapes, template, nl) % tuple(args)


def _list_template(shapes: list, template, nl: str) -> str:
    """The template of an indented JSON list whose items have the given
    shapes; the item template of each distinct shape is made once, by
    ``template(shape, indent)``."""
    if not shapes:
        return "[]"
    inner = nl + " "
    texts = {shape: template(shape, inner) for shape in set(shapes)}
    return "[" + inner + ("," + inner).join(map(texts.__getitem__, shapes)) + nl + "]"


def _int_shapes(prefix: str, lengths: list[int]) -> list[str]:
    """``prefix + "d" * n`` for each ``n`` of ``lengths``, one str object
    per distinct length."""
    shapes = {n: prefix + "d" * n for n in set(lengths)}
    return list(map(shapes.__getitem__, lengths))


def _row_template(kinds: str, nl: str) -> str:
    """A list of one ``%`` conversion per char of ``kinds``: ``d`` for an
    int, ``s`` for an already encoded str."""
    inner = nl + " "
    return "[" + inner + ("," + inner).join(map("%".__add__, kinds)) + nl + "]" if kinds else "[]"


def _records(items: list, nl: str) -> str | None:
    """The nonempty list of dicts ``items`` as indented JSON when they share
    one nonempty tuple of str keys and each key's values are all ints and
    strs or all lists of ``[int, int or str]`` pairs; else None."""
    keys = set(map(tuple, items))
    if len(keys) != 1:
        return None
    (order,) = keys
    if not order or set(map(type, order)) != {str}:
        return None
    inner, deeper = nl + " ", nl + "  "
    # the template is, record by record: its opening, the template of each
    # key and value shape (made once per distinct shape), its closing
    pieces = [itertools.chain(["[" + inner + "{"], itertools.repeat("," + inner + "{"))]
    args = []
    for key in sorted(order):
        column = _column(list(map(itemgetter(key), items)))
        if column is None:
            return None
        kinds, values = column
        head = ("," if args else "") + deeper + _encode_str(key).replace("%", "%%") + ": "
        texts = {kind: head + _value_template(kind, deeper) for kind in set(kinds)}
        pieces.append(map(texts.__getitem__, kinds))
        args.append(values)
    pieces.append(itertools.repeat(inner + "}"))
    template = "".join(itertools.chain.from_iterable(zip(*pieces))) + nl + "]"
    values = itertools.chain.from_iterable(itertools.chain.from_iterable(zip(*args)))
    return template % tuple(values)


def _encoded(value):
    return _encode_str(value) if type(value) is str else value


def _column(values: list) -> tuple[list[str], Iterator[Iterable]] | None:
    """For each of one key's ``values``, its shape and its ``%`` arguments:
    ``d`` or ``s`` for an int or a str, ``[`` and one ``d`` or ``s`` per
    pair's value for a list of ``[int, int or str]`` pairs; None if a value
    is neither. The arguments of pair lists are slices of one iterator, so
    they must be read in order, each to its end."""
    types = set(map(type, values))
    if types <= {int, str}:
        if str not in types:
            return ["d"] * len(values), zip(values)
        return list(map(_CONVERSION.__getitem__, map(type, values))), zip(map(_encoded, values))
    flat = _flat_pairs(values, _SEQUENCES) if types <= _SEQUENCES else None
    if flat is None:
        return None
    lengths = list(map(len, values))
    scalars = flat[1::2]
    if str in set(map(type, scalars)):
        conversions = "".join(map(_CONVERSION.__getitem__, map(type, scalars)))
        flat[1::2] = map(_encoded, scalars)
        kinds = ["[" + conversions[end - n:end]
                 for n, end in zip(lengths, itertools.accumulate(lengths))]
    else:
        kinds = _int_shapes("[", lengths)
    rest = iter(flat)
    return kinds, map(itertools.islice, itertools.repeat(rest), map((2).__mul__, lengths))


def _flat_pairs(lists: list, pair_types: frozenset) -> list | None:
    """The items of the pairs in ``lists``, in order, when every pair is
    ``[int, int or str]`` and its type is in ``pair_types``; else None."""
    pairs = list(itertools.chain.from_iterable(lists))
    if not (set(map(type, pairs)) <= pair_types and set(map(len, pairs)) <= {2}):
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if set(map(type, flat[0::2])) <= {int} and set(map(type, flat[1::2])) <= {int, str}:
        return flat
    return None


def _value_template(kind: str, nl: str) -> str:
    """The template of one record value of the shape ``kind`` (see
    :func:`_column`)."""
    if kind[0] != "[":
        return "%" + kind
    return _list_template(list(map("d".__add__, kind[1:])), _row_template, nl)


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
    try:
        table = None if flat is None else np.array(flat, dtype=np.intp)
    except OverflowError:
        table = None
    if table is None or (table.size and not 0 <= table.min() <= table.max() < len(vertices)):
        # name the first bad facet
        for i, rf in enumerate(raw_facets):
            if not (isinstance(rf, list) and all(map(_is_index, rf))):
                raise SchemaError(_ctx(where, f"facets[{i}]: expected a list of vertex ids"))
            for v in rf:
                if not 0 <= v < len(vertices):
                    raise SchemaError(_ctx(where, f"facets[{i}]: unknown vertex {v}"))
    elif table.size and len(set(map(len, raw_facets))) == 1:
        # facets of one width go on as the int array checked here
        raw_facets = table.reshape(len(raw_facets), -1)
    return ChromaticComplex(n_agents, vertices, raw_facets)


def _vertices_from_json(raw_vertices: list, where: str) -> list[Vertex]:
    """The vertices in id order. The whole list is checked at once; only when
    that fails is each vertex checked as it is built, which names the first
    bad one, and then the ids are checked to be 0..n-1."""
    vertices = _vertices_in_bulk(raw_vertices)
    if vertices is not None:
        return vertices
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


def _vertices_in_bulk(raw_vertices: list) -> list[Vertex] | None:
    """The vertices in id order when every item is an object with int
    ``id`` and ``color`` and ``atoms`` (default ``[]``) a list of ``[int,
    int or str]`` lists, and the ids are a permutation of 0..n-1; else None."""
    if set(map(type, raw_vertices)) != {dict}:
        return None
    ids, colors = (list(map(dict.get, raw_vertices, itertools.repeat(key)))
                   for key in ("id", "color"))
    atoms = list(map(dict.get, raw_vertices, itertools.repeat("atoms"), itertools.repeat([])))
    if not (set(map(type, ids)) == set(map(type, colors)) == {int}
            and set(map(type, atoms)) == {list}
            and _flat_pairs(atoms, frozenset({list})) is not None):
        return None
    n = len(ids)
    if ids != list(range(n)):
        if len(set(ids)) != n or min(ids) < 0 or max(ids) >= n:
            return None
        order = sorted(range(n), key=ids.__getitem__)
        ids, colors, atoms = ([column[i] for i in order] for column in (ids, colors, atoms))
    return list(map(Vertex, ids, colors,
                    map(frozenset, map(map, itertools.repeat(tuple), atoms))))


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
    # preconditions repeat across facets: write each distinct one once
    texts = {p: to_sexp(p) for p in dict.fromkeys(a.pre)}
    d = {
        "format": ACTION_FORMAT,
        "agents": list(a.workspace.agents),
        "values": list(a.workspace.values),
        "vertices": [{"id": v.id, "color": v.color, "atoms": []}
                     for v in a.complex.vertices],
        "facets": a.vertex_table.tolist(),
        "pre": {str(i): texts[p] for i, p in enumerate(a.pre)},
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
    read: dict[str, Formula] = {}  # each distinct text is read once
    for i in range(cx.n_facets):
        if str(i) not in raw_pre:
            raise SchemaError(_ctx(where, f"pre: missing precondition for facet {i}"))
        text = raw_pre[str(i)]
        if not isinstance(text, str):
            raise SchemaError(_ctx(
                where, f"pre[{i}]: expected a formula text, got {type(text).__name__}"))
        f = read.get(text)
        if f is None:
            try:
                f = read[text] = from_sexp(text)
            except Exception as e:
                raise SchemaError(_ctx(where, f"pre[{i}]: {e}")) from e
        pre.append(f)
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


def provenance_to_json(facet_sources: np.ndarray | Sequence[tuple[int, int]]) -> dict:
    return {"format": PROVENANCE_FORMAT,
            "facets": [{"facet": i, "source": s, "action": t}
                       for i, (s, t) in enumerate(np.asarray(facet_sources).tolist())]}


# -- file helpers -----------------------------------------------------------

def _read_text(path: str, stream: IO | None = None) -> str:
    """The whole text of ``stream``, or else of the file at ``path``, read
    as UTF-8; text that cannot be read or decoded raises
    :class:`SchemaError` naming ``path``. A stream over bytes (stdin) is
    decoded here, since a locale's decoder may pass bad bytes through."""
    try:
        if stream is not None:
            raw = getattr(stream, "buffer", None)
            return stream.read() if raw is None else raw.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise SchemaError(f"{path}: not UTF-8 ({e})") from e
    except OSError as e:
        raise SchemaError(f"{path}: {e}") from e


def load_json(path: str, stream: IO | None = None) -> dict:
    text = _read_text(path, stream)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"{path}: invalid JSON ({e})") from e


def load_model(path: str) -> SimplicialModel:
    return model_from_json(load_json(path), where=path)


def load_formula(path: str, stream: IO | None = None) -> Formula:
    return from_sexp(_read_text(path, stream))
