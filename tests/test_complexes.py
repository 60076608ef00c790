"""Chromatic complex construction, validation and the adjacency index;
the array construction path against a per-facet reference."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from delsim.complexes import (ChromaticComplex, Vertex, first_appearance_ids,
                              validate_complex)
from delsim.errors import UsageError
from delsim.models import input_model, standard_workspace


def make_triangle_pair():
    # two triangles glued along the colors {0, 1} edge
    vs = [Vertex(0, 0, frozenset([(0, 0)])),
          Vertex(1, 1, frozenset([(1, 0)])),
          Vertex(2, 2, frozenset([(2, 0)])),
          Vertex(3, 2, frozenset([(2, 1)]))]
    fs = [(0, 1, 2), (0, 1, 3)]
    return ChromaticComplex(3, vs, fs)


def test_facets_sorted_by_color_then_id():
    cx = make_triangle_pair()
    for f in cx.facets:
        colors = [cx.vertices[v].color for v in f.vertices]
        assert colors == sorted(colors)
    assert cx.facets[0].vertices == (0, 1, 2)


def test_adjacency_lists_shared_colors():
    cx = make_triangle_pair()
    assert dict(cx.adjacency[0]) == {1: frozenset({0, 1})}
    assert dict(cx.adjacency[1]) == {0: frozenset({0, 1})}


def test_adjacency_matches_raw_intersection():
    m = input_model(standard_workspace(3))
    cx = m.complex
    for i in range(len(cx.facets)):
        want = {j: oracles.shared_colors(m, i, j) for j in range(len(cx.facets))
                if j != i and oracles.shared_colors(m, i, j)}
        assert dict(cx.adjacency[i]) == want


def test_validate_rejects_color_clash():
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 0, frozenset()),
          Vertex(2, 1, frozenset())]
    cx = ChromaticComplex(2, vs, [(0, 1)], )
    assert any("color" in e for e in validate_complex(cx))


def test_validate_rejects_wrong_dimension():
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 1, frozenset())]
    cx = ChromaticComplex(3, vs, [(0, 1)])
    assert any("expected 3" in e for e in validate_complex(cx))


def test_validate_rejects_uncovered_vertex():
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 1, frozenset()),
          Vertex(2, 0, frozenset())]
    cx = ChromaticComplex(2, vs, [(0, 1)])
    assert any("facet" in e for e in validate_complex(cx))


def test_validate_rejects_atom_color_mismatch():
    # vertex colored 0 carrying an atom that belongs to agent 1
    vs = [Vertex(0, 0, frozenset([(1, 0)])), Vertex(1, 1, frozenset())]
    cx = ChromaticComplex(2, vs, [(0, 1)])
    assert any("atom" in e for e in validate_complex(cx))


def test_valid_complex_reports_nothing():
    assert validate_complex(make_triangle_pair()) == []


def test_dense_vertex_ids_required():
    vs = [Vertex(0, 0, frozenset()), Vertex(2, 1, frozenset())]
    with pytest.raises(UsageError):
        ChromaticComplex(2, vs, [(0, 2)])


def test_unknown_facet_member_rejected():
    vs = [Vertex(0, 0, frozenset()), Vertex(1, 1, frozenset())]
    with pytest.raises(UsageError):
        ChromaticComplex(2, vs, [(0, 5)])


def test_input_complex_two_agents_is_a_cycle():
    # four edges glued into a cycle: every facet has exactly two neighbors,
    # each sharing exactly one color
    m = input_model(standard_workspace(2, (0, 1)))
    cx = m.complex
    assert len(cx.facets) == 4 and len(cx.vertices) == 4
    for i in range(4):
        nbrs = cx.adjacency[i]
        assert len(nbrs) == 2
        assert sorted(len(sh) for _, sh in nbrs) == [1, 1]


# -- the array path against the per-facet reference ---------------------------

def _build(cls, n_agents, vertices, facets):
    try:
        return cls(n_agents, vertices, facets), None
    except UsageError as e:
        return None, str(e)


def assert_matches_reference(n_agents, vertices, facets):
    """Same facets and problems as ``oracles.ChromaticComplexNaive`` and
    ``oracles.validate_complex_naive``, or the same ``UsageError`` text."""
    got, got_error = _build(ChromaticComplex, n_agents, vertices, facets)
    want, want_error = _build(oracles.ChromaticComplexNaive, n_agents, vertices, facets)
    assert got_error == want_error
    if want is not None:
        assert got.n_facets == len(want.facets)
        assert [(f.index, f.vertices, f.colors) for f in got.facets] == want.facets
        assert validate_complex(got) == oracles.validate_complex_naive(want)


def _vertices(colors, atoms=None):
    return [Vertex(i, c, frozenset() if atoms is None else atoms[i])
            for i, c in enumerate(colors)]


@pytest.mark.parametrize("n_agents,vertices,facets", [
    # valid, facets in scrambled member order, as lists, tuples and an array
    (3, _vertices([2, 0, 1, 0]), [[0, 1, 2], (2, 3, 0)]),
    (3, _vertices([2, 0, 1, 0]), np.array([[0, 1, 2], [2, 3, 0]])),
    # ids not dense
    (2, [Vertex(0, 0, frozenset()), Vertex(2, 1, frozenset())], [[0, 1]]),
    # unknown vertex: too large, negative, in a later facet
    (2, _vertices([0, 1]), [[0, 5]]),
    (2, _vertices([0, 1]), [[-1, 1]]),
    (2, _vertices([0, 1, 1]), [[0, 1], [0, 3]]),
    # ragged and impure facets
    (2, _vertices([0, 1, 1]), [[0, 1], [0, 1, 2], [2]]),
    (3, _vertices([0, 1, 1]), [[0, 1], [0, 2]]),
    (1, _vertices([0, 0]), [[0, 1]]),
    # repeated colours and a repeated vertex
    (2, _vertices([0, 0, 1]), [[1, 0], [0, 2]]),
    (3, _vertices([1, 1, 1, 0]), [[2, 1, 0], [3, 3, 0]]),
    # colour out of range, malformed or foreign atoms, an uncovered vertex
    (2, _vertices([0, 2, 1]), [[0, 2], [0, 1]]),
    (2, _vertices([0, 1, 0], [frozenset({(1, 0)}), frozenset({(0,)}), frozenset()]),
     [[0, 1]]),
    # no facets, empty facets
    (2, _vertices([0, 1]), []),
    (2, _vertices([0, 1]), [[], []]),
])
def test_complex_matches_reference(n_agents, vertices, facets):
    assert_matches_reference(n_agents, vertices, facets)


@pytest.mark.parametrize("vertices,facets", [
    (_vertices([0, 1]), [[False, True]]),
    (_vertices([np.int64(1), np.int64(0)]), [[0, 1]]),
])
def test_valid_complex_of_other_int_types_has_a_table(vertices, facets):
    """Members or colors that are not plain ints take the per-facet path;
    a valid complex still gets the table that models read."""
    assert_matches_reference(2, vertices, facets)
    cx = ChromaticComplex(2, vertices, facets)
    assert validate_complex(cx) == []
    assert cx.facet_table.tolist() == [list(f.vertices) for f in cx.facets]


@st.composite
def raw_complexes(draw):
    """Vertex colors, ids and facet members that are each in range or, when
    the example asks for it, sometimes out of it; facets all of one width
    or ragged, given as lists, tuples or one int array."""
    n_agents = draw(st.integers(1, 3))
    n_vertices = draw(st.integers(0, 6))
    color = st.integers(-1, n_agents) if draw(st.booleans()) else st.integers(0, n_agents - 1)
    colors = draw(st.lists(color, min_size=n_vertices, max_size=n_vertices))
    atoms = [draw(st.sampled_from([frozenset(), frozenset({(c, 0)}),
                                   frozenset({(c + 1, 0)})])) for c in colors]
    vertices = _vertices(colors, atoms)
    if vertices and draw(st.booleans()):
        k = draw(st.integers(0, len(vertices) - 1))
        vertices[k] = Vertex(k + 1, colors[k], atoms[k])
    member = (st.integers(-1, n_vertices) if draw(st.booleans())
              else st.integers(0, max(n_vertices - 1, 0)))
    width = draw(st.integers(0, 4))
    size = st.just(width) if draw(st.booleans()) else st.integers(0, 4)
    facets = draw(st.lists(size.flatmap(lambda k: st.lists(member, min_size=k, max_size=k)),
                           max_size=6))
    shape = draw(st.sampled_from(["list", "tuple", "array"]))
    if shape == "tuple":
        facets = [tuple(f) for f in facets]
    elif shape == "array" and facets and len(set(map(len, facets))) == 1:
        facets = np.array(facets, dtype=np.int64).reshape(len(facets), -1)
    return n_agents, vertices, facets


@settings(max_examples=300, deadline=None)
@given(raw_complexes())
def test_complex_matches_reference_on_random_input(raw):
    assert_matches_reference(*raw)


def _first_appearance_naive(table: np.ndarray) -> tuple[list[int], list[int]]:
    ids: dict[tuple, int] = {}
    first: list[int] = []
    out = []
    for i, row in enumerate(map(tuple, table.tolist())):
        if row not in ids:
            ids[row] = len(ids)
            first.append(i)
        out.append(ids[row])
    return out, first


@pytest.mark.parametrize("width", [1, 2, 3, 4, 5, 12])
@pytest.mark.parametrize("entries", ["small", "wide", "huge"])
@pytest.mark.parametrize("rows", [0, 1, 7, 300])
def test_first_appearance_ids_match_a_dict(width, entries, rows):
    """Row interning by first appearance, against a dict over row tuples.
    Rows are drawn from a small pool so that many repeat; "huge" entries lie
    within a few of +-2**62, where one mixed-radix key of the raw entries
    would overflow int64, and twelve columns of a hundred values each make
    the key itself pass 2**62 and be re-ranked."""
    rng = np.random.default_rng(width * 1000 + rows)
    low, high = {"small": (-1, 4), "wide": (-50, 10**6),
                 "huge": (-3, 3)}[entries]
    pool = rng.integers(low, high, size=(max(rows // 3, 1), width), dtype=np.int64)
    if entries == "huge":
        pool += np.where(rng.random(pool.shape) < 0.5, 2**62, -2**62)
    table = pool[rng.integers(0, len(pool), size=rows)]
    ids, first = first_appearance_ids(table)
    assert (ids.tolist(), first.tolist()) == _first_appearance_naive(table)
    assert ids.dtype == first.dtype == np.intp
