"""Chromatic complex construction, validation and the adjacency index."""

import pytest

import oracles
from delsim.complexes import ChromaticComplex, Vertex, validate_complex
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


def test_vertex_facets_covers_every_facet():
    cx = make_triangle_pair()
    assert set(cx.vertex_facets[0]) == {0, 1}
    assert set(cx.vertex_facets[2]) == {0}
