from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings

from qgns import Graph, adjacency_matrix, from_edge_list, laplacian, neighborhood, to_edge_list

from helpers import graphs, random_graph


def test_parse_k2_default_weight():
    g = from_edge_list("qgraph v1 n=2\n0 1\n")
    assert g.n_vertices == 2
    assert g.edges == ((0, 1, math.pi),)


def test_parse_demo_fixture(demo5):
    text = "qgraph v1 n=5\n0 1\n1 2\n0 3\n3 2\n0 4\n3 4\n"
    assert from_edge_list(text) == demo5


def test_parse_comments_blanks_and_weights():
    text = "qgraph v1 n=3\n# a comment\n\n0 1 0.25\n2 1 1.5  # trailing\n"
    g = from_edge_list(text)
    assert g.edges == ((0, 1, 0.25), (1, 2, 1.5))


def test_parse_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        from_edge_list("qgraph v1 n=2\n0 0\n")


def test_parse_errors():
    with pytest.raises(ValueError, match="header"):
        from_edge_list("not a graph\n0 1\n")
    with pytest.raises(ValueError, match="line 2"):
        from_edge_list("qgraph v1 n=2\n0 1 2 3\n")
    with pytest.raises(ValueError, match="duplicate"):
        from_edge_list("qgraph v1 n=2\n0 1\n1 0\n")
    with pytest.raises(ValueError, match="out of range"):
        from_edge_list("qgraph v1 n=2\n0 5\n")


def test_roundtrip_through_text(demo5):
    assert from_edge_list(to_edge_list(demo5)) == demo5


@settings(max_examples=200, deadline=None)
@given(g=graphs())
def test_edge_list_roundtrip_property(g):
    back = from_edge_list(to_edge_list(g))
    assert back == g
    assert [w.hex() for _, _, w in back.edges] == [w.hex() for _, _, w in g.edges]


def test_neighborhood_demo_fixture(demo5):
    assert neighborhood(demo5, 0) == {1, 3, 4}
    assert neighborhood(demo5, 2) == {1, 3}


def test_neighborhood_isolated_and_k2(k2):
    assert neighborhood(Graph(3), 1) == set()
    assert neighborhood(k2, 0) == {1}
    with pytest.raises(ValueError):
        neighborhood(k2, 2)


def test_adjacency_examples(k2):
    assert np.array_equal(adjacency_matrix(k2), [[0, math.pi], [math.pi, 0]])
    assert np.array_equal(adjacency_matrix(Graph(3)), np.zeros((3, 3)))
    tri = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    a = adjacency_matrix(tri)
    assert np.array_equal(a, np.ones((3, 3)) - np.eye(3))


def test_laplacian_examples():
    tri = Graph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])
    assert np.array_equal(laplacian(tri), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]])
    p2 = Graph.from_edges(2, [(0, 1, 1.0)])
    assert np.array_equal(laplacian(p2), [[1, -1], [-1, 1]])
    assert np.array_equal(laplacian(Graph(2)), np.zeros((2, 2)))


def test_matrix_invariants_random(rng):
    for _ in range(25):
        g = random_graph(rng, int(rng.integers(1, 9)), weighted=True)
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        lap = laplacian(g)
        assert np.allclose(lap @ np.ones(g.n_vertices), 0.0, atol=1e-12)
        for v in range(g.n_vertices):
            for u in neighborhood(g, v):
                assert v in neighborhood(g, u)


def test_laplacian_row_sums_exact_for_integer_weights(rng):
    # integer weights stay exact in binary floating point, so the weighted
    # degree cancels the row without rounding
    for _ in range(15):
        n = int(rng.integers(2, 9))
        g = random_graph(rng, n)
        g = Graph.from_edges(n, [(u, v, float(rng.integers(1, 7))) for u, v, _ in g.edges])
        assert np.array_equal(laplacian(g) @ np.ones(n), np.zeros(n))


def test_graph_is_immutable(k2):
    with pytest.raises(AttributeError):
        k2.n_vertices = 5


def test_weight_lookup(demo5):
    assert demo5.weight(1, 0) == math.pi
    assert demo5.has_edge(4, 3)
    assert not demo5.has_edge(1, 3)
    with pytest.raises(ValueError, match="no edge"):
        demo5.weight(1, 3)


def test_dict_roundtrip(demo5):
    assert Graph.from_dict(demo5.to_dict()) == demo5


def test_from_dict_takes_integers_and_numbers_only():
    # JSON input is never truncated: 3.7 vertices or a 0.9 endpoint is an error
    assert Graph.from_dict({"n": 3, "edges": [[0, 2], [1, 2, 7]]}) == Graph(
        3, ((0, 2, math.pi), (1, 2, 7.0)))
    for d, bad in [({"n": 3.7}, "'n'"), ({"n": 3.0}, "'n'"), ({"n": "3"}, "'n'"),
                   ({"n": True}, "'n'"), ({"n": 3, "edges": [[0.9, 2.2]]}, r"edges\[0\]"),
                   ({"n": 3, "edges": [[0, 1], [True, 2]]}, r"edges\[1\]"),
                   ({"n": 3, "edges": [[0, 1, False]]}, r"edges\[0\]"),
                   ({"n": 3, "edges": [[0, 1, "1.0"]]}, r"edges\[0\]"),
                   ({"n": 3, "edges": [[0]]}, r"edges\[0\]"),
                   ({"n": 3, "edges": {"0": 1}}, "'edges'")]:
        with pytest.raises(ValueError, match=bad):
            Graph.from_dict(d)
