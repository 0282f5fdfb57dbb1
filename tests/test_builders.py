"""The rules that TripleSystem and Graph keep without checking them.

The two classes store what they are given, so the builders are where their
rules hold.  A triple system's links map int pairs 0 <= u < v < n, in
lexicographic order, to nonzero masks of the third points of their edges,
each edge seen from all three of its pairs; a graph has n >= 1 rows that
are symmetric, loop-free and within n bits.  Every builder of either kind
is run here and its result checked against those rules.
"""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import (
    BadParams,
    Graph,
    TooFewPoints,
    TripleSystem,
    adjacency_from_rows,
    betweenness_triples,
    complete_graph,
    complete_quadruple,
    construct,
    enum_graphs,
    enum_triple_systems,
    fano,
    graph_from_edges,
    graph_to_space,
    load_graph_text,
    load_triples_text,
    path_graph,
    space_to_graph,
    triple_system,
)
from helpers import random_int_space, random_rational_space

INPUTS = Path(__file__).parent / "golden" / "inputs"
TRIPLE_FILES = ("crlf_triples", "fano", "seven10", "triples3", "triples6", "triples8")
GRAPH_FILES = ("cycle7", "cycle131", "path6")


def assert_sorted_triples(T: TripleSystem) -> None:
    assert type(T.n) is int and T.n >= 1
    assert type(T.links) is dict
    assert list(T.links) == sorted(T.links)
    for (u, v), mask in T.links.items():
        assert type(u) is type(v) is type(mask) is int
        assert 0 <= u < v < T.n and 0 < mask < 1 << T.n
        assert not mask >> u & 1 and not mask >> v & 1
        # each edge sets a bit in the mask of each of its three pairs
        for w in range(T.n):
            if mask >> w & 1:
                assert T.links[min(u, w), max(u, w)] >> v & 1
                assert T.links[min(v, w), max(v, w)] >> u & 1
    assert type(T.edges) is frozenset
    for e in T.edges:
        assert type(e) is tuple and len(e) == 3
        assert all(type(v) is int for v in e)
        assert 0 <= e[0] < e[1] < e[2] < T.n


def assert_graph_rows(G: Graph) -> None:
    n = G.n
    assert type(n) is int and n >= 1
    assert type(G.adj) is tuple and len(G.adj) == n
    for u, row in enumerate(G.adj):
        assert type(row) is int and 0 <= row < 1 << n
        assert not row >> u & 1
        for v in range(n):
            assert row >> v & 1 == G.adj[v] >> u & 1


@st.composite
def edge_files(draw, arity: int) -> str:
    """A valid edge-list file, its edges in any order."""
    n = draw(st.integers(1, 8))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), arity)) or [()]), unique=True))
    edges = [e for e in edges if e]
    lines = [f"{n} {len(edges)}", *(" ".join(map(str, e)) for e in edges)]
    return "\n".join(lines) + "\n"


class TestTripleBuilders:
    @pytest.mark.parametrize("name", TRIPLE_FILES)
    def test_golden_inputs(self, name):
        assert_sorted_triples(load_triples_text((INPUTS / f"{name}.txt").read_text()))

    @settings(max_examples=200, deadline=None)
    @given(edge_files(3))
    def test_drawn_files(self, text):
        T = load_triples_text(text)
        assert_sorted_triples(T)
        assert T.sorted_edges() == tuple(sorted(tuple(map(int, ln.split())) for ln in text.splitlines()[1:]))

    @pytest.mark.parametrize("make", [random_int_space, random_rational_space])
    def test_betweenness_triples(self, make):
        rng = random.Random(23)
        for _ in range(30):
            assert_sorted_triples(betweenness_triples(make(rng, rng.randint(3, 9))))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_enumeration(self, n):
        for T in enum_triple_systems(n):
            assert_sorted_triples(T)

    @pytest.mark.parametrize("build", [fano, complete_quadruple])
    def test_named_systems(self, build):
        assert_sorted_triples(build())

    def test_triple_system(self):
        rng = random.Random(29)
        for _ in range(30):
            n = rng.randint(3, 8)
            edges = [rng.sample(range(n), 3) for _ in range(rng.randint(0, 12))]
            T = triple_system(n, edges)
            assert_sorted_triples(T)
            assert T.edges == {tuple(sorted(e)) for e in edges}


class TestGraphBuilders:
    def test_graph_from_edges(self):
        rng = random.Random(31)
        for _ in range(30):
            n = rng.randint(1, 9)
            pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 15))] if n > 1 else []
            G = graph_from_edges(n, pairs)
            assert_graph_rows(G)
            assert set(G.sorted_edges()) == {tuple(sorted(p)) for p in pairs}

    @pytest.mark.parametrize("name", GRAPH_FILES)
    def test_golden_inputs(self, name):
        assert_graph_rows(load_graph_text((INPUTS / f"{name}.txt").read_text()))

    @settings(max_examples=200, deadline=None)
    @given(edge_files(2))
    def test_drawn_files(self, text):
        G = load_graph_text(text)
        assert_graph_rows(G)
        assert G.sorted_edges() == tuple(sorted(tuple(map(int, ln.split())) for ln in text.splitlines()[1:]))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_enumeration(self, n):
        for G in enum_graphs(n):
            assert_graph_rows(G)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: path_graph(0),
            lambda: path_graph(6),
            lambda: complete_graph(1),
            lambda: complete_graph(7),
            lambda: construct("path", 4),
            lambda: construct("complete", 5),
            lambda: adjacency_from_rows([[0, 1, 1], [1, 0, 0], [1, 0, 0]]),
            lambda: space_to_graph(graph_to_space(path_graph(5))),
        ],
    )
    def test_constructions(self, build):
        assert_graph_rows(build())


@pytest.mark.parametrize(
    "build,error,message",
    [
        (lambda: graph_from_edges(0, []), BadParams, "graph needs at least one vertex, got n=0"),
        (lambda: triple_system(0, []), TooFewPoints, "need at least 1 points, got 0"),
    ],
)
def test_no_vertices(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert str(exc.value) == message
