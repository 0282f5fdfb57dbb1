from __future__ import annotations

import itertools
import random
from functools import cached_property

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import (
    BadParams,
    DisconnectedGraph,
    IndexOutOfRange,
    MetricSpace,
    diameter,
    enum_graphs,
    graph_from_edges,
    graph_to_space,
    group_space,
    is_connected,
    uniform_space,
    validate_metric,
)
from metriclines.graphs import graph_dist_rows, onetwo_line_masks
from metriclines.metric import int_metric_line_masks
from lemmas import (
    ArityMismatch,
    NotOneTwoSpace,
    adjacency_from_rows,
    are_twins,
    distinct_line_case,
    find_twins,
    geodesic_path,
    graph_metric,
    max_clique_size,
    maximal_twin_free,
    space_to_graph,
)
from helpers import labeled_graph_rows, oracle_line_sets


def random_graph(rng, n, p=0.5):
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p
    ]
    return graph_from_edges(n, edges)


def reference_bfs(rows, src):
    """Plain list-based BFS over an adjacency matrix."""
    n = len(rows)
    dist = [-1] * n
    dist[src] = 0
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(n):
                if rows[u][v] and dist[v] == -1:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


class TestGraphBasics:
    def test_rejects_self_loop(self):
        with pytest.raises(BadParams):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(BadParams):
            graph_from_edges(3, [(0, 3)])

    def test_adjacency_round_trip(self):
        rows = [[0, 1, 0], [1, 0, 1], [0, 1, 0]]
        G = adjacency_from_rows(rows)
        assert G.sorted_edges() == ((0, 1), (1, 2))

    def test_distances_match_reference_bfs(self):
        rng = random.Random(5)
        for _ in range(20):
            n = rng.randint(2, 8)
            G = random_graph(rng, n)
            rows = [[1 if G.adj[i] >> j & 1 else 0 for j in range(n)] for i in range(n)]
            if not is_connected(G):
                with pytest.raises(DisconnectedGraph):
                    graph_dist_rows(G)
                continue
            got = graph_dist_rows(G)
            for src in range(n):
                assert got[src] == reference_bfs(rows, src)

    def test_graph_metric_axioms_and_bound(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        S = graph_metric(G)
        assert max(max(row) for row in S.dist) <= 4
        validate_metric(S.dist)

    def test_graph_metric_is_the_validated_hop_counts(self):
        classes = [G for n in range(1, 8) for G in enum_graphs(n, connected=True)]
        assert len(classes) == 996
        for G in classes:
            assert graph_metric(G) == validate_metric(graph_dist_rows(G))


class TestGeodesic:
    def test_path_graph_geodesic_is_whole_path(self):
        G = graph_from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert geodesic_path(G) == (0, 1, 2, 3)

    def test_property_holds_on_random_connected_graphs(self):
        rng = random.Random(11)
        found = 0
        while found < 15:
            G = random_graph(rng, rng.randint(2, 7), p=0.6)
            if not is_connected(G):
                continue
            found += 1
            path = geodesic_path(G)
            rows = graph_dist_rows(G)
            t = diameter(G)
            assert len(path) == t + 1
            for i in range(len(path)):
                for j in range(i + 1, len(path)):
                    assert rows[path[i]][path[j]] == j - i

    def test_tie_break_lex_smallest_diametral_pair(self):
        # a 4-cycle has four diametral pairs; (0, 2) is the smallest
        G = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        path = geodesic_path(G)
        assert path[0] == 0 and path[-1] == 2
        # predecessor tie-break picks vertex 1 over 3
        assert path == (0, 1, 2)

    def test_single_vertex(self):
        assert geodesic_path(graph_from_edges(1, [])) == (0,)


class TestOneTwoCorrespondence:
    def test_forward_then_backward_is_identity(self):
        rng = random.Random(3)
        for _ in range(10):
            G = random_graph(rng, rng.randint(1, 7))
            S = graph_to_space(G)
            back = space_to_graph(S)
            assert back.adj == G.adj

    def test_forward_accepts_disconnected(self):
        G = graph_from_edges(4, [(0, 1)])
        S = graph_to_space(G)
        assert S.dist[2][3] == 2

    def test_backward_requires_one_two(self):
        S = graph_metric(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        assert S.non_one_two_pair is not None
        with pytest.raises(NotOneTwoSpace):
            space_to_graph(S)

    def test_every_one_two_matrix_is_a_metric(self):
        for rows in labeled_graph_rows(4):
            S = graph_to_space(adjacency_from_rows(rows))
            validate_metric(S.dist)


class TestTwins:
    def test_twins_in_group_space(self):
        S = group_space(3, 3)
        assert are_twins(S, 0, 1)
        assert not are_twins(S, 0, 3)

    def test_twin_relation_symmetric(self):
        rng = random.Random(9)
        for _ in range(10):
            G = random_graph(rng, 6)
            S = graph_to_space(G)
            for u, v in itertools.combinations(range(6), 2):
                assert are_twins(S, u, v) == are_twins(S, v, u)

    def test_twins_need_distance_two_and_equal_rows(self):
        S = graph_to_space(graph_from_edges(4, [(0, 1), (0, 2), (1, 2)]))
        # 3 is isolated: d(3, x) = 2 for all x, but rows differ from 0's
        assert not are_twins(S, 0, 3)

    def test_find_twins_lists_unordered_pairs(self):
        S = group_space(2, 2)
        assert find_twins(S) == frozenset({(0, 1), (2, 3)})

    def test_maximal_twin_free_greedy(self):
        S = group_space(3, 3)
        assert maximal_twin_free(S) == frozenset({0, 3, 6})

    def test_maximal_twin_free_is_maximal(self):
        rng = random.Random(13)
        for _ in range(10):
            S = graph_to_space(random_graph(rng, 6))
            kept = maximal_twin_free(S)
            for u, v in itertools.combinations(sorted(kept), 2):
                assert not are_twins(S, u, v)
            for p in set(range(6)) - kept:
                assert any(are_twins(S, p, q) for q in kept)


class TestDistinctLineCases:
    def setup_method(self):
        self.S = group_space(3, 3)

    def test_unknown_case(self):
        with pytest.raises(BadParams):
            distinct_line_case(self.S, "vii", (0, 1, 2))

    def test_arity_enforced(self):
        with pytest.raises(ArityMismatch) as exc:
            distinct_line_case(self.S, "i", (0, 1, 2))
        assert (exc.value.expected, exc.value.got) == (4, 3)

    def test_repeated_points_rejected(self):
        with pytest.raises(BadParams):
            distinct_line_case(self.S, "iv", (0, 1, 0))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            distinct_line_case(self.S, "vi", (0, 1, 99))

    def test_requires_one_two_space(self):
        S = graph_metric(graph_from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        with pytest.raises(NotOneTwoSpace):
            distinct_line_case(S, "i", (0, 1, 2, 3))

    def test_table_checked_once_per_space(self, monkeypatch):
        scans = []
        scan = MetricSpace.non_one_two_pair.func
        counted = cached_property(lambda S: scans.append(S) or scan(S))
        counted.__set_name__(MetricSpace, "non_one_two_pair")
        monkeypatch.setattr(MetricSpace, "non_one_two_pair", counted)
        # in group_space(3, 3) the points of cases iii-v meet the distance
        # part of their hypothesis, so each reaches its twin test
        cases = (
            ("i", (0, 3, 6, 1)), ("ii", (0, 3, 1, 2)), ("iii", (0, 1, 3, 4)),
            ("iv", (0, 3, 6)), ("v", (0, 3, 4)), ("vi", (1, 0, 2)),
        )
        first, second = group_space(3, 3), group_space(3, 3)
        for S in (first, second, first):
            for case, pts in cases:
                distinct_line_case(S, case, pts)
        assert [S is first for S in scans] == [True, False]

    def test_case_i_on_all_ones(self):
        S = uniform_space(4, 1)
        applies, holds = distinct_line_case(S, "i", (0, 1, 2, 3))
        assert applies and holds

    def test_case_ii_mixed_distances(self):
        applies, holds = distinct_line_case(self.S, "ii", (0, 3, 1, 2))
        assert applies and holds

    def test_case_vi_shared_point(self):
        applies, holds = distinct_line_case(self.S, "vi", (1, 0, 2))
        assert applies and holds

    def test_applies_false_when_hypothesis_fails(self):
        applies, _ = distinct_line_case(self.S, "i", (0, 1, 2, 3))
        assert not applies  # d(0,1) = 2 inside a group

    def test_exhaustive_small(self):
        # applies implies distinct lines, over every labeled graph on 4 vertices
        for rows in labeled_graph_rows(4):
            S = graph_to_space(adjacency_from_rows(rows))
            for case, arity in (
                ("i", 4), ("ii", 4), ("iii", 4), ("iv", 3), ("v", 3), ("vi", 3)
            ):
                for pts in itertools.permutations(range(4), arity):
                    applies, holds = distinct_line_case(S, case, pts)
                    assert holds or not applies


class TestLineMasks:
    def test_onetwo_masks_match_generic_lines(self):
        rng = random.Random(21)
        for _ in range(25):
            n = rng.randint(2, 7)
            G = random_graph(rng, n)
            S = graph_to_space(G)
            got = {frozenset(_bits(m)) for m in onetwo_line_masks(n, G.adj)}
            assert got == oracle_line_sets(S.dist)

    def test_int_metric_masks_match_generic_lines(self):
        rng = random.Random(22)
        seen = 0
        while seen < 15:
            G = random_graph(rng, rng.randint(2, 7), p=0.55)
            if not is_connected(G):
                continue
            seen += 1
            S = graph_metric(G)
            masks = int_metric_line_masks(G.n, graph_dist_rows(G))
            got = {frozenset(_bits(m)) for m in masks}
            assert got == oracle_line_sets(S.dist)


def _bits(mask):
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


class TestMaxClique:
    def test_known_cliques(self):
        G = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        assert max_clique_size(G.n, G.adj) == 3

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_matches_brute_force(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        G = random_graph(rng, n)
        best = 1
        for size in range(2, n + 1):
            for sub in itertools.combinations(range(n), size):
                if all(G.adj[a] >> b & 1 for a, b in itertools.combinations(sub, 2)):
                    best = max(best, size)
        assert max_clique_size(n, G.adj) == best
