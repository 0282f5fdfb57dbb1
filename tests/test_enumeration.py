"""Tests for isomorph-free enumeration of graphs and triple systems."""

from __future__ import annotations

import itertools
import random

import pytest

from metriclines import (
    MAX_GRAPH_N,
    MAX_TRIPLES_N,
    SizeCap,
    enum_graphs,
    enum_triple_systems,
)
from metriclines.enumeration import (
    _graph_classes,
    _triple_classes,
    canonical_graph_cols,
    canonical_triples_cols,
    graph_from_cols,
    triples_from_cols,
)

import helpers

# class counts for graphs on n vertices, n = 1..8 (OEIS A000088, A001349)
GRAPH_COUNTS = [1, 2, 4, 11, 34, 156, 1044, 12346]
CONNECTED_COUNTS = [1, 1, 2, 6, 21, 112, 853, 11117]
# class counts for 3-uniform hypergraphs, n = 3..5 (n = 6 tested separately)
TRIPLE_COUNTS = {3: 2, 4: 5, 5: 34}


class TestGraphCounts:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_all_graphs(self, n):
        assert len(enum_graphs(n)) == GRAPH_COUNTS[n - 1]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_connected_graphs(self, n):
        assert len(enum_graphs(n, connected=True)) == CONNECTED_COUNTS[n - 1]

    def test_labeled_dedup_matches(self):
        # canonicalizing every labeled 4-vertex graph finds the same classes
        forms = set()
        for rows in helpers.labeled_graph_rows(4):
            adj = [sum(rows[i][j] << j for j in range(4)) for i in range(4)]
            forms.add(canonical_graph_cols(4, adj))
        assert len(forms) == 11
        assert forms == {canonical_graph_cols(4, G.adj) for G in enum_graphs(4)}

    def test_ordering_is_sorted(self):
        cols = [canonical_graph_cols(5, G.adj) for G in enum_graphs(5)]
        assert cols == sorted(cols)


class TestTripleCounts:
    @pytest.mark.parametrize("n", sorted(TRIPLE_COUNTS))
    def test_counts(self, n):
        assert len(enum_triple_systems(n)) == TRIPLE_COUNTS[n]

    def test_count_n6(self):
        # the largest supported size; orderly generation takes a few seconds
        assert len(enum_triple_systems(6)) == 2136

    def test_labeled_dedup_matches(self):
        triples = list(itertools.combinations(range(4), 3))
        forms = set()
        for bits in range(1 << len(triples)):
            edges = frozenset(t for k, t in enumerate(triples) if bits >> k & 1)
            forms.add(canonical_triples_cols(4, edges))
        assert len(forms) == 5
        assert forms == {
            canonical_triples_cols(4, T.edges) for T in enum_triple_systems(4)
        }


class TestOrderlyGeneration:
    """The orderly generator against generate-and-dedup and the atlas."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_graph_classes_match_dedup(self, n):
        assert _graph_classes(n) == helpers.dedup_graph_classes(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_triple_classes_match_dedup(self, n):
        assert _triple_classes(n) == helpers.dedup_triple_classes(n)

    def test_atlas_bijection(self):
        import networkx as nx

        # graph_atlas_g() lists every graph on 0..7 vertices once up to isomorphism
        forms = {n: [] for n in range(1, 8)}
        for H in nx.graph_atlas_g()[1:]:
            n = H.number_of_nodes()
            adj = [sum(1 << v for v in H[u]) for u in range(n)]
            forms[n].append(canonical_graph_cols(n, adj))
        for n in range(1, 8):
            assert len(set(forms[n])) == len(forms[n])
            assert sorted(forms[n]) == [
                canonical_graph_cols(n, G.adj) for G in enum_graphs(n)
            ]


class TestCanonicalForms:
    def test_graph_reps_are_fixed_points(self):
        for G in enum_graphs(5):
            cols = canonical_graph_cols(5, G.adj)
            assert graph_from_cols(5, cols).adj == G.adj

    def test_triple_reps_are_fixed_points(self):
        for T in enum_triple_systems(5):
            cols = canonical_triples_cols(5, T.edges)
            assert triples_from_cols(5, cols).edges == T.edges

    def test_graph_relabeling_invariance(self):
        rng = random.Random(7)
        for G in enum_graphs(5):
            base = canonical_graph_cols(5, G.adj)
            for _ in range(3):
                perm = list(range(5))
                rng.shuffle(perm)
                adj = [0] * 5
                for i in range(5):
                    for j in range(5):
                        if G.adj[i] >> j & 1:
                            adj[perm[i]] |= 1 << perm[j]
                assert canonical_graph_cols(5, adj) == base

    def test_triple_relabeling_invariance(self):
        rng = random.Random(8)
        for T in enum_triple_systems(4):
            base = canonical_triples_cols(4, T.edges)
            for _ in range(4):
                perm = list(range(4))
                rng.shuffle(perm)
                edges = frozenset(
                    tuple(sorted(perm[x] for x in t)) for t in T.edges
                )
                assert canonical_triples_cols(4, edges) == base

    def test_round_trip_from_cols(self):
        for G in enum_graphs(4):
            cols = canonical_graph_cols(4, G.adj)
            again = canonical_graph_cols(4, graph_from_cols(4, cols).adj)
            assert again == cols


class TestCaps:
    def test_graph_cap(self):
        with pytest.raises(SizeCap):
            enum_graphs(MAX_GRAPH_N + 1)
        with pytest.raises(SizeCap):
            enum_graphs(0)

    def test_triples_cap(self):
        with pytest.raises(SizeCap):
            enum_triple_systems(MAX_TRIPLES_N + 1)
        with pytest.raises(SizeCap):
            enum_triple_systems(0)
