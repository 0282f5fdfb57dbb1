"""Tests for isomorph-free enumeration of graphs and triple systems."""

from __future__ import annotations

import hashlib
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
    _classes,
    _graph_classes,
    _graph_extend,
    _graph_rules,
    _link_triple,
    _min_placement,
    _triple_classes,
    _triple_extend,
    _triple_rules,
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

# sha256 of repr(_graph_classes(n)) and repr(_triple_classes(n)), recorded
# from the generator that recomputed every column at every placement node:
# they pin each tuple and its position beyond the sizes the dedup oracle
# reaches
GRAPH_CLASS_SHA256 = {
    1: "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
    2: "7b0d574730ade655e7410b09ecdb1fb6d94c828aa7f38657aa188e838149cee9",
    3: "26d204546d766cdc542ff08304dffd524bec6639555290c905264861fa7c9358",
    4: "c150530ee3504309eb9dff879081efdecdf44a4233463f54ca78c42a4a5790b0",
    5: "9c0da8e2cf000c46432b57f597b8aacdf5e579d8dd45b16816496fa3ad99bb2a",
    6: "44c530a0489cdc764e6da7d60bb7e07fd32d0e43af7f900315d0bfa07b07767c",
    7: "180ed30dba756fd8f370032a0f3f511e43dd5e7597b5f8a9ef3ffd0d4748bec5",
    8: "dee690a989a538c434b856d667ef245e58fc950e01d91bc92f85f2e0c6547a49",
}
TRIPLE_CLASS_SHA256 = {
    1: "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
    2: "6af22f1bc2d94295cb210c6a0734b0d7459c92909665da49d949785ecea55bf8",
    3: "7b0d574730ade655e7410b09ecdb1fb6d94c828aa7f38657aa188e838149cee9",
    4: "0af925a736d1ed24a6b90e45bc9728901402ae8359a07c8b29fbc1966069f69e",
    5: "c9fbf1c5abe19a99f758e2bedc6116e3f2e72cd76f136ddfc364dc7e1206d819",
    6: "0f26de6a15944ed3116276363402d003dc8817548bb193d7e607da5eae701da4",
}


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

    @pytest.mark.parametrize("n", sorted(GRAPH_CLASS_SHA256))
    def test_graph_order_pinned(self, n):
        digest = hashlib.sha256(repr(_graph_classes(n)).encode()).hexdigest()
        assert digest == GRAPH_CLASS_SHA256[n]

    @pytest.mark.parametrize("n", sorted(TRIPLE_CLASS_SHA256))
    def test_triple_order_pinned(self, n):
        digest = hashlib.sha256(repr(_triple_classes(n)).encode()).hexdigest()
        assert digest == TRIPLE_CLASS_SHA256[n]

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

    def test_triples_below_three_points_have_no_columns(self):
        assert canonical_triples_cols(2, frozenset()) == ()

    def test_round_trip_from_cols(self):
        for G in enum_graphs(4):
            cols = canonical_graph_cols(4, G.adj)
            again = canonical_graph_cols(4, graph_from_cols(4, cols).adj)
            assert again == cols


def _random_graph(rng, n):
    """Adjacency rows and edge bitmasks of a random graph of random density."""
    p = rng.random()
    edges = {1 << u | 1 << v for u, v in itertools.combinations(range(n), 2) if rng.random() < p}
    adj = [sum(1 << v for v in range(n) if 1 << u | 1 << v in edges) for u in range(n)]
    return adj, edges


def _random_triples(rng, n):
    """Links and edge bitmasks of a random triple system of random density."""
    p = rng.random()
    triples = [t for t in itertools.combinations(range(n), 3) if rng.random() < p]
    link = [[0] * n for _ in range(n)]
    for t in triples:
        _link_triple(link, t)
    return link, triples, {sum(1 << v for v in t) for t in triples}


class TestDefinitionOracle:
    """The minimality search against the minimum readout over every placement.

    In target mode the search is given the readout of a random placement,
    and of the minimum itself, and must return None exactly when some
    placement reads out less.
    """

    @staticmethod
    def _check_targets(rng, n, lead, edges, rules, oracle):
        order = list(range(n))
        rng.shuffle(order)
        for target in (helpers.readout_cols(n, lead, edges, order), oracle):
            found = _min_placement(n, *rules, target)
            assert (found is None) == (oracle < target)
            assert found in (None, target)

    def test_graphs(self):
        rng = random.Random(2401)
        for n in range(2, 8):
            for _ in range(8 if n == 7 else 20):
                adj, edges = _random_graph(rng, n)
                oracle = helpers.oracle_min_cols(n, 1, edges)
                assert canonical_graph_cols(n, adj) == oracle[1:]
                self._check_targets(rng, n, 1, edges, _graph_rules(adj), oracle)

    def test_triple_systems(self):
        rng = random.Random(2402)
        for n in range(3, 7):
            for _ in range(30):
                link, triples, edges = _random_triples(rng, n)
                oracle = helpers.oracle_min_cols(n, 2, edges)
                assert canonical_triples_cols(n, frozenset(triples)) == oracle[2:]
                self._check_targets(rng, n, 2, edges, _triple_rules(link), oracle)

    @staticmethod
    def _check_cells(n, lead, edges, grow, order):
        """grow along order against the free vertices grouped by their readout."""
        cells = [(0, (1 << n) - 1)]
        for k, u in enumerate(order[:-1]):
            cells = grow(cells, u, order[:k])
            split: dict[int, int] = {}
            for w in order[k + 1 :]:
                col = helpers.readout_cols(k + 2, lead, edges, order[: k + 1] + (w,))[-1]
                split[col] = split.get(col, 0) | 1 << w
            assert cells == sorted(split.items())

    def test_cells_follow_the_definition(self):
        # any vertex takes the next slot here, not only one of the first
        # cell's: in a search, triple cells come out of order too rarely to
        # test their sort
        rng = random.Random(2403)
        for n in range(2, 9):
            for _ in range(10):
                order = tuple(rng.sample(range(n), n))
                adj, edges = _random_graph(rng, n)
                self._check_cells(n, 1, edges, _graph_rules(adj)[0], order)
                link, _, edges = _random_triples(rng, n)
                self._check_cells(n, 2, edges, _triple_rules(link)[0], order)


def _counted(rules_of, calls: list[int]):
    """rules_of with every call of its grow callback counted in calls[0]."""

    def rules(state):
        grow, twins = rules_of(state)

        def counting(*args):
            calls[0] += 1
            return grow(*args)

        return counting, twins

    return rules


class TestWorkCounters:
    """Grow calls over a whole generation: the size of the search tree.

    A wrapped rules_of is a new cache key of _classes, so every level is
    generated afresh, heads included.
    """

    def test_graph_grow_calls(self):
        calls = [0]
        _classes(7, 1, _graph_extend, _counted(_graph_rules, calls))
        assert calls[0] == 95_011

    def test_triple_grow_calls(self):
        calls = [0]
        _classes(5, 2, _triple_extend, _counted(_triple_rules, calls))
        assert calls[0] == 4_492


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
