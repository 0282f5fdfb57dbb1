from __future__ import annotations

import itertools
import random

import pytest

from metriclines import (
    BadParams,
    DegeneratePair,
    TooFewPoints,
    XInsideT,
    betweenness_triples,
    complete_quadruple,
    enum_triple_systems,
    fano,
    hyper_line,
    hyper_line_family,
    k34_condition,
    line_family,
    triple_system,
    uniform_space,
    vertex_signatures,
)
from metriclines.extremal import balanced_group_space, group_space, path_graph, pentagon
from metriclines.graphs import graph_to_space
from metriclines.metric import mask_points
from metriclines.triples import triple_line_masks
from helpers import oracle_triples, random_int_space, random_rational_space, reference_links


# the spaces of the acceptance criteria: the pentagon (1), the group spaces
# (6), random integer (7) and rational (3) spaces, and a path metric (8)
CRITERION_SPACES = [
    pentagon(),
    *(group_space(k, m) for k in (3, 4, 5) for m in (3, 4, 5)),
    balanced_group_space(12),
    *(random_int_space(random.Random(1729 + n), n) for n in range(3, 11)),
    *(random_rational_space(random.Random(seed), 7) for seed in range(4)),
    graph_to_space(path_graph(6)),
]


class TestConstruction:
    def test_edges_are_canonicalized(self):
        T = triple_system(4, [(2, 1, 0), (0, 1, 3)])
        assert T.sorted_edges() == ((0, 1, 2), (0, 1, 3))

    def test_rejects_repeated_vertices(self):
        with pytest.raises(BadParams):
            triple_system(4, [(0, 0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(BadParams):
            triple_system(3, [(0, 1, 3)])

    def test_fano_shape(self):
        T = fano()
        assert T.n == 7
        assert len(T.sorted_edges()) == 7
        # a Steiner triple system: every pair lies in exactly one edge
        for u, v in itertools.combinations(range(7), 2):
            hits = [e for e in T.sorted_edges() if u in e and v in e]
            assert len(hits) == 1

    def test_complete_quadruple(self):
        T = complete_quadruple()
        assert T.n == 4
        assert len(T.sorted_edges()) == 4


class TestBetweennessTriples:
    def test_matches_oracle_on_random_spaces(self):
        for seed in range(8):
            S = random_rational_space(random.Random(seed), 5)
            assert set(betweenness_triples(S).sorted_edges()) == oracle_triples(S.dist)

    def test_needs_three_points(self):
        with pytest.raises(TooFewPoints) as info:
            betweenness_triples(uniform_space(2, 1))
        assert str(info.value) == "need at least 3 points, got 2"

    def test_uniform_space_has_no_triples(self):
        S = random_int_space(random.Random(0), 4, lo=3, hi=3)
        assert betweenness_triples(S).sorted_edges() == ()

    @pytest.mark.parametrize("S", CRITERION_SPACES, ids=lambda S: f"n{S.n}")
    def test_matches_the_fraction_definition(self, S):
        T = betweenness_triples(S)
        assert T.edges == oracle_triples(S.dist)
        assert T.links == reference_links(S.n, T.edges)


def assert_views_match_edges(T, edges: set) -> None:
    """Everything TripleSystem reads off its links, against the same thing
    defined on the edge tuples."""
    n = T.n
    assert T.links == reference_links(n, edges)
    assert list(T.links) == sorted(T.links) and all(T.links.values())
    assert T.edges == edges
    assert T.sorted_edges() == tuple(sorted(edges)) == tuple(T.iter_edges())
    assert T.edge_count() == len(edges)
    for t in itertools.product(range(n), repeat=3):
        assert T.has_edge(*t) == (tuple(sorted(t)) in edges)
    lines = []
    for u, v in itertools.combinations(range(n), 2):
        line = {u, v}.union(*(e for e in edges if u in e and v in e))
        assert hyper_line(T, u, v) == hyper_line(T, v, u) == line
        lines.append(sum(1 << w for w in line))
    assert triple_line_masks(T) == lines


class TestLinksMatchTheEdgeTuples:
    def test_every_labelled_system_on_five_points(self):
        triples = list(itertools.combinations(range(5), 3))
        for bits in range(1 << len(triples)):
            edges = {t for k, t in enumerate(triples) if bits >> k & 1}
            assert_views_match_edges(triple_system(5, edges), edges)

    def test_every_class_on_six_points(self):
        classes = enum_triple_systems(6)
        assert len(classes) == 2136
        for T in classes:
            assert_views_match_edges(T, set(T.edges))


class TestHyperLines:
    def test_line_is_pair_plus_edge_partners(self):
        T = triple_system(5, [(0, 1, 2), (0, 1, 3)])
        assert hyper_line(T, 0, 1) == {0, 1, 2, 3}
        assert hyper_line(T, 3, 4) == {3, 4}
        # on every class on 5 points, for every pair, the line read from the
        # edges through the pair is the one triple_line_masks gives that pair
        for T in enum_triple_systems(5):
            pairs = itertools.combinations(range(5), 2)
            for (u, v), mask in zip(pairs, triple_line_masks(T)):
                assert hyper_line(T, u, v) == hyper_line(T, v, u) == set(mask_points(mask))

    def test_degenerate_pair(self):
        with pytest.raises(DegeneratePair):
            hyper_line(triple_system(3, []), 1, 1)

    def test_family_agrees_with_metric_route(self):
        # the space and its triple system induce identical line families
        for seed in range(8):
            S = random_int_space(random.Random(seed), 6)
            assert line_family(S) == hyper_line_family(betweenness_triples(S))

    def test_exchange_property(self):
        T = fano()
        for u, v, w in itertools.permutations(range(7), 3):
            assert (w in hyper_line(T, u, v)) == (v in hyper_line(T, u, w))


class TestSignatures:
    def test_fano_has_exactly_n_lines_none_universal(self):
        fam = hyper_line_family(fano())
        assert fam.count == 7
        assert not fam.has_universal()
        assert all(len(ln) == 3 for ln in fam.lines)
        sig, injective = vertex_signatures(fano())
        assert injective
        assert all(len(ids) == 3 for ids in sig.values())

    def test_signatures_injective_without_universal_line(self):
        T = triple_system(4, [(0, 1, 2)])
        fam = hyper_line_family(T)
        assert not fam.has_universal()
        sig, injective = vertex_signatures(T)
        assert injective
        assert len(set(sig.values())) == T.n

    def test_signature_sets_index_into_family(self):
        T = triple_system(4, [(0, 1, 2), (1, 2, 3)])
        fam = hyper_line_family(T)
        sig, _ = vertex_signatures(T)
        for v, ids in sig.items():
            for i in ids:
                assert v in fam.lines[i]
            for i in set(range(fam.count)) - ids:
                assert v not in fam.lines[i]


class TestK34Condition:
    def test_true_when_no_quadruple(self):
        T = triple_system(5, [(0, 1, 2)])
        assert k34_condition(T, 0, {1, 2, 3})

    def test_false_on_complete_quadruple(self):
        T = complete_quadruple()
        assert not k34_condition(T, 0, {1, 2, 3})

    def test_needs_all_four_triples(self):
        T = triple_system(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])  # {1,2,3} missing
        assert k34_condition(T, 0, {1, 2, 3})

    def test_x_inside_tset(self):
        with pytest.raises(XInsideT):
            k34_condition(complete_quadruple(), 1, {1, 2, 3})

    def test_empty_tset(self):
        assert k34_condition(complete_quadruple(), 0, set())
