from __future__ import annotations

import random
from fractions import Fraction

import pytest

from metriclines import (
    BadParams,
    ParseError,
    TripleSystem,
    dump_graph,
    dump_metric,
    dump_triples,
    format_rational,
    graph_from_edges,
    load_graph_text,
    load_metric_text,
    load_triples_text,
    parse_rational,
    triple_system,
)
from helpers import random_rational_space


class TestRationals:
    def test_integers_print_bare(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-2)) == "-2"

    def test_fractions_print_lowest_terms(self):
        assert format_rational(Fraction(6, 4)) == "3/2"

    def test_parse_accepts_unreduced(self):
        assert parse_rational("6/4") == Fraction(3, 2)
        assert parse_rational("+2") == Fraction(2)

    def test_parse_keeps_integers_as_ints(self):
        assert type(parse_rational("3")) is int and parse_rational("3") == 3
        assert type(parse_rational("-2")) is int
        assert type(parse_rational("6/4")) is Fraction
        assert type(parse_rational("4/2")) is Fraction and parse_rational("4/2") == 2

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "1.5", "a/b", "1/ 2", "--1"):
            with pytest.raises(BadParams):
                parse_rational(bad)


class TestMetricFiles:
    def test_round_trip(self):
        for seed in range(5):
            S = random_rational_space(random.Random(seed), 4)
            again = load_metric_text(dump_metric(S))
            assert again.dist == S.dist

    def test_blank_lines_ignored(self):
        text = "2\n\n0 1\n\n1 0\n"
        S = load_metric_text(text)
        assert S.n == 2

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            load_metric_text("2\n0 x\n1 0\n", source="m.txt")
        err = exc.value
        assert err.source == "m.txt"
        assert (err.line, err.column) == (2, 3)

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            load_metric_text("3\n0 1 1\n1 0 1\n")

    def test_validation_runs_after_parse(self):
        # structurally fine, but asymmetric
        from metriclines import AsymmetryError

        with pytest.raises(AsymmetryError):
            load_metric_text("2\n0 1\n2 0\n")


class TestEdgeListFiles:
    def test_graph_round_trip(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert load_graph_text(dump_graph(G)).adj == G.adj

    def test_triples_round_trip(self):
        T = triple_system(5, [(0, 1, 4), (1, 2, 3)])
        assert load_triples_text(dump_triples(T)).edges == T.edges

    def test_header_must_hold_n_and_m(self):
        with pytest.raises(ParseError) as exc:
            load_graph_text("3\n0 1\n")
        assert exc.value.line == 1

    def test_edge_count_enforced(self):
        with pytest.raises(ParseError):
            load_graph_text("3 2\n0 1\n")

    def test_vertices_strictly_increasing(self):
        with pytest.raises(ParseError):
            load_graph_text("3 1\n1 0\n")
        with pytest.raises(ParseError):
            load_triples_text("4 1\n0 2 1\n")

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ParseError):
            load_graph_text("3 2\n0 1\n0 1\n")

    def test_out_of_range_vertex_names_column(self):
        with pytest.raises(ParseError) as exc:
            load_graph_text("3 1\n0 7\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_graph_text("")


class TestIntegerTokens:
    """Which vertex and header tokens parse, and the exact errors of the rest."""

    @pytest.mark.parametrize(
        "token,value",
        [("3", 3), ("+3", 3), ("03", 3), ("٣", 3), ("３", 3), ("+٣", 3)],
    )
    def test_accepted_vertex_tokens(self, token, value):
        T = load_triples_text(f"5 1\n0 1 {token}\n")
        assert T.edges == frozenset({(0, 1, value)})

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5 1\n0 1 1_0\n", "t.txt:2:5: vertex must be an integer, got '1_0'"),
            ("5 1\n0 1 3.0\n", "t.txt:2:5: vertex must be an integer, got '3.0'"),
            ("5 1\n0 1 ++3\n", "t.txt:2:5: vertex must be an integer, got '++3'"),
            ("5 1\n0 1 0x3\n", "t.txt:2:5: vertex must be an integer, got '0x3'"),
            ("5 1\n-1 1 3\n", "t.txt:2:1: vertex -1 out of range for n=5"),
            ("5 1\n0 1 5\n", "t.txt:2:5: vertex 5 out of range for n=5"),
            ("5 1\n0 2 1\n", "t.txt:2:1: triple must be strictly increasing: 0 2 1"),
            ("5 1\n0 1 +1\n", "t.txt:2:1: triple must be strictly increasing: 0 1 +1"),
            ("5 2\n0 1 2\n0 1 +2\n", "t.txt:3:1: duplicate triple: 0 1 +2"),
            ("5 1\n0 1\n", "t.txt:2:4: expected 3 vertices, found 2"),
            ("x 1\n0 1 2\n", "t.txt:1:1: n must be an integer, got 'x'"),
            ("5 1_0\n0 1 2\n", "t.txt:1:3: m must be an integer, got '1_0'"),
            ("-5 1\n0 1 2\n", "t.txt:1:1: n and m must be nonnegative"),
            ("0 0\n", "t.txt:1:1: n must be at least 1, got 0"),
        ],
    )
    def test_rejected_triples_files(self, text, message):
        with pytest.raises(ParseError) as exc:
            load_triples_text(text, source="t.txt")
        assert str(exc.value) == message

    def test_graph_vertices_share_the_rules(self):
        assert load_graph_text("3 1\n+0 ٢\n").adj == (4, 0, 1)
        with pytest.raises(ParseError) as exc:
            load_graph_text("3 1\n0 1_0\n", source="g.txt")
        assert str(exc.value) == "g.txt:2:3: vertex must be an integer, got '1_0'"


class TestTripleSystemEdges:
    def test_unsorted_edges_are_sorted(self):
        T = TripleSystem(5, frozenset({(3, 1, 0), (0, 2, 4), (1, 2, 3)}))
        assert T.edges == frozenset({(0, 1, 3), (0, 2, 4), (1, 2, 3)})
        assert triple_system(4, [[2, 0, 1]]).edges == frozenset({(0, 1, 2)})

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((0, 1), "not a triple: (0, 1)"),
            ((0, 1, 2, 3), "not a triple: (0, 1, 2, 3)"),
            ((0, 0, 1), "not a triple: (0, 0, 1)"),
            ((2, 1, 1), "not a triple: (2, 1, 1)"),
            ((0, 1, 5), "triple (0, 1, 5) out of range for n=5"),
            ((5, 1, 0), "triple (5, 1, 0) out of range for n=5"),
            ((-1, 1, 2), "triple (-1, 1, 2) out of range for n=5"),
        ],
    )
    def test_bad_edges(self, edge, message):
        with pytest.raises(BadParams) as exc:
            TripleSystem(5, frozenset({edge}))
        assert str(exc.value) == message
