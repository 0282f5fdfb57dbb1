"""Tests for the exact minimum-line searches."""

from __future__ import annotations

import math

import pytest

from metriclines import (
    BadParams,
    Graph,
    SizeCap,
    TripleSystem,
    conjecture_scan,
    load_graph_text,
    load_triples_text,
    min_lines,
    path_graph,
)
from metriclines import search
from metriclines.search import _SPECS, UNIVERSES, triple_line_masks

import helpers


def _masks(universe, instance):
    *_, masks_of = _SPECS[universe]
    return masks_of(instance)


class TestKnownMinima:
    def test_hypergraph_minimum_n3(self):
        rep = min_lines("hypergraphs", 3)
        assert rep.minimum == 3
        assert rep.exclude_universal is True
        assert isinstance(rep.witness, TripleSystem)
        assert rep.witness.sorted_edges() == ()
        assert rep.instances_examined == 2

    def test_hypergraph_minima_small(self):
        assert min_lines("hypergraphs", 4).minimum == 4
        assert min_lines("hypergraphs", 5).minimum == 5

    def test_one_two_minimum_n3(self):
        rep = min_lines("one_two", 3)
        assert rep.minimum == 1
        assert rep.exclude_universal is False
        assert isinstance(rep.witness, Graph)
        # the witness is a path through vertex 2, in canonical labeling
        assert rep.witness.sorted_edges() == ((0, 2), (1, 2))

    def test_one_two_minima_table(self):
        # exact values of the 1-2 minimum for every searchable size
        expected = {2: 1, 3: 1, 4: 1, 5: 4, 6: 4, 7: 7}
        for n, want in expected.items():
            assert min_lines("one_two", n).minimum == want

    def test_one_two_excluding_universal(self):
        rep = min_lines("one_two", 3, exclude_universal=True)
        assert rep.minimum == 3

    def test_graph_metric_minima(self):
        assert min_lines("graph_metrics", 3).minimum == 3
        assert min_lines("graph_metrics", 4).minimum == 6
        assert min_lines("graph_metrics", 5).minimum == 6

    def test_hypergraph_log_floor(self):
        # the minimum always clears ceil(log2 n) on the searched sizes
        for n in (3, 4, 5):
            rep = min_lines("hypergraphs", n)
            assert rep.minimum >= math.ceil(math.log2(n))


class TestWitnessValidity:
    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_witness_attains_minimum(self, universe):
        rep = min_lines(universe, 4)
        masks = set(_masks(universe, rep.witness))
        assert len(masks) == rep.minimum
        if rep.exclude_universal:
            assert (1 << rep.n) - 1 not in masks

    def test_witness_text_round_trips(self, capsys):
        rep = min_lines("hypergraphs", 4)
        back = load_triples_text(helpers.cli_json(capsys, "search", "hypergraphs", "4")["witness"])
        assert back.edges == rep.witness.edges
        rep = min_lines("one_two", 4)
        back = load_graph_text(helpers.cli_json(capsys, "search", "one_two", "4")["witness"])
        assert back.adj == rep.witness.adj


class TestValidationAndCaps:
    def test_unknown_universe(self):
        with pytest.raises(BadParams):
            min_lines("lattices", 4)

    def test_too_small(self):
        with pytest.raises(BadParams):
            min_lines("one_two", 1)
        with pytest.raises(BadParams):
            min_lines("one_two", 2, exclude_universal=True)

    def test_caps(self):
        with pytest.raises(SizeCap):
            min_lines("hypergraphs", 7)
        with pytest.raises(SizeCap):
            min_lines("one_two", 9)
        with pytest.raises(SizeCap):
            min_lines("graph_metrics", 9)

    def test_defaults_per_universe(self):
        # the parser offers UNIVERSES without importing this module
        assert tuple(_SPECS) == UNIVERSES
        defaults = {universe: _SPECS[universe][1] for universe in UNIVERSES}
        assert defaults == {
            "hypergraphs": True,
            "one_two": False,
            "graph_metrics": True,
        }
        for universe in UNIVERSES:
            rep = min_lines(universe, 3)
            assert rep.exclude_universal is defaults[universe]


class TestTripleLineMasks:
    def test_edgeless(self):
        T = TripleSystem(3, {})
        assert sorted(triple_line_masks(T)) == [0b011, 0b101, 0b110]

    def test_single_triple_merges_all(self):
        T = TripleSystem(3, {(0, 1): 0b100, (0, 2): 0b010, (1, 2): 0b001})
        assert set(triple_line_masks(T)) == {0b111}


class TestConjectureScan:
    def test_small_scan(self):
        rep = conjecture_scan(3)
        assert rep.violators == ()
        assert rep.minima == {3: 3}
        assert rep.instances_examined == 2

    def test_scan_to_five(self):
        rep = conjecture_scan(5)
        assert rep.violators == ()
        assert rep.minima == {3: 3, 4: 6, 5: 6}
        assert rep.instances_examined == 2 + 6 + 21

    def test_vacuous_sizes(self):
        rep = conjecture_scan(2)
        assert rep.violators == ()
        assert rep.minima == {}
        assert rep.instances_examined == 0

    def test_scan_agrees_with_min_lines(self):
        rep = conjecture_scan(7)
        searches = [min_lines("graph_metrics", n) for n in range(3, 8)]
        assert rep.minima == {s.n: s.minimum for s in searches}
        assert rep.instances_examined == sum(s.instances_examined for s in searches)

    def test_violator_is_reported(self, monkeypatch):
        # no connected graph on 8 or fewer vertices violates the conjecture,
        # so each size yields a fake class with n - 1 lines, then an excluded one
        fakes = {n: path_graph(n - 1) for n in (3, 4)}

        def line_counts(universe, n, exclude_universal):
            assert (universe, exclude_universal) == ("graph_metrics", True)
            return iter([(fakes[n], n - 1), (fakes[n], None)])

        monkeypatch.setattr(search, "_line_counts", line_counts)
        rep = conjecture_scan(4)
        assert rep.violators == (fakes[3], fakes[4])
        assert rep.minima == {3: 2, 4: 3}
        assert rep.instances_examined == 4

    def test_cap(self):
        with pytest.raises(SizeCap):
            conjecture_scan(9)
        with pytest.raises(BadParams):
            conjecture_scan(0)


class TestReportSerialization:
    def test_json_dict_is_reproducible(self, capsys):
        a = helpers.cli_json(capsys, "search", "one_two", "4")
        b = helpers.cli_json(capsys, "search", "one_two", "4")
        assert a == b
        assert "elapsed_ms" not in a

    def test_timing_opt_in(self, capsys):
        with_timing = helpers.cli_json(capsys, "--timing", "search", "one_two", "3")
        assert "elapsed_ms" in with_timing
        assert isinstance(with_timing["elapsed_ms"], int)

    def test_scan_json_shape(self, capsys):
        d = helpers.cli_json(capsys, "scan", "4")
        assert d["minima"] == {"3": 3, "4": 6}
        assert d["violators"] == []
        assert "elapsed_ms" not in d

    @pytest.mark.parametrize("universe", UNIVERSES)
    def test_repeated_searches_give_equal_records(self, universe):
        for n in (3, 4):
            assert min_lines(universe, n) == min_lines(universe, n)

    def test_repeated_scans_give_equal_records(self):
        assert conjecture_scan(4) == conjecture_scan(4)
