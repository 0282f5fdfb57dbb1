"""Tests for the named constructions, bound checks, and counting lemmas."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations

import pytest

from metriclines import (
    BadParams,
    Graph,
    IndexOutOfRange,
    PreconditionUnmet,
    TooFewPoints,
    balanced_group_space,
    check_bound,
    complete_graph,
    complete_quadruple,
    construct,
    dump_metric,
    extremes,
    graph_from_edges,
    group_space,
    line_family,
    path_graph,
    pentagon,
    power_bound,
    uniform_space,
)
from metriclines.extremal import balanced_group_count
from metriclines.graphs import graph_dist_rows
from metriclines.metric import int_metric_line_masks
from lemmas import (
    XInsideT,
    bucket_decomposition,
    calculus_check,
    equal_line_class,
    graph_metric,
    predicted_group_lines,
)

import helpers


class TestConstructions:
    def test_pentagon_distances(self):
        S = pentagon()
        assert S.n == 5
        assert S.dist[0][1] == 1 and S.dist[0][2] == 2 and S.dist[0][3] == 2
        # two steps around the cycle cost 2, one step costs 1
        for i in range(5):
            for j in range(i + 1, 5):
                gap = (j - i) % 5
                assert S.dist[i][j] == (2 if gap in (2, 3) else 1)

    def test_pentagon_line_count(self):
        fam = line_family(pentagon())
        assert fam.count == 10
        assert not any(len(line) == 5 for line in fam.lines)

    def test_group_space_shape(self):
        S = group_space(3, 2)
        assert S.n == 6
        # same block 2, different blocks 1
        assert S.dist[0][1] == 2
        assert S.dist[0][2] == 1

    def test_balanced_group_count_examples(self):
        for n, k in [(1, 1), (2, 1), (3, 2), (8, 3), (20, 6), (100, 17)]:
            assert balanced_group_count(n) == k

    def test_balanced_group_count_is_nearest(self):
        for n in range(1, 400):
            k = balanced_group_count(n)
            assert k >= 1
            best = min(
                range(1, n + 2),
                key=lambda c: abs((n * n / 2) ** (1 / 3) - c),
            )
            assert k == best

    def test_balanced_sizes_differ_by_at_most_one(self):
        for n in (5, 9, 14, 30):
            S = balanced_group_space(n)
            assert S.n == n
            # recover block sizes from the distance-2 equivalence
            seen = set()
            sizes = []
            for i in range(n):
                if i in seen:
                    continue
                block = {i} | {j for j in range(n) if j != i and S.dist[i][j] == 2}
                seen |= block
                sizes.append(len(block))
            assert max(sizes) - min(sizes) <= 1

    def test_construct_dispatch(self):
        assert construct("pentagon").n == 5
        assert construct("groups", 3, 3).n == 9
        assert construct("groups_balanced", 10).n == 10
        assert isinstance(construct("path", 4), Graph)
        assert construct("path", 4).n == 5
        assert isinstance(construct("complete", 4), Graph)
        S = construct("uniform", 4, Fraction(3, 2))
        assert S.dist[0][1] == Fraction(3, 2)

    def test_construct_validation(self):
        with pytest.raises(BadParams):
            construct("nonesuch")
        with pytest.raises(BadParams):
            construct("pentagon", 3)
        with pytest.raises(BadParams):
            construct("groups", 3)
        with pytest.raises(BadParams):
            construct("groups", Fraction(5, 2), 3)

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: group_space(1, 3), "need at least 2 groups, got 1"),
            (lambda: group_space(3, 0), "group size must be positive, got 0"),
            (lambda: balanced_group_count(0), "need at least one point, got 0"),
            (lambda: path_graph(-1), "edge count must be nonnegative, got -1"),
            (lambda: complete_graph(0), "need at least one vertex, got 0"),
        ],
        ids=["one_group", "empty_groups", "no_points", "negative_path", "empty_complete"],
    )
    def test_builder_checks(self, build, message):
        with pytest.raises(BadParams) as info:
            build()
        assert str(info.value) == message

    def test_path_and_complete(self):
        P = path_graph(3)
        assert P.n == 4
        assert graph_metric(P).dist[0][3] == 3
        K = complete_graph(5)
        assert all(graph_metric(K).dist[i][j] == 1 for i in range(5) for j in range(i + 1, 5))


class TestGroupLinePrediction:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("m", [3, 4, 5])
    def test_prediction_matches_brute_force(self, k, m):
        S = group_space(k, m)
        fam = line_family(S)
        assert fam.count == predicted_group_lines(k, m)
        assert not any(len(line) == S.n for line in fam.lines)

    def test_small_parameters_rejected(self):
        for k, m in [(2, 3), (3, 2), (1, 1)]:
            with pytest.raises(BadParams):
                predicted_group_lines(k, m)

    def test_formula_value(self):
        assert predicted_group_lines(3, 3) == 3 * 3 + 3
        assert predicted_group_lines(4, 5) == 4 * 10 + 6


class TestCheckBound:
    def test_pentagon_range(self):
        report = check_bound(pentagon(), "range")
        assert report.passed is True
        assert report.lines_found == 10
        assert report.params["n"] == 5
        assert report.params["rho"] == 2
        assert report.bound_lo <= report.bound_hi <= 10

    def test_cycle_graphs_corollary(self):
        # the 5-cycle has no universal line
        C5 = Graph(5, tuple(
            (1 << ((i + 1) % 5)) | (1 << ((i - 1) % 5)) for i in range(5)
        ))
        report = check_bound(C5, "graphs_corollary")
        assert report.passed
        report = check_bound(C5, "diam")
        assert report.passed

    def test_uniform_range(self):
        report = check_bound(uniform_space(6, 1), "range")
        assert report.passed
        assert report.params["rho"] == 1

    def test_onetwo_lower(self):
        report = check_bound(group_space(3, 3), "onetwo_lower")
        assert report.passed
        assert report.lines_found == predicted_group_lines(3, 3)

    def test_preconditions(self):
        # a path metric has a universal line
        with pytest.raises(PreconditionUnmet):
            check_bound(path_graph(3), "diam")
        # disconnected graph has no path metric
        G = Graph(4, (0, 0, 8, 4))
        with pytest.raises(PreconditionUnmet):
            check_bound(G, "graphs_corollary")
        # distances outside {1, 2}
        with pytest.raises(PreconditionUnmet):
            check_bound(graph_metric(path_graph(3)), "onetwo_lower")
        # a single point has no pairs, and no bound holds vacuously
        for bound_id, single in (
            ("range", uniform_space(1, 1)),
            ("onetwo_lower", uniform_space(1, 1)),
            ("diam", Graph(1, (0,))),
            ("graphs_corollary", Graph(1, (0,))),
        ):
            with pytest.raises(PreconditionUnmet, match=f"^{bound_id} bound needs at least"):
                check_bound(single, bound_id)

    def test_instance_type_mismatch(self):
        with pytest.raises(BadParams):
            check_bound(pentagon(), "diam")
        with pytest.raises(BadParams):
            check_bound(complete_graph(3), "range")
        with pytest.raises(BadParams):
            check_bound(pentagon(), "sparse_lemma")
        with pytest.raises(BadParams):
            check_bound(pentagon(), "calculus")
        with pytest.raises(BadParams) as info:
            check_bound(path_graph(3), "onetwo_lower")
        assert str(info.value) == "onetwo_lower bound takes a metric space"

    def test_report_serialization(self, tmp_path, capsys):
        path = tmp_path / "pentagon.txt"
        path.write_text(dump_metric(pentagon()))
        d = helpers.cli_json(capsys, "check", "range", path)
        assert d["pass"] is True
        assert d["lines_found"] == 10
        assert isinstance(d["bound_lo"], str)

    @pytest.mark.parametrize("bound_id", ["diam", "graphs_corollary"])
    def test_graph_count_is_the_distinct_masks(self, bound_id):
        rng = random.Random(29)
        counted = raised = 0
        for _ in range(120):
            n = rng.randint(2, 14)
            # a random spanning tree, then extra edges: always connected
            edges = [(v, rng.randrange(v)) for v in range(1, n)]
            edges += [(u, v) for u, v in combinations(range(n), 2) if rng.random() < 0.3]
            G = graph_from_edges(n, edges)
            masks = set(int_metric_line_masks(n, graph_dist_rows(G)))
            if (1 << n) - 1 in masks:
                with pytest.raises(PreconditionUnmet, match="universal line"):
                    check_bound(G, bound_id)
                raised += 1
            else:
                assert check_bound(G, bound_id).lines_found == len(masks)
                counted += 1
        assert counted > 20 and raised > 20

    def test_diam_sandwich_is_exact(self):
        lo, hi = power_bound("diam", {"t": 8}).sandwich()
        assert lo == hi == 2


class TestBucketDecomposition:
    def test_pentagon_example(self):
        tset, i = bucket_decomposition(pentagon(), 0)
        assert tset == frozenset({1, 4})
        assert i == 1

    def test_uniform_all_in_first_bucket(self):
        tset, i = bucket_decomposition(uniform_space(5, 1), 0)
        assert tset == frozenset({1, 2, 3, 4})
        assert i == 1

    def test_path_metric(self):
        S = graph_metric(path_graph(3))
        tset, i = bucket_decomposition(S, 0)
        assert tset == frozenset({1})
        assert i == 1

    def test_validation(self):
        with pytest.raises(TooFewPoints):
            bucket_decomposition(uniform_space(1, 1), 0)
        with pytest.raises(IndexOutOfRange):
            bucket_decomposition(pentagon(), 7)

    def test_pigeonhole_size(self):
        rng = random.Random(11)
        for _ in range(25):
            S = helpers.random_int_space(rng, rng.randint(3, 8))
            x = rng.randrange(S.n)
            lo, hi, rho = extremes(S)
            tset, i = bucket_decomposition(S, x)
            assert 1 <= i <= int(rho)
            assert len(tset) * int(rho) >= S.n - 1
            delta = lo
            for u in tset:
                assert i * delta <= S.dist[x][u] < (i + 1) * delta


class TestEqualLineClass:
    def test_uniform_lines_all_equal_pairs(self):
        # in a uniform space every line through x and v is just {x, v},
        # so all classes are singletons and the smallest v wins
        S = uniform_space(5, 1)
        got = equal_line_class(S, 0, {1, 2, 3, 4})
        assert got == frozenset({1})

    def test_complete_quadruple_hyperlines(self):
        T = complete_quadruple()
        got = equal_line_class(T, 0, {1, 2, 3})
        # every pair 0v lies in all triples containing both, and by symmetry
        # all three lines through 0 are the whole set
        assert got == frozenset({1, 2, 3})

    def test_group_space_class(self):
        S = group_space(3, 3)
        # points 3..8 are the two other blocks; lines through 0 and a
        # foreign point all collect the same set
        got = equal_line_class(S, 0, {3, 4, 5, 6, 7, 8})
        assert len(got) >= 3

    def test_x_inside_t(self):
        with pytest.raises(XInsideT):
            equal_line_class(pentagon(), 2, {1, 2, 3})

    def test_empty_tset(self):
        assert equal_line_class(pentagon(), 0, set()) == frozenset()

    def test_index_checked(self):
        with pytest.raises(IndexOutOfRange):
            equal_line_class(pentagon(), 0, {9})
        with pytest.raises(BadParams):
            equal_line_class("not a space", 0, {1})


class TestCalculusCheck:
    def test_examples(self):
        assert calculus_check(3, 0)
        assert calculus_check(3, 100)
        assert calculus_check(100, 0)
        assert calculus_check(Fraction(7, 2), Fraction(1, 3))

    def test_validation(self):
        with pytest.raises(BadParams):
            calculus_check(2, 0)
        with pytest.raises(BadParams):
            calculus_check(3, -1)

    def test_grid_sample(self):
        for x in (3, 10, 47):
            for y in (0, 1, 13, 100):
                assert calculus_check(x, y)
