"""Tests for deciding whether a triple system comes from a metric."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from metriclines import (
    ParseError,
    SizeCap,
    TooFewPoints,
    TooManyAssignments,
    betweenness_triples,
    complete_quadruple,
    fano,
    load_triples_text,
    metrizable,
    enum_triple_systems,
    triple_system,
)
from metriclines import feasibility
from metriclines.extremal import pentagon
from metriclines.feasibility import (
    MAX_METRIZABLE_N,
    _automorphisms,
    _eliminate,
    _search,
    _triangles,
)

import helpers


class TestSmallDecisions:
    def test_edgeless_three_points(self):
        res = metrizable(triple_system(3, []))
        assert res.metrizable is True
        # no edges means a single (empty) assignment
        assert res.assignments_tried == 1
        assert res.best_margin == 1
        w = res.witness
        assert w is not None
        assert betweenness_triples(w).edges == frozenset()

    def test_complete_quadruple(self):
        res = metrizable(complete_quadruple())
        assert res.metrizable is True
        assert res.assignments_tried == 2
        assert res.best_margin == Fraction(1, 3)
        w = res.witness
        assert betweenness_triples(w).edges == complete_quadruple().edges

    def test_single_triple(self):
        res = metrizable(triple_system(3, [(0, 1, 2)]))
        assert res.metrizable is True
        w = res.witness
        assert betweenness_triples(w).edges == {(0, 1, 2)}

    def test_pentagon_triples_round_trip(self):
        space = pentagon()
        T = betweenness_triples(space)
        res = metrizable(T)
        assert res.metrizable is True
        assert betweenness_triples(res.witness).edges == T.edges

    def test_fano_is_not_metrizable(self):
        res = metrizable(fano())
        assert res.metrizable is False
        assert res.witness is None
        # every middle assignment of the 7 edges gets examined
        assert res.assignments_tried == 3**7
        assert res.best_margin == 0


class TestWitnessProperties:
    def test_witness_distances_are_at_most_one(self):
        systems = [betweenness_triples(pentagon()), *seeded_six_point_systems(20)]
        for T in systems:
            res = metrizable(T)
            assert res.metrizable
            w = res.witness
            top = max(w.dist[i][j] for i in range(w.n) for j in range(i + 1, w.n))
            assert top <= 1


class TestWitnessOracle:
    """metrizable's witness and best_margin against the Fraction route."""

    @pytest.mark.parametrize(
        "systems",
        [
            pytest.param(lambda: [T for n in (3, 4, 5) for T in enum_triple_systems(n)], id="n3-5"),
            pytest.param(lambda: [complete_quadruple()], id="quadruple"),
            pytest.param(lambda: golden_triple_systems(), id="golden"),
            pytest.param(lambda: seeded_six_point_systems(20, 5, 8), id="n6-seeded"),
        ],
    )
    def test_matches_the_fraction_route(self, systems):
        for T in systems():
            res = metrizable(T)
            assert (res.witness, res.best_margin) == helpers.fraction_witness(T)


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            metrizable(triple_system(2, []))

    def test_edge_budget_enforced(self):
        # 13 edges on 7 points exceeds the default budget of 12
        edges = list(fano().sorted_edges())
        extra = [
            t
            for t in __import__("itertools").combinations(range(7), 3)
            if t not in set(edges)
        ]
        big = triple_system(7, edges + extra[:6])
        assert len(big.sorted_edges()) == 13
        with pytest.raises(TooManyAssignments):
            metrizable(big)
        # a raised budget admits the instance (no assertion on the verdict)
        res = metrizable(triple_system(4, [(0, 1, 2)]), max_edges=1)
        assert res.metrizable


class TestSizeCap:
    def test_oversized_system_fails_before_any_lp(self):
        # 12 disjoint triples on 36 points: one LP alone ran for minutes
        T = triple_system(36, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(12)])
        t0 = time.perf_counter()
        with pytest.raises(SizeCap):
            metrizable(T)
        assert time.perf_counter() - t0 < 1.0

    def test_cap_admits_its_own_size(self):
        assert MAX_METRIZABLE_N >= 7  # Fano and every system of the tests
        res = metrizable(triple_system(MAX_METRIZABLE_N, [(0, 1, 2)]))
        assert res.metrizable and res.assignments_tried == 1
        with pytest.raises(SizeCap):
            metrizable(triple_system(MAX_METRIZABLE_N + 1, [(0, 1, 2)]))


def golden_triple_systems():
    """The inputs under tests/golden/inputs that load as triple systems."""
    systems = []
    for path in sorted((Path(__file__).parent / "golden" / "inputs").iterdir()):
        try:
            systems.append(load_triples_text(path.read_text()))
        except ParseError:
            pass
    return systems


def scans(T):
    """The search with orbit cuts, and the oracle scan that decides every branch, on T."""
    edges = T.sorted_edges()
    autos = _automorphisms(edges)
    full = helpers.counter_scan(T.n, edges, autos[:1])
    return _search(T.n, edges, autos), full


@pytest.fixture(scope="module")
def fano_scans():
    # the full scan solves all 2187 LPs, so the tests share one
    return scans(fano())


def relabelled_fano():
    perm = list(range(7))
    random.Random(1).shuffle(perm)
    relabelled = triple_system(7, [tuple(perm[p] for p in e) for e in fano().edges])
    assert relabelled.edges != fano().edges  # not itself an automorphism
    return relabelled


def assert_same(T, reduced, full):
    first, margin, dists, den, decided = reduced
    assert (first, margin, dists, den) == full[:4]
    assert decided <= full[4]
    res = metrizable(T)
    assert res.metrizable is (first is not None)
    assert res.assignments_tried == (
        first + 1 if first is not None else 3 ** len(T.edges)
    )
    assert res.best_margin == Fraction(margin, den)
    if first is not None:
        assert betweenness_triples(res.witness).edges == T.edges


class TestSymmetryReduction:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_matches_full_scan_on_small_classes(self, n):
        for T in enum_triple_systems(n):
            if len(T.edges) <= 6:
                assert_same(T, *scans(T))

    def test_matches_full_scan_on_fano_and_quadruple(self, fano_scans):
        assert_same(fano(), *fano_scans)
        # relabelling maps each branch onto a branch of Fano with the same
        # margin, so the full scan of the copy gives Fano's record
        relabelled = relabelled_fano()
        edges = relabelled.sorted_edges()
        reduced = _search(7, edges, _automorphisms(edges))
        assert_same(relabelled, reduced, fano_scans[1])
        assert_same(complete_quadruple(), *scans(complete_quadruple()))

    def test_fano_decides_one_branch_per_orbit(self, fano_scans):
        assert len(_automorphisms(fano().sorted_edges())) == 168
        reduced, full = fano_scans
        assert reduced[0] is None
        assert reduced[4] == 18
        assert full[4] == 3**7

    def test_automorphisms_are_automorphisms(self):
        T = triple_system(6, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 4, 5)])
        autos = _automorphisms(T.sorted_edges())
        assert autos[0] == {p: p for p in range(6)}
        assert len({tuple(sorted(s.items())) for s in autos}) == len(autos)
        for sigma in autos:
            assert {tuple(sorted(sigma[p] for p in e)) for e in T.edges} == T.edges

    def test_large_group_is_not_enumerated(self):
        # 12 disjoint triples have 12! * 6^12 automorphisms
        edges = tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(12))
        t0 = time.perf_counter()
        autos = _automorphisms(edges)
        assert time.perf_counter() - t0 < 1.0
        assert 1 < len(autos) <= 1024


class TestSearchMatchesTheScan:
    """The depth-first search against the counter scan, with the same automorphisms."""

    @pytest.mark.parametrize(
        "systems",
        [
            pytest.param(lambda: enum_triple_systems(3), id="n3"),
            pytest.param(lambda: enum_triple_systems(4), id="n4"),
            pytest.param(lambda: enum_triple_systems(5), id="n5"),
            pytest.param(lambda: [fano(), relabelled_fano(), complete_quadruple()], id="named"),
            pytest.param(lambda: seeded_six_point_systems(20, 5, 8), id="n6-seeded"),
        ],
    )
    def test_same_record_and_lps(self, monkeypatch, systems):
        solve = feasibility.maximize_scaled
        lps = 0

        def counted(*args):
            nonlocal lps
            lps += 1
            return solve(*args)

        monkeypatch.setattr(feasibility, "maximize_scaled", counted)
        for T in systems():
            edges = T.sorted_edges()
            autos = _automorphisms(edges)
            lps = 0
            found = _search(T.n, edges, autos)
            found_lps, lps = lps, 0
            oracle = helpers.counter_scan(T.n, edges, autos)
            assert found[:4] == oracle[:4]
            assert found_lps == lps
            assert found[4] <= oracle[4]

    def test_k6_plus_a_point_is_decided_fast(self):
        # the scan's first feasible branch is number 44,879,765 of 3**20
        T = triple_system(7, itertools.combinations(range(6), 3))
        t0 = time.perf_counter()
        res = metrizable(T, max_edges=20)
        assert time.perf_counter() - t0 < 1.0
        assert res.metrizable and res.assignments_tried == 44_879_765
        assert betweenness_triples(res.witness) == T


def order(sigma):
    power, r = sigma, 1
    while any(p != q for p, q in power.items()):
        power = {p: sigma[q] for p, q in power.items()}
        r += 1
    return r


class StopScan(Exception):
    pass


class TestStatelessSkipping:
    def test_non_group_sets_keep_the_result(self):
        # {identity, sigma} is not a group when sigma has order 3 or more
        checked = 0
        for T in (T for n in (3, 4, 5) for T in enum_triple_systems(n)):
            if len(T.edges) > 6:
                continue
            edges = T.sorted_edges()
            autos = _automorphisms(edges)
            sigma = next((s for s in autos if order(s) >= 3), None)
            if sigma is None:
                continue
            checked += 1
            group, pair, alone = (
                _search(T.n, edges, a) for a in (autos, [autos[0], sigma], autos[:1])
            )
            assert pair[:4] == alone[:4]
            assert group[4] <= pair[4] <= alone[4]
        assert checked == 15

    def test_memory_stays_bounded(self, monkeypatch):
        # with every branch infeasible, the search on K6 on triples plus an
        # isolated point (20 triples, 720 automorphisms) ends after 2
        # branches, and on Fano without its automorphisms passes 300
        k6 = triple_system(7, itertools.combinations(range(6), 3)).sorted_edges()
        edges = fano().sorted_edges()
        calls = 0

        def capped(*args):
            nonlocal calls
            calls += 1
            if calls > 300:
                raise StopScan
            return None

        monkeypatch.setattr(feasibility, "_decide_branch", capped)
        tracemalloc.start()
        try:
            assert _search(7, k6, _automorphisms(k6))[::4] == (None, 2)
            with pytest.raises(StopScan):
                _search(7, edges, _automorphisms(edges)[:1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000


def middle(pairs, row):
    """The point a row puts between the other two, checking its shape."""
    (mid,) = set(pairs[row[0]]) & set(pairs[row[1]])
    outer = tuple(sorted({*pairs[row[0]], *pairs[row[1]]} - {mid}))
    assert pairs[row[2]] == outer
    return mid


class TestTriangleRows:
    @pytest.mark.parametrize("n", range(3, 8))
    def test_rows_sum_the_pairs_at_the_middle(self, n):
        pairs = list(itertools.combinations(range(n), 2))
        table = _triangles(n)
        assert list(table) == list(itertools.combinations(range(n), 3))
        for t, rows in table.items():
            # digit d of an edge puts its d-th smallest point in the middle
            assert [middle(pairs, row) for row in rows] == list(t)
        assert _triangles(3)[0, 1, 2] == ((0, 1, 2), (0, 2, 1), (1, 2, 0))

    def test_scan_hands_each_branch_its_rows(self, monkeypatch):
        edges = ((0, 1, 2), (0, 3, 4), (1, 2, 3))
        calls, decided = record_branches(monkeypatch, edges)
        # none of the 27 branches sinks
        assert decided == list(range(27))
        pairs = list(itertools.combinations(range(5), 2))
        nonedges = [t for t in itertools.combinations(range(5), 3) if t not in edges]
        for npairs, triangles, equalities in calls:
            assert npairs == 10
            # every non-edge gives its rows with middle b, then a, then c
            assert [middle(pairs, r) for r in triangles] == [
                t[i] for t in nonedges for i in (1, 0, 2)
            ]

    def test_search_leaves_out_only_sunk_branches(self, monkeypatch):
        edges = ((0, 3, 4), (1, 2, 4), (1, 3, 4), (2, 3, 4))
        decide = feasibility._decide_branch
        calls, decided = record_branches(monkeypatch, edges)
        assert len(decided) == 45

        def no_lp(*args):
            raise AssertionError("a branch left out reached the LP")

        monkeypatch.setattr(feasibility, "maximize_scaled", no_lp)
        table = _triangles(5)
        for a in set(range(3**4)) - set(decided):
            rows = [table[e][a // 3**k % 3] for k, e in enumerate(edges)]
            assert decide(10, calls[0][1], rows) is None


def record_branches(monkeypatch, edges):
    """The _decide_branch calls of a search on 5 points with the identity
    alone and every branch infeasible, and the counter index of each."""
    pairs = list(itertools.combinations(range(5), 2))
    calls = []

    def record(npairs, triangles, equalities):
        calls.append((npairs, triangles, equalities))
        return None

    monkeypatch.setattr(feasibility, "_decide_branch", record)
    assert _search(5, edges, _automorphisms(edges)[:1])[0] is None
    decided = []
    for _, _, equalities in calls:
        # equality k puts a point of edge k in the middle: digit k
        digits = [e.index(middle(pairs, r)) for e, r in zip(edges, equalities)]
        decided.append(sum(d * 3**k for k, d in enumerate(digits)))
    # in counter order, each once
    assert decided == sorted(set(decided))
    return calls, decided


def branch_rows(T):
    """The equality rows of every middle assignment on T."""
    npairs = T.n * (T.n - 1) // 2
    table = _triangles(T.n)
    for choice in itertools.product(*(table[e] for e in T.sorted_edges())):
        rows = []
        for i1, i2, out in choice:
            row = [0] * npairs
            row[i1] += 1
            row[i2] += 1
            row[out] -= 1
            rows.append(row)
        yield npairs, rows


def seeded_six_point_systems(count, lo=4, hi=5):
    rng = random.Random(0)
    triples = list(itertools.combinations(range(6), 3))
    return [triple_system(6, rng.sample(triples, rng.randint(lo, hi))) for _ in range(count)]


class TestElimination:
    """The integer elimination against the rational reference, branch by branch."""

    @pytest.mark.parametrize(
        "systems",
        [
            pytest.param(
                lambda: [T for T in enum_triple_systems(5) if len(T.edges) <= 6], id="n5"
            ),
            pytest.param(lambda: [fano()], id="fano"),
            pytest.param(lambda: seeded_six_point_systems(20), id="n6-seeded"),
        ],
    )
    def test_matches_rational_elimination(self, systems):
        for T in systems():
            for npairs, rows in branch_rows(T):
                got = _eliminate(npairs, [list(r) for r in rows])
                assert got == helpers.fraction_eliminate(npairs, rows)
