"""Tests for deciding whether a triple system comes from a metric."""

from __future__ import annotations

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from metriclines import (
    BadParams,
    SizeCap,
    TooFewPoints,
    TooManyAssignments,
    betweenness_triples,
    complete_quadruple,
    fano,
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
    _scan,
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
    def test_witness_respects_cap(self):
        T = betweenness_triples(pentagon())
        for cap in (1, Fraction(1, 2), 3):
            res = metrizable(T, normalization_cap=cap)
            assert res.metrizable
            w = res.witness
            top = max(w.dist[i][j] for i in range(w.n) for j in range(i + 1, w.n))
            assert top <= cap

    def test_cap_scales_witness_consistently(self):
        # the feasible region scales linearly, so doubling the cap cannot
        # change which triple systems are metrizable
        T = triple_system(4, [(0, 1, 2), (0, 1, 3)])
        r1 = metrizable(T, normalization_cap=1)
        r2 = metrizable(T, normalization_cap=2)
        assert r1.metrizable is r2.metrizable is True
        assert r1.assignments_tried == r2.assignments_tried
        assert betweenness_triples(r1.witness).edges == T.edges
        assert betweenness_triples(r2.witness).edges == T.edges


class TestValidation:
    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            metrizable(triple_system(2, []))

    def test_cap_must_be_positive(self):
        T = triple_system(3, [])
        with pytest.raises(BadParams):
            metrizable(T, normalization_cap=0)
        with pytest.raises(BadParams):
            metrizable(T, normalization_cap=Fraction(-1, 2))

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


def scans(T):
    """The reduced scan and the scan that decides every branch, on T."""
    edges = T.sorted_edges()
    autos = _automorphisms(edges)
    return _scan(T.n, edges, Fraction(1), autos), _scan(T.n, edges, Fraction(1), autos[:1])


@pytest.fixture(scope="module")
def fano_scans():
    # the full scan solves all 2187 LPs, so the tests share one
    return scans(fano())


def assert_same(T, reduced, full):
    first, best, dists, decided = reduced
    assert (first, best, dists) == full[:3]
    assert decided <= full[3]
    res = metrizable(T)
    assert res.metrizable is (first is not None)
    assert res.assignments_tried == (
        first + 1 if first is not None else 3 ** len(T.edges)
    )
    assert res.best_margin == best
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
        perm = list(range(7))
        random.Random(1).shuffle(perm)
        relabelled = triple_system(
            7, [tuple(perm[p] for p in e) for e in fano().edges]
        )
        assert relabelled.edges != fano().edges  # not itself an automorphism
        assert_same(relabelled, *scans(relabelled))
        assert_same(complete_quadruple(), *scans(complete_quadruple()))

    def test_fano_decides_one_branch_per_orbit(self, fano_scans):
        assert len(_automorphisms(fano().sorted_edges())) == 168
        reduced, full = fano_scans
        assert reduced[0] is None
        assert reduced[3] == 18
        assert full[3] == 3**7

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
                _scan(T.n, edges, Fraction(1), a) for a in (autos, [autos[0], sigma], autos[:1])
            )
            assert pair[:3] == alone[:3]
            assert group[3] <= pair[3] <= alone[3]
        assert checked == 15

    def test_memory_stays_bounded(self, monkeypatch):
        # K6 on triples plus an isolated point: 20 triples, 720 automorphisms
        T = triple_system(7, itertools.combinations(range(6), 3))
        edges = T.sorted_edges()
        autos = _automorphisms(edges)
        decide = feasibility._decide_branch
        calls = 0

        def capped(*args):
            nonlocal calls
            calls += 1
            if calls > 300:
                raise StopScan
            return decide(*args)

        monkeypatch.setattr(feasibility, "_decide_branch", capped)
        tracemalloc.start()
        try:
            with pytest.raises(StopScan):
                _scan(T.n, edges, Fraction(1), autos)
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
        T = triple_system(5, [(0, 1, 2), (0, 3, 4), (1, 2, 3)])
        edges = T.sorted_edges()
        pairs = list(itertools.combinations(range(5), 2))
        calls = []

        def record(npairs, cap, triangles, equalities):
            calls.append((npairs, cap, triangles, equalities))
            return None

        monkeypatch.setattr(feasibility, "_decide_branch", record)
        assert _scan(5, edges, Fraction(3), _automorphisms(edges)[:1])[0] is None
        assert len(calls) == 27
        nonedges = [t for t in itertools.combinations(range(5), 3) if t not in T.edges]
        for a, (npairs, cap, triangles, equalities) in enumerate(calls):
            assert (npairs, cap) == (10, 3)
            # every non-edge gives its rows with middle b, then a, then c
            assert [middle(pairs, r) for r in triangles] == [
                t[i] for t in nonedges for i in (1, 0, 2)
            ]
            digits = [a // 3**k % 3 for k in range(len(edges))]
            assert [middle(pairs, r) for r in equalities] == [
                e[d] for e, d in zip(edges, digits)
            ]


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


def seeded_six_point_systems(count):
    rng = random.Random(0)
    triples = list(itertools.combinations(range(6), 3))
    return [triple_system(6, rng.sample(triples, rng.randint(4, 5))) for _ in range(count)]


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
