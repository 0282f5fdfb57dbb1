"""Tests of the benchmark's reference code and of its output checks.

Run with `python -m pytest bench`.  None of these start the program: the
reference code is tested on cases with known answers, and each workload's
check is fed an output built from the reference, which it must accept,
and a corrupted copy, which it must reject.
"""

from __future__ import annotations

import copy
import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

import reference as ref
import workloads
from workloads import CheckFailed


def test_pentagon_has_ten_lines():
    d = [[0 if i == j else 1 if (i - j) % 5 in (1, 4) else 2 for j in range(5)] for i in range(5)]
    assert ref.is_metric(d)
    assert len(ref.line_sets(d)) == 10


@pytest.mark.parametrize("sizes", [[3, 3, 3], [3, 4, 5], [5, 3, 4, 6]])
def test_group_space_counts(sizes):
    d = workloads.group_table(sizes, list(range(sum(sizes))))
    n, k = len(d), len(sizes)
    assert len(ref.line_sets(d)) == sum(comb(m, 2) for m in sizes) + comb(k, 2)
    assert len(ref.betweenness_triples(d)) == sum(comb(m, 2) * (n - m) for m in sizes)


def test_balanced_group_space_of_80_points():
    assert workloads.balanced_sizes(80) == [6] * 5 + [5] * 10
    d = workloads.group_table(workloads.balanced_sizes(80), random.Random(5).sample(range(80), 80))
    triples = ref.betweenness_triples(d)
    lines = ref.line_sets(d)
    assert len(lines) == 280
    assert len(triples) == 13050
    assert ref.hyperline_sets(80, triples) == lines


def test_hyperlines_of_betweenness_triples_are_the_lines():
    d = workloads.rational_table(12, random.Random(3))
    assert ref.is_metric(d)
    assert ref.hyperline_sets(12, ref.betweenness_triples(d)) == ref.line_sets(d)


def test_bfs_distances_on_a_cycle():
    n = 9
    d = ref.graph_distances(n, [(i, (i + 1) % n) for i in range(n)])
    assert d[0] == [min(k, n - k) for k in range(n)]
    with pytest.raises(ValueError):
        ref.graph_distances(4, [(0, 1), (2, 3)])


def test_metric_axioms():
    good = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
    assert ref.is_metric(good)
    assert not ref.is_metric([[0, 1, 3], [1, 0, 1], [3, 1, 0]])  # triangle
    assert not ref.is_metric([[0, 1, 2], [2, 0, 1], [2, 1, 0]])  # asymmetric
    assert not ref.is_metric([[0, 0, 1], [0, 0, 1], [1, 1, 0]])  # zero distance
    assert not ref.is_metric([[1, 1, 2], [1, 0, 1], [2, 1, 0]])  # diagonal


def test_text_round_trips():
    d = workloads.rational_table(6, random.Random(1))
    assert ref.parse_metric(ref.metric_text(d)) == d
    edges = [(2, 0), (1, 2)]
    assert ref.parse_edges(ref.edges_text(3, edges)) == (3, [(0, 2), (1, 2)])


@pytest.fixture(scope="module")
def enumeration():
    return workloads.enumeration_reference()


def test_enumeration_reference_counts(enumeration):
    assert enumeration.connected_3_to_7 == 994
    assert enumeration.one_two_graphs == 156
    assert enumeration.triple_classes_5 == 34


def test_enumerate_check_rejects_corrupted_output(enumeration):
    good = {
        "n_max": 7,
        "violators": [],
        "minima": dict(enumeration.minima),
        "instances_examined": 994,
        "iso_classes": 994,
    }
    check = workloads.check_scan(enumeration)
    check(good)
    for key, value in (("minima", {**good["minima"], "6": good["minima"]["6"] + 1}),
                       ("instances_examined", 993),
                       ("violators", ["3 2\n0 1\n1 2\n"])):
        with pytest.raises(CheckFailed):
            check({**good, key: value})


def family_doc(d) -> dict:
    lines = sorted(sorted(s) for s in ref.line_sets(d))
    return {"count": len(lines), "universal": False, "lines": lines}


def test_lines_checks_reject_corrupted_output(tmp_path):
    ops = {op.label: op for op in workloads.build_lines(7, tmp_path, 12, 10, 9, (3, 5))}
    group = ref.parse_metric((tmp_path / "group.txt").read_text())
    good = family_doc(group)
    ops["lines group"].check(good)
    ops["hyperlines group"].check(good)
    bad = copy.deepcopy(good)
    bad["lines"][0] = bad["lines"][0][:-1]
    with pytest.raises(CheckFailed):
        ops["lines group"].check(bad)

    check = ops["check onetwo_lower group"].check
    count = good["count"]
    report = {
        "bound_id": "onetwo_lower",
        "params": {"n": "12"},
        "lines_found": count,
        # (12**4/128)**(1/3) = 162**(1/3), between 5 and 6
        "bound_lo": "5",
        "bound_hi": "6",
        "pass": True,
    }
    check(report)
    for key, value in (("lines_found", count + 1), ("bound_hi", "4"), ("params", {"n": "13"})):
        with pytest.raises(CheckFailed):
            check({**report, key: value})


def test_metrizable_checks_reject_corrupted_output():
    d = [[0, 2, 3, 4, 3, 2],
         [2, 0, 1, 2, 3, 2],
         [3, 1, 0, 1, 2, 3],
         [4, 2, 1, 0, 1, 2],
         [3, 3, 2, 1, 0, 1],
         [2, 2, 3, 2, 1, 0]]
    assert ref.is_metric(d)
    triples = ref.betweenness_triples(d)
    check = workloads.check_metrizable(6, triples)
    good = {"metrizable": True, "assignments_tried": 1, "best_margin": "1",
            "witness": ref.metric_text(d)}
    check(good)
    skewed = [row[:] for row in d]
    skewed[0][3] = skewed[3][0] = Fraction(7, 2)
    assert ref.is_metric(skewed)
    for key, value in (("witness", ref.metric_text(skewed)), ("metrizable", False)):
        with pytest.raises(CheckFailed):
            check({**good, key: value})

    fano = {"metrizable": False, "assignments_tried": 2187, "best_margin": "0", "witness": None}
    workloads.check_fano(fano)
    with pytest.raises(CheckFailed):
        workloads.check_fano({**fano, "assignments_tried": 2186})


def test_random_system_has_the_drawn_number_of_triples():
    rng = random.Random(4)
    for counts in ((5,), (6, 7, 8)):
        triples = workloads.random_system(rng, 6, counts)
        assert len(triples) in counts
        assert all(t in combinations(range(6), 3) for t in triples)
