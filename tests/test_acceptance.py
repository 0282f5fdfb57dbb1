"""Acceptance suite: thirteen end-to-end checks with explicit time budgets.

Each test exercises one advertised capability on exact instances, asserts
zero violations, and prints a single PASS line with its core timing.  The
budgets are generous on purpose; they catch pathological regressions, not
normal machine-to-machine noise.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from fractions import Fraction

from metriclines import (
    betweenness_triples,
    conjecture_scan,
    dump_graph,
    enum_graphs,
    extremes,
    fano,
    graph_to_space,
    group_space,
    line_family,
    line_of,
    metrizable,
    min_lines,
    pentagon,
    power_bound,
    triple_system,
)
from metriclines.graphs import Graph, graph_dist_rows
from metriclines.metric import int_metric_line_masks
from metriclines.search import _SPECS, triple_line_masks
from lemmas import (
    calculus_check,
    distinct_line_case,
    k34_condition,
    predicted_group_lines,
    vertex_signatures,
)

import helpers


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def report(criterion: int, elapsed: float, detail: str) -> None:
    print(f"[criterion {criterion}] PASS {detail} ({elapsed * 1000:.1f} ms)")


def all_labeled_triple_systems(n: int):
    triples = list(itertools.combinations(range(n), 3))
    for bits in range(1 << len(triples)):
        yield triple_system(n, [t for k, t in enumerate(triples) if bits >> k & 1])


def test_criterion_01_pentagon_nesting():
    S = pentagon()
    # points are u, v, x, y, z = 0..4 around the cycle
    best = float("inf")
    for _ in range(3):
        t0 = time.monotonic()
        inner = line_of(S, 1, 3)
        outer = line_of(S, 2, 3)
        best = min(best, time.monotonic() - t0)
    assert inner == {1, 2, 3}
    assert outer == {1, 2, 3, 4}
    assert inner < outer
    assert best < 0.001
    report(1, best, "line(v,y)={v,x,y} strictly inside line(x,y)={v,x,y,z}")


def test_criterion_02_fano_not_metrizable():
    t0 = time.monotonic()
    res = metrizable(fano())
    elapsed = time.monotonic() - t0
    assert res.metrizable is False
    assert res.witness is None
    assert res.assignments_tried == 3**7 == 2187
    assert elapsed < 120
    report(2, elapsed, "fano infeasible after exactly 2187 assignments")


def test_criterion_03_metrizability_positive_control():
    rng = random.Random(20240817)
    t0 = time.monotonic()
    checked = 0
    structured = 0
    while checked < 50:
        n = rng.randint(3, 6)
        space = None
        if checked % 2 == 1:
            # structured draw: a 1-2 space with 1..5 triples (3+ preferred),
            # so the decision is nontrivial but stays within 3**5 branches
            fallback = None
            for _ in range(200):
                adj = [0] * n
                for i in range(n):
                    for j in range(i + 1, n):
                        if rng.random() < 0.5:
                            adj[i] |= 1 << j
                            adj[j] |= 1 << i
                cand = graph_to_space(Graph(n, tuple(adj)))
                ntrip = len(betweenness_triples(cand).edges)
                if 3 <= ntrip <= 5:
                    space = cand
                    break
                if 1 <= ntrip <= 5 and fallback is None:
                    fallback = cand
            if space is None:
                space = fallback
            if space is not None:
                structured += 1
        if space is None:
            space = helpers.random_rational_space(rng, n)
            if len(betweenness_triples(space).edges) > 5:
                continue
        T = betweenness_triples(space)
        res = metrizable(T)
        assert res.metrizable is True
        assert betweenness_triples(res.witness).edges == T.edges
        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    report(3, elapsed, f"50 random metrics round-tripped ({structured} structured)")


def test_criterion_04_log_floor_all_labeled_systems():
    t0 = time.monotonic()
    systems = 0
    eligible = 0
    for n in range(3, 6):
        full = (1 << n) - 1
        floor = math.ceil(math.log2(n))
        for T in all_labeled_triple_systems(n):
            systems += 1
            masks = set(triple_line_masks(T))
            if full in masks:
                continue
            eligible += 1
            sig, injective = vertex_signatures(T)
            assert injective, f"signatures collide on {T.sorted_edges()}"
            assert len(set(sig.values())) == n
            assert len(masks) >= floor
    elapsed = time.monotonic() - t0
    assert systems == 2 + 16 + 1024
    assert elapsed < 60
    report(4, elapsed, f"{eligible} universal-free systems all clear ceil(lg n)")


def test_criterion_05_exhaustive_minima():
    t0 = time.monotonic()
    f3 = min_lines("hypergraphs", 3)
    h3 = min_lines("one_two", 3)
    elapsed = time.monotonic() - t0
    assert f3.minimum == 3
    assert f3.witness.sorted_edges() == ()
    assert h3.minimum == 1
    assert h3.witness.sorted_edges() == ((0, 2), (1, 2))
    # the witnesses really attain the minima
    assert len(set(_SPECS["hypergraphs"][3](f3.witness))) == 3
    assert len(set(_SPECS["one_two"][3](h3.witness))) == 1
    assert elapsed < 1
    report(5, elapsed, "f(3)=3 and h(3)=1 with verified witnesses")


def test_criterion_06_group_construction_counts():
    t0 = time.monotonic()
    for k in (3, 4, 5):
        for m in (3, 4, 5):
            S = group_space(k, m)
            fam = line_family(S)
            want = k * m * (m - 1) // 2 + k * (k - 1) // 2
            assert fam.count == want == predicted_group_lines(k, m)
            assert not fam.has_universal()
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(6, elapsed, "9 group spaces match k*m*(m-1)/2 + k*(k-1)/2 exactly")


def test_criterion_07_range_bound_random_suite():
    rng = random.Random(1729)
    t0 = time.monotonic()
    for _ in range(500):
        n = rng.randint(3, 10)
        S = helpers.random_int_space(rng, n)
        count = line_family(S).count
        lo, hi, rho = extremes(S)
        pb = power_bound("range", {"n": n, "rho": rho})
        assert pb.compare(count) <= 0, f"range bound broken at n={n}, rho={rho}"
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    report(7, elapsed, "500 random spaces clear 0.25*(n/rho)^(2/3)")


def test_criterion_08_diameter_and_corollary_suite():
    t0 = time.monotonic()
    eligible = 0
    for n in range(2, 8):
        full = (1 << n) - 1
        corollary = power_bound("graphs_corollary", {"n": n})
        for G in enum_graphs(n, connected=True):
            rows = graph_dist_rows(G)
            masks = set(int_metric_line_masks(n, rows))
            if full in masks:
                continue
            eligible += 1
            count = len(masks)
            t = max(max(r) for r in rows)
            assert power_bound("diam", {"t": t}).compare(count) <= 0
            assert corollary.compare(count) <= 0
    elapsed = time.monotonic() - t0
    assert eligible > 0
    assert elapsed < 300
    report(8, elapsed, f"{eligible} universal-free graph metrics clear both bounds")


def test_criterion_09_distinct_line_cases_exhaustive():
    t0 = time.monotonic()
    cases4 = ("i", "ii", "iii")
    cases3 = ("iv", "v", "vi")
    applied = 0
    for n in range(2, 7):
        for G in enum_graphs(n):
            S = graph_to_space(G)
            for case_id in cases4:
                for pts in itertools.permutations(range(n), 4):
                    applies, holds = distinct_line_case(S, case_id, pts)
                    if applies:
                        applied += 1
                        assert holds, (case_id, G.adj, pts)
            for case_id in cases3:
                for pts in itertools.permutations(range(n), 3):
                    applies, holds = distinct_line_case(S, case_id, pts)
                    if applies:
                        applied += 1
                        assert holds, (case_id, G.adj, pts)
    # relabeling a space permutes its lines, so class representatives cover
    # every labeled instance; spot-check that equivariance on random graphs
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(3, 6)
        adj = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    adj[i] |= 1 << j
                    adj[j] |= 1 << i
        S = graph_to_space(Graph(n, tuple(adj)))
        perm = list(range(n))
        rng.shuffle(perm)
        padj = [0] * n
        for i in range(n):
            for j in range(n):
                if adj[i] >> j & 1:
                    padj[perm[i]] |= 1 << perm[j]
        PS = graph_to_space(Graph(n, tuple(padj)))
        case_id = rng.choice(cases4 + cases3)
        arity = 4 if case_id in cases4 else 3
        if n < arity:
            continue
        pts = tuple(rng.sample(range(n), arity))
        ppts = tuple(perm[p] for p in pts)
        assert distinct_line_case(S, case_id, pts) == distinct_line_case(
            PS, case_id, ppts
        )
    elapsed = time.monotonic() - t0
    assert applied > 0
    assert elapsed < 600
    report(9, elapsed, f"six cases hold on all {applied} applicable tuples")


def test_criterion_10_sparse_line_floor_all_systems():
    t0 = time.monotonic()
    checked = 0
    for n in range(3, 6):
        ground = list(range(n))
        for T in all_labeled_triple_systems(n):
            count = len(set(triple_line_masks(T)))
            for x in ground:
                rest = [v for v in ground if v != x]
                for size in range(len(rest) + 1):
                    for tset in itertools.combinations(rest, size):
                        ts = frozenset(tset)
                        if not k34_condition(T, x, ts):
                            continue
                        pb = power_bound("sparse_lemma", {"t": len(ts)})
                        assert pb.compare(count) <= 0, (T.sorted_edges(), x, ts)
                        checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    report(10, elapsed, f"{checked} (x,T) pairs clear 0.25*(2|T|)^(2/3)")


def test_criterion_11_conjecture_scan_eight(tmp_path):
    t0 = time.monotonic()
    rep = conjecture_scan(8)
    elapsed = time.monotonic() - t0
    # preserve any counterexample before failing, as a reviewable file
    for i, g in enumerate(rep.violators):
        target = tmp_path / f"violator_n{g.n}_{i}.txt"
        target.write_text(dump_graph(g))
    assert rep.violators == (), f"violator files kept in {tmp_path}"
    assert list(tmp_path.iterdir()) == []
    for n in range(3, 9):
        assert rep.minima[n] >= n
    assert rep.instances_examined == 2 + 6 + 21 + 112 + 853 + 11117
    assert elapsed < 1800
    report(11, elapsed, "no connected graph on <= 8 vertices beats n lines")


def test_criterion_12_calculus_grid():
    t0 = time.monotonic()
    for x in range(3, 101):
        for y in range(0, 101):
            assert calculus_check(x, y)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    report(12, elapsed, "inequality holds on the full 98 x 101 grid")


def _criterion_5_json(capsys) -> str:
    return canonical_json(
        {
            "f3": helpers.cli_json(capsys, "search", "hypergraphs", "3"),
            "h3": helpers.cli_json(capsys, "search", "one_two", "3"),
        }
    )


def _criterion_6_json() -> str:
    rows = []
    for k in (3, 4, 5):
        for m in (3, 4, 5):
            fam = line_family(group_space(k, m))
            rows.append(
                {
                    "k": k,
                    "m": m,
                    "lines": fam.count,
                    "predicted": predicted_group_lines(k, m),
                    "universal": fam.has_universal(),
                }
            )
    return canonical_json(rows)


def _criterion_11_json(capsys) -> str:
    return canonical_json(helpers.cli_json(capsys, "scan", "8"))


def test_criterion_13_reports_deterministic(capsys):
    t0 = time.monotonic()
    runs = [
        (_criterion_5_json(capsys), _criterion_6_json(), _criterion_11_json(capsys))
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    # and a third run of criterion 5 is byte-identical too
    assert runs[0][0] == _criterion_5_json(capsys)
    elapsed = time.monotonic() - t0
    report(13, elapsed, "criteria 5/6/11 reports byte-identical across repeated runs")
