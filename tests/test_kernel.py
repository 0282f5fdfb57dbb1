"""The integer line kernel against the Fraction definitions.

Distances are drawn with pairwise coprime denominators (7, 11, 13, 9973), so
the lcm that scales a space to integers runs into the millions and the
shortest-path closure mixes denominators.  Lines, betweenness, triples and
validation must still agree exactly with the definitions in helpers.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from metriclines import (
    MetricLinesError,
    MetricSpace,
    NotOneTwoSpace,
    PreconditionUnmet,
    TriangleViolation,
    between,
    betweenness_triples,
    check_bound,
    graph_from_edges,
    graph_to_space,
    is_one_two,
    line_family,
    line_of,
    space_to_graph,
    validate_metric,
)
from metriclines.graphs import first_non_one_two
from helpers import floyd_closure, oracle_line, oracle_line_sets, oracle_triples, oracle_validate

DENOMINATORS = (7, 11, 13, 9973)


def coprime_rows(rng: random.Random, n: int) -> list[list[Fraction]]:
    """Shortest-path closure of random distances over coprime denominators."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        den = rng.choice(DENOMINATORS)
        rows[i][j] = rows[j][i] = Fraction(rng.randint(1, 5 * den), den)
    return floyd_closure(rows)


def coprime_space(seed: int, n: int) -> MetricSpace:
    return validate_metric(coprime_rows(random.Random(seed), n))


SEEDS = range(12)


class TestScaledTable:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_scaled_table_is_exact(self, seed):
        S = coprime_space(seed, 7)
        dens = {x.denominator for row in S.dist for x in row}
        assert S.scale == math.lcm(*dens)
        for row, srow in zip(S.dist, S.scaled):
            for x, y in zip(row, srow):
                assert isinstance(y, int) and Fraction(y, S.scale) == x

    def test_lcm_is_large(self):
        # the draws really do mix the coprime denominators
        assert max(coprime_space(seed, 7).scale for seed in SEEDS) > 10**6

    def test_equality_and_hash_ignore_the_table(self):
        S = coprime_space(0, 6)
        again = MetricSpace(S.n, S.dist)
        assert again == S and hash(again) == hash(S)
        assert again.scaled == S.scaled
        assert "scaled" not in repr(S)

    def test_spaces_built_directly_carry_the_table(self):
        S = graph_to_space(graph_from_edges(4, [(0, 1), (1, 2)]))
        assert S.scale == 1
        assert S.scaled == ((0, 1, 2, 2), (1, 0, 1, 2), (2, 1, 0, 2), (2, 2, 2, 0))


class TestKernelMatchesDefinition:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_line_of_and_between(self, seed):
        S = coprime_space(seed, 7)
        d = S.dist
        for u, v in itertools.permutations(range(S.n), 2):
            assert line_of(S, u, v) == oracle_line(d, u, v)
        for a, b, c in itertools.permutations(range(S.n), 3):
            assert between(S, a, b, c) == (d[a][b] + d[b][c] == d[a][c])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_line_family(self, seed):
        S = coprime_space(seed, 8)
        fam = line_family(S)
        by_points = {
            oracle_line(S.dist, u, v) for u, v in itertools.combinations(range(S.n), 2)
        }
        assert by_points == oracle_line_sets(S.dist)
        assert list(fam.lines) == sorted(tuple(sorted(p)) for p in by_points)
        assert fam.pair_count == 28

    @pytest.mark.parametrize("seed", SEEDS)
    def test_betweenness_triples(self, seed):
        S = coprime_space(seed, 8)
        assert set(betweenness_triples(S).sorted_edges()) == oracle_triples(S.dist)

    def test_draws_have_betweenness(self):
        # the closure makes some triangles tight, so the checks above are not vacuous
        assert all(betweenness_triples(coprime_space(seed, 8)).edges for seed in SEEDS)


def outcome(fn, rows):
    """The exception class and index attributes fn raises on rows, or None."""
    try:
        fn(rows)
    except MetricLinesError as exc:
        return type(exc), vars(exc)
    return None


def planted_tables(seed: int):
    """Valid tables from coprime_rows, each with one or two planted defects."""
    rng = random.Random(seed)
    n = 6
    base = coprime_rows(rng, n)
    yield base
    for _ in range(6):
        rows = [row[:] for row in base]
        for _ in range(rng.randint(1, 2)):
            i, j = rng.sample(range(n), 2)
            kind = rng.choice(("triangle", "asymmetry", "diagonal", "nonpositive"))
            if kind == "triangle":
                rows[i][j] = rows[j][i] = rows[i][j] * rng.randint(2, 6)
            elif kind == "asymmetry":
                rows[i][j] += Fraction(1, rng.choice(DENOMINATORS))
            elif kind == "diagonal":
                rows[i][i] = Fraction(1, rng.choice(DENOMINATORS))
            else:
                rows[i][j] = rows[j][i] = -rows[i][j] * rng.randint(0, 1)
        yield rows


class TestValidationMatchesReference:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_same_exception_and_indices(self, seed):
        for rows in planted_tables(seed):
            assert outcome(validate_metric, rows) == outcome(oracle_validate, rows)

    def test_every_defect_kind_is_exercised(self):
        kinds = {
            got[0].__name__
            for seed in SEEDS
            for rows in planted_tables(seed)
            if (got := outcome(validate_metric, rows)) is not None
        }
        assert kinds == {
            "TriangleViolation",
            "AsymmetryError",
            "NonzeroDiagonal",
            "NonpositiveDistance",
        }

    def test_first_triangle_violation_among_several(self):
        # (0,3) violates through 1 and 2, (1,3) through 2: the first pair wins
        rows = [[0, 1, 1, 9], [1, 0, 1, 7], [1, 1, 0, 1], [9, 7, 1, 0]]
        exc = outcome(validate_metric, rows)
        assert exc == (TriangleViolation, {"i": 0, "j": 3, "k": 1})
        assert exc == outcome(oracle_validate, rows)


class TestOneTwoCheck:
    def test_half_distances_are_not_one_two(self):
        # scaled by 2, the distances 1/2 and 1 become 1 and 2
        S = validate_metric([[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]])
        assert S.scaled == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert first_non_one_two(S) == (0, 1)
        assert not is_one_two(S)
        with pytest.raises(NotOneTwoSpace) as exc:
            space_to_graph(S)
        assert (exc.value.i, exc.value.j) == (0, 1)
        with pytest.raises(PreconditionUnmet):
            check_bound(S, "onetwo_lower")

    def test_first_offending_pair_is_lexicographic(self):
        h = Fraction(3, 2)
        rows = [[0, 1, 2, 1], [1, 0, 2, h], [2, 2, 0, 2], [1, h, 2, 0]]
        S = validate_metric(rows)
        assert first_non_one_two(S) == (1, 3)
        with pytest.raises(NotOneTwoSpace) as exc:
            space_to_graph(S)
        assert (exc.value.i, exc.value.j) == (1, 3)

    def test_one_two_spaces_pass(self):
        S = graph_to_space(graph_from_edges(5, [(0, 1), (2, 3)]))
        assert first_non_one_two(S) is None and is_one_two(S)
        assert check_bound(S, "onetwo_lower").lines_found == line_family(S).count
