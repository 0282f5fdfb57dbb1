from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import (
    AsymmetryError,
    BadParams,
    MetricSpace,
    NonpositiveDistance,
    NonzeroDiagonal,
    SizeCap,
    TooFewPoints,
    TriangleViolation,
    balanced_group_space,
    between,
    dump_metric,
    extremes,
    line_family,
    line_of,
    uniform_space,
    validate_metric,
)
from metriclines import metric
from metriclines.cli import main
from helpers import oracle_line_sets, random_int_space, random_rational_space


def path_space(n):
    return validate_metric(
        [[abs(i - j) for j in range(n)] for i in range(n)]
    )


class TestValidation:
    def test_accepts_fraction_strings(self):
        S = validate_metric([["0", "1/2"], ["1/2", "0"]])
        assert S.dist[0][1] == Fraction(1, 2)

    def test_empty_table(self):
        with pytest.raises(TooFewPoints) as info:
            validate_metric([])
        assert str(info.value) == "need at least 1 points, got 0"

    def test_ragged_rows(self):
        with pytest.raises(BadParams):
            validate_metric([[0, 1], [1, 0, 2]])

    @pytest.mark.parametrize("scale", [0, -2])
    def test_nonpositive_scale(self, scale):
        # scale 0 gave a space whose dist divided by zero, -2 a distance of -1/2
        with pytest.raises(BadParams, match="scale"):
            validate_metric([[0, 1], [1, 0]], scale)

    def test_nonzero_diagonal(self):
        with pytest.raises(NonzeroDiagonal) as exc:
            validate_metric([[0, 1], [1, 1]])
        assert exc.value.i == 1

    def test_asymmetry(self):
        with pytest.raises(AsymmetryError):
            validate_metric([[0, 1], [2, 0]])

    def test_nonpositive(self):
        with pytest.raises(NonpositiveDistance):
            validate_metric([[0, 0], [0, 0]])

    def test_triangle_violation_reports_first_lex_pair(self):
        rows = [[0, 1, 5], [1, 0, 1], [5, 1, 0]]
        with pytest.raises(TriangleViolation) as exc:
            validate_metric(rows)
        assert (exc.value.i, exc.value.j, exc.value.k) == (0, 2, 1)

    def test_one_two_matrices_always_pass(self):
        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(2, 6)
            rows = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[i][j] = rows[j][i] = rng.choice([1, 2])
            validate_metric(rows)  # 1 + 1 >= 2, never a violation


PATH5 = [[abs(i - j) for j in range(5)] for i in range(5)]


class TestTriangleCap:
    """Above MAX_TRIANGLE_N points, a table that needs the O(n^3) triangle
    pass raises SizeCap before it; the cap is lowered to 4 here."""

    @pytest.fixture(autouse=True)
    def low_cap(self, monkeypatch):
        monkeypatch.setattr(metric, "MAX_TRIANGLE_N", 4)

    def test_path_metric_above_the_cap(self):
        assert path_space(4).n == 4
        with pytest.raises(SizeCap) as info:
            path_space(5)
        assert str(info.value) == (
            "the triangle check of a table with a distance above twice another "
            "is capped at n <= 4, got 5"
        )

    def test_tables_that_skip_the_pass_are_uncapped(self):
        assert uniform_space(9).n == 9
        # the builder skips validate_metric, so its table goes through it here
        assert validate_metric(balanced_group_space(12).scaled).n == 12
        # 3 against 2: no 1-2 table, but no distance above twice another
        rows = [[0 if i == j else 2 + (i + j) % 2 for j in range(6)] for i in range(6)]
        assert validate_metric(rows).n == 6

    def test_cap_comes_before_the_pass_and_after_the_sweeps(self):
        rows = [list(row) for row in PATH5]
        rows[0][4] = rows[4][0] = 9  # a violated triangle, never reached
        with pytest.raises(SizeCap):
            validate_metric(rows)
        rows[0][4] = 7
        with pytest.raises(AsymmetryError):
            validate_metric(rows)

    def test_cli_exit_code(self, tmp_path, capsys):
        path = tmp_path / "path5.txt"
        path.write_text(dump_metric(MetricSpace(5, tuple(map(tuple, PATH5)))))
        assert main(["lines", str(path)]) == 2
        assert "capped at n <= 4, got 5" in capsys.readouterr().err


class TestBetweenness:
    def test_collinear_points(self):
        S = path_space(3)
        assert between(S, 0, 1, 2)
        assert not between(S, 1, 0, 2)

    def test_requires_distinct_points(self):
        S = path_space(3)
        assert not between(S, 0, 0, 2)

    def test_exact_rational_tightness(self):
        S = validate_metric(
            [
                [0, Fraction(1, 3), Fraction(1, 2)],
                [Fraction(1, 3), 0, Fraction(1, 6)],
                [Fraction(1, 2), Fraction(1, 6), 0],
            ]
        )
        assert between(S, 0, 1, 2)


class TestLines:
    def test_line_contains_generators(self):
        S = random_int_space(random.Random(1), 6)
        for u in range(6):
            for v in range(u + 1, 6):
                ln = line_of(S, u, v)
                assert u in ln and v in ln

    def test_line_symmetry(self):
        S = random_int_space(random.Random(2), 5)
        for u in range(5):
            for v in range(u + 1, 5):
                assert line_of(S, u, v) == line_of(S, v, u)

    def test_family_matches_oracle(self):
        for seed in range(10):
            S = random_rational_space(random.Random(seed), 5)
            fam = line_family(S)
            assert set(map(frozenset, fam.lines)) == oracle_line_sets(S.dist)
            assert fam.count == len(oracle_line_sets(S.dist))

    def test_family_needs_two_points(self):
        with pytest.raises(TooFewPoints):
            line_family(validate_metric([[0]]))

    def test_uniform_space_lines_are_pairs(self):
        fam = line_family(uniform_space(4, 1))
        assert fam.count == 6
        assert all(len(ln) == 2 for ln in fam.lines)

    def test_path_space_has_universal_line(self):
        fam = line_family(path_space(4))
        assert fam.has_universal()

    def test_exchange_property(self):
        # w on the line of (u, v) exactly when v is on the line of (u, w)
        S = random_int_space(random.Random(3), 6)
        for u in range(6):
            for v in range(6):
                for w in range(6):
                    if len({u, v, w}) < 3:
                        continue
                    assert (w in line_of(S, u, v)) == (v in line_of(S, u, w))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 12).map(Fraction))
def test_scale_invariance_of_lines(seed, c):
    S = random_int_space(random.Random(seed), 5)
    scaled = validate_metric([[c * x for x in row] for row in S.dist])
    assert line_family(S).lines == line_family(scaled).lines


def test_extremes_reports_min_max_ratio():
    S = path_space(4)
    lo, hi, rho = extremes(S)
    assert (lo, hi, rho) == (1, 3, 3)


def test_extremes_needs_a_pair():
    with pytest.raises(TooFewPoints) as info:
        extremes(path_space(1))
    assert str(info.value) == "need at least 2 points, got 1"
