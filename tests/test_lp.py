from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import SolverFailure
from metriclines.lp import maximize_scaled


def solve_square(rows, rhs):
    """Gaussian elimination over Fractions; None if singular."""
    k = len(rows)
    M = [list(map(Fraction, row)) + [Fraction(rhs[i])] for i, row in enumerate(rows)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if M[r][col] != 0), None)
        if pivot is None:
            return None
        M[col], M[pivot] = M[pivot], M[col]
        inv = 1 / M[col][col]
        M[col] = [x * inv for x in M[col]]
        for r in range(k):
            if r != col and M[r][col] != 0:
                f = M[r][col]
                M[r] = [a - f * b for a, b in zip(M[r], M[col])]
    return [M[i][k] for i in range(k)]


def oracle_lp_max(objective, rows):
    """Maximize c*x over Ax <= b, x >= 0 by enumerating basic solutions.

    Only sound on bounded feasible problems, which is all the tests feed it.
    """
    nvars = len(objective)
    cons = [(list(a), Fraction(b)) for a, b in rows]
    for i in range(nvars):
        unit = [Fraction(0)] * nvars
        unit[i] = Fraction(-1)
        cons.append((unit, Fraction(0)))  # -x_i <= 0
    best = None
    for chosen in itertools.combinations(range(len(cons)), nvars):
        sub = [cons[i][0] for i in chosen]
        rhs = [cons[i][1] for i in chosen]
        x = solve_square(sub, rhs)
        if x is None:
            continue
        if all(
            sum(a * v for a, v in zip(row, x)) <= b for row, b in cons
        ):
            val = sum(c * v for c, v in zip(objective, x))
            if best is None or val > best:
                best = val
    return best


def solve(objective, rows):
    """maximize_scaled on copies of integer (coefficients, rhs) rows."""
    return maximize_scaled(objective, [list(a) for a, _ in rows], [b for _, b in rows])


def random_bounded_lp(rng, nvars, nrows):
    objective = [rng.randint(-3, 5) for _ in range(nvars)]
    rows = []
    for _ in range(nrows):
        coeffs = [rng.randint(-2, 4) for _ in range(nvars)]
        rows.append((coeffs, rng.randint(0, 9)))
    # a box row keeps the feasible region bounded for the oracle
    rows.append(([1] * nvars, rng.randint(5, 20)))
    return objective, rows


class TestSimplex:
    def test_textbook_instance(self):
        sol = solve([3, 5], [([1, 0], 4), ([0, 2], 12), ([3, 2], 18)])
        assert sol.value == 36
        assert sol.x == (Fraction(2), Fraction(6))

    def test_degenerate_vertex(self):
        sol = solve([1, 1], [([1, 1], 1), ([2, 2], 2), ([1, 0], 1)])
        assert sol.value == 1

    def test_origin_optimal(self):
        sol = solve([-1, -2], [([1, 1], 5)])
        assert sol.value == 0
        assert sol.x == (Fraction(0), Fraction(0))

    def test_unbounded_detected(self):
        with pytest.raises(SolverFailure):
            solve([1], [([-1], 3)])

    def test_negative_rhs_rejected(self):
        with pytest.raises(SolverFailure):
            solve([1], [([1], -1)])

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 100_000))
    def test_matches_vertex_enumeration(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 3)
        nrows = rng.randint(1, 4)
        objective, rows = random_bounded_lp(rng, nvars, nrows)
        sol = solve(objective, rows)
        assert sol.value == oracle_lp_max(objective, rows)
        # the reported point is feasible and achieves the value
        assert all(v >= 0 for v in sol.x)
        for coeffs, b in rows:
            assert sum(a * v for a, v in zip(coeffs, sol.x)) <= b
        assert sum(c * v for c, v in zip(objective, sol.x)) == sol.value
