"""Tests for exact root extraction and the lower-bound evaluators."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from metriclines import (
    ALPHA,
    BETA,
    BOUND_IDS,
    BadParams,
    PowerBound,
    int_nthroot,
    power_bound,
)
from metriclines.bounds import SANDWICH_BITS


class TestIntegerRoots:
    # up to 10**30, and up to 2**400, past the radicands sandwich builds by
    # shifting a base left by root * SANDWICH_BITS bits (210 for a 7th root)
    @given(
        st.one_of(
            st.integers(min_value=0, max_value=10**30),
            st.integers(min_value=0, max_value=2**400),
        ),
        st.integers(1, 9),
    )
    def test_bracketing(self, a, k):
        r, exact = int_nthroot(a, k)
        assert r >= 0
        assert r**k <= a < (r + 1) ** k
        assert exact == (r**k == a)

    def test_examples(self):
        assert int_nthroot(0, 3) == (0, True)
        assert int_nthroot(1, 7) == (1, True)
        assert int_nthroot(26, 3) == (2, False)
        assert int_nthroot(27, 3) == (3, True)
        assert int_nthroot(10**18, 2) == (10**9, True)

    def test_rejects_bad_root(self):
        with pytest.raises(BadParams):
            int_nthroot(5, 0)

    def test_rejects_negative_radicand(self):
        with pytest.raises(BadParams) as info:
            int_nthroot(-1, 2)
        assert str(info.value) == "radicand must be nonnegative, got -1"


class TestCompare:
    @given(
        st.fractions(min_value=0, max_value=100, max_denominator=50),
        st.integers(1, 5),
        st.fractions(min_value=-10, max_value=100, max_denominator=50),
    )
    def test_compare_matches_cross_multiplication(self, base, root, q):
        pb = PowerBound(base, root)
        got = pb.compare(q)
        # the bound's value is base**(1/root); compare against q by powers
        if q < 0:
            expected = 1  # the value is nonnegative, so it exceeds any negative q
        else:
            lhs, rhs = base, q**root
            expected = (lhs > rhs) - (lhs < rhs)
        assert got == expected

    def test_shifted_compare(self):
        # value = 8**(1/3) - 1 = 1
        pb = PowerBound(Fraction(8), 3, shift=Fraction(-1))
        assert pb.compare(1) == 0
        assert pb.compare(Fraction(9, 10)) == 1
        assert pb.compare(2) == -1


class TestSandwich:
    @given(
        st.fractions(min_value=0, max_value=1000, max_denominator=100),
        st.integers(1, 5),
    )
    def test_encloses_and_is_tight(self, base, root):
        pb = PowerBound(base, root)
        lo, hi = pb.sandwich()
        assert lo <= hi
        assert hi - lo <= Fraction(1, 2**SANDWICH_BITS)
        # the true value lies inside: lo**root <= base <= hi**root
        assert lo**root <= base <= hi**root

    def test_exact_cases_collapse(self):
        lo, hi = power_bound("diam", {"t": 8}).sandwich()
        assert lo == hi == 2
        lo, hi = power_bound("turan_clique", {"x2": 6, "e2": 3}).sandwich()
        assert lo == hi == 3

    def test_cube_root_of_four(self):
        # range bound with n = 32, rho = 2: ((32/2)**2 / 64)**(1/3) = 4**(1/3)
        pb = power_bound("range", {"n": 32, "rho": 2})
        lo, hi = pb.sandwich()
        assert lo**3 < 4 < hi**3
        assert abs(float(lo) - 1.5874010519682) < 1e-6

    def test_shift_applies_to_both_ends(self):
        pb = PowerBound(Fraction(8), 3, shift=Fraction(5))
        lo, hi = pb.sandwich()
        assert lo == hi == 7


class TestNamedBounds:
    def test_formula_values_match_floats(self):
        cases = [
            ("sparse_lemma", {"t": 10}, 0.25 * 20 ** (2 / 3)),
            ("range", {"n": 9, "rho": Fraction(3, 2)}, 0.25 * 6 ** (2 / 3)),
            ("diam", {"t": 7}, (7 / 2) ** 0.5),
            ("graphs_corollary", {"n": 20}, 2 ** (-8 / 7) * 20 ** (2 / 7)),
            ("onetwo_lower", {"n": 6}, 2 ** (-7 / 3) * 6 ** (4 / 3)),
            ("turan_clique", {"x2": 5, "e2": 4}, 25 / 13),
            ("calculus", {"x": 3}, 3 * 2 ** (-5 / 3) * 3 ** (4 / 3) - 1.5),
        ]
        for bound_id, params, approx in cases:
            lo, hi = power_bound(bound_id, params).sandwich()
            assert float(lo) == pytest.approx(approx, abs=1e-6)
            assert float(hi) == pytest.approx(approx, abs=1e-6)

    def test_constants(self):
        lo, hi = ALPHA.sandwich()
        assert float(lo) == pytest.approx(2 ** (-7 / 3), abs=1e-8)
        lo, hi = BETA.sandwich()
        assert float(hi) == pytest.approx(3 * 2 ** (-5 / 3), abs=1e-8)

    def test_bound_ids_all_constructible(self):
        defaults = {
            "sparse_lemma": {"t": 4},
            "range": {"n": 4, "rho": 2},
            "diam": {"t": 4},
            "graphs_corollary": {"n": 4},
            "onetwo_lower": {"n": 4},
            "turan_clique": {"x2": 4, "e2": 2},
            "calculus": {"x": 4},
        }
        assert set(defaults) == set(BOUND_IDS)
        for bound_id, params in defaults.items():
            pb = power_bound(bound_id, params)
            lo, hi = pb.sandwich()
            assert lo <= hi

    def test_validation(self):
        with pytest.raises(BadParams):
            power_bound("range", {"n": 0, "rho": 1})
        with pytest.raises(BadParams):
            power_bound("range", {"n": 4, "rho": 0})
        with pytest.raises(BadParams):
            power_bound("diam", {"t": -1})
        with pytest.raises(BadParams):
            power_bound("turan_clique", {"x2": Fraction(1, 2), "e2": 1})
        with pytest.raises(BadParams):
            power_bound("no_such_bound", {})

    @pytest.mark.parametrize(
        "bound_id,params,message",
        [
            ("range", {"n": 0, "rho": 1}, "n must be positive, got 0"),
            ("graphs_corollary", {"n": Fraction(-4, 2)}, "n must be positive, got -2"),
            ("diam", {"t": -1}, "t must be nonnegative, got -1"),
            ("turan_clique", {"x2": 2, "e2": -3}, "e2 must be nonnegative, got -3"),
            ("turan_clique", {"x2": Fraction(1, 2), "e2": 1}, "x2 must be an integer, got 1/2"),
            ("sparse_lemma", {"t": 1.0}, "t must be an integer, got 1.0"),
            ("onetwo_lower", {"n": True}, "n must be an integer, got True"),
            ("diam", {"t": "3"}, "t must be an integer, got '3'"),
        ],
    )
    def test_integer_parameter_messages(self, bound_id, params, message):
        with pytest.raises(BadParams) as info:
            power_bound(bound_id, params)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: PowerBound(Fraction(-1), 3), "base must be nonnegative"),
            (lambda: PowerBound(Fraction(1), 0), "root must be positive, got 0"),
            (lambda: power_bound("range", {"n": 5, "rho": "x"}), "rho must be rational, got 'x'"),
        ],
        ids=["negative_base", "zero_root", "irrational_rho"],
    )
    def test_value_checks(self, build, message):
        with pytest.raises(BadParams) as info:
            build()
        assert str(info.value) == message

    def test_integer_parameters_accept_integral_fractions(self):
        assert power_bound("diam", {"t": Fraction(0)}) == PowerBound(Fraction(0), 2)
        assert power_bound("onetwo_lower", {"n": Fraction(6, 3)}) == power_bound(
            "onetwo_lower", {"n": 2}
        )

    def test_missing_param_is_key_error(self):
        with pytest.raises(KeyError):
            power_bound("diam", {})
