"""Exact evaluation of the lower-bound formulas.

Every bound used by the checkers has the shape base**(1/root) with a
rational base, possibly shifted by a rational constant.  Values are never
touched as floats: comparisons against a rational q are decided by
comparing q**root with base, and reported values are rational sandwiches
[lo, hi] with hi - lo <= 2**-30 obtained by integer root bracketing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .errors import BadParams, Record

Rational = Union[int, Fraction]

SANDWICH_BITS = 30

BOUND_IDS = (
    "sparse_lemma",
    "range",
    "diam",
    "graphs_corollary",
    "onetwo_lower",
    "turan_clique",
    "calculus",
)


def int_nthroot(a: int, k: int) -> tuple[int, bool]:
    """Largest r with r**k <= a, plus whether r**k == a exactly.

    a must be a nonnegative integer and k a positive integer.  r is found by
    bisection on lo**k <= a < hi**k, from lo = 0 and hi = 2**ceil(bits(a)/k).
    """
    if k < 1:
        raise BadParams(f"root must be positive, got {k}")
    if a < 0:
        raise BadParams(f"radicand must be nonnegative, got {a}")
    lo, hi = 0, 1 << -(-a.bit_length() // k)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**k <= a:
            lo = mid
        else:
            hi = mid
    return lo, lo**k == a


class PowerBound(Record):
    """The number base**(1/root) with base a nonnegative rational."""

    base: Fraction
    root: int
    shift: Fraction

    def __init__(self, base: Fraction, root: int, shift: Fraction = Fraction(0)):
        if root < 1:
            raise BadParams(f"root must be positive, got {root}")
        if base < 0:
            raise BadParams("base must be nonnegative")
        self.base = base
        self.root = root
        self.shift = shift

    def compare(self, q: Rational) -> int:
        """Sign of (value - q), decided exactly."""
        q = Fraction(q)
        body = q - self.shift
        if body < 0:
            return 1  # base**(1/root) >= 0 > body
        lhs = self.base
        rhs = body ** self.root
        return (lhs > rhs) - (lhs < rhs)

    def sandwich(self) -> tuple[Fraction, Fraction]:
        """Rational lo <= value <= hi with hi - lo <= 2**-SANDWICH_BITS.

        When the value is exactly representable the two ends coincide.
        """
        n, d = self.base.numerator, self.base.denominator
        rn, exact_n = int_nthroot(n, self.root)
        rd, exact_d = int_nthroot(d, self.root)
        if exact_n and exact_d:
            v = Fraction(rn, rd) + self.shift
            return v, v
        scaled = (n << (self.root * SANDWICH_BITS)) // d
        r, _ = int_nthroot(scaled, self.root)
        # r / 2**SANDWICH_BITS <= value < (r+1) / 2**SANDWICH_BITS, and the
        # value is not a dyadic rational here, so both inequalities are strict enough.
        lo = Fraction(r, 1 << SANDWICH_BITS) + self.shift
        hi = Fraction(r + 1, 1 << SANDWICH_BITS) + self.shift
        return lo, hi


def _as_int(value: object, name: str, least: int) -> int:
    """value as an int no smaller than least, which is 0 or 1."""
    if isinstance(value, Fraction):
        if value.denominator != 1:
            raise BadParams(f"{name} must be an integer, got {value}")
        value = value.numerator
    if not isinstance(value, int) or isinstance(value, bool):
        raise BadParams(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise BadParams(f"{name} must be {'positive' if least else 'nonnegative'}, got {value}")
    return value


def _as_positive_fraction(value: object, name: str) -> Fraction:
    try:
        q = Fraction(value)  # type: ignore[arg-type]
    except (TypeError, ValueError) as exc:
        raise BadParams(f"{name} must be rational, got {value!r}") from exc
    if q <= 0:
        raise BadParams(f"{name} must be positive, got {value}")
    return q


def power_bound(bound_id: str, params: dict) -> PowerBound:
    """Build the exact value of a named bound from its parameters.

    sparse_lemma(t)        0.25 * (2t)**(2/3)      = (t*t/16)**(1/3)
    range(n, rho)          0.25 * (n/rho)**(2/3)   = ((n/rho)**2/64)**(1/3)
    diam(t)                sqrt(t/2)
    graphs_corollary(n)    2**(-8/7) * n**(2/7)    = (n*n/256)**(1/7)
    onetwo_lower(n)        2**(-7/3) * n**(4/3)    = (n**4/128)**(1/3)
    turan_clique(x2, e2)   x2**2 / (2*e2 + x2)
    calculus(x)            3*2**(-5/3) * x**(4/3) - x/2
                           = (27*x**4/32)**(1/3) - x/2
    """
    if bound_id == "sparse_lemma":
        t = _as_int(params["t"], "t", 0)
        return PowerBound(Fraction(t * t, 16), 3)
    if bound_id == "range":
        n = _as_int(params["n"], "n", 1)
        rho = _as_positive_fraction(params["rho"], "rho")
        return PowerBound((Fraction(n) / rho) ** 2 / 64, 3)
    if bound_id == "diam":
        t = _as_int(params["t"], "t", 0)
        return PowerBound(Fraction(t, 2), 2)
    if bound_id == "graphs_corollary":
        n = _as_int(params["n"], "n", 1)
        return PowerBound(Fraction(n * n, 256), 7)
    if bound_id == "onetwo_lower":
        n = _as_int(params["n"], "n", 1)
        return PowerBound(Fraction(n ** 4, 128), 3)
    if bound_id == "turan_clique":
        x2 = _as_int(params["x2"], "x2", 1)
        e2 = _as_int(params["e2"], "e2", 0)
        return PowerBound(Fraction(x2 * x2, 2 * e2 + x2), 1)
    if bound_id == "calculus":
        x = _as_positive_fraction(params["x"], "x")
        return PowerBound(27 * x ** 4 / 32, 3, shift=-x / 2)
    raise BadParams(f"unknown bound id {bound_id!r}")


# Module constants from the closing construction, reported as sandwiches
# alongside their defining powers: alpha = 2**(-7/3), beta = 3 * 2**(-5/3).
ALPHA = PowerBound(Fraction(1, 128), 3)
BETA = PowerBound(Fraction(27, 32), 3)
