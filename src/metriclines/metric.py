"""Finite metric spaces and the lines their betweenness relation induces.

Points are 0..n-1.  Distances are exact rationals (fractions.Fraction).
Betweenness, d(a,b) + d(b,c) == d(a,c), does not change when every distance
is multiplied by the lcm of the denominators, so it is decided exactly, with
no floats, on that integer table.  int_metric_line_masks turns the table
into one line bitmask per pair, and family_from_masks keeps the distinct ones.

A line is its point set: a frozenset for a single line, a sorted tuple
inside a family.  Two pairs that generate the same set give one line, and
which pairs generated it is not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add
from typing import Sequence

from .errors import (
    AsymmetryError,
    BadParams,
    NonpositiveDistance,
    NonzeroDiagonal,
    TooFewPoints,
    TriangleViolation,
    check_pair,
    check_points,
)


@dataclass(frozen=True)
class MetricSpace:
    """A validated finite metric space with exact rational distances.

    scaled is dist times scale, the lcm of its denominators; both derive
    from dist and take no part in equality or hashing.
    """

    n: int
    dist: tuple[tuple[Fraction, ...], ...]
    scale: int = field(init=False, repr=False, compare=False)
    scaled: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = lcm(*{x.denominator for row in self.dist for x in row})
        scaled = tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row)
            for row in self.dist
        )
        object.__setattr__(self, "scale", scale)
        object.__setattr__(self, "scaled", scaled)


@dataclass(frozen=True)
class LineFamily:
    """All distinct lines of a space, in a canonical order.

    Each line is its sorted point tuple, and the lines are sorted, so the
    same family always comes out in the same order regardless of how it was
    accumulated.  pair_count is the number of pairs the lines came from.
    """

    n: int
    lines: tuple[tuple[int, ...], ...]
    pair_count: int

    @property
    def count(self) -> int:
        return len(self.lines)

    def has_universal(self) -> bool:
        return any(len(ln) == self.n for ln in self.lines)


def validate_metric(rows: Sequence[Sequence[Fraction | int | str]]) -> MetricSpace:
    """Check the metric axioms on a square table and build a MetricSpace.

    Entries may be Fractions, ints, or strings Fraction() accepts.  Checks
    run in a fixed order: shape, diagonal/positivity/symmetry swept row by
    row, then triangle inequalities over pairs i < j (lexicographic) with
    the intermediate point k ascending.
    """
    n = len(rows)
    if n < 1:
        raise TooFewPoints(n, 1)
    table = []
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadParams(f"row {i} has {len(row)} entries, expected {n}")
        table.append(tuple(x if type(x) is Fraction else Fraction(x) for x in row))
    S = MetricSpace(n, tuple(table))
    D = S.scaled
    for i in range(n):
        Di = D[i]
        if Di[i] != 0:
            raise NonzeroDiagonal(i)
        for j in range(i + 1, n):
            if Di[j] != D[j][i]:
                raise AsymmetryError(i, j)
            if Di[j] <= 0:
                raise NonpositiveDistance(i, j)
    # k = i and k = j give d(i,j) itself, so the minimum over all k falls
    # below d(i,j) exactly when some other k violates the inequality
    for i in range(n):
        Di = D[i]
        for j in range(i + 1, n):
            dij = Di[j]
            if min(map(add, Di, D[j])) < dij:
                k = next(k for k in range(n) if Di[k] + D[k][j] < dij)
                raise TriangleViolation(i, j, k)
    return S


def between(S: MetricSpace, a: int, b: int, c: int) -> bool:
    """True when b lies between a and c: all distinct and d(a,b)+d(b,c)==d(a,c)."""
    check_points(S.n, a, b, c)
    if a == b or b == c or a == c:
        return False
    D = S.scaled
    return D[a][b] + D[b][c] == D[a][c]


def _pair_mask(du: Sequence[int], dv: Sequence[int], duv: int) -> int:
    """Line of u, v from their distance rows; u and v pass the test themselves."""
    mask = 0
    for w, a, b in zip(range(len(du)), du, dv):
        if a + b == duv or a + duv == b or b + duv == a:
            mask |= 1 << w
    return mask


def int_metric_line_masks(n: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """Line bitmasks for an integer-distance metric, one per pair u < v."""
    return [_pair_mask(rows[u], rows[v], rows[u][v]) for u, v in combinations(range(n), 2)]


def mask_points(mask: int) -> tuple[int, ...]:
    """The set bits of mask, ascending."""
    pts = []
    while mask:
        low = mask & -mask
        pts.append(low.bit_length() - 1)
        mask ^= low
    return tuple(pts)


def family_from_masks(n: int, masks: Sequence[int]) -> LineFamily:
    """The distinct lines among per-pair line masks, one mask per pair."""
    return LineFamily(n, tuple(sorted(map(mask_points, set(masks)))), len(masks))


def line_of(S: MetricSpace, u: int, v: int) -> frozenset[int]:
    """The line through the pair u, v.

    It contains u and v, every p with [puv], every p with [upv], and every
    p with [uvp].
    """
    check_pair(S.n, u, v)
    D = S.scaled
    return frozenset(mask_points(_pair_mask(D[u], D[v], D[u][v])))


def line_family(S: MetricSpace) -> LineFamily:
    """Every distinct line of S, one per distinct point set."""
    if S.n < 2:
        raise TooFewPoints(S.n, 2)
    return family_from_masks(S.n, int_metric_line_masks(S.n, S.scaled))


def extremes(S: MetricSpace) -> tuple[Fraction, Fraction, Fraction]:
    """(smallest distance, largest distance, their ratio) over distinct pairs."""
    if S.n < 2:
        raise TooFewPoints(S.n, 2)
    upper = [row[i + 1 :] for i, row in enumerate(S.scaled[:-1])]
    lo = min(map(min, upper))
    hi = max(map(max, upper))
    return Fraction(lo, S.scale), Fraction(hi, S.scale), Fraction(hi, lo)


def uniform_space(n: int, c: Fraction | int = 1) -> MetricSpace:
    """All pairwise distances equal to c."""
    c = Fraction(c)
    rows = [[Fraction(0) if i == j else c for j in range(n)] for i in range(n)]
    return validate_metric(rows)
