"""Finite metric spaces and the lines their betweenness relation induces.

Points are 0..n-1.  Distances are exact rationals, kept once as an integer
table over their least common denominator, so betweenness,
d(a,b) + d(b,c) == d(a,c), is decided exactly, with no floats, on ints.
Fractions appear only where rationals enter as Fractions (validate_metric
reduces ints over a scale, as the loader and metrizable hand them, by gcd)
and leave (dist, extremes).  int_metric_line_masks turns the table into one
line bitmask per pair; sort_distinct cuts that list to its distinct masks
in place, and family_from_masks reads their points off over one shared
tuple of the n point ints.

Packed rows.  The kernel and the triangle pass of validate_metric work on
each row of the integer table packed into one Python int: entry w sits in a
field of b = 8 * 2**k bits at bit b*w, with b chosen so that twice the
largest entry is below 2**(b-1).  Sums of two rows then never carry from
one field into the next, so one big-integer operation tests a pair (u, v)
against every point at once.  For the line, each of the three betweenness
equalities is a sum of rows XORed with d(u,v) in every field; adding the
low b-1 bits of every field sets a field's top bit exactly when the field
is nonzero, and the points whose top bit is clear in at least one of the
three are the line.  For the triangle inequality, (row_i + row_j) with every
top bit set, minus d(i,j) in every field, keeps every top bit exactly when
no point k has d(i,k) + d(k,j) < d(i,j).

A line is its point set: a frozenset for a single line, a sorted tuple
inside a family.  Two pairs that generate the same set give one line, and
which pairs generated it is not kept.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations, compress
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import (
    AsymmetryError,
    BadParams,
    NonpositiveDistance,
    NonzeroDiagonal,
    Record,
    SizeCap,
    TooFewPoints,
    TriangleViolation,
    check_pair,
    check_points,
)

if TYPE_CHECKING:
    from fractions import Fraction

# the most points validate_metric runs its O(n^3) triangle pass on: over the
# line metric |i - j| the whole validation took 0.20 s at n = 500, 1.25 s at
# 1,000, 3.8 s at 1,500 and 8.9-10.0 s at 2,000 (CPython 3.11, one Xeon core)
MAX_TRIANGLE_N = 2000


class MetricSpace(Record):
    """A finite metric space: d(i,j) is scaled[i][j] / scale.

    Nothing is checked here.  The caller passes a metric in lowest terms,
    gcd(scale, *entries) == 1, as validate_metric and graph_to_space do, so
    each space has one (n, scaled, scale) for equality, hashing and repr.
    dist (the Fractions) and packed (the kernel's rows) are built on first
    use.
    """

    n: int
    scaled: tuple[tuple[int, ...], ...]
    scale: int

    def __init__(self, n: int, scaled: tuple[tuple[int, ...], ...], scale: int = 1):
        super().__init__(n, scaled, scale)

    @cached_property
    def dist(self) -> tuple[tuple[Fraction, ...], ...]:
        """The distances as Fractions, built only when read."""
        from fractions import Fraction

        s = self.scale
        return tuple(tuple(Fraction(x, s) for x in row) for row in self.scaled)

    @cached_property
    def packed(self) -> tuple[int, list[int]]:
        """Bytes per field and the packed rows of scaled, as _packed_rows gives them."""
        return _packed_rows(self.scaled)

    @cached_property
    def non_one_two_pair(self) -> tuple[int, int] | None:
        """The first pair i < j, in lexicographic order, at a distance other
        than 1 and 2; None for a 1-2 space.  Found once per space."""
        one, two = self.scale, 2 * self.scale
        allowed = {one, two}
        for i, row in enumerate(self.scaled):
            if not allowed.issuperset(row[i + 1 :]):
                j = next(j for j in range(i + 1, self.n) if row[j] != one and row[j] != two)
                return i, j
        return None


class LineFamily(Record):
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


def validate_metric(rows: Sequence[Sequence[Fraction | int | str]], scale: int = 1) -> MetricSpace:
    """Check the metric axioms on a square table and build a MetricSpace.

    d(i,j) is rows[i][j] / scale, for a positive int scale.  Entries may be
    ints, Fractions, or anything Fraction() accepts, such as strings; a row
    of ints alone builds no Fraction.  Checks run in a fixed order: shape,
    diagonal/positivity/symmetry swept row by row, then triangle
    inequalities over pairs i < j (lexicographic) with the intermediate
    point k ascending.  The triangle pass is skipped when no distance is
    more than twice another, which holds every inequality; a table that
    needs it on more than MAX_TRIANGLE_N points raises SizeCap instead.
    """
    if scale < 1:
        raise BadParams(f"scale must be a positive integer, got {scale}")
    n = len(rows)
    if n < 1:
        raise TooFewPoints(n, 1)
    table = []
    den = 1
    ints = True
    for i, row in enumerate(rows):
        if len(row) != n:
            raise BadParams(f"row {i} has {len(row)} entries, expected {n}")
        if not {int}.issuperset(map(type, row)):
            from fractions import Fraction

            row = [x if type(x) in (int, Fraction) else Fraction(x) for x in row]
            den = lcm(den, *[x.denominator for x in row])
            ints = False
        table.append(tuple(row))
    if not ints:
        # ints and Fractions alike have numerator and denominator
        table = [tuple(x.numerator * (den // x.denominator) for x in row) for row in table]
    if scale == 1:
        # Fractions over the lcm of their denominators have no common factor
        scale = den
    else:
        scale *= den
        common = gcd(scale, *chain.from_iterable(table))
        if common != 1:
            scale //= common
            table = [tuple(x // common for x in row) for row in table]
    S = MetricSpace(n, tuple(table), scale)
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
    # with every distance between lo and 2*lo, as in a 1-2 space,
    # d(i,j) <= 2*lo <= d(i,k) + d(k,j) for every k, so no triangle fails
    if n < 3 or max(map(max, D)) <= 2 * min(min(row[i + 1 :]) for i, row in enumerate(D[:-1])):
        return S
    if n > MAX_TRIANGLE_N:
        raise SizeCap(
            f"the triangle check of a table with a distance above twice another "
            f"is capped at n <= {MAX_TRIANGLE_N}, got {n}"
        )
    # k = i and k = j give d(i,j) itself, so a top bit is lost exactly when
    # some other k violates the inequality
    size, packed = S.packed
    ones = _ones(n, size)
    top = ones << (8 * size - 1)
    for i in range(n):
        Di = D[i]
        pi = packed[i]
        for j in range(i + 1, n):
            dij = Di[j]
            if (((pi + packed[j]) | top) - dij * ones) & top != top:
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


def _packed_rows(rows: Sequence[Sequence[int]]) -> tuple[int, list[int]]:
    """Bytes per field, and each row packed into one int, entry w at field w.

    The field is the smallest of 1, 2, 4, 8, ... bytes in which twice the
    largest entry stays below the field's top bit.  Entries must be
    nonnegative.
    """
    largest = max(map(max, rows))
    size = 1
    while largest >> (8 * size - 2):
        size *= 2
    if size == 1:
        return size, [int.from_bytes(bytes(row), "little") for row in rows]
    return size, [
        int.from_bytes(b"".join([x.to_bytes(size, "little") for x in row]), "little")
        for row in rows
    ]


def _ones(n: int, size: int) -> int:
    """1 in each of n fields of size bytes."""
    return int.from_bytes(b"\1".ljust(size, b"\0") * n, "little")


# a field's top byte, as the ASCII digit of its point in the line mask:
# "1" when the top bit is clear (some equality holds), "0" when it is set
_DIGIT = b"1" * 0x80 + b"0" * 0x80


def _line_masks(
    n: int,
    rows: Sequence[Sequence[int]],
    size: int,
    packed: Sequence[int],
    pairs: Iterable[tuple[int, int]],
) -> list[int]:
    """Line bitmask of each pair, from the rows packed in fields of size bytes.

    packed[u] is row u as _packed_rows packs it.  Each mask is built as a
    string of binary digits, one per field, read off the fields' top bytes
    in big-endian order.
    """
    ones = _ones(n, size)
    low = ones * ((1 << (8 * size - 1)) - 1)
    nbytes = n * size
    out = []
    for u, v in pairs:
        pu = packed[u]
        pv = packed[v]
        d = rows[u][v] * ones
        # top bit of field w: w is in none of [uwv], [wuv] and [uvw]
        off = (((pu + pv) ^ d) + low) & (((pu + d) ^ pv) + low) & (((pv + d) ^ pu) + low)
        out.append(int(off.to_bytes(nbytes, "big")[::size].translate(_DIGIT), 2))
    return out


def int_metric_line_masks(n: int, rows: Sequence[Sequence[int]]) -> list[int]:
    """Line bitmasks for an integer-distance metric, one per pair u < v.

    Precondition: rows is an n by n table of nonnegative integers with a
    zero diagonal.  Point w is on the line of u, v when one of d(u,w),
    d(v,w) and d(u,v), read from rows u and v, is the sum of the other two;
    with a symmetric table this puts u and v on their own line.
    """
    if n < 2:
        return []
    size, packed = _packed_rows(rows)
    return _line_masks(n, rows, size, packed, combinations(range(n), 2))


def pair_line_masks(S: MetricSpace, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Line bitmasks of the given pairs of S, from its packed rows."""
    return _line_masks(S.n, S.scaled, *S.packed, pairs)


# a binary digit of a mask as the byte compress tests: 1 for "1", 0 for "0"
_BITS = bytes.maketrans(b"01", b"\0\1")


def mask_points(mask: int, points: Sequence[int] | None = None) -> tuple[int, ...]:
    """The set bits of mask, ascending, as the entries of points they index.

    points defaults to range(mask.bit_length()), the bit positions
    themselves; a caller reading many masks passes one tuple(range(n)) so
    that every tuple holds the same n point ints.  A mask with at least
    one set bit in eight is read off its binary digits, lowest first, by
    compress, which costs about 25 ns a digit; a sparser one one set bit at
    a time, which costs about 250 ns a bit.
    """
    if points is None:
        points = range(mask.bit_length())
    if mask.bit_count() * 8 >= mask.bit_length():
        return tuple(compress(points, bin(mask)[:1:-1].encode().translate(_BITS)))
    pts = []
    while mask:
        low = mask & -mask
        pts.append(points[low.bit_length() - 1])
        mask ^= low
    return tuple(pts)


def sort_distinct(masks: list[int]) -> list[int]:
    """Sort masks, nonnegative ints, in place, drop repeats in place, and
    return masks.

    No second list or set is built, so the distinct masks are held once;
    the largest, the universal mask when present, ends up last.
    """
    masks.sort()
    k = 0
    last = -1
    for mask in masks:
        # k never passes the read position, so no unread entry is overwritten
        if mask != last:
            masks[k] = last = mask
            k += 1
    del masks[k:]
    return masks


def family_from_masks(n: int, masks: list[int]) -> LineFamily:
    """The distinct lines among per-pair line masks, one mask per pair.

    masks is sorted and cut to its distinct entries in place, and every
    line's tuple holds the same n point ints.
    """
    pair_count = len(masks)
    points = tuple(range(n))
    lines = [mask_points(mask, points) for mask in sort_distinct(masks)]
    lines.sort()
    return LineFamily(n, tuple(lines), pair_count)


def line_of(S: MetricSpace, u: int, v: int) -> frozenset[int]:
    """The line through the pair u, v.

    It contains u and v, every p with [puv], every p with [upv], and every
    p with [uvp].
    """
    check_pair(S.n, u, v)
    return frozenset(mask_points(pair_line_masks(S, [(u, v)])[0]))


def line_family(S: MetricSpace) -> LineFamily:
    """Every distinct line of S, one per distinct point set."""
    if S.n < 2:
        raise TooFewPoints(S.n, 2)
    return family_from_masks(S.n, int_metric_line_masks(S.n, S.scaled))


def extremes(S: MetricSpace) -> tuple[Fraction, Fraction, Fraction]:
    """(smallest distance, largest distance, their ratio) over distinct pairs."""
    if S.n < 2:
        raise TooFewPoints(S.n, 2)
    from fractions import Fraction

    upper = [row[i + 1 :] for i, row in enumerate(S.scaled[:-1])]
    lo = min(map(min, upper))
    hi = max(map(max, upper))
    return Fraction(lo, S.scale), Fraction(hi, S.scale), Fraction(hi, lo)


def uniform_space(n: int, c: Fraction | int = 1) -> MetricSpace:
    """All pairwise distances equal to c."""
    rows = [[0 if i == j else c for j in range(n)] for i in range(n)]
    return validate_metric(rows)
