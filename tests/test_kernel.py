"""The integer line kernel against the Fraction definitions.

Distances are drawn with pairwise coprime denominators (7, 11, 13, 9973), so
the lcm that scales a space to integers runs into the millions and the
shortest-path closure mixes denominators.  Lines, betweenness, triples and
validation must still agree exactly with the definitions in helpers.

The kernel packs each row into one int with fields of 1, 2, 4, 8, ... bytes,
sized by the largest entry.  Its masks must equal the point-by-point
reference on whole small universes, and tables whose largest entry sits on
either side of each width change must give the reference's masks and
validation errors.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import (
    MetricLinesError,
    MetricSpace,
    PreconditionUnmet,
    TriangleViolation,
    between,
    betweenness_triples,
    check_bound,
    enum_graphs,
    graph_from_edges,
    graph_to_space,
    line_family,
    line_of,
    validate_metric,
)
from metriclines.graphs import graph_dist_rows
from metriclines.metric import (
    _packed_rows,
    family_from_masks,
    int_metric_line_masks,
    mask_points,
    sort_distinct,
)
from lemmas import NotOneTwoSpace, space_to_graph
from helpers import (
    floyd_closure,
    labeled_graph_rows,
    oracle_line,
    oracle_line_sets,
    oracle_triples,
    oracle_validate,
    reference_line_masks,
)

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
        rows = coprime_rows(random.Random(seed), 7)
        S = validate_metric(rows)
        assert S.scale == math.lcm(*(x.denominator for row in rows for x in row))
        for row, srow in zip(rows, S.scaled):
            for x, y in zip(row, srow):
                assert type(y) is int and Fraction(y, S.scale) == x

    @pytest.mark.parametrize("seed", SEEDS)
    def test_scale_is_coprime_to_the_table(self, seed):
        S = coprime_space(seed, 7)
        assert math.gcd(S.scale, *(x for row in S.scaled for x in row)) == 1

    def test_lcm_is_large(self):
        # the draws really do mix the coprime denominators
        assert max(coprime_space(seed, 7).scale for seed in SEEDS) > 10**6

    def test_ints_fractions_and_strings_give_one_space(self):
        ints = [[0, 1, 2], [1, 0, 1], [2, 1, 0]]
        fracs = [[Fraction(x) for x in row] for row in ints]
        strs = [["0", "2/2", "4/2"], ["1", "0", "+1"], ["4/2", "2/2", "0"]]
        spaces = [validate_metric(rows) for rows in (ints, fracs, strs)]
        for S in spaces:
            assert S == spaces[0] and hash(S) == hash(spaces[0])
            assert S.scaled == ((0, 1, 2), (1, 0, 1), (2, 1, 0)) and S.scale == 1
            assert all(type(x) is int for row in S.scaled for x in row)
        halves = validate_metric([[0, "1/2", 1], [Fraction(1, 2), 0, "2/4"], [1, "1/2", 0]])
        assert halves.scale == 2 and halves.scaled == spaces[0].scaled
        assert halves != spaces[0]

    def test_dist_is_built_when_read(self):
        rows = coprime_rows(random.Random(0), 6)
        S = validate_metric(rows)
        assert "dist" not in vars(S)
        assert S.dist == tuple(map(tuple, rows))
        assert all(type(x) is Fraction for row in S.dist for x in row)
        assert "dist" in vars(S) and "dist" not in repr(S)

    def test_equality_hash_and_repr_are_the_table(self):
        S = coprime_space(0, 6)
        again = MetricSpace(S.n, S.scaled, S.scale)
        assert again == S and hash(again) == hash(S)
        assert repr(S) == f"MetricSpace(n=6, scaled={S.scaled!r}, scale={S.scale!r})"
        assert MetricSpace(S.n, S.scaled, S.scale * 7) != S
        # validation packed the rows of S, not yet those of again
        assert "packed" in vars(S) and "packed" not in vars(again)
        assert again.packed == S.packed and again == S and "packed" not in repr(S)

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


def one_two_tables(n: int):
    """Every table on n points with each distance 1 or 2."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            rows[i][j] = rows[j][i] = 1 + (bits >> k & 1)
        yield rows


def corrupted(rows):
    """Copies of rows with one entry, or one symmetric pair of entries, changed."""
    n = len(rows)
    for i, j in itertools.product(range(n), repeat=2):
        for value in (0, Fraction(1, 2), 3, 4, 5):
            out = [row[:] for row in rows]
            out[i][j] = value
            yield out
            if i != j:
                out = [row[:] for row in out]
                out[j][i] = value
                yield out


class TestBoundedRatioSkipsTheTrianglePass:
    """With no distance above twice another, as in every 1-2 table, the
    triangle pass is skipped; the result must be that of the full pass."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_one_two_table(self, n):
        for rows in one_two_tables(n):
            S = validate_metric(rows)
            assert S.scaled == tuple(map(tuple, rows)) and S.scale == 1
            if n <= 5:  # the Fraction pass takes 10 s over the 32,768 tables on 6
                assert outcome(oracle_validate, rows) is None

    @pytest.mark.parametrize("n", range(1, 5))
    def test_corrupted_copies(self, n):
        kinds = set()
        for rows in one_two_tables(n):
            for bad in corrupted(rows):
                got = outcome(validate_metric, bad)
                assert got == outcome(oracle_validate, bad)
                kinds.add(got and got[0].__name__)
        if n >= 3:
            assert {"TriangleViolation", "AsymmetryError", None} <= kinds

    def test_corrupted_six_point_tables(self):
        rng = random.Random(6)
        tables = list(one_two_tables(6))
        for _ in range(300):
            bad = rng.choice(list(corrupted(rng.choice(tables))))
            assert outcome(validate_metric, bad) == outcome(oracle_validate, bad)

    def test_ratio_two_is_enough(self):
        # 3 against 2 is no 1-2 table, but no distance exceeds twice another
        rows = [[0, 2, 3, 2], [2, 0, 2, 4], [3, 2, 0, 2], [2, 4, 2, 0]]
        assert outcome(validate_metric, rows) is None is outcome(oracle_validate, rows)
        rows[1][3] = rows[3][1] = 5
        assert outcome(validate_metric, rows) == (TriangleViolation, {"i": 1, "j": 3, "k": 0})
        assert outcome(validate_metric, rows) == outcome(oracle_validate, rows)


def bit_loop_points(mask: int) -> tuple[int, ...]:
    """The set bits of mask, one lowest set bit at a time."""
    pts = []
    while mask:
        low = mask & -mask
        pts.append(low.bit_length() - 1)
        mask ^= low
    return tuple(pts)


def test_mask_points_matches_the_bit_loop():
    # both ways of reading a mask: its digits, and one set bit at a time
    for mask in range(1 << 12):
        assert mask_points(mask) == bit_loop_points(mask)
    rng = random.Random(1000)
    for _ in range(200):
        dense = rng.getrandbits(1000)
        sparse = dense & rng.getrandbits(1000) & rng.getrandbits(1000) & rng.getrandbits(1000)
        for mask in (dense, sparse, dense | 1 << 999, sparse | 1 << 999):
            assert mask_points(mask) == bit_loop_points(mask)


@st.composite
def mask_lists(draw):
    """Masks on n points with repeats, and the universal mask drawn in too."""
    n = draw(st.integers(1, 70))
    pool = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=12))
    pool.append((1 << n) - 1)
    return draw(st.lists(st.sampled_from(pool), max_size=40))


@settings(max_examples=300, deadline=None)
@given(mask_lists())
def test_sort_distinct_is_sorted_set_in_place(masks):
    expected = sorted(set(masks))
    assert sort_distinct(masks) is masks
    assert masks == expected


def test_family_lines_share_point_ints():
    # CPython caches no int above 256, so reading each mask off its own
    # range made its own point ints; both ways of reading a mask are drawn
    n = 600
    rng = random.Random(600)
    dense = [rng.getrandbits(n) | 1 << 599 | 1 << 500 for _ in range(4)]
    sparse = [1 << 500 | 1 << 599 | 1 << rng.randrange(n) for _ in range(4)]
    family = family_from_masks(n, dense + sparse)
    first: dict[int, int] = {}
    for line in family.lines:
        for p in line:
            assert first.setdefault(p, id(p)) == id(p), p
    assert {500, 599} <= first.keys()


class TestOneTwoCheck:
    def test_half_distances_are_not_one_two(self):
        # scaled by 2, the distances 1/2 and 1 become 1 and 2
        S = validate_metric([[0, Fraction(1, 2), 1], [Fraction(1, 2), 0, 1], [1, 1, 0]])
        assert S.scaled == ((0, 1, 2), (1, 0, 2), (2, 2, 0))
        assert S.non_one_two_pair == (0, 1)
        with pytest.raises(NotOneTwoSpace) as exc:
            space_to_graph(S)
        assert (exc.value.i, exc.value.j) == (0, 1)
        with pytest.raises(PreconditionUnmet):
            check_bound(S, "onetwo_lower")

    def test_first_offending_pair_is_lexicographic(self):
        h = Fraction(3, 2)
        rows = [[0, 1, 2, 1], [1, 0, 2, h], [2, 2, 0, 2], [1, h, 2, 0]]
        S = validate_metric(rows)
        assert S.non_one_two_pair == (1, 3)
        with pytest.raises(NotOneTwoSpace) as exc:
            space_to_graph(S)
        assert (exc.value.i, exc.value.j) == (1, 3)

    def test_one_two_spaces_pass(self):
        S = graph_to_space(graph_from_edges(5, [(0, 1), (2, 3)]))
        assert S.non_one_two_pair is None
        assert check_bound(S, "onetwo_lower").lines_found == line_family(S).count


def one_two_rows(adj_rows) -> list[list[int]]:
    """The 1-2 table of a graph given by its 0/1 adjacency rows."""
    n = len(adj_rows)
    return [[0 if i == j else 2 - adj_rows[i][j] for j in range(n)] for i in range(n)]


class TestPackedKernelMatchesReference:
    def test_connected_graph_metrics(self):
        for n in range(1, 8):
            for G in enum_graphs(n, connected=True):
                rows = graph_dist_rows(G)
                assert int_metric_line_masks(n, rows) == reference_line_masks(n, rows), G.adj

    def test_one_two_spaces_of_every_labeled_graph(self):
        for n in range(1, 7):
            for adj_rows in labeled_graph_rows(n):
                rows = one_two_rows(adj_rows)
                assert int_metric_line_masks(n, rows) == reference_line_masks(n, rows), rows

    @pytest.mark.parametrize("seed", SEEDS)
    def test_coprime_spaces(self, seed):
        S = coprime_space(seed, 8)
        assert int_metric_line_masks(S.n, S.scaled) == reference_line_masks(S.n, S.scaled)


# largest entries on either side of each field-width change (64, 2**14, 2**30,
# 2**62, 2**126), of the byte boundaries 2**15, 2**31 and 2**63, and past 2**64
TOPS = sorted(
    {t + s for t in (64, 1 << 14, 1 << 15, 1 << 30, 1 << 31, 1 << 62, 1 << 63, 1 << 126) for s in (-1, 0)}
    | {(1 << 64) + 1}
)


def wide_metric(rng: random.Random, n: int, top: int) -> list[list[int]]:
    """A metric with largest entry top: entries in [top - top // 2, top].

    Any two such entries sum to at least top, so every triangle holds.  For
    even top, two halves make a tight triangle, so some lines have a third
    point.
    """
    lo = top - top // 2
    rows = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        rows[i][j] = rows[j][i] = rng.choice((lo, lo, top, rng.randint(lo, top)))
    if n > 1:
        rows[0][n - 1] = rows[n - 1][0] = top
    return rows


def sum_table(rng: random.Random, n: int, top: int) -> list[list[int]]:
    """A nonnegative table with zero diagonal, largest entry top, not symmetric.

    Its entries are top, a, top - a and |top - 2a| for a few a, so many
    entries are sums of two others.
    """
    values = [top]
    for _ in range(2):
        a = rng.randint(0, top)
        values += [a, top - a, abs(top - 2 * a)]
    rows = [[0 if i == j else rng.choice(values) for j in range(n)] for i in range(n)]
    if n > 1:
        rows[0][1] = top
    return rows


def break_triangle(rng: random.Random, rows: list[list[int]]) -> list[list[int]]:
    """A copy with d(0,k) and d(k,n-1) shrunk so that d(0,n-1) = top fails through k."""
    n = len(rows)
    out = [row[:] for row in rows]
    k = rng.randrange(1, n - 1)
    small = max(1, (rows[0][n - 1] - 1) // 2 - rng.randint(0, 3))
    out[0][k] = out[k][0] = out[k][n - 1] = out[n - 1][k] = small
    return out


class TestFieldWidths:
    @pytest.mark.parametrize("top", TOPS)
    def test_masks_lines_and_validation(self, top):
        rng = random.Random(top)
        for n in (1, 2, 3, 7):
            rows = wide_metric(rng, n, top)
            S = validate_metric(rows)
            masks = int_metric_line_masks(n, rows)
            assert masks == reference_line_masks(n, rows)
            lines = [oracle_line(rows, u, v) for u, v in itertools.combinations(range(n), 2)]
            assert [frozenset(mask_points(m)) for m in masks] == lines
            for u, v in itertools.permutations(range(n), 2):
                assert line_of(S, u, v) == oracle_line(rows, u, v)
            table = sum_table(rng, n, top)
            assert int_metric_line_masks(n, table) == reference_line_masks(n, table)
            if n > 2:
                broken = break_triangle(rng, rows)
                got = outcome(validate_metric, broken)
                assert got is not None and got[0] is TriangleViolation
                assert got == outcome(oracle_validate, broken)

    def test_every_width_is_reached(self):
        # 1, 2, 4 and 8 bytes below 2**62, 16 bytes up to 2**126, then 32
        sizes = {_packed_rows(wide_metric(random.Random(0), 3, top))[0] for top in TOPS}
        assert sizes == {1, 2, 4, 8, 16, 32}

    def test_tight_triangles_at_every_width(self):
        # the even tops give lines with a third point, so the masks are not all pairs
        for top in TOPS:
            if top % 2 == 0:
                rows = wide_metric(random.Random(top), 7, top)
                assert any(m.bit_count() > 2 for m in int_metric_line_masks(7, rows)), top

    def test_one_and_two_points(self):
        assert int_metric_line_masks(1, [[0]]) == [] == reference_line_masks(1, [[0]])
        for d in (1, 63, 64, 1 << 62, 1 << 64):
            assert int_metric_line_masks(2, [[0, d], [d, 0]]) == [0b11]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=0, max_value=140),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
)
def test_random_magnitudes_match_the_reference(bits, n, seed):
    rng = random.Random(seed)
    top = rng.randint(1 << bits, 2 << bits)
    rows = wide_metric(rng, n, top)
    assert int_metric_line_masks(n, rows) == reference_line_masks(n, rows)
    table = sum_table(rng, n, top)
    assert int_metric_line_masks(n, table) == reference_line_masks(n, table)
    # scaling a small metric keeps its tight triangles at any magnitude
    base = [[0] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        base[i][j] = base[j][i] = rng.randint(1, 5)
    scaled = [[x << bits for x in row] for row in floyd_closure(base)]
    assert int_metric_line_masks(n, scaled) == reference_line_masks(n, scaled)
    if n > 2:
        broken = break_triangle(rng, rows)
        assert outcome(validate_metric, broken) == outcome(oracle_validate, broken)
