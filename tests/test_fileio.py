from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metriclines import (
    BadParams,
    MetricLinesError,
    ParseError,
    balanced_group_space,
    betweenness_triples,
    dump_graph,
    dump_metric,
    dump_triples,
    format_rational,
    graph_from_edges,
    load_graph_text,
    load_metric_text,
    load_triples_text,
    parse_rational,
    triple_system,
)
from metriclines import fileio
from helpers import (
    random_rational_space,
    reference_load_graph_text,
    reference_load_metric_text,
    reference_load_triples_text,
)


class TestRationals:
    def test_integers_print_bare(self):
        assert format_rational(Fraction(3)) == "3"
        assert format_rational(Fraction(-2)) == "-2"

    def test_fractions_print_lowest_terms(self):
        assert format_rational(Fraction(6, 4)) == "3/2"

    def test_parse_accepts_unreduced(self):
        assert parse_rational("6/4") == Fraction(3, 2)
        assert parse_rational("+2") == Fraction(2)

    def test_parse_keeps_integers_as_ints(self):
        assert type(parse_rational("3")) is int and parse_rational("3") == 3
        assert type(parse_rational("-2")) is int
        assert type(parse_rational("6/4")) is Fraction
        assert type(parse_rational("4/2")) is Fraction and parse_rational("4/2") == 2

    def test_parse_rejects_garbage(self):
        for bad in ("", "1/0", "1.5", "a/b", "1/ 2", "--1"):
            with pytest.raises(BadParams):
                parse_rational(bad)


class TestMetricFiles:
    def test_round_trip(self):
        for seed in range(5):
            S = random_rational_space(random.Random(seed), 4)
            again = load_metric_text(dump_metric(S))
            assert again.dist == S.dist

    def test_blank_lines_ignored(self):
        text = "2\n\n0 1\n\n1 0\n"
        S = load_metric_text(text)
        assert S.n == 2

    def test_error_reports_position(self):
        with pytest.raises(ParseError) as exc:
            load_metric_text("2\n0 x\n1 0\n", source="m.txt")
        err = exc.value
        assert err.source == "m.txt"
        assert (err.line, err.column) == (2, 3)

    def test_wrong_row_count(self):
        with pytest.raises(ParseError):
            load_metric_text("3\n0 1 1\n1 0 1\n")

    def test_validation_runs_after_parse(self):
        # structurally fine, but asymmetric
        from metriclines import AsymmetryError

        with pytest.raises(AsymmetryError):
            load_metric_text("2\n0 1\n2 0\n")


class TestEdgeListFiles:
    def test_graph_round_trip(self):
        G = graph_from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert load_graph_text(dump_graph(G)).adj == G.adj

    def test_triples_round_trip(self):
        T = triple_system(5, [(0, 1, 4), (1, 2, 3)])
        assert load_triples_text(dump_triples(T)).edges == T.edges

    def test_header_must_hold_n_and_m(self):
        with pytest.raises(ParseError) as exc:
            load_graph_text("3\n0 1\n")
        assert exc.value.line == 1

    def test_edge_count_enforced(self):
        with pytest.raises(ParseError):
            load_graph_text("3 2\n0 1\n")

    def test_vertices_strictly_increasing(self):
        with pytest.raises(ParseError):
            load_graph_text("3 1\n1 0\n")
        with pytest.raises(ParseError):
            load_triples_text("4 1\n0 2 1\n")

    def test_duplicate_edges_rejected(self):
        with pytest.raises(ParseError):
            load_graph_text("3 2\n0 1\n0 1\n")

    def test_out_of_range_vertex_names_column(self):
        with pytest.raises(ParseError) as exc:
            load_graph_text("3 1\n0 7\n")
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            load_graph_text("")


class TestIntegerTokens:
    """Which vertex and header tokens parse, and the exact errors of the rest."""

    @pytest.mark.parametrize(
        "token,value",
        [("3", 3), ("+3", 3), ("03", 3), ("٣", 3), ("３", 3), ("+٣", 3)],
    )
    def test_accepted_vertex_tokens(self, token, value):
        T = load_triples_text(f"5 1\n0 1 {token}\n")
        assert T.edges == frozenset({(0, 1, value)})

    @pytest.mark.parametrize(
        "text,message",
        [
            ("5 1\n0 1 1_0\n", "t.txt:2:5: vertex must be an integer, got '1_0'"),
            ("5 1\n0 1 3.0\n", "t.txt:2:5: vertex must be an integer, got '3.0'"),
            ("5 1\n0 1 ++3\n", "t.txt:2:5: vertex must be an integer, got '++3'"),
            ("5 1\n0 1 0x3\n", "t.txt:2:5: vertex must be an integer, got '0x3'"),
            ("5 1\n-1 1 3\n", "t.txt:2:1: vertex -1 out of range for n=5"),
            ("5 1\n0 1 5\n", "t.txt:2:5: vertex 5 out of range for n=5"),
            ("5 1\n0 2 1\n", "t.txt:2:1: triple must be strictly increasing: 0 2 1"),
            ("5 1\n0 1 +1\n", "t.txt:2:1: triple must be strictly increasing: 0 1 +1"),
            ("5 2\n0 1 2\n0 1 +2\n", "t.txt:3:1: duplicate triple: 0 1 +2"),
            ("5 1\n0 1\n", "t.txt:2:4: expected 3 vertices, found 2"),
            ("x 1\n0 1 2\n", "t.txt:1:1: n must be an integer, got 'x'"),
            ("5 1_0\n0 1 2\n", "t.txt:1:3: m must be an integer, got '1_0'"),
            ("-5 1\n0 1 2\n", "t.txt:1:1: n and m must be nonnegative"),
            ("0 0\n", "t.txt:1:1: n must be at least 1, got 0"),
        ],
    )
    def test_rejected_triples_files(self, text, message):
        with pytest.raises(ParseError) as exc:
            load_triples_text(text, source="t.txt")
        assert str(exc.value) == message

    def test_graph_vertices_share_the_rules(self):
        assert load_graph_text("3 1\n+0 ٢\n").adj == (4, 0, 1)
        with pytest.raises(ParseError) as exc:
            load_graph_text("3 1\n0 1_0\n", source="g.txt")
        assert str(exc.value) == "g.txt:2:3: vertex must be an integer, got '1_0'"


class TestTripleSystemEdges:
    def test_unsorted_edges_are_sorted(self):
        T = triple_system(5, frozenset({(3, 1, 0), (0, 2, 4), (1, 2, 3)}))
        assert T.edges == frozenset({(0, 1, 3), (0, 2, 4), (1, 2, 3)})
        assert triple_system(4, [[2, 0, 1]]).edges == frozenset({(0, 1, 2)})

    @pytest.mark.parametrize(
        "edge,message",
        [
            ((0, 1), "not a triple: (0, 1)"),
            ((0, 1, 2, 3), "not a triple: (0, 1, 2, 3)"),
            ((0, 0, 1), "not a triple: (0, 0, 1)"),
            ((2, 1, 1), "not a triple: (2, 1, 1)"),
            ((0, 1, 5), "triple (0, 1, 5) out of range for n=5"),
            ((5, 1, 0), "triple (5, 1, 0) out of range for n=5"),
            ((-1, 1, 2), "triple (-1, 1, 2) out of range for n=5"),
        ],
    )
    def test_bad_edges(self, edge, message):
        with pytest.raises(BadParams) as exc:
            triple_system(5, frozenset({edge}))
        assert str(exc.value) == message


# Every line break str.splitlines knows, whitespace that only str.split
# knows, and the characters a token is made of.
LINE_BREAKS = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SPACES = (" ", "\t", "\x1f", "\xa0", "\u3000")
NOISE = (*LINE_BREAKS, *SPACES, "+", "-", "/", "0", "2", "\u0663", "_", "x")
ARABIC_DIGITS = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")
# off-diagonal distances within [2, 4], so that every symmetric table is a metric
DISTANCES = (Fraction(2), Fraction(3), Fraction(4), Fraction(5, 2), Fraction(7, 3), Fraction(11, 4))


def digits(draw, v: int) -> str:
    """v >= 0 with or without a leading zero, in ASCII or Arabic-Indic digits."""
    text = "0" * draw(st.integers(0, 1)) + str(v)
    return text.translate(ARABIC_DIGITS) if draw(st.booleans()) else text


def integer_token(draw, v: int) -> str:
    sign = "-" if v < 0 else draw(st.sampled_from(("", "", "+")))
    return sign + digits(draw, abs(v))


def rational_token(draw, q: Fraction) -> str:
    if q.denominator == 1 and draw(st.booleans()):
        return integer_token(draw, q.numerator)
    k = draw(st.integers(1, 3))
    return f"{integer_token(draw, q.numerator * k)}/{digits(draw, q.denominator * k)}"


def layout(draw, lines: list[list[str]]) -> str:
    """The token lines joined by drawn whitespace, with blank lines between,
    then up to three edits: a character of NOISE written over, inserted
    or a character deleted."""
    space = st.sampled_from(SPACES)
    out = []
    for toks in lines:
        for _ in range(draw(st.integers(0, 2))):
            out.append(draw(space) * draw(st.integers(0, 1)))
        line = toks[0]
        for tok in toks[1:]:
            line += draw(space) + tok
        pad = draw(space) * draw(st.integers(0, 1))
        out.append(pad + line + pad)
    text = "".join(line + draw(st.sampled_from(LINE_BREAKS)) for line in out)
    for _ in range(draw(st.integers(0, 3))):
        if not text:
            break
        at = draw(st.integers(0, len(text) - 1))
        ch = draw(st.sampled_from(NOISE))
        kind = draw(st.sampled_from(("over", "insert", "delete")))
        rest = text[at + 1 :] if kind != "insert" else text[at:]
        text = text[:at] + ("" if kind == "delete" else ch) + rest
    return text


@st.composite
def edge_texts(draw, arity: int) -> str:
    n = draw(st.integers(1, 7))
    edges = draw(st.lists(st.sampled_from(list(combinations(range(n), arity)) or [()]), unique=True))
    edges = [e for e in edges if e]
    lines = [[integer_token(draw, n), integer_token(draw, len(edges))]]
    lines += [[integer_token(draw, v) for v in e] for e in edges]
    return layout(draw, lines)


@st.composite
def metric_texts(draw) -> str:
    n = draw(st.integers(1, 5))
    d = [[Fraction(0)] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        d[i][j] = d[j][i] = draw(st.sampled_from(DISTANCES))
    lines = [[integer_token(draw, n)]] + [[rational_token(draw, x) for x in row] for row in d]
    return layout(draw, lines)


def any_text(structured):
    return st.one_of(structured, st.lists(st.sampled_from(NOISE), max_size=30).map("".join))


def outcome(load, text: str):
    """What load does with text: its value, or its error's type and message."""
    try:
        return "value", load(text, source="p.txt")
    except (MetricLinesError, ValueError) as exc:
        return type(exc), str(exc)


def unreachable(*args):
    raise AssertionError("valid input reached the per-line walk")


def assert_matches_reference(load, reference, walk: str, text: str) -> None:
    """load and its per-line reference agree on text, and unless the text
    fails to parse, load never runs the walk."""
    expected = outcome(reference, text)
    with pytest.MonkeyPatch.context() as mp:
        if expected[0] is not ParseError:
            mp.setattr(fileio, walk, unreachable)
        assert outcome(load, text) == expected


class TestBulkParsersMatchTheWalk:
    """The bulk loaders against the per-line loaders they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(any_text(metric_texts()))
    def test_metric(self, text):
        assert_matches_reference(load_metric_text, reference_load_metric_text, "_walk_metric", text)

    @settings(max_examples=300, deadline=None)
    @given(any_text(edge_texts(3)))
    def test_triples(self, text):
        assert_matches_reference(load_triples_text, reference_load_triples_text, "_walk_edge_list", text)

    @settings(max_examples=300, deadline=None)
    @given(any_text(edge_texts(2)))
    def test_graph(self, text):
        assert_matches_reference(load_graph_text, reference_load_graph_text, "_walk_edge_list", text)

    @pytest.mark.parametrize(
        "text",
        [
            "\r\n\u20283\r\n0 2 5/2\x0b+2 0 4/2\r\n\x1c10/4\xa0\u0662 0\x85",
            "2\n0 -1/2\n-1/2 0\n",
            "2\n0 1/+2\n1/2 0\n",
            "2\n0 1_0\n10 0\n",
            "2\n0 1/0\n1 0\n",
            "2\n0 1/\n1 0\n",
            "2\n0 /2\n1 0\n",
            "1\n0/7\n",
            "3\n0 2/6 1/3\n1/3 0 1/3\n1/3 1/3 0\n",
            "2\n0 1/2\n1/3 0\n",
            "3\n0 1 4/2\n1 0 1/2\n2 1/2 0\n",
        ],
    )
    def test_metric_cases(self, text):
        assert_matches_reference(load_metric_text, reference_load_metric_text, "_walk_metric", text)

    @pytest.mark.parametrize(
        "text",
        [
            "\x0c\r\n5\t2\u2029\x1f0 +1 \u0663\x1e\n\n1 2 04\n",
            "5 0\n\n",
            "5 1\n0 1 2 3\n",
            "5 2\n0 1 2\n0 1\n2\n",
            "5 1\n0 1_0 2\n",
            "5 1\n0 1 0_3\n",
            "5 0_1\n0 1 2\n",
            "5 1\n-1 0 2\n",
            "5 2\n0 1 2\n0 1 +2\n",
            "5 -1\n",
        ],
    )
    def test_triples_cases(self, text):
        assert_matches_reference(load_triples_text, reference_load_triples_text, "_walk_edge_list", text)


class TestBulkParsersMatchTheWalkInSmallPieces(TestBulkParsersMatchTheWalk):
    """The same, with the text read in pieces of a few characters: a piece
    ends at nearly every "\n", so piece ends fall between any two lines,
    next to every other line break and every kind of space."""

    @pytest.fixture(autouse=True, params=[1, 4])
    def small_pieces(self, request, monkeypatch):
        monkeypatch.setattr(fileio, "_BLOCK", request.param)


def test_blocks_end_on_line_breaks():
    text = "3\r\n0 1\x0b2\n\n\x85\r\n1 2 3"
    for size in range(1, len(text) + 2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fileio, "_BLOCK", size)
            pieces = list(fileio._blocks(text))
        assert "".join(pieces) == text and "" not in pieces
        assert all(piece.endswith("\n") for piece in pieces[:-1])
        assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()


def test_shape_peak_memory():
    """The shape of a 120,001-line text is read within 1 MB of traced
    allocations; one splitlines() of the whole text took 12.7 MB on 188,552
    lines."""
    edges = islice(combinations(range(100), 3), 120_000)
    text = "100 120000\n" + "".join(f"{a} {b} {c}\n" for a, b, c in edges)
    tracemalloc.start()
    try:
        head, counts = fileio._shape(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert head == ["100", "120000"] and counts == {3: 120_000}
    assert peak < 1_000_000, peak


def test_triples_parse_peak_memory():
    """The 13,050 triples of an 80-point balanced group space load within
    1 MB of traced allocations (0.58 MB); the per-line loader took 7.2 MB,
    and the bulk loader 1.4 MB while it kept a frozenset of edge tuples."""
    text = dump_triples(betweenness_triples(balanced_group_space(80)))
    assert text.count("\n") == 13_051
    load_triples_text("3 1\n0 1 2\n")  # imports triples before tracing
    tracemalloc.start()
    try:
        T = load_triples_text(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.edge_count() == 13_050
    assert peak < 1_000_000, peak


def test_betweenness_triples_peak_memory():
    """The triples of an 80-point balanced group space are found within
    1 MB of traced allocations (0.61 MB), with one mask per pair; a
    frozenset of the edge tuples took 1.5 MB."""
    S = balanced_group_space(80)
    tracemalloc.start()
    try:
        T = betweenness_triples(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert T.edge_count() == 13_050
    assert peak < 1_000_000, peak
