"""Text formats for metric spaces, triple systems, and graphs.

All three formats are line based.  A metric file starts with n and is
followed by an n-by-n table of rationals written as p or p/q.  Triple and
graph files start with "n m" and list one sorted edge per line.  Parse
errors carry 1-based line and column positions; blank lines are skipped,
and positions always refer to the physical file.

A loader checks its input in a few passes over the whole text (_edge_list,
_metric_table), each of which reads it in pieces of about _BLOCK characters
that end on a line break (_blocks): one over the lines of each piece that
keeps only how many lines hold each token count (_shape), and one that
splits each piece into tokens and converts them with int (_values).  An
edge file then checks range and order on whole columns of the vertices of a
piece.  A graph file keeps its edges as a frozenset and finds a duplicate
by its size.  A triple file folds the edges of each piece into the links of
its TripleSystem (triples.edge_links), one bitmask per pair, as the pieces
are read; a duplicate edge sets bits that are already set, so fewer than 3m
bits in all mark one.  No edge tuple is kept, only one pair tuple per pair
on some edge.  A table splits each p/q into an integer numerator and
denominator and hands validate_metric its rows over the lcm of the
denominators, with no Fraction.  Valid input keeps nothing per line, and no
list holds the tokens or lines of more than one piece; per token only int
(and str.partition on a table with a p/q) is called, and no Python code
runs per line but the fold's.  Only these checks build a value.  When one
fails, the per-line walk (_walk_edge_list, _walk_metric) reads the text
again, line by line and token by token, and only reports: it raises the
first error as a ParseError, and valid input never reaches it.

The module also holds the names that construct (extremal) and min_lines
(search) accept, and metrizable's default edge cap (feasibility), so that
the command-line parser can offer them without importing those modules.
It imports graphs and triples only inside the loaders that build them, and
fractions only where a Fraction is built.
"""

from __future__ import annotations

import re
from collections import Counter
from itertools import chain, repeat
from math import gcd, lcm
from operator import floordiv, itemgetter, lt, mul
from typing import TYPE_CHECKING, Any

from .errors import BadParams, ParseError
from .metric import MetricSpace, validate_metric

if TYPE_CHECKING:
    from collections.abc import Iterator
    from fractions import Fraction

    from .graphs import Graph
    from .triples import TripleSystem

CONSTRUCT_KINDS = (
    "pentagon",
    "groups",
    "groups_balanced",
    "path",
    "uniform",
    "complete",
)
UNIVERSES = ("hypergraphs", "one_two", "graph_metrics")
# default cap on the edges metrizable will branch on (3**edges assignments)
DEFAULT_EDGE_CAP = 12

# characters of input a loader splits into tokens at a time; a piece's
# tokens and their partitions take about 40 bytes a character of a p/q
# table, and loading the 80-point rational table of the benchmark raised
# peak RSS by 460 KB with pieces of 8 K characters and by 80 KB with 2 K
_BLOCK = 2 << 10
# patterns of the walk and of parse_rational, compiled on first use
_RATIONAL = r"^[+-]?\d+(?:/\d+)?$"
_INT = r"[+-]?\d+"


def format_rational(q: int | Fraction) -> str:
    # ints and Fractions alike have numerator and denominator
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(token: str) -> int | Fraction:
    """Parse p as an int, or p/q, unreduced or not, as a Fraction."""
    if not re.match(_RATIONAL, token):
        raise BadParams(f"not a rational: {token!r}")
    if "/" in token:
        from fractions import Fraction

        p, q = token.split("/")
        if int(q) == 0:
            raise BadParams("zero denominator")
        return Fraction(int(p), int(q))
    return int(token)


def _blocks(text: str) -> Iterator[str]:
    """text in pieces of at least _BLOCK characters, each but the last
    ending just after a "\n", so that no line and no token spans two."""
    start = 0
    while start < len(text):
        end = text.find("\n", start + _BLOCK - 1) + 1 or len(text)
        yield text[start:end]
        start = end


def _shape(text: str) -> tuple[list[str], Counter[int]] | None:
    """The tokens of the first non-blank line, and how many of the lines
    after it hold each token count (0 for a blank line); None if no line
    holds a token."""
    head = None
    counts = Counter()
    for piece in _blocks(text):
        lines = iter(piece.splitlines())
        head = head or next(filter(None, map(str.split, lines)), None)
        counts.update(map(len, map(str.split, lines)))
    return (head, counts) if head else None


def _values(text: str, skip: int, convert, *args) -> Iterator[list]:
    """list(map(convert, tokens, *args)) for the tokens of each piece of
    text, less the values of the first skip tokens of the text."""
    for piece in _blocks(text):
        vals = list(map(convert, piece.split(), *args))
        if skip and vals:
            del vals[:skip]
            skip = 0
        yield vals


def _rows(text: str) -> list[tuple[int, str, list[str]]]:
    """Non-blank lines as (1-based line number, line, its tokens)."""
    return [(i, raw, toks) for i, raw in enumerate(text.splitlines(), 1) if (toks := raw.split())]


def _col(raw: str, k: int) -> int:
    """1-based column of token k of raw, or just past its last token if it has fewer."""
    spans = [m.span() for m in re.finditer(r"\S+", raw)]
    return spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1


def _parse_ints(
    source: str, lineno: int, raw: str, toks: list[str], names: tuple[str, ...]
) -> tuple[int, ...]:
    """Every token as an int; names[k] names token k if it is the first that is not one."""
    for k, tok in enumerate(toks):
        if not re.fullmatch(_INT, tok):
            raise ParseError(source, lineno, _col(raw, k), f"{names[k]} must be an integer, got {tok!r}")
    return tuple(map(int, toks))


def _metric_table(text: str) -> tuple[list[tuple[int, ...]], int] | None:
    """The rows of a valid table as ints over a common scale, and the
    scale; None if any check fails.

    int() reads p and q as the walk's pattern does, except that it also
    takes "_" between digits and a sign on q, which are refused first.
    """
    shape = _shape(text)
    if shape is None or "_" in text or "/+" in text or "/-" in text:
        return None
    head, counts = shape
    if len(head) != 1:
        return None
    rows, dens, fractions = [], [], "/" in text
    # "p" gives (p, "", ""), and "p/q" gives (p, "/", q)
    convert = (str.partition, repeat("/")) if fractions else (int,)
    try:
        n = int(head[0])
        if n < 1 or counts.keys() - {0, n} or counts[n] != n:
            return None
        # a piece ends with a line, so its values are whole rows
        for vals in _values(text, 1, *convert):
            if fractions:
                dens += [int(q) if s else 1 for _, s, q in vals]
                vals = map(int, map(itemgetter(0), vals))
            vals = tuple(vals)
            rows += [vals[i : i + n] for i in range(0, len(vals), n)]
    except ValueError:
        return None
    if 0 in dens:
        return None
    scale = lcm(*dens)
    if scale > 1:
        # map stops at the end of a row, before it draws the next row's factor
        factors = map(floordiv, repeat(scale), dens)
        rows = [tuple(map(mul, row, factors)) for row in rows]
    return rows, scale


def _walk_metric(text: str, source: str) -> None:
    """Read the table line by line, raising the first error as a ParseError."""
    rows_in = _rows(text)
    if not rows_in:
        raise ParseError(source, 1, 1, "empty input")
    lineno, raw, toks = rows_in[0]
    if len(toks) != 1:
        raise ParseError(source, lineno, _col(raw, 1), "first line must hold n alone")
    (n,) = _parse_ints(source, lineno, raw, toks, ("n",))
    if n < 1:
        raise ParseError(source, lineno, _col(raw, 0), f"n must be at least 1, got {n}")
    body = rows_in[1:]
    if len(body) != n:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {n} rows, found {len(body)}")
    for lineno, raw, toks in body:
        if len(toks) != n:
            raise ParseError(source, lineno, _col(raw, n), f"expected {n} values, found {len(toks)}")
        for k, tok in enumerate(toks):
            try:
                parse_rational(tok)
            except BadParams as exc:
                raise ParseError(source, lineno, _col(raw, k), str(exc)) from None


def load_metric_text(text: str, source: str = "<string>") -> MetricSpace:
    return validate_metric(*(_metric_table(text) or _walk_metric(text, source)))


def metric_rows(S: MetricSpace) -> Iterator[str]:
    """The lines of S's text without their newlines: n, then one per row."""
    s = S.scale
    # x / s in lowest terms, where g = gcd(x, s) is s exactly when s divides x
    entry = str if s == 1 else lambda x: str(x // s) if (g := gcd(x, s)) == s else f"{x // g}/{s // g}"
    yield str(S.n)
    for row in S.scaled:
        yield " ".join(map(entry, row))


def dump_metric(S: MetricSpace) -> str:
    return "\n".join(metric_rows(S)) + "\n"


def _edge_list(text: str, arity: int, fold) -> tuple[int, Any] | None:
    """n and the edges of a valid edge-list text, as fold keeps them; None
    if any check fails.

    The vertices of edge k of a piece are read from column j = 0 .. arity-1
    of its values, every arity-th value, so range and order are checked for
    all its edges at once.  fold(n, edges) takes the edges of every piece,
    as they are read, and returns what it keeps and the number of distinct
    edges, so that fewer than m marks a duplicate.
    """
    shape = _shape(text)
    if shape is None or "_" in text:
        return None
    head, counts = shape
    if len(head) != 2 or counts.keys() - {0, arity}:
        return None
    try:
        n, m = map(int, head)
        if n < 1 or counts[arity] != m:
            return None
        edges, distinct = fold(n, chain.from_iterable(_edges(text, arity, n)))
    except ValueError:
        return None
    return (n, edges) if distinct == m else None


def _edges(text: str, arity: int, n: int) -> Iterator[Iterator[tuple[int, ...]]]:
    """The edges of each piece of text; ValueError if a vertex is not an
    int, out of range, or not above the one before it."""
    for vals in _values(text, 2, int):
        cols = [vals[j::arity] for j in range(arity)]
        if vals and (min(cols[0]) < 0 or max(cols[-1]) >= n):
            raise ValueError
        if not all(all(map(lt, a, b)) for a, b in zip(cols, cols[1:])):
            raise ValueError
        yield zip(*cols)


def _edge_set(n: int, edges: Iterator[tuple[int, ...]]) -> tuple[frozenset[tuple[int, ...]], int]:
    edges = frozenset(edges)
    return edges, len(edges)


def _walk_edge_list(text: str, source: str, arity: int, kind: str) -> None:
    """Read the edge list line by line, raising the first error as a ParseError."""
    rows = _rows(text)
    if not rows:
        raise ParseError(source, 1, 1, "empty input")
    lineno, raw, toks = rows[0]
    if len(toks) != 2:
        raise ParseError(source, lineno, _col(raw, 2), "first line must hold n and m")
    n, m = _parse_ints(source, lineno, raw, toks, ("n", "m"))
    if n < 0 or m < 0:
        raise ParseError(source, lineno, _col(raw, 0), "n and m must be nonnegative")
    if n < 1:
        raise ParseError(source, lineno, _col(raw, 0), f"n must be at least 1, got {n}")
    body = rows[1:]
    if len(body) != m:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {m} {kind} lines, found {len(body)}")
    seen: set[tuple[int, ...]] = set()
    names = ("vertex",) * arity
    for lineno, raw, toks in body:
        if len(toks) != arity:
            raise ParseError(source, lineno, _col(raw, arity), f"expected {arity} vertices, found {len(toks)}")
        vs = _parse_ints(source, lineno, raw, toks, names)
        if min(vs) < 0 or max(vs) >= n:
            k, v = next((k, v) for k, v in enumerate(vs) if not 0 <= v < n)
            raise ParseError(source, lineno, _col(raw, k), f"vertex {v} out of range for n={n}")
        if not all(map(lt, vs, vs[1:])):
            raise ParseError(source, lineno, _col(raw, 0), f"{kind} must be strictly increasing: {' '.join(toks)}")
        if vs in seen:
            raise ParseError(source, lineno, _col(raw, 0), f"duplicate {kind}: {' '.join(toks)}")
        seen.add(vs)


def load_triples_text(text: str, source: str = "<string>") -> TripleSystem:
    from .triples import TripleSystem, edge_links

    def fold(n: int, edges: Iterator[tuple[int, ...]]) -> tuple[dict[tuple[int, int], int], int]:
        links = edge_links(n, edges)
        # each distinct edge sets one bit in the mask of each of its pairs
        return links, sum(map(int.bit_count, links.values())) // 3

    return TripleSystem(*(_edge_list(text, 3, fold) or _walk_edge_list(text, source, 3, "triple")))


def dump_triples(T: TripleSystem) -> str:
    edges = T.sorted_edges()
    lines = [f"{T.n} {len(edges)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in edges)
    return "\n".join(lines) + "\n"


def load_graph_text(text: str, source: str = "<string>") -> Graph:
    from .graphs import graph_from_edges

    return graph_from_edges(*(_edge_list(text, 2, _edge_set) or _walk_edge_list(text, source, 2, "edge")))


def graph_rows(G: Graph) -> Iterator[str]:
    """The lines of G's text without their newlines: "n m", then one per edge."""
    edges = G.sorted_edges()
    yield f"{G.n} {len(edges)}"
    for u, v in edges:
        yield f"{u} {v}"


def dump_graph(G: Graph) -> str:
    return "\n".join(graph_rows(G)) + "\n"
