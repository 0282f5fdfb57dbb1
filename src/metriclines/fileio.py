"""Text formats for metric spaces, triple systems, and graphs.

All three formats are line based.  A metric file starts with n and is
followed by an n-by-n table of rationals written as p or p/q.  Triple and
graph files start with "n m" and list one sorted edge per line.  Parse
errors carry 1-based line and column positions; blank lines are skipped,
and positions always refer to the physical file.

The module also holds the names that construct (extremal) and min_lines
(search) accept, and metrizable's default edge cap (feasibility), so that
the command-line parser can offer them without importing those modules.
It imports graphs and triples only inside the loaders that build them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import lt
from typing import TYPE_CHECKING

from .errors import BadParams, ParseError
from .metric import MetricSpace, validate_metric

if TYPE_CHECKING:
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

_TOKEN = re.compile(r"\S+")
_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT = re.compile(r"[+-]?\d+")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(token: str) -> int | Fraction:
    """Parse p as an int, or p/q, unreduced or not, as a Fraction."""
    if not _RATIONAL.match(token):
        raise BadParams(f"not a rational: {token!r}")
    if "/" in token:
        p, q = token.split("/")
        if int(q) == 0:
            raise BadParams("zero denominator")
        return Fraction(int(p), int(q))
    return int(token)


def _rows(text: str) -> list[tuple[int, str, list[str]]]:
    """Non-blank lines as (1-based line number, line, its tokens)."""
    return [(i, raw, toks) for i, raw in enumerate(text.splitlines(), 1) if (toks := raw.split())]


def _col(raw: str, k: int) -> int:
    """1-based column of token k of raw, or just past its last token if it has fewer."""
    spans = [m.span() for m in _TOKEN.finditer(raw)]
    return spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1


def _parse_ints(
    source: str, lineno: int, raw: str, toks: list[str], names: tuple[str, ...]
) -> tuple[int, ...]:
    """Every token as an int; names[k] names token k if it is the first that is not one."""
    if not all(map(_INT.fullmatch, toks)):
        k, tok = next((k, tok) for k, tok in enumerate(toks) if not _INT.fullmatch(tok))
        raise ParseError(source, lineno, _col(raw, k), f"{names[k]} must be an integer, got {tok!r}")
    return tuple(map(int, toks))


def load_metric_text(text: str, source: str = "<string>") -> MetricSpace:
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
    table: list[list[int | Fraction]] = []
    for lineno, raw, toks in body:
        if len(toks) != n:
            raise ParseError(source, lineno, _col(raw, n), f"expected {n} values, found {len(toks)}")
        row = []
        for k, tok in enumerate(toks):
            try:
                row.append(parse_rational(tok))
            except BadParams as exc:
                raise ParseError(source, lineno, _col(raw, k), str(exc)) from None
        table.append(row)
    return validate_metric(table)


def dump_metric(S: MetricSpace) -> str:
    s = S.scale
    entry = str if s == 1 else lambda x: format_rational(Fraction(x, s))
    lines = [str(S.n)]
    lines.extend(" ".join(map(entry, row)) for row in S.scaled)
    return "\n".join(lines) + "\n"


def _load_edge_list(
    text: str, source: str, arity: int, kind: str
) -> tuple[int, list[tuple[int, ...]]]:
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
    edges: list[tuple[int, ...]] = []
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
        edges.append(vs)
    return n, edges


def load_triples_text(text: str, source: str = "<string>") -> TripleSystem:
    from .triples import TripleSystem

    n, edges = _load_edge_list(text, source, 3, "triple")
    return TripleSystem(n, frozenset(edges))


def dump_triples(T: TripleSystem) -> str:
    edges = T.sorted_edges()
    lines = [f"{T.n} {len(edges)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in edges)
    return "\n".join(lines) + "\n"


def load_graph_text(text: str, source: str = "<string>") -> Graph:
    from .graphs import graph_from_edges

    n, edges = _load_edge_list(text, source, 2, "edge")
    return graph_from_edges(n, edges)


def dump_graph(G: Graph) -> str:
    edges = G.sorted_edges()
    lines = [f"{G.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
