"""Text formats for metric spaces, triple systems, and graphs.

All three formats are line based.  A metric file starts with n and is
followed by an n-by-n table of rationals written as p or p/q.  Triple and
graph files start with "n m" and list one sorted edge per line.  Parse
errors carry 1-based line and column positions; blank lines are skipped,
and positions always refer to the physical file.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BadParams, ParseError
from .graphs import Graph, graph_from_edges
from .metric import MetricSpace, validate_metric
from .triples import TripleSystem

_TOKEN = re.compile(r"\S+")
_RATIONAL = re.compile(r"^[+-]?\d+(?:/\d+)?$")
_INT = re.compile(r"[+-]?\d+")


def format_rational(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_rational(token: str) -> Fraction:
    """Parse p or p/q.  Unreduced fractions are accepted and normalized."""
    if not _RATIONAL.match(token):
        raise BadParams(f"not a rational: {token!r}")
    if "/" in token:
        p, q = token.split("/")
        if int(q) == 0:
            raise BadParams("zero denominator")
        return Fraction(int(p), int(q))
    return Fraction(int(token))


def _lines_with_tokens(text: str) -> list[tuple[int, list[tuple[int, str]]]]:
    """Non-blank lines as (1-based line number, [(1-based column, token), ...])."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = [(m.start() + 1, m.group()) for m in _TOKEN.finditer(raw)]
        if toks:
            out.append((lineno, toks))
    return out


def _parse_int(source: str, lineno: int, col: int, token: str, what: str) -> int:
    if not _INT.fullmatch(token):
        raise ParseError(source, lineno, col, f"{what} must be an integer, got {token!r}")
    return int(token)


def load_metric_text(text: str, source: str = "<string>") -> MetricSpace:
    rows_in = _lines_with_tokens(text)
    if not rows_in:
        raise ParseError(source, 1, 1, "empty input")
    lineno, toks = rows_in[0]
    if len(toks) != 1:
        raise ParseError(source, lineno, toks[1][0], "first line must hold n alone")
    n = _parse_int(source, lineno, toks[0][0], toks[0][1], "n")
    if n < 1:
        raise ParseError(source, lineno, toks[0][0], f"n must be at least 1, got {n}")
    body = rows_in[1:]
    if len(body) != n:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {n} rows, found {len(body)}")
    table: list[list[Fraction]] = []
    for lineno, toks in body:
        if len(toks) != n:
            col = toks[n][0] if len(toks) > n else toks[-1][0] + len(toks[-1][1])
            raise ParseError(source, lineno, col, f"expected {n} values, found {len(toks)}")
        row = []
        for col, tok in toks:
            try:
                row.append(parse_rational(tok))
            except BadParams as exc:
                raise ParseError(source, lineno, col, str(exc)) from None
        table.append(row)
    return validate_metric(table)


def dump_metric(S: MetricSpace) -> str:
    lines = [str(S.n)]
    for i in range(S.n):
        lines.append(" ".join(format_rational(x) for x in S.dist[i]))
    return "\n".join(lines) + "\n"


def _load_edge_list(
    text: str, source: str, arity: int, kind: str
) -> tuple[int, list[tuple[int, ...]]]:
    rows = _lines_with_tokens(text)
    if not rows:
        raise ParseError(source, 1, 1, "empty input")
    lineno, toks = rows[0]
    if len(toks) != 2:
        col = toks[2][0] if len(toks) > 2 else toks[-1][0] + len(toks[-1][1])
        raise ParseError(source, lineno, col, "first line must hold n and m")
    n = _parse_int(source, lineno, toks[0][0], toks[0][1], "n")
    m = _parse_int(source, lineno, toks[1][0], toks[1][1], "m")
    if n < 0 or m < 0:
        raise ParseError(source, lineno, toks[0][0], "n and m must be nonnegative")
    if n < 1:
        raise ParseError(source, lineno, toks[0][0], f"n must be at least 1, got {n}")
    body = rows[1:]
    if len(body) != m:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {m} {kind} lines, found {len(body)}")
    seen: set[tuple[int, ...]] = set()
    edges: list[tuple[int, ...]] = []
    for lineno, toks in body:
        if len(toks) != arity:
            col = toks[arity][0] if len(toks) > arity else toks[-1][0] + len(toks[-1][1])
            raise ParseError(source, lineno, col, f"expected {arity} vertices, found {len(toks)}")
        vs = tuple(
            _parse_int(source, lineno, col, tok, "vertex") for col, tok in toks
        )
        for (col, _), v in zip(toks, vs):
            if not 0 <= v < n:
                raise ParseError(source, lineno, col, f"vertex {v} out of range for n={n}")
        if any(vs[i] >= vs[i + 1] for i in range(arity - 1)):
            raise ParseError(
                source, lineno, toks[0][0], f"{kind} must be strictly increasing: {' '.join(t for _, t in toks)}"
            )
        if vs in seen:
            raise ParseError(source, lineno, toks[0][0], f"duplicate {kind}: {' '.join(t for _, t in toks)}")
        seen.add(vs)
        edges.append(vs)
    return n, edges


def load_triples_text(text: str, source: str = "<string>") -> TripleSystem:
    n, edges = _load_edge_list(text, source, 3, "triple")
    return TripleSystem(n, frozenset(edges))


def dump_triples(T: TripleSystem) -> str:
    edges = T.sorted_edges()
    lines = [f"{T.n} {len(edges)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in edges)
    return "\n".join(lines) + "\n"


def load_graph_text(text: str, source: str = "<string>") -> Graph:
    n, edges = _load_edge_list(text, source, 2, "edge")
    return graph_from_edges(n, edges)


def dump_graph(G: Graph) -> str:
    edges = G.sorted_edges()
    lines = [f"{G.n} {len(edges)}"]
    lines.extend(f"{u} {v}" for u, v in edges)
    return "\n".join(lines) + "\n"
