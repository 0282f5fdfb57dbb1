"""Reference implementations and samplers shared by the test modules.

Everything here is written directly from the definitions, independently of
the package internals, so the tests compare two routes to the same answer.
Six references are former package code kept as the slow route that a
faster one replaced: the per-point line loop that the packed-row kernel
replaced, the rational elimination of the metrizability LP, the per-line
file loaders that the bulk parsers replaced, the counter scan of middle
assignments that the depth-first metrizability search replaced, the
Fraction table that metrizable's witness was built from before it stayed
in integers, and the generate-and-dedup enumerator, which canonicalizes
through the package's full placement search.  That search is checked in
turn against oracle_min_cols, the minimum readout over every permutation.
cli_json reads the document a CLI call prints, for the tests of what the
CLI alone renders.
"""

from __future__ import annotations

import itertools
import json
import re
from fractions import Fraction
from functools import lru_cache
from math import gcd

from metriclines import (
    AsymmetryError,
    BadParams,
    MetricSpace,
    NonpositiveDistance,
    NonzeroDiagonal,
    ParseError,
    TooFewPoints,
    TriangleViolation,
    TripleSystem,
    graph_from_edges,
    validate_metric,
)
from metriclines import feasibility
from metriclines.cli import main
from metriclines.enumeration import (
    canonical_graph_cols,
    canonical_triples_cols,
    graph_from_cols,
    triples_from_cols,
)


def cli_json(capsys, *argv) -> dict:
    """The JSON document that the CLI call main(["--format", "json", *argv]) prints."""
    main(["--format", "json", *map(str, argv)])
    return json.loads(capsys.readouterr().out)


def oracle_line(dist, u: int, v: int) -> frozenset[int]:
    """The line of the pair u, v, straight from the definition."""
    return frozenset(
        p
        for p in range(len(dist))
        if p in (u, v)
        or dist[p][u] + dist[u][v] == dist[p][v]
        or dist[u][p] + dist[p][v] == dist[u][v]
        or dist[u][v] + dist[v][p] == dist[u][p]
    )


def oracle_line_sets(dist) -> set[frozenset[int]]:
    """Distinct lines of a distance matrix, straight from the definition."""
    return {oracle_line(dist, u, v) for u, v in itertools.combinations(range(len(dist)), 2)}


def reference_line_masks(n: int, rows) -> list[int]:
    """Line bitmasks of an integer table, one per pair u < v, point by point.

    The loop int_metric_line_masks ran before rows were packed: w is on the
    line of u, v when one of the three sums of two of d(u,w), d(v,w) and
    d(u,v) equals the third.
    """
    out = []
    for u, v in itertools.combinations(range(n), 2):
        du, dv, duv = rows[u], rows[v], rows[u][v]
        mask = 0
        for w in range(n):
            a, b = du[w], dv[w]
            if a + b == duv or a + duv == b or b + duv == a:
                mask |= 1 << w
        out.append(mask)
    return out


def oracle_triples(dist) -> set[tuple[int, int, int]]:
    """Betweenness triples of a distance matrix, from the definition."""
    n = len(dist)
    out = set()
    for a, b, c in itertools.combinations(range(n), 3):
        if (
            dist[a][b] + dist[b][c] == dist[a][c]
            or dist[b][a] + dist[a][c] == dist[b][c]
            or dist[a][c] + dist[c][b] == dist[a][b]
        ):
            out.add((a, b, c))
    return out


def oracle_validate(rows) -> None:
    """The metric axioms checked in Fractions, raising validate_metric's errors.

    Same order: shape, then diagonal, symmetry and positivity row by row,
    then the triangle inequality over pairs i < j and k ascending.
    """
    n = len(rows)
    if n < 1:
        raise TooFewPoints(n, 1)
    if any(len(row) != n for row in rows):
        raise BadParams("ragged table")
    d = [[Fraction(x) for x in row] for row in rows]
    for i in range(n):
        if d[i][i] != 0:
            raise NonzeroDiagonal(i)
        for j in range(i + 1, n):
            if d[i][j] != d[j][i]:
                raise AsymmetryError(i, j)
            if d[i][j] <= 0:
                raise NonpositiveDistance(i, j)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if k != i and k != j and d[i][j] > d[i][k] + d[k][j]:
                    raise TriangleViolation(i, j, k)


def floyd_closure(rows):
    """Shortest-path closure of a symmetric nonnegative matrix."""
    n = len(rows)
    d = [list(r) for r in rows]
    for k in range(n):
        dk = d[k]
        for i in range(n):
            dik = d[i][k]
            row = d[i]
            for j in range(n):
                alt = dik + dk[j]
                if alt < row[j]:
                    row[j] = alt
    return d


def random_int_space(rng, n, lo=1, hi=5) -> MetricSpace:
    """Metric with distances in {lo..hi}: closure of a random symmetric matrix."""
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = rng.randint(lo, hi)
    return validate_metric(floyd_closure(rows))


def random_rational_space(rng, n, max_num=6, max_den=4) -> MetricSpace:
    """Random rational metric via shortest-path closure."""
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            q = Fraction(rng.randint(1, max_num), rng.randint(1, max_den))
            rows[i][j] = rows[j][i] = q
    return validate_metric(floyd_closure(rows))


def labeled_graph_rows(n):
    """All 2**C(n,2) labeled graphs as adjacency-matrix row tuples."""
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for k, (i, j) in enumerate(pairs):
            if bits >> k & 1:
                rows[i][j] = rows[j][i] = 1
        yield rows



# The per-line loaders: every line is split into tokens, each token is
# matched by a regex, and every p/q becomes a Fraction.  Blank lines are
# skipped, and errors name the physical line and the 1-based column.


def _ref_rows(text: str) -> list[tuple[int, str, list[str]]]:
    return [(i, raw, toks) for i, raw in enumerate(text.splitlines(), 1) if (toks := raw.split())]


def _ref_col(raw: str, k: int) -> int:
    spans = [m.span() for m in re.finditer(r"\S+", raw)]
    return spans[k][0] + 1 if k < len(spans) else spans[-1][1] + 1


def _ref_ints(source, lineno, raw, toks, names) -> tuple[int, ...]:
    for k, tok in enumerate(toks):
        if not re.fullmatch(r"[+-]?\d+", tok):
            raise ParseError(source, lineno, _ref_col(raw, k), f"{names[k]} must be an integer, got {tok!r}")
    return tuple(map(int, toks))


def _ref_rational(token: str):
    if not re.match(r"^[+-]?\d+(?:/\d+)?$", token):
        raise BadParams(f"not a rational: {token!r}")
    if "/" in token:
        p, q = token.split("/")
        if int(q) == 0:
            raise BadParams("zero denominator")
        return Fraction(int(p), int(q))
    return int(token)


def reference_load_metric_text(text: str, source: str = "<string>") -> MetricSpace:
    rows_in = _ref_rows(text)
    if not rows_in:
        raise ParseError(source, 1, 1, "empty input")
    lineno, raw, toks = rows_in[0]
    if len(toks) != 1:
        raise ParseError(source, lineno, _ref_col(raw, 1), "first line must hold n alone")
    (n,) = _ref_ints(source, lineno, raw, toks, ("n",))
    if n < 1:
        raise ParseError(source, lineno, _ref_col(raw, 0), f"n must be at least 1, got {n}")
    body = rows_in[1:]
    if len(body) != n:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {n} rows, found {len(body)}")
    table = []
    for lineno, raw, toks in body:
        if len(toks) != n:
            raise ParseError(source, lineno, _ref_col(raw, n), f"expected {n} values, found {len(toks)}")
        row = []
        for k, tok in enumerate(toks):
            try:
                row.append(_ref_rational(tok))
            except BadParams as exc:
                raise ParseError(source, lineno, _ref_col(raw, k), str(exc)) from None
        table.append(row)
    return validate_metric(table)


def _ref_edge_list(text: str, source: str, arity: int, kind: str):
    rows = _ref_rows(text)
    if not rows:
        raise ParseError(source, 1, 1, "empty input")
    lineno, raw, toks = rows[0]
    if len(toks) != 2:
        raise ParseError(source, lineno, _ref_col(raw, 2), "first line must hold n and m")
    n, m = _ref_ints(source, lineno, raw, toks, ("n", "m"))
    if n < 0 or m < 0:
        raise ParseError(source, lineno, _ref_col(raw, 0), "n and m must be nonnegative")
    if n < 1:
        raise ParseError(source, lineno, _ref_col(raw, 0), f"n must be at least 1, got {n}")
    body = rows[1:]
    if len(body) != m:
        where = body[-1][0] + 1 if body else lineno + 1
        raise ParseError(source, where, 1, f"expected {m} {kind} lines, found {len(body)}")
    seen = set()
    edges = []
    for lineno, raw, toks in body:
        if len(toks) != arity:
            raise ParseError(source, lineno, _ref_col(raw, arity), f"expected {arity} vertices, found {len(toks)}")
        vs = _ref_ints(source, lineno, raw, toks, ("vertex",) * arity)
        for k, v in enumerate(vs):
            if not 0 <= v < n:
                raise ParseError(source, lineno, _ref_col(raw, k), f"vertex {v} out of range for n={n}")
        if any(a >= b for a, b in zip(vs, vs[1:])):
            raise ParseError(source, lineno, _ref_col(raw, 0), f"{kind} must be strictly increasing: {' '.join(toks)}")
        if vs in seen:
            raise ParseError(source, lineno, _ref_col(raw, 0), f"duplicate {kind}: {' '.join(toks)}")
        seen.add(vs)
        edges.append(vs)
    return n, edges


def reference_links(n: int, edges) -> dict[tuple[int, int], int]:
    """TripleSystem's links by their definition: per pair u < v on some
    edge, in lexicographic order, the bitmask of the w with {u, v, w} among
    edges."""
    thirds: dict[tuple[int, int], set[int]] = {}
    for e in map(frozenset, edges):
        for u, v in itertools.combinations(sorted(e), 2):
            thirds.setdefault((u, v), set()).update(e - {u, v})
    return {pair: sum(1 << w for w in thirds[pair]) for pair in sorted(thirds)}


def reference_load_triples_text(text: str, source: str = "<string>") -> TripleSystem:
    n, edges = _ref_edge_list(text, source, 3, "triple")
    return TripleSystem(n, reference_links(n, edges))


def reference_load_graph_text(text: str, source: str = "<string>"):
    n, edges = _ref_edge_list(text, source, 2, "edge")
    return graph_from_edges(n, edges)


def readout_cols(n: int, lead: int, edges: set[int], order) -> tuple[int, ...]:
    """The column tuple read out by placing vertex order[k] in slot k.

    edges holds each edge as a vertex bitmask with lead + 1 bits.  The
    column of slot k has one bit per lead-subset s of slots 0..k-1, set
    when s with slot k is an edge, and the lexicographically first subset
    is the most significant: for graphs (lead 1) slot 0 comes first, for
    triple systems (lead 2) the pairs in lexicographic order.
    """
    cols = []
    for k in range(n):
        col = 0
        for s in itertools.combinations(order[:k], lead):
            edge = sum(1 << v for v in s) | 1 << order[k]
            col = col << 1 | (edge in edges)
        cols.append(col)
    return tuple(cols)


def oracle_min_cols(n: int, lead: int, edges: set[int]) -> tuple[int, ...]:
    """The smallest readout over every placement, levels 0..lead-1 included."""
    return min(readout_cols(n, lead, edges, order) for order in itertools.permutations(range(n)))


# Generate-and-dedup enumeration, the slow reference for orderly generation:
# extend every class on n - 1 points by a new point in every possible way,
# canonicalize each result by full minimization, and sort the distinct forms.


@lru_cache(maxsize=None)
def dedup_graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical column tuples of all graphs on n vertices."""
    if n == 1:
        return ((),)
    found = set()
    for cols in dedup_graph_classes(n - 1):
        base = graph_from_cols(n - 1, cols).adj
        for nb in range(1 << (n - 1)):
            adj = [row | ((nb >> u & 1) << (n - 1)) for u, row in enumerate(base)]
            adj.append(nb)
            found.add(canonical_graph_cols(n, adj))
    return tuple(sorted(found))


@lru_cache(maxsize=None)
def dedup_triple_classes(n: int) -> tuple[tuple[int, ...], ...]:
    """Canonical column tuples of all 3-uniform hypergraphs on n vertices."""
    if n <= 2:
        return ((),)
    pair_list = list(itertools.combinations(range(n - 1), 2))
    found = set()
    for cols in dedup_triple_classes(n - 1):
        base = triples_from_cols(n - 1, cols).edges
        for sub in range(1 << len(pair_list)):
            new = {(i, j, n - 1) for t, (i, j) in enumerate(pair_list) if sub >> t & 1}
            found.add(canonical_triples_cols(n, base | new))
    return tuple(sorted(found))


def fraction_eliminate(npairs: int, eq_rows: list[list[int]]):
    """Rational Gauss-Jordan reference for feasibility._eliminate.

    Pivots on the last negative entry, else the first nonzero one, keeps
    pivot rows normalized to pivot 1 and fully reduced, then clears the
    denominators of the free-pair expressions with their lcm.  Returns
    (free, exprs, scale) as the integer routine does.
    """
    rows = [[Fraction(v) for v in r] for r in eq_rows]
    pivots: dict[int, list[Fraction]] = {}
    for row in rows:
        for col, prow in pivots.items():
            f = row[col]
            if f:
                for j in range(npairs):
                    row[j] -= f * prow[j]
        col = -1
        for j in range(npairs - 1, -1, -1):
            if row[j] < 0:
                col = j
                break
        if col < 0:
            for j in range(npairs):
                if row[j]:
                    col = j
                    break
        if col < 0:
            continue
        piv = row[col]
        prow = [v / piv for v in row]
        for other in pivots.values():
            f = other[col]
            if f:
                for j in range(npairs):
                    other[j] -= f * prow[j]
        pivots[col] = prow
    free = [j for j in range(npairs) if j not in pivots]
    fexprs = []
    for p in range(npairs):
        if p in pivots:
            fexprs.append([-pivots[p][j] for j in free])
        else:
            fexprs.append([Fraction(int(j == p)) for j in free])
    scale = 1
    for vec in fexprs:
        for v in vec:
            scale = scale * v.denominator // gcd(scale, v.denominator)
    return free, [[int(v * scale) for v in vec] for vec in fexprs], scale


def counter_scan(n: int, edges, autos):
    """The base-3 counter scan that feasibility._search replaced: its oracle.

    Walks every branch in counter order over the sorted edges, edge k as
    digit k with edge 0 the least significant, skips a branch that some
    automorphism in autos maps below itself, and hands the others to
    feasibility._decide_branch until one is feasible.  Returns what _search
    returns: the first feasible branch's index, its margin and distances as
    numerators over the denominator that follows, and the number of
    branches decided, or None, 0, None, 1 and that number.
    With autos holding only the identity, every branch up to the first
    feasible one is decided.
    """
    table = feasibility._triangles(n)
    eset = set(edges)
    triangles = [r for t, (ma, mb, mc) in table.items() if t not in eset for r in (mb, ma, mc)]
    options = [table[e] for e in edges]
    npairs = n * (n - 1) // 2
    tables = feasibility._digit_tables(edges, autos)
    m = len(edges)
    digits = [0] * (m + 1)  # a sentinel digit ends the carry at 3**m
    decided = 0
    for a in range(3**m):
        if not feasibility._has_smaller_image(tables, digits, 0):
            decided += 1
            equalities = [rows[d] for rows, d in zip(options, digits)]
            found = feasibility._decide_branch(npairs, triangles, equalities)
            if found is not None:
                return a, *found, decided
        k = 0
        while digits[k] == 2:
            digits[k] = 0
            k += 1
        digits[k] += 1
    return None, 0, None, 1, decided


def fraction_witness(T: TripleSystem) -> tuple[MetricSpace | None, Fraction]:
    """metrizable's witness and best_margin by the Fraction route.

    Takes the first feasible branch that feasibility._search finds, makes
    each pair distance the Fraction num / den of its numerator over the
    branch's denominator, and runs validate_metric on that table of
    Fractions; best_margin is margin / den.  With no feasible branch the
    witness is None.
    """
    edges = T.sorted_edges()
    first, margin, dists, den, _ = feasibility._search(T.n, edges, feasibility._automorphisms(edges))
    if first is None:
        return None, Fraction(margin, den)
    table = [[Fraction(0)] * T.n for _ in range(T.n)]
    for (i, j), num in zip(itertools.combinations(range(T.n), 2), dists):
        table[i][j] = table[j][i] = Fraction(num, den)
    return validate_metric(table), Fraction(margin, den)
