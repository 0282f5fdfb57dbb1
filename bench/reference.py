"""Reference computations the benchmark checks metric-lines outputs against.

Everything here is written from the definitions and imports nothing from
the metriclines package.  Distances are exact numbers (ints or Fractions);
a point b lies between a and c when d(a,b) + d(b,c) == d(a,c).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations


def collinear(d, a: int, b: int, c: int) -> bool:
    """Some point of {a, b, c} lies between the other two."""
    ab, bc, ac = d[a][b], d[b][c], d[a][c]
    return ab + bc == ac or ab + ac == bc or ac + bc == ab


def line_sets(d) -> set[frozenset[int]]:
    """The distinct lines of a distance table, one point set per line."""
    n = len(d)
    out = set()
    for u, v in combinations(range(n), 2):
        du, dv, duv = d[u], d[v], d[u][v]
        pts = [u, v]
        for p in range(n):
            if p == u or p == v:
                continue
            a, b = du[p], dv[p]
            if a + duv == b or a + b == duv or duv + b == a:
                pts.append(p)
        out.add(frozenset(pts))
    return out


def betweenness_triples(d) -> set[tuple[int, int, int]]:
    """Sorted triples {a, b, c} in which some point lies between the others."""
    return {t for t in combinations(range(len(d)), 3) if collinear(d, *t)}


def hyperline_sets(n: int, triples) -> set[frozenset[int]]:
    """Lines of a triple system: u, v and every w with {u, v, w} a triple."""
    third: dict[tuple[int, int], list[int]] = {}
    for a, b, c in triples:
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            third.setdefault((u, v), []).append(w)
    return {
        frozenset([u, v, *third.get((u, v), ())])
        for u, v in combinations(range(n), 2)
    }


def bfs_distances(adj: list[list[int]], src: int) -> list[int]:
    """Hop counts from src; -1 marks vertices src cannot reach."""
    dist = [-1] * len(adj)
    dist[src] = 0
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def graph_distances(n: int, edges) -> list[list[int]]:
    """All-pairs hop counts of a connected graph."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    rows = [bfs_distances(adj, s) for s in range(n)]
    if any(x < 0 for row in rows for x in row):
        raise ValueError("graph is not connected")
    return rows


def one_two_table(n: int, edges) -> list[list[int]]:
    """The 1-2 space of a graph: distance 1 on edges, 2 elsewhere."""
    d = [[0 if i == j else 2 for j in range(n)] for i in range(n)]
    for u, v in edges:
        d[u][v] = d[v][u] = 1
    return d


def is_metric(d) -> bool:
    """Zero diagonal, positive symmetric distances, triangle inequality."""
    n = len(d)
    if any(len(row) != n for row in d):
        return False
    for i in range(n):
        if d[i][i] != 0:
            return False
        for j in range(i + 1, n):
            if d[i][j] <= 0 or d[i][j] != d[j][i]:
                return False
    return all(
        d[i][j] <= d[i][k] + d[k][j]
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def shortest_path_closure(w: list[list]) -> list[list]:
    """Floyd-Warshall over a symmetric table of positive edge weights."""
    d = [list(row) for row in w]
    n = len(d)
    for k in range(n):
        dk = d[k]
        for i in range(n):
            di, dik = d[i], d[i][k]
            for j in range(n):
                via = dik + dk[j]
                if via < di[j]:
                    di[j] = via
    return d


def triple_classes(n: int, systems) -> int:
    """Number of isomorphism classes among labelled triple systems on n points."""
    seen = set()
    perms = list(permutations(range(n)))
    for triples in systems:
        seen.add(
            min(
                tuple(sorted(tuple(sorted((p[a], p[b], p[c]))) for a, b, c in triples))
                for p in perms
            )
        )
    return len(seen)


def parse_rational(token: str) -> Fraction:
    num, _, den = token.partition("/")
    return Fraction(int(num), int(den or 1))


def format_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def parse_metric(text: str) -> list[list[Fraction]]:
    """A metric file: n, then n rows of n rationals."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    n = int(rows[0][0])
    if len(rows) != n + 1 or any(len(r) != n for r in rows[1:]):
        raise ValueError("malformed metric text")
    return [[parse_rational(t) for t in r] for r in rows[1:]]


def parse_edges(text: str) -> tuple[int, list[tuple[int, ...]]]:
    """A graph or triples file: "n m", then one edge per line."""
    rows = [tuple(int(t) for t in line.split()) for line in text.splitlines() if line.strip()]
    n, m = rows[0]
    if len(rows) != m + 1:
        raise ValueError("malformed edge list")
    return n, rows[1:]


def metric_text(d) -> str:
    return f"{len(d)}\n" + "".join(
        " ".join(format_rational(Fraction(x)) for x in row) + "\n" for row in d
    )


def edges_text(n: int, edges) -> str:
    edges = sorted(tuple(sorted(e)) for e in edges)
    return f"{n} {len(edges)}\n" + "".join(" ".join(map(str, e)) + "\n" for e in edges)
