"""Graphs, their shortest-path metrics, and the machinery of 1-2 spaces.

Adjacency is kept as bitmask rows, which keeps breadth-first search, twin
detection, and the per-pair line computations cheap; the searches over all
graphs of a given order lean on that.

A 1-2 space (every off-diagonal distance 1 or 2) is the same thing as a
graph: adjacent means distance 1.  Lines in such a space reduce to bitmask
formulas on adjacency rows, and the case analysis in distinct_line_case
spells out when two generating pairs are forced to give different lines.

Betweenness is decided exactly, on integer tables, by metric's packed-row
kernel int_metric_line_masks (see ``metric``); graph_to_space builds its
table with scale 1.  The 1-2 line masks are the XOR/AND formulas on
adjacency rows.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    ArityMismatch,
    BadParams,
    DisconnectedGraph,
    NotOneTwoSpace,
    Record,
    check_pair,
    check_points,
)
from .metric import MetricSpace, pair_line_masks


class Graph(Record):
    """Undirected graph on 0..n-1; adj[u] is the neighbor set of u as a bitmask.

    Nothing is checked here.  The caller passes n >= 1 and n symmetric,
    loop-free rows within n bits, as the two builders do: graph_from_edges,
    which checks edges from outside the program, and the enumerator's
    graph_from_cols, which reads them from canonical columns.
    """

    n: int
    adj: tuple[int, ...]

    def sorted_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if self.adj[u] >> v & 1
        )


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """The graph on 0..n-1 with the given edges; raises BadParams for n < 1
    and for the first edge out of range or a self-loop."""
    if n < 1:
        raise BadParams(f"graph needs at least one vertex, got n={n}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise BadParams(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise BadParams(f"self-loop at {u}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def adjacency_from_rows(rows: Sequence[Sequence[int]]) -> Graph:
    n = len(rows)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]
    ]
    return graph_from_edges(n, edges)


def bfs_distances(adj: Sequence[int], n: int, src: int) -> list[int]:
    """Hop counts from src; -1 marks unreachable vertices."""
    dist = [-1] * n
    dist[src] = 0
    seen = 1 << src
    frontier = 1 << src
    d = 0
    while frontier:
        nxt = 0
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            nxt |= adj[v]
        nxt &= ~seen
        d += 1
        f = nxt
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            dist[v] = d
        seen |= nxt
        frontier = nxt
    return dist


def is_connected(G: Graph) -> bool:
    return -1 not in bfs_distances(G.adj, G.n, 0)


def graph_dist_rows(G: Graph) -> list[list[int]]:
    """All-pairs hop counts; raises DisconnectedGraph on the first gap found."""
    rows = []
    for u in range(G.n):
        d = bfs_distances(G.adj, G.n, u)
        for v in range(G.n):
            if d[v] < 0:
                raise DisconnectedGraph(u, v)
        rows.append(d)
    return rows


def graph_metric(G: Graph) -> MetricSpace:
    """The shortest-path metric of a connected graph; hop counts are a metric as they are."""
    return MetricSpace(G.n, tuple(map(tuple, graph_dist_rows(G))))


def diameter(G: Graph) -> int:
    rows = graph_dist_rows(G)
    return max(max(row) for row in rows)


def geodesic_path(G: Graph) -> tuple[int, ...]:
    """A diametral shortest path v_0..v_t with d(v_i, v_j) = j - i throughout.

    Deterministic: the lexicographically smallest diametral (source, target)
    pair, then the path whose every step takes the smallest-labeled
    predecessor in the source's breadth-first tree.
    """
    rows = graph_dist_rows(G)
    t = max(max(row) for row in rows)
    s: int | None = None
    g: int | None = None
    for u in range(G.n):
        for v in range(u + 1, G.n):
            if rows[u][v] == t:
                s, g = u, v
                break
        if s is not None:
            break
    if s is None:
        # single vertex: the trivial path
        return (0,)
    ds = rows[s]
    path = [g]
    cur = g
    while cur != s:
        nxt = min(
            w for w in range(G.n) if G.adj[cur] >> w & 1 and ds[w] == ds[cur] - 1
        )
        path.append(nxt)
        cur = nxt
    path.reverse()
    for i in range(len(path)):
        for j in range(i + 1, len(path)):
            if rows[path[i]][path[j]] != j - i:
                raise AssertionError("geodesic property failed on returned path")
    return tuple(path)


def _require_one_two(S: MetricSpace) -> None:
    pair = S.non_one_two_pair
    if pair is not None:
        raise NotOneTwoSpace(*pair)


def graph_to_space(G: Graph) -> MetricSpace:
    """Edges become distance 1, non-edges distance 2.  Any graph qualifies."""
    rows = tuple(
        tuple(0 if i == j else (1 if G.adj[i] >> j & 1 else 2) for j in range(G.n))
        for i in range(G.n)
    )
    return MetricSpace(G.n, rows)


def space_to_graph(S: MetricSpace) -> Graph:
    _require_one_two(S)
    edges = [
        (i, j)
        for i in range(S.n)
        for j in range(i + 1, S.n)
        if S.scaled[i][j] == S.scale
    ]
    return graph_from_edges(S.n, edges)


def are_twins(S: MetricSpace, u: int, v: int) -> bool:
    """d(u,v) = 2 and u, v agree with every other point."""
    check_pair(S.n, u, v)
    return (min(u, v), max(u, v)) in find_twins(S)


def find_twins(S: MetricSpace) -> frozenset[tuple[int, int]]:
    """All twin pairs, each as (u, v) with u < v."""
    _require_one_two(S)
    return _twin_pairs(S)


def _twin_pairs(S: MetricSpace) -> frozenset[tuple[int, int]]:
    """find_twins of a space already known to be a 1-2 space."""
    one = S.scale
    adj = [sum(1 << j for j, x in enumerate(row) if x == one) for row in S.scaled]
    out = set()
    for u in range(S.n):
        for v in range(u + 1, S.n):
            if adj[u] >> v & 1:
                continue
            keep = ~((1 << u) | (1 << v))
            if adj[u] & keep == adj[v] & keep:
                out.add((u, v))
    return frozenset(out)


def maximal_twin_free(S: MetricSpace) -> frozenset[int]:
    """Greedy maximal twin-free subset, scanning labels in increasing order."""
    twins = find_twins(S)
    twin_of: dict[int, set[int]] = {}
    for u, v in twins:
        twin_of.setdefault(u, set()).add(v)
        twin_of.setdefault(v, set()).add(u)
    kept: set[int] = set()
    for p in range(S.n):
        if not (twin_of.get(p, set()) & kept):
            kept.add(p)
    return frozenset(kept)


_CASE_ARITY = {"i": 4, "ii": 4, "iii": 4, "iv": 3, "v": 3, "vi": 3}


def _has_other_twin(S: MetricSpace, p: int, excluded: int) -> bool:
    return any(p in pair and excluded not in pair for pair in _twin_pairs(S))


def distinct_line_case(
    S: MetricSpace, case_id: str, points: tuple[int, ...]
) -> tuple[bool, bool]:
    """Evaluate one of the six sufficient conditions for two lines to differ.

    Cases i-iii take four distinct points and compare the lines of (p1,p2)
    and (p3,p4); cases iv-vi take three and compare (p1,p2) with (p2,p3):

      i.   all six distances 1
      ii.  d(p1,p2) = 1 and d(p3,p4) = 2
      iii. d(p1,p2) = d(p3,p4) = 2 and p4 has a twin other than p3
      iv.  d(p1,p2) = d(p2,p3) = 1 and p1, p3 are not twins
      v.   d(p1,p2) = 1, d(p2,p3) = 2, and p3 has a twin other than p2
      vi.  d(p1,p2) = d(p2,p3) = 2

    Returns (applies, conclusion_holds): whether the hypothesis is met, and
    whether the two lines really are different point sets.
    """
    if case_id not in _CASE_ARITY:
        raise BadParams(f"unknown case {case_id!r}")
    want = _CASE_ARITY[case_id]
    if len(points) != want:
        raise ArityMismatch(case_id, want, len(points))
    check_points(S.n, *points)
    if len(set(points)) != want:
        raise BadParams(f"points must be distinct, got {points}")
    _require_one_two(S)
    # (p1,p2) against (p3,p4), or (p1,p2) against (p2,p3)
    (a, b), (c, e) = pair_a, pair_b = points[:2], points[-2:]
    d = S.scaled
    one, two = S.scale, 2 * S.scale
    if case_id == "i":
        applies = all(d[x][y] == one for x, y in combinations(points, 2))
    elif case_id == "ii":
        applies = d[a][b] == one and d[c][e] == two
    elif case_id == "iii":
        applies = d[a][b] == two and d[c][e] == two and _has_other_twin(S, e, c)
    elif case_id == "iv":
        applies = d[a][b] == one and d[c][e] == one and (min(a, e), max(a, e)) not in _twin_pairs(S)
    elif case_id == "v":
        applies = d[a][b] == one and d[c][e] == two and _has_other_twin(S, e, c)
    else:  # vi
        applies = d[a][b] == two and d[c][e] == two
    mask_a, mask_b = pair_line_masks(S, [pair_a, pair_b])
    return applies, mask_a != mask_b


def onetwo_line_masks(n: int, adj: Sequence[int]) -> list[int]:
    """Line bitmasks of the 1-2 space of a graph, one per pair u < v."""
    out = []
    for u in range(n):
        au = adj[u]
        bu = 1 << u
        for v in range(u + 1, n):
            av = adj[v]
            if au >> v & 1:
                out.append(au ^ av)
            else:
                out.append((au & av) | bu | (1 << v))
    return out


def max_clique_size(n: int, adj: Sequence[int]) -> int:
    """Size of the largest clique of the graph."""
    best = 0

    def grow(clique_size: int, cand: int) -> None:
        nonlocal best
        if clique_size + cand.bit_count() <= best:
            return
        if not cand:
            best = max(best, clique_size)
            return
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            if clique_size + 1 + cand.bit_count() <= best:
                return
            grow(clique_size + 1, cand & adj[v])

    grow(0, (1 << n) - 1)
    return best
