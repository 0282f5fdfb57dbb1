"""Graphs, their shortest-path metrics, and the machinery of 1-2 spaces.

Adjacency is kept as bitmask rows, which keeps breadth-first search and
the per-pair line computations cheap; the searches over all graphs of a
given order lean on that.

A 1-2 space (every off-diagonal distance 1 or 2) is the same thing as a
graph: adjacent means distance 1.  Lines in such a space reduce to bitmask
formulas on adjacency rows.

Betweenness is decided exactly, on integer tables, by metric's packed-row
kernel int_metric_line_masks (see ``metric``); graph_to_space builds its
table with scale 1.  The 1-2 line masks are the XOR/AND formulas on
adjacency rows.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import BadParams, DisconnectedGraph, Record
from .metric import MetricSpace


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


def diameter(G: Graph) -> int:
    rows = graph_dist_rows(G)
    return max(max(row) for row in rows)


def graph_to_space(G: Graph) -> MetricSpace:
    """Edges become distance 1, non-edges distance 2.  Any graph qualifies."""
    rows = tuple(
        tuple(0 if i == j else (1 if G.adj[i] >> j & 1 else 2) for j in range(G.n))
        for i in range(G.n)
    )
    return MetricSpace(G.n, rows)


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
