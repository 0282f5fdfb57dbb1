"""Isomorph-free enumeration of small graphs and triple systems.

Structures are canonicalized by relabeling: a placement of the vertices
into slots 0..n-1 reads out, level by level, the adjacency of each new
slot to the earlier ones as a bit column, and the canonical form is the
lexicographically smallest tuple of columns over all placements.

Enumeration is orderly generation (Read 1978; McKay 1998).  A canonical
tuple without its last column is the canonical tuple of the structure on
the first n-1 slots: a smaller tuple for that part, with the last vertex
appended, would be a smaller tuple for the whole.  So every class on n
points is a class on n-1 points plus one column, and extending each class
by every column, keeping the children whose tuple is minimal, yields every
class exactly once; with sorted parents and increasing columns, in order.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import SizeCap
from .graphs import Graph, graph_from_edges, is_connected
from .triples import TripleSystem

MAX_GRAPH_N = 8
MAX_TRIPLES_N = 6


def _twins(n: int, interchangeable) -> list[int]:
    """Per vertex, the bitmask of vertices it is interchangeable with."""
    twins = [0] * n
    for u, v in combinations(range(n), 2):
        if interchangeable(u, v):
            twins[u] |= 1 << v
            twins[v] |= 1 << u
    return twins


def _min_placement(n: int, col_of, interchangeable, target=()) -> tuple[int, ...] | None:
    """Smallest column tuple over all ways to place n vertices into slots.

    col_of(v, placed) gives the column of vertex v when appended after the
    placed tuple; interchangeable(u, v) says a transposition of the two
    vertices is an automorphism, letting the search keep one.  Only the
    vertices with the level's smallest column are tried, and a branch is cut
    once its columns exceed the best tuple so far.  Given a target, the
    search starts from it and returns None at the first level where some
    placement reads out less than the target.
    """
    twins = _twins(n, interchangeable)
    best = target

    def dfs(placed: tuple[int, ...], free: list[int], prefix: tuple[int, ...]) -> bool:
        nonlocal best
        if not free:
            best = prefix
            return True
        cols = [col_of(v, placed) for v in free]
        low = min(cols)
        prefix += (low,)
        if best and prefix > best:
            return True
        if target and low < target[len(placed)]:
            return False
        reps = 0
        for v, col in zip(free, cols):
            if col == low and not twins[v] & reps:
                reps |= 1 << v
                if not dfs(placed + (v,), [w for w in free if w != v], prefix):
                    return False
        return True

    return best if dfs((), list(range(n)), ()) else None


@lru_cache(maxsize=None)
def _classes(n: int, lead: int, rules_of) -> tuple[tuple[int, ...], ...]:
    """Canonical column tuples on n points, in sorted order.

    The column of slot k has one bit per lead-subset of the earlier slots,
    so the first lead levels are empty; rules_of(n, edges) gives the
    col_of and interchangeable callbacks of a structure.
    """
    if n <= lead:
        return ((),)
    out = []
    for parent in _classes(n - 1, lead, rules_of):
        for col in range(1 << comb(n - 1, lead)):
            cols = (*parent, col)
            rules = rules_of(n, _edges(n, lead, cols))
            if _min_placement(n, *rules, (0,) * lead + cols):
                out.append(cols)
    return tuple(out)


@lru_cache(maxsize=None)
def _subsets(k: int, lead: int) -> tuple[tuple[int, ...], ...]:
    """The lead-subsets of slots 0..k-1, lexicographically last first."""
    return tuple(reversed(list(combinations(range(k), lead))))


def _edges(n: int, lead: int, cols: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The sorted edges that a column tuple encodes."""
    edges = []
    for k in range(lead, n):
        col = cols[k - lead]  # bit b: slot k with the b-th entry of _subsets(k, lead)
        edges.extend((*s, k) for b, s in enumerate(_subsets(k, lead)) if col >> b & 1)
    return edges


def _graph_rules(n: int, edges):
    """Callbacks over adjacency rows; a column lists the placed slots, first most significant."""
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def col_of(v: int, placed: tuple[int, ...]) -> int:
        row = adj[v]
        col = 0
        for w in placed:
            col = col << 1 | (row >> w & 1)
        return col

    def interchangeable(u: int, v: int) -> bool:
        return adj[u] & ~(1 << v) == adj[v] & ~(1 << u)

    return col_of, interchangeable


def canonical_graph_cols(n: int, adj: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a graph: per-slot adjacency columns, minimized."""
    if n == 1:
        return ()
    edges = [(u, v) for u, v in combinations(range(n), 2) if adj[u] >> v & 1]
    return _min_placement(n, *_graph_rules(n, edges))[1:]  # level 0 is empty


def graph_from_cols(n: int, cols: tuple[int, ...]) -> Graph:
    return graph_from_edges(n, _edges(n, 1, cols))


def _graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    return _classes(n, 1, _graph_rules)


def enum_graphs(n: int, connected: bool = False) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, in canonical order."""
    if not 1 <= n <= MAX_GRAPH_N:
        raise SizeCap(f"graph enumeration supports 1 <= n <= {MAX_GRAPH_N}, got {n}")
    graphs = [graph_from_cols(n, cols) for cols in _graph_classes(n)]
    if connected:
        graphs = [G for G in graphs if is_connected(G)]
    return graphs


def _triple_rules(n: int, edges):
    """Callbacks over links: link[v][a] is the bitmask of b with {v,a,b} an edge.

    A column lists the pairs i < j of placed slots lexicographically, first
    pair most significant, so smaller columns mean sparser early slots.
    """
    link = [[0] * n for _ in range(n)]
    for t in edges:
        for v, a, b in ((t[0], t[1], t[2]), (t[1], t[0], t[2]), (t[2], t[0], t[1])):
            link[v][a] |= 1 << b
            link[v][b] |= 1 << a

    def col_of(v: int, placed: tuple[int, ...]) -> int:
        lv = link[v]
        col = 0
        for i, a in enumerate(placed):
            row = lv[a]
            for b in placed[i + 1:]:
                col = col << 1 | (row >> b & 1)
        return col

    def interchangeable(u: int, v: int) -> bool:
        # edges holding both u and v are fixed by the swap
        lu, lv, mu, mv = link[u], link[v], ~(1 << v), ~(1 << u)
        return all(lu[a] & mu == lv[a] & mv for a in range(n) if a != u and a != v)

    return col_of, interchangeable


def canonical_triples_cols(n: int, edges: frozenset[tuple[int, int, int]]) -> tuple[int, ...]:
    """Canonical form of a triple system, analogous to the graph columns."""
    if n <= 2:
        return ()
    return _min_placement(n, *_triple_rules(n, edges))[2:]  # levels 0, 1 are empty


def triples_from_cols(n: int, cols: tuple[int, ...]) -> TripleSystem:
    return TripleSystem(n, frozenset(_edges(n, 2, cols)))


def _triple_classes(n: int) -> tuple[tuple[int, ...], ...]:
    return _classes(n, 2, _triple_rules)


def enum_triple_systems(n: int) -> list[TripleSystem]:
    """All 3-uniform hypergraphs on n vertices up to isomorphism."""
    if not 1 <= n <= MAX_TRIPLES_N:
        raise SizeCap(
            f"triple-system enumeration supports 1 <= n <= {MAX_TRIPLES_N}, got {n}"
        )
    return [triples_from_cols(n, cols) for cols in _triple_classes(n)]
