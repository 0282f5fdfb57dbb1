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

One generator serves both structures.  Each gives extend, which builds a
child's adjacency rows or links from its parent's and the new column, and
rules: a grow callback and, for graphs only, per-vertex twin masks, the
vertices whose transposition with a vertex is an automorphism.  Skipping
twins pays on graphs; on triple systems it costs more than it saves.  The
minimality search holds the unplaced vertices as cells, as in McKay and
Piperno's ordered partitions: one (column, vertex bitmask) pair per column
they read out over the placed slots, in increasing column order.  grow
splits each cell by the new slot's bits, so no column is read out from
scratch, and the level's candidates are the first cell's vertices.  A
table lookup on the new column rejects many children before any search.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Sequence

from .errors import SizeCap
from .graphs import Graph, bfs_distances
from .triples import TripleSystem, edge_links

MAX_GRAPH_N = 8
MAX_TRIPLES_N = 6


def _min_placement(n: int, grow, twins, target=()) -> tuple[int, ...] | None:
    """Smallest column tuple over all ways to place n vertices into slots.

    A DFS node holds the placed vertices and the free ones as cells: pairs
    (column, vertex bitmask), one per column the free vertices read out over
    the placed slots, in increasing column order.  grow(cells, u, placed)
    gives the cells once u takes the next slot.  Only the first cell's
    vertices, whose column is the level's smallest, are tried, in ascending
    order; of those that twins[v] (a bitmask of the vertices whose
    transposition with v is an automorphism) pairs up, only the first; with
    twins None, all of them.  The path from the root reads out a prefix
    that either ties the best tuple so far, when only the level's own entry
    needs comparing, or is below it, which happens only on the way to the
    first leaf below a node; a branch is cut at the first level that reads
    out more than the best tuple.  Given a target, the search starts from
    it, compares each level's minimum with target[level] alone, and returns
    None at the first level where some placement reads out less.
    """
    best = list(target)
    prefix = [0] * n

    def dfs(placed: tuple[int, ...], cells: list[tuple[int, int]], tie: bool) -> bool:
        level = len(placed)
        low, cand = cells[0]
        if tie and low != best[level]:
            if low > best[level]:
                return True
            if target:
                return False
            tie = False
        prefix[level] = low
        if level == n - 1:
            if not tie:
                best[:] = prefix
            return True
        reps = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            if twins and twins[v] & reps:
                continue
            reps |= bit
            if not dfs(placed + (v,), grow(cells, v, placed), tie):
                return False
            tie = True  # best now runs through this node
        return True

    return tuple(best) if dfs((), [(0, (1 << n) - 1)], bool(target)) else None


@lru_cache(maxsize=None)
def _classes(n: int, lead: int, extend, rules_of) -> tuple[tuple[int, ...], ...]:
    """Canonical column tuples on n points, in sorted order.

    The column of slot k has one bit per lead-subset of the earlier slots,
    so the first lead levels are empty.  extend(state, col) adds a point
    with column col to a structure's state (its adjacency rows or links),
    and rules_of(state) gives its grow callback and twin masks (or None).
    The placement that keeps the parent's first n-2 slots and puts the new
    point in slot n-2 reads out the parent's columns up to there; a child
    whose new point then reads out less than the parent's last column is
    not minimal, and is rejected before the search.
    """
    if n <= lead:
        return ((),)
    empty: list = []
    for _ in range(n - 1):
        empty = extend(empty, 0)
    # what the new point reads out over slots 0..n-3 depends on its column alone
    head = tuple(range(n - 2))
    heads = []
    for col in range(1 << comb(n - 1, lead)):
        grow = rules_of(extend(empty, col))[0]
        cells = [(0, 1 << n - 1)]
        for u in head:
            cells = grow(cells, u, head[:u])
        heads.append(cells[0][0])
    out = []
    for parent in _classes(n - 1, lead, extend, rules_of):
        base: list = []
        for col in (0,) * lead + parent:
            base = extend(base, col)
        target = (0,) * lead + parent
        for col, c in enumerate(heads):
            if c >= target[-1] and _min_placement(
                n, *rules_of(extend(base, col)), (*target, col)
            ):
                out.append((*parent, col))
    return tuple(out)


def _graph_extend(adj: list[int], col: int) -> list[int]:
    """Adjacency rows with a new last vertex joined to the slots col lists."""
    k = len(adj)
    rows = [*adj, 0]
    u = k
    while col:  # the lowest bit is slot k - 1
        u -= 1
        if col & 1:
            rows[u] |= 1 << k
            rows[k] |= 1 << u
        col >>= 1
    return rows


def _graph_rules(adj: list[int]):
    """Callbacks over adjacency rows; a column lists the placed slots, first most significant.

    Placing u splits each cell into its non-neighbours of u, then its
    neighbours.  Twins have equal open or equal closed neighbourhoods.
    """

    def grow(cells: list[tuple[int, int]], u: int, placed) -> list[tuple[int, int]]:
        row = adj[u]
        off = ~(row | 1 << u)
        grown = []
        for c, m in cells:
            c <<= 1
            if lo := m & off:
                grown.append((c, lo))
            if hi := m & row:
                grown.append((c | 1, hi))
        return grown

    mates: dict[int, int] = {}  # per open (>= 0) or closed (< 0) neighbourhood, its vertices
    for v, row in enumerate(adj):
        for key in (row, ~(row | 1 << v)):
            mates[key] = mates.get(key, 0) | 1 << v
    twins = [(mates[row] | mates[~(row | 1 << v)]) & ~(1 << v) for v, row in enumerate(adj)]
    return grow, twins


def canonical_graph_cols(n: int, adj: Sequence[int]) -> tuple[int, ...]:
    """Canonical form of a graph: per-slot adjacency columns, minimized."""
    if n == 1:
        return ()
    return _min_placement(n, *_graph_rules(list(adj)))[1:]  # level 0 is empty


def _graph_rows(cols: tuple[int, ...]) -> list[int]:
    rows: list[int] = []
    for col in (0, *cols):
        rows = _graph_extend(rows, col)
    return rows


def graph_from_cols(n: int, cols: tuple[int, ...]) -> Graph:
    return Graph(n, tuple(_graph_rows(cols)))


def _graph_classes(n: int) -> tuple[tuple[int, ...], ...]:
    return _classes(n, 1, _graph_extend, _graph_rules)


def enum_graphs(n: int, connected: bool = False) -> list[Graph]:
    """All graphs on n vertices up to isomorphism, in canonical order."""
    if not 1 <= n <= MAX_GRAPH_N:
        raise SizeCap(f"graph enumeration supports 1 <= n <= {MAX_GRAPH_N}, got {n}")
    rows = [_graph_rows(cols) for cols in _graph_classes(n)]
    if connected:
        rows = [adj for adj in rows if -1 not in bfs_distances(adj, n, 0)]
    return [Graph(n, tuple(adj)) for adj in rows]


@lru_cache(maxsize=None)
def _pairs(k: int) -> tuple[tuple[int, int], ...]:
    """The pairs of slots 0..k-1, lexicographically last first: bit b of a column is pair b."""
    return tuple(reversed(list(combinations(range(k), 2))))


def _triple_extend(link: list[list[int]], col: int) -> list[list[int]]:
    """Links with a new last vertex on an edge with each pair of slots col lists."""
    k = len(link)
    link = [row + [0] for row in link]
    link.append([0] * (k + 1))
    for b, (i, j) in enumerate(_pairs(k)):
        if col >> b & 1:
            _link_triple(link, (i, j, k))
    return link


def _link_triple(link: list[list[int]], t: tuple[int, ...]) -> None:
    """Record the edge t in the links of its three vertices."""
    for v, a, b in ((t[0], t[1], t[2]), (t[1], t[0], t[2]), (t[2], t[0], t[1])):
        link[v][a] |= 1 << b
        link[v][b] |= 1 << a


@lru_cache(maxsize=None)
def _spread(k: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """How placing slot k grows a triple column over slots 0..k-1.

    Placing slot k appends the pair (i, k) to the end of group i, the pairs
    (i, j) in the column, which then starts at bit C(k - i, 2).  Returns,
    per column over k slots, its bits moved to their new places, and per i
    the bit of the pair (i, k).
    """
    table = []
    for col in range(1 << comb(k, 2)):
        out = 0
        for i in range(k - 1):
            group = col >> comb(k - 1 - i, 2) & (1 << k - 1 - i) - 1
            out |= group << 1 + comb(k - i, 2)
        table.append(out)
    return tuple(table), tuple(1 << comb(k - i, 2) for i in range(k))


def _triple_rules(link: list[list[int]]):
    """Callbacks over links: link[v][a] is the bitmask of b with {v,a,b} an edge.

    A column lists the pairs i < j of placed slots lexicographically, first
    pair most significant, so smaller columns mean sparser early slots.
    Placing u spreads the columns and splits each cell on link[u][p] for
    every placed p; the new bits fall between the old ones, hence the sort.
    """

    def grow(cells: list[tuple[int, int]], u: int, placed) -> list[tuple[int, int]]:
        spread, ends = _spread(len(placed))
        keep = ~(1 << u)
        grown = [(spread[c], m & keep) for c, m in cells if m & keep]
        lu = link[u]
        for p, bit in zip(placed, ends):
            if not (on := lu[p]):
                continue
            split = []
            for c, m in grown:
                if lo := m & ~on:
                    split.append((c, lo))
                if hi := m & on:
                    split.append((c | bit, hi))
            grown = split
        grown.sort()
        return grown

    return grow, None


def canonical_triples_cols(n: int, edges: frozenset[tuple[int, int, int]]) -> tuple[int, ...]:
    """Canonical form of a triple system, analogous to the graph columns."""
    if n <= 2:
        return ()
    link = [[0] * n for _ in range(n)]
    for t in edges:
        _link_triple(link, t)
    return _min_placement(n, *_triple_rules(link))[2:]  # levels 0, 1 are empty


def triples_from_cols(n: int, cols: tuple[int, ...]) -> TripleSystem:
    edges = (
        (i, j, k)
        for k, col in enumerate(cols, 2)
        for b, (i, j) in enumerate(_pairs(k))
        if col >> b & 1
    )
    return TripleSystem(n, edge_links(n, edges))


def _triple_classes(n: int) -> tuple[tuple[int, ...], ...]:
    return _classes(n, 2, _triple_extend, _triple_rules)


def enum_triple_systems(n: int) -> list[TripleSystem]:
    """All 3-uniform hypergraphs on n vertices up to isomorphism."""
    if not 1 <= n <= MAX_TRIPLES_N:
        raise SizeCap(
            f"triple-system enumeration supports 1 <= n <= {MAX_TRIPLES_N}, got {n}"
        )
    return [triples_from_cols(n, cols) for cols in _triple_classes(n)]
