"""The paper's lemma checks on concrete instances, and the small builders
they use: code that only the tests call.

Each check evaluates one step of a proof in the paper on a given space,
graph or triple system: the six sufficient conditions for two lines of a
1-2 space to differ (distinct_line_case, with the twin helpers), the
geodesic path behind the diameter bound, cliques, the K4 condition and
vertex signatures of triple systems, the bucket and equal-line steps of
the range bound, the group-space line count and the calculus inequality.
They raise the package's errors, and the three below that only they raise.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence, Union

from metriclines.bounds import Rational, power_bound
from metriclines.errors import (
    BadParams,
    MetricLinesError,
    TooFewPoints,
    check_pair,
    check_points,
)
from metriclines.graphs import Graph, graph_dist_rows, graph_from_edges
from metriclines.metric import MetricSpace, line_of, pair_line_masks
from metriclines.triples import TripleSystem, hyper_line, hyper_line_family


class XInsideT(MetricLinesError):
    def __init__(self, x: int):
        self.x = x
        super().__init__(f"point {x} must lie outside the given triple")


class ArityMismatch(MetricLinesError):
    def __init__(self, case: str, expected: int, got: int):
        self.case, self.expected, self.got = case, expected, got
        super().__init__(f"case {case} takes {expected} points, got {got}")


class NotOneTwoSpace(MetricLinesError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"d({i},{j}) is neither 1 nor 2")


def adjacency_from_rows(rows: Sequence[Sequence[int]]) -> Graph:
    n = len(rows)
    edges = [
        (i, j) for i in range(n) for j in range(i + 1, n) if rows[i][j]
    ]
    return graph_from_edges(n, edges)


def graph_metric(G: Graph) -> MetricSpace:
    """The shortest-path metric of a connected graph; hop counts are a metric as they are."""
    return MetricSpace(G.n, tuple(map(tuple, graph_dist_rows(G))))


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


def predicted_group_lines(k: int, m: int) -> int:
    """Distinct-line count of group_space(k, m): k*m*(m-1)/2 + k*(k-1)/2.

    Valid once every group has at least three points and there are at
    least three groups; smaller parameters break the counting argument
    (two groups make the cross line universal).
    """
    if k < 3:
        raise BadParams(f"need at least 3 groups, got {k}")
    if m < 3:
        raise BadParams(f"need group size at least 3, got {m}")
    return k * m * (m - 1) // 2 + k * (k - 1) // 2


def bucket_decomposition(space: MetricSpace, x: int) -> tuple[frozenset[int], int]:
    """Largest bucket of points u != x with i*delta <= d(x,u) < (i+1)*delta.

    delta is the smallest distance of the whole space, so the bucket
    indices run from 1 to floor(rho) and the winner has at least
    (n-1)/floor(rho) members.  Ties go to the lowest index.
    """
    if space.n < 2:
        raise TooFewPoints(space.n, 2)
    check_points(space.n, x)
    D = space.scaled
    delta = min(min(row[i + 1 :]) for i, row in enumerate(D[:-1]))
    buckets: dict[int, list[int]] = {}
    for u in range(space.n):
        if u == x:
            continue
        i = D[x][u] // delta
        buckets.setdefault(i, []).append(u)
    best_i = min(buckets, key=lambda i: (-len(buckets[i]), i))
    return frozenset(buckets[best_i]), best_i


def equal_line_class(
    family_source: Union[MetricSpace, TripleSystem],
    x: int,
    tset: frozenset[int] | set[int],
) -> frozenset[int]:
    """Largest subset of tset whose lines through x share one point set.

    Ties are broken toward the lexicographically smallest member set.
    """
    if isinstance(family_source, MetricSpace):
        line = line_of
    elif isinstance(family_source, TripleSystem):
        line = hyper_line
    else:
        raise BadParams("family source must be a metric space or triple system")
    n = family_source.n
    check_points(n, x)
    if x in tset:
        raise XInsideT(x)
    members = sorted(tset)
    check_points(n, *members)
    classes: dict[frozenset[int], list[int]] = {}
    for v in members:
        classes.setdefault(line(family_source, x, v), []).append(v)
    if not classes:
        return frozenset()
    best = min(classes.values(), key=lambda members: (-len(members), members))
    return frozenset(best)


def calculus_check(x: Rational, y: Rational) -> bool:
    """Whether (1/2)*(x**2/(2y+x))**2 + y >= beta*x**(4/3) - x/2.

    beta = 3 * 2**(-5/3); the comparison is exact via cubing.
    """
    x = Fraction(x)
    y = Fraction(y)
    if x < 3:
        raise BadParams(f"x must be at least 3, got {x}")
    if y < 0:
        raise BadParams(f"y must be nonnegative, got {y}")
    lhs = Fraction(1, 2) * (x * x / (2 * y + x)) ** 2 + y
    return power_bound("calculus", {"x": x}).compare(lhs) <= 0


def vertex_signatures(T: TripleSystem) -> tuple[dict[int, frozenset[int]], bool]:
    """Map each vertex to the indices of the lines containing it.

    Indices refer to hyper_line_family(T), whose order is canonical.  The
    second value says whether the map is injective; it always is when no
    line is universal, and injectivity forces at least lg n distinct lines
    because n distinct subsets of the lines must exist.
    """
    lines = hyper_line_family(T).lines
    sig = {x: frozenset(i for i, ln in enumerate(lines) if x in ln) for x in range(T.n)}
    return sig, len(set(sig.values())) == T.n


def k34_condition(T: TripleSystem, x: int, tset) -> bool:
    """No three vertices of tset form a complete quadruple with x.

    True iff there is no {u,v,w} inside tset with all four of {x,u,v},
    {x,u,w}, {x,v,w}, {u,v,w} present as edges.  x must lie outside tset.
    """
    pts = sorted(set(tset))
    check_points(T.n, x, *pts)
    if x in pts:
        raise XInsideT(x)
    for u, v, w in combinations(pts, 3):
        if (
            T.has_edge(u, v, w)
            and T.has_edge(x, u, v)
            and T.has_edge(x, u, w)
            and T.has_edge(x, v, w)
        ):
            return False
    return True
