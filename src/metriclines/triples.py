"""3-uniform hypergraphs and the lines they induce.

A triple system on vertices 0..n-1 abstracts the betweenness relation of a
metric space: an edge {a,b,c} says the three points are collinear, without
remembering which one sits in the middle.  The line of a pair u, v collects
u, v and every w forming an edge with them, so a space and its betweenness
triples always induce the same family of lines.
"""

from __future__ import annotations

from itertools import combinations

from .errors import BadParams, Record, TooFewPoints, XInsideT, check_pair, check_points
from .metric import LineFamily, MetricSpace, family_from_masks, int_metric_line_masks, mask_points


class TripleSystem(Record):
    """A 3-uniform hypergraph on 0..n-1; edges are tuples a < b < c.

    Nothing is checked here.  The caller passes n >= 1 and a frozenset of
    tuples 0 <= a < b < c < n, as triple_system, load_triples_text, the
    enumeration and betweenness_triples do.
    """

    n: int
    edges: frozenset[tuple[int, int, int]]

    def sorted_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(sorted(self.edges))

    def has_edge(self, a: int, b: int, c: int) -> bool:
        return tuple(sorted((a, b, c))) in self.edges


def triple_system(n: int, edges) -> TripleSystem:
    """The system on 0..n-1 with edges as any iterables, in any order; raises
    TooFewPoints for n < 1, BadParams for the first edge not a triple on 0..n-1."""
    if n < 1:
        raise TooFewPoints(n, 1)
    canon = set()
    for e in frozenset(map(tuple, edges)):
        t = tuple(sorted(e))
        if len(t) != 3 or len(set(t)) != 3:
            raise BadParams(f"not a triple: {e}")
        if not (0 <= t[0] and t[2] < n):
            raise BadParams(f"triple {e} out of range for n={n}")
        canon.add(t)
    return TripleSystem(n, frozenset(canon))


def betweenness_triples(S: MetricSpace) -> TripleSystem:
    """The triples {a,b,c} of S in which some point lies between the others.

    These are the a < b < c with c on the line of a, b.
    """
    if S.n < 3:
        raise TooFewPoints(S.n, 3)
    pairs = combinations(range(S.n), 2)
    edges = frozenset(
        (a, b, c)
        for (a, b), mask in zip(pairs, int_metric_line_masks(S.n, S.scaled))
        for c in mask_points(mask >> (b + 1) << (b + 1))
    )
    return TripleSystem(S.n, edges)


def hyper_line(T: TripleSystem, u: int, v: int) -> frozenset[int]:
    """u, v, and every w such that {u,v,w} is an edge."""
    check_pair(T.n, u, v)
    return frozenset({u, v}.union(*(e for e in T.edges if u in e and v in e)))


def triple_line_masks(T: TripleSystem) -> list[int]:
    """Point-set bitmask of every hyperline, one entry per vertex pair u < v."""
    n = T.n
    # pair (u, v) sits at its lexicographic rank u*(2n-u-1)/2 + v-u-1
    start = [u * (2 * n - u - 1) // 2 - u - 1 for u in range(n)]
    masks = [(1 << u) | (1 << v) for u, v in combinations(range(n), 2)]
    for a, b, c in T.edges:
        masks[start[a] + b] |= 1 << c
        masks[start[a] + c] |= 1 << b
        masks[start[b] + c] |= 1 << a
    return masks


def hyper_line_family(T: TripleSystem) -> LineFamily:
    return family_from_masks(T.n, triple_line_masks(T))


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


def fano() -> TripleSystem:
    """The 7-point system with edges {i, i+1 mod 7, i+3 mod 7}."""
    edges = [tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7)]
    return TripleSystem(7, frozenset(edges))


def complete_quadruple() -> TripleSystem:
    """All four triples on four vertices."""
    return TripleSystem(4, frozenset(combinations(range(4), 3)))
