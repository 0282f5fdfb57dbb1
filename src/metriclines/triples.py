"""3-uniform hypergraphs and the lines they induce.

A triple system on vertices 0..n-1 abstracts the betweenness relation of a
metric space: an edge {a,b,c} says the three points are collinear, without
remembering which one sits in the middle.  The line of a pair u, v collects
u, v and every w forming an edge with them, so a space and its betweenness
triples always induce the same family of lines.

A system is held as its links, one bitmask per pair: links[u, v], for
u < v, is the set of w with {u, v, w} an edge.  The hyperline of u, v is
that mask with u and v added, and the pair symmetry w in links[u, v] iff v
in links[u, w] is the edge {u, v, w} seen from its three pairs.  Only the
pairs that lie on some edge have a key, so a system takes space for its
edges and not for the n(n-1)/2 pairs.  The edges, when a caller wants
them, are read off the links in lexicographic order.
"""

from __future__ import annotations

from itertools import combinations, repeat
from typing import TYPE_CHECKING

from .errors import BadParams, Record, TooFewPoints, XInsideT, check_pair, check_points
from .metric import LineFamily, MetricSpace, family_from_masks, int_metric_line_masks, mask_points

if TYPE_CHECKING:
    from collections.abc import Iterable, Iterator


class TripleSystem(Record):
    """A 3-uniform hypergraph on 0..n-1, held as its links.

    links maps each pair (u, v), u < v, that lies on some edge to the
    nonzero bitmask of the w with {u, v, w} an edge, and its keys come in
    lexicographic pair order.  Nothing is checked here.  The builders,
    triple_system, load_triples_text, betweenness_triples, the enumeration,
    fano and complete_quadruple, pass n >= 1 and such links, in which each
    edge sets one bit in the mask of each of its three pairs.
    """

    n: int
    links: dict[tuple[int, int], int]

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """The edges a < b < c, in lexicographic order."""
        for (a, b), mask in self.links.items():
            if above := mask >> b + 1 << b + 1:
                yield from zip(repeat(a), repeat(b), mask_points(above))

    @property
    def edges(self) -> frozenset[tuple[int, int, int]]:
        """The edges as a frozenset of tuples a < b < c, built when read."""
        return frozenset(self.iter_edges())

    def sorted_edges(self) -> tuple[tuple[int, int, int], ...]:
        return tuple(self.iter_edges())

    def edge_count(self) -> int:
        return sum(map(int.bit_count, self.links.values())) // 3

    def has_edge(self, a: int, b: int, c: int) -> bool:
        """Whether {a, b, c} is an edge, for points a, b, c of 0..n-1 in any order."""
        return self.links.get((a, b) if a < b else (b, a), 0) >> c & 1 == 1


def edge_links(n: int, edges: Iterable[tuple[int, int, int]]) -> dict[tuple[int, int], int]:
    """The links of triples 0 <= a < b < c < n, keys in lexicographic pair order.

    Each edge ORs its third point into the mask of each of its pairs, keyed
    by u*n + v while the edges are read, which is cheaper to build and hash
    than the pair, and the pairs are put in order once at the end.  A
    repeated edge sets bits already set, so the links then hold fewer than
    three bits per edge.
    """
    masks: dict[int, int] = {}
    get = masks.get
    for a, b, c in edges:
        an = a * n
        key = an + b
        masks[key] = get(key, 0) | 1 << c
        key = an + c
        masks[key] = get(key, 0) | 1 << b
        key = b * n + c
        masks[key] = get(key, 0) | 1 << a
    return {divmod(key, n): masks[key] for key in sorted(masks)}


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
    return TripleSystem(n, edge_links(n, canon))


def betweenness_triples(S: MetricSpace) -> TripleSystem:
    """The triples {a,b,c} of S in which some point lies between the others.

    The links are the kernel's line masks less the pair's own two points.
    """
    if S.n < 3:
        raise TooFewPoints(S.n, 3)
    pairs = combinations(range(S.n), 2)
    links = {
        (u, v): others
        for (u, v), mask in zip(pairs, int_metric_line_masks(S.n, S.scaled))
        if (others := mask & ~(1 << u | 1 << v))
    }
    return TripleSystem(S.n, links)


def hyper_line(T: TripleSystem, u: int, v: int) -> frozenset[int]:
    """u, v, and every w such that {u,v,w} is an edge."""
    check_pair(T.n, u, v)
    others = T.links.get((u, v) if u < v else (v, u), 0)
    return frozenset(mask_points(others | 1 << u | 1 << v))


def triple_line_masks(T: TripleSystem) -> list[int]:
    """Point-set bitmask of every hyperline, one entry per vertex pair u < v."""
    get = T.links.get
    return [get((u, v), 0) | 1 << u | 1 << v for u, v in combinations(range(T.n), 2)]


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
    return TripleSystem(7, edge_links(7, edges))


def complete_quadruple() -> TripleSystem:
    """All four triples on four vertices."""
    return TripleSystem(4, edge_links(4, combinations(range(4), 3)))
