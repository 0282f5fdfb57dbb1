"""Exact minimum-line searches over small instance universes.

Three universes are supported: 3-uniform hypergraphs with their hyperlines,
1-2 spaces reached from arbitrary graphs (edge = distance 1), and
shortest-path metrics of connected graphs.  Enumeration is isomorph-free, so
a search touches each class exactly once and the reported witness is the
first optimum in canonical order.  The reports are plain values: the same
search gives an equal report, and the CLI renders and times them.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, Mapping, Union

from .enumeration import MAX_GRAPH_N, MAX_TRIPLES_N, enum_graphs, enum_triple_systems
from .errors import BadParams, Record, SizeCap
from .fileio import UNIVERSES
from .graphs import Graph, graph_dist_rows, onetwo_line_masks
from .metric import int_metric_line_masks
from .triples import TripleSystem, triple_line_masks


# universe -> (size cap, default of exclude_universal, classes on n points in
# canonical order, line masks of a class), in the order of UNIVERSES.  f and
# the graph-metric question exclude the universal line; h does not.  The
# lambdas look the enumerators and kernels up when called, so a replacement
# installed on this module after import takes effect.
_SPECS: dict[str, tuple[int, bool, Callable[[int], list], Callable[[Any], list]]] = {
    "hypergraphs": (
        MAX_TRIPLES_N,
        True,
        lambda n: enum_triple_systems(n),
        lambda T: triple_line_masks(T),
    ),
    "one_two": (
        MAX_GRAPH_N,
        False,
        lambda n: enum_graphs(n),
        lambda G: onetwo_line_masks(G.n, G.adj),
    ),
    "graph_metrics": (
        MAX_GRAPH_N,
        True,
        lambda n: enum_graphs(n, connected=True),
        lambda G: int_metric_line_masks(G.n, graph_dist_rows(G)),
    ),
}


class SearchReport(Record):
    universe: str
    n: int
    exclude_universal: bool
    minimum: int
    witness: Union[TripleSystem, Graph]
    instances_examined: int


class ScanReport(Record):
    n_max: int
    violators: tuple[Graph, ...]
    minima: Mapping[int, int]
    instances_examined: int


def _line_counts(universe: str, n: int, exclude_universal: bool) -> Iterator[tuple]:
    """Yield (class, distinct-line count) in canonical order, None if excluded."""
    _, _, classes, masks_of = _SPECS[universe]
    full = (1 << n) - 1
    for inst in classes(n):
        masks = set(masks_of(inst))
        excluded = exclude_universal and full in masks
        yield inst, None if excluded else len(masks)


def min_lines(
    universe: str,
    n: int,
    exclude_universal: bool | None = None,
) -> SearchReport:
    """Exact minimum number of distinct lines over a whole universe."""
    if universe not in UNIVERSES:
        raise BadParams(f"unknown universe {universe!r}")
    cap, default_exclude, _, _ = _SPECS[universe]
    if exclude_universal is None:
        exclude_universal = default_exclude
    if n > cap:
        raise SizeCap(f"universe {universe} is capped at n <= {cap}, got {n}")
    if exclude_universal and n < 3:
        raise BadParams("excluding the universal line needs n >= 3")
    if n < 2:
        raise BadParams("a line needs two points, so n >= 2 is required")

    best: int | None = None
    witness = None
    examined = 0
    for inst, count in _line_counts(universe, n, exclude_universal):
        examined += 1
        if count is not None and (best is None or count < best):
            best = count
            witness = inst
    # best is set: for n >= 3 the edgeless system and K_n have no universal line
    return SearchReport(
        universe=universe,
        n=n,
        exclude_universal=exclude_universal,
        minimum=best,
        witness=witness,
        instances_examined=examined,
    )


def conjecture_scan(n_max: int) -> ScanReport:
    """Hunt for a connected graph metric with no universal line and < n lines.

    Scans every connected isomorphism class with 3 <= n <= n_max; sizes 1
    and 2 are vacuous.  Also records, per n, the minimum line count among
    the no-universal-line classes.
    """
    if n_max > MAX_GRAPH_N:
        raise SizeCap(f"scan is capped at n <= {MAX_GRAPH_N}, got {n_max}")
    if n_max < 1:
        raise BadParams(f"scan needs a positive size, got {n_max}")
    violators = []
    minima: dict[int, int] = {}
    examined = 0
    for n in range(3, n_max + 1):
        for g, count in _line_counts("graph_metrics", n, True):
            examined += 1
            if count is None:
                continue
            minima[n] = min(count, minima.get(n, count))
            if count < n:
                violators.append(g)
    return ScanReport(
        n_max=n_max,
        violators=tuple(violators),
        minima=minima,
        instances_examined=examined,
    )
