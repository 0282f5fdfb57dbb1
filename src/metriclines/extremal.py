"""Named constructions, and the bound check built on them.

The constructions are the 5-point pentagon space, group spaces (distance 2
inside a group, 1 across), and the standard controls path/uniform/complete.
check_bound compares exact line counts against the bound formulas from
``bounds`` using rational sandwiches, so a pass or fail is never a float
artifact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .bounds import Rational, power_bound
from .errors import BadParams, PreconditionUnmet, Record, SizeCap
from .fileio import CONSTRUCT_KINDS
from .graphs import Graph, graph_dist_rows, graph_from_edges, is_connected
from .metric import (
    MetricSpace,
    extremes,
    int_metric_line_masks,
    line_family,
    sort_distinct,
    uniform_space,
)

Instance = Union[MetricSpace, Graph]
# the most vertices the graph bounds take: they build a line mask per pair,
# C(n, 2) masks of n bits, and a cycle took 1.1 s and 30 MB peak at n = 500,
# 9.0 s and 114 MB at 1,000 (CPython 3.11, one Xeon core)
MAX_GRAPH_BOUND_N = 500


class BoundReport(Record):
    bound_id: str
    params: Mapping[str, Rational]
    lines_found: int
    bound_lo: Fraction
    bound_hi: Fraction
    passed: bool


def pentagon() -> MetricSpace:
    """The 5-point space whose lines nest strictly.

    Points 0..4 sit on a cycle; consecutive points are at distance 1 and
    the remaining pairs at distance 2.
    """
    rows = tuple(
        tuple(2 if abs(i - j) % 5 in (2, 3) else (0 if i == j else 1) for j in range(5))
        for i in range(5)
    )
    return MetricSpace(5, rows)


def group_space(k: int, m: int) -> MetricSpace:
    """k groups of m points each: distance 2 within a group, 1 across."""
    if k < 2:
        raise BadParams(f"need at least 2 groups, got {k}")
    if m < 1:
        raise BadParams(f"group size must be positive, got {m}")
    sizes = [m] * k
    return _space_from_group_sizes(sizes)


def balanced_group_count(n: int) -> int:
    """Nearest integer to (n*n/2)**(1/3).

    Never a tie: equality would need 4*n*n == (2*k+1)**3, impossible since
    the left side is even and the right side odd.
    """
    if n < 1:
        raise BadParams(f"need at least one point, got {n}")
    k = 1
    while 2 * (k + 1) ** 3 <= n * n:
        k += 1
    return k if 4 * n * n < (2 * k + 1) ** 3 else k + 1


def balanced_group_space(n: int) -> MetricSpace:
    """Group space on n points whose group sizes differ by at most one."""
    k = balanced_group_count(n)
    base, extra = divmod(n, k)
    sizes = [base + 1] * extra + [base] * (k - extra)
    return _space_from_group_sizes([s for s in sizes if s > 0])


def _space_from_group_sizes(sizes: list[int]) -> MetricSpace:
    """The 1-2 space of the groups, built directly: a symmetric table with a
    zero diagonal and every other entry 1 or 2 is always a metric."""
    group_of = []
    for g, size in enumerate(sizes):
        group_of.extend([g] * size)
    n = len(group_of)
    rows = tuple(
        tuple(0 if i == j else (2 if group_of[i] == group_of[j] else 1) for j in range(n))
        for i in range(n)
    )
    return MetricSpace(n, rows)


def path_graph(t: int) -> Graph:
    """Path with t edges (t+1 vertices), hence diameter t."""
    if t < 0:
        raise BadParams(f"edge count must be nonnegative, got {t}")
    return graph_from_edges(t + 1, [(i, i + 1) for i in range(t)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise BadParams(f"need at least one vertex, got {n}")
    return graph_from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def construct(kind: str, *params: Rational) -> Instance:
    """Build a named instance; see CONSTRUCT_KINDS for the vocabulary."""
    if kind not in CONSTRUCT_KINDS:
        raise BadParams(f"unknown construction {kind!r}")

    def want(count: int) -> None:
        if len(params) != count:
            raise BadParams(
                f"{kind} takes {count} parameter(s), got {len(params)}"
            )

    def as_int(value: Rational, name: str) -> int:
        frac = Fraction(value)
        if frac.denominator != 1:
            raise BadParams(f"{name} must be an integer, got {value}")
        return frac.numerator

    if kind == "pentagon":
        want(0)
        return pentagon()
    if kind == "groups":
        want(2)
        return group_space(as_int(params[0], "k"), as_int(params[1], "m"))
    if kind == "groups_balanced":
        want(1)
        return balanced_group_space(as_int(params[0], "n"))
    if kind == "path":
        want(1)
        return path_graph(as_int(params[0], "t"))
    if kind == "uniform":
        want(2)
        n = as_int(params[0], "n")
        c = Fraction(params[1])
        if n < 1:
            raise BadParams(f"need at least one point, got {n}")
        if c <= 0:
            raise BadParams(f"distance must be positive, got {c}")
        return uniform_space(n, c)
    # complete
    want(1)
    return complete_graph(as_int(params[0], "n"))


def check_bound(instance: Instance, bound_id: str) -> BoundReport:
    """Count the instance's lines and compare against a named bound.

    Every bound needs at least two points.  range takes any metric space;
    diam and graphs_corollary take a connected graph whose metric has no
    universal line; onetwo_lower takes a space with all distances in {1, 2}.
    """
    if instance.n < 2:
        raise PreconditionUnmet(f"{bound_id} bound needs at least two points")
    if bound_id == "range":
        if not isinstance(instance, MetricSpace):
            raise BadParams("range bound takes a metric space")
        rho = extremes(instance)[2]
        params: dict[str, Rational] = {"n": instance.n, "rho": rho}
        count = line_family(instance).count
    elif bound_id in ("diam", "graphs_corollary"):
        if not isinstance(instance, Graph):
            raise BadParams(f"{bound_id} bound takes a graph")
        if instance.n > MAX_GRAPH_BOUND_N:
            raise SizeCap(f"the {bound_id} bound is capped at n <= {MAX_GRAPH_BOUND_N}, got {instance.n}")
        if not is_connected(instance):
            raise PreconditionUnmet(f"{bound_id} bound needs a connected graph")
        rows = graph_dist_rows(instance)
        masks = sort_distinct(int_metric_line_masks(instance.n, rows))
        if masks[-1] == (1 << instance.n) - 1:
            raise PreconditionUnmet(
                f"{bound_id} bound excludes spaces with a universal line"
            )
        count = len(masks)
        if bound_id == "diam":
            params = {"t": max(map(max, rows))}
        else:
            params = {"n": instance.n}
    elif bound_id == "onetwo_lower":
        if not isinstance(instance, MetricSpace):
            raise BadParams("onetwo_lower bound takes a metric space")
        if instance.non_one_two_pair is not None:
            raise PreconditionUnmet("onetwo_lower bound needs all distances in {1, 2}")
        params = {"n": instance.n}
        count = line_family(instance).count
    else:
        raise BadParams(f"no instance check for bound {bound_id!r}")

    pb = power_bound(bound_id, params)
    lo, hi = pb.sandwich()
    return BoundReport(
        bound_id=bound_id,
        params=params,
        lines_found=count,
        bound_lo=lo,
        bound_hi=hi,
        passed=pb.compare(count) <= 0,
    )
