"""The benchmark's workloads: CLI ops, inputs made from the seed, and checks.

Each op is one metric-lines CLI call under --format json.  Its check gets
the parsed JSON output and raises CheckFailed unless the output agrees with
reference.py, which shares no code with the program.

search       the exhaustive searches.  Enumeration: scan 7, search
             one_two 6, search hypergraphs 5, with references from the
             networkx graph atlas and from all 1,024 labelled triple
             systems on 5 points.  Metrizability: the Fano plane, which
             is not metrizable, and the SYSTEMS triple systems, each the
             betweenness triples of a seeded random integer metric on 6
             points, so metrizable by construction.  The seed draws only
             the systems.
lines        a balanced 1-2 group space and its betweenness triples, a
             rational metric (shortest paths of a complete graph with
             seeded weights), an odd cycle and a torus grid.  The seed
             draws the weights and relabels every point at random.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from typing import Callable

import reference as ref

GROUP_N = 80
GENERIC_N = 80
GENERIC_DEN = 12
CYCLE_N = 151
TORUS = (11, 13)
SYSTEM_POINTS = 6
# (number of systems, allowed triple counts): 5 triples keep the op times
# steady from seed to seed; 6-8 triples reach past the pool's first chunk of
# 243 branches
SYSTEMS = ((8, (5,)), (2, (6, 7, 8)))
# the order of the one_two search: order 7 takes 5-7 s, too long for two
# rounds of search in one run
ONE_TWO_N = 6
FANO = tuple(tuple(sorted((i, (i + 1) % 7, (i + 3) % 7))) for i in range(7))


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Op:
    label: str
    args: tuple[str, ...]
    check: Callable[[dict], None]


def require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# enumerate ------------------------------------------------------------------


@dataclass(frozen=True)
class EnumerationReference:
    connected_3_to_7: int
    minima: dict[str, int]
    one_two_graphs: int
    one_two_min: int
    triple_classes_5: int
    hyper_min_5: int


def enumeration_reference() -> EnumerationReference:
    import networkx as nx

    connected = one_two_graphs = 0
    minima: dict[str, int] = {}
    one_two_min = None
    for g in nx.graph_atlas_g():
        n = g.number_of_nodes()
        if n < 3:
            continue
        edges = list(g.edges())
        if n == ONE_TWO_N:
            one_two_graphs += 1
            count = len(ref.line_sets(ref.one_two_table(n, edges)))
            one_two_min = count if one_two_min is None else min(one_two_min, count)
        try:
            d = ref.graph_distances(n, edges)
        except ValueError:
            continue
        connected += 1
        lines = ref.line_sets(d)
        if frozenset(range(n)) not in lines:
            key = str(n)
            minima[key] = min(minima.get(key, len(lines)), len(lines))

    all_triples = list(combinations(range(5), 3))
    systems = [
        [t for i, t in enumerate(all_triples) if mask >> i & 1]
        for mask in range(1 << len(all_triples))
    ]
    hyper_min = min(
        len(lines)
        for lines in (ref.hyperline_sets(5, s) for s in systems)
        if frozenset(range(5)) not in lines
    )
    return EnumerationReference(
        connected, minima, one_two_graphs, one_two_min, ref.triple_classes(5, systems), hyper_min
    )


def check_scan(r: EnumerationReference):
    def check(doc: dict) -> None:
        require(doc["n_max"] == 7, "n_max")
        require(doc["instances_examined"] == r.connected_3_to_7, "classes examined")
        require(doc["violators"] == [], "violators reported")
        require(doc["minima"] == r.minima, f"minima {doc['minima']} != {r.minima}")

    return check


def check_search_one_two(r: EnumerationReference):
    def check(doc: dict) -> None:
        require((doc["universe"], doc["n"]) == ("one_two", ONE_TWO_N), "universe")
        require(doc["exclude_universal"] is False, "exclude_universal")
        require(doc["instances_examined"] == r.one_two_graphs, "classes examined")
        require(doc["minimum"] == r.one_two_min, "minimum")
        n, edges = ref.parse_edges(doc["witness"])
        require(n == ONE_TWO_N, "witness size")
        lines = ref.line_sets(ref.one_two_table(n, edges))
        require(len(lines) == doc["minimum"], "witness line count")

    return check


def check_search_hypergraphs(r: EnumerationReference):
    def check(doc: dict) -> None:
        require((doc["universe"], doc["n"]) == ("hypergraphs", 5), "universe")
        require(doc["exclude_universal"] is True, "exclude_universal")
        require(doc["instances_examined"] == r.triple_classes_5, "classes examined")
        require(doc["minimum"] == r.hyper_min_5, "minimum")
        n, triples = ref.parse_edges(doc["witness"])
        lines = ref.hyperline_sets(n, triples)
        require(n == 5 and frozenset(range(5)) not in lines, "witness has a universal line")
        require(len(lines) == doc["minimum"], "witness line count")

    return check


def build_enumerate(seed: int, workdir: Path) -> list[Op]:
    r = enumeration_reference()
    return [
        Op("scan 7", ("scan", "7"), check_scan(r)),
        Op(f"search one_two {ONE_TWO_N}", ("search", "one_two", str(ONE_TWO_N)),
           check_search_one_two(r)),
        Op("search hypergraphs 5", ("search", "hypergraphs", "5"), check_search_hypergraphs(r)),
    ]


# lines ----------------------------------------------------------------------


def balanced_sizes(n: int) -> list[int]:
    """About (n^2/2)^(1/3) group sizes that differ by at most one."""
    k = round((n * n / 2) ** (1 / 3))
    base, extra = divmod(n, k)
    return [base + 1] * extra + [base] * (k - extra)


def group_table(sizes: list[int], labels: list[int]) -> list[list[int]]:
    """Group space: distance 2 inside a group and 1 across.  The groups
    take the points of labels in order."""
    n = len(labels)
    group = [0] * n
    order = [g for g, size in enumerate(sizes) for _ in range(size)]
    for p, g in zip(labels, order):
        group[p] = g
    return [[0 if i == j else 2 if group[i] == group[j] else 1 for j in range(n)] for i in range(n)]


def rational_table(n: int, rng: random.Random) -> list[list[Fraction]]:
    """Shortest paths of a complete graph with weights in [1, 6] of
    denominator GENERIC_DEN."""
    den = GENERIC_DEN
    w = [[0] * n for _ in range(n)]
    for i, j in combinations(range(n), 2):
        w[i][j] = w[j][i] = rng.randint(den, 6 * den)
    return [[Fraction(x, den) for x in row] for row in ref.shortest_path_closure(w)]


def cycle_edges(n: int, rng: random.Random) -> list[tuple[int, int]]:
    label = rng.sample(range(n), n)
    return [(label[i], label[(i + 1) % n]) for i in range(n)]


def torus_edges(rows: int, cols: int, rng: random.Random) -> list[tuple[int, int]]:
    label = rng.sample(range(rows * cols), rows * cols)
    at = lambda r, c: label[(r % rows) * cols + c % cols]  # noqa: E731
    return [
        e
        for r in range(rows)
        for c in range(cols)
        for e in ((at(r, c), at(r + 1, c)), (at(r, c), at(r, c + 1)))
    ]


def check_family(n: int, expected: set[frozenset[int]]):
    def check(doc: dict) -> None:
        lines = doc["lines"]
        require(doc["count"] == len(lines) == len(expected), "line count")
        require(all(ln == sorted(ln) for ln in lines), "line points unsorted")
        require(lines == sorted(lines), "lines out of canonical order")
        require({frozenset(ln) for ln in lines} == expected, "line point sets")
        require(doc["universal"] == (frozenset(range(n)) in expected), "universal flag")

    return check


def check_triples(n: int, expected: set[tuple[int, int, int]]):
    def check(doc: dict) -> None:
        require(doc["n"] == n, "n")
        require(doc["count"] == len(expected), "triple count")
        require(doc["triples"] == [list(t) for t in sorted(expected)], "triples")

    return check


# bound id -> (exponent k, base B as a function of the params): the bound is
# B**(1/k), as the paper states it
BOUND_POWERS = {
    "range": (3, lambda p: (p["n"] / p["rho"]) ** 2 / 64),
    "diam": (2, lambda p: p["t"] / 2),
    "graphs_corollary": (7, lambda p: p["n"] ** 2 / 256),
    "onetwo_lower": (3, lambda p: p["n"] ** 4 / 128),
}


def check_bound(bound_id: str, params: dict[str, Fraction], count: int):
    def check(doc: dict) -> None:
        require(doc["bound_id"] == bound_id, "bound_id")
        got = {k: ref.parse_rational(v) for k, v in doc["params"].items()}
        require(got == params, f"params {doc['params']}")
        require(doc["lines_found"] == count, f"lines_found {doc['lines_found']} != {count}")
        lo, hi = ref.parse_rational(doc["bound_lo"]), ref.parse_rational(doc["bound_hi"])
        k, base = BOUND_POWERS[bound_id]
        b = base({key: Fraction(v) for key, v in params.items()})
        require(lo <= hi and lo ** k <= b <= hi ** k, "bound sandwich")
        require(doc["pass"] is True and count ** k >= b, "bound not passed")

    return check


def build_lines(
    seed: int,
    workdir: Path,
    group_n: int = GROUP_N,
    generic_n: int = GENERIC_N,
    cycle_n: int = CYCLE_N,
    torus: tuple[int, int] = TORUS,
) -> list[Op]:
    rng = random.Random(seed)
    group = group_table(balanced_sizes(group_n), rng.sample(range(group_n), group_n))
    generic = rational_table(generic_n, rng)
    cycle = cycle_edges(cycle_n, rng)
    grid = torus_edges(*torus, rng)
    files = {
        "group": ref.metric_text(group),
        "generic": ref.metric_text(generic),
        "cycle": ref.edges_text(cycle_n, cycle),
        "torus": ref.edges_text(torus[0] * torus[1], grid),
    }
    group_triples = ref.betweenness_triples(group)
    files["group_triples"] = ref.edges_text(group_n, group_triples)
    path = {}
    for name, text in files.items():
        path[name] = str(workdir / f"{name}.txt")
        Path(path[name]).write_text(text)

    group_lines = ref.line_sets(group)
    generic_lines = ref.line_sets(generic)
    pairs = [generic[i][j] for i, j in combinations(range(generic_n), 2)]
    cycle_d = ref.graph_distances(cycle_n, cycle)
    torus_n = torus[0] * torus[1]
    torus_d = ref.graph_distances(torus_n, grid)
    return [
        Op("lines group", ("lines", path["group"]), check_family(group_n, group_lines)),
        Op("triples group", ("triples", path["group"]), check_triples(group_n, group_triples)),
        Op(
            "check onetwo_lower group",
            ("check", "onetwo_lower", path["group"]),
            check_bound("onetwo_lower", {"n": group_n}, len(group_lines)),
        ),
        Op(
            "hyperlines group",
            ("hyperlines", path["group_triples"]),
            check_family(group_n, group_lines),
        ),
        Op("lines rational", ("lines", path["generic"]), check_family(generic_n, generic_lines)),
        Op(
            "check range rational",
            ("check", "range", path["generic"]),
            check_bound(
                "range", {"n": generic_n, "rho": max(pairs) / min(pairs)}, len(generic_lines)
            ),
        ),
        Op(
            "check diam cycle",
            ("check", "diam", path["cycle"]),
            check_bound(
                "diam", {"t": max(map(max, cycle_d))}, len(ref.line_sets(cycle_d))
            ),
        ),
        Op(
            "check graphs_corollary torus",
            ("check", "graphs_corollary", path["torus"]),
            check_bound("graphs_corollary", {"n": torus_n}, len(ref.line_sets(torus_d))),
        ),
    ]


# metrizable -----------------------------------------------------------------


def random_system(rng: random.Random, n: int, counts) -> set[tuple[int, int, int]]:
    """Betweenness triples of a random integer metric, drawn until their
    number is in counts."""
    while True:
        w = [[0] * n for _ in range(n)]
        for i, j in combinations(range(n), 2):
            w[i][j] = w[j][i] = rng.randint(1, 6)
        triples = ref.betweenness_triples(ref.shortest_path_closure(w))
        if len(triples) in counts:
            return triples


def check_fano(doc: dict) -> None:
    require(doc["metrizable"] is False, "Fano reported metrizable")
    require(doc["assignments_tried"] == 3 ** len(FANO), "assignments tried")
    require(doc["witness"] is None, "witness for an infeasible system")


def check_metrizable(n: int, triples: set[tuple[int, int, int]]):
    def check(doc: dict) -> None:
        require(doc["metrizable"] is True, "system reported infeasible")
        require(1 <= doc["assignments_tried"] <= 3 ** len(triples), "assignments tried")
        d = ref.parse_metric(doc["witness"])
        require(len(d) == n and ref.is_metric(d), "witness is not a metric")
        require(ref.betweenness_triples(d) == triples, "witness triples differ")

    return check


def build_metrizable(seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(seed)
    fano = workdir / "fano.txt"
    fano.write_text(ref.edges_text(7, FANO))
    ops = [Op("metrizable fano", ("metrizable", str(fano)), check_fano)]
    counts = [c for number, c in SYSTEMS for _ in range(number)]
    for i, allowed in enumerate(counts):
        triples = random_system(rng, SYSTEM_POINTS, allowed)
        path = workdir / f"system_{i:02d}.txt"
        path.write_text(ref.edges_text(SYSTEM_POINTS, triples))
        ops.append(
            Op(f"metrizable system {i}", ("metrizable", str(path)), check_metrizable(SYSTEM_POINTS, triples))
        )
    return ops


def build_search(seed: int, workdir: Path) -> list[Op]:
    return build_enumerate(seed, workdir) + build_metrizable(seed, workdir)


BUILDERS = {
    "search": build_search,
    "lines": build_lines,
}
