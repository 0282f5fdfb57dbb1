"""Deciding whether a triple system is the betweenness relation of a metric.

Each edge {a,b,c} asserts that one of its vertices sits metrically between
the other two, so a candidate metric must satisfy one of three equalities
per edge.  Enumerating a middle per edge leaves, per assignment, a linear
feasibility problem over the pair distances: the chosen equalities, all
three strict triangle inequalities on every non-edge triple, strict
positivity, and every distance at most 1.  Strictness is bought with a
shared margin variable that gets maximized; the assignment is feasible
exactly when the optimal margin is positive.  Without the bound the rows
are homogeneous, so it fixes only the scale of the witness and the margin.

Every triple has three rows, one per middle vertex, built once per system.
A branch gives edge k of the sorted edge list a digit d, which picks the
row of the edge's d-th smallest vertex as its equality, and its counter
index is the base-3 number with edge 0 the least significant digit.  The
branches are searched depth first: edge m-1 first, each edge's digits 0, 1
and 2 in turn, so the leaves arrive in counter order and the first
feasible leaf supplies the witness.  All branches share the non-edges'
strict rows, so a leaf is handed to the LP as its equality rows alone.

An automorphism of the triple system maps each branch to a branch whose
problem is the same up to relabelling the points, so both have the same
optimal margin.  The search reaches a leaf only once every smaller leaf is
infeasible, so it skips a leaf that some automorphism found maps to a
smaller one: that image is infeasible, and so is the leaf.  The prefix
orbit test cuts a whole subtree when the digits it fixes already map below
themselves, as then every leaf under it has a smaller image.  The sink cut
drops a subtree whose equalities force a pair, or the slack of a
non-edge's strict row, to zero: every leaf under it has margin 0 before
its LP.  Nothing is remembered between nodes.  A cut leaf is infeasible,
so the first feasible leaf is always decided, and the verdict,
assignments_tried, witness, best_margin and LPs solved are those of a
counter scan that skips by orbit alone, where a sunk leaf gets no LP
either.  The orbit argument holds for any set of automorphisms, so the
search for them stops after _AUTOMORPHISM_CAP; with the whole group,
exactly the least branch of each orbit is decided.

A leaf that is not cut is decided exactly.  It is eliminated down to its
free coordinates by fraction-free Gauss-Jordan elimination, which writes
every pair distance as an integer combination of the free ones over one
common denominator, and is handed to the integer-pivoting solver.  Only
best_margin is a Fraction: the witness is built from integers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

from .errors import BadParams, Record, SizeCap, SolverFailure, TooFewPoints, TooManyAssignments
from .fileio import DEFAULT_EDGE_CAP
from .lp import maximize_scaled
from .metric import MetricSpace, validate_metric
from .triples import TripleSystem, betweenness_triples

# most points decided: one LP on disjoint triples took 0.4 s at n = 10,
# 1.3 s at n = 12 and over 120 s at n = 36
MAX_METRIZABLE_N = 10
# automorphisms kept per system: each branch is compared with its image
# under every one, and a smaller set only skips fewer branches
_AUTOMORPHISM_CAP = 1024
# three points a < b < c, or a row (i1, i2, i3) of pair indices
_Triple = tuple[int, int, int]


class FeasibilityResult(Record):
    metrizable: bool
    witness: MetricSpace | None
    assignments_tried: int
    best_margin: Fraction


def _triangles(n: int) -> dict[_Triple, tuple[_Triple, _Triple, _Triple]]:
    """Per triple a < b < c, its rows with middle a, b and c, in that order.

    A row (i1, i2, i3) of pair indices reads d_i1 + d_i2 = d_i3 on an edge
    and d_i1 + d_i2 > d_i3 on a non-edge: with pairs ab, ac and bc, middle a
    is (ab, ac, bc), middle b is (ab, bc, ac) and middle c is (ac, bc, ab).
    """
    index = {p: i for i, p in enumerate(combinations(range(n), 2))}
    table = {}
    for a, b, c in combinations(range(n), 3):
        ab, ac, bc = index[a, b], index[a, c], index[b, c]
        table[a, b, c] = ((ab, ac, bc), (ab, bc, ac), (ac, bc, ab))
    return table


def _eliminate(
    npairs: int, eq_rows: list[list[int]]
) -> tuple[list[int], list[list[int]], int]:
    """Reduce the homogeneous equalities, expressing every pair over free pairs.

    Gauss-Jordan elimination over the integers: a row is reduced by a pivot
    row as row*pc - f*prow, where pc is the pivot row's pivot entry, which
    is kept positive, and every new or updated row is divided by the gcd of
    its entries.  Only positive factors are ever applied, so each row is a
    positive multiple of the row that exact rational elimination would
    hold: the signs, the pivot columns and the reduced row echelon form are
    the same.  The pivot of a row is its last negative entry, else its
    first nonzero one, so outer-pair columns are preferred and expressions
    tend to stay nonnegative combinations.

    Returns the free pair indices, each pair's integer coefficients over
    the free pairs and their common denominator scale: pair p equals
    exprs[p] . x_free / scale.  A reduced row has gcd 1 and is zero on the
    other pivot columns, so its rational coefficients have denominators
    dividing its pivot entry, with the pivot entry their lcm; scale is the
    lcm of the pivot entries, the least denominator clearing every row.
    """
    pivots: dict[int, list[int]] = {}
    for row in eq_rows:
        for col, prow in pivots.items():
            f = row[col]
            if f:
                pc = prow[col]
                row = [v * pc - f * w for v, w in zip(row, prow)]
        col = -1
        for j in range(npairs - 1, -1, -1):
            if row[j] < 0:
                col = j
                break
        if col < 0:
            for j in range(npairs):
                if row[j]:
                    col = j
                    break
        if col < 0:
            continue  # redundant equality
        g = gcd(*row)
        if row[col] < 0:
            g = -g
        row = [v // g for v in row]
        pc = row[col]
        for other_col, other in pivots.items():
            f = other[col]
            if f:
                other = [v * pc - f * w for v, w in zip(other, row)]
                g = gcd(*other)
                pivots[other_col] = [v // g for v in other]
        pivots[col] = row
    free = [j for j in range(npairs) if j not in pivots]
    scale = lcm(*(prow[col] for col, prow in pivots.items()))
    exprs: list[list[int]] = []
    for p in range(npairs):
        prow = pivots.get(p)
        if prow is None:
            exprs.append([scale if j == p else 0 for j in free])
        else:
            k = scale // prow[p]
            exprs.append([-k * prow[j] for j in free])
    return free, exprs, scale


def _reduce(
    npairs: int, triangles: list[_Triple], equalities: list[_Triple]
) -> tuple[list[list[int]], list[list[int]], int] | None:
    """The pairs and the strict rows' slacks over the free pairs; None when one is zero.

    equalities holds rows d_i1 + d_i2 = d_i3 and triangles the strict rows
    d_i1 + d_i2 > d_i3, both over the pairs of combinations(range(n), 2).
    Pair p is exprs[p] . x / scale and row r has slack slacks[r] . x / scale
    over the free pairs x.  A pair or a slack that is identically zero holds
    the margin at 0, and stays zero under any further equalities, so None
    sinks every branch whose equalities include these.
    """
    eq_rows = []
    for i1, i2, i3 in equalities:
        row = [0] * npairs
        row[i1] = row[i2] = 1
        row[i3] = -1
        eq_rows.append(row)
    _, exprs, scale = _eliminate(npairs, eq_rows)
    slacks = [
        [x + y - w for x, y, w in zip(exprs[i1], exprs[i2], exprs[i3])]
        for i1, i2, i3 in triangles
    ]
    if all(map(any, exprs)) and all(map(any, slacks)):
        return exprs, slacks, scale
    return None


def _decide_branch(
    npairs: int, triangles: list[_Triple], equalities: list[_Triple]
) -> tuple[int, list[int], int] | None:
    """Margin and distances at one branch's optimum, as numerators over the
    denominator that follows; None when the margin is not positive.

    equalities holds the branch's rows d_i1 + d_i2 = d_i3, one per edge it
    fixes, and triangles the strict rows d_i1 + d_i2 > d_i3 of every
    non-edge triple; a branch that _reduce sinks gets no LP.
    """
    reduced = _reduce(npairs, triangles, equalities)
    if reduced is None:
        return None
    exprs, slacks, scale = reduced
    k = len(exprs[0])

    # substitute z_f = x_f - margin:  x_p = sum_f C_pf z_f + S_p * margin
    # with S_p = sum_f C_pf, so z >= 0 absorbs the free positivity rows
    sums = [sum(vec) for vec in exprs]

    M: list[list[int]] = []
    b: list[int] = []
    seen: set[tuple[int, ...]] = set()

    def add(vec: list[int], rhs: int) -> None:
        key = (*vec, rhs)
        if key not in seen:
            seen.add(key)
            M.append(vec)
            b.append(rhs)

    # require expr + sum(expr)*margin >= margin of every pair and slack
    for expr in (*exprs, *slacks):
        ecoef = scale - sum(expr)
        if ecoef > 0 or any(v < 0 for v in expr):
            add([-v for v in expr] + [ecoef], 0)
    # and every distance at most 1: expr + S*margin <= scale
    for expr, s in zip(exprs, sums):
        if s <= 0 and not any(v > 0 for v in expr):
            continue  # cannot exceed 1
        add(expr + [s], scale)

    objective = [0] * k + [1]
    sol = maximize_scaled(objective, M, b)
    eps = sol.value
    if eps <= 0:
        return None
    dists = [sum(c * z for c, z in zip(expr, sol.x) if c) + s * eps for expr, s in zip(exprs, sums)]
    return eps * scale, dists, sol.den * scale


def _automorphisms(edges: tuple[_Triple, ...]) -> list[dict[int, int]]:
    """Up to _AUTOMORPHISM_CAP automorphisms of the edge set, the identity first.

    Each maps the points that lie on some edge; the others move no branch.
    Points are matched in breadth-first order over shared edges, so an edge
    is checked as soon as its points are mapped.  An image must have the
    same degree, send every edge it closes onto an edge, and close as many.
    """
    eset = set(edges)
    link: dict[int, list[tuple[int, int]]] = {}
    for e in edges:
        for i, p in enumerate(e):
            link.setdefault(p, []).append(e[:i] + e[i + 1 :])
    order: list[int] = []
    placed: set[int] = set()
    for start in sorted(link):
        if start in placed:
            continue
        placed.add(start)
        head = len(order)
        order.append(start)
        while head < len(order):
            for pair in link[order[head]]:
                for r in pair:
                    if r not in placed:
                        placed.add(r)
                        order.append(r)
            head += 1

    img: dict[int, int] = {}
    used: set[int] = set()
    found: list[dict[int, int]] = []

    def fits(p: int, q: int) -> bool:
        if len(link[p]) != len(link[q]):
            return False
        closed = 0
        for r, s in link[p]:
            if r in img and s in img:
                if tuple(sorted((q, img[r], img[s]))) not in eset:
                    return False
                closed += 1
        return closed == sum(1 for r, s in link[q] if r in used and s in used)

    def extend(depth: int) -> bool:
        """Map order[depth:]; True once enough automorphisms are found."""
        if depth == len(order):
            found.append(dict(img))
            return len(found) >= _AUTOMORPHISM_CAP
        p = order[depth]
        for q in order:
            if q not in used and fits(p, q):
                img[p] = q
                used.add(q)
                done = extend(depth + 1)
                del img[p]
                used.discard(q)
                if done:
                    return True
        return False

    extend(0)
    return found


def _digit_tables(
    edges: tuple[_Triple, ...], autos: list[dict[int, int]]
) -> list[list[tuple[int, int, tuple[int, ...]]]]:
    """Per automorphism, how it rewrites the digits of a branch.

    Row (j, k, tau) says that edge k goes onto edge j, so digit j of the
    image branch is tau[d_k]; the rows run from the most significant edge.
    """
    index = {e: k for k, e in enumerate(edges)}
    tables = []
    for sigma in autos:
        rows = []
        for k, e in enumerate(edges):
            image = tuple(sorted(sigma[p] for p in e))
            rows.append((index[image], k, tuple(image.index(sigma[mid]) for mid in e)))
        tables.append(sorted(rows, reverse=True))
    return tables


def _has_smaller_image(
    tables: list[list[tuple[int, int, tuple[int, ...]]]], digits: list[int], lo: int
) -> bool:
    """Does some automorphism map every branch with these digits lo.. below itself?

    Each walk runs from the most significant digit and stops, undecided, at
    the first row whose digit j or source digit k is below lo, as branches
    that share digits lo.. may differ there.  With lo = 0 this asks it of
    the one branch the digits spell.
    """
    for rows in tables:
        for j, k, tau in rows:
            if j < lo or k < lo:
                break
            d = tau[digits[k]]
            if d != digits[j]:
                if d < digits[j]:
                    return True
                break
    return False


def _search(
    n: int, edges: tuple[_Triple, ...], autos: list[dict[int, int]]
) -> tuple[int | None, int, list[int] | None, int, int]:
    """Decide the branches depth first, in counter order, until one is feasible.

    Builds the rows once.  A node fixes digits lo.. and its children give
    digit lo - 1 the values 0, 1 and 2, so the leaves arrive in counter
    order.  A node is cut when some automorphism maps its fixed digits
    below themselves, as every leaf under it has a smaller image, or when
    its equalities sink it, as every leaf under it would be sunk before its
    LP.  Each leaf left is handed the strict rows of the non-edges (middle
    b, then a, then c) and its own equality rows in edge order.  Returns the
    first feasible branch's counter index, its margin (the best margin:
    every other branch has margin 0) and distances as numerators over the
    denominator that follows, and the number of leaves decided; with no
    feasible branch, None, 0, None and 1.
    """
    table = _triangles(n)
    eset = set(edges)
    triangles = [r for t, (ma, mb, mc) in table.items() if t not in eset for r in (mb, ma, mc)]
    options = [table[e] for e in edges]
    npairs = n * (n - 1) // 2
    tables = _digit_tables(edges, autos)
    digits = [0] * len(edges)
    decided = 0

    def descend(lo: int) -> tuple[int, list[int], int] | None:
        nonlocal decided
        if _has_smaller_image(tables, digits, lo):
            return None
        equalities = [rows[d] for rows, d in zip(options[lo:], digits[lo:])]
        if lo == 0:
            decided += 1
            return _decide_branch(npairs, triangles, equalities)
        if _reduce(npairs, triangles, equalities) is None:
            return None
        for d in range(3):
            digits[lo - 1] = d
            found = descend(lo - 1)
            if found is not None:
                return found
        return None

    found = descend(len(edges))
    if found is None:
        return None, 0, None, 1, decided
    return sum(d * 3**k for k, d in enumerate(digits)), *found, decided


def _witness_from(T: TripleSystem, dists: list[int], den: int) -> MetricSpace:
    n = T.n
    table = [[0] * n for _ in range(n)]
    for (i, j), d in zip(combinations(range(n), 2), dists):
        table[i][j] = table[j][i] = d
    space = validate_metric(table, den)
    if betweenness_triples(space) != T:
        raise SolverFailure("witness failed the betweenness round trip")
    return space


def metrizable(T: TripleSystem, max_edges: int = DEFAULT_EDGE_CAP) -> FeasibilityResult:
    """Decide whether some metric space induces exactly these triples.

    Searches the per-edge middle assignments depth first, leaves in base-3
    counter order, until one admits a metric.  A subtree is cut when an
    automorphism of T maps its fixed digits below themselves, as every
    smaller branch was infeasible and so is each of its leaves, or when its
    equalities force a distance or a strict slack to zero; every other leaf
    is decided by its exact LP.  The result is that of deciding every
    branch in turn: assignments_tried is the counter index of the first
    feasible branch plus 1, or 3**edges, and the witness comes from that
    branch, has every distance at most 1, and is verified by recomputing
    its betweenness triples.  best_margin is that branch's optimal margin,
    or 0.  Systems with more than max_edges edges raise TooManyAssignments
    and systems on more than MAX_METRIZABLE_N points raise SizeCap, before
    the first LP.
    """
    if T.n < 3:
        raise TooFewPoints(T.n, 3)
    if max_edges < 0:
        raise BadParams(f"max_edges must be nonnegative, got {max_edges}")
    edges = T.sorted_edges()
    if len(edges) > max_edges:
        raise TooManyAssignments(len(edges), max_edges)
    if T.n > MAX_METRIZABLE_N:
        raise SizeCap(f"metrizable is capped at n <= {MAX_METRIZABLE_N}, got {T.n}")
    first, margin, dists, den, _ = _search(T.n, edges, _automorphisms(edges))
    best = Fraction(margin, den)
    if first is None:
        return FeasibilityResult(False, None, 3 ** len(edges), best)
    return FeasibilityResult(True, _witness_from(T, dists, den), first + 1, best)
