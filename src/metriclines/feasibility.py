"""Deciding whether a triple system is the betweenness relation of a metric.

Each edge {a,b,c} asserts that one of its vertices sits metrically between
the other two, so a candidate metric must satisfy one of three equalities
per edge.  Enumerating a middle per edge leaves, per assignment, a linear
feasibility problem over the pair distances: the chosen equalities, all
three strict triangle inequalities on every non-edge triple, strict
positivity, and an upper cap that removes scale freedom.  Strictness is
bought with a shared margin variable that gets maximized; the assignment
is feasible exactly when the optimal margin is positive.

Branches are scanned serially, in the base-3 counter order over the sorted
edge list: edge k is digit k (edge 0 the least significant), and digit d
puts the d-th smallest vertex of the edge in the middle.  The first
feasible branch supplies the witness.

An automorphism of the triple system maps each branch to a branch whose
problem is the same up to relabelling the points, so both have the same
optimal margin.  The scan reaches a branch only once every smaller branch
is infeasible, so it skips a branch that some automorphism found maps to
a smaller one: that image is infeasible, and so is the branch.  Nothing is
remembered between branches.  A skipped branch is infeasible, so the first
feasible branch is always decided, and the verdict, assignments_tried,
witness and best_margin are those of a scan that decides every branch.
The argument holds for any set of automorphisms, so the search for them
stops after _AUTOMORPHISM_CAP; with the whole group, exactly the least
branch of each orbit is decided.

A branch that is not skipped is decided exactly.  It is eliminated down to
its free coordinates by fraction-free Gauss-Jordan elimination, which
writes every pair distance as an integer combination of the free ones
over one common denominator, and is handed to the integer-pivoting solver.
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


class FeasibilityResult(Record):
    metrizable: bool
    witness: MetricSpace | None
    assignments_tried: int
    best_margin: Fraction


class _Problem(Record):
    n: int
    cap: Fraction
    edges: tuple[tuple[int, int, int], ...]


def _pairs(n: int) -> tuple[list[tuple[int, int]], dict[tuple[int, int], int]]:
    ps = list(combinations(range(n), 2))
    return ps, {p: i for i, p in enumerate(ps)}


def _edge_options(
    prob: _Problem, pidx: dict[tuple[int, int], int]
) -> list[tuple[tuple[int, int, int], ...]]:
    """Per edge, per digit: pair indices (inner1, inner2, outer) for the middle choice."""
    opts = []
    for a, b, c in prob.edges:
        per_digit = []
        for mid in (a, b, c):
            p, q = sorted({a, b, c} - {mid})
            i1 = pidx[tuple(sorted((p, mid)))]
            i2 = pidx[tuple(sorted((mid, q)))]
            out = pidx[(p, q)]
            per_digit.append((i1, i2, out))
        opts.append(tuple(per_digit))
    return opts


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


def _decide_branch(
    prob: _Problem,
    opts: list[tuple[tuple[int, int, int], ...]],
    pairs: list[tuple[int, int]],
    pidx: dict[tuple[int, int], int],
    nonedge: list[tuple[int, int, int]],
    digits: list[int],
) -> tuple[Fraction, list[Fraction] | None]:
    """Optimal margin of one middle assignment, plus distances when positive."""
    zero = Fraction(0)
    npairs = len(pairs)
    eq_rows = []
    for per_digit, d in zip(opts, digits):
        i1, i2, out = per_digit[d]
        row = [0] * npairs
        row[i1] += 1
        row[i2] += 1
        row[out] -= 1
        eq_rows.append(row)
    free, exprs, scale = _eliminate(npairs, eq_rows)
    k = len(free)

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

    def margin_row(expr: list[int], s: int) -> bool:
        """Require expr + s*margin >= margin.  False when that sinks the branch."""
        ecoef = scale - s
        if not any(expr):
            return ecoef <= 0  # constant slack: either trivial or margin <= 0
        if ecoef <= 0 and all(v >= 0 for v in expr):
            return True  # nonnegative left side, nothing to enforce
        add([-v for v in expr] + [ecoef], 0)
        return True

    for p in range(npairs):
        if not margin_row(exprs[p], sums[p]):
            return zero, None
    for a3, b3, c3 in nonedge:
        lo = pidx[(a3, b3)]
        hi = pidx[(b3, c3)]
        far = pidx[(a3, c3)]
        for i1, i2, i3 in ((lo, hi, far), (lo, far, hi), (far, hi, lo)):
            e1, e2, e3 = exprs[i1], exprs[i2], exprs[i3]
            expr = [x + y - w for x, y, w in zip(e1, e2, e3)]
            if not margin_row(expr, sums[i1] + sums[i2] - sums[i3]):
                return zero, None
    cp, cq = prob.cap.numerator, prob.cap.denominator
    for p in range(npairs):
        expr = exprs[p]
        s = sums[p]
        if s <= 0 and not any(v > 0 for v in expr):
            continue  # cannot exceed the cap
        add([cq * v for v in expr] + [cq * s], cp * scale)

    objective = [0] * k + [1]
    sol = maximize_scaled(objective, M, b)
    if sol.value <= 0:
        return sol.value, None
    eps = sol.value
    zfree = sol.x[:k]
    dists = [
        Fraction(
            sum(c * zfree[j] for j, c in enumerate(exprs[p]) if c) + sums[p] * eps,
            scale,
        )
        for p in range(npairs)
    ]
    return sol.value, dists


def _automorphisms(edges: tuple[tuple[int, int, int], ...]) -> list[dict[int, int]]:
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
    edges: tuple[tuple[int, int, int], ...], autos: list[dict[int, int]]
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
    tables: list[list[tuple[int, int, tuple[int, ...]]]], digits: list[int]
) -> bool:
    """Does some automorphism map the branch with these digits below itself?"""
    for rows in tables:
        for j, k, tau in rows:
            d = tau[digits[k]]
            if d != digits[j]:
                if d < digits[j]:
                    return True
                break
    return False


def _scan(
    prob: _Problem, autos: list[dict[int, int]]
) -> tuple[int | None, Fraction, list[Fraction] | None, int]:
    """Decide branches in counter order, skipping those with a smaller image.

    Returns the first feasible branch, its margin (the best margin: every
    other branch has margin 0), its distances and the number of branches
    decided; with no feasible branch, None, 0 and None.  With autos holding
    only the identity, every branch up to the first feasible one is decided.
    """
    pairs, pidx = _pairs(prob.n)
    opts = _edge_options(prob, pidx)
    eset = set(prob.edges)
    nonedge = [t for t in combinations(range(prob.n), 3) if t not in eset]
    tables = _digit_tables(prob.edges, autos)
    m = len(prob.edges)
    digits = [0] * (m + 1)  # a sentinel digit ends the carry at 3**m
    decided = 0
    for a in range(3**m):
        if not _has_smaller_image(tables, digits):
            decided += 1
            margin, dists = _decide_branch(prob, opts, pairs, pidx, nonedge, digits)
            if dists is not None:
                return a, margin, dists, decided
        k = 0
        while digits[k] == 2:
            digits[k] = 0
            k += 1
        digits[k] += 1
    return None, Fraction(0), None, decided


def _witness_from(prob: _Problem, dists: list[Fraction]) -> MetricSpace:
    pairs, _ = _pairs(prob.n)
    table = [[Fraction(0)] * prob.n for _ in range(prob.n)]
    for (i, j), d in zip(pairs, dists):
        table[i][j] = table[j][i] = d
    space = validate_metric(table)
    if betweenness_triples(space).edges != frozenset(prob.edges):
        raise SolverFailure("witness failed the betweenness round trip")
    return space


def metrizable(
    T: TripleSystem,
    normalization_cap: Fraction | int = 1,
    max_edges: int = DEFAULT_EDGE_CAP,
) -> FeasibilityResult:
    """Decide whether some metric space induces exactly these triples.

    Walks the per-edge middle assignments serially in base-3 counter order
    until one admits a metric.  A branch that an automorphism of T maps to
    a smaller branch is skipped, as that smaller branch was infeasible and
    so is this one; every other branch is decided by its exact LP.  The
    result is that of deciding every branch in turn: assignments_tried
    counts skipped branches, and the witness comes from the first feasible
    branch and is verified by recomputing its betweenness triples.
    Systems on more than MAX_METRIZABLE_N points raise SizeCap before the
    first LP.
    """
    if T.n < 3:
        raise TooFewPoints(T.n, 3)
    cap = Fraction(normalization_cap)
    if cap <= 0:
        raise BadParams("normalization_cap must be positive")
    if max_edges < 0:
        raise BadParams(f"max_edges must be nonnegative, got {max_edges}")
    edges = T.sorted_edges()
    if len(edges) > max_edges:
        raise TooManyAssignments(len(edges), max_edges)
    if T.n > MAX_METRIZABLE_N:
        raise SizeCap(f"metrizable is capped at n <= {MAX_METRIZABLE_N}, got {T.n}")
    prob = _Problem(T.n, cap, edges)
    first, best, dists, _ = _scan(prob, _automorphisms(edges))
    if first is None:
        return FeasibilityResult(False, None, 3 ** len(edges), best)
    return FeasibilityResult(True, _witness_from(prob, dists), first + 1, best)
