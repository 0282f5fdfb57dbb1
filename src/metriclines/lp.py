"""Exact linear programming over integer data.

maximize_scaled() solves  max c.x  subject to  M.x <= b, x >= 0  for
integer c, M and b with b >= 0, so the slack basis is feasible and no
phase-1 is needed.  That restricted form, with denominators already
cleared, is all the feasibility reductions here generate.

The solver keeps the simplex dictionary as an integer matrix with one
shared denominator and pivots fraction-free (the two-term Bareiss update),
which avoids Fraction overhead in the hot loop.  Entering columns follow
Dantzig's rule until the iteration stalls on degenerate pivots, then switch
to Bland's rule, which cannot cycle.  Everything is exact; the optimal
value and point are reported as Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import Record, SolverFailure

_STALL_LIMIT = 30
_MAX_PIVOTS = 100_000


class SimplexSolution(Record):
    value: Fraction
    x: tuple[Fraction, ...]


def maximize_scaled(
    obj_ints: Sequence[int],
    M: list[list[int]],
    b: list[int],
) -> SimplexSolution:
    """Maximize obj_ints.x subject to M.x <= b, x >= 0, where b >= 0.

    M and b are consumed (mutated in place).  Raises SolverFailure on a
    negative rhs, an unbounded objective or more than _MAX_PIVOTS pivots.
    """
    nvars = len(obj_ints)
    m = len(M)
    if any(r < 0 for r in b):
        raise SolverFailure("negative rhs; slack basis would be infeasible")

    # dictionary: basic[i] = (b[i] - sum_j M[i][j] * y_j) / den
    # objective row stores z = (zb - sum_j zrow[j] * y_j) / den
    zrow = [-v for v in obj_ints]
    zb = 0
    den = 1

    nonbasic = list(range(nvars))          # column labels
    basic = [nvars + i for i in range(m)]  # row labels (slacks)

    stall = 0
    pivots = 0
    while True:
        if pivots > _MAX_PIVOTS:
            raise SolverFailure("pivot limit exceeded")
        use_bland = stall >= _STALL_LIMIT
        col = -1
        if use_bland:
            lab = None
            for j in range(nvars):
                if zrow[j] < 0 and (lab is None or nonbasic[j] < lab):
                    lab, col = nonbasic[j], j
        else:
            best = 0
            for j in range(nvars):
                if zrow[j] < best:
                    best, col = zrow[j], j
        if col < 0:
            break  # optimal

        # ratio test: min b[i]/M[i][col] over positive entries, exact
        row = -1
        rb = rc = 0
        for i in range(m):
            a = M[i][col]
            if a <= 0:
                continue
            bi = b[i]
            if row < 0 or bi * rc < rb * a or (
                bi * rc == rb * a
                and (use_bland and basic[i] < basic[row])
            ):
                row, rb, rc = i, bi, a
        if row < 0:
            raise SolverFailure("objective unbounded")

        p = M[row][col]
        degenerate = b[row] == 0
        mrow = M[row]
        br = b[row]
        same_den = p == den
        for i in range(m):
            if i == row:
                continue
            ai = M[i]
            f = ai[col]
            if f:
                ai[:] = [(x * p - f * y) // den for x, y in zip(ai, mrow)]
                ai[col] = -f
                b[i] = (b[i] * p - f * br) // den
            elif not same_den:
                ai[:] = [x * p // den for x in ai]
                b[i] = b[i] * p // den
        f = zrow[col]  # negative, as col was chosen, so never 0
        zrow = [(x * p - f * y) // den for x, y in zip(zrow, mrow)]
        zrow[col] = -f
        zb = (zb * p - f * br) // den
        mrow[col] = den
        basic[row], nonbasic[col] = nonbasic[col], basic[row]
        den = p
        pivots += 1
        stall = stall + 1 if degenerate else 0

    xs = [Fraction(0)] * nvars
    for i in range(m):
        if basic[i] < nvars:
            xs[basic[i]] = Fraction(b[i], den)
    return SimplexSolution(Fraction(zb, den), tuple(xs))
