"""Exception types shared across the package, the point-index checks, and
Record, the base of the package's value and result classes.

Everything raised on purpose derives from MetricLinesError, so callers can
catch one base class.  Validation errors carry the offending indices as
attributes and in a predictable order (the order in which the checks scan
the input), which the tests rely on.
"""

from __future__ import annotations


class Record:
    """A value whose fields are its class annotations, in declaration order.

    Records of one class are equal when their fields are; a record never
    equals an object of another class, a tuple included.  The repr lists
    the fields in order, and the hash is that of their tuple, with a dict
    field as the frozenset of its items.  Nothing assigns to a record's
    fields after construction.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        if not kwargs and len(args) == len(self._fields):
            self.__dict__.update(zip(self._fields, args))
            return
        values = dict(zip(self._fields, args), **kwargs)
        # a surplus positional is dropped by zip, a repeated field merged
        if len(values) != len(args) + len(kwargs) or values.keys() != set(self._fields):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(self._fields)}")
        self.__dict__.update(values)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        # a dict field (ScanReport.minima, BoundReport.params) hashes as its items
        values = self._values()
        return hash(tuple([frozenset(v.items()) if isinstance(v, dict) else v for v in values]))

    def __repr__(self):
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__name__}({body})"


class MetricLinesError(Exception):
    pass


class AsymmetryError(MetricLinesError):
    """dist[i][j] != dist[j][i] for the first such pair (i < j)."""

    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] != dist[{j}][{i}]")


class NonzeroDiagonal(MetricLinesError):
    def __init__(self, i: int):
        self.i = i
        super().__init__(f"dist[{i}][{i}] is not zero")


class NonpositiveDistance(MetricLinesError):
    def __init__(self, i: int, j: int):
        self.i, self.j = i, j
        super().__init__(f"dist[{i}][{j}] must be positive")


class TriangleViolation(MetricLinesError):
    """d(i,j) > d(i,k) + d(k,j) for the first violating (i, j, k).

    Pairs (i, j) with i < j are scanned lexicographically, then k ascending.
    """

    def __init__(self, i: int, j: int, k: int):
        self.i, self.j, self.k = i, j, k
        super().__init__(f"d({i},{j}) > d({i},{k}) + d({k},{j})")


class IndexOutOfRange(MetricLinesError):
    def __init__(self, index: int, n: int):
        self.index, self.n = index, n
        super().__init__(f"point {index} out of range for {n} points")


class DegeneratePair(MetricLinesError):
    def __init__(self, u: int):
        self.u = u
        super().__init__(f"pair ({u},{u}) is degenerate; two distinct points required")


class TooFewPoints(MetricLinesError):
    def __init__(self, n: int, need: int):
        self.n, self.need = n, need
        super().__init__(f"need at least {need} points, got {n}")


class DisconnectedGraph(MetricLinesError):
    def __init__(self, u: int, v: int):
        self.u, self.v = u, v
        super().__init__(f"no path between {u} and {v}")


class BadParams(MetricLinesError):
    pass


class PreconditionUnmet(MetricLinesError):
    pass


class SizeCap(MetricLinesError):
    pass


class TooManyAssignments(MetricLinesError):
    def __init__(self, m: int, cap: int):
        self.m, self.cap = m, cap
        super().__init__(f"{m} triples means 3**{m} assignments, over the cap of {cap}")


class SolverFailure(MetricLinesError):
    pass


class ParseError(MetricLinesError):
    """Malformed input file.  line and column are 1-based."""

    def __init__(self, source: str, line: int, column: int, message: str):
        self.source, self.line, self.column = source, line, column
        self.message = message
        super().__init__(f"{source}:{line}:{column}: {message}")


def check_points(n: int, *points: int) -> None:
    """Raise IndexOutOfRange for the first of points outside 0..n-1."""
    for p in points:
        if not 0 <= p < n:
            raise IndexOutOfRange(p, n)


def check_pair(n: int, u: int, v: int) -> None:
    """check_points(n, u, v), then DegeneratePair if u == v."""
    check_points(n, u, v)
    if u == v:
        raise DegeneratePair(u)
