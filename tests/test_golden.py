"""Golden outputs: the CLI's canonical JSON and TSV on a small fixed corpus.

Each case runs one verb under ``--format json`` or ``--format tsv``, on an
input file from ``tests/golden/inputs`` or, for ``search``, ``scan`` and
``construct``, on no input at all, and compares stdout byte for byte with
``tests/golden/<case>.<format>``.  ``construct`` writes its instance file
to stdout whatever the format, so its goldens hold that file's text.  A
case that exits nonzero also compares stderr with
``tests/golden/<case>.stderr``; the parse-error cases pin the line and
column that a malformed input file reports.  The files were written once
and are not regenerated by the tests, so any change in a line family, a
triple list, a bound report, a metrizability verdict, a constructed
instance, a parse error or the canonical witness and order of an
exhaustive search shows up here.

To rewrite the files after a deliberate output change, run
``PYTHONPATH=src python tests/test_golden.py --write``.
"""

from __future__ import annotations

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from metriclines.cli import main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# disguised_onetwo is a 1-2 group space whose equal distances are spelled
# 1, +1, 2/2 and 2, 4/2
METRICS = (
    "pentagon",
    "groups_3_3",
    "rational12",
    "path6_metric",
    "cycle7_metric",
    "wide9_metric",
    "disguised_onetwo",
)
GRAPHS = ("path6", "cycle7", "cycle131")
SYSTEMS = ("triples3",)
# Fano is not metrizable; triples6, triples8 and seven10 find their first
# feasible branch at 134, 758 and 500, so their witnesses pin the
# elimination's output.  seven10 is the betweenness system of a 7-point
# integer metric: its 25 non-edge triples give 75 strict rows
METRIZABLE = (*SYSTEMS, "fano", "triples6", "triples8", "seven10")
# all 1,140 triples on 20 points, one of them replaced by a bad line
LATE_ERRORS = (
    "late_duplicate",
    "late_unsorted",
    "late_out_of_range",
    "late_four_tokens",
    "late_non_integer",
)

# (case name, output format, argv after --format, input file or None,
# expected exit code)
CASES = (
    *((f"lines-{m}", "json", ["lines"], m, 0) for m in METRICS),
    *((f"triples-{m}", "json", ["triples"], m, 0) for m in METRICS),
    *((f"range-{m}", "json", ["check", "range"], m, 0) for m in METRICS),
    ("onetwo_lower-pentagon", "json", ["check", "onetwo_lower"], "pentagon", 0),
    ("onetwo_lower-groups_3_3", "json", ["check", "onetwo_lower"], "groups_3_3", 0),
    ("onetwo_lower-rational12", "json", ["check", "onetwo_lower"], "rational12", 3),
    ("onetwo_lower-cycle7_metric", "json", ["check", "onetwo_lower"], "cycle7_metric", 3),
    ("onetwo_lower-disguised_onetwo", "json", ["check", "onetwo_lower"], "disguised_onetwo", 0),
    *((f"diam-{g}", "json", ["check", "diam"], g, 3 if g == "path6" else 0) for g in GRAPHS),
    *(
        (f"graphs_corollary-{g}", "json", ["check", "graphs_corollary"], g, 3 if g == "path6" else 0)
        for g in GRAPHS
    ),
    *((f"hyperlines-{s}", "json", ["hyperlines"], s, 0) for s in SYSTEMS),
    *((f"metrizable-{s}", "json", ["metrizable"], s, 0) for s in METRIZABLE),
    ("scan-7", "json", ["scan", "7"], None, 0),
    ("search-hypergraphs-5", "json", ["search", "hypergraphs", "5"], None, 0),
    ("search-one_two-6", "json", ["search", "one_two", "6"], None, 0),
    ("search-graph_metrics-6", "json", ["search", "graph_metrics", "6"], None, 0),
    ("construct-pentagon", "json", ["construct", "pentagon"], None, 0),
    ("construct-groups_3_3", "json", ["construct", "groups", "3", "3"], None, 0),
    ("construct-groups_balanced_12", "json", ["construct", "groups_balanced", "12"], None, 0),
    ("construct-path_5", "json", ["construct", "path", "5"], None, 0),
    ("construct-uniform_4_3_2", "json", ["construct", "uniform", "4", "3/2"], None, 0),
    ("construct-complete_4", "json", ["construct", "complete", "4"], None, 0),
    ("lines-pentagon", "tsv", ["lines"], "pentagon", 0),
    ("lines-groups_3_3", "tsv", ["lines"], "groups_3_3", 0),
    ("hyperlines-triples3", "tsv", ["hyperlines"], "triples3", 0),
    # a vertex token int() would read as 10, and a row one value short
    # followed by a trailing blank: the column lies just past its last value
    ("parse-vertex_token", "json", ["hyperlines"], "bad_vertex_token", 3),
    ("parse-short_row", "json", ["lines"], "short_row", 3),
    # integer and fraction tokens, with d(1,2) = 2 > d(1,3) + d(3,2) = 3/2
    ("validate-triangle_mixed", "json", ["lines"], "triangle_mixed", 3),
    # CRLF line ends, leading and interior blank lines, tabs, +3 and an
    # unreduced 2/4
    ("lines-crlf_metric", "json", ["lines"], "crlf_metric", 0),
    ("triples-crlf_metric", "json", ["triples"], "crlf_metric", 0),
    ("hyperlines-crlf_triples", "json", ["hyperlines"], "crlf_triples", 0),
    # one bad line at line 1103 of a 1,142-line triple file, and the two
    # malformed rationals of a table
    *((f"parse-{name}", "json", ["hyperlines"], name, 3) for name in LATE_ERRORS),
    ("parse-zero_denominator", "json", ["lines"], "zero_denominator", 3),
    ("parse-double_slash", "json", ["lines"], "double_slash", 3),
)


def run_case(fmt, argv, name):
    """Exit code, stdout and stderr of one CLI call, on an input file if named."""
    path = [] if name is None else [str(INPUTS / f"{name}.txt")]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--format", fmt, *argv, *path])
    # the input path appears in error messages; keep goldens free of it
    return code, out.getvalue(), err.getvalue().replace(str(INPUTS), "<inputs>")


@pytest.mark.parametrize(
    "case,fmt,argv,name,code",
    CASES,
    ids=[case if fmt == "json" else f"{case}.{fmt}" for case, fmt, *_ in CASES],
)
def test_golden_output(case, fmt, argv, name, code):
    got_code, out, err = run_case(fmt, argv, name)
    assert got_code == code
    assert out == (GOLDEN / f"{case}.{fmt}").read_text(encoding="utf-8")
    stderr_file = GOLDEN / f"{case}.stderr"
    if code:
        assert err == stderr_file.read_text(encoding="utf-8")
    else:
        assert err == "" and not stderr_file.exists()


def _write_all() -> None:
    """Rewrite every golden file from the current program."""
    for case, fmt, argv, name, _ in CASES:
        code, out, err = run_case(fmt, argv, name)
        (GOLDEN / f"{case}.{fmt}").write_text(out, encoding="utf-8")
        stderr_file = GOLDEN / f"{case}.stderr"
        if code:
            stderr_file.write_text(err, encoding="utf-8")
        elif stderr_file.exists():
            stderr_file.unlink()
        print(f"{case}.{fmt}: exit {code}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    _write_all()
