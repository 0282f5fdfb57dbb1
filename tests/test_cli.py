"""End-to-end tests of the command-line interface.

Most tests drive main() in process and read stdout through capsys. Two run
the CLI in a child process: one calls the entry point that pyproject.toml
declares for the ``metric-lines`` script (and the script itself, when it is
on PATH) with a metric on stdin; the other runs ``python -m metriclines.cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import metriclines
from metriclines import FeasibilityResult, cli, extremal, graph_from_edges, triples
from metriclines.cli import main
from metriclines.search import ScanReport

PENTAGON_MATRIX = (
    "5\n"
    "0 1 2 2 1\n"
    "1 0 1 2 2\n"
    "2 1 0 1 2\n"
    "2 2 1 0 1\n"
    "1 2 2 1 0\n"
)
C4_MATRIX = "4\n0 1 2 1\n1 0 1 2\n2 1 0 1\n1 2 1 0\n"
K34_TRIPLES = "4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n"
PATH_GRAPH = "4 3\n0 1\n1 2\n2 3\n"
C5_GRAPH = "5 5\n0 1\n0 4\n1 2\n2 3\n3 4\n"
# a 2-point metric whose last row holds the byte 0xFF, which is not UTF-8
NON_UTF8_METRIC = b"2\n0 1\n1 0\xff\n"


@pytest.fixture
def pentagon_file(tmp_path):
    p = tmp_path / "pentagon.txt"
    p.write_text(PENTAGON_MATRIX)
    return str(p)


def run_main(*argv):
    return main(list(argv))


class TestLinesVerb:
    def test_pentagon_tsv(self, pentagon_file, capsys):
        assert run_main("lines", pentagon_file) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "# count\t10"
        assert lines[1] == "# universal\tfalse"
        assert lines[2] == "index\tpoints"
        assert lines[3] == "0\t{0,1,2}"
        assert len(lines) == 13

    def test_pentagon_json(self, pentagon_file, capsys):
        assert run_main("--format", "json", "lines", pentagon_file) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["count"] == 10
        assert doc["universal"] is False
        assert [0, 1, 2] in doc["lines"]

    def test_json_is_byte_deterministic(self, pentagon_file, capsys):
        run_main("--format", "json", "lines", pentagon_file)
        first = capsys.readouterr().out
        run_main("--format", "json", "lines", pentagon_file)
        second = capsys.readouterr().out
        assert first == second

    def test_universal_line_reported(self, tmp_path, capsys):
        p = tmp_path / "path.txt"
        p.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        run_main("lines", str(p))
        out = capsys.readouterr().out
        assert "# universal\ttrue" in out


class TestTriplesAndHyperlines:
    def test_triples_of_path_metric(self, tmp_path, capsys):
        p = tmp_path / "path.txt"
        p.write_text("3\n0 1 2\n1 0 1\n2 1 0\n")
        assert run_main("triples", str(p)) == 0
        out = capsys.readouterr().out.splitlines()
        assert "# count\t1" in out
        assert out[-1] == "0\t{0,1,2}"

    def test_hyperlines_json(self, tmp_path, capsys):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("--format", "json", "hyperlines", str(p)) == 0
        doc = json.loads(capsys.readouterr().out)
        # every pair of the complete quadruple generates the whole set
        assert doc["count"] == 1
        assert doc["universal"] is True
        assert doc["lines"] == [[0, 1, 2, 3]]

    def test_hyperlines_of_a_huge_n_fail_fast(self, tmp_path, capsys):
        # one line declares the points and no edges: a line per pair to build
        cap = triples.MAX_HYPERLINE_N
        p = tmp_path / "huge.txt"
        p.write_text(f"{cap + 1} 0\n")
        t0 = time.perf_counter()
        assert run_main("hyperlines", str(p)) == 2
        assert time.perf_counter() - t0 < 0.5
        assert capsys.readouterr().err == (
            f"error: the hyperlines of all pairs are capped at n <= {cap}, got {cap + 1}\n"
        )

    def test_hyperline_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(triples, "MAX_HYPERLINE_N", 4)
        p = tmp_path / "four.txt"
        p.write_text("4 0\n")
        assert run_main("--format", "json", "hyperlines", str(p)) == 0
        assert json.loads(capsys.readouterr().out)["count"] == 6
        p.write_text("5 0\n")
        assert run_main("hyperlines", str(p)) == 2


class TestCheckVerb:
    def test_range_pass(self, pentagon_file, capsys):
        assert run_main("check", "range", pentagon_file) == 0
        out = capsys.readouterr().out
        assert "pass\ttrue" in out
        assert "lines_found\t10" in out
        assert "param:rho\t2" in out

    def test_onetwo_fail_exits_one(self, tmp_path, capsys):
        # the 4-cycle's only line is universal, so one line falls short of
        # the growth bound and the check reports a failure
        p = tmp_path / "c4.txt"
        p.write_text(C4_MATRIX)
        assert run_main("check", "onetwo_lower", str(p)) == 1
        out = capsys.readouterr().out
        assert "pass\tfalse" in out
        assert "lines_found\t1" in out

    def test_graph_bounds_pass(self, tmp_path, capsys):
        p = tmp_path / "c5.txt"
        p.write_text(C5_GRAPH)
        assert run_main("check", "diam", str(p)) == 0
        assert run_main("check", "graphs_corollary", str(p)) == 0
        capsys.readouterr()

    def test_precondition_unmet_exits_three(self, tmp_path, capsys):
        p = tmp_path / "path_graph.txt"
        p.write_text(PATH_GRAPH)
        assert run_main("check", "diam", str(p)) == 3
        err = capsys.readouterr().err
        assert "error" in err

    def test_graph_bounds_of_a_huge_graph_fail_fast(self, tmp_path, capsys):
        # a path one vertex over the bound: C(n, 2) masks of n bits to build
        cap = extremal.MAX_GRAPH_BOUND_N
        p = tmp_path / "path.txt"
        p.write_text(f"{cap + 1} {cap}\n" + "".join(f"{i} {i + 1}\n" for i in range(cap)))
        for bound_id in ("diam", "graphs_corollary"):
            t0 = time.perf_counter()
            assert run_main("check", bound_id, str(p)) == 2
            assert time.perf_counter() - t0 < 1.0
            assert capsys.readouterr().err == (
                f"error: the {bound_id} bound is capped at n <= {cap}, got {cap + 1}\n"
            )

    def test_graph_bound_cap_admits_its_own_size(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(extremal, "MAX_GRAPH_BOUND_N", 5)
        p = tmp_path / "c5.txt"
        p.write_text(C5_GRAPH)
        assert run_main("check", "diam", str(p)) == 0
        # an isolated sixth vertex: the bound is checked before connectivity
        p.write_text(C5_GRAPH.replace("5 5", "6 5", 1))
        assert run_main("check", "diam", str(p)) == 2
        assert "capped at n <= 5, got 6" in capsys.readouterr().err

    def test_check_json(self, pentagon_file, capsys):
        assert run_main("--format", "json", "check", "range", pentagon_file) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"] is True
        assert doc["bound_id"] == "range"
        assert doc["params"] == {"n": "5", "rho": "2"}


class TestConstructVerb:
    def test_pentagon_to_stdout(self, capsys):
        assert run_main("construct", "pentagon") == 0
        out = capsys.readouterr().out
        assert out == PENTAGON_MATRIX

    def test_groups_to_file_then_lines(self, tmp_path, capsys):
        target = tmp_path / "groups.txt"
        assert run_main("construct", "groups", "3", "3", "-o", str(target)) == 0
        capsys.readouterr()
        assert run_main("lines", str(target)) == 0
        out = capsys.readouterr().out
        assert "# count\t12" in out  # 3*3 + 3 lines, none universal
        assert "# universal\tfalse" in out

    def test_path_graph_output(self, capsys):
        assert run_main("construct", "path", "3") == 0
        assert capsys.readouterr().out == PATH_GRAPH

    def test_rational_parameter(self, capsys):
        assert run_main("construct", "uniform", "3", "5/2") == 0
        out = capsys.readouterr().out
        assert "5/2" in out

    def test_arity_error_is_usage(self, capsys):
        assert run_main("construct", "groups", "3") == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "n,c,message",
        [
            ("0", "1", "need at least one point, got 0"),
            ("-2", "1", "need at least one point, got -2"),
            ("3", "0", "distance must be positive, got 0"),
            ("3", "-3", "distance must be positive, got -3"),
            ("3", "-1/2", "distance must be positive, got -1/2"),
        ],
    )
    def test_bad_uniform_params_are_usage(self, n, c, message, capsys):
        assert run_main("construct", "uniform", n, c) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["-o", "OUT", "4", "3/2"],
            ["4", "-o", "OUT", "3/2"],
            ["4", "3/2", "-o", "OUT"],
            ["--output", "OUT", "4", "3/2"],
        ],
    )
    def test_output_option_anywhere_among_params(self, argv, tmp_path, capsys):
        assert run_main("construct", "uniform", "4", "3/2") == 0
        expected = capsys.readouterr().out
        target = tmp_path / "uniform.txt"
        argv = [str(target) if a == "OUT" else a for a in argv]
        assert run_main("construct", "uniform", *argv) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text() == expected

    def test_unknown_option_is_still_rejected(self, pentagon_file, capsys):
        assert run_main("construct", "uniform", "3", "1", "--bogus") == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err
        assert run_main("lines", pentagon_file, "-1") == 2
        assert "unrecognized arguments: -1" in capsys.readouterr().err


class TestSearchVerb:
    def test_one_two_tsv(self, capsys):
        assert run_main("search", "one_two", "3") == 0
        out = capsys.readouterr().out.splitlines()
        assert "minimum\t1" in out
        assert "exclude_universal\tfalse" in out
        assert "witness\t3 2;0 2;1 2" in out

    def test_exclude_flag(self, capsys):
        assert run_main("search", "one_two", "3", "--exclude-universal") == 0
        out = capsys.readouterr().out
        assert "minimum\t3" in out
        assert "exclude_universal\ttrue" in out

    def test_json_no_timing_by_default(self, capsys):
        assert run_main("--format", "json", "search", "hypergraphs", "3") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["minimum"] == 3
        assert "elapsed_ms" not in doc

    def test_timing_opt_in(self, capsys):
        assert run_main("--timing", "search", "hypergraphs", "3") == 0
        assert "elapsed_ms\t" in capsys.readouterr().out

    def test_size_cap_is_usage_error(self, capsys):
        assert run_main("search", "hypergraphs", "7") == 2
        assert "error" in capsys.readouterr().err

    def test_one_two_cap_is_graph_cap(self, capsys):
        assert run_main("search", "one_two", "9") == 2
        err = capsys.readouterr().err
        assert "universe one_two is capped at n <= 8, got 9" in err


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ("search", "one_two", "3"),
            ["universe", "n", "exclude_universal", "minimum", "instances_examined", "witness"],
        ),
        (
            ("scan", "4"),
            ["n_max", "violators", "minimum:3", "minimum:4", "instances_examined"],
        ),
        (
            ("--timing", "search", "one_two", "3"),
            ["universe", "n", "exclude_universal", "minimum", "instances_examined",
             "elapsed_ms", "witness"],
        ),
        (
            ("--timing", "scan", "4"),
            ["n_max", "violators", "minimum:3", "minimum:4", "instances_examined", "elapsed_ms"],
        ),
    ],
)
def test_tsv_row_keys(argv, keys, capsys):
    assert run_main(*argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert [row.split("\t")[0] for row in out] == keys


class TestScanVerb:
    def test_clean_scan(self, tmp_path, capsys):
        assert run_main("scan", "4", "--out-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "violators\t0" in out
        assert "minimum:3\t3" in out
        assert "minimum:4\t6" in out
        assert list(tmp_path.iterdir()) == []

    def test_timing_opt_in(self, capsys):
        assert run_main("--format", "json", "scan", "4") == 0
        assert "elapsed_ms" not in json.loads(capsys.readouterr().out)
        assert run_main("--timing", "--format", "json", "scan", "4") == 0
        assert isinstance(json.loads(capsys.readouterr().out)["elapsed_ms"], int)

    def test_violators_written(self, tmp_path, capsys, monkeypatch):
        # no real violator exists in range, so fake one to exercise the
        # reporting path
        g = graph_from_edges(3, [(0, 1), (1, 2)])
        fake = ScanReport(
            n_max=3,
            violators=(g,),
            minima={3: 2},
            instances_examined=2,
        )
        import metriclines.cli as cli_mod

        monkeypatch.setattr(cli_mod, "conjecture_scan", lambda n: fake)
        assert run_main("scan", "3", "--out-dir", str(tmp_path)) == 1
        captured = capsys.readouterr()
        assert "violators\t1" in captured.out
        target = tmp_path / "violator_n3_0.txt"
        assert target.exists()
        assert target.read_text() == "3 2\n0 1\n1 2\n"
        assert str(target) in captured.err


class TestMetrizableVerb:
    def test_feasible_tsv(self, tmp_path, capsys):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("metrizable", str(p)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "metrizable"
        assert out[1] == "# assignments_tried\t2"
        assert out[2] == "# best_margin\t1/3"
        assert out[3] == "4"  # the witness matrix follows

    def test_feasible_json(self, tmp_path, capsys):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("--format", "json", "metrizable", str(p)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrizable"] is True
        assert doc["assignments_tried"] == 2
        assert doc["best_margin"] == "1/3"
        assert doc["witness"].startswith("4\n")

    def test_oversized_system_fails_fast(self, tmp_path, capsys):
        # 12 disjoint triples on 36 points: one LP alone ran for minutes
        p = tmp_path / "disjoint.txt"
        p.write_text("36 12\n" + "".join(f"{3 * i} {3 * i + 1} {3 * i + 2}\n" for i in range(12)))
        t0 = time.perf_counter()
        assert run_main("metrizable", str(p)) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "capped at n <= 10" in capsys.readouterr().err

    def test_sparse_system_on_many_points_fails_fast(self, tmp_path, capsys):
        # one triple on 100,000 points: nothing may be sized by the pairs
        p = tmp_path / "sparse.txt"
        p.write_text("100000 1\n0 1 2\n")
        t0 = time.perf_counter()
        assert run_main("metrizable", str(p)) == 2
        assert time.perf_counter() - t0 < 1.0
        assert "capped at n <= 10" in capsys.readouterr().err

    def test_infeasible_output(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        import metriclines.cli as cli_mod

        stub = FeasibilityResult(False, None, 2187, Fraction(0))
        monkeypatch.setattr(
            cli_mod, "metrizable", lambda *a, **kw: stub
        )
        assert run_main("metrizable", str(p)) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "infeasible"
        assert out[1] == "# assignments_tried\t2187"
        assert run_main("--format", "json", "metrizable", str(p)) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrizable"] is False
        assert doc["witness"] is None

    def test_max_edges_default_is_the_library_default(self, tmp_path, capsys, monkeypatch):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        import inspect

        import metriclines.cli as cli_mod
        from metriclines.feasibility import metrizable
        from metriclines.fileio import DEFAULT_EDGE_CAP

        seen = {}
        stub = FeasibilityResult(False, None, 1, Fraction(0))
        monkeypatch.setattr(cli_mod, "metrizable", lambda T, **kw: seen.update(kw) or stub)
        assert run_main("metrizable", str(p)) == 0
        default = inspect.signature(metrizable).parameters["max_edges"].default
        assert seen["max_edges"] == default == DEFAULT_EDGE_CAP

    def test_budget_exceeded_exits_three(self, tmp_path, capsys):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("metrizable", str(p), "--max-edges", "3") == 3
        assert "error" in capsys.readouterr().err

    def test_negative_max_edges_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("metrizable", str(p), "--max-edges", "-1") == 2
        assert "max_edges must be nonnegative, got -1" in capsys.readouterr().err

    def test_bad_cap_is_usage_error(self, tmp_path, capsys):
        # the witness has every distance at most 1, and no option rescales it
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        assert run_main("metrizable", "--cap", "2", str(p)) == 2
        assert "unrecognized arguments: --cap" in capsys.readouterr().err
        assert run_main("metrizable", str(p), "--cap", "2") == 2
        assert "unrecognized arguments: --cap 2" in capsys.readouterr().err


class TestErrorHandling:
    def test_missing_file(self, capsys):
        assert run_main("lines", "/nonexistent/metric.txt") == 3
        assert "error" in capsys.readouterr().err

    def test_malformed_metric(self, tmp_path, capsys):
        p = tmp_path / "bad.txt"
        p.write_text("3\n0 1\n1 0\n")
        assert run_main("lines", str(p)) == 3
        err = capsys.readouterr().err
        assert "bad.txt" in err

    def test_invalid_metric_axioms(self, tmp_path, capsys):
        p = tmp_path / "asym.txt"
        p.write_text("2\n0 1\n2 0\n")
        assert run_main("lines", str(p)) == 3
        capsys.readouterr()

    def test_non_utf8_file_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "latin.txt"
        p.write_bytes(NON_UTF8_METRIC)
        assert run_main("lines", str(p)) == 3
        err = capsys.readouterr().err
        assert err == f"error: {p}:3:3: not a rational: '0\\udcff'\n"

    def test_non_utf8_stdin_is_input_error(self):
        # through a Latin-1 text stream 0xFF would read as a letter; the CLI
        # decodes stdin's bytes as UTF-8 whatever the locale
        src = Path(metriclines.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONIOENCODING="latin-1", LC_ALL="C")
        proc = subprocess.run(
            [sys.executable, "-m", "metriclines.cli", "lines", "-"],
            input=NON_UTF8_METRIC,
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 3
        assert proc.stderr == b"error: -:3:3: not a rational: '0\\udcff'\n"

    def test_unknown_verb_is_usage(self, capsys):
        assert run_main("frobnicate") == 2
        capsys.readouterr()

    def test_no_args_is_usage(self, capsys):
        assert run_main() == 2
        capsys.readouterr()

    def test_seed_accepted(self, capsys):
        # --seed seeded a generator that nothing drew from; it is gone now
        assert run_main("--seed", "7", "construct", "pentagon") == 2
        assert "usage:" in capsys.readouterr().err

    def test_edge_list_without_points_is_input_error(self, tmp_path, capsys):
        p = tmp_path / "empty.txt"
        p.write_text("0 0\n")
        for argv in (("check", "diam"), ("hyperlines",), ("metrizable",)):
            assert run_main(*argv, str(p)) == 3
            assert "n must be at least 1, got 0" in capsys.readouterr().err


# what _emit is given: a few elements or rows around a slice of 3, so that
# lists and row sequences end before, on and after a slice boundary
SLICE = 3
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text())
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=3),
        st.dictionaries(st.integers(), inner, max_size=3),
    ),
    max_leaves=8,
)
TOP_LISTS = st.lists(VALUES, max_size=2 * SLICE + 2)
DOCS = st.dictionaries(st.text(), st.one_of(VALUES, TOP_LISTS, TOP_LISTS.map(tuple)), max_size=4)


def emitted(fmt: str, doc: dict, tsv=None, size: int = SLICE) -> str:
    """What _emit prints for doc, with lists and rows written size at a time."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(cli, "_SLICE", size)
        cli._emit(argparse.Namespace(format=fmt), doc, tsv)
    return out.getvalue()


class TestEmit:
    """_emit, which writes in slices, against the whole-text writer it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(DOCS)
    def test_json_is_the_canonical_document(self, doc):
        assert emitted("json", doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.text(), max_size=3 * SLICE + 1))
    def test_tsv_is_the_joined_rows(self, rows):
        text = "\n".join(rows)
        expected = text if text.endswith("\n") else text + "\n"
        assert emitted("tsv", {}, lambda doc: rows) == expected
        assert emitted("tsv", {}, lambda doc: iter(rows)) == expected

    @pytest.mark.parametrize("length", [0, 1, SLICE - 1, SLICE, SLICE + 1, 2 * SLICE + 1])
    def test_slice_boundaries(self, length):
        triples = tuple((i, i + 1, i + 2) for i in range(length))
        doc = {"z": None, "triples": triples, "lines": list(triples), "ok": True, "name": "\u00e9"}
        assert emitted("json", doc) == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"

    @pytest.mark.parametrize("size", [SLICE, cli._SLICE])
    @pytest.mark.parametrize("line", [tuple, list])
    @pytest.mark.parametrize("family", [tuple, list, iter])
    def test_lines_around_a_slice_of_points(self, size, line, family):
        for length in (0, 1, size - 1, size, size + 1, 2 * size):
            # runs end on, before and after lines of that many points
            lines = [line(range(k, k + length)) for k in range(3)]
            lines += [line([7]), line(range(length)), line([]), line([1, 2])]
            doc = {"count": len(lines), "lines": lines, "universal": False}
            expected = cli._canonical_json(doc) + "\n"
            assert emitted("json", {**doc, "lines": family(lines)}, size=size) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.dictionaries(st.text(), TOP_LISTS, max_size=4))
    def test_iterators_are_written_as_arrays(self, doc):
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert emitted("json", {key: iter(value) for key, value in doc.items()}) == expected

    def test_empty_document_and_no_rows(self):
        assert emitted("json", {}) == "{}\n"
        assert emitted("tsv", {}, lambda doc: []) == "\n"

    def test_peak_memory(self, monkeypatch):
        """A 200,000-triple document goes out within 1 MB of traced
        allocations; encoding it whole took 6.6 MB."""
        triples = tuple(islice(combinations(range(120), 3), 200_000))
        doc = {"n": 120, "count": len(triples), "triples": triples}
        args = argparse.Namespace(format="json")
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                cli._emit(args, doc, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_peak_memory_of_long_lines(self, monkeypatch):
        """300 lines of 80 points go out within 250 KB of traced
        allocations; writing 512 lines at a time took 1.75 MB."""
        lines = tuple(tuple(range(700 + i, 780 + i)) for i in range(300))
        doc = {"count": len(lines), "universal": False, "lines": lines}
        with open(os.devnull, "w", encoding="utf-8") as sink:
            monkeypatch.setattr(sys, "stdout", sink)
            tracemalloc.start()
            try:
                cli._emit(argparse.Namespace(format="json"), doc, None)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 250_000, peak


def test_construct_writes_in_pieces(tmp_path, monkeypatch):
    """construct writes its rows a slice at a time: with slices of 16 rows,
    the 1.3 MB text of an 800-point space goes out within 0.5 MB of traced
    allocations; joining the whole text took three times its size."""
    from metriclines import balanced_group_space, dump_metric

    space = balanced_group_space(800)
    monkeypatch.setattr(cli, "construct", lambda kind, *params: space)
    monkeypatch.setattr(cli, "_SLICE", 16)
    out = tmp_path / "groups.txt"
    tracemalloc.start()
    try:
        assert main(["construct", "groups_balanced", "800", "-o", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    text = out.read_text()
    assert len(text) > 1_250_000 and text == dump_metric(space)
    assert peak < 500_000, peak


SCRIPT = "metric-lines"
ENTRY_POINT = "metriclines.cli:main"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def declared_scripts():
    """The ``[project.scripts]`` table of pyproject.toml."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10 has no tomllib
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)["project"].get("scripts", {})


def entry_point_command(target):
    """Argv that calls a ``module:attr`` target the way an installed
    console-script wrapper does: ``sys.exit(attr())``."""
    module, attr = target.split(":")
    code = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n"
    return [sys.executable, "-c", code]


class TestConsoleScript:
    def test_stdin_dash(self):
        commands = [entry_point_command(ENTRY_POINT)]
        installed = shutil.which(SCRIPT)
        if installed:
            commands.append([installed])
        for command in commands:
            proc = subprocess.run(
                [*command, "--format", "json", "lines", "-"],
                input=PENTAGON_MATRIX,
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            assert json.loads(proc.stdout)["count"] == 10
        # last, so that without a TOML reader only this check is skipped
        assert declared_scripts().get(SCRIPT) == ENTRY_POINT

    def test_import_starts_no_pool_machinery(self):
        # multiprocessing and concurrent.futures cost a cold start ~35 ms
        src = Path(metriclines.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH", "")) if p
        )
        code = (
            "import sys\n"
            "import metriclines.cli\n"
            "print(sorted(m for m in ('multiprocessing', 'concurrent.futures')"
            " if m in sys.modules))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self, tmp_path):
        p = tmp_path / "k34.txt"
        p.write_text(K34_TRIPLES)
        proc = subprocess.run(
            [sys.executable, "-m", "metriclines.cli", "hyperlines", str(p)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "# count\t1" in proc.stdout
