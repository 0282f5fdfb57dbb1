"""The package's public names and the names the benchmark tracer patches.

bench/tracer.py wraps program functions under the names their callers look
them up by, and its counters read attributes of what those functions return.
A name that no longer resolves is only listed as missing in a traced run,
and its layer drops out of the per-layer metrics, so these tests catch it
first; a counter whose attribute is gone crashes the traced op.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import metriclines

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
LAUNCH = ROOT / "bench" / "launch.py"
INPUTS = Path(__file__).parent / "golden" / "inputs"

# one traced CLI call per verb the benchmark runs, with the counter it fills
TRACED_OPS = (
    ("lines", ["lines", INPUTS / "pentagon.txt"], "pairs"),
    ("hyperlines", ["hyperlines", INPUTS / "triples3.txt"], "bytes_in"),
    ("check-diam", ["check", "diam", INPUTS / "cycle7.txt"], "masks"),
    ("search", ["search", "hypergraphs", "4"], "instances"),
    ("metrizable", ["metrizable", INPUTS / "triples3.txt"], "lp_rows"),
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = load_tracer().PATCHES
    assert patches
    missing = []
    for module_name, attr, _, _ in patches:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_public_names_resolve_once():
    names = metriclines.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(metriclines, name)] == []


@pytest.mark.parametrize(
    "argv,counter", [op[1:] for op in TRACED_OPS], ids=[op[0] for op in TRACED_OPS]
)
def test_traced_counters_resolve(tmp_path, argv, counter):
    record = tmp_path / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(ROOT / "src"), env.get("PYTHONPATH")))
    )
    cmd = [sys.executable, str(LAUNCH), str(record), "1", "--format", "json", *map(str, argv)]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    dump = json.loads(record.read_text(encoding="utf-8"))
    assert dump["missing"] == []
    assert dump["counts"][counter] > 0
