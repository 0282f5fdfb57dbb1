"""The package's public names and the names the benchmark tracer patches.

bench/tracer.py wraps program functions under the names their callers look
them up by.  A name that no longer resolves is only listed as missing in a
traced run, and its layer drops out of the per-layer metrics, so these
tests catch it first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import metriclines

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
