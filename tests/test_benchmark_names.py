"""Every library name the benchmark under ``perfbench/`` relies on resolves.

The benchmark's tracer raises ``LookupError`` at install time for a traced
name that no longer exists, and its attribution file names the public entry
points the workloads call; a rename in the library would otherwise surface
only when the benchmark runs.  Both files are only read here.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _traced():
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _public_names():
    return json.loads((PERFBENCH / "attribution.json").read_text())["public_names"]


@pytest.mark.parametrize("module, path, span", _traced())
def test_traced_name_resolves(module, path, span):
    owner = importlib.import_module(f"symae.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    # The tracer replaces the attribute on its owner, so it must live there.
    assert attr in owner.__dict__ and callable(owner.__dict__[attr])


@pytest.mark.parametrize("name", _public_names())
def test_public_name_resolves(name):
    module, attr = name.rsplit(".", 1)
    assert hasattr(importlib.import_module(module), attr)
