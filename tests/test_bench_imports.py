"""The benchmark scripts still run against the package.

The scripts under ``bench/`` import package names directly, so deleting or
renaming one of them breaks the benchmark; the first test makes that fail
here.  The traced routes call the package layer by layer, so a change to
one layer's API breaks them; the second test runs each route on the demo
nets and compares it with the operation it decomposes.
"""

from __future__ import annotations

import ast
import importlib
import time
from pathlib import Path

import pytest

from snnicheck.fixtures import fixture_document

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.parametrize("script", ["suite.py", "test_reference.py", "tracing.py"])
def test_bench_package_imports_resolve(script):
    imports = [(node.module, alias.name)
               for node in ast.walk(ast.parse((BENCH / script).read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level == 0
               and node.module.split(".")[0] == "snnicheck"
               for alias in node.names]
    assert imports
    for module, name in imports:
        assert hasattr(importlib.import_module(module), name), \
            f"bench/{script} imports {name} from {module}, which has no such name"


@pytest.mark.parametrize("op", ["check", "oracle", "brg"])
@pytest.mark.parametrize("demo", ["secure", "leaky", "sync-period-two"])
def test_traced_routes_return_the_operations_outputs(monkeypatch, op, demo):
    """Each traced route, call by call, gives what its operation gives."""
    monkeypatch.syspath_prepend(str(BENCH))
    suite = importlib.import_module("suite")
    tracing = importlib.import_module("tracing")
    document = fixture_document(demo)
    tracer = tracing.Tracer([(1, document)], time.perf_counter)
    assert tracer.traced_call(op, 1, document) == suite.OPERATIONS[op](document)
