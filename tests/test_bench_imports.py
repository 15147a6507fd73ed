"""The benchmark scripts still run against the package.

The scripts under ``bench/`` import package names directly, so deleting or
renaming one of them breaks the benchmark; the first test makes that fail
here.  The traced routes call the package layer by layer, so a change to
one layer's API breaks them; the other tests run each route on the demo
nets, and the check route on a big net whose trees have thousands of nodes,
and compare it with the operation it decomposes.
"""

from __future__ import annotations

import ast
import importlib
import time
from pathlib import Path

import pytest

from snnicheck.fixtures import fixture_document
from snnicheck.netdoc import serialize_net
from snnicheck.randnets import GeneratorConfig, random_lpn

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


def _traced_and_plain(monkeypatch, op: str, net_seed: int, document: str):
    monkeypatch.syspath_prepend(str(BENCH))
    suite = importlib.import_module("suite")
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer([(net_seed, document)], time.perf_counter)
    return tracer.traced_call(op, net_seed, document), suite.OPERATIONS[op](document)


@pytest.mark.parametrize("op", ["check", "oracle", "brg"])
@pytest.mark.parametrize("demo", ["secure", "leaky", "sync-period-two"])
def test_traced_routes_return_the_operations_outputs(monkeypatch, op, demo):
    """Each traced route, call by call, gives what its operation gives."""
    traced, plain = _traced_and_plain(monkeypatch, op, 1, fixture_document(demo))
    assert traced == plain


def test_traced_check_route_on_a_big_net(monkeypatch):
    """Big net 24 of the benchmark's deep-unfold suite: a 7,838-node unfolding."""
    big = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
    traced, plain = _traced_and_plain(monkeypatch, "check", 24,
                                      serialize_net(random_lpn(24, big)))
    assert traced == plain
