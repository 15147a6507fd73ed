"""The benchmark scripts still run against the package.

The scripts under ``bench/`` import package names directly, so deleting or
renaming one of them breaks the benchmark; the first test makes that fail
here.  The traced routes call the package layer by layer, so a change to
one layer's API breaks them; the other tests run each route on the demo
nets, the check route on a big net whose trees have thousands of nodes, and
each route on the extreme nets of the big and huge suites, and compare it
with the operation it decomposes.  Only big net 16 may fail, and there
both sides must give the same package error; every other case must answer.
The last test counts the full-net explorations of the traced ``brg`` route.
"""

from __future__ import annotations

import ast
import importlib
import time
from pathlib import Path

import pytest

import snnicheck.petri as petri
from snnicheck.fixtures import fixture_document
from snnicheck.netdoc import parse_net, serialize_net
from snnicheck.randnets import GeneratorConfig, random_lpn

BENCH = Path(__file__).resolve().parents[1] / "bench"
BIG = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
HUGE = GeneratorConfig(max_places=20, max_transitions=30, max_tokens=10, bound_cap=300_000)


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
    return tracer.traced_call(op, net_seed, document), suite.plain_call(op, net_seed, document)


@pytest.mark.parametrize("op", ["check", "oracle", "brg"])
@pytest.mark.parametrize("demo", ["secure", "leaky", "sync-period-two"])
def test_traced_routes_return_the_operations_outputs(monkeypatch, op, demo):
    """Each traced route, call by call, gives what its operation gives."""
    traced, plain = _traced_and_plain(monkeypatch, op, 1, fixture_document(demo))
    assert type(traced).__name__ != "Failure"
    assert traced == plain


def test_traced_check_route_on_a_big_net(monkeypatch):
    """Big net 24 of the benchmark's deep-unfold suite: a 7,838-node unfolding."""
    traced, plain = _traced_and_plain(monkeypatch, "check", 24,
                                      serialize_net(random_lpn(24, BIG)))
    assert type(traced).__name__ != "Failure"
    assert traced == plain


def test_traced_check_route_fails_as_check_fails_on_big_net_16(monkeypatch):
    """Big net 16, the deep-unfold suite's one counted failure: the SV node cap."""
    traced, plain = _traced_and_plain(monkeypatch, "check", 16,
                                      serialize_net(random_lpn(16, BIG)))
    assert type(traced).__name__ == "Failure"
    assert traced == plain
    assert plain.message == "verifier tree exceeds 200000 nodes; raise node_cap to continue"


@pytest.mark.parametrize("op", ["oracle", "brg"])
def test_traced_routes_on_huge_net_9(monkeypatch, op):
    """Huge net 9, the state-space suite's largest: 6,587 reachable markings."""
    traced, plain = _traced_and_plain(monkeypatch, op, 9, serialize_net(random_lpn(9, HUGE)))
    assert type(traced).__name__ != "Failure"
    assert traced == plain


@pytest.mark.parametrize("document", [fixture_document("secure"),
                                      serialize_net(random_lpn(24, BIG))],
                         ids=["secure", "big net 24"])
def test_traced_brg_route_explores_the_full_net_once(monkeypatch, document):
    """The assumption report memo answers every e-vector query of the traced route.

    Each query calls ``require_assumptions``; without the memo, every one of
    them would explore the full net again.
    """
    explored = []
    explore = petri.explore_markings

    def counting_explore(net, cap):
        explored.append(net.transitions)
        return explore(net, cap)

    monkeypatch.setattr(petri, "explore_markings", counting_explore)
    monkeypatch.syspath_prepend(str(BENCH))
    tracing = importlib.import_module("tracing")
    tracer = tracing.Tracer([(1, document)], time.perf_counter)
    traced = tracer.traced_call("brg", 1, document)
    assert type(traced).__name__ != "Failure"
    queries = sum(span.counts.get("explanations.queries", 0) for span in tracer.spans)
    assert queries > 1
    assert explored == [parse_net(document).net.transitions]
