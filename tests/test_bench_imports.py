"""Every package name the benchmark scripts import still exists.

The scripts under ``bench/`` import package names directly, so deleting or
renaming one of them breaks the benchmark; this test makes that fail here.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

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
