"""The package's public names."""

from __future__ import annotations

import snnicheck


def test_every_public_name_resolves_and_star_imports():
    assert len(set(snnicheck.__all__)) == len(snnicheck.__all__)
    for name in snnicheck.__all__:
        getattr(snnicheck, name)  # raises AttributeError for a name the package lacks
    namespace: dict = {}
    exec("from snnicheck import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(snnicheck.__all__)
