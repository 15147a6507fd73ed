from __future__ import annotations

import re

import pytest

from snnicheck.fixtures import demo_leaky, demo_secure
from snnicheck.petri import LabeledPetriNet, PetriNet

# Basis markings of the secure demo net, by place order p1..p9.  These eight
# vectors are the net's complete basis set and double as expected BRG states.
BASIS_M0 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
BASIS_M1 = (0, 0, 1, 0, 0, 0, 0, 0, 0)
BASIS_M2 = (0, 1, 0, 0, 0, 0, 0, 0, 0)
BASIS_M3 = (0, 0, 0, 0, 1, 0, 0, 0, 0)
BASIS_M4 = (0, 0, 0, 0, 0, 0, 0, 1, 0)
BASIS_M5 = (0, 0, 0, 0, 0, 1, 0, 0, 0)
BASIS_M6 = (0, 0, 0, 0, 0, 0, 1, 0, 0)
BASIS_M7 = (0, 0, 0, 0, 0, 0, 0, 0, 1)
ALL_BASIS_MARKINGS = frozenset({
    BASIS_M0, BASIS_M1, BASIS_M2, BASIS_M3,
    BASIS_M4, BASIS_M5, BASIS_M6, BASIS_M7,
})


@pytest.fixture
def secure() -> LabeledPetriNet:
    return demo_secure()


@pytest.fixture
def leaky() -> LabeledPetriNet:
    return demo_leaky()


def marking_of(lpn: LabeledPetriNet, **tokens: int) -> tuple[int, ...]:
    """Marking vector from place-name keyword arguments."""
    return tuple(tokens.get(p, 0) for p in lpn.net.places)


def unbounded_witness(message: str) -> tuple[tuple[str, ...], int]:
    """Firing path and pump start named by an "unbounded" refusal."""
    match = re.fullmatch(r"net is unbounded: firing (.+) strictly dominates "
                         r"the marking reached after step (\d+)", message)
    assert match, message
    return tuple(match[1].split()), int(match[2])


def assert_pumps(net: PetriNet, path: tuple[str, ...], pump_start: int) -> None:
    """``path`` fires from the initial marking and strictly grows after ``pump_start`` steps."""
    start = net.fire_sequence(net.initial_marking, path[:pump_start])
    end = net.fire_sequence(start, path[pump_start:])
    assert start != end and all(a <= b for a, b in zip(start, end)), (path, pump_start)
