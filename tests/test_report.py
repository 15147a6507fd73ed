from __future__ import annotations

import pytest

import snnicheck.petri as petri
import snnicheck.reach as reach
from snnicheck.fixtures import demo_leaky, demo_secure
from snnicheck.report import analyze


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_analyze_explores_each_state_space_once(monkeypatch, demo):
    lpn = demo()
    explored = []
    explore = petri.explore_markings

    def counting_explore(net, cap):
        explored.append(net.transitions)
        return explore(net, cap)

    monkeypatch.setattr(petri, "explore_markings", counting_explore)
    monkeypatch.setattr(reach, "explore_markings", counting_explore)
    analyze(lpn)
    # The full net once, for the assumption check; the low subnet once, for
    # its label language.
    assert explored.count(lpn.net.transitions) == 1
    assert explored.count(lpn.low_subnet().net.transitions) == 1
    assert len(explored) == 2
