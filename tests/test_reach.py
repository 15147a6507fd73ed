from __future__ import annotations

import pytest

import snnicheck.petri as petri
import snnicheck.reach as reach
from snnicheck.basis import build_brg, build_ubrg
from snnicheck.fixtures import demo_leaky, demo_secure, demo_sync_period_two
from snnicheck.nfa import Nfa
from snnicheck.oracle import snni_oracle
from snnicheck.petri import PetriNet, explore_markings
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.reach import low_label_language, reachability_graph
from snnicheck.verifier import build_sv

BIG = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)


def _nets():
    """(name, net) for the demos, default nets 1-50 and big nets 1-40."""
    for make in (demo_secure, demo_leaky, demo_sync_period_two):
        yield make.__name__, make()
    for seed in range(1, 51):
        yield f"default {seed}", random_lpn(seed)
    for seed in range(1, 41):
        yield f"big {seed}", random_lpn(seed, BIG)


def _assert_matches_validated(trusted: Nfa) -> None:
    validated = Nfa(list(trusted.states), list(trusted.arcs), list(trusted.initial),
                    trusted.labeling)
    assert trusted.states == validated.states
    assert trusted.arcs == validated.arcs
    assert trusted.initial == validated.initial
    assert trusted.events == validated.events
    assert trusted.labeling == validated.labeling
    for state in trusted.states:
        assert trusted.arcs_from(state) == validated.arcs_from(state)


def test_trusted_automata_equal_validated_ones():
    for name, lpn in _nets():
        brg = build_brg(lpn)
        ubrg = build_ubrg(lpn, brg=brg)
        automata = [reachability_graph(lpn.net).nfa, low_label_language(lpn), brg.nfa, ubrg.tree]
        if name != "big 16":  # its verifier tree exceeds the node cap
            automata.append(build_sv(lpn, ubrg=ubrg).tree)
        for nfa in automata:
            _assert_matches_validated(nfa)


def test_reachability_arcs_are_the_explored_firings():
    for _, lpn in _nets():
        for net in (lpn.net, lpn.low_subnet().net):
            exploration = explore_markings(net, petri.DEFAULT_EXPLORATION_CAP)
            fired = [(m, t, net.fire(m, t))
                     for m in exploration.markings for t in net.transitions if net.enabled(m, t)]
            rg = reachability_graph(net).nfa
            assert list(rg.arcs) == fired
            assert rg.states == exploration.markings
            explored = {id(m) for m in exploration.markings}
            assert all(id(m) in explored for m in exploration.arc_sources)
            assert all(id(m) in explored for m in exploration.arc_targets)
            in_graph = {id(m) for m in rg.states}
            assert all(id(s) in in_graph and id(d) in in_graph for s, _, d in rg.arcs)


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_reachability_graphs_fire_nothing_after_exploring(monkeypatch, demo):
    lpn = demo()
    low_transitions = lpn.low_subnet().net.transitions
    explored = []
    refired = []
    explore = petri.explore_markings

    def counting_explore(net, cap):
        explored.append(net.transitions)
        return explore(net, cap)

    def recording(name):
        original = getattr(PetriNet, name)

        def record(self, *args, **kwargs):
            refired.append(name)
            return original(self, *args, **kwargs)
        return record

    for name in ("fire", "enabled"):
        monkeypatch.setattr(PetriNet, name, recording(name))
    monkeypatch.setattr(petri, "explore_markings", counting_explore)
    monkeypatch.setattr(reach, "explore_markings", counting_explore)
    snni_oracle(lpn)
    # The full net once for its projected language, the low subnet once.
    assert explored == [lpn.net.transitions, low_transitions]
    explored.clear()
    reachability_graph(lpn.net)
    assert explored == [lpn.net.transitions]
    assert refired == []
