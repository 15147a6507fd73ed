from __future__ import annotations

import pytest

import snnicheck.oracle as oracle
import snnicheck.petri as petri
import snnicheck.reach as reach
from snnicheck.basis import build_brg, build_ubrg
from snnicheck.fixtures import demo_leaky, demo_secure, demo_sync_period_two
from snnicheck.nfa import Nfa
from snnicheck.oracle import snni_oracle
from snnicheck.petri import PetriNet, explore_markings
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.reach import low_label_language, reachability_graph
from snnicheck.verifier import build_sv, decide_languages

from conftest import bounded_nets


@pytest.mark.parametrize("cap, message", [
    (True, "exploration cap must be an int, got True"),
    (1.5, "exploration cap must be an int, got 1.5"),
    (0, "exploration cap must be positive, got 0"),
    (-1, "exploration cap must be positive, got -1")])
def test_exploration_caps_are_positive_ints(cap, message):
    # A bool would run as a cap of 1 and a float as a fractional one; each
    # exploration refuses both up front, as it refuses a cap below 1.  Every
    # full exploration is refused by explore_markings itself.
    lpn = demo_secure()
    for explore in (lambda: explore_markings(lpn.net, cap),
                    lambda: petri.check_assumptions(lpn, cap), lambda: build_brg(lpn, cap),
                    lambda: decide_languages(lpn, cap), lambda: reachability_graph(lpn.net, cap),
                    lambda: snni_oracle(lpn, cap)):
        with pytest.raises(petri.InvalidNetError) as refused:
            explore()
        assert str(refused.value) == message

BIG = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)


def _nets():
    """(name, net) for the demos, default nets 1-50 and big nets 1-40."""
    for make in (demo_secure, demo_leaky, demo_sync_period_two):
        yield make.__name__, make()
    for seed in range(1, 51):
        yield f"default {seed}", random_lpn(seed)
    for seed in range(1, 41):
        yield f"big {seed}", random_lpn(seed, BIG)


def _assert_same_automaton(got: Nfa, expected: Nfa) -> None:
    assert got.states == expected.states
    assert got.arcs == expected.arcs
    assert got.initial == expected.initial
    assert [e for _, e, _ in got.arcs] == [e for _, e, _ in expected.arcs]
    assert got.labeling == expected.labeling
    assert list(got.labeling or ()) == list(expected.labeling or ())  # in the same order
    for state in expected.states:
        assert got.arcs_from(state) == expected.arcs_from(state)


def _assert_matches_validated(trusted: Nfa) -> None:
    _assert_same_automaton(trusted, Nfa(list(trusted.states), list(trusted.arcs),
                                        list(trusted.initial), trusted.labeling))


def test_trusted_automata_equal_validated_ones():
    for _, lpn in _nets():
        for nfa in (reachability_graph(lpn.net).nfa, low_label_language(lpn), build_brg(lpn).nfa):
            _assert_matches_validated(nfa)


def test_the_low_language_read_off_a_graph_is_the_explored_one(monkeypatch):
    # The basis route reads it off the BRG's zero-vector arcs, the oracle off
    # the full reachability graph's low arcs; both equal the explored one.
    compared = []
    compare = oracle._compare

    def recording_compare(projected, low):
        compared.append(low)
        return compare(projected, low)

    monkeypatch.setattr(oracle, "_compare", recording_compare)
    for name, lpn in bounded_nets():
        explored = low_label_language(lpn)
        _assert_same_automaton(decide_languages(lpn).low, explored)
        compared.clear()
        snni_oracle(lpn)
        _assert_same_automaton(compared[0], explored)
    # The verifier without a low language reads it off its unfolding's BRG:
    # its tree is the one paired with the explored low language.
    for make in (demo_secure, demo_leaky, demo_sync_period_two):
        lpn = make()
        ubrg = build_ubrg(lpn)
        assert build_sv(lpn, ubrg=ubrg) == build_sv(lpn, ubrg=ubrg, low=low_label_language(lpn))


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
    # The full net once; the low language is read off its graph.
    assert explored == [lpn.net.transitions]
    explored.clear()
    reachability_graph(lpn.net)
    assert explored == [lpn.net.transitions]
    assert refired == []
