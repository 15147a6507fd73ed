from __future__ import annotations

import networkx as nx
import pytest

from snnicheck import explanations
from snnicheck.basis import BrgEvent, basis_successor, build_brg, build_ubrg
from snnicheck.explanations import minimal_e_vectors
from snnicheck.dot import export_dot
from snnicheck.fixtures import (demo_cyclic_high, demo_leaky, demo_secure,
                                demo_sync_period_two, demo_unbounded)
from snnicheck.petri import (AssumptionError, InvalidNetError, LabeledPetriNet, NetError,
                             PetriNet, check_assumptions)
from snnicheck.randnets import GeneratorConfig, random_lpn

from conftest import (ALL_BASIS_MARKINGS, BASIS_M0, BASIS_M1, BASIS_M2, assert_pumps,
                      leaf_tags, node_marking, record_calls, root_path, unbounded_witness)


def test_brg_states_match_expected_set(secure):
    brg = build_brg(secure)
    assert frozenset(brg.nfa.states) == ALL_BASIS_MARKINGS
    assert brg.nfa.initial == (BASIS_M0,)


def test_brg_has_expected_arcs(secure):
    arcs = set(build_brg(secure).nfa.arcs)
    assert (BASIS_M0, BrgEvent("l1", (1, 0)), BASIS_M1) in arcs
    assert (BASIS_M1, BrgEvent("l2", (0, 0)), BASIS_M2) in arcs
    assert (BASIS_M2, BrgEvent("l1", (0, 0)), BASIS_M1) in arcs


def test_brg_without_low_transitions():
    net = PetriNet(("p", "q"), ("h",), [("p", "h"), ("h", "q")], (1, 0))
    lpn = LabeledPetriNet(net, {"h": "f"}, high_labels={"f"})
    brg = build_brg(lpn)
    assert brg.nfa.states == ((1, 0),)
    assert brg.nfa.arcs == ()


def test_brg_refuses_unbounded():
    with pytest.raises(AssumptionError):
        build_brg(demo_unbounded())


def test_brg_witness_of_demo_unbounded():
    with pytest.raises(AssumptionError) as refused:
        build_brg(demo_unbounded())
    assert unbounded_witness(str(refused.value)) == (("t",), 0)
    assert str(refused.value) == check_assumptions(demo_unbounded()).describe_failure()


def test_brg_witness_expands_the_hidden_pump():
    # Only a high firing enables the low transition that pumps p.
    net = PetriNet(("p", "q"), ("h", "l"), [("p", "h"), ("h", "q"), ("q", "l"), ("l", "p", 2)],
                   (1, 0))
    lpn = LabeledPetriNet(net, {"h": "f", "l": "a"}, high_labels={"f"})
    with pytest.raises(AssumptionError) as refused:
        build_brg(lpn)
    path, pump_start = unbounded_witness(str(refused.value))
    assert "h" in path
    assert_pumps(net, path, pump_start)


def test_brg_keeps_the_cyclic_high_refusal():
    with pytest.raises(AssumptionError) as refused:
        build_brg(demo_cyclic_high())
    assert str(refused.value) == check_assumptions(demo_cyclic_high()).describe_failure()
    assert "cycle" in str(refused.value)


def test_brg_cap_bounds_the_reachable_markings(secure):
    # The secure demo has 9 reachable markings but only 8 basis markings.  The
    # report cached by the first build does not answer the smaller cap.
    assert len(build_brg(secure, cap=9).nfa.states) == 8
    with pytest.raises(AssumptionError, match="exploration cap of 8 markings exhausted"):
        build_brg(secure, cap=8)
    with pytest.raises(InvalidNetError, match="exploration cap must be positive"):
        build_brg(secure, cap=0)


def test_brg_cap_stops_a_large_high_run_search():
    # 200 tokens spread by four high transitions: about 70 million reachable
    # markings, all reached by high firings from the initial marking.  The cap
    # must stop the very first high-run search, as it stops full exploration.
    places = ("p", "q1", "q2", "q3", "q4")
    highs = ("h1", "h2", "h3", "h4")
    arcs = [a for i, h in enumerate(highs, 1) for a in (("p", h), (h, f"q{i}"))]
    net = PetriNet(places, highs, arcs, (200, 0, 0, 0, 0))
    lpn = LabeledPetriNet(net, {h: "f" for h in highs}, high_labels={"f"})
    with pytest.raises(AssumptionError) as refused:
        build_brg(lpn, cap=1000)
    assert str(refused.value) == "boundedness unknown: exploration cap of 1000 markings exhausted"
    assert str(refused.value) == check_assumptions(lpn, cap=1000).describe_failure()


def test_brg_cap_bounds_the_count_vectors_of_a_high_run_search():
    # Four high transitions with the same effect: 61 reachable markings but
    # 635,376 count vectors.  The cap bounds the vectors the search lists, so
    # the net is refused at once instead of listing them all.
    highs = ("h1", "h2", "h3", "h4")
    net = PetriNet(("p", "q"), highs, [a for h in highs for a in (("p", h), (h, "q"))],
                   (60, 0))
    lpn = LabeledPetriNet(net, {h: "f" for h in highs}, high_labels={"f"})
    assert check_assumptions(lpn, cap=1000).reachable_count == 61
    with pytest.raises(AssumptionError) as refused:
        build_brg(lpn, cap=1000)
    assert str(refused.value) == ("boundedness unknown: exploration cap of 1000 count vectors "
                                  "exhausted by one high-run search")


def _equal_effect_highs_then_low() -> LabeledPetriNet:
    """Four high ``p -> q`` and a low ``l: q -> r``, with 20 tokens on ``p``."""
    highs = ("h1", "h2", "h3", "h4")
    arcs = [a for h in highs for a in (("p", h), (h, "q"))] + [("q", "l"), ("l", "r")]
    net = PetriNet(("p", "q", "r"), highs + ("l",), arcs, (20, 0, 0))
    return LabeledPetriNet(net, {**{h: "f" for h in highs}, "l": "a"}, high_labels={"f"})


@pytest.mark.parametrize("query, expected", [
    (lambda lpn, cap: len(build_brg(lpn, cap).nfa.states), 21),
    (lambda lpn, cap: minimal_e_vectors(lpn, lpn.net.initial_marking, "l", cap=cap).evectors,
     {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}),
], ids=["build_brg", "minimal_e_vectors"])
def test_cached_explanations_do_not_answer_a_smaller_cap(query, expected):
    # 10,626 count vectors from the initial marking: a search under a cap of
    # 1,000 is refused, whether or not a wider search has answered before.
    lpn = _equal_effect_highs_then_low()
    refusal = ("boundedness unknown: exploration cap of 1000 count vectors "
               "exhausted by one high-run search")
    with pytest.raises(AssumptionError) as first:
        query(lpn, 1000)
    assert str(first.value) == refusal
    assert query(lpn, 20_000) == expected
    with pytest.raises(AssumptionError) as again:
        query(lpn, 1000)
    assert str(again.value) == refusal
    assert query(lpn, 20_000) == expected


@pytest.mark.parametrize("make", [
    demo_secure, demo_sync_period_two,
    lambda: random_lpn(24, GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6,
                                           bound_cap=100_000)),
], ids=["secure", "sync-period-two", "big net 24"])
def test_build_brg_searches_every_basis_state_on_every_build(monkeypatch, make):
    # Nothing is kept on the net between builds: each one runs one high-run
    # search per basis state.
    lpn = make()
    searches = record_calls(monkeypatch, explanations, ("_high_runs",))
    for _ in range(2):
        searches.clear()
        states = build_brg(lpn).nfa.states
        assert len(searches) == len(states)


def test_brg_with_a_high_transition_that_changes_nothing():
    # An isolated high transition fires forever without changing a token; the
    # high-run search leaves it out instead of counting its firings.
    net = PetriNet(("p", "q"), ("h", "l"), [("p", "l"), ("l", "q")], (1, 0))
    lpn = LabeledPetriNet(net, {"h": "f", "l": "a"}, high_labels={"f"})
    brg = build_brg(lpn)
    assert brg.nfa.arcs == (((1, 0), BrgEvent("l", (0,)), (0, 1)),)
    assert minimal_e_vectors(lpn, (1, 0), "l").evectors == {(0,)}


def test_ubrg_duplicates_and_tags(secure):
    ubrg = build_ubrg(secure)
    assert {node_marking(ubrg, nid) for nid in ubrg.duplicated} == {BASIS_M0, BASIS_M1}
    assert len(ubrg.alpha_leaves) == 1
    assert len(ubrg.beta_leaves) == 1


def test_ubrg_beta_leaf_lies_on_low_cycle(secure):
    ubrg = build_ubrg(secure)
    leaf = {tag: nid for nid, tag in leaf_tags(ubrg).items()}
    assert [e.transition for e in root_path(ubrg, leaf[("beta", 1)])] == ["l1", "l2", "l1"]
    assert [e.transition for e in root_path(ubrg, leaf[("alpha", 1)])] == ["l3", "l4"]


def test_ubrg_without_high_transitions(secure):
    low = secure.low_subnet()
    ubrg = build_ubrg(low)
    assert ubrg.alpha_leaves == []
    assert ubrg.beta_leaves == []


def test_ubrg_leaf_tagging_characterization(secure, leaky):
    for lpn in (secure, leaky):
        ubrg = build_ubrg(lpn)
        leaves = [nid for nid in ubrg.nodes if not ubrg.first_child[nid]]
        tags = leaf_tags(ubrg)
        assert set(tags) <= set(leaves)
        for nid in leaves:
            tag = tags.get(nid)
            assert (tag is not None) == any(any(e.evector) for e in root_path(ubrg, nid))
            if tag is not None:
                assert (nid in ubrg.duplicated) == (tag[0] == "beta")


def test_ubrg_duplicate_iff_marking_repeats_on_path(secure):
    ubrg = build_ubrg(secure)
    for nid in ubrg.nodes:
        ancestors = []
        current = nid
        while current:
            current = ubrg.parent[current]
            ancestors.append(node_marking(ubrg, current))
        assert (nid in ubrg.duplicated) == (node_marking(ubrg, nid) in ancestors)


def test_ubrg_first_child_is_zero_exactly_at_leaves():
    # 132 of the battery nets have a root without arcs, a leaf as well.
    root_leaves = 0
    for seed in range(1, 401):
        ubrg = build_ubrg(random_lpn(seed))
        parents = set(ubrg.parent)
        for nid in ubrg.nodes:
            assert (ubrg.first_child[nid] == 0) == (nid not in parents), (seed, nid)
        root_leaves += len(ubrg.nodes) == 1
    assert root_leaves == 132


def _arc_soundness(lpn, arcs, marking_from):
    for src, event, dst in arcs:
        m = marking_from(src)
        vectors = minimal_e_vectors(lpn, m, event.transition).evectors
        assert event.evector in vectors
        assert marking_from(dst) == basis_successor(lpn, m, event.transition, event.evector)


def test_arc_soundness(secure, leaky):
    for lpn in (secure, leaky):
        brg = build_brg(lpn)
        _arc_soundness(lpn, brg.nfa.arcs, lambda m: m)
        ubrg = build_ubrg(lpn)
        _arc_soundness(lpn, zip(ubrg.parent[1:], ubrg.event[1:], ubrg.nodes[1:]),
                       lambda nid: node_marking(ubrg, nid))
    # A vector no run can fire drives the reference step below zero.
    with pytest.raises(NetError, match=r"^marking equation produced a negative marking "
                                       r"for \(l1, \(0, 1\)\); explanation vectors are "
                                       r"inconsistent$"):
        basis_successor(secure, secure.net.initial_marking, "l1", (0, 1))


def test_unfolding_correspondence_with_cycles(secure):
    # Duplicated-leaf markings always sit on a simple cycle of the basis
    # graph, and every simple cycle owns at least one duplicated leaf.
    brg = build_brg(secure)
    digraph = nx.DiGraph()
    for src, _, dst in brg.nfa.arcs:
        digraph.add_edge(src, dst)
    cycles = list(nx.simple_cycles(digraph))
    assert cycles
    ubrg = build_ubrg(secure)
    on_cycles = {m for cycle in cycles for m in cycle}
    duplicate_markings = {node_marking(ubrg, nid) for nid in ubrg.duplicated}
    assert duplicate_markings <= on_cycles
    for cycle in cycles:
        assert duplicate_markings & set(cycle)
    # Each duplicated leaf path really ends in a marking repeat.
    for nid in ubrg.duplicated:
        assert not ubrg.first_child[nid]
        markings = [node_marking(ubrg, 0)]
        for event in root_path(ubrg, nid):
            markings.append(basis_successor(secure, markings[-1],
                                            event.transition, event.evector))
        assert markings[-1] in markings[:-1]


def test_construction_is_deterministic(secure):
    first = build_ubrg(secure)
    second = build_ubrg(secure)
    assert (first.parent, first.event) == (second.parent, second.event)
    assert (first.alpha_leaves, first.beta_leaves) == (second.alpha_leaves, second.beta_leaves)
    assert ([node_marking(first, k) for k in first.nodes]
            == [node_marking(second, k) for k in second.nodes])
    assert build_brg(secure).nfa.arcs == build_brg(secure).nfa.arcs
    # Unfolding a prebuilt BRG is the same as letting build_ubrg build it.
    nets = [demo() for demo in (demo_secure, demo_leaky, demo_sync_period_two)]
    for lpn in nets + [random_lpn(seed) for seed in range(1, 51)]:
        assert export_dot(build_ubrg(lpn, brg=build_brg(lpn))) == export_dot(build_ubrg(lpn))


def test_secure_and_leaky_share_basis_structure(secure, leaky):
    # Relabeling one transition changes neither basis markings nor unfolding.
    assert frozenset(build_brg(secure).nfa.states) == frozenset(build_brg(leaky).nfa.states)
    u1, u2 = build_ubrg(secure), build_ubrg(leaky)
    assert [node_marking(u1, k) for k in u1.nodes] == [node_marking(u2, k) for k in u2.nodes]
    assert u1.alpha_leaves == u2.alpha_leaves
    assert u1.beta_leaves == u2.beta_leaves
