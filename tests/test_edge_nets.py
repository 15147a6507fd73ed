"""Targeted nets probing representation choices and refusal paths."""

from __future__ import annotations

import pytest

from snnicheck.basis import build_brg, build_ubrg
from snnicheck.explanations import minimal_e_vectors
from snnicheck.oracle import snni_oracle
from snnicheck.petri import InvalidNetError, LabeledPetriNet, NetError, PetriNet, format_word
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.report import decide_snni
from snnicheck.verifier import build_sv


def test_multi_character_labels_compare_as_atoms():
    # Joined strings would confuse the words ("ab","c") and ("a","bc"); as
    # atom tuples they differ, and the hidden branch leaks.
    net = PetriNet(("p0", "p1", "p2", "p3", "p4"),
                   ("h", "x", "y", "u", "v"),
                   [("p0", "h"), ("h", "p1"),
                    ("p1", "x"), ("x", "p2"),
                    ("p2", "y"), ("y", "p3"),
                    ("p0", "u"), ("u", "p4"),
                    ("p4", "v")],
                   (1, 0, 0, 0, 0))
    lpn = LabeledPetriNet(net, {"h": "hi", "x": "ab", "y": "c", "u": "a", "v": "bc"},
                          high_labels={"hi"})
    verdict = decide_snni(lpn)
    oracle = snni_oracle(lpn)
    assert not verdict.snni
    assert not oracle.snni
    assert oracle.counterexample == ("ab",)
    assert verdict.counterexample == ("ab",)
    assert format_word(("ab", "c")) == "ab c"
    assert format_word(()) == "ε"


def test_multi_character_labels_with_low_twins():
    # Same gating, but now a low-only twin emits the identical atom word.
    net = PetriNet(("p0", "p1", "p2", "p3", "p5", "p6"),
                   ("h", "x", "y", "w", "z"),
                   [("p0", "h"), ("h", "p1"),
                    ("p1", "x"), ("x", "p2"),
                    ("p2", "y"), ("y", "p3"),
                    ("p0", "w"), ("w", "p5"),
                    ("p5", "z"), ("z", "p6")],
                   (1, 0, 0, 0, 0, 0))
    lpn = LabeledPetriNet(net, {"h": "hi", "x": "ab", "y": "c", "w": "ab", "z": "c"},
                          high_labels={"hi"})
    assert decide_snni(lpn).snni
    assert snni_oracle(lpn).snni


def test_minimal_vector_with_repeated_high_firing():
    # The low transition needs two tokens that only repeated high firings
    # provide, so the minimal e-vector carries a count above one.
    net = PetriNet(("src", "gate", "sink"),
                   ("h", "l"),
                   {("src", "h"): 1, ("h", "gate"): 1,
                    ("gate", "l"): 2, ("l", "sink"): 1},
                   (2, 0, 0))
    lpn = LabeledPetriNet(net, {"h": "f", "l": "a"}, high_labels={"f"})
    assert minimal_e_vectors(lpn, (2, 0, 0), "l").evectors == {(2,)}
    assert minimal_e_vectors(lpn, (0, 2, 0), "l").evectors == {(0,)}
    brg = build_brg(lpn)
    events = {event for _, event, _ in brg.nfa.arcs}
    assert ("l", (2,)) in events


def test_incomparable_minimal_vectors():
    # Two independent high routes each enable the low transition; their
    # vectors are incomparable and both must be reported.
    net = PetriNet(("a1", "a2", "gate", "sink"),
                   ("h1", "h2", "l"),
                   [("a1", "h1"), ("h1", "gate"),
                    ("a2", "h2"), ("h2", "gate"),
                    ("gate", "l"), ("l", "sink")],
                   (1, 1, 0, 0))
    lpn = LabeledPetriNet(net, {"h1": "f", "h2": "g", "l": "a"},
                          high_labels={"f", "g"})
    result = minimal_e_vectors(lpn, (1, 1, 0, 0), "l")
    assert result.evectors == {(1, 0), (0, 1)}
    brg = build_brg(lpn)
    events = {event for _, event, _ in brg.nfa.arcs}
    assert ("l", (1, 0)) in events and ("l", (0, 1)) in events


def _twin_low_moves() -> LabeledPetriNet:
    """Two low ``a`` transitions ``p -> q``, so verifier runs multiply.

    Each unfolding node reached by ``l1`` or ``l2`` pairs with low marking
    ``q`` twice, once per low twin; the high route ``h; l4`` gives the path
    through ``l5`` back to ``p`` its beta tag.
    """
    net = PetriNet(("p", "q", "r", "s"), ("h", "l1", "l2", "l3", "l4", "l5"),
                   [("p", "h"), ("h", "s"), ("p", "l1"), ("l1", "q"), ("p", "l2"), ("l2", "q"),
                    ("q", "l3"), ("l3", "r"), ("s", "l4"), ("l4", "q"), ("r", "l5"), ("l5", "p")],
                   (1, 0, 0, 0))
    return LabeledPetriNet(net, {"h": "h", "l1": "a", "l2": "a", "l3": "b", "l4": "a", "l5": "c"},
                           high_labels={"h"})


def test_verifier_pairs_repeat_where_low_runs_multiply():
    sv = build_sv(_twin_low_moves())
    pairings = list(zip(sv.ubrg_node, sv.low_marking))
    assert len(sv.nodes) == 19
    assert len(set(pairings)) < len(pairings)
    assert sv.beta_matched_numbers == (1,)


def test_tree_node_caps_refuse_cleanly(secure):
    with pytest.raises(NetError, match="node_cap"):
        build_ubrg(secure, node_cap=3)
    with pytest.raises(NetError, match="node_cap"):
        build_sv(secure, node_cap=3)
    # A tree of n nodes fits node_cap=n-1 and is refused at its last node
    # with node_cap=n-2; the verifier is sized before it is built, also
    # where one unfolding node pairs with one low marking more than once.
    # A negative cap is refused up front, also where the tree is a lone
    # root (n = 1), which a test made only when adding a child would miss,
    # and so is a cap that is not an int.
    big = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
    nets = ([secure, _twin_low_moves()] + [random_lpn(seed) for seed in range(1, 51)]
            + [random_lpn(24, big)])
    for lpn in nets:
        ubrg = build_ubrg(lpn)
        sv = build_sv(lpn, ubrg=ubrg)
        builds = ((len(ubrg.nodes), "unfolding", lambda cap: build_ubrg(lpn, node_cap=cap)),
                  (len(sv.nodes), "verifier tree",
                   lambda cap: build_sv(lpn, ubrg=ubrg, node_cap=cap)))
        for n, name, build in builds:
            assert len(build(n - 1).nodes) == n
            with pytest.raises(InvalidNetError) as refused:
                build(-1)
            assert str(refused.value) == "tree node cap must not be negative, got -1"
            for bad in (True, 2.5):
                with pytest.raises(InvalidNetError) as refused:
                    build(bad)
                assert str(refused.value) == f"tree node cap must be an int, got {bad!r}"
            if n > 1:
                with pytest.raises(NetError) as refused:
                    build(n - 2)
                assert str(refused.value) == (f"{name} exceeds {n - 2} nodes; "
                                              "raise node_cap to continue")


def test_weighted_arcs_round_trip_through_documents():
    from snnicheck.netdoc import parse_net, serialize_net
    net = PetriNet(("p", "q"), ("t",), {("p", "t"): 2, ("t", "q"): 3}, (4, 0))
    lpn = LabeledPetriNet(net, {"t": "a"})
    again = parse_net(serialize_net(lpn))
    assert again.net.weight == {("p", "t"): 2, ("t", "q"): 3}
    assert again.net.fire((4, 0), "t") == (2, 3)
