from __future__ import annotations

import pytest

from snnicheck.basis import build_brg
from snnicheck.fixtures import demo_unbounded
from snnicheck.language import (bounded_language, language_equal,
                                word_in_language)
from snnicheck.nfa import Nfa
from snnicheck.oracle import justifications, snni_oracle
from snnicheck.petri import AssumptionError, InvalidNetError, LabeledPetriNet, PetriNet
from snnicheck.reach import (low_label_language, projected_label_language,
                             reachability_graph)

from conftest import BASIS_M0, BASIS_M2


def test_reachability_counts(secure):
    assert len(reachability_graph(secure.net).nfa.states) == 9
    low = secure.low_subnet()
    assert len(reachability_graph(low.net).nfa.states) == 5


def test_reachability_no_transitions():
    net = PetriNet(("p",), (), [], (1,))
    assert len(reachability_graph(net).nfa.states) == 1


def test_reachability_refuses_unbounded():
    with pytest.raises(AssumptionError):
        reachability_graph(demo_unbounded().net)


def test_reachability_cap_exhaustion(secure):
    with pytest.raises(AssumptionError):
        reachability_graph(secure.net, cap=2)


def test_projected_language_membership(secure, leaky):
    projected = projected_label_language(secure)
    assert word_in_language(projected, ())
    assert word_in_language(projected, ("a", "b"))
    # Both routes to "ab" exist: hidden-then-low and low-only.
    assert secure.label_word(("l1", "l2")) == ("a", "b")
    assert secure.net.fire_sequence(secure.net.initial_marking, ("h1", "l1", "l2"))
    assert secure.net.fire_sequence(secure.net.initial_marking, ("l8", "l9"))
    assert word_in_language(projected_label_language(leaky), ("a", "c"))


def test_language_equal_on_fixtures(secure, leaky):
    check = language_equal(projected_label_language(secure), low_label_language(secure))
    assert check.equal
    assert check.counterexample is None
    check = language_equal(projected_label_language(leaky), low_label_language(leaky))
    assert not check.equal
    assert check.counterexample == ("a", "c")
    assert check.counterexample_side == "left"


def test_language_equal_self(secure):
    projected = projected_label_language(secure)
    assert language_equal(projected, projected).equal


def test_language_equal_counterexample_replay(leaky):
    left = projected_label_language(leaky)
    right = low_label_language(leaky)
    check = language_equal(left, right)
    assert word_in_language(left, check.counterexample)
    assert not word_in_language(right, check.counterexample)
    # Symmetric verdict, mirrored side.
    mirrored = language_equal(right, left)
    assert not mirrored.equal
    assert mirrored.counterexample_side == "right"


def test_snni_oracle_fixtures(secure, leaky):
    assert snni_oracle(secure).snni
    verdict = snni_oracle(leaky)
    assert not verdict.snni
    assert verdict.counterexample == ("a", "c")


def test_snni_oracle_trivial_without_high(secure):
    assert snni_oracle(secure.low_subnet()).snni


def test_justifications_of_ab(secure):
    result = justifications(secure, "ab")
    assert result.complete
    assert result.pairs == {(("l1", "l2"), (1, 0)), (("l8", "l9"), (0, 0))}
    assert result.basis_markings == {BASIS_M2, BASIS_M0}


def test_justifications_empty_word(secure):
    result = justifications(secure, ())
    assert result.pairs == {((), (0, 0))}
    assert result.basis_markings == {BASIS_M0}


def test_justifications_reject_non_low_symbol(secure):
    with pytest.raises(InvalidNetError):
        justifications(secure, "f")
    with pytest.raises(InvalidNetError):
        justifications(secure, "z")


def test_justifications_cap_flag(secure):
    truncated = justifications(secure, "ab", cap=1)
    assert not truncated.complete


def test_justifications_default_cap_refuses_what_cannot_be_explored():
    # The default cap comes from the reachable-marking count, so a net with
    # no such count within the exploration cap is refused, not searched short.
    with pytest.raises(AssumptionError, match="net is unbounded"):
        justifications(demo_unbounded(), ())
    # 40 tokens spread over four places by high firings: 135,751 markings.
    places = ("p", "q1", "q2", "q3", "q4")
    highs = ("h1", "h2", "h3", "h4")
    arcs = [a for i, h in enumerate(highs, 1) for a in (("p", h), (h, f"q{i}"))]
    lpn = LabeledPetriNet(PetriNet(places, highs, arcs, (40, 0, 0, 0, 0)),
                          {h: "f" for h in highs}, high_labels={"f"})
    with pytest.raises(AssumptionError) as refused:
        justifications(lpn, ())
    assert str(refused.value) == ("boundedness unknown: exploration cap of 100000 "
                                  "markings exhausted")
    # An explicit cap needs no count and still searches.
    assert justifications(lpn, (), cap=5).pairs == {((), (0, 0, 0, 0))}


def test_justification_vectors_form_antichains(secure, leaky):
    for lpn in (secure, leaky):
        for word in bounded_language(projected_label_language(lpn), 3):
            result = justifications(lpn, word)
            per_sequence: dict = {}
            for seq, vec in result.pairs:
                per_sequence.setdefault(seq, set()).add(vec)
            for vectors in per_sequence.values():
                for a in vectors:
                    for b in vectors:
                        if a != b:
                            assert not all(x <= y for x, y in zip(a, b))


def test_basis_marking_agreement_with_brg(secure):
    # The basis markings collected from justifications over all short words
    # exhaust the basis graph's state set (depth 3 suffices on this net).
    brg = build_brg(secure)
    union = set()
    for word in bounded_language(projected_label_language(secure), 3):
        union |= justifications(secure, word).basis_markings
    assert union == set(brg.basis_markings)


def test_low_language_included_in_projection(secure, leaky):
    for lpn in (secure, leaky):
        projected = projected_label_language(lpn)
        for word in bounded_language(low_label_language(lpn), 4):
            assert word_in_language(projected, word)


def test_bounded_language_words(secure):
    low_words = bounded_language(low_label_language(secure), 2)
    assert low_words == {(), ("a",), ("c",), ("a", "b"), ("c", "d")}


def test_empty_automaton_language():
    empty = Nfa(["s0"], [], [], labeling={})
    nonempty = Nfa(["s0"], [], ["s0"], labeling={})
    assert not word_in_language(empty, ())
    assert word_in_language(nonempty, ())
    assert bounded_language(empty, 3) == set()
    check = language_equal(nonempty, empty)
    assert not check.equal
    assert check.counterexample == ()
    assert check.counterexample_side == "left"
    assert language_equal(empty, empty).equal
    with pytest.raises(InvalidNetError, match="automaton carries no labeling"):
        bounded_language(Nfa(["s0"], [], ["s0"]), 1)


def test_oracle_verdict_reports_only_leaks():
    net = PetriNet(("p", "q"), ("h", "l"),
                   [("p", "h"), ("h", "q"), ("q", "l")], (1, 0))
    lpn = LabeledPetriNet(net, {"h": "f", "l": "a"}, high_labels={"f"})
    verdict = snni_oracle(lpn)
    assert not verdict.snni
    assert verdict.counterexample == ("a",)
