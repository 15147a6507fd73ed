from __future__ import annotations

import time

import pytest
from hypothesis import given, strategies as st

from snnicheck import explanations, petri
from snnicheck.basis import build_brg
from snnicheck.explanations import (Explanation, explanations_bounded, high_run_answers,
                                    minimal_e_vector_sets, minimal_e_vectors, minimality_filter,
                                    search_tables)
from snnicheck.fixtures import demo_unbounded
from snnicheck.petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, InvalidNetError,
                             LabeledPetriNet, PetriNet, check_assumptions, covers,
                             explore_markings)

from conftest import bounded_nets, record_calls


def test_explanation_sets_at_initial(secure):
    m0 = secure.net.initial_marking
    found = explanations_bounded(secure, m0, "l1", len_cap=4)
    assert found == {Explanation(("h1",), (1, 0))}
    found = explanations_bounded(secure, m0, "l5", len_cap=4)
    assert found == {Explanation((), (0, 0))}


def test_explanations_empty_when_nothing_helps(secure):
    # l2 needs p3, which no high sequence can mark from the initial marking.
    assert explanations_bounded(secure, secure.net.initial_marking, "l2", len_cap=6) == set()
    # On a chain of two high transitions, a length cap of 1 stops the search
    # before the one explanation, which a cap of 2 finds.
    chain = LabeledPetriNet(PetriNet(("p0", "p1", "p2"), ("h1", "h2", "l"),
                                     [("p0", "h1"), ("h1", "p1"), ("p1", "h2"), ("h2", "p2"),
                                      ("p2", "l")], (1, 0, 0)),
                            {"h1": "f", "h2": "g", "l": "a"}, high_labels={"f", "g"})
    assert explanations_bounded(chain, (1, 0, 0), "l", len_cap=1) == set()
    assert explanations_bounded(chain, (1, 0, 0), "l", len_cap=2) == {
        Explanation(("h1", "h2"), (1, 1))}


@pytest.mark.parametrize("len_cap, message", [
    (0, "length cap must be positive, got 0"),
    (True, "length cap must be an int, got True"),
    (1.5, "length cap must be an int, got 1.5"),
])
def test_explanations_bounded_refuses_bad_length_caps(secure, len_cap, message):
    with pytest.raises(InvalidNetError) as refused:
        explanations_bounded(secure, secure.net.initial_marking, "l1", len_cap=len_cap)
    assert str(refused.value) == message


def test_explanations_reject_high_transition(secure):
    with pytest.raises(InvalidNetError):
        explanations_bounded(secure, secure.net.initial_marking, "h1", len_cap=3)
    with pytest.raises(InvalidNetError):
        minimal_e_vectors(secure, secure.net.initial_marking, "h1")


def test_minimal_e_vectors_examples(secure):
    m0 = secure.net.initial_marking
    assert minimal_e_vectors(secure, m0, "l1").evectors == {(1, 0)}
    assert minimal_e_vectors(secure, m0, "l5").evectors == {(0, 0)}
    assert minimal_e_vectors(secure, m0, "l2").evectors == frozenset()


def test_minimal_e_vectors_witnesses(secure):
    m0 = secure.net.initial_marking
    result = minimal_e_vectors(secure, m0, "l1")
    assert result.witnesses[(1, 0)] == ("h1",)
    high_net = secure.net.induced_subnet(secure.high_transitions)
    for vector, witness in result.witnesses.items():
        after = high_net.fire_sequence(m0, witness)
        assert secure.net.enabled(after, result.transition)


def test_an_empty_query_checks_its_cap_and_explores_nothing(secure, monkeypatch):
    m0 = secure.net.initial_marking
    for bad, message in ((1.5, "must be an int, got 1.5"), (0, "must be positive, got 0")):
        with pytest.raises(InvalidNetError) as refused:
            minimal_e_vector_sets(secure, m0, (), cap=bad)
        assert str(refused.value) == f"exploration cap {message}"
    explored = record_calls(monkeypatch, petri, ("explore_markings",))
    assert minimal_e_vector_sets(secure, m0, (), cap=1) == {}
    assert explored == []


def test_minimal_e_vectors_requires_assumptions():
    with pytest.raises(AssumptionError):
        minimal_e_vectors(demo_unbounded(), (0,), "t")


def test_minimality_filter():
    assert minimality_filter({(1, 0), (1, 1)}) == {(1, 0)}
    assert minimality_filter({(1, 0), (0, 1)}) == {(1, 0), (0, 1)}
    assert minimality_filter(set()) == set()


_vectors = st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
                   max_size=12)


@given(_vectors)
def test_minimality_filter_properties(candidates):
    kept = minimality_filter(candidates)
    assert kept <= candidates
    for a in kept:
        for b in kept:
            if a != b:
                assert not all(x <= y for x, y in zip(a, b))
    for c in candidates:
        assert any(all(x <= y for x, y in zip(k, c)) for k in kept)


def test_zero_vector_law(secure):
    # Wherever the transition is enabled outright, the zero vector is the
    # unique minimal explanation; otherwise zero never appears.
    zero = (0, 0)
    for m in explore_markings(secure.net, cap=100).markings:
        for t in secure.low_transitions:
            vectors = minimal_e_vectors(secure, m, t).evectors
            if secure.net.enabled(m, t):
                assert vectors == {zero}
            else:
                assert zero not in vectors


def test_oracle_equivalence_on_fixture(secure):
    # Exhaustive enumeration cap: a firable high sequence never repeats a
    # marking, so the net's reachable-marking count bounds its length.
    cap = len(explore_markings(secure.net, cap=100).markings) + 1
    for m in explore_markings(secure.net, cap=100).markings:
        for t in secure.low_transitions:
            enumerated = {e.evector
                          for e in explanations_bounded(secure, m, t, len_cap=cap)}
            expected = minimality_filter(enumerated)
            result = minimal_e_vectors(secure, m, t)
            assert result.evectors == expected
            for a in result.evectors:
                for b in result.evectors:
                    if a != b:
                        assert not all(x <= y for x, y in zip(a, b))


def test_antichain_and_soundness_on_leaky(leaky):
    high_net = leaky.net.induced_subnet(leaky.high_transitions)
    for m in explore_markings(leaky.net, cap=100).markings:
        for t in leaky.low_transitions:
            result = minimal_e_vectors(leaky, m, t)
            for vector in result.evectors:
                witness = result.witnesses[vector]
                after = high_net.fire_sequence(m, witness)
                assert leaky.net.enabled(after, t)


def test_minimal_e_vectors_cap_bounds_the_high_run_search():
    # Four high transitions p -> q with the same effect and a low l: q -> r.
    # With 20 tokens the net has 231 reachable markings, but the search from
    # the initial marking has 10,626 count vectors; the cap bounds those too,
    # so the query is refused as the basis graph refuses it.
    highs = ("h1", "h2", "h3", "h4")
    arcs = [a for h in highs for a in (("p", h), (h, "q"))] + [("q", "l"), ("l", "r")]
    net = PetriNet(("p", "q", "r"), highs + ("l",), arcs, (20, 0, 0))
    lpn = LabeledPetriNet(net, {**{h: "f" for h in highs}, "l": "a"}, high_labels={"f"})
    assert check_assumptions(lpn, cap=1000).reachable_count == 231
    start = time.perf_counter()
    with pytest.raises(AssumptionError) as refused:
        minimal_e_vectors(lpn, (20, 0, 0), "l", cap=1000)
    assert time.perf_counter() - start < 1.0
    assert str(refused.value) == ("boundedness unknown: exploration cap of 1000 count vectors "
                                  "exhausted by one high-run search")
    assert minimal_e_vectors(lpn, (20, 0, 0), "l", cap=20_000).evectors == {
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def _drained_and_raised(tokens: int) -> LabeledPetriNet:
    """High ``h: p -> q``; low ``l`` needs two tokens on ``p``, low ``m`` one on ``q``.

    ``h`` drains the one input place of ``l`` and raises that of ``m``.
    """
    net = PetriNet(("p", "q", "r"), ("h", "l", "m"),
                   [("p", "h"), ("h", "q"), ("p", "l", 2), ("l", "r"), ("q", "m"), ("m", "r")],
                   (tokens, 0, 0))
    return LabeledPetriNet(net, {"h": "f", "l": "a", "m": "b"}, high_labels={"f"})


@pytest.mark.parametrize("tokens, l_vectors, m_vectors", [
    (2, {(0,)}, {(1,)}),   # l enabled at the marking: the zero vector alone
    (1, set(), {(1,)}),    # l disabled there, and h only drains its input
    (0, set(), set()),
], ids=["enabled", "disabled", "empty"])
def test_a_low_transition_no_high_firing_feeds_is_tested_at_the_marking(
        tokens, l_vectors, m_vectors):
    lpn = _drained_and_raised(tokens)
    tables = search_tables(lpn)
    assert [(t, raised) for t, _, raised in tables.low] == [("l", False), ("m", True)]
    m0 = lpn.net.initial_marking
    answers = dict(high_run_answers(tables, m0, set(), DEFAULT_EXPLORATION_CAP))
    for t, expected in (("l", l_vectors), ("m", m_vectors)):
        assert {y for y, _, _ in answers.get(t, ())} == expected
        brute = explanations_bounded(lpn, m0, t, len_cap=tokens + 1)
        assert minimality_filter(e.evector for e in brute) == expected
    if l_vectors:
        assert answers["l"] == ((tables.zero, m0, ()),)


def _full_scan_answers(lpn: LabeledPetriNet, marking, cap: int):
    """Every low transition tested against every high run: the scan without the skip rule."""
    runs = explanations._high_runs(search_tables(lpn), marking, set(), cap)
    answers = []
    for t in lpn.low_transitions:
        found = []
        for run in runs:
            if covers(run[1], lpn.net.pre[t]) and not any(
                    all(a <= b for a, b in zip(f[0], run[0])) for f in found):
                found.append(run)
        if found:
            answers.append((t, tuple(sorted(found))))
    return tuple(answers)


def test_high_run_answers_equal_the_full_scan_at_every_basis_state():
    skipped = 0
    for name, lpn in bounded_nets():
        tables = search_tables(lpn)
        skipped += sum(not raised for _, _, raised in tables.low)
        for m in build_brg(lpn).nfa.states:
            assert high_run_answers(tables, m, set(), DEFAULT_EXPLORATION_CAP) == \
                _full_scan_answers(lpn, m, DEFAULT_EXPLORATION_CAP), (name, m)
    assert skipped > 0
