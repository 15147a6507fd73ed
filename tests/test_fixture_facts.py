"""The textual facts the demo nets were built to satisfy, asserted directly.

The secure demo was reconstructed from a known set of behavioral constraints;
this module pins each of them so any rewiring of the fixture fails loudly.
The parametric families are pinned by their closed-form sizes and verdicts.
"""

from __future__ import annotations

from math import comb

import pytest

from snnicheck.basis import build_brg
from snnicheck.explanations import explanations_bounded
from snnicheck.fixtures import equal_effect, hidden_choice
from snnicheck.language import word_in_language
from snnicheck.oracle import snni_oracle
from snnicheck.petri import InvalidNetError, check_assumptions
from snnicheck.reach import low_label_language, projected_label_language


def test_label_sharing(secure):
    assert secure.label("l1") == secure.label("l8") == "a"
    assert secure.label("l3") == secure.label("l5") == "c"
    assert secure.label("l2") == secure.label("l9") == "b"
    assert secure.label("l4") == secure.label("l6") == "d"
    assert secure.alphabet == {"a", "b", "c", "d", "e", "f", "g"}
    assert secure.high_labels == {"f", "g"}


def test_leaky_differs_only_in_one_label(secure, leaky):
    assert leaky.label("l2") == "c"
    differing = [t for t in secure.net.transitions
                 if secure.label(t) != leaky.label(t)]
    assert differing == ["l2"]
    assert secure.net.weight == leaky.net.weight


def test_high_gated_branches_have_low_twins(secure):
    net = secure.net
    m0 = net.initial_marking
    # The hidden-gated branch l3 l4 and its low twin l5 l6 emit equal words.
    assert secure.label_word(("l3", "l4")) == secure.label_word(("l5", "l6"))
    net.fire_sequence(m0, ("h2", "l3", "l4"))
    net.fire_sequence(m0, ("l5", "l6"))
    # The hidden-gated loop (l1 l2)* and the low loop (l8 l9)* stay in step.
    for repetitions in range(1, 4):
        gated = ("h1",) + ("l1", "l2") * repetitions
        twin = ("l8", "l9") * repetitions
        net.fire_sequence(m0, gated)
        net.fire_sequence(m0, twin)
        assert secure.label_word(gated[1:]) == secure.label_word(twin)


def test_loop_words_lie_in_both_languages(secure):
    projected = projected_label_language(secure)
    low = low_label_language(secure)
    for repetitions in range(4):
        word = ("a", "b") * repetitions
        assert word_in_language(projected, word)
        assert word_in_language(low, word)
        assert word_in_language(projected, word + ("a",))
        assert word_in_language(low, word + ("a",))


def test_explanation_sets_of_the_two_branches(secure):
    m0 = secure.net.initial_marking
    assert {e.sequence for e in explanations_bounded(secure, m0, "l3", 4)} == {("h2",)}
    assert {e.sequence for e in explanations_bounded(secure, m0, "l5", 4)} == {()}


def _sizes(lpn) -> tuple[int, int]:
    """(reachable markings, basis markings)."""
    return check_assumptions(lpn).reachable_count, len(build_brg(lpn).nfa.states)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hidden_choice_sizes_and_verdicts(k):
    assert _sizes(hidden_choice(k)) == (3 ** k, 2 ** k)
    assert _sizes(hidden_choice(k, leaky=True)) == (3 ** k, 2 ** k)
    plain, twin = snni_oracle(hidden_choice(k)), snni_oracle(hidden_choice(k, leaky=True))
    assert (plain.snni, plain.counterexample) == (True, None)
    assert (twin.snni, twin.counterexample) == (False, ("x0",))


@pytest.mark.parametrize("n, c", [(1, 1), (2, 5), (3, 7), (4, 20)])
def test_equal_effect_sizes_and_verdict(n, c):
    lpn = equal_effect(n, c)
    assert _sizes(lpn) == (comb(c + 2, 2), c + 1)
    verdict = snni_oracle(lpn)
    assert (verdict.snni, verdict.counterexample) == (False, ("a",))


@pytest.mark.parametrize("family, args", [
    (equal_effect, (0, 3)),
    (equal_effect, (2, 0)),
    (hidden_choice, (0, True)),
], ids=["equal_effect(0, 3)", "equal_effect(2, 0)", "hidden_choice(0, leaky)"])
def test_families_reject_sizes_without_their_leak(family, args):
    # Each of these sizes would build an SNNI net, not the leaky one promised.
    with pytest.raises(InvalidNetError):
        family(*args)
