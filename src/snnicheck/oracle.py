"""Brute-force non-interference oracle by direct language comparison.

Deliberately naive: take the full reachability graph, erase high labels, and
compare against the low subnet's label language, read off the same graph's
low arcs, with an explicit shortest counterexample search.  This route never touches basis markings, minimal
explanations, or the unfolding, so it independently cross-checks the whole
pipeline.  The justification enumerator below plays the same oracle role for
basis markings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .explanations import minimality_filter
from .petri import (DEFAULT_EXPLORATION_CAP, InvalidNetError, LabeledPetriNet, LabelWord, Marking,
                    ParikhVector, TransitionSequence, _marking_equation, _require_count)
from .reach import low_language_within, projected_label_language
from .verifier import Verdict, _compare


@dataclass(frozen=True)
class JustificationSet:
    """Per low-label word: consistent low sequences with minimal high counts."""

    word: LabelWord
    pairs: frozenset[tuple[TransitionSequence, ParikhVector]]
    basis_markings: frozenset[Marking]
    complete: bool


def snni_oracle(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """Non-interference by definition: compare the two languages directly.

    The full net is explored once; the low subnet's language is read off its
    graph, the low arcs from the markings that low firings reach.
    """
    projected = projected_label_language(lpn, cap)
    low = low_language_within(lpn, projected, {t: t for t in lpn.low_transitions})
    check = _compare(projected, low)
    return Verdict(snni=check.equal, counterexample=check.counterexample)


def _word_atoms(lpn: LabeledPetriNet, word: Sequence[str] | str) -> LabelWord:
    atoms = tuple(word)
    for a in atoms:
        if not isinstance(a, str):
            raise InvalidNetError(f"word atoms must be label strings, got {a!r}")
        if a not in lpn.low_labels:
            raise InvalidNetError(f"{a!r} is not a low label of this net")
    return atoms


def justifications(lpn: LabeledPetriNet, word: Sequence[str] | str,
                   cap: int | None = None) -> JustificationSet:
    """All (low sequence, minimal high count vector) pairs consistent with ``word``.

    Exhaustive search over interleavings, deduplicated on (matched length,
    low sequence, high counts); ``cap`` bounds the total interleaving length
    and trips the ``complete`` flag when exceeded.  The default cap is derived
    from the reachable-marking count, which bounds every high run, so the
    default search is exhaustive; a net whose assumptions cannot be
    established within :data:`~snnicheck.petri.DEFAULT_EXPLORATION_CAP`
    markings (unbounded, too large, or with a high cycle) has no such count
    and is refused with :class:`~snnicheck.petri.AssumptionError`.  High
    firings after the word is fully matched are never minimal and are not
    explored.
    """
    atoms = _word_atoms(lpn, word)
    if cap is not None:
        _require_count("interleaving cap", cap, 1)
    net = lpn.net
    high = lpn.high_transitions
    if cap is None:
        x = lpn.require_assumptions(DEFAULT_EXPLORATION_CAP).reachable_count
        cap = len(atoms) + (len(atoms) + 1) * x
    zero = (0,) * len(high)
    raw: dict[TransitionSequence, set[ParikhVector]] = {}
    complete = True
    start = (net.initial_marking, 0, (), zero)
    stack = [start]
    seen = {(0, (), zero)}
    while stack:
        marking, matched, low_seq, high_vec = stack.pop()
        if matched == len(atoms):
            raw.setdefault(low_seq, set()).add(high_vec)
            continue
        if len(low_seq) + sum(high_vec) >= cap:
            complete = False
            continue
        for t in lpn.low_transitions:
            if lpn.label(t) == atoms[matched] and net.enabled(marking, t):
                key = (matched + 1, low_seq + (t,), high_vec)
                if key not in seen:
                    seen.add(key)
                    stack.append((net.fire(marking, t), matched + 1, low_seq + (t,), high_vec))
        for i, h in enumerate(high):
            if net.enabled(marking, h):
                bumped = high_vec[:i] + (high_vec[i] + 1,) + high_vec[i + 1:]
                key = (matched, low_seq, bumped)
                if key not in seen:
                    seen.add(key)
                    stack.append((net.fire(marking, h), matched, low_seq, bumped))

    pairs: set[tuple[TransitionSequence, ParikhVector]] = set()
    markings: set[Marking] = set()
    for low_seq, vectors in raw.items():
        for vec in minimality_filter(vectors):
            pairs.add((low_seq, vec))
            markings.add(_marking_equation(lpn, net.initial_marking, vec, low_seq))
    return JustificationSet(word=atoms, pairs=frozenset(pairs),
                            basis_markings=frozenset(markings), complete=complete)

