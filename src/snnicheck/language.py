"""Label-language operations on automata whose states all accept.

Every automaton this package builds recognizes a prefix-closed language with
every state accepting, so a word belongs to the language exactly when its
ε-closed state set is non-empty.  That collapses equality checking to a
determinized pair search and membership to set simulation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Hashable, Iterable, Mapping, Sequence

from .nfa import EPSILON, Nfa
from .petri import InvalidNetError, LabelWord, _refuse_bare_string, _require_count


@dataclass(frozen=True)
class LanguageCheckResult:
    equal: bool
    counterexample: LabelWord | None = None
    #: Which automaton accepts the counterexample: "left" or "right".
    counterexample_side: str | None = None


def _labeling(nfa: Nfa) -> Mapping[Hashable, str]:
    if nfa.labeling is None:
        raise InvalidNetError("automaton carries no labeling")
    return nfa.labeling


def epsilon_closure(nfa: Nfa, states: Iterable[Hashable]) -> frozenset:
    labeling = _labeling(nfa)
    closure = set(states)
    stack = list(closure)
    while stack:
        s = stack.pop()
        for e, d in nfa.arcs_from(s):
            if labeling[e] == EPSILON and d not in closure:
                closure.add(d)
                stack.append(d)
    return frozenset(closure)


def label_step(nfa: Nfa, states: Iterable[Hashable], symbol: str) -> frozenset:
    """ε-closed successor set after reading one label symbol."""
    labeling = _labeling(nfa)
    targets = {d for s in states for e, d in nfa.arcs_from(s) if labeling[e] == symbol}
    return epsilon_closure(nfa, targets) if targets else frozenset()


def _alphabet(nfa: Nfa) -> list[str]:
    """The visible labels of the arcs' events."""
    labeling = _labeling(nfa)
    return sorted({labeling[e] for _, e, _ in nfa.arcs} - {EPSILON})


def word_in_language(nfa: Nfa, word: Sequence[str]) -> bool:
    """Membership in the prefix-closed, all-states-accepting label language.

    ``word`` is a sequence of labels; a bare string is refused, not split
    into one-character labels.
    """
    _refuse_bare_string("a word", word)
    current = epsilon_closure(nfa, nfa.initial)
    if not current:
        return False  # no initial state: empty language, not even ε
    for symbol in word:
        current = label_step(nfa, current, symbol)
        if not current:
            return False
    return True


def bounded_language(nfa: Nfa, max_len: int) -> set[LabelWord]:
    """All label words of length <= ``max_len``, as tuples of symbols."""
    _require_count("word length bound", max_len, 0)
    alphabet = _alphabet(nfa)
    start = epsilon_closure(nfa, nfa.initial)
    if not start:
        return set()
    frontier: dict[LabelWord, frozenset] = {(): start}
    words: set[LabelWord] = {()}
    for _ in range(max_len):
        next_frontier: dict[LabelWord, frozenset] = {}
        for word, states in frontier.items():
            for symbol in alphabet:
                successors = label_step(nfa, states, symbol)
                if successors:
                    next_frontier[word + (symbol,)] = successors
        words.update(next_frontier)
        frontier = next_frontier
        if not frontier:
            break
    return words


def language_equal(left: Nfa, right: Nfa) -> LanguageCheckResult:
    """Compare two prefix-closed label languages; find the shortest difference.

    Breadth-first determinized pair search; the first pair where exactly one
    side dies yields the shortest (and lexicographically least among equals)
    counterexample word.
    """
    alphabet = sorted(set(_alphabet(left)) | set(_alphabet(right)))
    start = (epsilon_closure(left, left.initial), epsilon_closure(right, right.initial))
    if bool(start[0]) != bool(start[1]):
        return LanguageCheckResult(False, (), "left" if start[0] else "right")
    if not start[0]:
        return LanguageCheckResult(True)
    queue: deque[tuple[frozenset, frozenset, LabelWord]] = deque([(start[0], start[1], ())])
    visited = {start}
    while queue:
        left_states, right_states, word = queue.popleft()
        for symbol in alphabet:
            next_left = label_step(left, left_states, symbol)
            next_right = label_step(right, right_states, symbol)
            if bool(next_left) != bool(next_right):
                side = "left" if next_left else "right"
                return LanguageCheckResult(False, word + (symbol,), side)
            if not next_left:
                continue
            key = (next_left, next_right)
            if key not in visited:
                visited.add(key)
                queue.append((next_left, next_right, word + (symbol,)))
    return LanguageCheckResult(True)
