"""High-sequence explanations: which hidden firings enable a low transition.

An explanation of a low transition ``t`` at marking ``m`` is a sequence of
high transitions whose firing at ``m`` enables ``t``.  Only the Parikh-minimal
count vectors of such sequences matter downstream.

All low transitions at ``m`` share one search.  The high subnet is acyclic and
the net bounded, so the count vectors of the high runs from ``m`` form a
finite DAG, and each vector fixes its marking by the marking equation.  One
breadth-first pass, level by level over the total firing count, lists every
such vector once, with its marking and the first run that reached it.  Each
low transition's minimal vectors are then read off that list in order: a
vector is kept when the transition is enabled at its marking and no vector
kept before lies strictly below it.  A strictly smaller vector has a smaller
total and is met earlier, so what is kept is exactly the minimal set.  The
answers for every low transition at ``m`` are cached together on the net.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .petri import (DEFAULT_EXPLORATION_CAP, InvalidNetError, LabeledPetriNet,
                    Marking, ParikhVector, TransitionSequence, covers, parikh, shift)


@dataclass(frozen=True)
class Explanation:
    """A firable high-transition sequence together with its count vector."""

    sequence: TransitionSequence
    evector: ParikhVector


@dataclass(frozen=True)
class MinimalExplanationSet:
    """All Parikh-minimal explanation vectors of one (marking, transition) query."""

    marking: Marking
    transition: str
    evectors: frozenset[ParikhVector]
    witnesses: Mapping[ParikhVector, TransitionSequence]


def _strictly_below(a: ParikhVector, b: ParikhVector) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def minimality_filter(candidates: Iterable[ParikhVector]) -> set[ParikhVector]:
    """Keep exactly the vectors not strictly dominated by another candidate."""
    pool = {tuple(v) for v in candidates}
    return {v for v in pool if not any(_strictly_below(w, v) for w in pool)}


def _check_low_query(lpn: LabeledPetriNet, m: Sequence[int], t: str) -> Marking:
    marking = lpn.net.check_marking(m)
    lpn.net.check_transition(t)
    if not lpn.is_low(t):
        raise InvalidNetError(f"explanations are defined for low transitions only, {t} is high")
    return marking


def explanations_bounded(lpn: LabeledPetriNet, m: Sequence[int], t: str,
                         len_cap: int) -> set[Explanation]:
    """Enumerate every high sequence of length <= ``len_cap`` enabling ``t`` at ``m``.

    Exhaustive (hence oracle-grade) whenever ``len_cap`` covers the longest
    firable high sequence, which exists under the standing assumptions.
    """
    marking = _check_low_query(lpn, m, t)
    if len_cap <= 0:
        raise InvalidNetError(f"length cap must be positive, got {len_cap}")
    net = lpn.net
    high = lpn.high_transitions
    results: set[Explanation] = set()
    stack: list[tuple[Marking, TransitionSequence]] = [(marking, ())]
    while stack:
        current, seq = stack.pop()
        if net.enabled(current, t):
            results.add(Explanation(seq, parikh(seq, high)))
        if len(seq) >= len_cap:
            continue
        for h in high:
            if net.enabled(current, h):
                stack.append((net.fire(current, h), seq + (h,)))
    return results


def minimal_e_vectors(lpn: LabeledPetriNet, m: Sequence[int], t: str,
                      cap: int = DEFAULT_EXPLORATION_CAP) -> MinimalExplanationSet:
    """Compute the Parikh-minimal explanation vectors of ``t`` at ``m``.

    The answer is read off the shared high-run search from ``m`` (see the
    module docstring): exactly the minimal set, each vector paired with its
    first witness sequence in breadth-first order.  The search terminates
    because of both standing assumptions, which are verified (and the report
    cached) before it runs.
    """
    marking = _check_low_query(lpn, m, t)
    lpn.require_assumptions(cap)
    return minimal_e_vectors_at(lpn, marking)[t]


def minimal_e_vectors_at(lpn: LabeledPetriNet,
                         marking: Marking) -> dict[str, MinimalExplanationSet]:
    """Minimal explanation sets of every low transition at ``marking``.

    For callers that have already required the standing assumptions and pass
    a marking of the net's own making; nothing is validated here.
    """
    cached = lpn._explanation_cache.get(marking)
    if cached is not None:
        return cached
    runs = _high_runs(lpn, marking)
    result: dict[str, MinimalExplanationSet] = {}
    for t in lpn.low_transitions:
        pre = lpn.net.pre[t]
        found: dict[ParikhVector, TransitionSequence] = {}
        for vector, current, seq in runs:
            if covers(current, pre) and not any(_strictly_below(f, vector) for f in found):
                found[vector] = seq
        result[t] = MinimalExplanationSet(marking=marking, transition=t,
                                          evectors=frozenset(found), witnesses=found)
    lpn._explanation_cache[marking] = result
    return result


def _high_runs(lpn: LabeledPetriNet,
               marking: Marking) -> list[tuple[ParikhVector, Marking, TransitionSequence]]:
    """Every count vector of a high run from ``marking``, with its marking and first run.

    Listed level by level over the total firing count; within a level, in
    the order the vectors were first generated.
    """
    net = lpn.net
    moves = [(i, h, net.pre[h], net.delta[h]) for i, h in enumerate(lpn.high_transitions)]
    zero = (0,) * len(moves)
    runs: list[tuple[ParikhVector, Marking, TransitionSequence]] = []
    level = [(zero, marking, ())]
    visited = {zero}
    while level:
        runs.extend(level)
        next_level = []
        for vector, current, seq in level:
            for i, h, pre, delta in moves:
                if not covers(current, pre):
                    continue
                extended = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                if extended in visited:
                    continue
                visited.add(extended)
                next_level.append((extended, shift(current, delta), seq + (h,)))
        level = next_level
    return runs
