"""High-sequence explanations: which hidden firings enable a low transition.

An explanation of a low transition ``t`` at marking ``m`` is a sequence of
high transitions whose firing at ``m`` enables ``t``.  Only the Parikh-minimal
count vectors of such sequences matter downstream.

All low transitions at ``m`` share one search.  The high subnet is acyclic,
so the count vectors of the high runs from ``m`` form a finite DAG, and each
vector fixes its marking by the marking equation.  One breadth-first pass,
level by level over the total firing count, lists every such vector once,
with its marking and the first run that reached it.  Each low transition's
minimal vectors are then read off that list in order: a vector is kept when
the transition is enabled at its marking and no vector kept before lies
strictly below it.  A strictly smaller vector has a smaller total and is met
earlier, so what is kept is exactly the minimal set; a transition enabled at
``m`` itself has the zero vector alone, and its scan stops there.

The answers are kept lean: per marking, only the low transitions that have
vectors, each vector with its run's marking and the run.  The basis graph
reads its successors off those run markings, and the markings of all runs
are every marking reachable from ``m`` by high firings, which is what its
boundedness proof counts.  Both are cached together on the net;
:class:`MinimalExplanationSet` is built only for the public queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Mapping, Sequence

from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, AssumptionReport,
                    InvalidNetError, LabeledPetriNet, Marking, ParikhVector,
                    TransitionSequence, parikh, shift)


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


#: A minimal explanation: its vector, the marking its witness run reaches, the run.
Answer = tuple[ParikhVector, Marking, TransitionSequence]
#: Per marking: ``(t, minimal answers)`` for each low transition with any,
#: and the marking of every high run.
HighRunAnswers = tuple[tuple[tuple[str, tuple[Answer, ...]], ...], tuple[Marking, ...]]


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
    cached) before it runs.  ``cap`` also bounds the search itself, as in
    :func:`~snnicheck.basis.build_brg`: it is refused once it has listed more
    than ``cap`` count vectors, or its runs more than ``cap`` markings.
    """
    marking = _check_low_query(lpn, m, t)
    lpn.require_assumptions(cap)
    answers = high_run_answers(lpn, marking, set(), cap)[0]
    return _explanation_set(marking, t, dict(answers).get(t, ()))


def _explanation_set(marking: Marking, t: str,
                     found: tuple[Answer, ...]) -> MinimalExplanationSet:
    witnesses = {vector: run for vector, _, run in found}
    return MinimalExplanationSet(marking=marking, transition=t,
                                 evectors=frozenset(witnesses), witnesses=witnesses)


def high_run_answers(lpn: LabeledPetriNet, marking: Marking,
                     reachable: set[Marking], cap: int) -> HighRunAnswers:
    """Minimal explanations of every low transition at ``marking``, and the run markings.

    The first part lists, for each low transition that has any, in
    declaration order, its minimal vectors in lexicographic order, each with
    the marking its witness run reaches and the run itself.  The second part
    holds the marking of every high run from ``marking``, which is every
    marking reachable from it by high firings alone.  Nothing is validated;
    the search ends only when the high subnet is acyclic and every high
    transition has an input place or changes no token.  Both parts are cached
    on the net, keyed by marking, with the number of count vectors listed.

    The run markings are added to ``reachable`` level by level, and
    :class:`~snnicheck.petri.AssumptionError` is raised as soon as it holds
    more than ``cap`` markings, or the search more than ``cap`` count
    vectors, so the cap bounds the search itself.  A cached answer is used
    only when its count vectors are within ``cap``; otherwise the search
    runs again and is refused exactly as a first search would be.
    """
    cached = lpn._explanation_cache.get(marking)
    if cached is not None:
        result, vectors = cached
        if vectors <= cap:
            _count(reachable, result[1], cap)
            return result
    runs = _high_runs(lpn, marking, reachable, cap)
    answers = []
    for t in lpn.low_transitions:
        pre = lpn.net.pre[t]
        found: list[Answer] = []
        for run in runs:
            current = run[1]
            for i, need in pre:  # covers(current, pre), inlined
                if current[i] < need:
                    break
            else:
                vector = run[0]
                if not any(all(map(le, f[0], vector)) for f in found):
                    found.append(run)
                if current is marking:
                    break  # enabled outright: the zero vector alone is minimal
        if found:
            found.sort()
            answers.append((t, tuple(found)))
    result = (tuple(answers), tuple(r[1] for r in runs))
    lpn._explanation_cache[marking] = (result, len(runs))
    return result


def _count(reachable: set[Marking], markings: Iterable[Marking], cap: int) -> None:
    reachable.update(markings)
    if len(reachable) > cap:
        raise AssumptionError(AssumptionReport(
            bounded=None, reachable_count=None, domination_witness=None,
            high_subnet_acyclic=True, high_cycle=None, cap=cap).describe_failure())


def _high_runs(lpn: LabeledPetriNet, marking: Marking,
               reachable: set[Marking], cap: int) -> list[Answer]:
    """Every count vector of a high run from ``marking``, with its marking and first run.

    Listed level by level over the total firing count; within a level, in
    the order the vectors were first generated.  High transitions that
    change no token are left out: they cannot help enable anything, so they
    occur in no minimal vector, and counting their firings would never end.
    Each level's markings are counted into ``reachable`` before the next
    level is generated.  The cap then also bounds the count vectors,
    which high transitions with equal effects make far more numerous than
    the markings: once more than ``cap`` have been listed, the search stops
    before it generates the next level.
    """
    net = lpn.net
    moves = [(i, h, net.pre[h], net.delta[h]) for i, h in enumerate(lpn.high_transitions)
             if net.delta[h]]
    zero = (0,) * len(lpn.high_transitions)
    runs: list[Answer] = []
    level = [(zero, marking, ())]
    visited = {zero}
    while level:
        runs.extend(level)
        _count(reachable, [r[1] for r in level], cap)
        if len(visited) > cap:
            raise AssumptionError(f"boundedness unknown: exploration cap of {cap} "
                                  "count vectors exhausted by one high-run search")
        next_level = []
        for vector, current, seq in level:
            for i, h, pre, delta in moves:
                for p, need in pre:  # covers(current, pre), inlined
                    if current[p] < need:
                        break
                else:
                    extended = vector[:i] + (vector[i] + 1,) + vector[i + 1:]
                    if extended not in visited:
                        visited.add(extended)
                        next_level.append((extended, shift(current, delta), seq + (h,)))
        level = next_level
    return runs
