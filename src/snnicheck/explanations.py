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
``m`` itself has the zero vector alone, and its scan stops there.  A
transition none of whose input places any high firing raises is not scanned
at all: high firings only lower those places, so it is tested at ``m``
alone.  The high moves and these per-transition facts are the net's
:class:`SearchTables`, which the basis graph builds once for all its
searches.

The answers are kept lean: per marking, only the low transitions that have
vectors, each vector with its run's marking and the run.  The basis graph
reads its successors off those run markings, and counts the markings of all
runs, every marking reachable from ``m`` by high firings, for its
boundedness proof.  The search is a pure function of the net's tables, the
marking and the cap: nothing is stored on the net.
:class:`MinimalExplanationSet` is built only for the public queries, which
answer several low transitions from one search.  They check the standing
assumptions first with
:meth:`~snnicheck.petri.LabeledPetriNet.require_assumptions`, whose passing
report is the net's one memo; the basis graph carries its own report and
stores none, so the first query on a net explores the full net once.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import le
from typing import Iterable, Mapping, NamedTuple, Sequence

from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, InvalidNetError,
                    LabeledPetriNet, Marking, ParikhVector, TransitionSequence,
                    _require_count, parikh, shift)


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
#: Per marking: ``(t, minimal answers)`` for each low transition with any.
HighRunAnswers = tuple[tuple[str, tuple[Answer, ...]], ...]
#: Sparse ``(place index, count)`` pairs, as in a net's ``pre`` and ``delta``.
Sparse = tuple[tuple[int, int], ...]


def _strictly_below(a: ParikhVector, b: ParikhVector) -> bool:
    return a != b and all(x <= y for x, y in zip(a, b))


def minimality_filter(candidates: Iterable[ParikhVector]) -> set[ParikhVector]:
    """Keep exactly the vectors not strictly dominated by another candidate."""
    pool = {tuple(v) for v in candidates}
    return {v for v in pool if not any(_strictly_below(w, v) for w in pool)}


def _check_low_query(lpn: LabeledPetriNet, m: Sequence[int],
                     transitions: Sequence[str]) -> Marking:
    marking = lpn.net.check_marking(m)
    for t in transitions:
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
    marking = _check_low_query(lpn, m, (t,))
    _require_count("length cap", len_cap, 1)
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

    One query of :func:`minimal_e_vector_sets`: exactly the minimal set,
    each vector paired with its first witness sequence in breadth-first
    order.  Each call runs its own search.
    """
    return minimal_e_vector_sets(lpn, m, (t,), cap)[t]


def minimal_e_vector_sets(lpn: LabeledPetriNet, m: Sequence[int], transitions: Sequence[str],
                          cap: int = DEFAULT_EXPLORATION_CAP) -> dict[str, MinimalExplanationSet]:
    """The minimal explanation set of each low transition in ``transitions`` at ``m``.

    All of them are read off one high-run search from ``m`` (see the module
    docstring).  The search terminates because of both standing
    assumptions, which :meth:`~snnicheck.petri.LabeledPetriNet.require_assumptions`
    verifies before it runs: a full exploration the first time, after
    which the net's memo answers every cap that covers its marking count.
    ``cap`` also bounds the search itself, as in
    :func:`~snnicheck.basis.build_brg`: it is refused once it has listed
    more than ``cap`` count vectors, or its runs more than ``cap`` markings.
    An empty ``transitions`` checks only the marking and the cap.
    """
    marking = _check_low_query(lpn, m, transitions)
    _require_count("exploration cap", cap, 1)
    if not transitions:
        return {}
    lpn.require_assumptions(cap)
    answers = dict(high_run_answers(search_tables(lpn), marking, set(), cap))
    sets = {}
    for t in transitions:
        witnesses = {vector: run for vector, _, run in answers.get(t, ())}
        sets[t] = MinimalExplanationSet(marking=marking, transition=t,
                                        evectors=frozenset(witnesses), witnesses=witnesses)
    return sets


class SearchTables(NamedTuple):
    """What every high-run search on one net reads, built once per net."""

    #: ``(index, transition, pre, delta)`` of each high transition that changes a token.
    moves: tuple[tuple[int, str, Sparse, Sparse], ...]
    #: The zero count vector over the high transitions.
    zero: ParikhVector
    #: ``(transition, pre, raised)`` per low transition, in declaration order;
    #: ``raised`` says whether some high move adds tokens to one of its input places.
    low: tuple[tuple[str, Sparse, bool], ...]


def search_tables(lpn: LabeledPetriNet) -> SearchTables:
    """The move tables of :func:`high_run_answers` for ``lpn``."""
    pre, delta = lpn.net.pre, lpn.net.delta
    moves = []
    raised = set()
    for i, h in enumerate(lpn.high_transitions):
        if delta[h]:
            moves.append((i, h, pre[h], delta[h]))
            for p, d in delta[h]:
                if d > 0:
                    raised.add(p)
    low = []
    for t in lpn.low_transitions:
        for p, _ in pre[t]:
            if p in raised:
                low.append((t, pre[t], True))
                break
        else:
            low.append((t, pre[t], False))
    return SearchTables(tuple(moves), (0,) * len(lpn.high_transitions), tuple(low))


def high_run_answers(tables: SearchTables, marking: Marking,
                     reachable: set[Marking], cap: int) -> HighRunAnswers:
    """Minimal explanations of every low transition at ``marking``, from one search.

    Lists, for each low transition that has any, in declaration order, its
    minimal vectors in lexicographic order, each with the marking its
    witness run reaches and the run itself.  ``tables`` are the net's
    (:func:`search_tables`).  Nothing is validated; the search ends only
    when the high subnet is acyclic and every high transition has an input
    place or changes no token.  Each call searches afresh.

    A low transition none of whose input places a high firing raises is
    tested at ``marking`` alone: high firings can only lower those places,
    so it is enabled after some run exactly when it is enabled at
    ``marking``, and then the zero vector is its one minimal vector.

    The marking of every high run from ``marking``, which is every marking
    reachable from it by high firings alone, is added to ``reachable``
    level by level, and :class:`~snnicheck.petri.AssumptionError` is raised
    as soon as it holds more than ``cap`` markings, or the search more than
    ``cap`` count vectors, so the cap bounds the search itself.
    """
    runs = _high_runs(tables, marking, reachable, cap)
    answers = []
    for t, pre, raised in tables.low:
        if not raised:
            for i, need in pre:  # covers(marking, pre), inlined
                if marking[i] < need:
                    break
            else:
                answers.append((t, (runs[0],)))
            continue
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
    return tuple(answers)


def _high_runs(tables: SearchTables, marking: Marking,
               reachable: set[Marking], cap: int) -> list[Answer]:
    """Every count vector of a high run from ``marking``, with its marking and first run.

    Listed level by level over the total firing count; within a level, in
    the order the vectors were first generated.  High transitions that
    change no token are left out of ``tables.moves``: they cannot help
    enable anything, so they occur in no minimal vector, and counting their
    firings would never end.  Each level's markings are counted into
    ``reachable`` before the next level is generated.  The cap then also
    bounds the count vectors, which high transitions with equal effects
    make far more numerous than the markings: once more than ``cap`` have
    been listed, the search stops before it generates the next level.
    """
    moves = tables.moves
    zero = tables.zero
    runs: list[Answer] = []
    level = [(zero, marking, ())]
    visited = {zero}
    while level:
        runs.extend(level)
        reachable.update(r[1] for r in level)
        if len(reachable) > cap:
            raise AssumptionError(f"boundedness unknown: exploration cap of {cap} "
                                  "markings exhausted")
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
