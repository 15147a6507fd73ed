"""Generic nondeterministic finite automaton with optional per-event labels.

States and events may be any hashable values.  Construction order of states
and arcs is preserved so that derived artifacts (exports, tag numbering) are
deterministic; state membership and outgoing-arc lookups use one dict built
once.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Hashable, Iterable, Mapping

from .petri import InvalidNetError

#: Label of silent events in labeled automata.
EPSILON = ""


def _ordered_dedupe(items: Iterable) -> tuple:
    seen = set()
    out = []
    for x in items:
        if x not in seen:
            seen.add(x)
            out.append(x)
    return tuple(out)


class Nfa:
    """States, arcs ``(source, event, target)``, initial states, optional labeling.

    ``Nfa(...)`` drops repeated states, arcs and initial states and checks
    that every arc and initial state uses a declared state.  The graphs this
    package builds (reachability graphs, the basis reachability graph, and
    the ``tree`` views of the unfolding and the verifier) are unique by
    construction: their states are discovered once each and their arcs come
    straight from that one discovery.  They go through :meth:`_from_unique`,
    which skips both steps.
    """

    def __init__(self, states: Iterable[Hashable],
                 arcs: Iterable[tuple],
                 initial: Iterable[Hashable],
                 labeling: Mapping[Hashable, str] | None = None):
        states = _ordered_dedupe(states)
        arcs = _ordered_dedupe(tuple(a) for a in arcs)
        initial = _ordered_dedupe(initial)
        declared = frozenset(states)
        for s, e, d in arcs:
            if s not in declared or d not in declared:
                raise InvalidNetError(f"arc ({s!r}, {e!r}, {d!r}) uses an undeclared state")
        for s in initial:
            if s not in declared:
                raise InvalidNetError(f"initial state {s!r} is not declared")
        self._index(states, arcs, initial, labeling)

    @classmethod
    def _from_unique(cls, states: tuple, arcs: tuple, initial: tuple,
                     labeling: Mapping[Hashable, str] | None = None) -> Nfa:
        """Trusted construction for graphs unique by construction.

        The caller guarantees distinct ``states``, distinct ``arcs`` whose ends
        are among ``states``, and distinct ``initial`` states among them; the
        result equals ``Nfa(states, arcs, initial, labeling)``.
        """
        nfa = cls.__new__(cls)
        nfa._index(states, arcs, initial, labeling)
        return nfa

    def _index(self, states: tuple, arcs: tuple, initial: tuple,
               labeling: Mapping[Hashable, str] | None) -> None:
        self.states = states
        self.arcs = arcs
        self.initial = initial
        self.events = _ordered_dedupe(e for _, e, _ in arcs)
        self.labeling = dict(labeling) if labeling is not None else None
        # Arcs usually arrive grouped by source, so each state's tuple is
        # built from its run of arcs in one go (a source that comes back
        # later has its tuple extended).  A list per state, converted
        # afterwards, would leave twice the survivors for the garbage
        # collector.  The largest automata on the decision path are
        # reachability graphs; the trees keep their own columns and become
        # automata only when a caller asks for their ``tree`` view.
        self._out: dict[Hashable, tuple[tuple, ...]] = dict.fromkeys(states, ())
        for s, group in groupby(arcs, key=itemgetter(0)):
            self._out[s] += tuple((e, d) for _, e, d in group)

    def arcs_from(self, state: Hashable) -> tuple[tuple, ...]:
        """Outgoing ``(event, target)`` pairs in construction order."""
        try:
            return self._out[state]
        except KeyError:
            raise InvalidNetError(f"unknown state {state!r}") from None

    def __repr__(self) -> str:
        return f"Nfa(states={len(self.states)}, arcs={len(self.arcs)})"
