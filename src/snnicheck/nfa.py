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


def _distinct(kind: str, items: Iterable) -> tuple:
    """``items`` without repeats, in first-seen order; an unhashable item is refused."""
    out: dict = {}
    for x in items:
        try:
            out[x] = None
        except TypeError:  # an unhashable item
            raise InvalidNetError(f"{kind} {x!r} is not hashable") from None
    return tuple(out)


def _arc(entry) -> tuple:
    """An arc entry, a tuple or list of three, as a ``(source, event, target)`` tuple."""
    if isinstance(entry, (tuple, list)) and len(entry) == 3:
        return tuple(entry)
    raise InvalidNetError(f"arc entry {entry!r} must be a tuple (source, event, target)")


class Nfa:
    """States, arcs ``(source, event, target)``, initial states, optional labeling.

    ``Nfa(...)`` drops repeated states, arcs and initial states and checks
    that each is hashable, that every arc is a ``(source, event, target)``
    triple, that every arc and initial state uses a declared state and,
    given a labeling, that it labels every arc's event with a ``str``; it
    refuses any other input with
    :class:`~snnicheck.petri.InvalidNetError`.  The graphs this package
    builds (reachability graphs and the basis reachability graph) are
    unique by construction: their states are discovered once each and their
    arcs come straight from that one discovery.  They go through
    :meth:`_from_unique`, which skips the checks.  An automaton keeps its
    events only on its arcs and as labeling keys, which may also name
    events no arc uses.
    """

    def __init__(self, states: Iterable[Hashable],
                 arcs: Iterable[tuple],
                 initial: Iterable[Hashable],
                 labeling: Mapping[Hashable, str] | None = None):
        states = _distinct("state", states)
        arcs = _distinct("arc", map(_arc, arcs))
        initial = _distinct("initial state", initial)
        declared = frozenset(states)
        for s, e, d in arcs:
            if s not in declared or d not in declared:
                raise InvalidNetError(f"arc ({s!r}, {e!r}, {d!r}) uses an undeclared state")
            if labeling is not None and not isinstance(labeling.get(e), str):
                raise InvalidNetError(f"arc ({s!r}, {e!r}, {d!r}) has no str label")
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
        self.labeling = dict(labeling) if labeling is not None else None
        # Arcs usually arrive grouped by source, so each state's tuple is
        # built from its run of arcs in one go (a source that comes back
        # later has its tuple extended).  A list per state, converted
        # afterwards, would leave twice the survivors for the garbage
        # collector.  The largest automata on the decision path are
        # reachability graphs; the trees are never automata, only columns.
        self._out: dict[Hashable, tuple[tuple, ...]] = dict.fromkeys(states, ())
        for s, group in groupby(arcs, key=itemgetter(0)):
            self._out[s] += tuple((e, d) for _, e, d in group)

    def arcs_from(self, state: Hashable) -> tuple[tuple, ...]:
        """Outgoing ``(event, target)`` pairs in construction order."""
        try:
            return self._out[state]
        except (KeyError, TypeError):  # an unknown or unhashable state
            raise InvalidNetError(f"unknown state {state!r}") from None

    def __repr__(self) -> str:
        return f"Nfa(states={len(self.states)}, arcs={len(self.arcs)})"
