"""Reachability graphs and the label automata derived from them.

The brute-force oracle explores the full net.  Neither decision route
explores the low subnet: its reachability graph is part of a graph each
route already holds, and :func:`low_language_within` reads it off (the
basis route off the basis graph, the oracle off the full graph).
:func:`low_label_language` explores it independently, as the reference
those readings are tested against.  Construction refuses unbounded nets
with the domination witness.

The graph's arcs are the firings :func:`~snnicheck.petri.explore_markings`
recorded while it explored, zipped together; no transition is fired or
checked for enabling a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Mapping

from .nfa import EPSILON, Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, LabeledPetriNet, PetriNet,
                    explore_markings)


@dataclass(frozen=True)
class ReachGraph:
    """Complete reachability graph; states are markings, events transitions."""

    nfa: Nfa


def _reachability_nfa(net: PetriNet, cap: int,
                      labeling: Mapping[str, str] | None = None) -> Nfa:
    """Explore every reachable marking once and build its automaton once.

    The cap is checked by :func:`~snnicheck.petri.explore_markings`.
    """
    exploration = explore_markings(net, cap)
    if exploration.domination_witness is not None:
        raise AssumptionError(exploration.domination_witness.describe())
    if not exploration.complete:
        raise AssumptionError(f"reachability exploration cap of {cap} markings exhausted")
    arcs = tuple(zip(exploration.arc_sources, exploration.arc_transitions,
                     exploration.arc_targets))
    return Nfa._from_unique(exploration.markings, arcs, (net.initial_marking,), labeling)


def reachability_graph(net: PetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> ReachGraph:
    """Enumerate every reachable marking and firing arc; refuse unbounded nets."""
    return ReachGraph(_reachability_nfa(net, cap))


def projected_label_language(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Nfa:
    """Reachability graph emitting low labels; high transitions emit ε.

    With every state accepting, this recognizes exactly the low projection of
    the net's label language (prefix-closed by construction).
    """
    labeling = {t: lpn.label(t) if lpn.is_low(t) else EPSILON for t in lpn.net.transitions}
    return _reachability_nfa(lpn.net, cap, labeling)


def low_label_language(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Nfa:
    """Label language of the low-transition-induced subnet, explored on its own."""
    low = lpn.low_subnet()
    return _reachability_nfa(low.net, cap, {t: low.label(t) for t in low.net.transitions})


def low_language_within(lpn: LabeledPetriNet, graph: Nfa,
                        low_firings: Mapping[Hashable, str]) -> Nfa:
    """The low subnet's label language, read off a graph that contains its state space.

    ``graph`` starts at the initial marking, and its arcs from each marking
    reachable by low firings include every low firing there, in declaration
    order; ``low_firings`` names the low transition of each event that is
    such a firing.  The basis graph's zero-vector arcs and the full
    reachability graph's low arcs are both such graphs.  A breadth-first walk
    over those arcs meets the markings and arcs in the order
    :func:`low_label_language` explores them, so the result equals it, with
    nothing fired or explored.
    """
    root = graph.initial[0]
    seen = {root}
    states = [root]
    arcs = []
    for m in states:  # grows as the walk goes: breadth-first
        for event, target in graph.arcs_from(m):
            t = low_firings.get(event)
            if t is not None:
                arcs.append((m, t, target))
                if target not in seen:
                    seen.add(target)
                    states.append(target)
    return Nfa._from_unique(tuple(states), tuple(arcs), (root,),
                            {t: lpn.labeling[t] for t in lpn.low_transitions})
