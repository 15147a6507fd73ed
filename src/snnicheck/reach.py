"""Reachability graphs and the label automata derived from them.

Shared by both decision routes: the verifier needs the low subnet's behavior
(its state space is defined over it), the brute-force oracle needs the full
net's.  Construction refuses unbounded nets with the domination witness.

The graph's arcs are the firings :func:`~snnicheck.petri.explore_markings`
recorded while it explored, zipped together; no transition is fired or
checked for enabling a second time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .nfa import EPSILON, Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, InvalidNetError,
                    LabeledPetriNet, PetriNet, explore_markings)


@dataclass(frozen=True)
class ReachGraph:
    """Complete reachability graph; states are markings, events transitions."""

    nfa: Nfa

    @property
    def marking_count(self) -> int:
        return len(self.nfa.states)


def _reachability_nfa(net: PetriNet, cap: int,
                      labeling: Mapping[str, str] | None = None) -> Nfa:
    """Explore every reachable marking once and build its automaton once."""
    if cap <= 0:
        raise InvalidNetError(f"exploration cap must be positive, got {cap}")
    exploration = explore_markings(net, cap)
    if exploration.domination_witness is not None:
        w = exploration.domination_witness
        raise AssumptionError(f"net is unbounded: firing {' '.join(w.path)} strictly dominates "
                              f"the marking reached after step {w.pump_start}")
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
    """Label language of the low-transition-induced subnet."""
    low = lpn.low_subnet()
    return _reachability_nfa(low.net, cap, {t: low.label(t) for t in low.net.transitions})
