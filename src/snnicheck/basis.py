"""Basis reachability graph and its tree unfolding with tagged leaves.

The graph's states are basis markings: markings reached by low transitions
plus exactly the minimally necessary high firings.  Each arc carries the low
transition fired and the minimal explanation vector that enabled it.  The
unfolding never fuses repeated markings; instead a node repeating an ancestor
marking becomes an unexpanded leaf, and every leaf whose path consumed a
nonzero explanation vector receives an alpha tag (fresh marking) or beta tag
(repeated marking).  Those tags are what the interference verifier matches.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .explanations import minimal_e_vectors_at
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, LabeledPetriNet, Marking, NetError,
                    ParikhVector, TransitionSequence)

#: Hard ceiling on tree sizes (unfolding and verifier); exceeding it raises
#: instead of thrashing.  Both trees never fuse repeated nodes, so adversarial
#: nets can blow them up past any polynomial in the net size.
DEFAULT_TREE_NODE_CAP = 200_000


class BrgEvent(NamedTuple):
    """Arc payload: a low transition plus the explanation vector enabling it."""

    transition: str
    evector: ParikhVector


class Tag(NamedTuple):
    """Leaf tag; ``kind`` is "alpha" (fresh leaf) or "beta" (duplicated leaf)."""

    kind: str
    number: int

    def __str__(self) -> str:
        return f"{self.kind}_{self.number}"


@dataclass(frozen=True)
class Brg:
    """Basis reachability graph; NFA states are the basis markings themselves."""

    nfa: Nfa
    initial: Marking

    @property
    def basis_markings(self) -> frozenset[Marking]:
        return frozenset(self.nfa.states)


@dataclass
class UbrgNode:
    node_id: int
    marking: Marking
    tag: Tag | None = None
    duplicated: bool = False


@dataclass
class UbrgResult:
    """Unfolded graph (a tree over node ids) plus the tag bookkeeping."""

    tree: Nfa
    root: int
    nodes: dict[int, UbrgNode]
    parent: dict[int, tuple[int, BrgEvent]]
    alpha_tags: frozenset[Tag]
    beta_tags: frozenset[Tag]
    duplicate_markings: frozenset[Marking]
    tag_leaves: dict[Tag, int] = field(default_factory=dict)

    def root_path_events(self, node_id: int) -> tuple[BrgEvent, ...]:
        """Arc payloads from the root down to ``node_id``."""
        events: list[BrgEvent] = []
        current = node_id
        while current in self.parent:
            parent_id, event = self.parent[current]
            events.append(event)
            current = parent_id
        events.reverse()
        return tuple(events)

    def leaf_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid in self.nodes if not self.tree.arcs_from(nid))


def path_transitions(events: Iterable[BrgEvent]) -> TransitionSequence:
    """Concatenation of the transitions along a path of arc payloads."""
    return tuple(e.transition for e in events)


def path_evector_sum(events: Iterable[BrgEvent], size: int | None = None) -> ParikhVector:
    """Componentwise sum of the explanation vectors along a path.

    ``size`` fixes the width of the zero vector returned for an empty path.
    """
    total: list[int] | None = None
    for e in events:
        if total is None:
            total = list(e.evector)
        else:
            total = [a + b for a, b in zip(total, e.evector)]
    if total is None:
        return (0,) * size if size is not None else ()
    return tuple(total)


def basis_successor(lpn: LabeledPetriNet, m: Marking, t: str, evector: ParikhVector) -> Marking:
    """Marking equation step: apply ``evector`` high firings, then fire ``t``."""
    net = lpn.net
    new = list(m)
    for count, h in zip(evector, lpn.high_transitions):
        if count:
            for i, d in net.delta[h]:
                new[i] += count * d
    for i, d in net.delta[net.check_transition(t)]:
        new[i] += d
    if any(v < 0 for v in new):
        raise NetError(f"marking equation produced a negative marking for ({t}, {evector});"
                       " explanation vectors are inconsistent")
    return tuple(new)


def build_brg(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Brg:
    """Saturate basis markings from the initial marking; repeats fuse into one state."""
    lpn.require_assumptions(cap)
    root = lpn.net.initial_marking
    states: list[Marking] = [root]
    seen = {root}
    arcs: list[tuple[Marking, BrgEvent, Marking]] = []
    labeling: dict[BrgEvent, str] = {}
    queue: deque[Marking] = deque([root])
    while queue:
        m = queue.popleft()
        explanations = minimal_e_vectors_at(lpn, m)
        for t in lpn.low_transitions:
            for y in sorted(explanations[t].evectors):
                successor = basis_successor(lpn, m, t, y)
                event = BrgEvent(t, y)
                labeling[event] = lpn.label(t)
                arcs.append((m, event, successor))
                if successor not in seen:
                    seen.add(successor)
                    states.append(successor)
                    queue.append(successor)
    return Brg(nfa=Nfa(states, arcs, [root], labeling), initial=root)


def build_ubrg(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
               node_cap: int = DEFAULT_TREE_NODE_CAP) -> UbrgResult:
    """Unfold the basis graph into a tree and tag its interference-relevant leaves.

    Breadth-first, iterating transitions in declaration order and explanation
    vectors in lexicographic order, so node ids and tag numbers are stable
    across runs.  A node whose marking equals an ancestor's marking on its own
    root path is left unexpanded and recorded as duplicated.
    """
    lpn.require_assumptions(cap)
    root_marking = lpn.net.initial_marking
    nodes: dict[int, UbrgNode] = {0: UbrgNode(0, root_marking)}
    parent: dict[int, tuple[int, BrgEvent]] = {}
    arcs: list[tuple[int, BrgEvent, int]] = []
    labeling: dict[BrgEvent, str] = {}
    duplicate_markings: set[Marking] = set()
    queue: deque[int] = deque([0])
    next_id = 1
    while queue:
        nid = queue.popleft()
        node = nodes[nid]
        ancestor = parent.get(nid)
        duplicated = False
        while ancestor is not None:
            ancestor_id = ancestor[0]
            if nodes[ancestor_id].marking == node.marking:
                duplicated = True
                break
            ancestor = parent.get(ancestor_id)
        if duplicated:
            node.duplicated = True
            duplicate_markings.add(node.marking)
            continue
        explanations = minimal_e_vectors_at(lpn, node.marking)
        for t in lpn.low_transitions:
            for y in sorted(explanations[t].evectors):
                if next_id > node_cap:
                    raise NetError(f"unfolding exceeds {node_cap} nodes; "
                                   "raise node_cap to continue")
                successor = basis_successor(lpn, node.marking, t, y)
                event = BrgEvent(t, y)
                labeling[event] = lpn.label(t)
                nodes[next_id] = UbrgNode(next_id, successor)
                parent[next_id] = (nid, event)
                arcs.append((nid, event, next_id))
                queue.append(next_id)
                next_id += 1

    tree = Nfa(list(nodes), arcs, [0], labeling)
    result = UbrgResult(tree=tree, root=0, nodes=nodes, parent=parent,
                        alpha_tags=frozenset(), beta_tags=frozenset(),
                        duplicate_markings=frozenset(duplicate_markings))

    # Tag pass: leaves in discovery order; only paths that consumed high firings.
    alpha: list[Tag] = []
    beta: list[Tag] = []
    expanded = {src for src, _, _ in arcs}
    for nid in nodes:
        if nid in expanded:
            continue
        node = nodes[nid]
        events = result.root_path_events(nid)
        if not any(any(e.evector) for e in events):
            continue
        if node.duplicated:
            tag = Tag("beta", len(beta) + 1)
            beta.append(tag)
        else:
            tag = Tag("alpha", len(alpha) + 1)
            alpha.append(tag)
        node.tag = tag
        result.tag_leaves[tag] = nid
    result.alpha_tags = frozenset(alpha)
    result.beta_tags = frozenset(beta)
    return result
