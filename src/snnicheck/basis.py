"""Basis reachability graph and its tree unfolding with tagged leaves.

The graph's states are basis markings: markings reached by low transitions
plus exactly the minimally necessary high firings.  Each arc carries the low
transition fired and the minimal explanation vector that enabled it.  The
unfolding (UBRG) is a tree copy of that graph: starting from the initial
marking, every node copies the outgoing arcs of its marking's basis state,
and nothing is fused.  A node whose marking already occurs on its own root
path becomes an unexpanded, duplicated leaf; the path is carried down the
tree as a set of basis states, so the check costs the same at any depth.
Every leaf whose path consumed a nonzero explanation vector (a flag also
inherited from the parent) receives an alpha tag (fresh marking) or beta tag
(repeated marking).  Those tags are what the interference verifier matches.

The unfolding is stored as columns, parallel lists indexed by node id (BRG
state, parent, incoming arc payload, first child), plus a sparse map of
tags and the set of duplicated ids.  A large unfolding is then a handful of
lists, not one object per node for the garbage collector to walk.  The tree
automaton is a view built on access, for tests and callers that want it;
nothing on the decision or export path builds it.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, NamedTuple

from .explanations import high_run_answers
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, AssumptionReport,
                    InvalidNetError, LabeledPetriNet, Marking, NetError, ParikhVector,
                    TransitionSequence, _dominated_ancestor, _domination_witness,
                    _high_subnet_cycle, shift)

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


def sorted_tags(tags: Iterable[Tag]) -> list[Tag]:
    """``sorted(tags)``, with each kind's tags sorted by their plain int numbers.

    Sorting the tags as tuples compares kinds again for every pair, which
    costs twice as much on the tens of thousands of tags of a large unfolding.
    """
    by_kind: dict[str, list[Tag]] = {}
    for tag in tags:
        by_kind.setdefault(tag.kind, []).append(tag)
    ordered: list[Tag] = []
    for kind in sorted(by_kind):
        ordered += sorted(by_kind[kind], key=itemgetter(1))
    return ordered


@dataclass(frozen=True)
class Brg:
    """Basis reachability graph; NFA states are the basis markings themselves.

    Building it proves the standing assumptions: ``assumptions`` is that
    passing report, with the net's reachable-marking count.
    """

    nfa: Nfa
    initial: Marking
    assumptions: AssumptionReport

    @property
    def basis_markings(self) -> frozenset[Marking]:
        return frozenset(self.nfa.states)


@dataclass
class UbrgResult:
    """Unfolded graph as parallel columns indexed by node id, plus the tags.

    The root is node 0.  Breadth-first creation gives each expanded node's
    children consecutive ids, in the order of its BRG state's arcs: child
    ``first_child[k] + j`` copies arc ``j`` of state ``state[k]``.  Nothing
    is allocated per node beyond the column entries; the arc payloads are
    the BRG's own ``BrgEvent`` objects.  :attr:`tree` is a view built from
    the columns on access.
    """

    brg: Brg
    #: Per node: the index of its marking in ``brg.nfa.states``.
    state: list[int]
    #: Per node: its parent's id (-1 at the root).
    parent: list[int]
    #: Per node: the BRG arc payload it was created with (``None`` at the root).
    event: list[BrgEvent | None]
    #: Per node: the id of its first child, 0 for a leaf.
    first_child: list[int]
    #: The tag of each tagged leaf.
    tags: dict[int, Tag]
    #: Ids of the duplicated leaves.
    duplicated: frozenset[int]
    alpha_tags: frozenset[Tag]
    beta_tags: frozenset[Tag]
    duplicate_markings: frozenset[Marking]
    tag_leaves: dict[Tag, int] = field(default_factory=dict)
    root: int = 0

    def marking(self, node_id: int) -> Marking:
        return self.brg.nfa.states[self.state[node_id]]

    @property
    def nodes(self) -> range:
        """The node ids."""
        return range(len(self.state))

    @property
    def tree(self) -> Nfa:
        """The unfolding as an automaton over node ids, built afresh on each access.

        Node ``k > 0`` is created with arc ``k - 1``, its one parent link.
        """
        parent, event = self.parent, self.event
        return Nfa._from_unique(tuple(range(len(parent))),
                                tuple((parent[k], event[k], k) for k in range(1, len(parent))),
                                (self.root,), self.brg.nfa.labeling)

    def root_path_events(self, node_id: int) -> tuple[BrgEvent, ...]:
        """Arc payloads from the root down to ``node_id``."""
        events: list[BrgEvent] = []
        while node_id != self.root:
            events.append(self.event[node_id])
            node_id = self.parent[node_id]
        events.reverse()
        return tuple(events)

    def leaf_ids(self) -> tuple[int, ...]:
        return tuple(k for k, first in enumerate(self.first_child) if not first)


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
    """Marking equation step: apply ``evector`` high firings, then fire ``t``.

    :func:`build_brg` reads successors off the witness runs instead; this is
    the independent reference the tests compare its arcs against.
    """
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
    """Saturate basis markings from the initial marking; repeats fuse into one state.

    One high-run search per basis marking (:func:`high_run_answers`) gives
    its arcs, in low transition declaration order and then lexicographic
    vector order: the successor of arc ``(t, y)`` is the marking of
    ``y``'s witness run with ``t`` fired.

    The saturation also proves both standing assumptions without exploring
    the full net.  The high subnet is checked for a cycle first; a net that
    has one, or a high transition that fires without input, is handed to
    :meth:`~snnicheck.petri.LabeledPetriNet.require_assumptions`, which
    refuses it.  Otherwise every high run is finite and every reachable
    marking is a basis marking followed by high firings, so the reachable
    markings are the union of the run markings of every basis marking.  The
    union is counted level by level inside each search, so a search stops
    soon after the union passes ``cap``, however many runs it has left.  The
    net is bounded iff the saturation ends:
    on an unbounded net, some new basis marking strictly dominates an
    ancestor on its discovery path (König's and Dickson's lemmas), and each
    new basis marking is compared with those ancestors by the walk of
    :func:`~snnicheck.petri.explore_markings`, each node holding the witness
    run and low transition of the arc that found it.  A domination or an
    exhausted cap raises :class:`~snnicheck.petri.AssumptionError`; a
    finished saturation returns the passing report, with the reachable
    count, as :attr:`Brg.assumptions`.  Nothing is stored on the net.
    """
    if cap <= 0:
        raise InvalidNetError(f"exploration cap must be positive, got {cap}")
    net = lpn.net
    if (_high_subnet_cycle(lpn) is not None
            or any(net.delta[h] and not net.pre[h] for h in lpn.high_transitions)):
        lpn.require_assumptions(cap)
    root = net.initial_marking
    tokens = sum(root)
    queue: deque = deque([(root, None, (), tokens, tokens)])
    seen: dict[Marking, Marking] = {root: root}
    states: list[Marking] = [root]
    arcs: list[tuple[Marking, BrgEvent, Marking]] = []
    labeling: dict[BrgEvent, str] = {}
    reachable: set[Marking] = set()
    while queue:
        node = queue.popleft()
        m, path_min = node[0], node[4]
        for t, found in high_run_answers(lpn, m, reachable, cap):
            delta = net.delta[t]
            label = lpn.labeling[t]
            for y, run_marking, run in found:
                successor = shift(run_marking, delta)
                event = BrgEvent(t, y)
                labeling[event] = label
                known = seen.get(successor)
                if known is None:
                    tokens = sum(successor)
                    ancestor = _dominated_ancestor(node, successor, tokens)
                    if ancestor is not None:
                        raise AssumptionError(
                            _domination_witness(node, ancestor, run + (t,)).describe())
                    known = seen[successor] = successor
                    states.append(successor)
                    queue.append((successor, node, run + (t,), tokens, min(tokens, path_min)))
                arcs.append((m, event, known))
    assumptions = AssumptionReport(
        bounded=True, reachable_count=len(reachable), domination_witness=None,
        high_subnet_acyclic=True, high_cycle=None, cap=cap)
    return Brg(nfa=Nfa._from_unique(tuple(states), tuple(arcs), (root,), labeling),
               initial=root, assumptions=assumptions)


def build_ubrg(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
               node_cap: int = DEFAULT_TREE_NODE_CAP, brg: Brg | None = None) -> UbrgResult:
    """Unfold the basis graph into a tree and tag its interference-relevant leaves.

    The unfolding is a tree copy of the BRG: each node copies the arcs of its
    marking's basis state, breadth-first and in the BRG's arc order (low
    transitions in declaration order, explanation vectors in lexicographic
    order), so node ids and tag numbers are stable across runs.  Each queued
    node carries its root path as a bitmask over BRG states; a node whose
    marking is already on its parent's path is left unexpanded and recorded
    as duplicated.  Each node also carries whether its path consumed a
    nonzero explanation vector, and exactly such leaves get a tag, numbered
    per kind in node order.  Nodes are stored as column entries, not
    objects (see :class:`UbrgResult`).  Pass a prebuilt ``brg`` to avoid
    building the basis graph twice; ``cap`` then goes unused, since the
    basis graph is itself the proof of the standing assumptions.
    """
    if brg is None:
        brg = build_brg(lpn, cap)
    markings = brg.nfa.states
    index = {m: i for i, m in enumerate(markings)}
    # Per BRG state: (event, successor index, its path bit, arc consumes high firings).
    children = [tuple((event, index[successor], 1 << index[successor], any(event.evector))
                      for event, successor in brg.nfa.arcs_from(m))
                for m in markings]
    root_state = index[brg.initial]
    state = [root_state]
    parent = [-1]
    events: list[BrgEvent | None] = [None]
    first_child = [0]
    tags: dict[int, Tag] = {}
    duplicated: set[int] = set()
    duplicate_states: set[int] = set()
    alpha: list[Tag] = []
    beta: list[Tag] = []
    tag_leaves: dict[Tag, int] = {}
    # Expandable nodes: (node id, BRG state, path bitmask including the node,
    # path consumed high firings).  Leaves are settled when they are created.
    queue: deque[tuple[int, int, int, bool]] = deque([(0, root_state, 1 << root_state, False)])
    next_id = 1
    while queue:
        nid, s, path, consumed = queue.popleft()
        first_child[nid] = next_id
        for event, child_state, bit, high in children[s]:
            if next_id > node_cap:
                raise NetError(f"unfolding exceeds {node_cap} nodes; "
                               "raise node_cap to continue")
            state.append(child_state)
            parent.append(nid)
            events.append(event)
            first_child.append(0)
            child_consumed = consumed or high
            if path & bit:
                duplicated.add(next_id)
                duplicate_states.add(child_state)
                if child_consumed:
                    tag = tags[next_id] = Tag("beta", len(beta) + 1)
                    beta.append(tag)
                    tag_leaves[tag] = next_id
            elif children[child_state]:
                queue.append((next_id, child_state, path | bit, child_consumed))
            elif child_consumed:
                tag = tags[next_id] = Tag("alpha", len(alpha) + 1)
                alpha.append(tag)
                tag_leaves[tag] = next_id
            next_id += 1

    return UbrgResult(brg=brg, state=state, parent=parent, event=events,
                      first_child=first_child, tags=tags, duplicated=frozenset(duplicated),
                      alpha_tags=frozenset(alpha), beta_tags=frozenset(beta),
                      duplicate_markings=frozenset(markings[s] for s in duplicate_states),
                      tag_leaves=tag_leaves)
