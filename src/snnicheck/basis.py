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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from operator import le
from typing import Iterable, NamedTuple

from .explanations import high_run_answers
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, AssumptionReport,
                    DominationWitness, InvalidNetError, LabeledPetriNet, Marking,
                    NetError, ParikhVector, TransitionSequence, _high_subnet_cycle, shift)

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
    """Unfolded graph (a tree over node ids) plus the tag bookkeeping.

    Node ``k > 0`` is created with arc ``k - 1`` of ``tree``, its one parent link.
    """

    tree: Nfa
    root: int
    nodes: dict[int, UbrgNode]
    alpha_tags: frozenset[Tag]
    beta_tags: frozenset[Tag]
    duplicate_markings: frozenset[Marking]
    tag_leaves: dict[Tag, int] = field(default_factory=dict)

    def root_path_events(self, node_id: int) -> tuple[BrgEvent, ...]:
        """Arc payloads from the root down to ``node_id``."""
        events: list[BrgEvent] = []
        current = node_id
        while current != self.root:
            current, event, _ = self.tree.arcs[current - 1]
            events.append(event)
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
    new basis marking is compared with those ancestors, pruned by token
    count as in :func:`~snnicheck.petri.explore_markings`.  A domination or
    an exhausted cap raises :class:`~snnicheck.petri.AssumptionError`; a
    finished saturation caches the passing report on the net.
    """
    if cap <= 0:
        raise InvalidNetError(f"exploration cap must be positive, got {cap}")
    net = lpn.net
    if (_high_subnet_cycle(lpn) is not None
            or any(net.delta[h] and not net.pre[h] for h in lpn.high_transitions)):
        lpn.require_assumptions(cap)
    root = net.initial_marking
    tokens = sum(root)
    # node = (marking, parent node or None, witness run and low transition of
    #         the arc that found it, token count, fewest tokens on its path)
    queue: deque = deque([(root, None, (), None, tokens, tokens)])
    seen: dict[Marking, Marking] = {root: root}
    states: list[Marking] = [root]
    arcs: list[tuple[Marking, BrgEvent, Marking]] = []
    labeling: dict[BrgEvent, str] = {}
    reachable: set[Marking] = set()
    while queue:
        node = queue.popleft()
        m, path_min = node[0], node[5]
        answers = high_run_answers(lpn, m, reachable, cap)[0]
        for t, found in answers:
            delta = net.delta[t]
            label = lpn.labeling[t]
            for y, run_marking, run in found:
                successor = shift(run_marking, delta)
                event = BrgEvent(t, y)
                labeling[event] = label
                known = seen.get(successor)
                if known is None:
                    tokens = sum(successor)
                    ancestor = node
                    while ancestor is not None and ancestor[5] < tokens:
                        if ancestor[4] < tokens and all(map(le, ancestor[0], successor)):
                            raise AssumptionError(AssumptionReport(
                                bounded=False, reachable_count=None,
                                domination_witness=_domination_witness(node, ancestor, run, t),
                                high_subnet_acyclic=True, high_cycle=None,
                                cap=cap).describe_failure())
                        ancestor = ancestor[1]
                    known = seen[successor] = successor
                    states.append(successor)
                    queue.append((successor, node, run, t, tokens, min(tokens, path_min)))
                arcs.append((m, event, known))
    lpn._assumption_report = AssumptionReport(
        bounded=True, reachable_count=len(reachable), domination_witness=None,
        high_subnet_acyclic=True, high_cycle=None, cap=cap)
    return Brg(nfa=Nfa._from_unique(tuple(states), tuple(arcs), (root,), labeling),
               initial=root)


def _domination_witness(parent: tuple, ancestor: tuple, run: TransitionSequence,
                        t: str) -> DominationWitness:
    """The discovery path to ``parent`` and on by ``run`` and ``t`` as one firing path.

    Each basis arc is expanded into its witness run followed by its low
    transition; the pump starts where the path reaches ``ancestor``.
    """
    chain = []
    node = parent
    while node[1] is not None:
        chain.append(node)
        node = node[1]
    path: list[str] = []
    pump_start = 0
    for node in reversed(chain):
        path.extend(node[2])
        path.append(node[3])
        if node is ancestor:
            pump_start = len(path)
    path.extend(run)
    path.append(t)
    return DominationWitness(tuple(path), pump_start)


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
    per kind in node order.  Pass a prebuilt ``brg`` to avoid building the
    basis graph twice.
    """
    if brg is None:
        brg = build_brg(lpn, cap)
    lpn.require_assumptions(cap)
    index = {m: i for i, m in enumerate(brg.nfa.states)}
    # Per BRG state: (event, successor marking, its index, arc consumes high firings).
    children = [tuple((event, successor, index[successor], any(event.evector))
                      for event, successor in brg.nfa.arcs_from(m))
                for m in brg.nfa.states]
    root_marking = brg.initial
    nodes: dict[int, UbrgNode] = {0: UbrgNode(0, root_marking)}
    arcs: list[tuple[int, BrgEvent, int]] = []
    duplicate_markings: set[Marking] = set()
    alpha: list[Tag] = []
    beta: list[Tag] = []
    tag_leaves: dict[Tag, int] = {}
    root_state = index[root_marking]
    # Expandable nodes: (node id, BRG state, path bitmask including the node,
    # path consumed high firings).  Leaves are settled when they are created.
    queue: deque[tuple[int, int, int, bool]] = deque([(0, root_state, 1 << root_state, False)])
    next_id = 1
    while queue:
        nid, state, path, consumed = queue.popleft()
        for event, successor, child_state, high in children[state]:
            if next_id > node_cap:
                raise NetError(f"unfolding exceeds {node_cap} nodes; "
                               "raise node_cap to continue")
            child = nodes[next_id] = UbrgNode(next_id, successor)
            arcs.append((nid, event, next_id))
            bit = 1 << child_state
            child_consumed = consumed or high
            if path & bit:
                child.duplicated = True
                duplicate_markings.add(successor)
            elif children[child_state]:
                queue.append((next_id, child_state, path | bit, child_consumed))
            if child_consumed and (child.duplicated or not children[child_state]):
                if child.duplicated:
                    tag = Tag("beta", len(beta) + 1)
                    beta.append(tag)
                else:
                    tag = Tag("alpha", len(alpha) + 1)
                    alpha.append(tag)
                child.tag = tag
                tag_leaves[tag] = next_id
            next_id += 1

    tree = Nfa._from_unique(tuple(nodes), tuple(arcs), (0,), brg.nfa.labeling)
    return UbrgResult(tree=tree, root=0, nodes=nodes,
                      alpha_tags=frozenset(alpha), beta_tags=frozenset(beta),
                      duplicate_markings=frozenset(duplicate_markings),
                      tag_leaves=tag_leaves)
