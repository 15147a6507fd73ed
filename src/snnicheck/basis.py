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
state, parent, incoming arc payload, first child), plus the set of
duplicated ids and, per tag kind, the ids of its tagged leaves in number
order.  A tag is a kind, a number and the leaf it sits on, so it needs no
object of its own: tag ``n`` of a kind sits on the ``n``-th leaf of that
kind's list, and is named ``<kind>_<n>`` (:func:`_tag_names`) only where it
is rendered.  A large unfolding is then a handful of lists, not one object
per node or tag for the garbage collector to walk.  Each fact is kept once:
a node's root path, a tag's leaf or a leaf's being a leaf is read off these
columns, not stored again.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import NamedTuple

from .explanations import high_run_answers, search_tables
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, AssumptionReport,
                    LabeledPetriNet, Marking, NetError, ParikhVector, _dominated_ancestor,
                    _domination_witness, _high_subnet_cycle, _marking_equation,
                    _require_count, shift)

#: Hard ceiling on tree sizes (unfolding and verifier); exceeding it raises
#: instead of thrashing.  Both trees never fuse repeated nodes, so adversarial
#: nets can blow them up past any polynomial in the net size.
DEFAULT_TREE_NODE_CAP = 200_000


class BrgEvent(NamedTuple):
    """Arc payload: a low transition plus the explanation vector enabling it."""

    transition: str
    evector: ParikhVector


def _tag_names(kind: str, count: int) -> list[str]:
    """The names ``<kind>_<n>`` of a kind's tags ``n`` = 1..``count``, at index ``n - 1``."""
    return [f"{kind}_{n}" for n in range(1, count + 1)]


@dataclass(frozen=True)
class Brg:
    """Basis reachability graph; NFA states are the basis markings themselves.

    The initial marking is the automaton's one initial state,
    ``nfa.initial[0]``.  Building the graph proves the standing assumptions:
    ``assumptions`` is that passing report, with the net's reachable-marking
    count.
    """

    nfa: Nfa
    assumptions: AssumptionReport


@dataclass
class UbrgResult:
    """Unfolded graph as parallel columns indexed by node id, plus the tagged leaves.

    The root is node 0.  Breadth-first creation gives each expanded node's
    children consecutive ids, in the order of its BRG state's arcs: child
    ``first_child[k] + j`` copies arc ``j`` of state ``state[k]``.  Nothing
    is allocated per node beyond the column entries; the arc payloads are
    the BRG's own ``BrgEvent`` objects.  Node ``k > 0`` is created with the
    arc ``(parent[k], event[k], k)``, its one parent link.

    The tags are numbered leaves: alpha tag ``n`` sits on leaf
    ``alpha_leaves[n - 1]`` and beta tag ``n`` on ``beta_leaves[n - 1]``.
    Each kind is numbered in node order, so both lists are ascending.
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
    #: Ids of the duplicated leaves.
    duplicated: frozenset[int]
    #: Per kind: the leaf of tag ``n`` at index ``n - 1``, ascending.
    alpha_leaves: list[int]
    beta_leaves: list[int]

    @property
    def nodes(self) -> range:
        """The node ids."""
        return range(len(self.state))


def basis_successor(lpn: LabeledPetriNet, m: Marking, t: str, evector: ParikhVector) -> Marking:
    """Marking equation step: apply ``evector`` high firings, then fire ``t``.

    The equation is :func:`~snnicheck.petri._marking_equation`, the one the
    justification oracle also applies; on top of it, ``t`` must be a
    transition of the net and the result must not be negative.
    :func:`build_brg` reads successors off the witness runs instead; this is
    the independent reference the tests compare its arcs against.
    """
    new = _marking_equation(lpn, m, evector, (lpn.net.check_transition(t),))
    if any(v < 0 for v in new):
        raise NetError(f"marking equation produced a negative marking for ({t}, {evector});"
                       " explanation vectors are inconsistent")
    return new


def build_brg(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Brg:
    """Saturate basis markings from the initial marking; repeats fuse into one state.

    One high-run search per basis marking (:func:`high_run_answers`, on
    move tables built once for the net) gives its arcs, in low transition
    declaration order and then lexicographic vector order: the successor of
    arc ``(t, y)`` is the marking of ``y``'s witness run with ``t`` fired.
    Each distinct ``(t, y)`` is one :class:`BrgEvent`, shared by its arcs.

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
    _require_count("exploration cap", cap, 1)
    net = lpn.net
    if (_high_subnet_cycle(lpn) is not None
            or any(net.delta[h] and not net.pre[h] for h in lpn.high_transitions)):
        lpn.require_assumptions(cap)
    tables = search_tables(lpn)
    root = net.initial_marking
    tokens = sum(root)
    queue: deque = deque([(root, None, (), tokens, tokens)])
    seen: dict[Marking, Marking] = {root: root}
    states: list[Marking] = [root]
    arcs: list[tuple[Marking, BrgEvent, Marking]] = []
    labeling: dict[BrgEvent, str] = {}
    # Each arc payload once: a plain ``(t, y)`` tuple finds the equal event.
    events: dict[BrgEvent, BrgEvent] = {}
    reachable: set[Marking] = set()
    while queue:
        node = queue.popleft()
        m, path_min = node[0], node[4]
        for t, found in high_run_answers(tables, m, reachable, cap):
            delta = net.delta[t]
            for y, run_marking, run in found:
                successor = shift(run_marking, delta)
                event = events.get((t, y))
                if event is None:
                    event = BrgEvent(t, y)
                    events[event] = event
                    labeling[event] = lpn.labeling[t]
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
    return Brg(nfa=Nfa._from_unique(tuple(states), tuple(arcs), (root,), labeling),
               assumptions=AssumptionReport(reachable_count=len(reachable), cap=cap))


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
    per kind in node order: a tag is recorded as its leaf's id, appended to
    its kind's list.  Nodes and tags are stored as column entries, not
    objects (see :class:`UbrgResult`).  Pass a prebuilt ``brg`` to avoid
    building the basis graph twice; ``cap`` then goes unused, since the
    basis graph is itself the proof of the standing assumptions.
    """
    _require_count("tree node cap", node_cap, 0)
    if brg is None:
        brg = build_brg(lpn, cap)
    markings = brg.nfa.states
    index = {m: i for i, m in enumerate(markings)}
    # Per BRG state: (event, successor index, its path bit, arc consumes high firings).
    children = [tuple((event, index[successor], 1 << index[successor], any(event.evector))
                      for event, successor in brg.nfa.arcs_from(m))
                for m in markings]
    root_state = index[brg.nfa.initial[0]]
    state = [root_state]
    parent = [-1]
    events: list[BrgEvent | None] = [None]
    first_child = [0]
    duplicated: set[int] = set()
    alpha: list[int] = []
    beta: list[int] = []
    # Expandable nodes: (node id, BRG state, path bitmask including the node,
    # path consumed high firings), each with at least one arc.  Leaves are
    # settled when they are created; a root without arcs is a leaf.
    queue: deque[tuple[int, int, int, bool]] = deque(
        [(0, root_state, 1 << root_state, False)] if children[root_state] else [])
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
                if child_consumed:
                    beta.append(next_id)
            elif children[child_state]:
                queue.append((next_id, child_state, path | bit, child_consumed))
            elif child_consumed:
                alpha.append(next_id)
            next_id += 1

    return UbrgResult(brg=brg, state=state, parent=parent, event=events,
                      first_child=first_child, duplicated=frozenset(duplicated),
                      alpha_leaves=alpha, beta_leaves=beta)
