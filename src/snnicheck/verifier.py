"""Interference verifier: label-synchronized product of the unfolding with
the low-subnet behavior, and the resulting yes/no verdict.

Every tagged leaf of the unfolding stands for a low observation whose
enabling may depend on hidden high firings.  The verifier is the product of
the unfolding with the low subnet's reachability graph under equal labels; a
tag that the product can still reach has an indistinguishable low-only
counterpart.  The system is interference-free exactly when every tag is matched.

Like the unfolding, the verifier tree is stored as columns indexed by node
id (unfolding node, low marking, parent, incoming event); its node objects
and automaton are views built on access.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

from .basis import (DEFAULT_TREE_NODE_CAP, Brg, Tag, TreeNodes, UbrgResult, build_brg,
                    build_ubrg, sorted_tags)
from .language import language_equal
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, LabeledPetriNet, LabelWord,
                    Marking, NetError)
from .reach import low_label_language


@dataclass
class SvNode:
    """One verifier node, built on access by :attr:`SvResult.nodes`."""

    node_id: int
    ubrg_node: int
    low_marking: Marking


@dataclass
class SvResult:
    """Verifier tree as parallel columns indexed by node id, plus the matched tags.

    The root is node 0 and pairs the unfolding root with the low initial
    marking.  Nothing is allocated per node beyond the column entries: the
    low markings are the states of ``low`` and each ``(t, t_low)`` event is
    one object per distinct pair.  :attr:`nodes` and :attr:`tree` are views
    built from the columns on access.
    """

    ubrg: UbrgResult
    #: The low subnet's label language the tree is paired with.
    low: Nfa
    #: Per node: the unfolding node it pairs.
    ubrg_node: list[int]
    #: Per node: the low marking it pairs, a state of ``low``.
    low_marking: list[Marking]
    #: Per node: its parent's id (-1 at the root).
    parent: list[int]
    #: Per node: the ``(t, t_low)`` pair it was created with (``None`` at the root).
    event: list[tuple[str, str] | None]
    alpha_matched: frozenset[Tag]
    beta_matched: frozenset[Tag]
    #: Unexpanded beta-leaf pairings whose (marking, low marking) pair repeats
    #: an ancestor pair; exactly these admit their beta tag.
    duplicate_pair_nodes: frozenset[int]
    #: Untagged nodes whose pair repeats an ancestor pair.  Diagnostics only;
    #: the matching rule above never consults them.
    plain_duplicate_nodes: frozenset[int]
    root: int = 0

    @property
    def nodes(self) -> TreeNodes:
        """Read-only ``{node id: SvNode}`` view; each access builds the node."""
        return TreeNodes(len(self.ubrg_node), lambda k: SvNode(
            k, self.ubrg_node[k], self.low_marking[k]))

    @property
    def tree(self) -> Nfa:
        """The verifier as an automaton over node ids, built afresh on each access.

        Node ``k > 0`` is created with arc ``k - 1``, its one parent link; an
        event's label is the shared label of its two transitions.
        """
        parent, event = self.parent, self.event
        arcs = tuple((parent[k], event[k], k) for k in range(1, len(parent)))
        labeling = {e: self.low.labeling[e[1]] for _, e, _ in arcs}
        return Nfa._from_unique(tuple(range(len(parent))), arcs, (self.root,), labeling)

    def pair_of(self, node_id: int) -> tuple[Marking, Marking]:
        return (self.ubrg.marking(self.ubrg_node[node_id]), self.low_marking[node_id])


def build_sv(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
             ubrg: UbrgResult | None = None,
             node_cap: int = DEFAULT_TREE_NODE_CAP) -> SvResult:
    """Pair each unfolding arc with every equally-labeled arc of the low RG.

    The low subnet's label language is built once and kept as ``low``.
    Breadth-first from (unfolding root, low initial marking); a node expands
    through every unfolding arc of its unfolding node, in arc order, times
    every low arc with the same label, in the low graph's (declaration) order,
    grouped once per low marking.  Each node's root path is a bitmask over
    interned (BRG state, low marking) pairs.  A beta-tagged pairing whose pair
    is already on its parent's path is recorded as a duplicate and left
    unexpanded; other repeats are only recorded.  Alpha tags are matched by
    mere reachability of their leaf; beta tags only by a recorded duplicate
    pairing.  Pass a prebuilt ``ubrg`` to avoid unfolding twice.

    The breadth-first order is the id order, so the builder walks the ids
    and keeps only each pending node's parent path in a queue.  An unfolding
    node's children are read off its first-child id and its BRG state's arcs.
    """
    if ubrg is None:
        ubrg = build_ubrg(lpn, cap, node_cap)
    low = low_label_language(lpn, cap)
    brg = ubrg.brg.nfa
    # Per BRG state: (offset of the child, its transition) per arc, in arc order.
    child_moves = [tuple(enumerate(event.transition for event, _ in brg.arcs_from(m)))
                   for m in brg.states]
    events: dict[tuple[str, str], tuple[str, str]] = {}
    low_moves: dict[Marking, dict[str, tuple[tuple[tuple[str, str], Marking], ...]]] = {}

    def moves_at(low_marking: Marking) -> dict[str, tuple[tuple[tuple[str, str], Marking], ...]]:
        """Per pipeline transition: its ``(t, t_low)`` events and the low markings reached."""
        by_label: dict[str, list[tuple[str, Marking]]] = {}
        for t2, fired in low.arcs_from(low_marking):
            by_label.setdefault(low.labeling[t2], []).append((t2, fired))
        moves = low_moves[low_marking] = {}
        for t in lpn.low_transitions:
            fired_by = by_label.get(lpn.labeling[t])
            if fired_by:
                moves[t] = tuple((events.setdefault((t, t2), (t, t2)), fired)
                                 for t2, fired in fired_by)
        return moves

    ustate, ufirst, utags = ubrg.state, ubrg.first_child, ubrg.tags
    # Per BRG state: the path bit of each low marking paired with it so far.
    pair_bits: list[dict[Marking, int]] = [{} for _ in brg.states]
    pairs = 0
    ubrg_node = [ubrg.root]
    low_marking = [low.initial[0]]
    parent = [-1]
    event: list[tuple[str, str] | None] = [None]
    duplicate_pair_nodes: set[int] = set()
    plain_duplicate_nodes: set[int] = set()
    # The parent's path bitmask of each node not yet expanded, in id order.
    parent_paths: deque[int] = deque([0])
    nid = 0
    next_id = 1
    while parent_paths:
        parent_path = parent_paths.popleft()
        u = ubrg_node[nid]
        lm = low_marking[nid]
        bits = pair_bits[ustate[u]]
        bit = bits.get(lm)
        if bit is None:
            bit = bits[lm] = 1 << pairs
            pairs += 1
        if parent_path & bit:
            tag = utags.get(u)
            if tag is not None and tag.kind == "beta":
                duplicate_pair_nodes.add(nid)
                nid += 1
                continue
            plain_duplicate_nodes.add(nid)
        first = ufirst[u]
        if first:
            path = parent_path | bit
            moves = low_moves.get(lm)
            if moves is None:
                moves = moves_at(lm)
            for offset, t in child_moves[ustate[u]]:
                for sv_event, fired in moves.get(t, ()):
                    if next_id > node_cap:
                        raise NetError(f"verifier tree exceeds {node_cap} nodes; "
                                       "raise node_cap to continue")
                    ubrg_node.append(first + offset)
                    low_marking.append(fired)
                    parent.append(nid)
                    event.append(sv_event)
                    parent_paths.append(path)
                    next_id += 1
        nid += 1

    reached = set(ubrg_node)
    alpha_matched = frozenset(tag for u, tag in utags.items()
                              if tag.kind == "alpha" and u in reached)
    beta_matched = frozenset(utags[ubrg_node[k]] for k in duplicate_pair_nodes)
    return SvResult(ubrg=ubrg, low=low, ubrg_node=ubrg_node, low_marking=low_marking,
                    parent=parent, event=event,
                    alpha_matched=alpha_matched, beta_matched=beta_matched,
                    duplicate_pair_nodes=frozenset(duplicate_pair_nodes),
                    plain_duplicate_nodes=frozenset(plain_duplicate_nodes))


@dataclass(frozen=True)
class Verdict:
    """Interference decision with the evidence that produced it.

    ``witness_words`` carries, per unmatched tag, the label word of that
    tag's unfolding path: a low observation with no low-only counterpart.
    ``counterexample`` is a shortest leaked low word found by a language
    difference search.  ``spurious_tags`` holds tags the per-path matching
    rule failed on even though the language comparison proved their
    observations covered; see the note in :func:`sv_verdict`.
    """

    snni: bool
    missing_alpha: frozenset[Tag] = frozenset()
    missing_beta: frozenset[Tag] = frozenset()
    witness_words: Mapping[Tag, LabelWord] = field(default_factory=dict)
    counterexample: LabelWord | None = None
    spurious_tags: frozenset[Tag] = frozenset()

    def __post_init__(self):
        if self.snni and (self.missing_alpha or self.missing_beta
                          or self.counterexample is not None):
            raise NetError("a positive verdict cannot carry interference evidence")


def sv_verdict(lpn: LabeledPetriNet, sv: SvResult, brg: Brg | None = None,
               cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """Derive the verdict from an already-built verifier.

    The per-tag matching is the primary evidence, but on its own it is an
    incomplete decision rule: a beta pairing may need several traversals of
    its basis cycle before the low side returns to a repeated pair, and the
    path-local repeat check cannot see that far.  The verdict is therefore
    grounded in the exact criterion: the basis graph's label language, which
    is the low projection of the net's language, must coincide with the low
    subnet's.  That one comparison also yields the shortest (and
    lexicographically least) leaked word.  Tags the matching missed while the
    languages are equal are reported as spurious rather than treated as leaks.

    On a negative verdict each unmatched tag gets the label word of its
    leaf's unfolding path, read off the unfolding's parent column.

    The basis graph is built when none is passed; the low side is ``sv.low``.
    """
    if brg is None:
        brg = build_brg(lpn, cap)
    missing_alpha = sv.ubrg.alpha_tags - sv.alpha_matched
    missing_beta = sv.ubrg.beta_tags - sv.beta_matched
    check = language_equal(brg.nfa, sv.low)
    if not check.equal and check.counterexample_side == "right":
        raise NetError("internal error: low-subnet word missing from the basis-graph "
                       f"language: {check.counterexample}")
    if check.equal:
        return Verdict(snni=True,
                       spurious_tags=frozenset(missing_alpha | missing_beta))
    missing = sorted_tags(chain(missing_alpha, missing_beta))
    words = _path_words(lpn, sv.ubrg, [sv.ubrg.tag_leaves[tag] for tag in missing])
    return Verdict(snni=False,
                   missing_alpha=frozenset(missing_alpha),
                   missing_beta=frozenset(missing_beta),
                   witness_words=dict(zip(missing, words)),
                   counterexample=check.counterexample)


def _path_words(lpn: LabeledPetriNet, ubrg: UbrgResult, leaves: list[int]) -> list[LabelWord]:
    """Label words of the unfolding paths to ``leaves``, read off the parent column.

    A parent's id is below its children's, so one pass in id order gives each
    expanded node its word from its parent's, up to the last parent needed;
    each leaf then adds its own label.  Leaves share their common prefixes.
    """
    labeling, parent, event, first_child = lpn.labeling, ubrg.parent, ubrg.event, ubrg.first_child
    words: dict[int, LabelWord] = {ubrg.root: ()}
    for k in range(1, max((parent[leaf] for leaf in leaves), default=0) + 1):
        if first_child[k]:
            words[k] = words[parent[k]] + (labeling[event[k].transition],)
    return [words[parent[leaf]] + (labeling[event[leaf].transition],) for leaf in leaves]


def decide_snni(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """Decide non-interference along the basis route.

    Builds the basis graph once, unfolds it, builds the verifier, matches
    tags, and grounds the boolean in the basis-graph/low-subnet language
    comparison.
    """
    brg = build_brg(lpn, cap)
    sv = build_sv(lpn, cap, ubrg=build_ubrg(lpn, cap, brg=brg))
    return sv_verdict(lpn, sv, brg=brg, cap=cap)
