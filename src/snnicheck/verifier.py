"""Interference verifier: label-synchronized product of the unfolding with
the low-subnet behavior, and the resulting yes/no verdict.

Every tagged leaf of the unfolding stands for a low observation whose
enabling may depend on hidden high firings.  The verifier is the product of
the unfolding with the low subnet's reachability graph under equal labels; a
tag that the product can still reach has an indistinguishable low-only
counterpart.  The system is interference-free exactly when every tag is matched.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .basis import DEFAULT_TREE_NODE_CAP, Brg, Tag, UbrgResult, build_brg, build_ubrg
from .language import language_equal
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, LabeledPetriNet, LabelWord,
                    Marking, NetError)
from .reach import low_label_language


@dataclass
class SvNode:
    node_id: int
    ubrg_node: int
    low_marking: Marking


@dataclass
class SvResult:
    """Verifier tree plus which unfolding tags it managed to match.

    Node ``k > 0`` is created with arc ``k - 1`` of ``tree``, its one parent link.
    """

    tree: Nfa
    root: int
    nodes: dict[int, SvNode]
    ubrg: UbrgResult
    #: The low subnet's label language the tree is paired with.
    low: Nfa
    alpha_matched: frozenset[Tag]
    beta_matched: frozenset[Tag]
    #: Unexpanded beta-leaf pairings whose (marking, low marking) pair repeats
    #: an ancestor pair; exactly these admit their beta tag.
    duplicate_pair_nodes: frozenset[int]
    #: Untagged nodes whose pair repeats an ancestor pair.  Diagnostics only;
    #: the matching rule above never consults them.
    plain_duplicate_nodes: frozenset[int]

    def pair_of(self, node_id: int) -> tuple[Marking, Marking]:
        node = self.nodes[node_id]
        return (self.ubrg.nodes[node.ubrg_node].marking, node.low_marking)


def build_sv(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
             ubrg: UbrgResult | None = None,
             node_cap: int = DEFAULT_TREE_NODE_CAP) -> SvResult:
    """Pair each unfolding arc with every equally-labeled arc of the low RG.

    The low subnet's label language is built once and kept as ``low``.
    Breadth-first from (unfolding root, low initial marking); a node expands
    through every unfolding arc of its unfolding node, in arc order, times
    every low arc with the same label, in the low graph's (declaration) order,
    grouped by label once per low marking.  Each queued node carries its root
    path as a bitmask over interned (marking, low marking) pairs.  A
    beta-tagged pairing whose pair is already on its parent's path is recorded
    as a duplicate and left unexpanded; other repeats are only recorded.  Alpha tags are matched by
    mere reachability of their leaf; beta tags only by a recorded duplicate
    pairing.  Pass a prebuilt ``ubrg`` to avoid unfolding twice.
    """
    if ubrg is None:
        ubrg = build_ubrg(lpn, cap, node_cap)
    low = low_label_language(lpn, cap)
    low_moves: dict[Marking, dict[str, list[tuple[str, Marking]]]] = {}

    def moves_at(low_marking: Marking) -> dict[str, list[tuple[str, Marking]]]:
        """Low arcs per label, with the markings they reach."""
        moves = low_moves.get(low_marking)
        if moves is None:
            moves = low_moves[low_marking] = {}
            for t2, fired in low.arcs_from(low_marking):
                moves.setdefault(low.labeling[t2], []).append((t2, fired))
        return moves

    pair_ids: dict[tuple[Marking, Marking], int] = {}

    def path_bit(ubrg_node: int, low_marking: Marking) -> int:
        pair = (ubrg.nodes[ubrg_node].marking, low_marking)
        pair_id = pair_ids.get(pair)
        if pair_id is None:
            pair_id = pair_ids[pair] = len(pair_ids)
        return 1 << pair_id

    nodes: dict[int, SvNode] = {0: SvNode(0, ubrg.root, low.initial[0])}
    arcs: list[tuple[int, tuple[str, str], int]] = []
    labeling: dict[tuple[str, str], str] = {}
    duplicate_pair_nodes: set[int] = set()
    plain_duplicate_nodes: set[int] = set()
    # (node id, path bitmask over the pairs on the parent's path)
    queue: deque[tuple[int, int]] = deque([(0, 0)])
    next_id = 1
    while queue:
        nid, parent_path = queue.popleft()
        node = nodes[nid]
        bit = path_bit(node.ubrg_node, node.low_marking)
        if parent_path & bit:
            tag = ubrg.nodes[node.ubrg_node].tag
            if tag is not None and tag.kind == "beta":
                duplicate_pair_nodes.add(nid)
                continue
            plain_duplicate_nodes.add(nid)
        path = parent_path | bit
        moves = moves_at(node.low_marking)
        for event, u_child in ubrg.tree.arcs_from(node.ubrg_node):
            a = lpn.labeling[event.transition]
            for t2, fired in moves.get(a, ()):
                if next_id > node_cap:
                    raise NetError(f"verifier tree exceeds {node_cap} nodes; "
                                   "raise node_cap to continue")
                nodes[next_id] = SvNode(next_id, u_child, fired)
                sv_event = (event.transition, t2)
                labeling[sv_event] = a
                arcs.append((nid, sv_event, next_id))
                queue.append((next_id, path))
                next_id += 1

    alpha_matched = set()
    beta_matched = set()
    for nid, node in nodes.items():
        tag = ubrg.nodes[node.ubrg_node].tag
        if tag is None:
            continue
        if tag.kind == "alpha":
            alpha_matched.add(tag)
        elif nid in duplicate_pair_nodes:
            beta_matched.add(tag)
    tree = Nfa._from_unique(tuple(nodes), tuple(arcs), (0,), labeling)
    return SvResult(tree=tree, root=0, nodes=nodes, ubrg=ubrg, low=low,
                    alpha_matched=frozenset(alpha_matched),
                    beta_matched=frozenset(beta_matched),
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
    leaf's unfolding path.  The words are built by walks up the parent links
    that remember every node's word, so leaves share their common prefixes.

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
    witness_words: dict[Tag, LabelWord] = {}
    words: dict[int, LabelWord] = {sv.ubrg.root: ()}
    for tag in sorted(missing_alpha | missing_beta):
        witness_words[tag] = _path_word(lpn, sv.ubrg, sv.ubrg.tag_leaves[tag], words)
    return Verdict(snni=False,
                   missing_alpha=frozenset(missing_alpha),
                   missing_beta=frozenset(missing_beta),
                   witness_words=witness_words,
                   counterexample=check.counterexample)


def _path_word(lpn: LabeledPetriNet, ubrg: UbrgResult, node_id: int,
               words: dict[int, LabelWord]) -> LabelWord:
    """Label word of the unfolding path to ``node_id``.

    ``words`` memoizes the word of every node passed on the way up, so the
    paths of many leaves share the walk over their common prefix.
    """
    arcs = ubrg.tree.arcs
    pending: list[int] = []
    while node_id not in words:
        pending.append(node_id)
        node_id = arcs[node_id - 1][0]
    word = words[node_id]
    for nid in reversed(pending):
        word += (lpn.labeling[arcs[nid - 1][1].transition],)
        words[nid] = word
    return word


def decide_snni(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """Decide non-interference along the basis route.

    Builds the basis graph once, unfolds it, builds the verifier, matches
    tags, and grounds the boolean in the basis-graph/low-subnet language
    comparison.
    """
    brg = build_brg(lpn, cap)
    sv = build_sv(lpn, cap, ubrg=build_ubrg(lpn, cap, brg=brg))
    return sv_verdict(lpn, sv, brg=brg, cap=cap)
