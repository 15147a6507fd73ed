"""The SNNI decision, and the verifier tree as evidence on top of it.

:func:`decide_languages` decides without any tree: the net is SNNI exactly
when the basis graph's label language, the low projection of the net's, equals
the low subnet's.  The verifier pairs the unfolding with the low subnet's
reachability graph under equal labels; a tag the pairing reaches has a
low-only counterpart.  Like the unfolding, the verifier is stored as columns
indexed by node id; its automaton is a view built on access.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Mapping

from .basis import (DEFAULT_TREE_NODE_CAP, Brg, Tag, UbrgResult, build_brg, build_ubrg,
                    sorted_tags)
from .language import LanguageCheckResult, language_equal
from .nfa import Nfa
from .petri import DEFAULT_EXPLORATION_CAP, LabeledPetriNet, LabelWord, Marking, NetError
from .reach import low_label_language


@dataclass(frozen=True)
class LanguageDecision:
    """The tree-free decision: SNNI exactly when ``check.equal``.

    ``check`` compares the basis graph's label language with the low
    subnet's, ``low``; its counterexample is the shortest (and least) leaked
    low word.  The standing assumptions are proved by building ``brg``, whose
    ``assumptions`` holds the passing report.  ``timings`` holds the seconds
    spent on "brg" (the proof included) and "languages" (the low subnet's
    exploration and the comparison).
    """

    brg: Brg
    low: Nfa
    check: LanguageCheckResult
    timings: Mapping[str, float]


def decide_languages(lpn: LabeledPetriNet,
                     cap: int = DEFAULT_EXPLORATION_CAP) -> LanguageDecision:
    """Decide SNNI from the basis graph and the low subnet alone, building no tree."""
    t0 = time.perf_counter()
    brg = build_brg(lpn, cap)
    t1 = time.perf_counter()
    low = low_label_language(lpn, cap)
    check = _compare(brg.nfa, low)
    return LanguageDecision(brg, low, check,
                            {"brg": t1 - t0, "languages": time.perf_counter() - t1})


def _compare(projected: Nfa, low: Nfa) -> LanguageCheckResult:
    """The low projection of the net's language against the low subnet's.

    ``projected`` is the basis graph's automaton or the full net's projected
    reachability graph.  Its language contains the low subnet's, so a word
    only ``low`` accepts is an internal error.
    """
    check = language_equal(projected, low)
    if not check.equal and check.counterexample_side == "right":
        raise NetError("internal error: low-subnet word missing from the net's projected "
                       f"language: {check.counterexample}")
    return check


@dataclass
class SvResult:
    """Verifier tree as parallel columns indexed by node id, plus the matched tags.

    The root is node 0 and pairs the unfolding root with the low initial
    marking.  Nothing is allocated per node beyond the column entries: the low
    markings are the states of ``low``, and there is one ``(t, t_low)`` event
    object per distinct pair.
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
    def nodes(self) -> range:
        """The node ids."""
        return range(len(self.ubrg_node))

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


def build_sv(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
             ubrg: UbrgResult | None = None,
             node_cap: int = DEFAULT_TREE_NODE_CAP, low: Nfa | None = None) -> SvResult:
    """Pair each unfolding arc with every equally-labeled arc of the low RG.

    Breadth-first from (unfolding root, low initial marking); a node expands
    through every unfolding arc of its unfolding node, in arc order, times
    every low arc with the same label, in the low graph's (declaration) order,
    grouped once per low marking.  Each node's root path is a bitmask over
    interned (BRG state, low marking) pairs.  A beta-tagged pairing whose pair
    is already on its parent's path is recorded as a duplicate and left
    unexpanded; other repeats are only recorded.  Alpha tags are matched by
    mere reachability of their leaf; beta tags only by a recorded duplicate
    pairing.  The unfolding and the low label language (kept as ``low``) are
    built here unless passed.  The breadth-first order is the id order, so
    the builder walks the ids and keeps only each pending node's parent path.
    """
    if ubrg is None:
        ubrg = build_ubrg(lpn, cap, node_cap)
    if low is None:
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
    return SvResult(ubrg, low, ubrg_node, low_marking, parent, event,
                    alpha_matched=alpha_matched, beta_matched=beta_matched,
                    duplicate_pair_nodes=frozenset(duplicate_pair_nodes),
                    plain_duplicate_nodes=frozenset(plain_duplicate_nodes))


@dataclass(frozen=True)
class Verdict:
    """A language comparison's verdict, with the verifier's tags as evidence.

    ``snni`` and ``counterexample``, a shortest leaked low word, come from the
    comparison alone.  ``witness_words`` gives each unmatched tag's unfolding
    path word.  An alpha tag's word is a low observation the low subnet
    cannot produce.  A beta tag's word is one along which no low-only run
    returns to a pair repeated on its path; the low subnet may still accept
    it.  ``spurious_tags`` holds tags the per-path rule missed although the
    languages are equal.
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
               check: LanguageCheckResult | None = None) -> Verdict:
    """The verdict of a language comparison, with the tags of a built verifier.

    The per-tag matching is evidence, not a decision rule: a beta pairing
    may need several traversals of its basis cycle before the low side
    returns to a repeated pair, which the path-local repeat check cannot
    see.  So the verdict is the comparison's: pass ``check`` from
    :func:`decide_languages`, or ``brg`` (by default ``sv.ubrg.brg``) is
    compared with ``sv.low`` here.  Tags missed while the languages are
    equal are spurious, not leaks.  Nothing is explored.  On a negative
    verdict each unmatched tag gets its leaf's unfolding path word.
    """
    if check is None:
        check = _compare((sv.ubrg.brg if brg is None else brg).nfa, sv.low)
    missing_alpha = sv.ubrg.alpha_tags - sv.alpha_matched
    missing_beta = sv.ubrg.beta_tags - sv.beta_matched
    if check.equal:
        return Verdict(True, spurious_tags=missing_alpha | missing_beta)
    missing = sorted_tags(chain(missing_alpha, missing_beta))
    words = _path_words(lpn, sv.ubrg, [sv.ubrg.tag_leaves[tag] for tag in missing])
    return Verdict(False, missing_alpha, missing_beta, dict(zip(missing, words)),
                   check.counterexample)


def _path_words(lpn: LabeledPetriNet, ubrg: UbrgResult, leaves: list[int]) -> list[LabelWord]:
    """Label words of the unfolding paths to ``leaves``, read off the parent column.

    A parent's id is below its children's, so one pass in id order, up to the
    last parent needed, gives each expanded node its word from its parent's;
    each leaf then adds its own label.  Leaves share their common prefixes.
    """
    labeling, parent, event, first_child = lpn.labeling, ubrg.parent, ubrg.event, ubrg.first_child
    words: dict[int, LabelWord] = {ubrg.root: ()}
    for k in range(1, max((parent[leaf] for leaf in leaves), default=0) + 1):
        if first_child[k]:
            words[k] = words[parent[k]] + (labeling[event[k].transition],)
    return [words[parent[leaf]] + (labeling[event[leaf].transition],) for leaf in leaves]
