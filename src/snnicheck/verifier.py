"""The SNNI decision, and the verifier tree as evidence on top of it.

:func:`decide_languages` decides without any tree: the net is SNNI exactly
when the basis graph's label language, the low projection of the net's, equals
the low subnet's.  The low subnet's reachability graph is read off the basis
graph, whose zero-vector arcs are exactly the low firings; nothing is
explored.  The verifier pairs the unfolding with the low subnet's
reachability graph under equal labels; a tag the pairing reaches has a
low-only counterpart.  A verifier path copies an unfolding path, whose BRG
states are distinct but at a duplicated leaf, so a pairing can repeat on
its path only at a duplicated leaf, against the pairing of its loop entry.
Like the unfolding, the verifier is stored only as columns indexed by node
id, and a node records only its own side of the pairing: the unfolding node,
the low marking and the low transition that reached it.  Its size is
counted from the distinct (unfolding node, low marking) pairings before any
column is built, so a tree past its node cap is refused at the cost of that
count.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping

from .basis import DEFAULT_TREE_NODE_CAP, Brg, UbrgResult, build_brg, build_ubrg
from .language import LanguageCheckResult, language_equal
from .nfa import Nfa
from .petri import (DEFAULT_EXPLORATION_CAP, LabeledPetriNet, LabelWord, Marking, NetError,
                    _require_count)
from .reach import low_language_within


@dataclass(frozen=True)
class LanguageDecision:
    """The tree-free decision: SNNI exactly when ``check.equal``.

    ``check`` compares the basis graph's label language with the low
    subnet's, ``low``; its counterexample is the shortest (and least) leaked
    low word.  The standing assumptions are proved by building ``brg``, whose
    ``assumptions`` holds the passing report.  ``timings`` holds the seconds
    spent on "brg" (the proof included) and "languages" (reading ``low`` off
    the basis graph, and the comparison).
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
    low = _low_language(lpn, brg)
    check = _compare(brg.nfa, low)
    return LanguageDecision(brg, low, check,
                            {"brg": t1 - t0, "languages": time.perf_counter() - t1})


def _low_language(lpn: LabeledPetriNet, brg: Brg) -> Nfa:
    """The low subnet's label language, read off the basis graph's zero-vector arcs.

    A low transition enabled at a basis marking has the zero vector as its
    one minimal explanation, so those arcs are exactly the low subnet's
    firings, and every marking they reach is a basis marking.
    """
    return low_language_within(lpn, brg.nfa, {e: e.transition for e in brg.nfa.labeling
                                              if not any(e.evector)})


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

    The root is node 0 and pairs the unfolding root, node 0, with the low
    initial marking.  Nothing is allocated per node beyond the column
    entries: the low markings are states of the low subnet's label language
    the tree was paired with, and the low transitions are its events.  That
    automaton is not kept here; :class:`LanguageDecision` holds it as
    ``low``.  Node ``k > 0`` is created by the arc from ``parent[k]`` that
    pairs the unfolding arc into ``ubrg_node[k]``, whose transition is
    ``ubrg.event[ubrg_node[k]].transition``, with the low arc of
    ``low_transition[k]``; the two share its label.  The matched tags are
    kept as their numbers, ascending: matched alpha tag ``n`` sits on the
    unfolding leaf ``ubrg.alpha_leaves[n - 1]``, and likewise for beta.
    """

    ubrg: UbrgResult
    #: Per node: the unfolding node it pairs.
    ubrg_node: list[int]
    #: Per node: the low marking it pairs.
    low_marking: list[Marking]
    #: Per node: its parent's id (-1 at the root).
    parent: list[int]
    #: Per node: the low transition it was created with (``None`` at the root).
    low_transition: list[str | None]
    #: Numbers of the matched tags of each kind, ascending.
    alpha_matched_numbers: tuple[int, ...]
    beta_matched_numbers: tuple[int, ...]
    #: Duplicated-leaf pairings whose low marking is the one paired with the
    #: leaf's loop entry, so their (BRG state, low marking) pair repeats on
    #: their path.  Those whose leaf is tagged admit its beta tag; the rest
    #: are diagnostics only.
    repeat_nodes: frozenset[int]

    @property
    def nodes(self) -> range:
        """The node ids."""
        return range(len(self.ubrg_node))


def build_sv(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP,
             ubrg: UbrgResult | None = None,
             node_cap: int = DEFAULT_TREE_NODE_CAP, low: Nfa | None = None) -> SvResult:
    """Pair each unfolding arc with every equally-labeled arc of the low RG.

    Breadth-first from (unfolding root, low initial marking); a node expands
    through every unfolding arc of its unfolding node, in arc order, times
    every low arc with the same label, in the low graph's (declaration) order,
    grouped by label once per low marking.  A node keeps only its low move:
    its pipeline move is the unfolding arc into the unfolding node it pairs.
    A node's parent pairs its unfolding node's parent, so its path copies an
    unfolding path, on which only a duplicated leaf repeats a BRG state,
    that of its loop entry.  A pairing of a duplicated leaf whose low
    marking equals its loop entry's is a repeat; every repeat goes into one
    set, ``repeat_nodes``.  Alpha tags are matched by mere reachability of
    their leaf; beta tags only by a repeat at their leaf, since a duplicated
    leaf's tag is always beta.  A matched tag is recorded as its number.
    The unfolding is built here unless passed, and the low label language
    is read off its basis graph unless passed; the result does not keep it.

    The tree is sized before it is built, so a tree past ``node_cap`` is
    refused without building any column.  Every pairing of one unfolding
    node with one low marking roots a subtree of the same shape, so the count
    goes level by level over the distinct pairings, each with its number of
    low runs, and stops as soon as it passes the cap.  A tree of ``n`` nodes
    fits ``node_cap = n - 1``.  The breadth-first order is the id order, so
    the builder walks the columns as it grows them.
    """
    _require_count("tree node cap", node_cap, 0)
    if ubrg is None:
        ubrg = build_ubrg(lpn, cap, node_cap)
    if low is None:
        low = _low_language(lpn, ubrg.brg)
    brg = ubrg.brg.nfa
    # Per BRG state: (offset of the child, its label) per arc, in arc order.
    child_moves = [tuple(enumerate(brg.labeling[event] for event, _ in brg.arcs_from(m)))
                   for m in brg.states]
    low_moves: dict[Marking, dict[str, list[tuple[str, Marking]]]] = {}

    def moves_at(low_marking: Marking) -> dict[str, list[tuple[str, Marking]]]:
        """Per label: the low transitions firing it and the low markings they reach."""
        moves = low_moves.get(low_marking)
        if moves is None:
            moves = low_moves[low_marking] = {}
            for t_low, fired in low.arcs_from(low_marking):
                moves.setdefault(low.labeling[t_low], []).append((t_low, fired))
        return moves

    ustate, ufirst, duplicated = ubrg.state, ubrg.first_child, ubrg.duplicated
    # Per level: unfolding node -> {low marking: number of tree nodes pairing them}.
    level: dict[int, dict[Marking, int]] = {0: {low.initial[0]: 1}}
    size = 1
    while level:
        below: dict[int, dict[Marking, int]] = {}
        for u, runs_at in level.items():
            first = ufirst[u]
            if not first:
                continue
            for lm, runs in runs_at.items():
                moves = moves_at(lm)
                for offset, label in child_moves[ustate[u]]:
                    fired_by = moves.get(label)
                    if fired_by:
                        child = below.setdefault(first + offset, {})
                        for _, fired in fired_by:
                            child[fired] = child.get(fired, 0) + runs
                        size += runs * len(fired_by)
                        if size - 1 > node_cap:
                            raise NetError(f"verifier tree exceeds {node_cap} nodes; "
                                           "raise node_cap to continue")
        level = below

    ubrg_node = [0]
    low_marking = [low.initial[0]]
    parent = [-1]
    low_transition: list[str | None] = [None]
    repeat_nodes: set[int] = set()
    # Breadth-first order is id order, so the walk reads the columns it grows.
    for nid, u in enumerate(ubrg_node):
        lm = low_marking[nid]
        if u in duplicated:
            # The leaf's state occurs on its path once above it, at its loop entry.
            s = ustate[u]
            entry = parent[nid]
            while ustate[ubrg_node[entry]] != s:
                entry = parent[entry]
            if low_marking[entry] == lm:
                repeat_nodes.add(nid)
        first = ufirst[u]
        if first:
            moves = low_moves[lm]
            for offset, label in child_moves[ustate[u]]:
                for t_low, fired in moves.get(label, ()):
                    ubrg_node.append(first + offset)
                    low_marking.append(fired)
                    parent.append(nid)
                    low_transition.append(t_low)

    reached = set(ubrg_node)
    # A duplicated leaf's tag, if any, is a beta tag.
    repeated = {ubrg_node[k] for k in repeat_nodes}
    return SvResult(ubrg, ubrg_node, low_marking, parent, low_transition,
                    alpha_matched_numbers=tuple(n for n, leaf in enumerate(ubrg.alpha_leaves, 1)
                                                if leaf in reached),
                    beta_matched_numbers=tuple(n for n, leaf in enumerate(ubrg.beta_leaves, 1)
                                               if leaf in repeated),
                    repeat_nodes=frozenset(repeat_nodes))


@dataclass(frozen=True)
class Verdict:
    """A language comparison's verdict, with the verifier's tags as evidence.

    ``snni`` and ``counterexample``, a shortest leaked low word, come from the
    comparison alone.  The tags are kept as numbers, each kind ascending.
    ``missing_words`` gives each unmatched tag's unfolding path word: the
    unmatched alpha tags', then the beta tags', each kind in number order.
    Equal words are one shared tuple.  An alpha tag's word is a low
    observation the low subnet cannot produce.  A beta tag's word is one
    along which no low-only run returns to a pair repeated on its path; the
    low subnet may still accept it.  The spurious numbers are those of tags
    the per-path rule missed although the languages are equal.  Number
    ``n`` of a kind names the tag on the unfolding's leaf
    ``alpha_leaves[n - 1]`` or ``beta_leaves[n - 1]``; the report renders
    it as ``alpha_<n>`` or ``beta_<n>``.
    """

    snni: bool
    missing_alpha_numbers: tuple[int, ...] = ()
    missing_beta_numbers: tuple[int, ...] = ()
    missing_words: tuple[LabelWord, ...] = ()
    counterexample: LabelWord | None = None
    spurious_alpha_numbers: tuple[int, ...] = ()
    spurious_beta_numbers: tuple[int, ...] = ()

    def __post_init__(self):
        if self.snni and (self.missing_alpha_numbers or self.missing_beta_numbers
                          or self.counterexample is not None):
            raise NetError("a positive verdict cannot carry interference evidence")
        if len(self.missing_words) != (len(self.missing_alpha_numbers)
                                       + len(self.missing_beta_numbers)):
            raise NetError("a verdict needs exactly one word per unmatched tag")


def sv_verdict(lpn: LabeledPetriNet, sv: SvResult, brg: Brg | None = None,
               check: LanguageCheckResult | None = None) -> Verdict:
    """The verdict of a language comparison, with the tags of a built verifier.

    The per-tag matching is evidence, not a decision rule: a beta pairing
    may need several traversals of its basis cycle before the low side
    returns to a repeated pair, which the path-local repeat check cannot
    see.  So the verdict is the comparison's: pass ``check`` from
    :func:`decide_languages`, or ``brg`` (by default ``sv.ubrg.brg``) is
    compared here with the low label language read off it.  Tags missed
    while the languages are equal are spurious, not leaks.  Nothing is
    explored.  The unmatched tags
    of each kind are its numbers 1..N without the matched ones.  On a
    negative verdict each unmatched tag gets its leaf's unfolding path word,
    in ``missing_words``: the alpha tags', then the beta tags', each kind in
    number order, which is also unfolding order.
    """
    if check is None:
        brg = sv.ubrg.brg if brg is None else brg
        check = _compare(brg.nfa, _low_language(lpn, brg))
    ubrg = sv.ubrg
    missing_alpha = _others(len(ubrg.alpha_leaves), sv.alpha_matched_numbers)
    missing_beta = _others(len(ubrg.beta_leaves), sv.beta_matched_numbers)
    if check.equal:
        return Verdict(True, spurious_alpha_numbers=missing_alpha,
                       spurious_beta_numbers=missing_beta)
    leaves = ([ubrg.alpha_leaves[n - 1] for n in missing_alpha]
              + [ubrg.beta_leaves[n - 1] for n in missing_beta])
    return Verdict(False, missing_alpha, missing_beta, _path_words(lpn, ubrg, leaves),
                   check.counterexample)


def _others(count: int, numbers: tuple[int, ...]) -> tuple[int, ...]:
    """The numbers 1..``count`` that are not in ``numbers``, distinct ones of them, ascending.

    Where ``numbers`` holds them all, as on a net whose tags all go unmatched
    (big net 18 has 37,593), no number is looked at.
    """
    if len(numbers) == count:
        return ()
    skip = set(numbers)
    return tuple(n for n in range(1, count + 1) if n not in skip)


def _path_words(lpn: LabeledPetriNet, ubrg: UbrgResult,
                leaves: list[int]) -> tuple[LabelWord, ...]:
    """Label words of the unfolding paths to ``leaves``, in the order given.

    A parent's id is below its children's, so one pass in id order, up to the
    last leaf, gives each node a word id from its parent's.  The words are
    hash-consed: each word keeps a table from a label to the id of its
    one-label extension, so each distinct word is built as a tuple once, and
    leaves with equal words get the same tuple object.
    """
    labeling, parent, event = lpn.labeling, ubrg.parent, ubrg.event
    words: list[LabelWord] = [()]
    extensions: list[dict[str, int]] = [{}]
    last = max(leaves, default=0)
    word_of = [0] * (last + 1)
    for k in range(1, last + 1):
        w = word_of[parent[k]]
        label = labeling[event[k].transition]
        x = extensions[w].get(label)
        if x is None:
            x = extensions[w][label] = len(words)
            words.append(words[w] + (label,))
            extensions.append({})
        word_of[k] = x
    return tuple(words[word_of[leaf]] for leaf in leaves)
