"""Deterministic DOT rendering of the graphs this package builds.

Node and arc order follow construction order, which the builders keep stable,
so exports of the same input are byte-identical across runs.  The unfolding
and the verifier are drawn by one tree renderer, from their columns.
"""

from __future__ import annotations

from typing import AbstractSet, Mapping

from .basis import Brg, BrgEvent, Tag, UbrgResult
from .nfa import Nfa
from .petri import InvalidNetError, Marking
from .reach import ReachGraph
from .verifier import SvResult


def format_marking(m: Marking) -> str:
    return "[" + " ".join(map(str, m)) + "]"


def format_event(event: BrgEvent) -> str:
    return f"({event.transition},{format_marking(event.evector)})"


def export_dot(graph) -> str:
    """Render a basis graph, unfolding, verifier, reachability graph, or bare NFA."""
    if isinstance(graph, Brg):
        return _nfa_dot(graph.nfa, name="brg", state_text=format_marking,
                        event_text=format_event)
    if isinstance(graph, UbrgResult):
        return _ubrg_dot(graph)
    if isinstance(graph, SvResult):
        return _sv_dot(graph)
    if isinstance(graph, ReachGraph):
        return _nfa_dot(graph.nfa, name="reach", state_text=format_marking,
                        event_text=str)
    if isinstance(graph, Nfa):
        return _nfa_dot(graph, name="nfa", state_text=str, event_text=str)
    raise InvalidNetError(f"cannot export {type(graph).__name__} as DOT")


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _nfa_dot(nfa: Nfa, name: str, state_text, event_text) -> str:
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    ids = {state: f"n{i}" for i, state in enumerate(nfa.states)}
    initial = set(nfa.initial)
    for state in nfa.states:
        attrs = [f"label={_quote(state_text(state))}"]
        if state in initial:
            attrs.append("peripheries=2")
        lines.append(f"  {ids[state]} [{', '.join(attrs)}];")
    labels: dict = {}  # each distinct event is rendered and quoted once
    for src, event, dst in nfa.arcs:
        label = labels.get(event)
        if label is None:
            label = labels[event] = _quote(event_text(event))
        lines.append(f"  {ids[src]} -> {ids[dst]} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _ubrg_dot(ubrg: UbrgResult) -> str:
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    return _tree_dot("ubrg", [markings[s] for s in ubrg.state], ubrg.tags, ubrg.duplicated,
                     ubrg.parent, ubrg.event, format_event)


def _sv_dot(sv: SvResult) -> str:
    """The pipeline half of an arc's ``(t,t_low)`` label is read off the unfolding node."""
    ubrg = sv.ubrg
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    low_markings = {m: format_marking(m) for m in sv.low.states}
    utags, uevent = ubrg.tags, ubrg.event
    texts = [f"{markings[ubrg.state[u]]} ; {low_markings[low]}"
             for u, low in zip(sv.ubrg_node, sv.low_marking)]
    tags = {nid: utags[u] for nid, u in enumerate(sv.ubrg_node) if u in utags}
    events = [None] + [(uevent[u].transition, t_low)
                       for u, t_low in zip(sv.ubrg_node[1:], sv.low_transition[1:])]
    return _tree_dot("verifier", texts, tags, sv.duplicate_pair_nodes | sv.plain_duplicate_nodes,
                     sv.parent, events, lambda pair: f"({pair[0]},{pair[1]})")


def _tree_dot(name: str, texts: list[str], tags: Mapping[int, Tag], dashed: AbstractSet[int],
              parent: list[int], events: list, event_text) -> str:
    """A tree from its columns: node ``k`` reads ``texts[k]``, then its tag if it has one.

    The root, node 0, is doubly outlined and the ``dashed`` nodes are dashed.
    Node ``k > 0`` hangs below ``parent[k]`` by an arc labeled
    ``event_text(events[k])``; each distinct event is formatted and quoted once.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for nid, text in enumerate(texts):
        tag = tags.get(nid)
        attrs = [f"label={_quote(text if tag is None else f'{text} {tag}')}"]
        if nid == 0:
            attrs.append("peripheries=2")
        if nid in dashed:
            attrs.append("style=dashed")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    labels: dict = {}
    for dst in range(1, len(parent)):
        label = labels.get(events[dst])
        if label is None:
            label = labels[events[dst]] = _quote(event_text(events[dst]))
        lines.append(f"  n{parent[dst]} -> n{dst} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
