"""Deterministic DOT rendering of the graphs this package builds.

Node and arc order follow construction order, which the builders keep stable,
so exports of the same input are byte-identical across runs.
"""

from __future__ import annotations

from .basis import Brg, BrgEvent, UbrgResult
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
    """Rendered from the unfolding's columns; each BRG marking and event is formatted once."""
    lines = ["digraph ubrg {", "  rankdir=LR;", "  node [shape=box];"]
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    plain = [f"label={_quote(text)}" for text in markings]
    tags, duplicated = ubrg.tags, ubrg.duplicated
    for nid, state in enumerate(ubrg.state):
        tag = tags.get(nid)
        attrs = [plain[state] if tag is None else f"label={_quote(f'{markings[state]} {tag}')}"]
        if nid == 0:
            attrs.append("peripheries=2")
        if nid in duplicated:
            attrs.append("style=dashed")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    lines += _tree_arc_lines(ubrg.parent, ubrg.event, format_event)
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sv_dot(sv: SvResult) -> str:
    """Rendered from the verifier's columns; each marking and event is formatted once."""
    lines = ["digraph verifier {", "  rankdir=LR;", "  node [shape=box];"]
    ubrg = sv.ubrg
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    low_markings = {m: format_marking(m) for m in sv.low.states}
    tags = ubrg.tags
    dashed = sv.duplicate_pair_nodes | sv.plain_duplicate_nodes
    for nid, (u, low) in enumerate(zip(sv.ubrg_node, sv.low_marking)):
        text = f"{markings[ubrg.state[u]]} ; {low_markings[low]}"
        tag = tags.get(u)
        if tag is not None:
            text += f" {tag}"
        attrs = [f"label={_quote(text)}"]
        if nid == 0:
            attrs.append("peripheries=2")
        if nid in dashed:
            attrs.append("style=dashed")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    lines += _tree_arc_lines(sv.parent, sv.event, lambda pair: f"({pair[0]},{pair[1]})")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _tree_arc_lines(parent: list[int], event: list, event_text) -> list[str]:
    """One line per parent link, from a tree's columns; each distinct event is quoted once."""
    labels: dict = {}
    lines = []
    for dst in range(1, len(parent)):
        label = labels.get(event[dst])
        if label is None:
            label = labels[event[dst]] = _quote(event_text(event[dst]))
        lines.append(f"  n{parent[dst]} -> n{dst} [label={label}];")
    return lines
