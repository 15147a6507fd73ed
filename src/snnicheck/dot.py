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
    lines = ["digraph ubrg {", "  rankdir=LR;", "  node [shape=box];"]
    for nid, node in ubrg.nodes.items():
        text = format_marking(node.marking)
        if node.tag is not None:
            text += f" {node.tag}"
        attrs = [f"label={_quote(text)}"]
        if nid == ubrg.root:
            attrs.append("peripheries=2")
        if node.duplicated:
            attrs.append("style=dashed")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    for src, event, dst in ubrg.tree.arcs:
        lines.append(f"  n{src} -> n{dst} [label={_quote(format_event(event))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _sv_dot(sv: SvResult) -> str:
    lines = ["digraph verifier {", "  rankdir=LR;", "  node [shape=box];"]
    for nid, node in sv.nodes.items():
        unode = sv.ubrg.nodes[node.ubrg_node]
        text = f"{format_marking(unode.marking)} ; {format_marking(node.low_marking)}"
        if unode.tag is not None:
            text += f" {unode.tag}"
        attrs = [f"label={_quote(text)}"]
        if nid == sv.root:
            attrs.append("peripheries=2")
        if nid in sv.duplicate_pair_nodes or nid in sv.plain_duplicate_nodes:
            attrs.append("style=dashed")
        lines.append(f"  n{nid} [{', '.join(attrs)}];")
    for src, (t1, t2), dst in sv.tree.arcs:
        lines.append(f"  n{src} -> n{dst} [label={_quote(f'({t1},{t2})')}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
