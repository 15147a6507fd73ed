"""Deterministic DOT rendering of the graphs this package builds.

Node and arc order follow construction order, which the builders keep stable,
so exports of the same input are byte-identical across runs.  One writer
draws every graph and tree: the automata pass their states and arcs, the
unfolding and the verifier their columns, each tree node hanging below its
parent.
"""

from __future__ import annotations

from typing import Container, Iterable, Mapping

from .basis import Brg, BrgEvent, UbrgResult, _tag_names
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
    ids = {state: f"n{i}" for i, state in enumerate(nfa.states)}
    return _dot(name, nfa.states, map(state_text, nfa.states), set(nfa.initial), (), ids,
                nfa.arcs, event_text)


def _tree_dot(name: str, texts: list[str], tags: Mapping[int, str], dashed: Container[int],
              parent: list[int], events: list, event_text) -> str:
    """Node ``k`` reads ``texts[k]``, then its tag if it has one (written into ``texts``).

    The root, node 0, is doubly outlined, and node ``k > 0`` hangs below
    ``parent[k]`` by an arc carrying ``events[k]``.
    """
    for k, tag in tags.items():
        texts[k] = f"{texts[k]} {tag}"
    ids = [f"n{k}" for k in range(len(parent))]
    return _dot(name, range(len(ids)), texts, (0,), dashed, ids,
                zip(parent[1:], events[1:], range(1, len(ids))), event_text)


def _leaf_tags(ubrg: UbrgResult) -> dict[int, str]:
    """The tag name of each tagged leaf of the unfolding."""
    tags = dict(zip(ubrg.alpha_leaves, _tag_names("alpha", len(ubrg.alpha_leaves))))
    tags.update(zip(ubrg.beta_leaves, _tag_names("beta", len(ubrg.beta_leaves))))
    return tags


def _ubrg_dot(ubrg: UbrgResult) -> str:
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    return _tree_dot("ubrg", [markings[s] for s in ubrg.state], _leaf_tags(ubrg),
                     ubrg.duplicated, ubrg.parent, ubrg.event, format_event)


def _sv_dot(sv: SvResult) -> str:
    """The pipeline half of an arc's ``(t,t_low)`` label is read off the unfolding node.

    Each distinct low marking of the ``low_marking`` column is formatted once.
    """
    ubrg = sv.ubrg
    markings = [format_marking(m) for m in ubrg.brg.nfa.states]
    low_markings = {m: format_marking(m) for m in set(sv.low_marking)}
    utags, uevent = _leaf_tags(ubrg), ubrg.event
    texts = [f"{markings[ubrg.state[u]]} ; {low_markings[low]}"
             for u, low in zip(sv.ubrg_node, sv.low_marking)]
    tags = {nid: utags[u] for nid, u in enumerate(sv.ubrg_node) if u in utags}
    events = [None] + [(uevent[u].transition, t_low)
                       for u, t_low in zip(sv.ubrg_node[1:], sv.low_transition[1:])]
    return _tree_dot("verifier", texts, tags, sv.repeat_nodes, sv.parent, events,
                     lambda pair: f"({pair[0]},{pair[1]})")


def _dot(name: str, nodes: Iterable, texts: Iterable[str], initial: Container,
         dashed: Container, ids, arcs: Iterable[tuple], event_text) -> str:
    """Every graph and tree: each node of ``nodes``, in order, labeled by the text in step.

    The ``initial`` nodes are doubly outlined and the ``dashed`` nodes are
    dashed; ``ids`` gives each node its DOT id, ``"n<k>"`` for the ``k``-th.
    An arc ``(source, event, target)`` between two nodes is labeled
    ``event_text(event)``; each distinct event is formatted and quoted once.
    """
    lines = [f"digraph {name} {{", "  rankdir=LR;", "  node [shape=box];"]
    for node, text in zip(nodes, texts):
        attrs = "label=" + _quote(text)
        if node in initial:
            attrs += ", peripheries=2"
        if node in dashed:
            attrs += ", style=dashed"
        lines.append(f"  {ids[node]} [{attrs}];")
    labels: dict = {}
    for src, event, dst in arcs:
        label = labels.get(event)
        if label is None:
            label = labels[event] = _quote(event_text(event))
        lines.append(f"  {ids[src]} -> {ids[dst]} [label={label}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
