"""Reference semantics for net documents, kept apart from the snnicheck package.

The benchmark confirms the package's outputs with this module alone: it reads
the JSON net document itself, fires transitions with its own firing rule and
never imports the package.  Three confirmations are offered:

* a leaked word is replayed: the full net, with high labels erased, emits it
  and the low-transition-induced subnet cannot;
* the full net's low-projected words and the low subnet's words are compared
  up to a fixed length;
* a basis reachability graph, read back from its DOT export, is checked
  state by state (each is a reachable marking) and arc by arc (each satisfies
  the marking equation m' = m + C_H·y + C(t)).
"""

from __future__ import annotations

import json
import re
from collections import deque

Marking = tuple[int, ...]
Word = tuple[str, ...]


class Mismatch(Exception):
    """The package's output disagrees with the reference semantics."""


class RefNet:
    """A net document as plain vectors over the document's place order."""

    def __init__(self, document: str):
        data = json.loads(document)
        self.places = [p["id"] for p in data["places"]]
        index = {p: i for i, p in enumerate(self.places)}
        self.initial: Marking = tuple(p.get("initial_tokens", 0) for p in data["places"])
        self.label = {t["id"]: t["label"] for t in data["transitions"]}
        self.high = tuple(t["id"] for t in data["transitions"] if t["level"] == "high")
        self.low = tuple(t["id"] for t in data["transitions"] if t["level"] == "low")
        pre = {t: [0] * len(self.places) for t in self.label}
        post = {t: [0] * len(self.places) for t in self.label}
        for arc in data["arcs"]:
            weight = arc.get("weight", 1)
            if arc["from"] in index:
                pre[arc["to"]][index[arc["from"]]] += weight
            else:
                post[arc["from"]][index[arc["to"]]] += weight
        self.pre = {t: tuple(v) for t, v in pre.items()}
        self.change = {t: tuple(o - i for i, o in zip(pre[t], post[t])) for t in self.label}
        self.low_labels = sorted({self.label[t] for t in self.low})

    def fire(self, m: Marking, t: str) -> Marking | None:
        """Successor of ``m`` under ``t``, or None when ``t`` is not enabled."""
        if any(have < need for have, need in zip(m, self.pre[t])):
            return None
        return tuple(v + d for v, d in zip(m, self.change[t]))

    def basis_successor(self, m: Marking, t: str, y: tuple[int, ...]) -> Marking:
        """Marking equation m + C_H·y + C(t), with C taken from the document."""
        total = list(m)
        for count, h in zip(y, self.high):
            total = [v + count * d for v, d in zip(total, self.change[h])]
        return tuple(v + d for v, d in zip(total, self.change[t]))

    def reachable(self, cap: int = 2_000_000) -> set[Marking]:
        """Every marking the full net reaches from its initial marking."""
        seen = {self.initial}
        queue = deque([self.initial])
        while queue:
            m = queue.popleft()
            for t in self.label:
                nxt = self.fire(m, t)
                if nxt is not None and nxt not in seen:
                    if len(seen) >= cap:
                        raise Mismatch(f"reference exploration passed {cap} markings")
                    seen.add(nxt)
                    queue.append(nxt)
        return seen

    def _high_closure(self, markings: set[Marking]) -> frozenset[Marking]:
        closure = set(markings)
        stack = list(markings)
        while stack:
            m = stack.pop()
            for h in self.high:
                nxt = self.fire(m, h)
                if nxt is not None and nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def _start(self, full: bool) -> frozenset[Marking]:
        return self._high_closure({self.initial}) if full else frozenset([self.initial])

    def _step(self, states: frozenset[Marking], symbol: str, full: bool) -> frozenset[Marking]:
        """States after one low firing labelled ``symbol`` (then high firings, if full)."""
        targets = set()
        for m in states:
            for t in self.low:
                if self.label[t] == symbol:
                    nxt = self.fire(m, t)
                    if nxt is not None:
                        targets.add(nxt)
        return self._high_closure(targets) if full else frozenset(targets)

    def emits(self, word: Word, full: bool) -> bool:
        """Whether the full net (high labels erased) or the low subnet emits ``word``."""
        states = self._start(full)
        for symbol in word:
            states = self._step(states, symbol, full)
            if not states:
                return False
        return True

    def words(self, max_len: int, full: bool) -> set[Word]:
        """Low-label words of length <= ``max_len`` of the full net or the low subnet."""
        frontier: dict[Word, frozenset[Marking]] = {(): self._start(full)}
        steps: dict[tuple[frozenset[Marking], str], frozenset[Marking]] = {}
        found: set[Word] = {()}
        for _ in range(max_len):
            next_frontier = {}
            for word, states in frontier.items():
                for symbol in self.low_labels:
                    key = (states, symbol)
                    if key not in steps:
                        steps[key] = self._step(states, symbol, full)
                    if steps[key]:
                        next_frontier[word + (symbol,)] = steps[key]
            found.update(next_frontier)
            frontier = next_frontier
        return found


def confirm_leak(net: RefNet, word: Word) -> None:
    """A leaked word is emitted by the full net and not by the low subnet."""
    if not net.emits(word, full=True):
        raise Mismatch(f"leaked word {word} is not a low projection of the full net")
    if net.emits(word, full=False):
        raise Mismatch(f"leaked word {word} is also a word of the low subnet")


def confirm_bounded_languages(net: RefNet, max_len: int, snni: bool,
                              shortest_leak: Word | None) -> int:
    """Compare both word sets up to ``max_len`` against a verdict.

    An SNNI net has equal sets.  A NOT-SNNI net whose shortest leaked word
    fits in the bound has its first difference at exactly that length; a
    longer leak leaves the bounded sets equal.  Returns the number of words
    of the full net's projection that were compared.
    """
    full = net.words(max_len, full=True)
    low = net.words(max_len, full=False)
    if not low <= full:
        raise Mismatch(f"low-subnet words missing from the projection: {sorted(low - full)[:3]}")
    extra = full - low
    if snni or len(shortest_leak) > max_len:
        if extra:
            raise Mismatch(f"word sets differ up to length {max_len}: {sorted(extra)[:3]}")
    else:
        shortest = min(len(w) for w in extra) if extra else None
        if shortest != len(shortest_leak) or shortest_leak not in extra:
            raise Mismatch(f"shortest difference has length {shortest}, "
                           f"reported leak {shortest_leak} has length {len(shortest_leak)}")
    return len(full)


_NODE = re.compile(r'^  (n\d+) \[label="\[([\d ]*)\]"(, peripheries=2)?\];$')
_ARC = re.compile(r'^  (n\d+) -> (n\d+) \[label="\(([^,]+),\[([\d ]*)\]\)"\];$')
_NODE_ID = re.compile(r'^  n\d')


def _vector(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split())


def confirm_brg_dot(net: RefNet, dot: str, reachable: set[Marking]) -> tuple[int, int]:
    """Check a ``brg`` DOT export against the document; returns (states, arcs)."""
    states: dict[str, Marking] = {}
    arcs = 0
    initial = []
    for line in dot.splitlines():
        node = _NODE.match(line)
        arc = _ARC.match(line)
        if node:
            marking = _vector(node.group(2))
            if marking not in reachable:
                raise Mismatch(f"basis state {marking} is not a reachable marking")
            states[node.group(1)] = marking
            if node.group(3):
                initial.append(marking)
        elif arc:
            if arc.group(1) not in states or arc.group(2) not in states:
                raise Mismatch(f"arc between undeclared nodes: {line!r}")
            source, target = states[arc.group(1)], states[arc.group(2)]
            t, y = arc.group(3), _vector(arc.group(4))
            if t not in net.low or len(y) != len(net.high):
                raise Mismatch(f"arc event ({t}, {y}) is not a low transition "
                               "with a high count vector")
            expected = net.basis_successor(source, t, y)
            if expected != target:
                raise Mismatch(f"arc {source} -({t},{y})-> {target} breaks the "
                               f"marking equation, which gives {expected}")
            arcs += 1
        elif _NODE_ID.match(line):
            raise Mismatch(f"unreadable DOT line: {line!r}")
    if initial != [net.initial]:
        raise Mismatch(f"basis graph root {initial} is not the initial marking {net.initial}")
    return len(states), arcs
