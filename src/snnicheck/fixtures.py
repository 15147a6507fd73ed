"""Bundled demonstration nets.

``demo_secure`` is a small routing net where every low observation that high
firings can enable also has a purely low explanation, so it is
interference-free.  ``demo_leaky`` relabels one transition of the same net,
breaking exactly one of those covers.  The remaining demos violate one
standing assumption each.  ``hidden_choice`` and ``equal_effect`` are
parametric families with closed-form sizes and verdicts.
"""

from __future__ import annotations

from .netdoc import NetDocument
from .petri import InvalidNetError, LabeledPetriNet, PetriNet

_DEMO_PLACES = ("p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8", "p9")
_DEMO_ARCS = [
    ("p1", "h1"), ("h1", "p2"),
    ("p2", "l1"), ("l1", "p3"),
    ("p3", "l2"), ("l2", "p2"),
    ("p1", "h2"), ("h2", "p4"),
    ("p4", "l3"), ("l3", "p5"),
    ("p5", "l4"), ("l4", "p9"),
    ("p1", "l5"), ("l5", "p6"),
    ("p6", "l6"), ("l6", "p7"),
    ("p7", "l7"), ("l7", "p9"),
    ("p1", "l8"), ("l8", "p8"),
    ("p8", "l9"), ("l9", "p1"),
]
_DEMO_LABELS = {
    "h1": "f", "h2": "g",
    "l1": "a", "l2": "b", "l3": "c", "l4": "d", "l5": "c",
    "l6": "d", "l7": "e", "l8": "a", "l9": "b",
}
_DEMO_TRANSITIONS = ("h1", "l1", "l2", "h2", "l3", "l4", "l5", "l6", "l7", "l8", "l9")


def demo_secure() -> LabeledPetriNet:
    """One token routed through three branches; high routing stays covered."""
    net = PetriNet(_DEMO_PLACES, _DEMO_TRANSITIONS, _DEMO_ARCS,
                   (1, 0, 0, 0, 0, 0, 0, 0, 0))
    return LabeledPetriNet(net, _DEMO_LABELS, high_labels={"f", "g"})


def demo_leaky() -> LabeledPetriNet:
    """Same net with one relabeled transition; the high-enabled loop leaks."""
    labels = dict(_DEMO_LABELS)
    labels["l2"] = "c"
    net = PetriNet(_DEMO_PLACES, _DEMO_TRANSITIONS, _DEMO_ARCS,
                   (1, 0, 0, 0, 0, 0, 0, 0, 0))
    return LabeledPetriNet(net, labels, high_labels={"f", "g"})


def demo_sync_period_two() -> LabeledPetriNet:
    """Interference-free net whose per-tag matching needs two cycle traversals.

    A high firing and a low firing both move the token forward, and one low
    firing moves it back; the basis cycle has period one but its low mimic
    alternates two markings, so the path-local pair-repeat rule cannot match
    the beta tag even though the two languages are identical.  Kept as a
    regression net for the exact verdict grounding.
    """
    net = PetriNet(("p1", "p2"), ("t1", "t2", "t3"),
                   [("p1", "t1"), ("t1", "p2"),
                    ("p1", "t2"), ("t2", "p2"),
                    ("p2", "t3"), ("t3", "p1")],
                   (1, 0))
    return LabeledPetriNet(net, {"t1": "f", "t2": "a", "t3": "a"}, high_labels={"f"})


def demo_unbounded() -> LabeledPetriNet:
    """A source transition pumps tokens forever; fails the boundedness check."""
    net = PetriNet(("p",), ("t",), [("t", "p")], (0,))
    return LabeledPetriNet(net, {"t": "a"})


def demo_cyclic_high() -> LabeledPetriNet:
    """Two high transitions shuttle a token in a cycle; fails the acyclicity check."""
    net = PetriNet(("p", "q"), ("ha", "hb", "la"),
                   [("p", "ha"), ("ha", "q"), ("q", "hb"), ("hb", "p"),
                    ("q", "la"), ("la", "q")],
                   (1, 0))
    return LabeledPetriNet(net, {"ha": "f", "hb": "g", "la": "a"}, high_labels={"f", "g"})


def hidden_choice(k: int, leaky: bool = False) -> LabeledPetriNet:
    """``k`` independent hidden choices: SNNI, with 3^k reachable and 2^k basis markings.

    For each ``i < k``: places ``a_i`` (one token), ``b_i`` and ``c_i``; high
    ``h_i: a_i -> b_i``; low ``l_i: b_i -> c_i`` and ``m_i: a_i -> c_i``, both
    labeled ``x_i``, so ``m_i`` is the low-only twin of ``h_i l_i``.  With
    ``leaky`` there is no ``m_0``, and the low word ``x0`` leaks.  ``k``
    must be at least 1.
    """
    if k < 1:
        raise InvalidNetError(f"hidden_choice needs k >= 1, got {k}")
    places, transitions, arcs, labels = [], [], [], {}
    for i in range(k):
        a, b, c, h, l, m = (f"{name}{i}" for name in "abchlm")
        places += [a, b, c]
        transitions += [h, l]
        arcs += [(a, h), (h, b), (b, l), (l, c)]
        labels.update({h: h, l: f"x{i}"})
        if not (leaky and i == 0):
            transitions.append(m)
            arcs += [(a, m), (m, c)]
            labels[m] = f"x{i}"
    net = PetriNet(places, transitions, arcs, [1, 0, 0] * k)
    return LabeledPetriNet(net, labels, high_labels={f"h{i}" for i in range(k)})


def equal_effect(n: int, c: int) -> LabeledPetriNet:
    """``n`` high transitions with equal effect: NOT SNNI, with leak ``a``.

    Places ``p, q, r`` with ``c`` tokens on ``p``; high ``h0..h{n-1}: p -> q``
    and low ``l: q -> r``, labeled ``a``.  C(c+2, 2) markings are reachable and
    c+1 of them are basis markings.  ``n`` and ``c`` must be at least 1.
    """
    if n < 1 or c < 1:
        raise InvalidNetError(f"equal_effect needs n >= 1 and c >= 1, got n={n}, c={c}")
    highs = [f"h{i}" for i in range(n)]
    net = PetriNet(("p", "q", "r"), (*highs, "l"),
                   [arc for h in highs for arc in (("p", h), (h, "q"))] + [("q", "l"), ("l", "r")],
                   (c, 0, 0))
    return LabeledPetriNet(net, {**{h: h for h in highs}, "l": "a"}, high_labels=set(highs))


DEMOS = {
    "secure": demo_secure,
    "leaky": demo_leaky,
    "sync-period-two": demo_sync_period_two,
    "unbounded": demo_unbounded,
    "cyclic-high": demo_cyclic_high,
}


def fixture_document(name: str) -> str:
    """Canonical document text of a bundled demo net."""
    if name not in DEMOS:
        raise KeyError(f"unknown demo net {name!r}; available: {sorted(DEMOS)}")
    return NetDocument.from_lpn(DEMOS[name]()).to_json()
