from __future__ import annotations

import re

import pytest

from snnicheck.fixtures import (DEMOS, demo_leaky, demo_secure, equal_effect,
                                hidden_choice)
from snnicheck.nfa import Nfa
from snnicheck.petri import LabeledPetriNet, PetriNet
from snnicheck.randnets import GeneratorConfig, random_lpn

# Basis markings of the secure demo net, by place order p1..p9.  These eight
# vectors are the net's complete basis set and double as expected BRG states.
BASIS_M0 = (1, 0, 0, 0, 0, 0, 0, 0, 0)
BASIS_M1 = (0, 0, 1, 0, 0, 0, 0, 0, 0)
BASIS_M2 = (0, 1, 0, 0, 0, 0, 0, 0, 0)
BASIS_M3 = (0, 0, 0, 0, 1, 0, 0, 0, 0)
BASIS_M4 = (0, 0, 0, 0, 0, 0, 0, 1, 0)
BASIS_M5 = (0, 0, 0, 0, 0, 1, 0, 0, 0)
BASIS_M6 = (0, 0, 0, 0, 0, 0, 1, 0, 0)
BASIS_M7 = (0, 0, 0, 0, 0, 0, 0, 0, 1)
ALL_BASIS_MARKINGS = frozenset({
    BASIS_M0, BASIS_M1, BASIS_M2, BASIS_M3,
    BASIS_M4, BASIS_M5, BASIS_M6, BASIS_M7,
})


#: The nets of the three benchmark suites: default nets 1-400, big 1-40, huge 1-12.
BENCH_SUITES = (
    (GeneratorConfig(), range(1, 401)),
    (GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000),
     range(1, 41)),
    (GeneratorConfig(max_places=20, max_transitions=30, max_tokens=10, bound_cap=300_000),
     range(1, 13)),
)


def demo_and_suite_nets():
    """(name, net) for every bundled demo, then every net of :data:`BENCH_SUITES`."""
    for name, make in DEMOS.items():
        yield name, make()
    for config, seeds in BENCH_SUITES:
        for seed in seeds:
            yield f"{config.max_places}-place net {seed}", random_lpn(seed, config)


def bounded_nets():
    """(name, net) for the bounded demos, the suite nets and small members of both families."""
    for name, lpn in demo_and_suite_nets():
        if name not in ("unbounded", "cyclic-high"):
            yield name, lpn
    for k in (1, 2, 3):
        yield f"hidden_choice({k})", hidden_choice(k)
        yield f"hidden_choice({k}, leaky=True)", hidden_choice(k, leaky=True)
    for n, c in ((1, 1), (2, 3), (3, 4)):
        yield f"equal_effect({n}, {c})", equal_effect(n, c)


@pytest.fixture
def secure() -> LabeledPetriNet:
    return demo_secure()


@pytest.fixture
def leaky() -> LabeledPetriNet:
    return demo_leaky()


def marking_of(lpn: LabeledPetriNet, **tokens: int) -> tuple[int, ...]:
    """Marking vector from place-name keyword arguments."""
    return tuple(tokens.get(p, 0) for p in lpn.net.places)


def node_marking(ubrg, node: int) -> tuple[int, ...]:
    """The marking of an unfolding node: its BRG state's, off the ``state`` column."""
    return ubrg.brg.nfa.states[ubrg.state[node]]


def root_path(tree, node: int) -> list:
    """Arc payloads from a tree's root, node 0, down to ``node``, off its parent and event columns."""
    events = []
    while node:
        events.append(tree.event[node])
        node = tree.parent[node]
    events.reverse()
    return events


def leaf_tags(ubrg) -> dict[int, tuple[str, int]]:
    """The ``(kind, number)`` tag of each tagged unfolding leaf, in node order.

    Rebuilt from the leaf lists: tag ``n`` of a kind sits on the ``n``-th leaf
    of that kind's list.
    """
    tags = {leaf: ("alpha", n) for n, leaf in enumerate(ubrg.alpha_leaves, 1)}
    tags.update((leaf, ("beta", n)) for n, leaf in enumerate(ubrg.beta_leaves, 1))
    return dict(sorted(tags.items()))


def witness_words(verdict) -> dict[tuple[str, int], tuple[str, ...]]:
    """Each unmatched ``(kind, number)`` tag with its word: the alpha tags', then the beta tags'."""
    tags = ([("alpha", n) for n in verdict.missing_alpha_numbers]
            + [("beta", n) for n in verdict.missing_beta_numbers])
    return dict(zip(tags, verdict.missing_words))


def relabeled(nfa: Nfa, label) -> Nfa:
    """``nfa`` with each event ``e`` of its arcs labeled ``label(e)``."""
    return Nfa(nfa.states, nfa.arcs, nfa.initial, {e: label(e) for _, e, _ in nfa.arcs})


def unbounded_witness(message: str) -> tuple[tuple[str, ...], int]:
    """Firing path and pump start named by an "unbounded" refusal."""
    match = re.fullmatch(r"net is unbounded: firing (.+) strictly dominates "
                         r"the marking reached after step (\d+)", message)
    assert match, message
    return tuple(match[1].split()), int(match[2])


def assert_pumps(net: PetriNet, path: tuple[str, ...], pump_start: int) -> None:
    """``path`` fires from the initial marking and strictly grows after ``pump_start`` steps."""
    start = net.fire_sequence(net.initial_marking, path[:pump_start])
    end = net.fire_sequence(start, path[pump_start:])
    assert start != end and all(a <= b for a, b in zip(start, end)), (path, pump_start)


def record_calls(monkeypatch, cls, names: tuple[str, ...], calls: list | None = None) -> list:
    """Names of the methods of ``cls`` among ``names`` as they are called.

    ``cls`` may also be a module, whose functions among ``names`` are then
    recorded when called with a positional argument.  Pass ``calls`` to
    record into a list shared with another call.
    """
    calls = [] if calls is None else calls

    def recording(name):
        original = getattr(cls, name)

        def record(self, *args, **kwargs):
            calls.append(name)
            return original(self, *args, **kwargs)
        return record

    for name in names:
        monkeypatch.setattr(cls, name, recording(name))
    return calls
