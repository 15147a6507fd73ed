"""Seeded random labeled nets for cross-validation batteries.

Candidates are small nets with deliberately shared labels (that is where
nondeterminism bites); anything failing the standing checks within the bound
cap is rejected and regenerated, so every returned net is safe for both the
basis pipeline and the brute-force oracle.  The same seed always yields the
same net.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .petri import (LabeledPetriNet, NetError, PetriNet, _high_subnet_cycle,
                    check_assumptions)

_LOW_POOL = ("a", "b", "c")
_HIGH_POOL = ("f", "g")
_EXTRA_ARC_RATE = 0.2
_HIGH_RATE = 0.35
_MAX_ATTEMPTS = 500


@dataclass(frozen=True)
class GeneratorConfig:
    max_places: int = 6
    max_transitions: int = 8
    max_tokens: int = 2
    bound_cap: int = 2000


def random_lpn(seed: int, config: GeneratorConfig = GeneratorConfig()) -> LabeledPetriNet:
    """Deterministic random net satisfying both standing assumptions."""
    rng = random.Random(seed)
    for _ in range(_MAX_ATTEMPTS):
        lpn = _candidate(rng, config)
        # The structural cycle test is cheap; explore only acyclic candidates.
        if _high_subnet_cycle(lpn) is None and check_assumptions(lpn, config.bound_cap).ok:
            return lpn
    raise NetError(f"no acceptable net found for seed {seed} "
                   f"within {_MAX_ATTEMPTS} attempts")


def _candidate(rng: random.Random, config: GeneratorConfig) -> LabeledPetriNet:
    n_places = rng.randint(3, config.max_places)
    n_transitions = rng.randint(3, config.max_transitions)
    places = tuple(f"p{i}" for i in range(1, n_places + 1))
    transitions = tuple(f"t{i}" for i in range(1, n_transitions + 1))

    high_pool = _HIGH_POOL[:rng.randint(1, len(_HIGH_POOL))]
    labeling = {}
    for t in transitions:
        if rng.random() < _HIGH_RATE:
            labeling[t] = rng.choice(high_pool)
        else:
            labeling[t] = rng.choice(_LOW_POOL)

    # Chain-style wiring: mostly one input and one output per transition, so
    # token flow forms live chains instead of dying in conjunctive guards.
    # A transition always gets an input place, which keeps source transitions
    # (and instant unboundedness) out of the candidate pool.
    arcs: dict[tuple[str, str], int] = {}
    for t in transitions:
        arcs[(rng.choice(places), t)] = 1
        if rng.random() < 0.92:
            arcs[(t, rng.choice(places))] = 1
        if rng.random() < _EXTRA_ARC_RATE:
            arcs[(rng.choice(places), t)] = 1
        if rng.random() < _EXTRA_ARC_RATE:
            arcs[(t, rng.choice(places))] = 1 if rng.random() < 0.9 else 2

    # Bias a token toward a high transition's input so hidden firings have a
    # chance to gate low behavior; otherwise most nets are trivially secure.
    marking = [0] * n_places
    high_inputs = [p for (p, t) in arcs
                   if p in places and labeling.get(t) in _HIGH_POOL]
    for _ in range(rng.randint(1, config.max_tokens)):
        if high_inputs and rng.random() < 0.6:
            marking[places.index(rng.choice(high_inputs))] += 1
        else:
            marking[rng.randrange(n_places)] += 1

    net = PetriNet(places, transitions, arcs, marking)
    high_labels = {a for a in labeling.values() if a in _HIGH_POOL}
    return LabeledPetriNet(net, labeling, high_labels)
