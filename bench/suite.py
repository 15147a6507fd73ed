"""Workloads, the three timed operations and the rounds that time them.

Every operation starts from the net's JSON document and parses it afresh:
``LabeledPetriNet`` memoises the assumption report and the explanation
vectors on the object, and a command-line user pays for both on every run.
"""

from __future__ import annotations

import gc
import random
import time
from dataclasses import dataclass, field
from typing import Callable

from snnicheck import (NetError, analyze, build_brg, export_dot, parse_net,
                       serialize_net, snni_oracle)
from snnicheck.randnets import GeneratorConfig, random_lpn

from reference import Mismatch, RefNet, confirm_bounded_languages, confirm_brg_dot, confirm_leak
from yardstick import Yardstick


def _shuffled(seeds: range, seed: int) -> list[int]:
    """The suite is fixed; the benchmark seed only orders it.

    A few nets carry most of each suite's cost (deep-unfold nets 16 and 18
    take most of its ``check`` time), so a suite drawn afresh per seed would
    measure the draw rather than the program.
    """
    order = list(seeds)
    random.Random(seed).shuffle(order)
    return order


@dataclass(frozen=True)
class Workload:
    """One seeded net suite and the operations a round runs over it."""

    config: GeneratorConfig
    #: Net seeds of the suite, in pass order, for a benchmark seed.
    net_seeds: Callable[[int], list[int]]
    #: (operation, passes over the suite) in the order a round runs them on
    #: each net.  Fixed per workload, so every round attempts the same
    #: operations.
    round: tuple[tuple[str, int], ...]
    #: Length up to which the reference compares the two word sets.
    word_len: int
    #: Net seeds whose ``check`` is not run (see README).
    no_check: frozenset[int] = frozenset()


WORKLOADS = {
    # Default-config nets 1-400, twice the test suite's cross-validation
    # battery; the seed orders them.
    "battery": Workload(GeneratorConfig(), lambda seed: _shuffled(range(1, 401), seed),
                        (("check", 1), ("oracle", 2), ("brg", 2)), word_len=6),
    # The ROADMAP "big" suite; the seed orders it.  Net 16 keeps its failing
    # check: the verdict is lost when the verifier tree hits its node cap.
    "deep-unfold": Workload(GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6,
                                            bound_cap=100_000),
                            lambda seed: _shuffled(range(1, 41), seed),
                            (("check", 1), ("oracle", 4), ("brg", 2)), word_len=5),
    # The ROADMAP "huge" suite up to net 12; the seed orders it.  Net 9's
    # check fails the same way as deep-unfold's net 16, after about 11 s.
    "state-space": Workload(GeneratorConfig(max_places=20, max_transitions=30, max_tokens=10,
                                            bound_cap=300_000),
                            lambda seed: _shuffled(range(1, 13), seed),
                            (("brg", 1), ("oracle", 1), ("check", 1)), word_len=4,
                            no_check=frozenset({9})),
}


@dataclass(frozen=True)
class Failure:
    """An operation that raised the package's own error."""

    message: str


def op_check(document: str):
    """``snnicheck check``: full analysis and its machine-readable report."""
    report = analyze(parse_net(document))
    payload = report.to_dict()
    leaked = payload["leaked_word"]
    return (payload["snni"], tuple(leaked) if leaked is not None else None,
            report.verdict.counterexample)


def op_oracle(document: str):
    """``snnicheck oracle``: brute-force verdict and shortest leaked word."""
    verdict = snni_oracle(parse_net(document))
    return (verdict.snni, verdict.counterexample)


def op_brg(document: str) -> str:
    """``snnicheck brg``: basis reachability graph as DOT text."""
    return export_dot(build_brg(parse_net(document)))


OPERATIONS = {"check": op_check, "oracle": op_oracle, "brg": op_brg}


def plain_call(op: str, net_seed: int, document: str):
    """Run one operation on one net; the package's own error is its outcome."""
    try:
        return OPERATIONS[op](document)
    except NetError as exc:
        return Failure(str(exc))


def build_documents(workload: Workload, seed: int) -> list[tuple[int, str]]:
    """The set-up the benchmark times: generate and serialise every net."""
    return [(s, serialize_net(random_lpn(s, workload.config))) for s in workload.net_seeds(seed)]


@dataclass
class Ledger:
    """Counts every operation attempted and checks that repeated passes agree."""

    attempted: int = 0
    failed: int = 0
    first: dict[str, list] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def record(self, op: str, outcomes: list) -> None:
        self.attempted += len(outcomes)
        self.failed += sum(isinstance(o, Failure) for o in outcomes)
        if op not in self.first:
            self.first[op] = outcomes
        elif outcomes != self.first[op]:
            self.problems.append(f"{op}: a later pass gave other outputs than the first")


@dataclass
class Region:
    """One operation's calls in a round, and the yardstick units inside them."""

    seconds: float = 0.0
    done: int = 0
    unit_seconds: float = 0.0
    units: int = 0


def run_round(workload: Workload, nets: list[tuple[int, str]], ledger: Ledger, yard: Yardstick,
              call: Callable[[str, int, str], object] = plain_call) -> dict[str, Region]:
    """Run one round; returns per operation its calls' seconds, successful
    nets and yardstick units.

    A round is one pass over the suite in which every net gets each
    operation's passes in turn, each call timed on its own, without the
    yardstick units that ran inside it (see ``yardstick.py``).
    """
    regions = {op: Region() for op, _ in workload.round}
    passes = {(op, rep): [] for op, repeats in workload.round for rep in range(repeats)}
    gc.collect()
    for net_seed, document in nets:
        for op, repeats in workload.round:
            if op == "check" and net_seed in workload.no_check:
                continue
            region = regions[op]
            for rep in range(repeats):
                outcome, took, unit_seconds, units = yard.time(
                    lambda: call(op, net_seed, document))
                region.seconds += took
                region.unit_seconds += unit_seconds
                region.units += units
                passes[op, rep].append(outcome)
    for (op, _), outcomes in passes.items():
        ledger.record(op, outcomes)
        regions[op].done += sum(not isinstance(o, Failure) for o in outcomes)
    return regions


def pass_units(rounds: list[dict[str, Region]], repeats: dict[str, int]) -> dict[str, float]:
    """Yardstick units of one pass of each operation, the mean over the rounds.

    Each operation is read against the units that ran inside its own calls.
    Time spent on a failed net counts.
    """
    units = {}
    for op, n in repeats.items():
        unit_s = sum(r[op].unit_seconds for r in rounds) / sum(r[op].units for r in rounds)
        units[op] = sum(r[op].seconds for r in rounds) / (n * len(rounds)) / unit_s
    return units


def unit_seconds(rounds: list[dict[str, Region]]) -> float:
    """Seconds of one yardstick unit over the rounds."""
    return (sum(g.unit_seconds for r in rounds for g in r.values())
            / sum(g.units for r in rounds for g in r.values()))


def operation_inputs(workload: Workload, nets: list[tuple[int, str]]) -> dict[str, list]:
    return {op: [n for n in nets if op != "check" or n[0] not in workload.no_check]
            for op, _ in workload.round}


def verify(workload: Workload, nets: list[tuple[int, str]], first: dict[str, list]) -> list[str]:
    """Confirm the first pass of every operation with the reference semantics."""
    problems = []
    outcome = {op: dict(zip((s for s, _ in operation_inputs(workload, nets)[op]), outcomes))
               for op, outcomes in first.items()}
    for net_seed, document in nets:
        ref = RefNet(document)
        oracle_snni, shortest = outcome["oracle"][net_seed]
        leaks = {shortest} if shortest is not None else set()
        checked = outcome["check"].get(net_seed)
        try:
            if checked is not None and not isinstance(checked, Failure):
                snni, leaked, basis_word = checked
                if snni != oracle_snni:
                    raise Mismatch(f"check says {snni}, oracle says {oracle_snni}")
                if leaked != shortest:
                    raise Mismatch(f"check leaks {leaked}, oracle leaks {shortest}")
                leaks |= {basis_word} - {None}
            for word in leaks:
                confirm_leak(ref, word)
            confirm_bounded_languages(ref, workload.word_len, oracle_snni, shortest)
            if "brg" in outcome:
                confirm_brg_dot(ref, outcome["brg"][net_seed], ref.reachable())
        except Mismatch as exc:
            problems.append(f"net {net_seed}: {exc}")
    return problems
