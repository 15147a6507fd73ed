"""Per-layer trace: spans timed from outside around calls into each layer.

Traced rounds decompose the three operations into the package's public
layer functions and call them in an order where each span measures only its
own work.  ``LabeledPetriNet`` memoises the assumption report and the
explanation vectors, so on a fresh parse the assumption span runs first, the
explanation span then asks every (basis state, low transition) query that
``build_brg`` will ask, and the ``build_brg`` span that follows finds every
query answered and measures saturation alone.  Spans stay in memory and are
written out once the run ends.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from snnicheck import (NetError, build_brg, build_sv, build_ubrg, export_dot,
                       language_equal, low_label_language, minimal_e_vectors,
                       parse_net, projected_label_language)
from snnicheck.verifier import sv_verdict

from reference import RefNet
from suite import Failure

#: Span name -> per-layer time metric.  Counts are recorded on the spans
#: under their metric names.
TIME_METRICS = {
    "netdoc.parse": "netdoc.parse_s",
    "petri.assumptions": "petri.assumptions_s",
    "explanations.evectors": "explanations.evectors_s",
    "basis.brg_saturate": "basis.brg_saturate_s",
    "basis.ubrg": "basis.ubrg_s",
    "verifier.sv": "verifier.sv_s",
    "verifier.verdict": "verifier.verdict_s",
    "reach.low": "reach.low_s",
    "reach.full": "reach.full_s",
    "language.oracle_eq": "language.oracle_eq_s",
    "language.basis_eq": "language.basis_eq_s",
    "dot.export": "dot.export_s",
}
COUNT_METRICS = ("petri.reachable_markings", "explanations.queries", "basis.brg_states",
                 "basis.brg_arcs", "basis.ubrg_nodes", "verifier.sv_nodes",
                 "reach.low_markings", "reach.full_markings", "dot.export_bytes")
#: Basis states of the nets whose unfolding completed: the base of
#: ``basis.ubrg_per_brg_state``.
_UNFOLDED_BRG_STATES = "unfolded_brg_states"


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    net: int
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    """Keeps spans in memory and sums them per operation and traced round."""

    def __init__(self, nets: list[tuple[int, str]], clock: Callable[[], float]):
        #: Reference nets, built before any timing, for the e-vector queries.
        self.refs = {document: RefNet(document) for _, document in nets}
        self.spans: list[Span] = []
        #: Span times leave out the yardstick units that ran inside them.
        self.clock = clock
        self.passes: dict[str, list[dict[str, float]]] = {}
        self._parent: int | None = None
        self._net = 0
        self._round_start = 0

    def call(self, name: str, fn, *args, **kwargs):
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append(Span(name, start, self.clock(), self._parent, self._net))

    def count(self, counts: dict[str, int]) -> None:
        """Attach counts, keyed by metric name, to the span that just ended."""
        self.spans[-1].counts.update(counts)

    def traced_call(self, op: str, net_seed: int, document: str):
        """One operation on one net, decomposed into layer spans."""
        self._net = net_seed
        self._parent = len(self.spans)
        self.spans.append(Span(f"op.{op}", self.clock(), 0.0, None, net_seed))
        try:
            return ROUTES[op](self, document)
        except NetError as exc:
            return Failure(str(exc))
        finally:
            self.spans[self._parent].end = self.clock()
            self._parent = None

    def close_round(self, round_ops: tuple[tuple[str, int], ...]) -> None:
        """Sum the spans of the traced round just run into one pass per operation."""
        repeats = dict(round_ops)
        totals: dict[str, dict[str, float]] = {op: {} for op in repeats}
        for span in self.spans[self._round_start:]:
            if span.parent is None:
                continue
            sums = totals[self.spans[span.parent].name.removeprefix("op.")]
            if span.name in TIME_METRICS:
                key = TIME_METRICS[span.name]
                sums[key] = sums.get(key, 0.0) + span.end - span.start
            for key, value in span.counts.items():
                sums[key] = sums.get(key, 0) + value
        self._round_start = len(self.spans)
        for op, sums in totals.items():
            self.passes.setdefault(op, []).append(
                {key: value / repeats[op] for key, value in sums.items()})

    def layer_metrics(self) -> dict[str, float]:
        """Each layer's time and counts for one pass of every operation.

        Per operation, the median over the traced rounds of its figures for
        one pass over the suite; then summed over the operations, since
        several of them call the same layer.
        """
        metrics = {name: 0.0 for name in TIME_METRICS.values()}
        metrics.update({name: 0 for name in COUNT_METRICS})
        unfolded_states = 0
        for totals in self.passes.values():
            for key in set().union(*totals):
                value = statistics.median(t.get(key, 0) for t in totals)
                if key not in TIME_METRICS.values():
                    value = round(value)  # counts repeat exactly from pass to pass
                if key == _UNFOLDED_BRG_STATES:
                    unfolded_states += value
                else:
                    metrics[key] += value
        metrics["basis.ubrg_per_brg_state"] = (metrics["basis.ubrg_nodes"] / unfolded_states
                                               if unfolded_states else 0.0)
        return metrics

    def dump(self) -> list:
        origin = self.spans[0].start if self.spans else 0.0
        return [[s.name, s.start - origin, s.end - origin, s.parent, s.net, s.counts]
                for s in self.spans]


def _saturate_queries(lpn, ref: RefNet) -> int:
    """Ask every explanation query ``build_brg`` will ask, in its order.

    Successor markings come from the reference's marking equation, so the
    only package calls inside the span are the queries themselves.
    """
    seen = {ref.initial}
    queue = deque([ref.initial])
    queries = 0
    while queue:
        m = queue.popleft()
        for t in lpn.low_transitions:
            queries += 1
            for y in minimal_e_vectors(lpn, m, t).evectors:
                successor = ref.basis_successor(m, t, y)
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)
    return queries


def _basis_graph(tr: Tracer, document: str):
    lpn = tr.call("netdoc.parse", parse_net, document)
    report = tr.call("petri.assumptions", lpn.require_assumptions)
    tr.count({"petri.reachable_markings": report.reachable_count})
    queries = tr.call("explanations.evectors", _saturate_queries, lpn, tr.refs[document])
    tr.count({"explanations.queries": queries})
    brg = tr.call("basis.brg_saturate", build_brg, lpn)
    tr.count({"basis.brg_states": len(brg.nfa.states), "basis.brg_arcs": len(brg.nfa.arcs)})
    return lpn, brg


def _full(tr: Tracer, lpn):
    full = tr.call("reach.full", projected_label_language, lpn)
    tr.count({"reach.full_markings": len(full.states)})
    return full


def _low(tr: Tracer, lpn):
    low = tr.call("reach.low", low_label_language, lpn)
    tr.count({"reach.low_markings": len(low.states)})
    return low


def route_check(tr: Tracer, document: str):
    """``analyze`` call by call; the basis-graph language check is timed on its own."""
    lpn, brg = _basis_graph(tr, document)
    low = _low(tr, lpn)
    tr.call("language.basis_eq", language_equal, brg.nfa, low)
    ubrg = tr.call("basis.ubrg", build_ubrg, lpn)
    tr.count({"basis.ubrg_nodes": len(ubrg.nodes), _UNFOLDED_BRG_STATES: len(brg.nfa.states)})
    sv = tr.call("verifier.sv", build_sv, lpn, ubrg=ubrg)
    tr.count({"verifier.sv_nodes": len(sv.nodes)})
    # sv_verdict explores the low subnet and compares languages again inside.
    verdict = tr.call("verifier.verdict", sv_verdict, lpn, sv, brg=brg)
    leaked = None
    if not verdict.snni:
        leaked = tr.call("language.oracle_eq", language_equal, _full(tr, lpn), low).counterexample
    return (verdict.snni, leaked, verdict.counterexample)


def route_oracle(tr: Tracer, document: str):
    """``snni_oracle`` call by call."""
    lpn = tr.call("netdoc.parse", parse_net, document)
    full = _full(tr, lpn)
    check = tr.call("language.oracle_eq", language_equal, full, _low(tr, lpn))
    return (check.equal, check.counterexample)


def route_brg(tr: Tracer, document: str) -> str:
    """``snnicheck brg`` call by call."""
    _, brg = _basis_graph(tr, document)
    dot = tr.call("dot.export", export_dot, brg)
    tr.count({"dot.export_bytes": len(dot.encode())})
    return dot


ROUTES = {"check": route_check, "oracle": route_oracle, "brg": route_brg}
