"""Full analysis runs: pipeline verdict, graph sizes, and timings in one record."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .basis import Tag, build_ubrg, sorted_tags
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionReport, LabeledPetriNet,
                    LabelWord, format_word)
from .verifier import Verdict, build_sv, decide_languages, sv_verdict


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, ready for rendering."""

    snni: bool
    verdict: Verdict
    alpha_tags: frozenset[Tag]
    beta_tags: frozenset[Tag]
    alpha_matched: frozenset[Tag]
    beta_matched: frozenset[Tag]
    witness_words: Mapping[Tag, LabelWord]
    leaked_word: LabelWord | None
    brg_states: int
    ubrg_nodes: int
    sv_nodes: int
    reachable_markings: int
    low_reachable_markings: int
    assumptions: AssumptionReport
    cap: int
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view; tag sets and words are rendered deterministically."""
        witnessed = sorted_tags(self.witness_words)
        return {
            "snni": self.snni,
            "alpha_tags": _names(self.alpha_tags),
            "beta_tags": _names(self.beta_tags),
            "alpha_matched": _names(self.alpha_matched),
            "beta_matched": _names(self.beta_matched),
            "missing_alpha": _names(self.verdict.missing_alpha),
            "missing_beta": _names(self.verdict.missing_beta),
            "spurious_tags": _names(self.verdict.spurious_tags),
            "witness_words": {name: list(self.witness_words[tag])
                              for tag, name in zip(witnessed, _names(witnessed))},
            "leaked_word": list(self.leaked_word) if self.leaked_word is not None else None,
            "sizes": {
                "brg_states": self.brg_states,
                "ubrg_nodes": self.ubrg_nodes,
                "sv_nodes": self.sv_nodes,
                "reachable_markings": self.reachable_markings,
                "low_reachable_markings": self.low_reachable_markings,
            },
            "assumptions": {
                "bounded": self.assumptions.bounded,
                "high_subnet_acyclic": self.assumptions.high_subnet_acyclic,
            },
            "cap": self.cap,
            "timings": {k: round(v, 6) for k, v in self.timings.items()},
        }

    def to_text(self) -> str:
        lines = [f"verdict: {'SNNI' if self.snni else 'NOT SNNI'}"]
        lines.append(f"unfolding tags: alpha={_tags(self.alpha_tags)} beta={_tags(self.beta_tags)}")
        lines.append(f"matched tags:   alpha={_tags(self.alpha_matched)} beta={_tags(self.beta_matched)}")
        for tag in sorted_tags(self.verdict.missing_alpha | self.verdict.missing_beta):
            word = format_word(self.witness_words.get(tag))
            if tag.kind == "alpha":
                lines.append(f"unmatched {tag}: low observation {word} "
                             "has no low-only counterpart")
            else:
                lines.append(f"unmatched {tag}: no low-only run of {word} returns to "
                             "a pair repeated on its path")
        if self.verdict.spurious_tags:
            lines.append("tags unmatched by the per-path rule but covered by the "
                         "language check: " + _tags(self.verdict.spurious_tags))
        if self.leaked_word is not None:
            lines.append(f"leaked low word (shortest): {format_word(self.leaked_word)}")
        lines.append(f"sizes: reachable={self.reachable_markings} "
                     f"low-reachable={self.low_reachable_markings} brg={self.brg_states} "
                     f"ubrg={self.ubrg_nodes} sv={self.sv_nodes}")
        lines.append("timings: " + " ".join(f"{k}={v * 1000:.1f}ms"
                                            for k, v in self.timings.items()))
        return "\n".join(lines) + "\n"


def _names(tags: Iterable[Tag]) -> list[str]:
    """``str`` of each tag in sorted order, without a ``Tag.__str__`` call per tag."""
    return [f"{kind}_{number}" for kind, number in sorted_tags(tags)]


def _tags(tags: frozenset[Tag]) -> str:
    return "{" + ", ".join(_names(tags)) + "}"


def analyze(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> AnalysisReport:
    """Decide first, then build the trees as evidence, and collect the report.

    The verdict and the shortest leaked low word come from :func:`decide_languages`
    alone; the full net's state space is never enumerated, and the
    assumption report is the one the basis graph carries.  The unfolding and
    verifier, built on its basis graph and low language, only add the tags,
    but a tree past its node cap still raises and loses the verdict.
    """
    decision = decide_languages(lpn, cap)
    t0 = time.perf_counter()
    ubrg = build_ubrg(lpn, cap, brg=decision.brg)
    t1 = time.perf_counter()
    sv = build_sv(lpn, cap, ubrg=ubrg, low=decision.low)
    verdict = sv_verdict(lpn, sv, check=decision.check)
    # The proof of the assumptions is timed under "brg"; the key stays in the report.
    timings = {"assumptions": 0.0, "brg": decision.timings["brg"],
               "ubrg": t1 - t0, "sv": time.perf_counter() - t1,
               "languages": decision.timings["languages"]}
    assumptions = decision.brg.assumptions
    return AnalysisReport(
        snni=verdict.snni, verdict=verdict,
        alpha_tags=ubrg.alpha_tags, beta_tags=ubrg.beta_tags,
        alpha_matched=sv.alpha_matched, beta_matched=sv.beta_matched,
        witness_words=verdict.witness_words, leaked_word=verdict.counterexample,
        brg_states=len(decision.brg.nfa.states), ubrg_nodes=len(ubrg.nodes),
        sv_nodes=len(sv.nodes), reachable_markings=assumptions.reachable_count,
        low_reachable_markings=len(decision.low.states),
        assumptions=assumptions, cap=cap, timings=timings)


def decide_snni(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """:func:`analyze`'s verdict: the language decision, with the tree tags as evidence."""
    return analyze(lpn, cap).verdict
