"""Full analysis runs: pipeline verdict, graph sizes, and timings in one record."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import AbstractSet

from .basis import Tag, build_ubrg
from .petri import DEFAULT_EXPLORATION_CAP, AssumptionReport, LabeledPetriNet, format_word
from .verifier import Verdict, build_sv, decide_languages, sv_verdict


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, ready for rendering.

    The verdict, its shortest leaked low word and the witness words are
    ``verdict``'s, and the reachable-marking count is ``assumptions``'; the
    report keeps no copy of them.  The tag sets are an unfolding's
    (:func:`~snnicheck.basis.build_ubrg`): each kind is numbered 1, 2, ...
    without gaps, and the renderings list them in that order.
    """

    verdict: Verdict
    alpha_tags: frozenset[Tag]
    beta_tags: frozenset[Tag]
    alpha_matched: frozenset[Tag]
    beta_matched: frozenset[Tag]
    brg_states: int
    ubrg_nodes: int
    sv_nodes: int
    low_reachable_markings: int
    assumptions: AssumptionReport
    cap: int
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view; tag sets and words are rendered in unfolding order.

        Per kind, alpha first, tag ``n`` is named ``names[n - 1]``: the
        unfolding numbers each kind's tags 1, 2, ... in node order, so the
        names list every tag in unfolding order without sorting a tag set,
        and every rendered list is filtered from them.  ``witness_words`` is
        walked in its own order, which the verdict documents as alpha tags,
        then beta tags, each by number.  Its words are the verdict's shared
        tuples, not copies; ``json.dumps`` writes them as arrays.
        """
        alpha_tags, beta_tags, verdict = self.alpha_tags, self.beta_tags, self.verdict
        names = {kind: [f"{kind}_{number}" for number in range(1, len(tags) + 1)]
                 for kind, tags in (("alpha", alpha_tags), ("beta", beta_tags))}
        alpha, beta = names["alpha"], names["beta"]
        leaked = verdict.counterexample
        return {
            "snni": verdict.snni,
            "alpha_tags": alpha,
            "beta_tags": beta,
            "alpha_matched": _among("alpha", alpha, alpha_tags, self.alpha_matched),
            "beta_matched": _among("beta", beta, beta_tags, self.beta_matched),
            "missing_alpha": _among("alpha", alpha, alpha_tags, verdict.missing_alpha),
            "missing_beta": _among("beta", beta, beta_tags, verdict.missing_beta),
            "spurious_tags": (_among("alpha", alpha, alpha_tags, verdict.spurious_tags)
                              + _among("beta", beta, beta_tags, verdict.spurious_tags)),
            "witness_words": {names[kind][number - 1]: word
                              for (kind, number), word in verdict.witness_words.items()},
            "leaked_word": list(leaked) if leaked is not None else None,
            "sizes": {
                "brg_states": self.brg_states,
                "ubrg_nodes": self.ubrg_nodes,
                "sv_nodes": self.sv_nodes,
                "reachable_markings": self.assumptions.reachable_count,
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
        """The :meth:`to_dict` record as lines of text.

        Equal witness words are one shared tuple, so each distinct tuple is
        formatted once, keyed by its ``id``, and looked up per tag.
        """
        record = self.to_dict()
        words, sizes = record["witness_words"], record["sizes"]
        distinct = {id(word): word for word in words.values()}
        texts = {key: format_word(word) for key, word in distinct.items()}
        lines = [f"verdict: {'SNNI' if record['snni'] else 'NOT SNNI'}",
                 f"unfolding tags: alpha={_braced(record['alpha_tags'])} "
                 f"beta={_braced(record['beta_tags'])}",
                 f"matched tags:   alpha={_braced(record['alpha_matched'])} "
                 f"beta={_braced(record['beta_matched'])}"]
        for name in record["missing_alpha"]:
            lines.append(f"unmatched {name}: low observation {texts[id(words[name])]} "
                         "has no low-only counterpart")
        for name in record["missing_beta"]:
            lines.append(f"unmatched {name}: no low-only run of {texts[id(words[name])]} "
                         "returns to a pair repeated on its path")
        if record["spurious_tags"]:
            lines.append("tags unmatched by the per-path rule but covered by the "
                         "language check: " + _braced(record["spurious_tags"]))
        if record["leaked_word"] is not None:
            lines.append(f"leaked low word (shortest): {format_word(record['leaked_word'])}")
        lines.append(f"sizes: reachable={sizes['reachable_markings']} "
                     f"low-reachable={sizes['low_reachable_markings']} "
                     f"brg={sizes['brg_states']} ubrg={sizes['ubrg_nodes']} sv={sizes['sv_nodes']}")
        lines.append("timings: " + " ".join(f"{k}={v * 1000:.1f}ms"
                                            for k, v in record["timings"].items()))
        return "\n".join(lines) + "\n"


def _among(kind: str, names: list[str], tags: AbstractSet[Tag],
           subset: AbstractSet[Tag]) -> list[str]:
    """The names of the ``kind`` tags in ``subset``, in number order.

    ``tags`` holds every ``kind`` tag, so a subset equal to it is the whole
    kind and needs no test per tag.  Otherwise a plain ``(kind, number)``
    tuple equals and hashes as the :class:`Tag`, so no tag object is built
    to test membership.
    """
    if not subset:
        return []
    if subset == tags:
        return list(names)
    return [name for number, name in enumerate(names, 1) if (kind, number) in subset]


def _braced(names: list[str]) -> str:
    return "{" + ", ".join(names) + "}"


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
    return AnalysisReport(
        verdict=verdict, alpha_tags=ubrg.alpha_tags, beta_tags=ubrg.beta_tags,
        alpha_matched=sv.alpha_matched, beta_matched=sv.beta_matched,
        brg_states=len(decision.brg.nfa.states), ubrg_nodes=len(ubrg.nodes),
        sv_nodes=len(sv.nodes), low_reachable_markings=len(decision.low.states),
        assumptions=decision.brg.assumptions, cap=cap, timings=timings)


def decide_snni(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """:func:`analyze`'s verdict: the language decision, with the tree tags as evidence."""
    return analyze(lpn, cap).verdict
