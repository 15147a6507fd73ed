"""Full analysis runs: pipeline verdict, graph sizes, and timings in one record."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .basis import _tag_names, build_ubrg
from .petri import DEFAULT_EXPLORATION_CAP, AssumptionReport, LabeledPetriNet, format_word
from .verifier import Verdict, _others, build_sv, decide_languages, sv_verdict


@dataclass
class AnalysisReport:
    """Everything one analysis run produced, ready for rendering.

    The verdict, its shortest leaked low word and the witness words are
    ``verdict``'s, and the reachable-marking count and the exploration cap
    are ``assumptions``'; the report keeps no copy of them.  The tags are an
    unfolding's (:func:`~snnicheck.basis.build_ubrg`), kept as numbers like
    the verdict's: each kind is numbered 1..``alpha_count`` or
    1..``beta_count`` without gaps, and the renderings list them in that
    order, tag ``n`` by its name ``alpha_<n>`` or ``beta_<n>``.  The tags
    the verifier matched are not stored either: they are the ones the
    verdict does not list as missing or spurious.
    """

    verdict: Verdict
    alpha_count: int
    beta_count: int
    brg_states: int
    ubrg_nodes: int
    sv_nodes: int
    low_reachable_markings: int
    assumptions: AssumptionReport
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view; tag lists and words are rendered in unfolding order.

        Per kind, alpha first, tag ``n`` is named ``names[n - 1]``: the
        unfolding numbers each kind's tags 1, 2, ... in node order, so the
        names list every tag in unfolding order, and every rendered list
        picks its names by the ascending numbers it renders.  The
        ``witness_words`` keys are the verdict's missing alpha tags, then its
        missing beta tags, each by number, in step with its words.  The words
        are the verdict's shared tuples, not copies; ``json.dumps`` writes
        them as arrays.
        """
        verdict = self.verdict
        alpha = _tag_names("alpha", self.alpha_count)
        beta = _tag_names("beta", self.beta_count)
        missing_alpha = _named(alpha, verdict.missing_alpha_numbers)
        missing_beta = _named(beta, verdict.missing_beta_numbers)
        # An unmatched tag is missing or spurious: SNNI lists none missing, and NOT SNNI
        # none spurious.
        unmatched_alpha = verdict.missing_alpha_numbers or verdict.spurious_alpha_numbers
        unmatched_beta = verdict.missing_beta_numbers or verdict.spurious_beta_numbers
        leaked = verdict.counterexample
        return {
            "snni": verdict.snni,
            "alpha_tags": alpha,
            "beta_tags": beta,
            "alpha_matched": _named(alpha, _others(self.alpha_count, unmatched_alpha)),
            "beta_matched": _named(beta, _others(self.beta_count, unmatched_beta)),
            "missing_alpha": missing_alpha,
            "missing_beta": missing_beta,
            "spurious_tags": (_named(alpha, verdict.spurious_alpha_numbers)
                              + _named(beta, verdict.spurious_beta_numbers)),
            "witness_words": dict(zip(missing_alpha + missing_beta, verdict.missing_words)),
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
            "cap": self.assumptions.cap,
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


def _named(names: list[str], numbers: tuple[int, ...]) -> list[str]:
    """The names of the tags of one kind with the given numbers, in their order."""
    return [names[n - 1] for n in numbers]


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
        verdict=verdict, alpha_count=len(ubrg.alpha_leaves), beta_count=len(ubrg.beta_leaves),
        brg_states=len(decision.brg.nfa.states), ubrg_nodes=len(ubrg.nodes),
        sv_nodes=len(sv.nodes), low_reachable_markings=len(decision.low.states),
        assumptions=decision.brg.assumptions, timings=timings)


def decide_snni(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> Verdict:
    """:func:`analyze`'s verdict: the language decision, with the tree tags as evidence."""
    return analyze(lpn, cap).verdict
