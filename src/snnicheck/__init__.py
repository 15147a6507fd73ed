"""Non-interference analysis of bounded labeled Petri nets.

Two independent decision routes share one verdict: the basis-marking
pipeline (basis graph, unfolding, verifier automaton) and a brute-force
language-equality oracle.  The test battery cross-checks them on every
bundled and randomly generated net.
"""

from .basis import Brg, BrgEvent, UbrgResult, build_brg, build_ubrg
from .explanations import (Explanation, MinimalExplanationSet,
                           explanations_bounded, minimal_e_vectors,
                           minimality_filter)
from .language import (LanguageCheckResult, bounded_language, language_equal,
                       word_in_language)
from .netdoc import NetDocumentError, parse_net, serialize_net
from .nfa import EPSILON, Nfa
from .dot import export_dot
from .oracle import JustificationSet, justifications, snni_oracle
from .reach import (ReachGraph, low_label_language, projected_label_language,
                    reachability_graph)
from .petri import (DEFAULT_EXPLORATION_CAP, AssumptionError, AssumptionReport,
                    DominationWitness, FiringError, InvalidNetError,
                    LabeledPetriNet, Marking, NetError, ParikhVector, PetriNet,
                    TransitionSequence, check_assumptions, format_word, parikh)
from .report import AnalysisReport, analyze, decide_snni
from .verifier import (LanguageDecision, SvResult, Verdict, build_sv, decide_languages,
                       sv_verdict)

__all__ = [
    "AnalysisReport", "AssumptionError", "AssumptionReport", "Brg", "BrgEvent",
    "DEFAULT_EXPLORATION_CAP", "DominationWitness", "EPSILON", "Explanation",
    "FiringError", "InvalidNetError", "JustificationSet", "LabeledPetriNet",
    "LanguageCheckResult", "LanguageDecision", "Marking", "MinimalExplanationSet",
    "NetDocumentError", "NetError", "Nfa", "ParikhVector", "PetriNet",
    "ReachGraph", "SvResult", "TransitionSequence", "UbrgResult",
    "Verdict", "analyze", "bounded_language", "build_brg", "build_sv",
    "build_ubrg", "check_assumptions", "decide_languages", "decide_snni",
    "explanations_bounded", "export_dot", "format_word", "justifications",
    "language_equal", "low_label_language", "minimal_e_vectors",
    "minimality_filter", "parikh", "parse_net",
    "projected_label_language", "reachability_graph", "serialize_net",
    "snni_oracle", "sv_verdict", "word_in_language",
]
