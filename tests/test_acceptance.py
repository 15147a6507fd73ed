"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
print; they are also captured into any failure report.  All checks are exact.
"""

from __future__ import annotations

import functools
import time

import pytest

from snnicheck.basis import Tag, build_brg, build_ubrg
from snnicheck.explanations import minimal_e_vectors
from snnicheck.fixtures import demo_leaky, demo_secure
from snnicheck.language import word_in_language
from snnicheck.netdoc import serialize_net
from snnicheck.oracle import justifications, snni_oracle
from snnicheck.randnets import random_lpn
from snnicheck.reach import low_label_language
from snnicheck.report import analyze, decide_snni
from snnicheck.verifier import build_sv

from conftest import ALL_BASIS_MARKINGS, BASIS_M0, BASIS_M1, relabeled

ALPHA_1 = Tag("alpha", 1)
BETA_1 = Tag("beta", 1)


def criterion(number: int, description: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL — {description}")
                raise
            print(f"criterion {number}: PASS — {description}")
        return wrapper
    return decorate


@criterion(1, "secure net: basis graph has exactly the eight expected markings")
def test_criterion_1_basis_marking_set():
    brg = build_brg(demo_secure())
    assert brg.basis_markings == ALL_BASIS_MARKINGS


@criterion(2, "secure net: minimal e-vectors and justifications of 'ab' are exact")
def test_criterion_2_explanations_and_justifications():
    lpn = demo_secure()
    m0 = lpn.net.initial_marking
    assert minimal_e_vectors(lpn, m0, "l1").evectors == {(1, 0)}
    assert minimal_e_vectors(lpn, m0, "l5").evectors == {(0, 0)}
    result = justifications(lpn, "ab")
    assert result.complete
    assert result.pairs == {(("l1", "l2"), (1, 0)), (("l8", "l9"), (0, 0))}


@criterion(3, "secure net: unfolding yields M_dup={m0,m1}, one alpha and one beta tag")
def test_criterion_3_unfolding_tags():
    ubrg = build_ubrg(demo_secure())
    assert ubrg.duplicate_markings == {BASIS_M0, BASIS_M1}
    assert ubrg.alpha_tags == {ALPHA_1}
    assert ubrg.beta_tags == {BETA_1}


@criterion(4, "secure net: verifier matches both tags and the verdict is SNNI")
def test_criterion_4_verifier_secure():
    lpn = demo_secure()
    sv = build_sv(lpn)
    assert sv.alpha_matched == {ALPHA_1}
    assert sv.beta_matched == {BETA_1}
    assert decide_snni(lpn).snni


@criterion(5, "leaky net: beta tag unmatched, NotSNNI, leaked prefix 'ac'")
def test_criterion_5_verifier_leaky():
    lpn = demo_leaky()
    sv = build_sv(lpn)
    assert sv.alpha_matched == {ALPHA_1}
    assert sv.beta_matched == frozenset()
    verdict = decide_snni(lpn)
    assert not verdict.snni
    assert verdict.missing_beta == {BETA_1}
    oracle = snni_oracle(lpn)
    assert not oracle.snni
    assert oracle.counterexample == ("a", "c")
    assert not word_in_language(low_label_language(lpn), ("a", "c"))


@criterion(6, "200 seeded random nets: pipeline and oracle verdicts agree, in budget")
def test_criterion_6_random_cross_validation():
    started = time.perf_counter()
    for seed in range(1, 201):
        lpn = random_lpn(seed)
        pipeline = decide_snni(lpn)
        oracle = snni_oracle(lpn)
        if pipeline.snni != oracle.snni:
            pytest.fail(f"disagreement on seed {seed}: pipeline={pipeline.snni} "
                        f"oracle={oracle.snni}\nnet document:\n{serialize_net(lpn)}")
    assert time.perf_counter() - started < 120.0


@criterion(7, "50 random nets: basis-graph words equal projected net words to length 8")
def test_criterion_7_projection_language_law():
    from snnicheck.language import bounded_language
    from snnicheck.nfa import EPSILON
    from snnicheck.reach import reachability_graph
    for seed in range(1, 51):
        lpn = random_lpn(seed)
        brg = build_brg(lpn)
        from_brg = bounded_language(relabeled(brg.nfa, lambda e: e.transition), 8)
        low_set = set(lpn.low_transitions)
        from_net = bounded_language(relabeled(reachability_graph(lpn.net).nfa,
                                              lambda t: t if t in low_set else EPSILON), 8)
        assert from_brg == from_net, f"seed {seed}\n{serialize_net(lpn)}"


@criterion(8, "100+ random queries: minimal e-vectors equal the enumeration oracle")
def test_criterion_8_minimal_explanation_oracle():
    from snnicheck.explanations import explanations_bounded, minimality_filter
    from snnicheck.petri import explore_markings
    import random as stdlib_random
    queries = 0
    for seed in range(1, 31):
        lpn = random_lpn(seed)
        markings = list(explore_markings(lpn.net, cap=2000).markings)
        cap = len(markings) + 1
        stdlib_random.Random(seed * 977).shuffle(markings)
        for m in markings[:4]:
            for t in lpn.low_transitions:
                enumerated = minimality_filter(
                    {e.evector for e in explanations_bounded(lpn, m, t, len_cap=cap)})
                assert minimal_e_vectors(lpn, m, t).evectors == enumerated
                queries += 1
    assert queries >= 100


@criterion(9, "size metrics reported; fixture sizes within the quadratic desk-check")
def test_criterion_9_reported_sizes():
    for fixture, snni in ((demo_secure(), True), (demo_leaky(), False)):
        started = time.perf_counter()
        report = analyze(fixture)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        assert report.snni is snni
        assert report.reachable_markings == 9
        assert report.brg_states == 8
        assert report.ubrg_nodes > 0
        assert report.sv_nodes > 0
        # Desk check of the quadratic size discussion on this fixture only.
        assert report.sv_nodes <= 2 * report.reachable_markings ** 2 == 162
        payload = report.to_dict()
        assert payload["sizes"]["sv_nodes"] == report.sv_nodes
        assert payload["sizes"]["ubrg_nodes"] == report.ubrg_nodes
        assert payload["sizes"]["reachable_markings"] == 9
        assert set(payload["timings"]) == {"assumptions", "brg", "ubrg", "sv", "languages"}
