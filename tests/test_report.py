from __future__ import annotations

import copy
import gc
import tracemalloc

import pytest

import snnicheck.petri as petri
import snnicheck.reach as reach
import snnicheck.report as report_module
import snnicheck.verifier as verifier
from snnicheck.basis import build_brg, build_ubrg
from snnicheck.dot import export_dot
from snnicheck.fixtures import demo_leaky, demo_secure, demo_sync_period_two
from snnicheck.language import word_in_language
from snnicheck.nfa import Nfa
from snnicheck.oracle import snni_oracle
from snnicheck.petri import LabeledPetriNet, PetriNet, check_assumptions, format_word
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.report import analyze, decide_snni
from snnicheck.verifier import build_sv, decide_languages, sv_verdict

from conftest import record_calls, witness_words


def _record_explorations(monkeypatch) -> list:
    """Transitions of every net ``explore_markings`` is called on, in order."""
    explored = []
    explore = petri.explore_markings

    def counting_explore(net, cap):
        explored.append(net.transitions)
        return explore(net, cap)

    monkeypatch.setattr(petri, "explore_markings", counting_explore)
    monkeypatch.setattr(reach, "explore_markings", counting_explore)
    return explored


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_analyze_explores_each_state_space_once(monkeypatch, demo):
    lpn = demo()
    explored = _record_explorations(monkeypatch)
    report = analyze(lpn)
    # Nothing: the BRG saturation proves the assumptions, and the low
    # language is read off the BRG.
    assert explored == []
    assert report.assumptions.reachable_count == check_assumptions(demo()).reachable_count


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky, demo_sync_period_two])
def test_build_brg_explores_nothing(monkeypatch, demo):
    lpn = demo()
    expected = check_assumptions(demo())
    explored = _record_explorations(monkeypatch)
    brg = build_brg(lpn)
    # The basis graph carries its own passing report, so the unfolding,
    # built on it or afresh, explores nothing either.
    assert brg.assumptions.ok
    assert brg.assumptions.reachable_count == expected.reachable_count
    build_ubrg(lpn, brg=brg)
    build_ubrg(lpn)
    assert explored == []


def _attributes(lpn: LabeledPetriNet) -> tuple[dict, dict]:
    """Deep copies of the attributes of ``lpn`` (its net aside) and of its net."""
    return (copy.deepcopy({k: v for k, v in vars(lpn).items() if k != "net"}),
            copy.deepcopy(vars(lpn.net)))


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky, demo_sync_period_two])
def test_decision_and_evidence_leave_the_net_unchanged(demo):
    lpn = demo()
    net = lpn.net
    before = _attributes(lpn)
    brg = build_brg(lpn)
    decide_languages(lpn)
    analyze(lpn)
    build_sv(lpn, ubrg=build_ubrg(lpn, brg=brg))
    snni_oracle(lpn)
    assert lpn.net is net
    assert _attributes(lpn) == before


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_oracle_explores_the_full_net_after_analyze(monkeypatch, demo):
    lpn = demo()
    analyze(lpn)
    explored = _record_explorations(monkeypatch)
    snni_oracle(lpn)
    # The oracle proves boundedness with its own exploration, whatever the
    # basis route has cached on the net, and reads the low language off it.
    assert explored == [lpn.net.transitions]


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_analyze_builds_no_subnet_and_fires_nothing(monkeypatch, demo):
    lpn = demo()
    subnets = record_calls(monkeypatch, LabeledPetriNet, ("low_subnet",))
    fired = record_calls(monkeypatch, PetriNet, ("fire", "enabled"))
    analyze(lpn)
    assert subnets == []
    assert fired == []


@pytest.mark.parametrize("run", [analyze, decide_snni])
@pytest.mark.parametrize("demo", [demo_secure, demo_leaky, demo_sync_period_two])
def test_the_verdict_is_decided_before_any_tree_is_built(monkeypatch, run, demo):
    lpn = demo()
    calls = record_calls(monkeypatch, verifier, ("language_equal", "build_ubrg"))
    record_calls(monkeypatch, report_module, ("build_ubrg",), calls)
    run(lpn)
    # One comparison before the unfolding and no low exploration; the
    # verifier reuses the low language and the verdict reuses the comparison.
    assert calls == ["language_equal", "build_ubrg"]


@pytest.mark.parametrize("demo", [demo_secure, demo_leaky])
def test_sv_verdict_explores_nothing(monkeypatch, demo):
    lpn = demo()
    brg = build_brg(lpn)
    sv = build_sv(lpn, ubrg=build_ubrg(lpn, brg=brg))
    explored = _record_explorations(monkeypatch)
    sv_verdict(lpn, sv, brg=brg)
    assert explored == []


_BIG = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)


def _big_net_24() -> LabeledPetriNet:
    return random_lpn(24, _BIG)


@pytest.mark.parametrize("make", [demo_secure, demo_leaky, demo_sync_period_two, _big_net_24])
def test_analyze_and_tree_exports_keep_the_trees_columnar(monkeypatch, make):
    lpn = make()
    automata = record_calls(monkeypatch, Nfa, ("_index",))
    report = analyze(lpn)
    # The basis graph and the low label language are the only automata built.
    assert automata == ["_index", "_index"]
    assert report.ubrg_nodes > 1 and report.sv_nodes > 1
    ubrg = build_ubrg(lpn)
    sv = build_sv(lpn, ubrg=ubrg)
    automata.clear()
    export_dot(ubrg)
    export_dot(sv)
    assert automata == []


def test_witness_text_claims_no_counterpart_only_for_unmatched_alpha_tags():
    # Default net 12: beta_3's path word cb is a low-subnet word, so the text
    # may not call it an observation without a low-only counterpart.
    lpn = random_lpn(12)
    report = analyze(lpn)
    low = reach.low_label_language(lpn)
    text = report.to_text()
    words = witness_words(report.verdict)
    assert words[("beta", 3)] == ("c", "b")
    assert word_in_language(low, ("c", "b"))
    assert "unmatched beta_3: no low-only run of cb returns to a pair repeated on its path\n" \
        in text
    for (kind, n), word in words.items():
        claim = (f"unmatched {kind}_{n}: low observation {format_word(word)} "
                 "has no low-only counterpart")
        assert (claim in text) == (kind == "alpha")
        assert not word_in_language(low, word) or kind == "beta"


def test_check_path_builds_no_tag():
    # Big net 18 has 37,593 tags, all unmatched.  The check path keeps them
    # as numbered leaves and renders names and words from the numbers, so
    # the report keeps no object per tag: a tag costs its number, an int,
    # and one slot in each tuple that lists it, about 49 bytes in all.  One
    # tuple per tag would double that and add as many live objects.
    lpn = random_lpn(18, _BIG)
    gc.collect()
    objects = len(gc.get_objects())
    tracemalloc.start()
    try:
        report = analyze(lpn)
        report.to_dict()
        report.to_text()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    tags = report.alpha_count + report.beta_count
    assert report.verdict.counterexample is not None
    assert (tags, len(report.verdict.missing_words)) == (37_593, 37_593)
    assert len(gc.get_objects()) - objects < 100
    assert kept < 64 * tags
