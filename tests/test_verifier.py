from __future__ import annotations

import pytest

from snnicheck.basis import Tag, build_brg, build_ubrg
from snnicheck.fixtures import demo_leaky, demo_secure, demo_sync_period_two, demo_unbounded
from snnicheck.language import word_in_language
from snnicheck.petri import AssumptionError, NetError
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.reach import low_label_language
from snnicheck.report import decide_snni
from snnicheck.verifier import Verdict, build_sv, sv_verdict

from conftest import BASIS_M0, BASIS_M1, marking_of


def test_sv_matches_both_tags_on_secure(secure):
    sv = build_sv(secure)
    assert sv.alpha_matched == {Tag("alpha", 1)}
    assert sv.beta_matched == {Tag("beta", 1)}


def test_sv_duplicate_pair_bookkeeping(secure):
    sv = build_sv(secure)

    def pair_of(nid):
        return sv.ubrg.marking(sv.ubrg_node[nid]), sv.low_marking[nid]
    beta_pairs = {pair_of(nid) for nid in sv.duplicate_pair_nodes}
    plain_pairs = {pair_of(nid) for nid in sv.plain_duplicate_nodes}
    assert beta_pairs == {(BASIS_M1, marking_of(secure, p8=1))}
    assert plain_pairs == {(BASIS_M0, BASIS_M0)}


def test_sv_leaves_beta_unmatched_on_leaky(leaky):
    sv = build_sv(leaky)
    assert sv.alpha_matched == {Tag("alpha", 1)}
    assert sv.beta_matched == frozenset()


def test_sv_trivial_without_high_transitions(secure):
    low = secure.low_subnet()
    sv = build_sv(low)
    assert sv.alpha_matched == frozenset()
    assert sv.beta_matched == frozenset()
    assert sv.ubrg.alpha_tags == frozenset()
    assert decide_snni(low).snni


def test_sv_arcs_share_labels(secure, leaky):
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        for _, (t_pipeline, t_low), _ in sv.tree.arcs:
            assert lpn.label(t_pipeline) == lpn.label(t_low)
        # Node k is created with arc k - 1, which is the one link into it.
        for tree in (sv.tree, sv.ubrg.tree):
            assert [d for _, _, d in tree.arcs] == list(range(1, len(tree.states)))


def test_sv_matched_subsets_of_tags(secure, leaky):
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        assert sv.alpha_matched <= sv.ubrg.alpha_tags
        assert sv.beta_matched <= sv.ubrg.beta_tags


def test_sv_nodes_pair_unfolding_with_low_reachability(secure):
    from snnicheck.reach import reachability_graph
    sv = build_sv(secure)
    low_markings = set(reachability_graph(secure.low_subnet().net).nfa.states)
    assert set(sv.low_marking) <= low_markings
    assert sv.ubrg_node[sv.root] == sv.ubrg.root
    assert sv.low_marking[sv.root] == secure.net.initial_marking


def test_alpha_matched_iff_word_in_low_language(secure, leaky):
    from snnicheck.basis import path_transitions
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        low = low_label_language(lpn)
        for tag in sv.ubrg.alpha_tags:
            leaf = sv.ubrg.tag_leaves[tag]
            word = lpn.label_word(path_transitions(sv.ubrg.root_path_events(leaf)))
            assert (tag in sv.alpha_matched) == word_in_language(low, word)


def test_decide_snni_secure(secure):
    verdict = decide_snni(secure)
    assert verdict.snni
    assert verdict.missing_alpha == frozenset()
    assert verdict.missing_beta == frozenset()
    assert verdict.spurious_tags == frozenset()
    assert verdict.witness_words == {}


def test_decide_snni_leaky(leaky):
    verdict = decide_snni(leaky)
    assert not verdict.snni
    assert verdict.missing_alpha == frozenset()
    assert verdict.missing_beta == {Tag("beta", 1)}
    word = verdict.witness_words[Tag("beta", 1)]
    assert word == ("a", "c", "a")
    # The leak shows up already in the proper prefix, which the low subnet
    # cannot produce.
    low = low_label_language(leaky)
    assert not word_in_language(low, ("a", "c"))
    assert word_in_language(low, ("a",))
    assert verdict.counterexample == ("a", "c")


def test_decide_snni_refuses_bad_assumptions():
    with pytest.raises(AssumptionError):
        decide_snni(demo_unbounded())


def test_verdict_consistency_guard():
    with pytest.raises(NetError):
        Verdict(snni=True, missing_beta=frozenset({Tag("beta", 1)}))
    with pytest.raises(NetError):
        Verdict(snni=True, counterexample=("a",))
    with pytest.raises(NetError):
        Verdict(snni=True, counterexample=())
    Verdict(snni=True, spurious_tags=frozenset({Tag("beta", 1)}))  # allowed


def test_tag_rule_gap_regression():
    # The per-path beta rule cannot match a tag whose low mimic re-syncs only
    # after two traversals of the basis cycle; the language grounding must
    # still find the net interference-free.
    lpn = demo_sync_period_two()
    ubrg = build_ubrg(lpn)
    assert ubrg.beta_tags == {Tag("beta", 1)}
    sv = build_sv(lpn, ubrg=ubrg)
    assert sv.beta_matched == frozenset()
    verdict = sv_verdict(lpn, sv)
    assert verdict.snni
    assert verdict.spurious_tags == {Tag("beta", 1)}


def test_verdict_iff_invariant_on_tag_grounded_fixtures(secure, leaky):
    for lpn, expected in ((secure, True), (leaky, False)):
        verdict = decide_snni(lpn)
        assert verdict.snni is expected
        assert verdict.snni == (not verdict.missing_alpha and not verdict.missing_beta)


@pytest.mark.parametrize("make", [
    demo_secure, demo_leaky, demo_sync_period_two,
    lambda: random_lpn(24, GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6,
                                           bound_cap=100_000))])
def test_tree_views_agree_with_the_tree_data(make):
    lpn = make()
    brg = build_brg(lpn)
    ubrg = build_ubrg(lpn, brg=brg)
    sv = build_sv(lpn, ubrg=ubrg)
    assert {tag: nid for nid, tag in ubrg.tags.items()} == ubrg.tag_leaves
    assert {ubrg.marking(nid) for nid in ubrg.duplicated} == ubrg.duplicate_markings
    # Every tree arc copies a BRG arc between the markings of its two nodes.
    tree = ubrg.tree
    assert tree.states == tuple(ubrg.nodes)
    brg_arcs = set(brg.nfa.arcs)
    for src, event, dst in tree.arcs:
        assert (ubrg.marking(src), event, ubrg.marking(dst)) in brg_arcs
    assert ubrg.leaf_ids() == tuple(nid for nid in ubrg.nodes if not tree.arcs_from(nid))
    # Every verifier arc pairs an unfolding arc with an equally labeled low arc.
    unfolding_arcs = {(src, dst): event.transition for src, event, dst in tree.arcs}
    low_arcs = set(sv.low.arcs)
    sv_tree = sv.tree
    assert sv_tree.states == tuple(sv.nodes)
    for src, (t, t_low), dst in sv_tree.arcs:
        assert unfolding_arcs[(sv.ubrg_node[src], sv.ubrg_node[dst])] == t
        assert (sv.low_marking[src], t_low, sv.low_marking[dst]) in low_arcs
        assert sv_tree.labeling[(t, t_low)] == lpn.label(t)
    # Exactly the duplicate beta pairings match beta tags.
    duplicate_tags = {ubrg.tags.get(sv.ubrg_node[nid]) for nid in sv.duplicate_pair_nodes}
    assert all(tag is not None and tag.kind == "beta" for tag in duplicate_tags)
    assert duplicate_tags == sv.beta_matched
    assert {ubrg.tags.get(u) for u in sv.ubrg_node} >= sv.alpha_matched
