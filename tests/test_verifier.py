from __future__ import annotations

import tracemalloc

import pytest

from snnicheck.basis import build_brg, build_ubrg
from snnicheck.fixtures import demo_leaky, demo_secure, demo_sync_period_two, demo_unbounded
from snnicheck.language import word_in_language
from snnicheck.petri import AssumptionError, NetError
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.reach import low_label_language
from snnicheck.report import analyze, decide_snni
from snnicheck.verifier import Verdict, _compare, build_sv, decide_languages, sv_verdict

from conftest import (BASIS_M0, BASIS_M1, bounded_nets, leaf_tags, marking_of, node_marking,
                      root_path, witness_words)


def test_sv_matches_both_tags_on_secure(secure):
    sv = build_sv(secure)
    assert sv.alpha_matched_numbers == (1,)
    assert sv.beta_matched_numbers == (1,)


def test_sv_duplicate_pair_bookkeeping(secure):
    sv = build_sv(secure)

    def pair_of(nid):
        return node_marking(sv.ubrg, sv.ubrg_node[nid]), sv.low_marking[nid]
    # The one repeat set, split by whether the duplicated leaf is tagged.
    tags = leaf_tags(sv.ubrg)
    tagged = {nid for nid in sv.repeat_nodes if sv.ubrg_node[nid] in tags}
    beta_pairs = {pair_of(nid) for nid in tagged}
    plain_pairs = {pair_of(nid) for nid in sv.repeat_nodes - tagged}
    assert beta_pairs == {(BASIS_M1, marking_of(secure, p8=1))}
    assert plain_pairs == {(BASIS_M0, BASIS_M0)}


def repeats_on_root_paths(sv) -> tuple[set[int], set[int]]:
    """Nodes whose (BRG state, low marking) pair occurs again up their root path.

    Scans each node's whole path, and splits the hits into those pairing a
    beta-tagged unfolding leaf and the rest.
    """
    state, tags = sv.ubrg.state, leaf_tags(sv.ubrg)
    beta, plain = set(), set()
    for nid in sv.nodes:
        pair = (state[sv.ubrg_node[nid]], sv.low_marking[nid])
        above = sv.parent[nid]
        while above >= 0 and (state[sv.ubrg_node[above]], sv.low_marking[above]) != pair:
            above = sv.parent[above]
        if above >= 0:
            tag = tags.get(sv.ubrg_node[nid])
            (beta if tag is not None and tag[0] == "beta" else plain).add(nid)
    return beta, plain


def test_repeats_are_the_pairs_found_again_up_the_root_path():
    for name, lpn in bounded_nets():
        try:
            sv = build_sv(lpn)
        except NetError as refused:
            assert "exceeds 200000 nodes" in str(refused), name
            continue
        beta, plain = repeats_on_root_paths(sv)
        assert sv.repeat_nodes == beta | plain, name
        tags = leaf_tags(sv.ubrg)
        assert {nid for nid in sv.repeat_nodes if sv.ubrg_node[nid] in tags} == beta, name


def test_sv_leaves_beta_unmatched_on_leaky(leaky):
    sv = build_sv(leaky)
    assert sv.alpha_matched_numbers == (1,)
    assert sv.beta_matched_numbers == ()


def test_sv_trivial_without_high_transitions(secure):
    low = secure.low_subnet()
    sv = build_sv(low)
    assert sv.alpha_matched_numbers == ()
    assert sv.beta_matched_numbers == ()
    assert sv.ubrg.alpha_leaves == []
    assert decide_snni(low).snni


def test_sv_arcs_share_labels(secure, leaky):
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        for u, t_low in zip(sv.ubrg_node[1:], sv.low_transition[1:]):
            assert lpn.label(sv.ubrg.event[u].transition) == lpn.label(t_low)
        # Every node but the root hangs below an earlier node.
        assert sv.low_transition[0] is None and sv.ubrg.event[0] is None
        for tree in (sv, sv.ubrg):
            assert tree.parent[0] == -1
            assert all(0 <= tree.parent[k] < k for k in tree.nodes[1:])


def test_sv_matched_subsets_of_tags(secure, leaky):
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        assert set(sv.alpha_matched_numbers) <= set(range(1, len(sv.ubrg.alpha_leaves) + 1))
        assert set(sv.beta_matched_numbers) <= set(range(1, len(sv.ubrg.beta_leaves) + 1))


def test_sv_nodes_pair_unfolding_with_low_reachability(secure):
    from snnicheck.reach import reachability_graph
    sv = build_sv(secure)
    low_markings = set(reachability_graph(secure.low_subnet().net).nfa.states)
    assert set(sv.low_marking) <= low_markings
    assert sv.ubrg_node[0] == 0
    assert sv.low_marking[0] == secure.net.initial_marking


def test_alpha_matched_iff_word_in_low_language(secure, leaky):
    for lpn in (secure, leaky):
        sv = build_sv(lpn)
        low = low_label_language(lpn)
        for leaf, (kind, n) in leaf_tags(sv.ubrg).items():
            if kind == "alpha":
                word = lpn.label_word([e.transition for e in root_path(sv.ubrg, leaf)])
                assert (n in sv.alpha_matched_numbers) == word_in_language(low, word)


def test_decide_snni_secure(secure):
    verdict = decide_snni(secure)
    assert verdict.snni
    assert verdict.missing_alpha_numbers == ()
    assert verdict.missing_beta_numbers == ()
    assert (verdict.spurious_alpha_numbers, verdict.spurious_beta_numbers) == ((), ())
    assert verdict.missing_words == ()


def test_decide_snni_leaky(leaky):
    verdict = decide_snni(leaky)
    assert not verdict.snni
    assert verdict.missing_alpha_numbers == ()
    assert verdict.missing_beta_numbers == (1,)
    word = witness_words(verdict)[("beta", 1)]
    assert word == ("a", "c", "a")
    # The leak shows up already in the proper prefix, which the low subnet
    # cannot produce.
    low = low_label_language(leaky)
    assert not word_in_language(low, ("a", "c"))
    assert word_in_language(low, ("a",))
    assert verdict.counterexample == ("a", "c")
    # With the sides swapped, the leaked word is one only the low subnet's
    # side lacks: the guard calls that an internal error, not a verdict.
    decision = decide_languages(leaky)
    with pytest.raises(NetError, match=r"^internal error: low-subnet word missing from the "
                                       r"net's projected language: \('a', 'c'\)$"):
        _compare(decision.low, decision.brg.nfa)


def test_witness_words_are_shared_and_read_off_the_parent_column():
    # Every unmatched tag's word is its leaf's root-path word, and equal
    # words are one tuple, shared by the verdict and the rendered report.
    covered = set()
    for name, lpn in bounded_nets():
        decision = decide_languages(lpn)
        if decision.check.equal:
            continue
        try:
            ubrg = build_ubrg(lpn, brg=decision.brg)
            sv = build_sv(lpn, ubrg=ubrg, low=decision.low)
        except NetError as refused:
            assert "exceeds 200000 nodes" in str(refused), name
            continue
        verdict = sv_verdict(lpn, sv, check=decision.check)
        words = witness_words(verdict)
        assert len(words) == len(verdict.missing_words), name
        leaf = {tag: nid for nid, tag in leaf_tags(ubrg).items()}
        shared = {}
        for tag, word in words.items():
            assert word == lpn.label_word([e.transition for e in root_path(ubrg, leaf[tag])]), \
                (name, tag)
            assert shared.setdefault(word, word) is word, (name, tag)
        report = analyze(lpn)
        assert witness_words(report.verdict) == words, name
        rendered = report.to_dict()["witness_words"]
        assert list(rendered) == [f"{kind}_{n}" for kind, n in words], name
        for (kind, n), word in witness_words(report.verdict).items():
            assert rendered[f"{kind}_{n}"] is word, (name, kind, n)
        covered.add(name)
        if name == "14-place net 18":
            assert (len(words), len(shared)) == (37_593, 543)
    assert {f"14-place net {seed}" for seed in (18, 24, 39)} <= covered


def test_decide_snni_refuses_bad_assumptions():
    with pytest.raises(AssumptionError):
        decide_snni(demo_unbounded())


def test_verdict_consistency_guard():
    evidence = "cannot carry interference evidence"
    with pytest.raises(NetError, match=evidence):
        Verdict(snni=True, missing_beta_numbers=(1,), missing_words=(("a",),))
    with pytest.raises(NetError, match=evidence):
        Verdict(snni=True, counterexample=("a",))
    with pytest.raises(NetError, match=evidence):
        Verdict(snni=True, counterexample=())
    Verdict(snni=True, spurious_beta_numbers=(1,))  # allowed


def test_verdict_needs_one_word_per_unmatched_tag():
    one_word = "one word per unmatched tag"
    with pytest.raises(NetError, match=one_word):
        Verdict(snni=False, missing_alpha_numbers=(1,))
    with pytest.raises(NetError, match=one_word):
        Verdict(snni=False, missing_beta_numbers=(1, 2), missing_words=(("a",),))
    with pytest.raises(NetError, match=one_word):
        Verdict(snni=False, missing_words=(("a",),))
    verdict = Verdict(snni=False, missing_alpha_numbers=(2,), missing_beta_numbers=(1,),
                      missing_words=(("a",), ("a", "b")), counterexample=("a",))
    assert witness_words(verdict) == {("alpha", 2): ("a",), ("beta", 1): ("a", "b")}


def test_tag_rule_gap_regression():
    # The per-path beta rule cannot match a tag whose low mimic re-syncs only
    # after two traversals of the basis cycle; the language grounding must
    # still find the net interference-free.
    lpn = demo_sync_period_two()
    ubrg = build_ubrg(lpn)
    assert len(ubrg.beta_leaves) == 1
    sv = build_sv(lpn, ubrg=ubrg)
    assert sv.beta_matched_numbers == ()
    verdict = sv_verdict(lpn, sv)
    assert verdict.snni
    assert (verdict.spurious_alpha_numbers, verdict.spurious_beta_numbers) == ((), (1,))


def test_verdict_iff_invariant_on_tag_grounded_fixtures(secure, leaky):
    for lpn, expected in ((secure, True), (leaky, False)):
        verdict = decide_snni(lpn)
        assert verdict.snni is expected
        assert verdict.snni == (not verdict.missing_alpha_numbers
                                and not verdict.missing_beta_numbers)


@pytest.mark.parametrize("make", [
    demo_secure, demo_leaky, demo_sync_period_two,
    lambda: random_lpn(24, GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6,
                                           bound_cap=100_000))])
def test_tree_views_agree_with_the_tree_data(make):
    lpn = make()
    brg = build_brg(lpn)
    ubrg = build_ubrg(lpn, brg=brg)
    sv = build_sv(lpn, ubrg=ubrg)
    # Every tree arc copies a BRG arc between the markings of its two nodes,
    # and an expanded node's children copy its BRG state's arcs in order.
    brg_arcs = set(brg.nfa.arcs)
    parents = set(ubrg.parent)
    for dst in ubrg.nodes[1:]:
        src = ubrg.parent[dst]
        assert (node_marking(ubrg, src), ubrg.event[dst], node_marking(ubrg, dst)) in brg_arcs
    for nid in ubrg.nodes:
        first = ubrg.first_child[nid]
        if first:
            arcs = brg.nfa.arcs_from(node_marking(ubrg, nid))
            assert ubrg.event[first:first + len(arcs)] == [event for event, _ in arcs]
            assert ubrg.parent[first:first + len(arcs)] == [nid] * len(arcs)
        else:
            assert nid not in parents
    # Every verifier arc pairs an unfolding arc with an equally labeled arc
    # of the low subnet's reachability graph, explored independently.
    low = low_label_language(lpn)
    low_arcs = set(low.arcs)
    for dst in sv.nodes[1:]:
        src, t_low = sv.parent[dst], sv.low_transition[dst]
        t = ubrg.event[sv.ubrg_node[dst]].transition
        assert ubrg.parent[sv.ubrg_node[dst]] == sv.ubrg_node[src]
        assert (sv.low_marking[src], t_low, sv.low_marking[dst]) in low_arcs
        assert low.labeling[t_low] == lpn.label(t)
    # Every repeat pairs a duplicated leaf, and exactly the tagged repeats match beta tags.
    assert all(sv.ubrg_node[nid] in ubrg.duplicated for nid in sv.repeat_nodes)
    tags = leaf_tags(ubrg)
    repeat_tags = {tags[sv.ubrg_node[nid]] for nid in sv.repeat_nodes
                   if sv.ubrg_node[nid] in tags}
    assert all(kind == "beta" for kind, _ in repeat_tags)
    assert repeat_tags == {("beta", n) for n in sv.beta_matched_numbers}
    assert {tags.get(u) for u in sv.ubrg_node} >= {("alpha", n) for n in sv.alpha_matched_numbers}


def test_verifier_past_its_cap_is_refused_before_any_column_is_built():
    # Big net 16: its verifier tree passes the 200,000-node cap.  Columns of
    # that many nodes take about 6 MB, so a refusal that builds them peaks
    # far above 2 MB; sizing the tree first needs only its distinct pairings.
    big = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
    lpn = random_lpn(16, big)
    decision = decide_languages(lpn)
    ubrg = build_ubrg(lpn, brg=decision.brg)
    tracemalloc.start()
    try:
        with pytest.raises(NetError) as refused:
            build_sv(lpn, ubrg=ubrg, low=decision.low)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == "verifier tree exceeds 200000 nodes; raise node_cap to continue"
    assert peak < 2_000_000


def test_tag_views_match_the_numbered_leaves():
    # A tag is stored as its kind's leaf list, a matched or missing tag as its
    # number; the numbers must name exactly the leaves the rules pick.
    big = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
    nets = ([(f"default net {seed}", seed, GeneratorConfig()) for seed in range(1, 51)]
            + [(f"big net {seed}", seed, big) for seed in (18, 24, 39)])
    for name, seed, config in nets:
        lpn = random_lpn(seed, config)
        decision = decide_languages(lpn)
        ubrg = build_ubrg(lpn, brg=decision.brg)
        sv = build_sv(lpn, ubrg=ubrg, low=decision.low)
        verdict = sv_verdict(lpn, sv, check=decision.check)
        leaves = {"alpha": ubrg.alpha_leaves, "beta": ubrg.beta_leaves}
        # Each kind is numbered in node order, and no leaf carries two tags.
        for kind_leaves in leaves.values():
            assert kind_leaves == sorted(set(kind_leaves)), name
        tags = leaf_tags(ubrg)
        assert len(tags) == len(ubrg.alpha_leaves) + len(ubrg.beta_leaves), name
        assert all(ubrg.first_child[leaf] == 0 for leaf in tags), name
        assert set(ubrg.beta_leaves) <= ubrg.duplicated, name
        assert not set(ubrg.alpha_leaves) & ubrg.duplicated, name
        # Matching by reachability and by repeat, over the leaf lists.
        reached = set(sv.ubrg_node)
        repeated = {sv.ubrg_node[k] for k in sv.repeat_nodes}
        matched = {kind: tuple(n for leaf, (tag_kind, n) in tags.items()
                               if tag_kind == kind and leaf in on)
                   for kind, on in (("alpha", reached), ("beta", repeated))}
        assert (sv.alpha_matched_numbers, sv.beta_matched_numbers) == \
            (matched["alpha"], matched["beta"]), name
        missing = {kind: tuple(n for n in range(1, len(leaves[kind]) + 1) if n not in matched[kind])
                   for kind in leaves}
        if verdict.snni:
            assert (verdict.spurious_alpha_numbers, verdict.spurious_beta_numbers) == \
                (missing["alpha"], missing["beta"]), name
            assert verdict.missing_words == (), name
            continue
        assert (verdict.missing_alpha_numbers, verdict.missing_beta_numbers) == \
            (missing["alpha"], missing["beta"]), name
        # The words are the missing alpha tags', then the beta tags', by number.
        keys = [(kind, n) for kind in ("alpha", "beta") for n in missing[kind]]
        assert len(verdict.missing_words) == len(keys), name
        word_of = {(kind, n): lpn.label_word([e.transition for e in root_path(ubrg, leaf)])
                   for kind in ("alpha", "beta") for n, leaf in enumerate(leaves[kind], 1)}
        assert verdict.missing_words == tuple(word_of[key] for key in keys), name
