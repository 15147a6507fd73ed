from __future__ import annotations

import hashlib
import random

import networkx as nx
import pytest

from snnicheck.basis import build_brg, build_ubrg
from snnicheck.explanations import (explanations_bounded, minimal_e_vectors,
                                    minimality_filter)
from snnicheck.language import bounded_language, word_in_language
from snnicheck.netdoc import serialize_net
from snnicheck.nfa import EPSILON
from snnicheck.oracle import snni_oracle
from snnicheck.petri import (AssumptionError, _high_subnet_cycle, check_assumptions,
                             explore_markings)
from snnicheck.randnets import GeneratorConfig, _candidate, random_lpn
from snnicheck.reach import (low_label_language, projected_label_language,
                             reachability_graph)
from snnicheck.report import analyze, decide_snni
from snnicheck.verifier import build_sv

from conftest import (assert_pumps, leaf_tags, node_marking, relabeled, root_path,
                      unbounded_witness)

CROSS_VALIDATION_SEEDS = range(1, 201)
PROJECTION_SEEDS = range(1, 51)
QUERY_SEEDS = range(1, 31)
STRUCTURE_SEEDS = range(1, 41)
BIG = GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000)
BIG_QUERY_SEEDS = range(1, 41)
HUGE = GeneratorConfig(max_places=20, max_transitions=30, max_tokens=10, bound_cap=300_000)


def test_pipeline_and_oracle_agree_on_random_nets():
    for seed in CROSS_VALIDATION_SEEDS:
        lpn = random_lpn(seed)
        pipeline = decide_snni(lpn)
        oracle = snni_oracle(lpn)
        if pipeline.snni != oracle.snni:
            pytest.fail(
                f"verdict disagreement on seed {seed}: pipeline={pipeline.snni} "
                f"oracle={oracle.snni}\nnet document:\n{serialize_net(lpn)}")


def test_brg_words_equal_projected_net_words():
    # Exhaustive-depth comparison of the basis graph's transition words with
    # the net language's low projections, up to length 8.
    for seed in PROJECTION_SEEDS:
        lpn = random_lpn(seed)
        brg = build_brg(lpn)
        from_brg = bounded_language(relabeled(brg.nfa, lambda e: e.transition), 8)
        low_set = set(lpn.low_transitions)
        reach = reachability_graph(lpn.net).nfa
        from_net = bounded_language(
            relabeled(reach, lambda t: t if t in low_set else EPSILON), 8)
        if from_brg != from_net:
            pytest.fail(f"projection mismatch on seed {seed}: "
                        f"only-in-brg={sorted(from_brg - from_net)[:5]} "
                        f"only-in-net={sorted(from_net - from_brg)[:5]}\n"
                        f"net document:\n{serialize_net(lpn)}")


def _explanation_queries():
    """(name, net, markings to query, exhaustive length cap) for the enumeration check.

    Four sampled reachable markings of each small net, then every basis state
    of the big nets, whose shared high-run searches are the deepest.
    """
    for seed in QUERY_SEEDS:
        lpn = random_lpn(seed)
        markings = explore_markings(lpn.net, cap=2000).markings
        rng = random.Random(seed * 977)
        sample = list(markings)
        rng.shuffle(sample)
        # A firable high run never repeats a marking, so this cap is exhaustive.
        yield f"default net {seed}", lpn, sample[:4], len(markings) + 1
    for seed in BIG_QUERY_SEEDS:
        lpn = random_lpn(seed, BIG)
        reachable = lpn.require_assumptions(BIG.bound_cap).reachable_count
        yield f"big net {seed}", lpn, sorted(build_brg(lpn, BIG.bound_cap).nfa.states), reachable + 1


def test_minimal_explanations_match_enumeration():
    queries = 0
    for name, lpn, markings, cap in _explanation_queries():
        for m in markings:
            for t in lpn.low_transitions:
                enumerated = minimality_filter(
                    {e.evector for e in explanations_bounded(lpn, m, t, len_cap=cap)})
                result = minimal_e_vectors(lpn, m, t)
                assert result.evectors == enumerated, f"{name}, marking {m}, transition {t}"
                for witness in result.witnesses.values():
                    assert lpn.net.enabled(lpn.net.fire_sequence(m, witness), t), (name, m, t)
                queries += 1
    assert queries >= 7000


def test_low_words_always_in_projection():
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        projected = projected_label_language(lpn)
        for word in bounded_language(low_label_language(lpn), 5):
            assert word_in_language(projected, word), (seed, word)


def test_matched_tags_never_exceed_tags():
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        sv = build_sv(lpn)
        alpha = range(1, len(sv.ubrg.alpha_leaves) + 1)
        beta = range(1, len(sv.ubrg.beta_leaves) + 1)
        assert set(sv.alpha_matched_numbers) <= set(alpha), seed
        assert set(sv.beta_matched_numbers) <= set(beta), seed
        # Tag numbering is consecutive from 1 per kind, in discovery order.
        tags = leaf_tags(sv.ubrg)
        for kind, numbers in (("alpha", alpha), ("beta", beta)):
            assert [n for tag_kind, n in tags.values() if tag_kind == kind] == list(numbers), seed


def test_alpha_matching_is_word_membership():
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        sv = build_sv(lpn)
        low = low_label_language(lpn)
        for leaf, (kind, n) in leaf_tags(sv.ubrg).items():
            if kind == "alpha":
                word = lpn.label_word([e.transition for e in root_path(sv.ubrg, leaf)])
                assert (n in sv.alpha_matched_numbers) == word_in_language(low, word), (seed, n)


def test_unfolding_duplicates_track_simple_cycles():
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        brg = build_brg(lpn)
        digraph = nx.DiGraph()
        digraph.add_nodes_from(brg.nfa.states)
        for src, _, dst in brg.nfa.arcs:
            digraph.add_edge(src, dst)
        cycles = list(nx.simple_cycles(digraph))
        ubrg = build_ubrg(lpn)
        on_cycles = {m for cycle in cycles for m in cycle}
        duplicate_markings = {node_marking(ubrg, nid) for nid in ubrg.duplicated}
        assert duplicate_markings <= on_cycles, seed
        for cycle in cycles:
            assert duplicate_markings & set(cycle), (seed, cycle)


def test_negative_verdicts_carry_replayable_counterexamples():
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        verdict = decide_snni(lpn)
        if verdict.snni:
            continue
        word = verdict.counterexample
        assert word is not None, seed
        assert word_in_language(projected_label_language(lpn), word), seed
        assert not word_in_language(low_label_language(lpn), word), seed
        # The unmatched tags' words list the alpha tags, then the beta tags,
        # each kind in number order (seeds 12, 24 and 30 miss both kinds).
        tags = ([("alpha", n) for n in verdict.missing_alpha_numbers]
                + [("beta", n) for n in verdict.missing_beta_numbers])
        assert tags == sorted(set(tags)), seed
        assert len(verdict.missing_words) == len(tags), seed


def test_basis_and_full_route_counterexamples_agree():
    # Both difference searches return the shortest lexicographically-least
    # leaked word, so they must coincide whenever the verdict is negative.
    # The report takes its leaked word from the basis route alone, so the
    # full-net search checks it here.
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        pipeline = decide_snni(lpn)
        oracle = snni_oracle(lpn)
        if not pipeline.snni:
            assert pipeline.counterexample == oracle.counterexample, seed
        assert analyze(lpn).verdict.counterexample == oracle.counterexample, seed


def test_justification_markings_exhaust_basis_states_by_depth():
    # Two independent computations of the same set: interleaving enumeration
    # with per-sequence minimality versus graph saturation with per-step
    # minimal vectors.  Words of length k reach exactly the depth-k states.
    from snnicheck.oracle import justifications
    from snnicheck.reach import projected_label_language
    depth = 4
    for seed in STRUCTURE_SEEDS:
        lpn = random_lpn(seed)
        brg = build_brg(lpn)
        union = set()
        for word in bounded_language(projected_label_language(lpn), depth):
            union |= justifications(lpn, word).basis_markings
        frontier = set(brg.nfa.initial)
        within = set(brg.nfa.initial)
        for _ in range(depth):
            frontier = {dst for m in frontier for _, dst in brg.nfa.arcs_from(m)
                        if dst not in within}
            within |= frontier
        assert union == within, seed


def _assumption_outcome(report):
    return (report.bounded, report.high_subnet_acyclic, report.reachable_count)


def test_basis_route_proof_agrees_with_full_exploration(monkeypatch):
    import snnicheck.petri as petri
    nets = [(config, random_lpn(seed, config))
            for config, seeds in ((GeneratorConfig(), range(1, 401)), (BIG, range(1, 41)),
                                  (HUGE, range(1, 13)))
            for seed in seeds]
    full = [_assumption_outcome(check_assumptions(lpn, config.bound_cap)) for config, lpn in nets]

    def no_exploration(net, cap):
        raise AssertionError("the basis route explored the full net")

    monkeypatch.setattr(petri, "explore_markings", no_exploration)
    for (config, lpn), expected in zip(nets, full):
        assert _assumption_outcome(build_brg(lpn, config.bound_cap).assumptions) == expected


def _raw_acyclic_candidates():
    """150 raw generator candidates with an acyclic high subnet per config, unbounded ones included."""
    for config in (GeneratorConfig(), BIG):
        rng = random.Random(1018)
        tried = 0
        while tried < 150:
            lpn = _candidate(rng, config)
            if _high_subnet_cycle(lpn) is not None:
                continue
            tried += 1
            yield lpn


def test_basis_route_refuses_what_full_exploration_refuses():
    outcomes = {}
    for lpn in _raw_acyclic_candidates():
        full = check_assumptions(lpn, 3000)
        try:
            basis = build_brg(lpn, 3000).assumptions.reachable_count
        except AssumptionError as exc:
            basis = str(exc)
        if full.ok:
            assert basis == full.reachable_count, serialize_net(lpn)
        else:
            assert isinstance(basis, str), serialize_net(lpn)
            if basis.startswith("net is unbounded"):
                assert_pumps(lpn.net, *unbounded_witness(basis))
        outcomes[full.bounded] = outcomes.get(full.bounded, 0) + 1
    assert outcomes[True] and outcomes[False]


#: sha256 over the refusal texts of both assumption proofs on the candidates
#: above, at caps 50 and 3000: ``check_assumptions(...).describe_failure()``,
#: then ``build_brg``'s refusal, or its state count and reachable count when
#: it answers.  Recorded while ``build_brg`` still walked its own copy of the
#: domination test.
PINNED_REFUSALS_SHA256 = "6b7695bcbd1577f50789060ebb931082b1b12e925e0a6f9fc029e28964f83634"


def test_assumption_refusals_are_pinned():
    digest = hashlib.sha256()
    for lpn in _raw_acyclic_candidates():
        for cap in (50, 3000):
            digest.update(check_assumptions(lpn, cap).describe_failure().encode())
            try:
                brg = build_brg(lpn, cap)
            except AssumptionError as exc:
                digest.update(str(exc).encode())
            else:
                digest.update(f"{len(brg.nfa.states)} {brg.assumptions.reachable_count}".encode())
    assert digest.hexdigest() == PINNED_REFUSALS_SHA256


#: sha256 over ``repr(_high_subnet_cycle(lpn))`` on 1,000 raw candidates per
#: config (default, big, huge), each config drawn from ``random.Random(7)``;
#: 1,624 of them have a cycle.  Recorded with the search that started at every
#: place and high transition and sorted each adjacency list.
PINNED_CYCLES_SHA256 = "a9c1e688a5f5794d3ab37f31b5769f410b03f4aa80739e2889774002882baea1"


def test_high_subnet_cycles_are_pinned():
    digest = hashlib.sha256()
    cyclic = 0
    for config in (GeneratorConfig(), BIG, HUGE):
        rng = random.Random(7)
        for _ in range(1000):
            cycle = _high_subnet_cycle(_candidate(rng, config))
            cyclic += cycle is not None
            digest.update(repr(cycle).encode())
    assert cyclic == 1624
    assert digest.hexdigest() == PINNED_CYCLES_SHA256


def test_documents_round_trip_random_nets():
    from snnicheck.netdoc import parse_net, serialize_net
    for seed in STRUCTURE_SEEDS:
        text = serialize_net(random_lpn(seed))
        assert serialize_net(parse_net(text)) == text, seed


def test_generator_never_explores_a_cyclic_candidate(monkeypatch):
    import snnicheck.petri as petri
    import snnicheck.randnets as randnets
    candidates = []
    explored = []
    make_candidate = randnets._candidate
    explore = petri.explore_markings

    def recording_candidate(rng, config):
        lpn = make_candidate(rng, config)
        candidates.append(lpn)
        return lpn

    def counting_explore(net, cap):
        explored.append(net)
        return explore(net, cap)

    monkeypatch.setattr(randnets, "_candidate", recording_candidate)
    monkeypatch.setattr(petri, "explore_markings", counting_explore)
    for seed in STRUCTURE_SEEDS:
        random_lpn(seed)
    cyclic = [lpn for lpn in candidates if petri._high_subnet_cycle(lpn) is not None]
    assert cyclic
    assert not any(net is lpn.net for lpn in cyclic for net in explored)
    assert len(explored) == len(candidates) - len(cyclic)
