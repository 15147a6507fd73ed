from __future__ import annotations

import hashlib
import json

import pytest

from snnicheck.basis import build_brg, build_ubrg
from snnicheck.dot import export_dot
from snnicheck.netdoc import serialize_net
from snnicheck.nfa import Nfa
from snnicheck.petri import InvalidNetError
from snnicheck.randnets import GeneratorConfig, random_lpn
from snnicheck.reach import low_label_language, reachability_graph
from snnicheck.report import analyze
from snnicheck.verifier import build_sv


def test_brg_dot_contents(secure):
    text = export_dot(build_brg(secure))
    assert text.startswith("digraph brg {")
    assert text.endswith("}\n")
    node_lines = [line for line in text.splitlines() if "label=\"[" in line and "->" not in line]
    assert len(node_lines) == 8
    assert '"(l1,[1 0])"' in text


def test_empty_graph_header_footer_only():
    text = export_dot(Nfa([], [], []))
    assert [line for line in text.splitlines()
            if line not in ("digraph nfa {", "  rankdir=LR;", "  node [shape=box];", "}")] == []


def test_export_refuses_what_it_cannot_draw():
    with pytest.raises(InvalidNetError, match=r"^cannot export object as DOT$"):
        export_dot(object())


def test_bare_nfa_dot_outlines_every_initial_state():
    # Two initial states, one of them not the first node, and arcs whose
    # sources interleave: nodes keep declaration order, arcs their own order,
    # and a repeated event reads the same quoted label.
    nfa = Nfa(["s", "t", "u"],
              [("s", "a", "t"), ("t", 'say "b"', "u"), ("s", "c", "u"), ("u", "a", "s")],
              ["u", "s"])
    assert export_dot(nfa) == (
        "digraph nfa {\n"
        "  rankdir=LR;\n"
        "  node [shape=box];\n"
        '  n0 [label="s", peripheries=2];\n'
        '  n1 [label="t"];\n'
        '  n2 [label="u", peripheries=2];\n'
        '  n0 -> n1 [label="a"];\n'
        '  n1 -> n2 [label="say \\"b\\""];\n'
        '  n0 -> n2 [label="c"];\n'
        '  n2 -> n0 [label="a"];\n'
        "}\n")


def test_ubrg_dot_tags(secure):
    text = export_dot(build_ubrg(secure))
    tagged = [line for line in text.splitlines() if "alpha_" in line or "beta_" in line]
    assert len(tagged) == 2
    assert any("alpha_1" in line for line in tagged)
    assert any("beta_1" in line for line in tagged)
    dashed = [line for line in text.splitlines() if "style=dashed" in line]
    assert len(dashed) == 2  # the two duplicated leaves


def test_sv_dot_renders_pairs(secure):
    text = export_dot(build_sv(secure))
    assert "digraph verifier {" in text
    assert " ; " in text  # node labels pair the two markings
    assert "(l1,l8)" in text


def test_reach_dot(secure):
    text = export_dot(reachability_graph(secure.net))
    assert "digraph reach {" in text
    assert text.count("->") == len(reachability_graph(secure.net).nfa.arcs)


def test_exports_deterministic(secure):
    assert export_dot(build_brg(secure)) == export_dot(build_brg(secure))
    assert export_dot(build_ubrg(secure)) == export_dot(build_ubrg(secure))
    assert export_dot(build_sv(secure)) == export_dot(build_sv(secure))


#: sha256 over ``serialize_net`` and the BRG's DOT export of every net below,
#: recorded with the per-transition explanation search that preceded the
#: shared one.  A change to any generated net or BRG export breaks it.
PINNED_EXPORTS = (
    (GeneratorConfig(), range(1, 51)),
    (GeneratorConfig(max_places=14, max_transitions=20, max_tokens=6, bound_cap=100_000),
     range(1, 41)),
    (GeneratorConfig(max_places=20, max_transitions=30, max_tokens=10, bound_cap=300_000),
     (5, 11)),
)
PINNED_EXPORTS_SHA256 = "77c0c06584fe1b56a7db3b16a94c2de3f3bf2878a07b450f967ea438917fac84"


def test_random_net_exports_are_pinned():
    digest = hashlib.sha256()
    for config, seeds in PINNED_EXPORTS:
        for seed in seeds:
            lpn = random_lpn(seed, config)
            digest.update(serialize_net(lpn).encode())
            digest.update(export_dot(build_brg(lpn)).encode())
    assert digest.hexdigest() == PINNED_EXPORTS_SHA256


#: sha256 over the unfolding's and the verifier's DOT exports and
#: ``analyze(...).to_dict()`` without timings, for every net above except big
#: net 16, whose verifier tree exceeds the node cap.  Recorded when both trees
#: were still derived afresh at every node instead of copied from the BRG.
PINNED_TREES_SHA256 = "6451a91e93305ab1698f79fe41f32e53a1d82c3603c17dd2716c2ae1d6e7b8c0"


def test_random_net_tree_exports_are_pinned():
    digest = hashlib.sha256()
    for config, seeds in PINNED_EXPORTS:
        for seed in seeds:
            if config == PINNED_EXPORTS[1][0] and seed == 16:
                continue
            lpn = random_lpn(seed, config)
            ubrg = build_ubrg(lpn)
            digest.update(export_dot(ubrg).encode())
            digest.update(export_dot(build_sv(lpn, ubrg=ubrg)).encode())
            report = analyze(lpn).to_dict()
            del report["timings"]
            digest.update(json.dumps(report, sort_keys=True).encode())
    assert digest.hexdigest() == PINNED_TREES_SHA256


#: sha256 over ``analyze(...).to_text()`` without its timings line and
#: ``json.dumps(to_dict())`` without timings and without ``sort_keys``, so the
#: order of every rendered list and of the ``witness_words`` keys counts, on
#: nets with thousands of tags: big nets 18, 24 and 39 and huge nets 5 and 11.
#: Recorded while every rendering still sorted its tag sets.
PINNED_RENDERINGS = ((PINNED_EXPORTS[1][0], (18, 24, 39)), (PINNED_EXPORTS[2][0], (5, 11)))
PINNED_RENDERINGS_SHA256 = "12b973a502d6e89b1a2f2a8f83970b2686b6128cde46e35567e09ccf5bd34d4b"


def test_large_tag_set_renderings_are_pinned():
    digest = hashlib.sha256()
    for config, seeds in PINNED_RENDERINGS:
        for seed in seeds:
            report = analyze(random_lpn(seed, config))
            text, timings = report.to_text().rsplit("timings: ", 1)
            assert "\n" not in timings.rstrip("\n")
            digest.update(text.encode())
            rendered = report.to_dict()
            del rendered["timings"]
            digest.update(json.dumps(rendered).encode())
    assert digest.hexdigest() == PINNED_RENDERINGS_SHA256


#: sha256 over the full net's reachability-graph DOT export and the states,
#: arcs, initial states and labeling of the low subnet's label language, for
#: every net above.  Recorded while the graphs' arcs were still produced by
#: firing every enabled transition again after exploration.
PINNED_REACH_SHA256 = "f52a20ed2d284238e7e70978b6958593ade9bdea91eaa1f84cd64bd1363ba9ae"


def test_random_net_reachability_graphs_are_pinned():
    digest = hashlib.sha256()
    for config, seeds in PINNED_EXPORTS:
        for seed in seeds:
            lpn = random_lpn(seed, config)
            digest.update(export_dot(reachability_graph(lpn.net)).encode())
            low = low_label_language(lpn)
            digest.update(repr((low.states, low.arcs, low.initial,
                                tuple(low.labeling.items()))).encode())
    assert digest.hexdigest() == PINNED_REACH_SHA256
