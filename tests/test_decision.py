"""The tree-free decision on nets whose trees exceed their node cap.

:func:`decide_languages` needs only the basis graph, the low subnet and one
language comparison, so it answers where ``analyze`` still loses the
verdict because the unfolding, built as evidence, is too big.
"""

from __future__ import annotations

import time

import pytest

from snnicheck.fixtures import equal_effect, hidden_choice
from snnicheck.oracle import snni_oracle
from snnicheck.petri import NetError
from snnicheck.report import analyze
from snnicheck.verifier import decide_languages

GAP_NETS = {
    "equal_effect(4, 20)": lambda: equal_effect(4, 20),
    "hidden_choice(8)": lambda: hidden_choice(8),
    "hidden_choice(8, leaky=True)": lambda: hidden_choice(8, leaky=True),
}


@pytest.mark.parametrize("name", GAP_NETS)
def test_decision_answers_where_the_unfolding_hits_its_cap(name):
    start = time.perf_counter()
    decision = decide_languages(GAP_NETS[name]())
    assert time.perf_counter() - start < 1.0
    oracle = snni_oracle(GAP_NETS[name]())
    assert (decision.check.equal, decision.check.counterexample) == \
        (oracle.snni, oracle.counterexample)
    # analyze still builds the trees and loses the verdict at their cap.  Once
    # a tree cap leaves the verdict standing, this becomes check == oracle.
    with pytest.raises(NetError, match="^unfolding exceeds 200000 nodes; raise node_cap"):
        analyze(GAP_NETS[name]())
