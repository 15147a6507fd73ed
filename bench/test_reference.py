"""Tests of the benchmark's reference checker on the bundled demo nets.

Run from the repository root:  python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from snnicheck import build_brg, export_dot, parse_net, snni_oracle  # noqa: E402
from snnicheck.fixtures import fixture_document  # noqa: E402

from reference import (Mismatch, RefNet, confirm_bounded_languages,  # noqa: E402
                       confirm_brg_dot, confirm_leak)

DEMOS = {"secure": True, "leaky": False, "sync-period-two": True}
WORD_LEN = 6


def _outputs(name: str):
    document = fixture_document(name)
    verdict = snni_oracle(parse_net(document))
    return RefNet(document), verdict, export_dot(build_brg(parse_net(document)))


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_reference_confirms_package_outputs(name):
    ref, verdict, dot = _outputs(name)
    assert verdict.snni is DEMOS[name]
    if verdict.counterexample is not None:
        confirm_leak(ref, verdict.counterexample)
    assert confirm_bounded_languages(ref, WORD_LEN, verdict.snni, verdict.counterexample) > 1
    states, arcs = confirm_brg_dot(ref, dot, ref.reachable())
    assert states == dot.count("label=\"[") and arcs == dot.count(" -> ")


def test_leaky_word_is_emitted_by_full_net_only():
    ref, verdict, _ = _outputs("leaky")
    word = verdict.counterexample
    assert ref.emits(word, full=True) and not ref.emits(word, full=False)
    with pytest.raises(Mismatch, match="also a word of the low subnet"):
        confirm_leak(ref, word[:-1])
    with pytest.raises(Mismatch, match="not a low projection"):
        confirm_leak(ref, ("e",))


def test_bounded_comparison_rejects_wrong_verdicts():
    leaky, verdict, _ = _outputs("leaky")
    with pytest.raises(Mismatch, match="word sets differ"):
        confirm_bounded_languages(leaky, WORD_LEN, True, None)
    with pytest.raises(Mismatch, match="shortest difference"):
        confirm_bounded_languages(leaky, WORD_LEN, False, verdict.counterexample + ("a",))
    secure = RefNet(fixture_document("secure"))
    with pytest.raises(Mismatch, match="shortest difference"):
        confirm_bounded_languages(secure, WORD_LEN, False, ("c",))


def test_brg_check_rejects_broken_arcs_and_states():
    ref, _, dot = _outputs("secure")
    lines = dot.splitlines()
    arc = next(i for i, line in enumerate(lines) if " -> " in line)
    source, target = lines[arc].split(" [")[0].strip().split(" -> ")
    lines[arc] = lines[arc].replace(f"{source} -> {target}", f"{source} -> {source}", 1)
    with pytest.raises(Mismatch, match="marking equation"):
        confirm_brg_dot(ref, "\n".join(lines), ref.reachable())
    unreachable = dot.replace('label="[1 0 0 0 0 0 0 0 0]"', 'label="[2 0 0 0 0 0 0 0 0]"')
    with pytest.raises(Mismatch, match="not a reachable marking"):
        confirm_brg_dot(ref, unreachable, ref.reachable())
