from __future__ import annotations

import dataclasses
import random
from collections import deque
from operator import le

import pytest
from hypothesis import given, strategies as st

from snnicheck.fixtures import (_DEMO_ARCS, DEMOS, demo_cyclic_high, demo_secure,
                                demo_unbounded)
import snnicheck.petri as petri
from snnicheck.petri import (AssumptionError, DominationWitness, ExplorationResult,
                             FiringError, InvalidNetError, LabeledPetriNet, PetriNet,
                             check_assumptions, explore_markings, parikh, shift)
from snnicheck.randnets import GeneratorConfig, _candidate, random_lpn

from conftest import (BASIS_M2, BASIS_M4, BENCH_SUITES, demo_and_suite_nets, marking_of,
                      record_calls)


def test_enabled_at_initial(secure):
    m0 = secure.net.initial_marking
    assert secure.net.enabled(m0, "l5")
    assert not secure.net.enabled(m0, "l1")


def test_empty_preset_always_enabled():
    net = PetriNet(("p",), ("t",), [("t", "p")], (0,))
    assert net.enabled((0,), "t")
    assert net.enabled((5,), "t")


def test_enabled_unknown_transition(secure):
    with pytest.raises(InvalidNetError):
        secure.net.enabled(secure.net.initial_marking, "nope")


def test_fire_high_then_low(secure):
    m0 = secure.net.initial_marking
    after_h1 = secure.net.fire(m0, "h1")
    assert after_h1 == marking_of(secure, p2=1)
    assert secure.net.fire(m0, "l8") == BASIS_M4


def test_fire_self_loop_preserves_tokens():
    net = PetriNet(("p",), ("t",), [("p", "t"), ("t", "p")], (1,))
    assert net.fire((1,), "t") == (1,)


def test_fire_disabled_names_place(secure):
    with pytest.raises(FiringError) as exc:
        secure.net.fire(secure.net.initial_marking, "l1")
    assert exc.value.transition == "l1"
    assert exc.value.place == "p2"


def test_fire_sequence(secure):
    m0 = secure.net.initial_marking
    assert secure.net.fire_sequence(m0, ("h1", "l1", "l2")) == BASIS_M2
    assert secure.net.fire_sequence(m0, ()) == m0


def test_fire_sequence_reports_index(secure):
    with pytest.raises(FiringError) as exc:
        secure.net.fire_sequence(secure.net.initial_marking, ("l1",))
    assert exc.value.index == 0
    with pytest.raises(FiringError) as exc:
        secure.net.fire_sequence(secure.net.initial_marking, ("h1", "l1", "l1"))
    assert exc.value.index == 2


def test_parikh():
    assert parikh(("h1",), ("h1", "h2")) == (1, 0)
    assert parikh((), ("h1", "h2")) == (0, 0)
    assert parikh(("l1", "l2", "l1"), ("l1", "l2")) == (2, 1)
    with pytest.raises(InvalidNetError):
        parikh(("l9",), ("l1", "l2"))


def test_incidence_columns_match_declared_arcs(secure):
    # Assemble the incidence matrix independently from the raw arc list and
    # compare the sparse change table and every firing against it.
    places = secure.net.places
    incidence = {t: [0] * len(places) for t in secure.net.transitions}
    for source, target in _DEMO_ARCS:
        if source in incidence:
            incidence[source][places.index(target)] += 1
        else:
            incidence[target][places.index(source)] -= 1
    for t in secure.net.transitions:
        assert secure.net.delta[t] == tuple((i, d) for i, d in enumerate(incidence[t]) if d)
    for m in (secure.net.initial_marking, marking_of(secure, p2=1)):
        for t in secure.net.transitions:
            if secure.net.enabled(m, t):
                fired = secure.net.fire(m, t)
                assert fired == tuple(v + d for v, d in zip(m, incidence[t]))


def test_induced_subnet_low(secure):
    low = secure.net.induced_subnet(secure.low_transitions)
    m0 = low.initial_marking
    assert low.enabled(m0, "l5")
    assert low.fire_sequence(m0, ("l8", "l9")) == m0
    assert not low.enabled(m0, "l1")
    assert "h1" not in low.transitions


def test_induced_subnet_trivial(secure):
    same = secure.net.induced_subnet(secure.net.transitions)
    assert same.transitions == secure.net.transitions
    assert same.weight == secure.net.weight
    empty = secure.net.induced_subnet(())
    assert empty.transitions == ()
    assert empty.places == secure.net.places


def test_label_word(secure):
    assert secure.label_word(("l1", "l2")) == ("a", "b")
    assert secure.label_word(("l8", "l9")) == ("a", "b")
    assert secure.label_word(()) == ()


_PROP_NET = demo_secure()
_any_sequence = st.lists(st.sampled_from(_PROP_NET.net.transitions), max_size=30)


@given(_any_sequence)
def test_label_word_commutes_with_projection(sequence):
    low = [t for t in sequence if t in _PROP_NET.low_transitions]
    projected_then_labeled = _PROP_NET.label_word(low)
    labeled_then_erased = tuple(a for a in _PROP_NET.label_word(sequence)
                                if a in _PROP_NET.low_labels)
    assert projected_then_labeled == labeled_then_erased


def test_assumptions_on_fixture(secure):
    report = check_assumptions(secure)
    assert report.ok
    assert report.bounded is True
    assert report.reachable_count == 9
    assert report.high_subnet_acyclic


def test_assumptions_unbounded():
    report = check_assumptions(demo_unbounded())
    assert report.bounded is False
    assert report.domination_witness.path == ("t",)
    assert report.domination_witness.pump_start == 0
    assert not report.ok


def test_assumptions_cyclic_high():
    report = check_assumptions(demo_cyclic_high())
    assert not report.high_subnet_acyclic
    assert report.high_cycle is not None
    assert report.high_cycle[0] == report.high_cycle[-1]
    assert not report.ok


def test_assumptions_cap_exhaustion():
    report = check_assumptions(demo_unbounded(), cap=1)
    # With a one-marking budget neither verdict may be claimed.
    assert report.bounded in (None, False)
    if report.bounded is None:
        assert not report.ok


def _fan_out(branches: int) -> PetriNet:
    """One token that any of ``branches`` transitions moves to a place of its own."""
    places = ("p0",) + tuple(f"p{i}" for i in range(1, branches + 1))
    transitions = tuple(f"t{i}" for i in range(1, branches + 1))
    arcs = [(a, b) for i in range(1, branches + 1) for a, b in (("p0", f"t{i}"), (f"t{i}", f"p{i}"))]
    return PetriNet(places, transitions, arcs, (1,) + (0,) * branches)


def test_exploration_stops_at_its_cap():
    net = _fan_out(5)  # six reachable markings
    for cap in range(1, 6):
        result = explore_markings(net, cap)
        assert not result.complete
        assert len(result.markings) == cap + 1
    result = explore_markings(net, 6)
    assert result.complete
    assert len(result.markings) == 6


def test_exploration_result_is_frozen_and_holds_tuples():
    complete = explore_markings(_fan_out(3), 10)
    assert complete.complete
    assert complete.arc_transitions == ("t1", "t2", "t3")
    incomplete = explore_markings(_fan_out(3), 2)
    unbounded = explore_markings(demo_unbounded().net, 10)
    assert not incomplete.complete
    assert unbounded.domination_witness is not None
    for result in (complete, incomplete, unbounded):
        for name in ("markings", "arc_sources", "arc_transitions", "arc_targets"):
            assert type(getattr(result, name)) is tuple
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.arc_targets = ()
    for result in (incomplete, unbounded):
        assert result.arc_sources == result.arc_transitions == result.arc_targets == ()


def _explore_walking_every_firing(net: PetriNet, cap: int) -> ExplorationResult:
    """Reference exploration, kept on purpose: the Karp-Miller walk at every firing.

    Each successor, new or already known, is compared with the markings on
    its discovery path before the firing is recorded.
    """
    root = net.initial_marking
    if cap < 1:
        return ExplorationResult((root,), None, complete=False)
    root_node = (root, None, None, sum(root), sum(root))
    seen = {root: root}
    order = [root]
    sources, fired, targets = [], [], []
    queue = deque([root_node])
    moves = [(t, net.pre[t], net.delta[t], sum(d for _, d in net.delta[t]))
             for t in net.transitions]
    while queue:
        node = queue.popleft()
        marking, _, _, node_tokens, path_min = node
        for t, pre, delta, gain in moves:
            if not all(marking[i] >= need for i, need in pre):
                continue
            successor = shift(marking, delta)
            tokens = node_tokens + gain
            ancestor, depth_from_child = node, 1
            while ancestor is not None and ancestor[4] < tokens:
                if ancestor[3] < tokens and all(map(le, ancestor[0], successor)):
                    path = [t]
                    back = node
                    while back[1] is not None:
                        path.append(back[2])
                        back = back[1]
                    path.reverse()
                    witness = DominationWitness(tuple(path), len(path) - depth_from_child)
                    return ExplorationResult(tuple(order), witness, complete=False)
                ancestor = ancestor[1]
                depth_from_child += 1
            sources.append(marking)
            fired.append(t)
            known = seen.get(successor)
            if known is not None:
                targets.append(known)
                continue
            targets.append(successor)
            seen[successor] = successor
            order.append(successor)
            if len(order) > cap:
                return ExplorationResult(tuple(order), None, complete=False)
            queue.append((successor, node, t, tokens, min(tokens, path_min)))
    return ExplorationResult(tuple(order), None, True,
                             tuple(sources), tuple(fired), tuple(targets))


def _assert_explores_as_the_reference(net: PetriNet, bound_cap: int) -> ExplorationResult:
    """Compare at caps 1, n - 1, n, 3,000 and ``bound_cap``; n markings are found under it."""
    widest = _explore_walking_every_firing(net, bound_cap)
    n = len(widest.markings)
    for cap in sorted({1, n - 1, n, 3000, bound_cap}):
        reference = widest if cap == bound_cap else _explore_walking_every_firing(net, cap)
        assert explore_markings(net, cap) == reference, cap
    return widest


def test_exploration_matches_the_walk_at_every_firing_on_demos_and_suites():
    for make in DEMOS.values():
        _assert_explores_as_the_reference(make().net, GeneratorConfig().bound_cap)
    _assert_explores_as_the_reference(_pump_met_again(), GeneratorConfig().bound_cap)
    for config, seeds in BENCH_SUITES:
        for seed in seeds:
            _assert_explores_as_the_reference(random_lpn(seed, config).net, config.bound_cap)


def test_exploration_matches_the_walk_at_every_firing_on_raw_candidates():
    # Raw acyclic generator candidates, unbounded ones included.  A few huge
    # candidates have over 100,000 reachable markings, so those are compared
    # up to a cap of 3,000.
    unbounded = 0
    for config, _ in BENCH_SUITES:
        bound_cap = 3000 if config.max_places == 20 else config.bound_cap
        rng = random.Random(7)
        tried = 0
        while tried < 150:
            lpn = _candidate(rng, config)
            if petri._high_subnet_cycle(lpn) is not None:
                continue
            tried += 1
            widest = _assert_explores_as_the_reference(lpn.net, bound_cap)
            unbounded += widest.domination_witness is not None
    assert unbounded


def _pump_met_again() -> PetriNet:
    """An unbounded net whose first domination is met at an already known marking.

    ``t1`` and ``t2`` lead from the root to y and to y + z; from y, ``t3``
    reaches the known y + z, which strictly dominates y.  The walk at every
    firing stops there, before ``t4`` adds a fourth marking and before y + z
    is expanded to y + 2z, where a walk at new markings only first finds a
    domination.
    """
    arcs = [("x", "t1"), ("t1", "y"), ("x", "t2"), ("t2", "y"), ("t2", "z"),
            ("y", "t3"), ("t3", "y"), ("t3", "z"), ("y", "t4"), ("t4", "v")]
    return PetriNet(("x", "y", "z", "v"), ("t1", "t2", "t3", "t4"), arcs, (1, 0, 0, 0))


def test_exploration_runs_a_second_pass_only_when_a_skipped_walk_could_matter(monkeypatch):
    passes = []
    explore = petri._explore

    def counting_explore(net, cap, walk_every_firing):
        passes.append(walk_every_firing)
        return explore(net, cap, walk_every_firing)

    monkeypatch.setattr(petri, "_explore", counting_explore)
    for name, make in DEMOS.items():
        passes.clear()
        explore_markings(make().net, 2000)
        assert passes == [False], name
    passes.clear()
    # Its first firing yields a new marking that dominates the root: no walk is skipped.
    assert explore_markings(demo_unbounded().net, 100).domination_witness is not None
    assert passes == [False]
    passes.clear()
    # No firing adds a token, so no skipped walk compares an ancestor.
    assert not explore_markings(_fan_out(5), 5).complete
    assert passes == [False]
    for cap in (3, 100):
        passes.clear()
        result = explore_markings(_pump_met_again(), cap)
        assert passes == [False, True], cap
        assert result.domination_witness == DominationWitness(("t1", "t3"), 1)
        assert result == _explore_walking_every_firing(_pump_met_again(), cap)
        assert explore(_pump_met_again(), cap, walk_every_firing=False)[0] != result


def test_sparse_tables_match_dense_definition():
    for _, lpn in demo_and_suite_nets():
        net = lpn.net
        for t in net.transitions:
            pre = tuple((i, net.weight[(p, t)]) for i, p in enumerate(net.places)
                        if (p, t) in net.weight)
            change = (net.weight.get((t, p), 0) - net.weight.get((p, t), 0) for p in net.places)
            assert net.pre[t] == pre
            assert net.delta[t] == tuple((i, d) for i, d in enumerate(change) if d)


def test_cached_assumption_report_does_not_answer_a_smaller_cap():
    lpn = LabeledPetriNet(_fan_out(5), {f"t{i}": "a" for i in range(1, 6)})
    passing = lpn.require_assumptions(100)
    assert passing.reachable_count == 6
    with pytest.raises(AssumptionError, match="exploration cap of 2 markings exhausted"):
        lpn.require_assumptions(2)
    # The failing answer does not evict the passing one.
    assert lpn.require_assumptions(6) is passing


def test_require_assumptions_refuses(secure):
    assert secure.require_assumptions().ok
    with pytest.raises(AssumptionError):
        demo_unbounded().require_assumptions()


def test_bounded_iff_no_domination_found():
    # A conservative net (tokens conserved) is found bounded; adding a
    # token-pumping transition flips the verdict with a witness.
    conservative = PetriNet(("p", "q"), ("t1", "t2"),
                            [("p", "t1"), ("t1", "q"), ("q", "t2"), ("t2", "p")], (1, 0))
    assert check_assumptions(LabeledPetriNet(conservative, {"t1": "a", "t2": "b"})).bounded is True
    pumping = PetriNet(("p", "q"), ("t1", "t2"),
                       [("p", "t1"), ("t1", "q"), ("t1", "p"), ("q", "t2"), ("t2", "p")],
                       (1, 0))
    report = check_assumptions(LabeledPetriNet(pumping, {"t1": "a", "t2": "b"}))
    assert report.bounded is False
    witness = report.domination_witness
    start = pumping.fire_sequence(pumping.initial_marking, witness.path[:witness.pump_start])
    end = pumping.fire_sequence(pumping.initial_marking, witness.path)
    assert start != end
    assert all(a <= b for a, b in zip(start, end))


def test_net_construction_validation():
    with pytest.raises(InvalidNetError):
        PetriNet(("p", "p"), ("t",), [], (0, 0))
    with pytest.raises(InvalidNetError):
        PetriNet(("p",), ("p",), [], (0,))
    with pytest.raises(InvalidNetError):
        PetriNet(("p",), ("t",), [("p", "p")], (0,))
    with pytest.raises(InvalidNetError):
        PetriNet(("p",), ("t",), [("p", "t", 0)], (0,))
    with pytest.raises(InvalidNetError):
        PetriNet(("p",), ("t",), [], (0, 1))
    with pytest.raises(InvalidNetError):
        PetriNet(("p",), ("t",), [], (-1,))


@pytest.mark.parametrize("arcs, marking", [
    ([("p", "t", 2, 5)], [1, 0]),  # an entry of four fields
    ([("p",)], [1, 0]),            # an entry of one field
    ([("p", "t", True)], [1, 0]),  # a bool weight, in an entry
    ({("p", "t"): True}, [1, 0]),  # a bool weight, in a mapping
    ([("p", "t")], [True, 0]),     # a bool token count
    (["pt"], [1, 0]),              # a bare string entry, which unpacks into p and t
    ({"pt": 1}, [1, 0]),           # a bare string key
    ({("p", "t", "x"): 1}, [1, 0]),  # a key of three fields
    ([(["p"], "t")], [1, 0]),      # an unhashable arc end
])
def test_net_rejects_malformed_arc_entries_and_bool_counts(arcs, marking):
    with pytest.raises(InvalidNetError):
        PetriNet(["p", "x"], ["t"], arcs, marking)


@pytest.mark.parametrize("build", [
    lambda: PetriNet([1, "a", 1, "a"], ["t"], [], [0, 0, 0, 0]),
    lambda: PetriNet(["p", ["x"]], ["t"], [], [0, 0]),
    lambda: LabeledPetriNet(PetriNet(["p"], ["t"], [], [0]), {"t": "a"}, [["a"]]),
    lambda: LabeledPetriNet(PetriNet(["p"], ["t"], [], [0]), {"t": "a", 1: "b", "u": "c"}),
], ids=["mixed-type duplicate places", "unhashable place", "unhashable high label",
        "mixed-type unknown transitions"])
def test_constructors_reject_non_string_identifiers(build):
    with pytest.raises(InvalidNetError):
        build()


@pytest.mark.parametrize("call", [
    lambda lpn: lpn.net.check_transition(["h1"]),
    lambda lpn: lpn.net.induced_subnet([["h1"]]),
    lambda lpn: lpn.net.induced_subnet([1, "x"]),
    lambda lpn: lpn.label_word([["h1"]]),
    lambda lpn: lpn.net.enabled(lpn.net.initial_marking, ["h1"]),
    lambda lpn: lpn.is_low({}),
], ids=["check_transition unhashable", "induced_subnet unhashable",
        "induced_subnet mixed-type unknown", "label_word unhashable", "enabled unhashable",
        "is_low unhashable"])
def test_transition_lookups_reject_non_string_names(secure, call):
    with pytest.raises(InvalidNetError):
        call(secure)


def test_unknown_transition_messages_name_the_strings(secure):
    with pytest.raises(InvalidNetError, match=r"^unknown transition 'zz'$"):
        secure.net.check_transition("zz")
    with pytest.raises(InvalidNetError,
                       match=r"^unknown transitions in subnet selection: \['x', 'y'\]$"):
        secure.net.induced_subnet(["y", "l1", "x"])


def test_net_accepts_arc_entries_as_tuples_or_lists():
    nets = [PetriNet(["p", "x"], ["t"], arcs, [1, 0])
            for arcs in ([("p", "t"), ("t", "x", 2)], [["p", "t"], ["t", "x", 2]],
                         {("p", "t"): 1, ("t", "x"): 2})]
    assert all(net.weight == {("p", "t"): 1, ("t", "x"): 2} for net in nets)


def test_labeling_validation(secure):
    net = secure.net
    with pytest.raises(InvalidNetError):
        LabeledPetriNet(net, {})  # not total
    labels = dict(secure.labeling)
    labels["l1"] = ""
    with pytest.raises(InvalidNetError):
        LabeledPetriNet(net, labels)
    with pytest.raises(InvalidNetError):
        LabeledPetriNet(net, secure.labeling, high_labels={"zz"})


def _items(net: PetriNet | LabeledPetriNet) -> dict:
    """Every attribute of ``net``, each dict as a list of its items in order."""
    return {name: list(table.items()) if isinstance(table, dict) else table
            for name, table in vars(net).items()}


def test_subnets_are_cut_from_the_validated_tables(monkeypatch):
    for name, lpn in demo_and_suite_nets():
        net = lpn.net
        validated = {}
        for keep in (lpn.low_transitions, lpn.high_transitions):
            arcs = [(s, d, w) for (s, d), w in net.weight.items() if s in keep or d in keep]
            validated[keep] = PetriNet(net.places, keep, arcs, net.initial_marking)
            assert _items(net.induced_subnet(keep)) == _items(validated[keep]), name
        low = lpn.low_subnet()
        low_validated = LabeledPetriNet(validated[lpn.low_transitions],
                                        {t: lpn.labeling[t] for t in lpn.low_transitions})
        low_items, validated_items = _items(low), _items(low_validated)
        assert _items(low_items.pop("net")) == _items(validated_items.pop("net")), name
        assert low_items == validated_items, name
    lpn = DEMOS["secure"]()
    nets = record_calls(monkeypatch, PetriNet, ("__init__",))
    labeled = record_calls(monkeypatch, LabeledPetriNet, ("__init__",))
    low = lpn.low_subnet()
    assert nets == labeled == []
    # The subnet's assumption report is its own.
    low.require_assumptions()
    assert lpn._assumption_report is None


def test_low_subnet_partition(secure):
    low = secure.low_subnet()
    assert low.high_transitions == ()
    assert set(low.net.transitions) == set(secure.low_transitions)
    assert low.alphabet == secure.low_labels
