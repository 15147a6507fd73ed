"""Core Petri-net and labeled-net semantics.

Markings and Parikh vectors are plain tuples of non-negative integers,
indexed by the declaration order of places and transitions.  Nets are not
changed after construction, and operations are pure functions of their
inputs.  The one memo is a labeled net's passing assumption report, written
only by :meth:`LabeledPetriNet.require_assumptions`; it answers only caps
that cover its marking count.

The strict-domination test that refutes boundedness is decided here once:
the full exploration and the basis graph's saturation
(:func:`~snnicheck.basis.build_brg`) both walk a node's discovery path
with :func:`_dominated_ancestor` and build their witness with
:func:`_domination_witness`.  Every full exploration goes through
:func:`explore_markings`, which refuses a cap that is not an ``int`` of at
least 1.
"""

from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
from operator import le
from typing import Iterable, Mapping, Sequence

Marking = tuple[int, ...]
ParikhVector = tuple[int, ...]
TransitionSequence = tuple[str, ...]
LabelWord = tuple[str, ...]

#: Default ceiling on the number of distinct markings explored when checking
#: boundedness.  Exceeding it yields an "unknown" verdict, never a wrong one.
DEFAULT_EXPLORATION_CAP = 100_000


class NetError(Exception):
    """Base class for errors raised by this package."""


class InvalidNetError(NetError):
    """A net, marking, or identifier violates a structural requirement."""


class FiringError(NetError):
    """A transition was fired while not enabled."""

    def __init__(self, message: str, transition: str, place: str | None = None,
                 index: int | None = None):
        super().__init__(message)
        self.transition = transition
        self.place = place
        self.index = index


class AssumptionError(NetError):
    """Boundedness or high-subnet acyclicity could not be established."""


def _refuse_bare_string(what: str, items) -> None:
    """A lone string where a collection of names belongs would split into characters."""
    if isinstance(items, str):
        raise InvalidNetError(f"{what} must be a collection of strings, not the string {items!r}")


def _require_count(what: str, value, least: int) -> None:
    """Refuse a count argument that is not an ``int`` of at least ``least``, 0 or 1.

    A ``bool`` is not an ``int`` here, nor is a ``float`` of integral value.
    """
    if type(value) is not int:
        raise InvalidNetError(f"{what} must be an int, got {value!r}")
    if value < least:
        raise InvalidNetError(f"{what} must be positive, got {value}" if least
                              else f"{what} must not be negative, got {value}")


def _check_identifiers(kind: str, ids: Sequence[str]) -> tuple[str, ...]:
    _refuse_bare_string(f"{kind} identifiers", ids)
    out = tuple(ids)
    for x in out:
        if not isinstance(x, str) or not x:
            raise InvalidNetError(f"{kind} identifier must be a non-empty string, got {x!r}")
    if len(set(out)) != len(out):
        dupes = sorted(x for x, n in Counter(out).items() if n > 1)
        raise InvalidNetError(f"duplicate {kind} identifiers: {dupes}")
    return out


def _arc_entry(a) -> Sequence:
    """``(source, target, weight)`` of an arc entry, a tuple or list; a pair has weight 1."""
    if isinstance(a, (tuple, list)):
        if len(a) == 3:
            return a
        if len(a) == 2:
            return (*a, 1)
    raise InvalidNetError(f"arc entry {a!r} must be a tuple (source, target[, weight])")


class PetriNet:
    """Place/transition net with weighted arcs and an initial marking.

    ``places`` and ``transitions`` keep declaration order; every marking and
    Parikh vector in this package is indexed by that order.  An arc exists
    exactly when its weight is positive; weights and token counts are ints,
    never bools.

    Enabling and firing read two sparse tables built once per transition:
    ``pre[t]`` holds the ``(place index, weight)`` pairs of its input arcs and
    ``delta[t]`` the ``(place index, change)`` pairs of the places whose token
    count it changes, both in place order.  Public methods validate the
    transition names they are given; code that has validated its names
    already reads the tables directly.
    """

    def __init__(self, places: Sequence[str], transitions: Sequence[str],
                 arcs: Mapping[tuple[str, str], int] | Iterable[tuple],
                 initial_marking: Sequence[int]):
        self.places = _check_identifiers("place", places)
        self.transitions = _check_identifiers("transition", transitions)
        overlap = set(self.places) & set(self.transitions)
        if overlap:
            raise InvalidNetError(f"identifiers used as both place and transition: {sorted(overlap)}")
        self._place_index = {p: i for i, p in enumerate(self.places)}
        self._transition_index = {t: i for i, t in enumerate(self.transitions)}

        if isinstance(arcs, Mapping):
            for key in arcs:
                if not isinstance(key, tuple) or len(key) != 2:
                    raise InvalidNetError(f"arc key {key!r} must be a tuple (source, target)")
            arc_items = [(s, d, w) for (s, d), w in arcs.items()]
        else:
            arc_items = [_arc_entry(a) for a in arcs]

        self.weight: dict[tuple[str, str], int] = {}
        for source, target, w in arc_items:
            if type(w) is not int or w <= 0:
                raise InvalidNetError(f"arc ({source}, {target}) must have a positive integer weight, got {w!r}")
            try:
                connects = (source in self._place_index and target in self._transition_index
                            or source in self._transition_index and target in self._place_index)
            except TypeError:  # an unhashable end
                connects = False
            if not connects:
                raise InvalidNetError(
                    f"arc ({source}, {target}) must connect a declared place and a declared transition")
            if (source, target) in self.weight:
                raise InvalidNetError(f"arc ({source}, {target}) declared twice")
            self.weight[(source, target)] = w

        self.initial_marking = self.check_marking(initial_marking)

        inputs: dict[str, list[tuple[int, int]]] = {t: [] for t in self.transitions}
        outputs: dict[str, list[tuple[int, int]]] = {t: [] for t in self.transitions}
        for (source, target), w in self.weight.items():
            if source in self._transition_index:
                outputs[source].append((self._place_index[target], w))
            else:
                inputs[target].append((self._place_index[source], w))
        self.pre, self.delta = _firing_tables(inputs, outputs)

    @classmethod
    def _from_tables(cls, places: tuple[str, ...], transitions: tuple[str, ...],
                     place_index: dict[str, int], transition_index: dict[str, int],
                     weight: dict[tuple[str, str], int], initial_marking: Marking,
                     pre: dict[str, tuple[tuple[int, int], ...]],
                     delta: dict[str, tuple[tuple[int, int], ...]]) -> PetriNet:
        """Trusted construction from tables that are checked and consistent.

        Its one caller is :func:`~snnicheck.netdoc.parse_net`, which has
        checked the document already; every other net, subnets included, is
        built by the constructor.  The caller guarantees what the
        constructor would check: distinct non-empty identifiers, no
        identifier both a place and a transition, each arc joining a
        declared place and transition once with a positive int weight, and
        a marking of non-negative ints.  The
        indexes follow declaration order, and ``pre`` and ``delta`` are the
        tables of :func:`_firing_tables`, keyed in transition order.
        """
        net = cls.__new__(cls)
        net.places = places
        net.transitions = transitions
        net._place_index = place_index
        net._transition_index = transition_index
        net.weight = weight
        net.initial_marking = initial_marking
        net.pre = pre
        net.delta = delta
        return net

    def check_marking(self, marking: Sequence[int]) -> Marking:
        m = tuple(marking)
        if len(m) != len(self.places):
            raise InvalidNetError(f"marking has {len(m)} entries, net has {len(self.places)} places")
        for p, v in zip(self.places, m):
            if type(v) is not int or v < 0:
                raise InvalidNetError(f"marking of place {p} must be a non-negative integer, got {v!r}")
        return m

    def check_transition(self, t: str) -> str:
        try:
            if t in self._transition_index:
                return t
        except TypeError:  # an unhashable name
            pass
        raise InvalidNetError(f"unknown transition {t!r}")

    def enabled(self, marking: Sequence[int], t: str) -> bool:
        """True iff every input place of ``t`` holds at least the arc weight."""
        return covers(marking, self.pre[self.check_transition(t)])

    def deficient_place(self, marking: Sequence[int], t: str) -> str | None:
        """First input place (in declaration order) blocking ``t``, if any."""
        for i, need in self.pre[self.check_transition(t)]:
            if marking[i] < need:
                return self.places[i]
        return None

    def fire(self, marking: Sequence[int], t: str) -> Marking:
        """Fire ``t`` at ``marking`` and return the successor marking."""
        blocking = self.deficient_place(marking, t)
        if blocking is not None:
            raise FiringError(f"transition {t} is not enabled: place {blocking} lacks tokens",
                              transition=t, place=blocking)
        return shift(marking, self.delta[t])

    def fire_sequence(self, marking: Sequence[int], sequence: Sequence[str]) -> Marking:
        """Left fold of :meth:`fire`; the empty sequence returns ``marking``."""
        _refuse_bare_string("a firing sequence", sequence)
        m = tuple(marking)
        for i, t in enumerate(sequence):
            blocking = self.deficient_place(m, t)
            if blocking is not None:
                raise FiringError(
                    f"step {i} of sequence is not enabled: transition {t} lacks tokens in place {blocking}",
                    transition=t, place=blocking, index=i)
            m = shift(m, self.delta[t])
        return m

    def induced_subnet(self, keep: Iterable[str]) -> PetriNet:
        """Subnet over the same places, keeping only the transitions in ``keep``.

        The selection is validated, and the subnet is built by the
        constructor from this net's places and initial marking, the kept
        transitions in declaration order and their arcs in this net's order.
        No operation builds a subnet; only the reference
        :func:`~snnicheck.reach.low_label_language` does.
        """
        _refuse_bare_string("a subnet selection", keep)
        try:
            keep_set = set(keep)
        except TypeError:  # an unhashable name
            raise InvalidNetError(f"unhashable transition in subnet selection: {keep!r}") from None
        unknown = keep_set - self._transition_index.keys()
        if unknown:
            raise InvalidNetError(
                f"unknown transitions in subnet selection: {sorted(unknown, key=str)}")
        return PetriNet(
            self.places, tuple(t for t in self.transitions if t in keep_set),
            {arc: w for arc, w in self.weight.items() if arc[0] in keep_set or arc[1] in keep_set},
            self.initial_marking)

    def __repr__(self) -> str:
        return (f"PetriNet(|P|={len(self.places)}, |T|={len(self.transitions)}, "
                f"arcs={len(self.weight)})")


def _firing_tables(inputs: Mapping[str, Sequence[tuple[int, int]]],
                  outputs: Mapping[str, Sequence[tuple[int, int]]]
                  ) -> tuple[dict[str, tuple[tuple[int, int], ...]],
                             dict[str, tuple[tuple[int, int], ...]]]:
    """``pre`` and ``delta`` from each transition's input and output arcs.

    ``inputs[t]`` and ``outputs[t]`` hold the ``(place index, weight)`` pairs
    of the arcs into and out of ``t``, one pair per place, keyed in
    transition order.  Sorting the pairs puts both tables in place order,
    and a table of fewer than two pairs is not sorted; ``delta`` drops the
    places whose token count ``t`` leaves unchanged.
    """
    pre = {}
    delta = {}
    for t, ins in inputs.items():
        change = dict(outputs[t])
        for i, w in ins:
            change[i] = change.get(i, 0) - w
        pre[t] = tuple(ins) if len(ins) < 2 else tuple(sorted(ins))
        moves = [(i, d) for i, d in change.items() if d]
        delta[t] = tuple(moves) if len(moves) < 2 else tuple(sorted(moves))
    return pre, delta


def covers(marking: Sequence[int], pre: Iterable[tuple[int, int]]) -> bool:
    """True iff ``marking`` holds every ``(place index, weight)`` demand of ``pre``."""
    for i, need in pre:
        if marking[i] < need:
            return False
    return True


def shift(marking: Sequence[int], delta: Iterable[tuple[int, int]]) -> Marking:
    """``marking`` plus the sparse ``(place index, change)`` pairs of ``delta``."""
    m = list(marking)
    for i, d in delta:
        m[i] += d
    return tuple(m)


def _marking_equation(lpn: LabeledPetriNet, m: Marking, counts: ParikhVector,
                      sequence: Sequence[str]) -> Marking:
    """``m`` plus ``counts[i]`` firings of high transition ``i`` and one of each in ``sequence``.

    Order is ignored and no enabling is checked, so the sum may be negative.
    """
    delta = lpn.net.delta
    new = list(m)
    for count, h in zip(counts, lpn.high_transitions):
        if count:
            for i, d in delta[h]:
                new[i] += count * d
    for t in sequence:
        for i, d in delta[t]:
            new[i] += d
    return tuple(new)


def parikh(sequence: Sequence[str], index_set: Sequence[str]) -> ParikhVector:
    """Occurrence counts of ``sequence`` over the ordered ``index_set``."""
    _refuse_bare_string("a sequence", sequence)
    _refuse_bare_string("an index set", index_set)
    order = {t: i for i, t in enumerate(index_set)}
    if len(order) != len(index_set):
        raise InvalidNetError("the index set repeats an item")
    counts = [0] * len(order)
    for item in sequence:
        if item not in order:
            raise InvalidNetError(f"sequence item {item!r} outside the index set")
        counts[order[item]] += 1
    return tuple(counts)


class LabeledPetriNet:
    """A Petri net whose transitions emit labels, split into low and high levels.

    Every transition carries exactly one non-empty label.  The label alphabet
    is partitioned by visibility: low labels are observable by everyone, high
    labels only by high-level users.  The transition partition follows the
    label partition.
    """

    def __init__(self, net: PetriNet, labeling: Mapping[str, str],
                 high_labels: Iterable[str] = ()):
        self.net = net
        missing = [t for t in net.transitions if t not in labeling]
        if missing:
            raise InvalidNetError(f"labeling must be total; unlabeled transitions: {missing}")
        extra = [t for t in labeling if t not in net._transition_index]
        if extra:
            raise InvalidNetError(f"labeling names unknown transitions: {sorted(extra, key=str)}")
        for t, a in labeling.items():
            if not isinstance(a, str) or not a:
                raise InvalidNetError(f"transition {t} must carry a non-empty label, got {a!r}")
        self.labeling = {t: labeling[t] for t in net.transitions}
        alphabet = frozenset(self.labeling.values())
        _refuse_bare_string("high labels", high_labels)
        high = tuple(high_labels)
        for a in high:
            if not isinstance(a, str):
                raise InvalidNetError(f"high label must be a string, got {a!r}")
        self.high_labels = frozenset(high)
        unknown = self.high_labels - alphabet
        if unknown:
            raise InvalidNetError(f"high labels not used by any transition: {sorted(unknown)}")
        self.low_labels = alphabet - self.high_labels
        self.low_transitions = tuple(t for t in net.transitions
                                     if self.labeling[t] in self.low_labels)
        self.high_transitions = tuple(t for t in net.transitions
                                      if self.labeling[t] in self.high_labels)
        self._assumption_report: AssumptionReport | None = None

    @classmethod
    def _from_tables(cls, net: PetriNet, labeling: dict[str, str], low_labels: frozenset[str],
                     high_labels: frozenset[str], low_transitions: tuple[str, ...],
                     high_transitions: tuple[str, ...]) -> LabeledPetriNet:
        """Trusted construction from a labeling and partition that are checked.

        Its one caller is :func:`~snnicheck.netdoc.parse_net`; the low subnet
        is built by the constructor.  The caller guarantees what the
        constructor would check and derive: ``labeling`` gives every
        transition of ``net`` a non-empty label, in transition order; the
        label sets are disjoint and together are the labels used; and the
        transition tuples list the transitions with a low and a high label,
        in declaration order.  The assumption report starts empty.
        """
        lpn = cls.__new__(cls)
        lpn.net = net
        lpn.labeling = labeling
        lpn.high_labels = high_labels
        lpn.low_labels = low_labels
        lpn.low_transitions = low_transitions
        lpn.high_transitions = high_transitions
        lpn._assumption_report = None
        return lpn

    def label(self, t: str) -> str:
        self.net.check_transition(t)
        return self.labeling[t]

    def label_word(self, sequence: Sequence[str]) -> LabelWord:
        """Word of label symbols emitted by firing ``sequence``."""
        _refuse_bare_string("a firing sequence", sequence)
        return tuple(self.labeling[self.net.check_transition(t)] for t in sequence)

    def is_low(self, t: str) -> bool:
        return self.labeling[self.net.check_transition(t)] in self.low_labels

    def low_subnet(self) -> LabeledPetriNet:
        """Low-transition-induced subnet with the restricted labeling.

        Built by the validating constructors: its labels are the low labels,
        it has no high labels, and its assumption report starts empty.
        """
        return LabeledPetriNet(self.net.induced_subnet(self.low_transitions),
                               {t: self.labeling[t] for t in self.low_transitions})

    def require_assumptions(self, cap: int = DEFAULT_EXPLORATION_CAP) -> AssumptionReport:
        """Raise :class:`AssumptionError` unless both standing checks pass.

        A passing report is cached.  It answers only caps that cover its
        marking count; a smaller cap is checked afresh, so the answer never
        depends on what was asked before.
        """
        _require_count("exploration cap", cap, 1)
        report = self._assumption_report
        if report is not None and report.reachable_count <= cap:
            return report
        report = check_assumptions(self, cap)
        if not report.ok:
            raise AssumptionError(report.describe_failure())
        self._assumption_report = report
        return report

    def __repr__(self) -> str:
        return (f"LabeledPetriNet({self.net!r}, low={len(self.low_transitions)}, "
                f"high={len(self.high_transitions)})")


def format_word(word: Sequence[str]) -> str:
    """Render a label word compactly; multi-character labels stay separated."""
    parts = tuple(word)
    if not parts:
        return "ε"
    if all(len(a) == 1 for a in parts):
        return "".join(parts)
    return " ".join(parts)


@dataclass(frozen=True)
class DominationWitness:
    """A firing path whose final marking strictly dominates an earlier one.

    Firing ``path`` from the initial marking passes, after ``pump_start``
    steps, through a marking that is componentwise <= the final marking and
    differs from it; repeating the pump segment grows tokens without bound.
    """

    path: TransitionSequence
    pump_start: int

    def describe(self) -> str:
        """The refusal text naming this witness."""
        return (f"net is unbounded: firing {' '.join(self.path)} strictly dominates the marking "
                f"reached after step {self.pump_start}")


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the two standing checks required by every construction.

    It keeps only the facts: the exact reachable-marking count of an
    exploration that finished, the cap, the witness that refutes
    boundedness and the high subnet's cycle.  ``bounded`` and
    ``high_subnet_acyclic`` are read off them.
    """

    reachable_count: int | None
    cap: int
    domination_witness: DominationWitness | None = None
    high_cycle: tuple[str, ...] | None = None

    @property
    def bounded(self) -> bool | None:
        """False with a witness, True with a count, None when the cap ran out first."""
        if self.domination_witness is not None:
            return False
        return None if self.reachable_count is None else True

    @property
    def high_subnet_acyclic(self) -> bool:
        return self.high_cycle is None

    @property
    def ok(self) -> bool:
        return self.bounded is True and self.high_subnet_acyclic

    def describe_failure(self) -> str:
        problems = []
        if self.bounded is False:
            problems.append(self.domination_witness.describe())
        elif self.bounded is None:
            problems.append(f"boundedness unknown: exploration cap of {self.cap} markings exhausted")
        if not self.high_subnet_acyclic:
            problems.append(
                f"high-transition-induced subnet has a cycle: {' -> '.join(self.high_cycle)}")
        return "; ".join(problems) if problems else "assumptions hold"


@dataclass(frozen=True)
class ExplorationResult:
    """Markings found by bounded exploration, in discovery order.

    A complete result also holds every firing the exploration computed, as
    three parallel tuples: arc ``k`` fires ``arc_transitions[k]`` at
    ``arc_sources[k]`` and reaches ``arc_targets[k]``.  Arcs are ordered by
    source in discovery order, then by transition in declaration order; both
    ends are the very objects held in ``markings``.  The arcs are kept as
    flat tuples rather than one tuple per arc: the same exploration checks
    the assumptions of every generated net, and a tuple per arc would be one
    more object for the garbage collector to track per firing.  An
    incomplete result, or one with a domination witness, carries empty arc
    tuples.
    """

    markings: tuple[Marking, ...]
    domination_witness: DominationWitness | None
    complete: bool
    arc_sources: tuple[Marking, ...] = ()
    arc_transitions: tuple[str, ...] = ()
    arc_targets: tuple[Marking, ...] = ()


def explore_markings(net: PetriNet, cap: int) -> ExplorationResult:
    """Breadth-first marking exploration that proves boundedness by finishing.

    Expands each distinct marking once (coverability-style tree with exact
    duplicates pruned).  Frontier exhaustion within ``cap`` markings proves
    boundedness with an exact reachable-marking count.  A successor that
    strictly dominates a marking on its own discovery path proves
    unboundedness by firing monotonicity; such a domination cannot occur on
    a bounded net, so a search that finishes has met none.  Exploration
    stops as soon as more than ``cap`` markings are known, so an incomplete
    result holds at most ``cap + 1`` of them.

    The first pass walks the discovery path only when a firing yields a new
    marking, which is enough to stop early on an unbounded net.  If it
    finishes, its result is returned: walking at every firing would have
    found nothing.  A search that does not finish (a witness, or more than
    ``cap`` markings) is returned as well when none of the walks it skipped
    could have met an ancestor with fewer tokens, as on a net whose firings
    never add tokens.  Only otherwise does it run again, walking at every
    firing, so the witness path, its pump start and the marking count at
    which it stops are those of the Karp-Miller test applied to every
    successor.

    Every firing is recorded as it is computed, so a complete result is the
    whole reachability graph and nothing needs to be fired again.  Repeated
    successors are interned: an arc's target is the marking object first
    discovered, and the duplicate just computed is dropped.

    ``cap`` must be an ``int`` of at least 1 (a ``bool`` or a ``float`` is
    refused with :class:`InvalidNetError`), as for every function that
    explores through this one.
    """
    _require_count("exploration cap", cap, 1)
    first, skipped_a_walk = _explore(net, cap, walk_every_firing=False)
    if first.complete or not skipped_a_walk:
        return first
    del first  # its markings need not stay alive through the second pass
    return _explore(net, cap, walk_every_firing=True)[0]


def _explore(net: PetriNet, cap: int,
             walk_every_firing: bool) -> tuple[ExplorationResult, bool]:
    """One breadth-first pass of :func:`explore_markings`.

    Nodes have the layout of :func:`_dominated_ancestor`, each holding the
    one-transition tuple interned for the transition fired to reach it.  The
    path walk runs at every firing when ``walk_every_firing`` is set,
    otherwise only at firings that yield a new marking.  The flag returned
    with the result says whether a skipped walk would have compared any
    ancestor at all.
    """
    root = net.initial_marking
    root_node = (root, None, (), sum(root), sum(root))
    seen: dict[Marking, Marking] = {root: root}
    order: list[Marking] = [root]
    sources: list[Marking] = []
    fired: list[str] = []
    targets: list[Marking] = []
    queue: deque = deque([root_node])
    moves = [(t, (t,), net.pre[t], net.delta[t], sum(d for _, d in net.delta[t]))
             for t in net.transitions]
    skipped_a_walk = False
    while queue:
        node = queue.popleft()
        marking, _, _, node_tokens, path_min = node
        for t, firing, pre, delta, gain in moves:
            for i, need in pre:  # covers(marking, pre), inlined
                if marking[i] < need:
                    break
            else:
                successor = shift(marking, delta)
                known = seen.get(successor)
                tokens = node_tokens + gain
                if path_min < tokens:
                    if known is None or walk_every_firing:
                        ancestor = _dominated_ancestor(node, successor, tokens)
                        if ancestor is not None:
                            witness = _domination_witness(node, ancestor, firing)
                            return (ExplorationResult(tuple(order), witness, complete=False),
                                    skipped_a_walk)
                    else:
                        skipped_a_walk = True
                sources.append(marking)
                fired.append(t)
                if known is not None:
                    targets.append(known)
                    continue
                targets.append(successor)
                seen[successor] = successor
                order.append(successor)
                if len(order) > cap:
                    return ExplorationResult(tuple(order), None, complete=False), skipped_a_walk
                queue.append((successor, node, firing, tokens, min(tokens, path_min)))
    return (ExplorationResult(tuple(order), None, True,
                              tuple(sources), tuple(fired), tuple(targets)),
            skipped_a_walk)


def _dominated_ancestor(node: tuple, successor: Marking, tokens: int) -> tuple | None:
    """The first node on ``node``'s discovery path whose marking ``successor`` strictly dominates.

    A discovery-path node is ``(marking, parent node or None, transitions
    fired from the parent to reach it, token count, fewest tokens on the
    path from the root to it)``; the root fired ``()``.  A strictly
    dominated marking holds strictly fewer tokens than ``successor``'s
    ``tokens``, so the walk compares only ancestors with fewer, and stops
    where no ancestor further up has fewer.  Found on a successor's own
    path, such an ancestor proves the net unbounded by firing monotonicity
    (Karp and Miller, 1969).
    """
    ancestor = node
    while ancestor is not None and ancestor[4] < tokens:
        if ancestor[3] < tokens and all(map(le, ancestor[0], successor)):
            return ancestor
        ancestor = ancestor[1]
    return None


def _domination_witness(node: tuple, ancestor: tuple,
                        firings: TransitionSequence) -> DominationWitness:
    """The firings from the root to ``node`` and on by ``firings``, as one witness.

    ``ancestor`` is the dominated node :func:`_dominated_ancestor` found on
    ``node``'s path; the pump starts where the path reaches it.
    """
    chain = []
    while node is not None:
        chain.append(node)
        node = node[1]
    path: list[str] = []
    pump_start = 0
    for step in reversed(chain):
        path.extend(step[2])
        if step is ancestor:
            pump_start = len(path)
    path.extend(firings)
    return DominationWitness(tuple(path), pump_start)


def _high_subnet_cycle(lpn: LabeledPetriNet) -> tuple[str, ...] | None:
    """Find a directed cycle in the bipartite graph of the high-induced subnet.

    A depth-first search follows the arcs from a place to the high
    transitions it feeds, in declaration order, and from a high transition
    to its output places, in place order.  Every cycle passes through a
    place that feeds a high transition, so only such places start a search,
    in declaration order, and only such places are entered; any other place
    is a dead end.  The cycle is returned with its first node repeated last.
    """
    net = lpn.net
    places = net.places
    feeds: dict[str, list[str]] = {}
    for h in lpn.high_transitions:
        for i, _ in net.pre[h]:
            feeds.setdefault(places[i], []).append(h)

    def outputs(h: str) -> list[str]:
        """The places ``h`` puts tokens into that feed a high transition, in place order."""
        out = dict(net.pre[h])
        for i, d in net.delta[h]:
            out[i] = out.get(i, 0) + d
        return [places[i] for i in sorted(out) if out[i] > 0 and places[i] in feeds]

    GRAY, BLACK = 1, 2
    color: dict[str, int] = {}
    for start in places:
        if start not in feeds or start in color:
            continue
        color[start] = GRAY
        path = [start]
        stack = [iter(feeds[start])]
        while stack:
            for nxt in stack[-1]:
                state = color.get(nxt)
                if state == GRAY:
                    return tuple(path[path.index(nxt):]) + (nxt,)
                if state is None:
                    color[nxt] = GRAY
                    path.append(nxt)
                    stack.append(iter(feeds[nxt] if nxt in feeds else outputs(nxt)))
                    break
            else:
                color[path.pop()] = BLACK
                stack.pop()
    return None


def check_assumptions(lpn: LabeledPetriNet, cap: int = DEFAULT_EXPLORATION_CAP) -> AssumptionReport:
    """Verify the two standing assumptions: boundedness and an acyclic high subnet.

    The high subnet is checked structurally.  Boundedness comes from
    :func:`explore_markings` on the full net: it is proved when the search
    finishes within ``cap`` markings, which also gives the exact reachable
    count; it is refuted by a strict-domination witness; and it is unknown
    when more than ``cap`` markings are found first.  The report records
    those facts and the cycle, if any; its flags are read off them.  The cap
    is checked by the exploration, the first to use it.
    """
    exploration = explore_markings(lpn.net, cap)
    return AssumptionReport(
        reachable_count=len(exploration.markings) if exploration.complete else None,
        domination_witness=exploration.domination_witness,
        high_cycle=_high_subnet_cycle(lpn), cap=cap)
