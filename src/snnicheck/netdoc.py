"""Net document format: JSON with an explicit schema version.

A document lists places with initial tokens, transitions with a label and a
visibility level ("low" or "high"), and weighted place/transition arcs.

:func:`parse_net` decodes the text, then checks the document and builds the
net in one direct pass.  The pass reads each place, transition and arc entry
once and applies every check that loading applies: exact key sets and
types, non-empty identifiers and labels, a level of low or high,
non-negative tokens, weights of at least 1, unique identifiers, no
identifier both a place and a transition, every arc joining a declared
place and a declared transition and declared once, and no label both low
and high.  It builds the arc weights, the firing tables, the labeling and
the low/high partition as it goes, and hands them to the trusted
constructors of :class:`PetriNet` and :class:`LabeledPetriNet`.

A document the direct pass refuses is checked again on the ordered path,
``NetDocument.from_object(data).to_lpn()``: each entry field by field in a
fixed order, then the identifiers and arc ends, the levels, and last the
validating ``PetriNet`` and ``LabeledPetriNet`` constructors.  It raises the
first fault it meets, so a refused document gets the same error type,
message and ``path`` whichever pass found the fault.  The direct pass only
decides whether that path runs.  The specs a :class:`NetDocument` holds are
named tuples: immutable, one tuple each.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Any, NamedTuple

from .petri import LabeledPetriNet, NetError, PetriNet, _firing_tables

SCHEMA_VERSION = "1"
_LEVELS = ("low", "high")


class NetDocumentError(NetError):
    """Malformed or inconsistent net document; ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class PlaceSpec(NamedTuple):
    id: str
    initial_tokens: int = 0


class TransitionSpec(NamedTuple):
    id: str
    label: str
    level: str


class ArcSpec(NamedTuple):
    source: str
    target: str
    weight: int = 1


@dataclass(frozen=True)
class NetDocument:
    schema_version: str
    places: tuple[PlaceSpec, ...]
    transitions: tuple[TransitionSpec, ...]
    arcs: tuple[ArcSpec, ...]

    def to_lpn(self) -> LabeledPetriNet:
        """Build the validated labeled net this document describes."""
        levels_by_label: dict[str, set[str]] = {}
        for i, t in enumerate(self.transitions):
            if t.level not in _LEVELS:
                raise _level_error(i, t.level)
            levels_by_label.setdefault(t.label, set()).add(t.level)
        for label, levels in sorted(levels_by_label.items()):
            if len(levels) > 1:
                raise NetDocumentError(
                    f"label {label!r} is declared both low and high; "
                    "the low and high alphabets must be disjoint", "transitions")
        net = PetriNet(places=[p.id for p in self.places],
                       transitions=[t.id for t in self.transitions],
                       arcs=self.arcs,
                       initial_marking=[p.initial_tokens for p in self.places])
        labeling = {t.id: t.label for t in self.transitions}
        high = {t.label for t in self.transitions if t.level == "high"}
        return LabeledPetriNet(net, labeling, high)

    @classmethod
    def from_lpn(cls, lpn: LabeledPetriNet) -> NetDocument:
        places = tuple(PlaceSpec(p, tok) for p, tok in zip(lpn.net.places, lpn.net.initial_marking))
        transitions = tuple(
            TransitionSpec(t, lpn.label(t), "low" if lpn.is_low(t) else "high")
            for t in lpn.net.transitions)
        arcs = tuple(ArcSpec(s, d, w) for (s, d), w in lpn.net.weight.items())
        return cls(SCHEMA_VERSION, places, transitions, arcs)

    def to_json(self) -> str:
        """Canonical rendering: fixed key order, two-space indent, final newline."""
        payload = {
            "schema_version": self.schema_version,
            "places": [{"id": p.id, "initial_tokens": p.initial_tokens} for p in self.places],
            "transitions": [{"id": t.id, "label": t.label, "level": t.level}
                            for t in self.transitions],
            "arcs": [{"from": a.source, "to": a.target, "weight": a.weight} for a in self.arcs],
        }
        return json.dumps(payload, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str | bytes) -> NetDocument:
        return cls.from_object(_decode(text))

    @classmethod
    def from_object(cls, data: Any) -> NetDocument:
        if not isinstance(data, dict):
            raise NetDocumentError("document root must be an object")
        known = {"schema_version", "places", "transitions", "arcs"}
        unknown = set(data) - known
        if unknown:
            raise NetDocumentError(f"unknown fields: {sorted(unknown)}")
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise NetDocumentError(f"expected {SCHEMA_VERSION!r}, got {version!r}", "schema_version")
        places = tuple(_place_by_fields(i, entry)
                       for i, entry in enumerate(_array(data, "places")))
        transitions = tuple(_transition_by_fields(i, entry)
                            for i, entry in enumerate(_array(data, "transitions")))
        arcs = tuple(_arc_by_fields(i, entry) for i, entry in enumerate(_array(data, "arcs")))
        doc = cls(SCHEMA_VERSION, places, transitions, arcs)
        _check_arc_endpoints(doc)
        return doc


def _array(data: dict, key: str) -> list:
    value = data.get(key)
    if not isinstance(value, list):
        raise NetDocumentError("must be an array", key)
    return value


def _fields(path: str, entry: Any, required: dict[str, type], optional: dict[str, Any]) -> dict:
    if not isinstance(entry, dict):
        raise NetDocumentError("must be an object", path)
    unknown = set(entry) - set(required) - set(optional)
    if unknown:
        raise NetDocumentError(f"unknown fields: {sorted(unknown)}", path)
    out = {}
    for name, kind in required.items():
        if name not in entry:
            raise NetDocumentError(f"missing field {name!r}", path)
        value = entry[name]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise NetDocumentError(f"must be of type {kind.__name__}", f"{path}.{name}")
        out[name] = value
    for name, default in optional.items():
        value = entry.get(name, default)
        if not isinstance(value, type(default)) or isinstance(value, bool):
            raise NetDocumentError(f"must be of type {type(default).__name__}", f"{path}.{name}")
        out[name] = value
    return out


def _place_by_fields(i: int, entry: Any) -> PlaceSpec:
    f = _fields(f"places[{i}]", entry, {"id": str}, {"initial_tokens": 0})
    if f["initial_tokens"] < 0:
        raise NetDocumentError("must be non-negative", f"places[{i}].initial_tokens")
    return PlaceSpec(f["id"], f["initial_tokens"])


def _transition_by_fields(i: int, entry: Any) -> TransitionSpec:
    f = _fields(f"transitions[{i}]", entry, {"id": str, "label": str, "level": str}, {})
    if f["level"] not in _LEVELS:
        raise _level_error(i, f["level"])
    if not f["label"]:
        raise NetDocumentError("must be a non-empty label", f"transitions[{i}].label")
    return TransitionSpec(f["id"], f["label"], f["level"])


def _level_error(i: int, level: Any) -> NetDocumentError:
    return NetDocumentError(f"must be one of {_LEVELS}, got {level!r}", f"transitions[{i}].level")


def _arc_by_fields(i: int, entry: Any) -> ArcSpec:
    f = _fields(f"arcs[{i}]", entry, {"from": str, "to": str}, {"weight": 1})
    if f["weight"] < 1:
        raise NetDocumentError("must be at least 1", f"arcs[{i}].weight")
    return ArcSpec(f["from"], f["to"], f["weight"])


def _check_arc_endpoints(doc: NetDocument) -> None:
    place_ids = {p.id for p in doc.places}
    transition_ids = {t.id for t in doc.transitions}
    for key, declared in (("places", doc.places), ("transitions", doc.transitions)):
        ids = [e.id for e in declared]
        if len(set(ids)) != len(ids):
            dupes = sorted(x for x, n in Counter(ids).items() if n > 1)
            raise NetDocumentError(f"duplicate identifiers: {dupes}", key)
    for i, a in enumerate(doc.arcs):
        for end, name in ((a.source, "from"), (a.target, "to")):
            if end not in place_ids and end not in transition_ids:
                raise NetDocumentError(f"undeclared identifier {end!r}", f"arcs[{i}].{name}")
        if (a.source in place_ids) == (a.target in place_ids):
            kind = "places" if a.source in place_ids else "transitions"
            raise NetDocumentError(f"connects two {kind}; arcs must join a place "
                                   "and a transition", f"arcs[{i}]")


def _decode(text: str | bytes) -> Any:
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetDocumentError(f"document is not valid UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetDocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise NetDocumentError("invalid JSON: nesting too deep") from None


def _direct_net(data: Any) -> LabeledPetriNet | None:
    """The net a decoded document describes, or ``None`` if it has any fault.

    A key count together with the required keys' types pins each key set:
    an entry of the right length whose required keys are present has no
    other key.  A repeated place identifier or a repeated arc shows as a
    table shorter than its array.
    """
    if type(data) is not dict or len(data) != 4 or data.get("schema_version") != SCHEMA_VERSION:
        return None
    places, transitions, arcs = data.get("places"), data.get("transitions"), data.get("arcs")
    if type(places) is not list or type(transitions) is not list or type(arcs) is not list:
        return None

    place_index: dict[str, int] = {}
    marking = []
    for entry in places:
        if type(entry) is not dict:
            return None
        place = entry.get("id")
        tokens = entry.get("initial_tokens", 0)
        if (type(place) is not str or not place or type(tokens) is not int or tokens < 0
                or len(entry) != 1 + ("initial_tokens" in entry)):
            return None
        place_index[place] = len(marking)
        marking.append(tokens)
    if len(place_index) != len(places):
        return None

    transition_index: dict[str, int] = {}
    labeling: dict[str, str] = {}
    level_of_label: dict[str, str] = {}
    low, high = [], []
    for entry in transitions:
        if type(entry) is not dict or len(entry) != 3:
            return None
        transition = entry.get("id")
        label = entry.get("label")
        level = entry.get("level")
        if (type(transition) is not str or not transition or transition in place_index
                or transition in labeling or type(label) is not str or not label
                or level not in _LEVELS or level_of_label.setdefault(label, level) != level):
            return None
        (low if level == "low" else high).append(transition)
        transition_index[transition] = len(labeling)
        labeling[transition] = label

    weight: dict[tuple[str, str], int] = {}
    inputs: dict[str, list[tuple[int, int]]] = {t: [] for t in labeling}
    outputs: dict[str, list[tuple[int, int]]] = {t: [] for t in labeling}
    for entry in arcs:
        if type(entry) is not dict:
            return None
        source = entry.get("from")
        target = entry.get("to")
        w = entry.get("weight", 1)
        if (type(source) is not str or type(target) is not str or type(w) is not int or w < 1
                or len(entry) != 2 + ("weight" in entry)):
            return None
        if source in place_index and target in inputs:
            inputs[target].append((place_index[source], w))
        elif target in place_index and source in outputs:
            outputs[source].append((place_index[target], w))
        else:
            return None
        weight[source, target] = w
    if len(weight) != len(arcs):
        return None

    pre, delta = _firing_tables(inputs, outputs)
    net = PetriNet._from_tables(tuple(place_index), tuple(labeling), place_index,
                                transition_index, weight, tuple(marking), pre, delta)
    low_labels = frozenset(label for label, level in level_of_label.items() if level == "low")
    return LabeledPetriNet._from_tables(net, labeling, low_labels,
                                        frozenset(level_of_label) - low_labels,
                                        tuple(low), tuple(high))


def parse_net(document: str | bytes) -> LabeledPetriNet:
    """Parse and fully validate a net document."""
    data = _decode(document)
    lpn = _direct_net(data)
    if lpn is None:
        # Checked again in order, to raise the first fault with its path.
        lpn = NetDocument.from_object(data).to_lpn()
    return lpn


def serialize_net(lpn: LabeledPetriNet) -> str:
    """Canonical document text for a labeled net."""
    return NetDocument.from_lpn(lpn).to_json()
