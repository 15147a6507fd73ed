"""Net document format: JSON with an explicit schema version.

A document lists places with initial tokens, transitions with a label and a
visibility level ("low" or "high"), and weighted place/transition arcs.

:func:`parse_net` decodes the text, then checks the document and builds the
net in one pass that reads the root and each place, transition and arc entry
once, in document order.  A fault inside an entry (its key set, a type, a
level other than low or high, negative tokens, a weight below 1, an empty
label) is raised where it is met, as a :class:`NetDocumentError` whose
``path`` names the field.  Faults between entries are only noted; once every
entry has passed, the first of them is raised in a fixed order: repeated
place identifiers, then repeated transition identifiers; arc ends, in arc
order; the least label declared both low and high; and last whatever the
validating :class:`PetriNet` constructor raises for an empty identifier, one
that names both a place and a transition, or a repeated arc.  A document
without faults never reaches the validating constructors: the pass builds
the arc weights, the firing tables, the labeling and the low/high partition
as it goes, and hands them to the trusted constructors of
:class:`PetriNet` and :class:`LabeledPetriNet`.

:func:`serialize_net` writes a net's canonical document straight from the
net.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from typing import Any

from .petri import LabeledPetriNet, NetError, PetriNet, _firing_tables

SCHEMA_VERSION = "1"
_LEVELS = ("low", "high")
_ROOT_FIELDS = frozenset({"schema_version", "places", "transitions", "arcs"})


class NetDocumentError(NetError):
    """Malformed or inconsistent net document; ``path`` names the offending field."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


def _array(data: dict, key: str) -> list:
    value = data.get(key)
    if type(value) is not list:
        raise NetDocumentError("must be an array", key)
    return value


def _fields(path: str, entry: Any, required: dict[str, type], optional: dict[str, Any]) -> None:
    """Raise the first key-set or type fault of ``entry``, if it has one."""
    if not isinstance(entry, dict):
        raise NetDocumentError("must be an object", path)
    unknown = set(entry) - set(required) - set(optional)
    if unknown:
        raise NetDocumentError(f"unknown fields: {sorted(unknown)}", path)
    for name, kind in required.items():
        if name not in entry:
            raise NetDocumentError(f"missing field {name!r}", path)
        value = entry[name]
        if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
            raise NetDocumentError(f"must be of type {kind.__name__}", f"{path}.{name}")
    for name, default in optional.items():
        value = entry.get(name, default)
        if not isinstance(value, type(default)) or isinstance(value, bool):
            raise NetDocumentError(f"must be of type {type(default).__name__}", f"{path}.{name}")


def _duplicates(key: str, entries: list) -> NetDocumentError:
    dupes = sorted(x for x, n in Counter(e["id"] for e in entries).items() if n > 1)
    return NetDocumentError(f"duplicate identifiers: {dupes}", key)


def _arc_end_fault(i: int, source: str, target: str, places: dict, transitions: dict
                   ) -> NetDocumentError:
    for end, name in ((source, "from"), (target, "to")):
        if end not in places and end not in transitions:
            return NetDocumentError(f"undeclared identifier {end!r}", f"arcs[{i}].{name}")
    kind = "places" if source in places else "transitions"
    return NetDocumentError(f"connects two {kind}; arcs must join a place and a transition",
                            f"arcs[{i}]")


def _decode(text: str | bytes | bytearray) -> Any:
    if isinstance(text, (bytes, bytearray)):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NetDocumentError(f"document is not valid UTF-8: {exc}") from exc
    elif not isinstance(text, str):
        raise NetDocumentError("document must be str, bytes or bytearray, "
                               f"got {type(text).__name__}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetDocumentError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError:  # an integer longer than the interpreter converts
        raise NetDocumentError("invalid JSON: an integer has more than "
                               f"{sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise NetDocumentError("invalid JSON: nesting too deep") from None


def _load(data: Any) -> LabeledPetriNet:
    """The net a decoded document describes, checked and built in one pass.

    Each entry's quick test reads its fields once; only an entry that fails
    it is checked again by :func:`_fields` and the range tests, to word the
    fault.  A key count together with the required keys' types pins each key
    set: an entry of the right length whose required keys are present has no
    other key.  A repeated identifier or a repeated arc shows as a table
    shorter than its array.
    """
    if type(data) is not dict:
        raise NetDocumentError("document root must be an object")
    if not data.keys() <= _ROOT_FIELDS:
        raise NetDocumentError(f"unknown fields: {sorted(data.keys() - _ROOT_FIELDS)}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise NetDocumentError(f"expected {SCHEMA_VERSION!r}, got {version!r}", "schema_version")

    places = _array(data, "places")
    place_index: dict[str, int] = {}
    marking = []
    for i, entry in enumerate(places):
        if (type(entry) is not dict or len(entry) != 1 + ("initial_tokens" in entry)
                or type(place := entry.get("id")) is not str
                or type(tokens := entry.get("initial_tokens", 0)) is not int or tokens < 0):
            _fields(f"places[{i}]", entry, {"id": str}, {"initial_tokens": 0})
            raise NetDocumentError("must be non-negative", f"places[{i}].initial_tokens")
        place_index[place] = len(marking)
        marking.append(tokens)

    transitions = _array(data, "transitions")
    transition_index: dict[str, int] = {}
    labeling: dict[str, str] = {}
    level_of_label: dict[str, str] = {}
    both_levels = set()
    low, high = [], []
    for i, entry in enumerate(transitions):
        if (type(entry) is not dict or len(entry) != 3
                or type(transition := entry.get("id")) is not str
                or type(label := entry.get("label")) is not str or not label
                or (level := entry.get("level")) not in _LEVELS):
            path = f"transitions[{i}]"
            _fields(path, entry, {"id": str, "label": str, "level": str}, {})
            if entry["level"] not in _LEVELS:
                raise NetDocumentError(f"must be one of {_LEVELS}, got {entry['level']!r}",
                                       f"{path}.level")
            raise NetDocumentError("must be a non-empty label", f"{path}.label")
        if level_of_label.setdefault(label, level) != level:
            both_levels.add(label)
        (low if level == "low" else high).append(transition)
        transition_index[transition] = len(labeling)
        labeling[transition] = label

    arcs = _array(data, "arcs")
    weight: dict[tuple[str, str], int] = {}
    # An identifier that names both a place and a transition gets no arc
    # table, so an arc end with that name counts as a place only.
    shared = place_index.keys() & labeling.keys()
    inputs: dict[str, list[tuple[int, int]]] = {t: [] for t in labeling if t not in shared}
    outputs: dict[str, list[tuple[int, int]]] = {t: [] for t in inputs}
    arc_fault = None
    for i, entry in enumerate(arcs):
        if (type(entry) is not dict or len(entry) != 2 + ("weight" in entry)
                or type(source := entry.get("from")) is not str
                or type(target := entry.get("to")) is not str
                or type(w := entry.get("weight", 1)) is not int or w < 1):
            _fields(f"arcs[{i}]", entry, {"from": str, "to": str}, {"weight": 1})
            raise NetDocumentError("must be at least 1", f"arcs[{i}].weight")
        if source in place_index and target in inputs:
            inputs[target].append((place_index[source], w))
        elif target in place_index and source in outputs:
            outputs[source].append((place_index[target], w))
        elif arc_fault is None:
            arc_fault = _arc_end_fault(i, source, target, place_index, labeling)
        weight[source, target] = w

    if len(place_index) != len(places):
        raise _duplicates("places", places)
    if len(labeling) != len(transitions):
        raise _duplicates("transitions", transitions)
    if arc_fault is not None:
        raise arc_fault
    if both_levels:
        raise NetDocumentError(f"label {min(both_levels)!r} is declared both low and high; "
                               "the low and high alphabets must be disjoint", "transitions")
    low_labels = frozenset(label for label, level in level_of_label.items() if level == "low")
    high_labels = frozenset(level_of_label) - low_labels
    if shared or "" in place_index or "" in labeling or len(weight) != len(arcs):
        # An identifier that is empty or names both a place and a transition,
        # or a repeated arc: the validating constructor words the fault.
        net = PetriNet(list(place_index), list(labeling),
                       [(a["from"], a["to"], a.get("weight", 1)) for a in arcs], marking)
        return LabeledPetriNet(net, labeling, high_labels)

    pre, delta = _firing_tables(inputs, outputs)
    net = PetriNet._from_tables(tuple(place_index), tuple(labeling), place_index,
                                transition_index, weight, tuple(marking), pre, delta)
    return LabeledPetriNet._from_tables(net, labeling, low_labels, high_labels,
                                        tuple(low), tuple(high))


def parse_net(document: str | bytes | bytearray) -> LabeledPetriNet:
    """Parse and fully validate a net document.

    Bytes, and a ``bytearray`` alike, must be UTF-8; a document of any other
    type than text or bytes is refused as a :class:`NetDocumentError`.
    """
    return _load(_decode(document))


def serialize_net(lpn: LabeledPetriNet) -> str:
    """Canonical document text: fixed key order, two-space indent, final newline."""
    net = lpn.net
    payload = {
        "schema_version": SCHEMA_VERSION,
        "places": [{"id": p, "initial_tokens": tokens}
                   for p, tokens in zip(net.places, net.initial_marking)],
        "transitions": [{"id": t, "label": lpn.labeling[t],
                         "level": "low" if lpn.labeling[t] in lpn.low_labels else "high"}
                        for t in net.transitions],
        "arcs": [{"from": s, "to": d, "weight": w} for (s, d), w in net.weight.items()],
    }
    return json.dumps(payload, indent=2) + "\n"
