from __future__ import annotations

import copy
import hashlib
import json
import random
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from snnicheck.fixtures import DEMOS, demo_secure, fixture_document
from snnicheck.netdoc import NetDocumentError, parse_net, serialize_net
from snnicheck.petri import InvalidNetError, LabeledPetriNet, NetError, PetriNet
from snnicheck.randnets import random_lpn

from conftest import demo_and_suite_nets


def test_parse_fixture_document():
    lpn = parse_net(fixture_document("secure"))
    assert len(lpn.net.places) == 9
    assert len(lpn.net.transitions) == 11
    assert set(lpn.high_transitions) == {"h1", "h2"}
    assert lpn.high_labels == {"f", "g"}
    assert lpn.net.initial_marking == (1, 0, 0, 0, 0, 0, 0, 0, 0)


def test_parse_accepts_bytes():
    lpn = parse_net(fixture_document("secure").encode())
    assert len(lpn.net.transitions) == 11


def test_a_bytearray_is_decoded_as_bytes():
    text = fixture_document("secure")
    assert serialize_net(parse_net(bytearray(text.encode()))) == text
    for data in (b"\xff", text.encode("utf-16")):
        with pytest.raises(NetDocumentError) as as_bytes:
            parse_net(data)
        with pytest.raises(NetDocumentError) as as_bytearray:
            parse_net(bytearray(data))
        assert str(as_bytearray.value) == str(as_bytes.value)
        assert str(as_bytes.value).startswith("document is not valid UTF-8: ")


@pytest.mark.parametrize("document", [None, {"schema_version": "1"}, 1, ["{}"]])
def test_a_document_that_is_not_text_or_bytes_is_refused(document):
    with pytest.raises(NetDocumentError) as refused:
        parse_net(document)
    assert str(refused.value) == ("document must be str, bytes or bytearray, "
                                  f"got {type(document).__name__}")


def test_roundtrip_is_identity():
    for name in DEMOS:
        text = fixture_document(name)
        assert serialize_net(parse_net(text)) == text, name
    with pytest.raises(KeyError, match=r"unknown demo net 'nope'; available: \['cyclic-high', "):
        fixture_document("nope")


def test_roundtrip_through_lpn():
    lpn = demo_secure()
    again = parse_net(serialize_net(lpn))
    assert again.net.places == lpn.net.places
    assert again.net.transitions == lpn.net.transitions
    assert again.net.weight == lpn.net.weight
    assert again.labeling == lpn.labeling
    assert again.high_labels == lpn.high_labels


def _doc(**overrides):
    base = {
        "schema_version": "1",
        "places": [{"id": "p1", "initial_tokens": 1}, {"id": "p2"}],
        "transitions": [{"id": "t1", "label": "a", "level": "low"},
                        {"id": "t2", "label": "f", "level": "high"}],
        "arcs": [{"from": "p1", "to": "t1"}, {"from": "t1", "to": "p2"},
                 {"from": "p2", "to": "t2"}],
    }
    base.update(overrides)
    return json.dumps(base)


def test_weight_defaults_to_one():
    lpn = parse_net(_doc())
    assert lpn.net.weight[("p1", "t1")] == 1


def test_label_on_both_levels_rejected():
    bad = _doc(transitions=[{"id": "t1", "label": "a", "level": "low"},
                            {"id": "t2", "label": "a", "level": "high"}])
    with pytest.raises(NetDocumentError, match="both low and high"):
        parse_net(bad)


def test_place_to_place_arc_rejected():
    bad = _doc(arcs=[{"from": "p1", "to": "p2"}])
    with pytest.raises(NetDocumentError, match="arcs must join"):
        parse_net(bad)


def test_undeclared_arc_endpoint_rejected():
    bad = _doc(arcs=[{"from": "p1", "to": "t9"}])
    with pytest.raises(NetDocumentError, match="arcs\\[0\\]"):
        parse_net(bad)


def test_bad_schema_version():
    with pytest.raises(NetDocumentError, match="schema_version"):
        parse_net(_doc(schema_version="7"))


def test_bad_level_value():
    bad = _doc(transitions=[{"id": "t1", "label": "a", "level": "medium"}])
    with pytest.raises(NetDocumentError, match="level"):
        parse_net(bad)


def test_missing_field_diagnostics():
    bad = _doc(transitions=[{"id": "t1", "level": "low"}])
    with pytest.raises(NetDocumentError, match="transitions\\[0\\]"):
        parse_net(bad)


def test_unknown_field_rejected():
    bad = _doc(places=[{"id": "p1", "tokens": 1}, {"id": "p2"}])
    with pytest.raises(NetDocumentError, match="unknown fields"):
        parse_net(bad)


def test_negative_tokens_rejected():
    bad = _doc(places=[{"id": "p1", "initial_tokens": -1}, {"id": "p2"}])
    with pytest.raises(NetDocumentError, match="non-negative"):
        parse_net(bad)


def test_invalid_json_reports_position():
    with pytest.raises(NetDocumentError, match="line 1"):
        parse_net("{not json")


def test_duplicate_ids_rejected_at_load():
    bad = _doc(places=[{"id": "p1"}, {"id": "p1"}])
    with pytest.raises(NetDocumentError, match="duplicate"):
        parse_net(bad)
    bad = _doc(transitions=[{"id": "t1", "label": "a", "level": "low"},
                            {"id": "t1", "label": "b", "level": "low"}])
    with pytest.raises(NetDocumentError, match="duplicate"):
        parse_net(bad)


def test_a_repeated_id_among_many_is_refused_in_linear_time():
    # 20,000 places and one repeat: naming the repeats by counting every id
    # once per id took 7.2 s; the diagnostic is the same either way.
    places = [f"p{i}" for i in range(1, 20_001)] + ["p7"]
    document = _doc(places=[{"id": p} for p in places])
    started = time.perf_counter()
    with pytest.raises(NetDocumentError) as refused:
        parse_net(document)
    with pytest.raises(InvalidNetError) as refused_net:
        PetriNet(places, ["t1"], [], [0] * len(places))
    assert time.perf_counter() - started < 2.0
    assert str(refused.value) == "places: duplicate identifiers: ['p7']"
    assert str(refused_net.value) == "duplicate place identifiers: ['p7']"


def test_zero_weight_rejected():
    bad = _doc(arcs=[{"from": "p1", "to": "t1", "weight": 0}])
    with pytest.raises(NetDocumentError, match="at least 1"):
        parse_net(bad)


_T1 = {"id": "t1", "label": "a", "level": "low"}
#: The interpreter's limit on the digits of an integer it converts, if it has one.
_MAX_DIGITS = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else None
#: A document whose token count has one digit more than that limit.
_LONG_INTEGER = _doc(places=[{"id": "p1", "initial_tokens": 0}]).replace(
    '"initial_tokens": 0', '"initial_tokens": 1' + "0" * _MAX_DIGITS) if _MAX_DIGITS else None

#: One row per diagnostic: (case, document text or bytes, full message, path).
#: Each document holds one fault, or several where the row pins which of them
#: is reported first.
_DIAGNOSTICS = [
    ("root not an object", "[]", "document root must be an object", ""),
    ("unknown root field", _doc(extra=1), "unknown fields: ['extra']", ""),
    ("bad schema version", _doc(schema_version="7"),
     "schema_version: expected '1', got '7'", "schema_version"),
    ("schema version not a string", _doc(schema_version=1),
     "schema_version: expected '1', got 1", "schema_version"),
    ("missing schema version", json.dumps({"places": [], "transitions": [], "arcs": []}),
     "schema_version: expected '1', got None", "schema_version"),
    ("missing array", json.dumps({"schema_version": "1", "places": [], "arcs": []}),
     "transitions: must be an array", "transitions"),
    ("array not a list", _doc(places={"id": "p1"}), "places: must be an array", "places"),
    ("array checked after the entries before it",
     _doc(places=[3], transitions=None), "places[0]: must be an object", "places[0]"),
    ("place not an object", _doc(places=[{"id": "p1"}, 3]),
     "places[1]: must be an object", "places[1]"),
    ("transition is a list", _doc(transitions=[["t1", "a", "low"]]),
     "transitions[0]: must be an object", "transitions[0]"),
    ("arc is null", _doc(arcs=[None]), "arcs[0]: must be an object", "arcs[0]"),
    ("unknown place field", _doc(places=[{"id": "p1", "tokens": 1}, {"id": "p2"}]),
     "places[0]: unknown fields: ['tokens']", "places[0]"),
    ("unknown fields are sorted and come before missing ones",
     _doc(arcs=[{"to": "t1", "z": 1, "b": 2}]),
     "arcs[0]: unknown fields: ['b', 'z']", "arcs[0]"),
    ("missing place id", _doc(places=[{"initial_tokens": 1}]),
     "places[0]: missing field 'id'", "places[0]"),
    ("missing transition label", _doc(transitions=[{"id": "t1", "level": "low"}]),
     "transitions[0]: missing field 'label'", "transitions[0]"),
    ("missing fields in declaration order", _doc(transitions=[{"label": "a"}]),
     "transitions[0]: missing field 'id'", "transitions[0]"),
    ("missing arc end", _doc(arcs=[{"from": "p1"}]), "arcs[0]: missing field 'to'", "arcs[0]"),
    ("id not a string", _doc(places=[{"id": 1}]),
     "places[0].id: must be of type str", "places[0].id"),
    ("label is null", _doc(transitions=[{"id": "t1", "label": None, "level": "low"}]),
     "transitions[0].label: must be of type str", "transitions[0].label"),
    ("level not a string", _doc(transitions=[{"id": "t1", "label": "a", "level": 0}]),
     "transitions[0].level: must be of type str", "transitions[0].level"),
    ("arc end not a string", _doc(arcs=[{"from": "p1", "to": ["t1"]}]),
     "arcs[0].to: must be of type str", "arcs[0].to"),
    ("true for tokens", _doc(places=[{"id": "p1", "initial_tokens": True}]),
     "places[0].initial_tokens: must be of type int", "places[0].initial_tokens"),
    ("float for tokens", _doc(places=[{"id": "p1", "initial_tokens": 1.0}]),
     "places[0].initial_tokens: must be of type int", "places[0].initial_tokens"),
    ("null for tokens", _doc(places=[{"id": "p1", "initial_tokens": None}]),
     "places[0].initial_tokens: must be of type int", "places[0].initial_tokens"),
    ("true for a weight", _doc(arcs=[{"from": "p1", "to": "t1", "weight": True}]),
     "arcs[0].weight: must be of type int", "arcs[0].weight"),
    ("string for a weight", _doc(arcs=[{"from": "p1", "to": "t1", "weight": "2"}]),
     "arcs[0].weight: must be of type int", "arcs[0].weight"),
    ("a type error before a value error",
     _doc(places=[{"id": 7, "initial_tokens": -1}]),
     "places[0].id: must be of type str", "places[0].id"),
    ("negative tokens", _doc(places=[{"id": "p1", "initial_tokens": -1}, {"id": "p2"}]),
     "places[0].initial_tokens: must be non-negative", "places[0].initial_tokens"),
    ("bad level", _doc(transitions=[{"id": "t1", "label": "a", "level": "medium"}]),
     "transitions[0].level: must be one of ('low', 'high'), got 'medium'",
     "transitions[0].level"),
    ("level checked before label", _doc(transitions=[{"id": "t1", "label": "", "level": "Low"}]),
     "transitions[0].level: must be one of ('low', 'high'), got 'Low'", "transitions[0].level"),
    ("empty label", _doc(transitions=[_T1, {"id": "t2", "label": "", "level": "high"}]),
     "transitions[1].label: must be a non-empty label", "transitions[1].label"),
    ("weight 0", _doc(arcs=[{"from": "p1", "to": "t1", "weight": 0}]),
     "arcs[0].weight: must be at least 1", "arcs[0].weight"),
    ("negative weight", _doc(arcs=[{"from": "p1", "to": "t1"}, {"from": "t1", "to": "p2",
                                                                   "weight": -2}]),
     "arcs[1].weight: must be at least 1", "arcs[1].weight"),
    ("entries checked before identifiers",
     _doc(places=[{"id": "p1"}, {"id": "p1"}], arcs=[{"from": "p1", "to": "t1", "weight": 0}]),
     "arcs[0].weight: must be at least 1", "arcs[0].weight"),
    ("duplicate place ids", _doc(places=[{"id": "p2"}, {"id": "p1"}, {"id": "p2"},
                                         {"id": "p1"}]),
     "places: duplicate identifiers: ['p1', 'p2']", "places"),
    ("duplicate transition ids", _doc(transitions=[_T1, {"id": "t1", "label": "b",
                                                         "level": "low"}]),
     "transitions: duplicate identifiers: ['t1']", "transitions"),
    ("undeclared arc target", _doc(arcs=[{"from": "p1", "to": "t9"}]),
     "arcs[0].to: undeclared identifier 't9'", "arcs[0].to"),
    ("undeclared arc source", _doc(arcs=[{"from": "t1", "to": "p2"}, {"from": "q", "to": "t1"}]),
     "arcs[1].from: undeclared identifier 'q'", "arcs[1].from"),
    ("place to place arc", _doc(arcs=[{"from": "p1", "to": "p2"}]),
     "arcs[0]: connects two places; arcs must join a place and a transition", "arcs[0]"),
    ("transition to transition arc", _doc(arcs=[{"from": "t1", "to": "t2"}]),
     "arcs[0]: connects two transitions; arcs must join a place and a transition", "arcs[0]"),
    ("label on both levels", _doc(transitions=[{"id": "t1", "label": "b", "level": "high"},
                                               {"id": "t2", "label": "b", "level": "low"},
                                               {"id": "t3", "label": "a", "level": "low"},
                                               {"id": "t4", "label": "a", "level": "high"}]),
     "transitions: label 'a' is declared both low and high; "
     "the low and high alphabets must be disjoint", "transitions"),
    ("invalid UTF-8", b'{"schema_version": "\xff"}',
     "document is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 20: "
     "invalid start byte", ""),
    ("invalid JSON", "{not json",
     "invalid JSON at line 1, column 2: Expecting property name enclosed in double quotes", ""),
    ("invalid JSON on a later line", '{\n  "places": [1,]\n}',
     "invalid JSON at line 2, column 16: Expecting value", ""),
    ("JSON nested too deeply", "[" * 100_000, "invalid JSON: nesting too deep", ""),
    ("JSON integer too long", _LONG_INTEGER,
     f"invalid JSON: an integer has more than {_MAX_DIGITS} digits", ""),
]


@pytest.mark.parametrize("text, message, path",
                         [row[1:] for row in _DIAGNOSTICS], ids=[row[0] for row in _DIAGNOSTICS])
def test_document_diagnostics_are_pinned(text, message, path):
    if text is None:
        pytest.skip("this interpreter converts integers of any length")
    with pytest.raises(NetDocumentError) as caught:
        parse_net(text)
    assert type(caught.value) is NetDocumentError
    assert str(caught.value) == message
    assert caught.value.path == path


@pytest.mark.parametrize("overrides, message", [
    ({"places": [{"id": "p1"}, {"id": "p2"}, {"id": ""}]},
     "place identifier must be a non-empty string, got ''"),
    ({"places": [{"id": "p1"}, {"id": "p2"}, {"id": "x"}],
      "transitions": [_T1, {"id": "t2", "label": "f", "level": "high"},
                      {"id": "x", "label": "b", "level": "low"}]},
     "identifiers used as both place and transition: ['x']"),
    ({"arcs": [{"from": "p1", "to": "t1"}, {"from": "p1", "to": "t1", "weight": 2}]},
     "arc (p1, t1) declared twice"),
], ids=["empty place id", "place and transition share an id", "repeated arc"])
def test_net_diagnostics_after_the_document_checks(overrides, message):
    with pytest.raises(InvalidNetError) as caught:
        parse_net(_doc(**overrides))
    assert type(caught.value) is InvalidNetError
    assert str(caught.value) == message


def test_parsed_suite_nets_match_the_generated_nets():
    for name, lpn in demo_and_suite_nets():
        net = lpn.net
        again = parse_net(serialize_net(lpn))
        assert again.net.places == net.places, name
        assert again.net.transitions == net.transitions, name
        assert list(again.net.weight.items()) == list(net.weight.items()), name
        assert list(again.net.pre.items()) == list(net.pre.items()), name
        assert list(again.net.delta.items()) == list(net.delta.items()), name
        assert again.net.initial_marking == net.initial_marking, name
        assert list(again.labeling.items()) == list(lpn.labeling.items()), name
        assert again.high_labels == lpn.high_labels, name
        assert again.low_labels == lpn.low_labels, name
        assert again.high_transitions == lpn.high_transitions, name
        assert again.low_transitions == lpn.low_transitions, name


def _tables(lpn: LabeledPetriNet) -> dict:
    """Every attribute of ``lpn`` and of its net; dicts as item lists, so order counts.

    The labels used are listed too, as ``("lpn", "alphabet")``: the net keeps
    them only as its low and high labels, and the corpus digest below was
    pinned with them.
    """
    tables = {(owner, name): list(value.items()) if isinstance(value, dict) else value
              for owner, obj in (("lpn", lpn), ("net", lpn.net))
              for name, value in vars(obj).items() if name != "net"}
    tables["lpn", "alphabet"] = frozenset(lpn.labeling.values())
    return tables


def test_valid_documents_never_reach_the_validating_constructors(monkeypatch):
    documents = [(name, serialize_net(lpn)) for name, lpn in demo_and_suite_nets()]

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} constructor called")

    monkeypatch.setattr(PetriNet, "__init__", refuse)
    monkeypatch.setattr(LabeledPetriNet, "__init__", refuse)
    for name, document in documents:
        assert isinstance(parse_net(document), LabeledPetriNet), name


_VALID = [json.loads(fixture_document(name)) for name in DEMOS]
_VALID += [json.loads(serialize_net(random_lpn(seed))) for seed in (1, 2, 3)]
_ARRAYS = ("arcs", "places", "transitions")
_KEYS = ("id", "initial_tokens", "label", "level", "from", "to", "weight", "extra")
_ODD_VALUES = (None, True, False, 0, -1, 1, 2, 2.5, 1.0, "", "low", "high", "p1", "t1",
               [], ["p1"], {}, {"id": "p1"})
_ENTRY_MUTATIONS = ("drop", "add", "swap", "replace")
_STRUCTURAL_MUTATIONS = ("duplicate id", "stray arc end", "repeat arc", "shared id",
                         "both levels", "empty id", "out of range")
#: A value just outside its range for each field that has one.
_OUT_OF_RANGE = {"places": ("initial_tokens", -1), "transitions": ("label", ""),
                 "arcs": ("weight", 0)}


def _mutate_entry(rng, doc, kind):
    entries = doc[rng.choice(_ARRAYS)]
    if not entries:
        return
    i = rng.randint(0, len(entries) - 1)
    entry = entries[i]
    if kind == "replace" or not isinstance(entry, dict):
        entries[i] = rng.choice(([], ["p1", "t1"], 3, 1.5, None, "p1"))
    elif kind == "add":
        entry[rng.choice(_KEYS)] = rng.choice(_ODD_VALUES)
    elif entry:
        key = rng.choice(sorted(entry))
        if kind == "drop":
            del entry[key]
        else:
            entry[key] = rng.choice(_ODD_VALUES)


def _restructure(rng, doc, kind):
    """One structural fault; a node it adds has no arcs, so it adds no other fault."""
    def pick(key):
        entries = [e for e in doc[key] if isinstance(e, dict)]
        return rng.choice(entries) if entries else None

    key = rng.choice(("places", "transitions"))
    entry = pick(key)
    if kind == "duplicate id":
        if entry is not None:
            doc[key].append(dict(entry))
    elif kind == "stray arc end":
        arc = pick("arcs")
        if arc is not None:
            ids = ["zz"] + [e["id"] for k in ("places", "transitions") for e in doc[k]
                            if isinstance(e, dict) and isinstance(e.get("id"), str)]
            arc[rng.choice(("from", "to"))] = rng.choice(ids)
    elif kind == "repeat arc":
        arc = pick("arcs")
        if arc is not None:
            doc["arcs"].append(dict(arc, weight=rng.randint(1, 3)))
    elif kind == "shared id":
        other = pick("transitions" if key == "places" else "places")
        if entry is not None and other is not None and "id" in other:
            doc[key].append(dict(entry, id=other["id"]))
    elif kind == "both levels":
        transition = pick("transitions")
        if transition is not None:
            level = "high" if transition.get("level") == "low" else "low"
            doc["transitions"].append(dict(transition, id="t_both", level=level))
    elif kind == "empty id":
        if entry is not None:
            doc[key].append(dict(entry, id=""))
    else:
        key = rng.choice(sorted(_OUT_OF_RANGE))
        entry = pick(key)
        if entry is not None:
            field, value = _OUT_OF_RANGE[key]
            entry[field] = value


def _mutated(rng, faults: int) -> dict:
    """A valid document with ``faults`` mutations: an entry dropped a key,
    given a key, had a value swapped for one of another type, or been
    replaced; or an identifier repeated, emptied or shared by a place and a
    transition, an arc end moved to another or an undeclared node, an arc
    repeated, or a label put on both levels.  ``rng`` is a
    :class:`random.Random`, or hypothesis's, whose draws shrink."""
    doc = copy.deepcopy(rng.choice(_VALID))
    for _ in range(faults):
        kind = rng.choice(_ENTRY_MUTATIONS + _STRUCTURAL_MUTATIONS)
        if kind in _ENTRY_MUTATIONS:
            _mutate_entry(rng, doc, kind)
        else:
            _restructure(rng, doc, kind)
    return doc


#: The entry schema: required and optional fields with their JSON types.
_SCHEMA = {"places": ({"id": str}, {"initial_tokens": int}),
           "transitions": ({"id": str, "label": str, "level": str}, {}),
           "arcs": ({"from": str, "to": str}, {"weight": int})}


def _reference_net(doc) -> LabeledPetriNet | None:
    """The net a decoded document describes, or ``None`` where it is faulty.

    Written apart from the loader: the key sets, types and levels are
    checked here, and everything else is left to the validating
    ``PetriNet`` and ``LabeledPetriNet`` constructors.
    """
    if (not isinstance(doc, dict) or set(doc) != {"schema_version", *_SCHEMA}
            or doc["schema_version"] != "1"):
        return None
    for key, (required, optional) in _SCHEMA.items():
        if not isinstance(doc[key], list):
            return None
        for entry in doc[key]:
            if (not isinstance(entry, dict)
                    or not set(required) <= set(entry) <= set(required) | set(optional)
                    or any(type(entry[k]) is not kind
                           for k, kind in {**required, **optional}.items() if k in entry)):
                return None
    places, transitions, arcs = doc["places"], doc["transitions"], doc["arcs"]
    levels: dict[str, set[str]] = {}
    for t in transitions:
        levels.setdefault(t["label"], set()).add(t["level"])
    if any(not found <= {"low", "high"} or len(found) > 1 for found in levels.values()):
        return None
    try:
        net = PetriNet([p["id"] for p in places], [t["id"] for t in transitions],
                       [(a["from"], a["to"], a.get("weight", 1)) for a in arcs],
                       [p.get("initial_tokens", 0) for p in places])
        return LabeledPetriNet(net, {t["id"]: t["label"] for t in transitions},
                               {t["label"] for t in transitions if t["level"] == "high"})
    except InvalidNetError:
        return None


@settings(max_examples=500, deadline=None)
@given(st.randoms())
def test_mutated_documents_give_a_net_or_a_net_error(rng):
    # parse_net accepts exactly what the reference accepts, builds the same
    # tables, and refuses with nothing but a NetError.
    doc = _mutated(rng, rng.randint(0, 2))
    expected = _reference_net(doc)
    try:
        lpn = parse_net(json.dumps(doc))
    except NetError:
        assert expected is None
        return
    assert expected is not None
    assert _tables(lpn) == _tables(expected)


def _outcome(text: str) -> str:
    """The error type, message and path ``parse_net`` raises, or the net's tables."""
    try:
        lpn = parse_net(text)
    except NetError as exc:
        return repr((type(exc).__name__, str(exc), getattr(exc, "path", None)))
    return repr(sorted((key, sorted(value) if isinstance(value, frozenset) else value)
                       for key, value in _tables(lpn).items()))


#: sha256 over the outcomes of 3,000 documents, each a valid one with 1-5
#: mutations drawn by ``random.Random(2024)``.  Recorded on the loader that
#: checked a refused document a second time, field by field, to name its
#: first fault.
PINNED_CORPUS_SHA256 = "37c2fcb45b7445a334156819dcea217bd87791bde0d2080de1ca1914cc1d25fa"


def test_seeded_corpus_outcomes_are_pinned():
    rng = random.Random(2024)
    digest = hashlib.sha256()
    for _ in range(3000):
        text = json.dumps(_mutated(rng, rng.randint(1, 5)))
        digest.update(_outcome(text).encode())
    assert digest.hexdigest() == PINNED_CORPUS_SHA256
