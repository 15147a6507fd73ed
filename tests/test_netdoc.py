from __future__ import annotations

import copy
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from snnicheck import netdoc
from snnicheck.fixtures import DEMOS, demo_secure, fixture_document
from snnicheck.netdoc import (ArcSpec, NetDocument, NetDocumentError, PlaceSpec,
                              TransitionSpec, parse_net, serialize_net)
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


def test_roundtrip_is_identity():
    text = fixture_document("leaky")
    doc = NetDocument.from_json(text)
    assert doc.to_json() == text
    assert serialize_net(doc.to_lpn()) == text


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


def test_built_document_with_a_bad_level_is_refused_as_parsing_refuses_it():
    # A document built from the spec types skips the entry checks; ``to_lpn``
    # still refuses a level other than low/high, with the parser's diagnostic.
    doc = NetDocument("1", (PlaceSpec("p1", 1), PlaceSpec("p2")),
                      (TransitionSpec("t1", "a", "low"), TransitionSpec("t2", "b", "medium")),
                      (ArcSpec("p1", "t1"), ArcSpec("t1", "p2")))
    expected = "transitions[1].level: must be one of ('low', 'high'), got 'medium'"
    for build in (doc.to_lpn, lambda: parse_net(doc.to_json())):
        with pytest.raises(NetDocumentError) as refused:
            build()
        assert str(refused.value) == expected
        assert refused.value.path == "transitions[1].level"


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
]


@pytest.mark.parametrize("text, message, path",
                         [row[1:] for row in _DIAGNOSTICS], ids=[row[0] for row in _DIAGNOSTICS])
def test_document_diagnostics_are_pinned(text, message, path):
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
    """Every attribute of ``lpn`` and of its net; dicts as item lists, so order counts."""
    return {(owner, name): list(value.items()) if isinstance(value, dict) else value
            for owner, obj in (("lpn", lpn), ("net", lpn.net))
            for name, value in vars(obj).items() if name != "net"}


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


def _mutate_entry(draw, doc, kind):
    entries = doc[draw(st.sampled_from(_ARRAYS))]
    if not entries:
        return
    i = draw(st.integers(0, len(entries) - 1))
    entry = entries[i]
    if kind == "replace" or not isinstance(entry, dict):
        entries[i] = draw(st.sampled_from(([], ["p1", "t1"], 3, 1.5, None, "p1")))
    elif kind == "add":
        entry[draw(st.sampled_from(_KEYS))] = draw(st.sampled_from(_ODD_VALUES))
    elif entry:
        key = draw(st.sampled_from(sorted(entry)))
        if kind == "drop":
            del entry[key]
        else:
            entry[key] = draw(st.sampled_from(_ODD_VALUES))


def _restructure(draw, doc, kind):
    """One structural fault; a node it adds has no arcs, so it adds no other fault."""
    def pick(key):
        entries = [e for e in doc[key] if isinstance(e, dict)]
        return draw(st.sampled_from(entries)) if entries else None

    key = draw(st.sampled_from(("places", "transitions")))
    entry = pick(key)
    if kind == "duplicate id":
        if entry is not None:
            doc[key].append(dict(entry))
    elif kind == "stray arc end":
        arc = pick("arcs")
        if arc is not None:
            ids = ["zz"] + [e["id"] for k in ("places", "transitions") for e in doc[k]
                            if isinstance(e, dict) and isinstance(e.get("id"), str)]
            arc[draw(st.sampled_from(("from", "to")))] = draw(st.sampled_from(ids))
    elif kind == "repeat arc":
        arc = pick("arcs")
        if arc is not None:
            doc["arcs"].append(dict(arc, weight=draw(st.integers(1, 3))))
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
        key = draw(st.sampled_from(sorted(_OUT_OF_RANGE)))
        entry = pick(key)
        if entry is not None:
            field, value = _OUT_OF_RANGE[key]
            entry[field] = value


@st.composite
def _mutated_documents(draw):
    """A valid document with up to two mutations: an entry dropped a key,
    given a key, had a value swapped for one of another type, or been
    replaced; or an identifier repeated, emptied or shared by a place and a
    transition, an arc end moved to another or an undeclared node, an arc
    repeated, or a label put on both levels."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID)))
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(_ENTRY_MUTATIONS + _STRUCTURAL_MUTATIONS))
        if kind in _ENTRY_MUTATIONS:
            _mutate_entry(draw, doc, kind)
        else:
            _restructure(draw, doc, kind)
    return doc


@settings(max_examples=500, deadline=None)
@given(_mutated_documents())
def test_mutated_documents_give_a_net_or_a_net_error(doc):
    # The direct pass accepts exactly what the ordered path accepts, and
    # builds the same net; where it refuses, the ordered path raises, so
    # the fallback only names the fault.
    direct = netdoc._direct_net(doc)
    try:
        ordered = NetDocument.from_object(doc).to_lpn()
    except NetError:
        assert direct is None
        with pytest.raises(NetError):
            parse_net(json.dumps(doc))
        return
    assert direct is not None
    assert _tables(direct) == _tables(ordered)
    assert _tables(parse_net(json.dumps(doc))) == _tables(ordered)
