"""Mutation fuzzing of the two readers of user text: the instance loader and
the mapping parser.  Each mutated input either reads as a well-formed value
or is refused with the reader's one diagnosed error; any other exception is a
defect.  The loader also reads each mutated document as the row-by-row
oracle does."""
import json
import re

from hypothesis import given, settings, strategies as st

from tdx import (
    Instance,
    ParseError,
    SchemaError,
    dumps_instance,
    instance_from_json,
    loads_instance,
    parse_mapping,
    validate_instance,
    validate_mapping,
)

from generators import render_mapping
from helpers import FIXTURES
from oracles import rowwise_instance_from_json

_DOCUMENTS = {path.name: json.loads(path.read_text(encoding="utf-8")) for path in sorted(FIXTURES.glob("*.json"))}
_MAPPINGS = {path.name: path.read_text(encoding="utf-8") for path in sorted(FIXTURES.glob("*.tdx"))}

# What a mutation may put into a document: every kind of JSON value, parts
# of the format, and its near misses (a float or bool time, "inf" as a
# start, a null object with another label type, an empty or reversed
# interval).
_JSON_VALUES = st.sampled_from([
    None, True, False, 0, 1, 2, 8, -1, 13, 2**70, 1.5, 1e999, "", "x", "Ada", "inf", "N", "concrete", "abstract",
    [], ["x"], [3], {}, {"null": "N"}, {"null": "M"}, {"null": 7}, {"null": "N", "x": 1},
    {"start": 0, "end": 2}, {"start": 1, "end": 4}, {"start": 2, "end": 2}, {"start": 3, "end": 1},
    {"start": "inf", "end": 3}, {"start": 0, "end": "inf"}, {"start": True, "end": 4},
    {"values": ["x"], "time": 1}, {"values": ["x"], "interval": {"start": 0, "end": 1}},
]).map(lambda v: json.loads(json.dumps(v)))  # a fresh copy each time, as a mutation may change it


def _paths(node, at=()):
    """Every path to a node of a JSON document, the root first."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _paths(child, (*at, key))


def _mutate(doc, path, op, value, name):
    """``doc`` with the node at ``path`` replaced, removed, or given a new
    member or element; ``op`` names which, ``value`` is what is put in."""
    if not path:
        return value if op == "replace" else doc
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if op == "replace":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, dict):
        parent[name] = value
    else:
        parent.insert(key, value)
    return doc


def _read(load, doc):
    try:
        return load(doc)
    except SchemaError as exc:
        return str(exc)


def _assert_loads_as_read_row_by_row(doc):
    """The loader returns the instance that reading each row through the
    general rules does, or raises the same message; and what it returns,
    marked checked, breaks no rule."""
    got = _read(instance_from_json, doc)
    assert got == _read(rowwise_instance_from_json, doc)
    if isinstance(got, Instance):
        assert got.__dict__.get("_checked") is True
        assert validate_instance(got) == []


def test_each_fixture_loads_as_read_row_by_row():
    for doc in _DOCUMENTS.values():
        _assert_loads_as_read_row_by_row(doc)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_mutated_instance_document_loads_well_formed_or_is_refused(data):
    doc = json.loads(json.dumps(_DOCUMENTS[data.draw(st.sampled_from(sorted(_DOCUMENTS)))]))
    for _ in range(data.draw(st.integers(1, 2))):
        path = data.draw(st.sampled_from(list(_paths(doc))))
        doc = _mutate(doc, path, data.draw(st.sampled_from(["replace", "delete", "insert"])),
                      data.draw(_JSON_VALUES), data.draw(st.sampled_from(["values", "time", "interval", "x"])))
    _assert_loads_as_read_row_by_row(doc)
    text = json.dumps(doc)
    if data.draw(st.integers(0, 3)) == 0:  # and now and then a cut or a stray character in the text
        at = data.draw(st.integers(0, len(text)))
        text = text[:at] + data.draw(st.sampled_from(["", "{", "]", ",", '"', "\\", "\ufeff"])) + text[at + 1:]
    try:
        inst = loads_instance(text)
    except (SchemaError, json.JSONDecodeError):
        return
    assert validate_instance(inst) == []
    assert loads_instance(dumps_instance(inst)) == inst


_TOKEN = re.compile(r"'[^'\n]*'|\w+|->|:-|#[^\n]*|\s+|\S")
_TOKENS = sorted({t for text in _MAPPINGS.values() for t in _TOKEN.findall(text) if not t.startswith("#")}
                 | {"?", "@", "'", "'x'", "''", ".", ",", "(", ")", "->", ":-", "\n", "#", "9", "é", ";", "\\"})


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_a_mutated_mapping_text_parses_valid_and_round_trips_or_is_a_parse_error(data):
    tokens = _TOKEN.findall(_MAPPINGS[data.draw(st.sampled_from(sorted(_MAPPINGS)))])
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(tokens) - 1))
        op = data.draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if op == "delete":
            del tokens[at]
        elif op == "duplicate":
            tokens.insert(at, tokens[at])
        elif op == "swap":
            other = data.draw(st.integers(0, len(tokens) - 1))
            tokens[at], tokens[other] = tokens[other], tokens[at]
        else:
            token = data.draw(st.sampled_from(_TOKENS))
            if op == "replace":
                tokens[at] = token
            else:
                tokens.insert(at, token)
    try:
        m = parse_mapping("".join(tokens))
    except ParseError:
        return
    assert validate_mapping(m) == []
    assert parse_mapping(render_mapping(m)) == m
