"""Mutation fuzzing of the two readers of user text, the instance loader and
the mapping parser, and type-confusion fuzzing of code-built inputs.  Each
mutated input either reads as a well-formed value or is refused with the
reader's one diagnosed error; any other exception is a defect.  The loader
also reads each mutated document as the row-by-row oracle does.  A code-built
mapping or instance with one part of another class is read, or refused with
a ``TdxError``, by every public function that reads one."""
import dataclasses
import json
import re

from hypothesis import given, settings, strategies as st

from tdx import (
    Atom,
    ClopenInterval,
    Fact,
    Instance,
    Mapping,
    Null,
    ParseError,
    RelationSchema,
    SchemaError,
    TdxError,
    Var,
    certain,
    chase,
    conform_instance,
    dumps_instance,
    equivalent,
    find_abstract_hom,
    instance_from_json,
    instance_to_json,
    is_complete,
    loads_instance,
    max_finite_endpoint,
    naive_eval,
    normalize_instance,
    parse_mapping,
    sem_instance,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    tkc_round_concrete,
    validate_instance,
    validate_mapping,
)

from generators import render_mapping
from helpers import FIXTURES, load_fixture_instance, load_fixture_mapping
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


# What a type-confusion mutation puts in place of one part: values of the
# classes the engine reads, of their near misses, and of none of them.
_HASHABLE_PARTS = [None, 0, 5, -1, 1.5, True, "", "x", "Emp", b"x", (), ("x",), (5,), frozenset(), frozenset({"x"}),
                   Null("x"), Null(5), Var("x"), ClopenInterval(0, 1), ("Emp", ("x",), 1),
                   Fact("Emp", ("x",), 1), Atom("Emp", (Var("x"),), "t"), RelationSchema("Emp", ("x",), "t")]
_PARTS = _HASHABLE_PARTS + [[], ["x"], {"a": 1}, {"x"}]


def _parts(node, at=()):
    """Every path to a part of an engine value, the root first: a field of
    a dataclass or named tuple, an item of a tuple, a member of a frozenset
    (keyed by itself).  An interval checks its own fields, so it is one part."""
    yield at
    if dataclasses.is_dataclass(node) and not isinstance(node, type):
        children = [(f.name, getattr(node, f.name)) for f in dataclasses.fields(node)]
    elif isinstance(node, tuple) and not isinstance(node, ClopenInterval):
        children = list(zip(node._fields, node)) if hasattr(node, "_fields") else list(enumerate(node))
    elif isinstance(node, frozenset):
        children = [(member, member) for member in sorted(node, key=repr)]
    else:
        children = []
    for key, child in children:
        yield from _parts(child, (*at, key))


def _replaced(node, path, value):
    """``node`` with the part at ``path`` replaced by ``value``, each value on
    the way rebuilt as its class builds it (a named tuple without its checks,
    as the engine builds one)."""
    if not path:
        return value
    key, rest = path[0], path[1:]
    if dataclasses.is_dataclass(node):
        return dataclasses.replace(node, **{key: _replaced(getattr(node, key), rest, value)})
    if isinstance(node, frozenset):
        return node - {key} | {_replaced(key, rest, value)}
    if hasattr(node, "_fields"):
        return tuple.__new__(type(node), [_replaced(v, rest, value) if f == key else v for f, v in zip(node._fields, node)])
    return tuple(_replaced(v, rest, value) if i == key else v for i, v in enumerate(node))


def _confused(data, root):
    """``root`` with one part, anywhere, replaced by a value of another class
    (only a hashable one inside a frozenset), or the SchemaError that
    rebuilding it raised."""
    path = data.draw(st.sampled_from(list(_parts(root))))
    inside_a_set = any(isinstance(node, frozenset) for node in _nodes(root, path))
    value = data.draw(st.sampled_from(_HASHABLE_PARTS if inside_a_set else _PARTS))
    try:
        return _replaced(root, path, value)
    except SchemaError as exc:  # each dataclass checks its fields where it is made
        return exc


def _nodes(node, path):
    """The values on ``path`` from ``node``, the last one's parent last."""
    for key in path:
        yield node
        node = getattr(node, key) if dataclasses.is_dataclass(node) else key if isinstance(node, frozenset) else (
            node[node._fields.index(key)] if hasattr(node, "_fields") else node[key])


def _reads_or_refuses(calls):
    for call in calls:
        try:
            call()
        except TdxError:
            pass


_EXAMPLE1 = load_fixture_mapping("example1.tdx")
_FIGS = {name: load_fixture_instance(f"{name}.json") for name in ("fig1", "fig2", "fig3", "fig4")}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_reader_of_a_mapping_reads_or_refuses_one_part_of_another_class(data):
    m = _confused(data, _EXAMPLE1)
    if isinstance(m, SchemaError):
        return
    q = _EXAMPLE1.query("positions")
    fig1, fig2, fig3, fig4 = _FIGS.values()
    calls = [lambda: validate_mapping(m), lambda: chase(fig1, m), lambda: chase(fig2, m),
             lambda: certain(q, fig1, m), lambda: certain(q, fig2, m)]
    if isinstance(m, Mapping):
        calls += [lambda: st_round_concrete(fig1, m.sttgds, m.target), lambda: st_round_abstract(fig2, m.sttgds, m.target),
                  lambda: tkc_round_concrete(fig3, m.tkcs), lambda: tkc_round_abstract(fig4, m.tkcs)]
        queries = m.queries if isinstance(m.queries, tuple) else (m.queries,)
        calls += [lambda u=u: naive_eval(u, fig) for u in queries for fig in (fig3, fig4)]
    _reads_or_refuses(calls)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_every_reader_of_an_instance_reads_or_refuses_one_part_of_another_class(data):
    name = data.draw(st.sampled_from(sorted(_FIGS)))
    i = _confused(data, _FIGS[name])
    if isinstance(i, SchemaError):
        return
    m, q, other = _EXAMPLE1, _EXAMPLE1.query("positions"), _FIGS[name]
    _reads_or_refuses([
        lambda: validate_instance(i), lambda: dumps_instance(i), lambda: instance_to_json(i), lambda: is_complete(i),
        lambda: max_finite_endpoint(i), lambda: normalize_instance(i), lambda: sem_instance(i, 20),
        lambda: conform_instance(i, m.source), lambda: chase(i, m), lambda: certain(q, i, m), lambda: naive_eval(q, i),
        lambda: find_abstract_hom(i, i), lambda: equivalent(i, other), lambda: equivalent(other, i),
        lambda: st_round_concrete(i, m.sttgds, m.target), lambda: st_round_abstract(i, m.sttgds, m.target),
        lambda: tkc_round_concrete(i, m.tkcs), lambda: tkc_round_abstract(i, m.tkcs)])
