import dataclasses
import json
import os
import random
import reprlib
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from tdx import (
    INF,
    AnswerSet,
    Atom,
    Fact,
    Instance,
    InvalidHorizonError,
    KeyNullViolation,
    Mapping,
    Null,
    PreconditionError,
    RelationSchema,
    SchemaError,
    SttTgd,
    Success,
    Tkc,
    Ucq,
    Var,
    answers_to_instance,
    build_grid,
    certain,
    chase,
    conform_instance,
    dumps_instance,
    equivalent,
    find_abstract_hom,
    instance_from_json,
    is_complete,
    is_null,
    loads_instance,
    max_finite_endpoint,
    naive_eval,
    normalize_instance,
    parse_mapping,
    sem_instance,
    split_interval,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    tkc_round_concrete,
    validate_instance,
)

import tdx.model

from generators import random_case
from helpers import (FIXTURES, answers_sem, bench_workloads, c, fact, in_order, iv, load_fixture_instance,
                     load_fixture_mapping, rel)
from oracles import (expand_instance_by_points, fact_sort_key, instance_doc, is_normalized, json_dumps_instance,
                     rowwise_instance_from_json, value_sort_key)


def test_running_example_instance_is_valid(fig1):
    assert validate_instance(fig1) == []
    assert is_complete(fig1)


def test_loaded_nulls_are_annotated_with_their_fact_time():
    """A loaded null is a ``Null`` of a ``str`` label, one object per label
    of an instance, whatever the times of the facts that hold it; each fact
    writes it annotated with the fact's time."""
    seen = set()
    for path in sorted(FIXTURES.glob("*.json")):
        inst = load_fixture_instance(path.name)
        nulls: dict = {}
        for f in inst.facts:
            for v in f.values:
                if is_null(v):
                    assert type(v) is Null and type(v.label) is str, (path.name, str(f))
                    assert nulls.setdefault(v.label, v) is v, (path.name, str(f))
                    assert f"{v.label}^{f.time}" in str(f), (path.name, str(f))
                    seen.add(inst.kind)
    assert seen == {"concrete", "abstract"}


def test_context_mismatch_is_reported():
    """A null's context is the time of the fact that holds it, so one label
    in facts of two times is well formed, and a (label, context) pair, the
    shape of a null annotated with another time, is reported as a part of
    the wrong class."""
    emp = rel("Emp", "name", "position", "company")
    shared = [fact("Emp", "Ada", Null("N"), "IBM", time=iv(8, 10)),
              fact("Emp", "Bob", Null("N"), "IBM", time=iv(10, 12))]
    assert validate_instance(Instance.concrete([emp], shared)) == []
    bad = fact("Emp", "Ada", ("N", iv(10, 12)), "IBM", time=iv(8, 10))
    inst = Instance.concrete([emp], [bad])
    codes = [v.code for v in validate_instance(inst)]
    assert codes == ["wrong-class"]


def test_kind_violations_are_reported():
    emp = rel("Emp", "name", "position", "company")
    abstract_with_interval = Instance.abstract([emp], [fact("Emp", "Ada", Null("N"), "IBM", time=iv(8, 10))])
    assert [v.code for v in validate_instance(abstract_with_interval)] == ["kind-violation"]
    concrete_with_point = Instance.concrete([emp], [fact("Emp", "Ada", Null("N"), "IBM", time=8)])
    assert [v.code for v in validate_instance(concrete_with_point)] == ["kind-violation"]


def test_an_instance_has_a_known_kind_and_distinct_relation_names():
    with pytest.raises(SchemaError, match="^instance kind must be 'concrete' or 'abstract', got 'timeline'$"):
        Instance("timeline", (rel("R", "a"),), frozenset())
    with pytest.raises(SchemaError, match="^duplicate relation name in instance schema$"):
        Instance.concrete([rel("R", "a"), rel("R", "b")])
    # a relation or attribute name that is not exactly a ``str``: no rule of
    # ``validate_instance`` lists one, and the writer breaks on it, so the
    # relation refuses it where it is made, and an instance a schema of
    # another class
    for message, build in [("name must be a str, got int 5", lambda: RelationSchema(5, ("a",), "t")),
                           ("name must be a str, got _Str 'R'", lambda: RelationSchema(_Str("R"), ("a",), "t")),
                           ("attributes[1] must be a str, got NoneType None", lambda: RelationSchema("R", ("a", None), "t")),
                           ("temporal must be a str, got _Str 't'", lambda: RelationSchema("R", ("a",), _Str("t")))]:
        with pytest.raises(SchemaError) as err:
            build()
        assert str(err.value) == f"RelationSchema: {message}"
    with pytest.raises(SchemaError) as err:
        Instance.abstract([rel("S", "a"), ("R", ("a",), "t")])
    assert str(err.value) == "Instance: schema[1] must be a RelationSchema, got tuple ('R', ('a',), 't')"


def test_a_relation_refuses_a_duplicate_attribute_name():
    """A relation whose attribute names repeat, the temporal one among them,
    has no text that reads back: ``RelationSchema`` refuses it where it is
    made, and so the loader refuses it too."""
    for attributes in (("x", "x"), ("x",)):
        with pytest.raises(SchemaError, match="^relation 'S': duplicate attribute name$"):
            RelationSchema("S", attributes, "x" if len(attributes) == 1 else "t")
        doc = {"kind": "concrete", "relations": {"S": {"attributes": [*attributes, "x" if len(attributes) == 1 else "t"],
                                                       "facts": []}}}
        with pytest.raises(SchemaError, match="^relation 'S': duplicate attribute name$"):
            instance_from_json(doc)


_NAMES = ["x", "y", "t", "", "é", '"', "\\"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["concrete", "abstract"]),
       st.lists(st.tuples(st.sampled_from(_NAMES), st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4)),
                max_size=3, unique_by=lambda r: r[0]),
       st.data())
def test_every_instance_that_instance_accepts_reads_back_as_itself(kind, relations, data):
    """Whatever its names, a schema of relations that ``RelationSchema``
    accepts, with well-formed facts, is written by ``dumps_instance`` as
    text that ``loads_instance`` reads back as the same instance; what it
    refuses repeats a name."""
    try:
        schema = [RelationSchema(name, tuple(attributes[:-1]), attributes[-1]) for name, attributes in relations]
    except SchemaError as err:
        assert str(err).endswith(": duplicate attribute name")
        assert any(len(set(attributes)) < len(attributes) for _, attributes in relations)
        return
    inst = Instance(kind, schema, ())
    values = st.one_of(st.sampled_from(_NAMES), st.sampled_from(_NAMES).map(Null))
    times = (st.tuples(st.integers(0, 9), st.one_of(st.integers(1, 9), st.just(INF)))
             .filter(lambda se: se[0] < se[1]).map(lambda se: iv(*se))) if kind == "concrete" else st.integers(0, 9)
    facts = [Fact(r.name, tuple(data.draw(st.lists(values, min_size=r.arity, max_size=r.arity))), data.draw(times))
             for r in schema for _ in range(data.draw(st.integers(0, 3)))]
    inst = inst.replace_facts(facts)
    assert validate_instance(inst) == []
    assert loads_instance(dumps_instance(inst)) == inst


@pytest.mark.parametrize("run, message", [
    (lambda i: sem_instance(i, 20), "sem_instance expects a concrete instance, got abstract"),
    (normalize_instance, "normalize_instance expects a concrete instance, got abstract"),
], ids=["sem_instance", "normalize_instance"])
def test_the_concrete_only_functions_refuse_an_abstract_instance(fig2, run, message):
    with pytest.raises(SchemaError) as err:
        run(fig2)
    assert str(err.value) == message


def test_conform_instance_drops_an_empty_undeclared_relation(fig1, example1):
    """A relation the mapping does not declare is dropped when it holds no
    fact, and refused when it holds one."""
    schema = (*fig1.schema, rel("Old", "a"))
    conformed = conform_instance(Instance.concrete(schema, fig1.facts), example1.source)
    assert conformed == fig1 and [r.name for r in conformed.schema] == ["Employee1", "Employee2"]
    with pytest.raises(SchemaError, match="^relation 'Old' is not declared in the mapping$"):
        conform_instance(Instance.concrete(schema, fig1.facts | {fact("Old", "x", time=iv(0, 1))}), example1.source)


def _positions(inst):
    return naive_eval(load_fixture_mapping("example1.tdx").query("positions"), inst)


def _chase(inst):
    return chase(inst, load_fixture_mapping("example1.tdx"))


def _certain(inst):
    m = load_fixture_mapping("example1.tdx")
    return certain(m.query("positions"), inst, m)


def _st_round(run):
    def go(inst):
        m = load_fixture_mapping("example1.tdx")
        return run(inst, m.sttgds, m.target)
    return go


def _tkc_round(run):
    return lambda inst: run(inst, load_fixture_mapping("example1.tdx").tkcs)


# Every entry point that reads an instance's facts: its name, the fixture it
# reads and a relation of that fixture, and the call.
_ENTRY_POINTS = [
    ("chase-concrete", "fig1.json", "Employee1", _chase),
    ("normalize_instance", "fig1.json", "Employee1", normalize_instance),
    ("sem_instance", "fig1.json", "Employee1", lambda i: sem_instance(i, 20)),
    ("naive_eval-concrete", "fig3.json", "Emp", _positions),
    ("chase-abstract", "fig2.json", "Employee1", _chase),
    ("naive_eval-abstract", "fig4.json", "Emp", _positions),
    ("find_abstract_hom", "fig4.json", "Emp", lambda i: find_abstract_hom(i, i)),
    ("equivalent-concrete", "fig1.json", "Employee1", lambda i: equivalent(i, i)),
    ("equivalent-abstract", "fig4.json", "Emp", lambda i: equivalent(i, i)),
    ("certain-concrete", "fig1.json", "Employee1", _certain),
    ("certain-abstract", "fig2.json", "Employee1", _certain),
    ("max_finite_endpoint", "fig4.json", "Emp", max_finite_endpoint),
    ("is_complete", "fig1.json", "Employee1", is_complete),
    ("st_round_concrete", "fig1.json", "Employee1", _st_round(st_round_concrete)),
    ("st_round_abstract", "fig2.json", "Employee1", _st_round(st_round_abstract)),
    ("tkc_round_concrete", "fig3.json", "Emp", _tkc_round(tkc_round_concrete)),
    ("tkc_round_abstract", "fig4.json", "Emp", _tkc_round(tkc_round_abstract)),
]


@pytest.mark.parametrize("name, relation, run", [entry[1:] for entry in _ENTRY_POINTS],
                         ids=[entry[0] for entry in _ENTRY_POINTS])
def test_a_fact_timed_in_the_other_view_is_a_schema_error(name, relation, run):
    inst = load_fixture_instance(name)
    arity = inst.schema_by_name[relation].arity
    times = (3, 5) if inst.kind == "concrete" else (iv(3, 4), iv(5, 6))
    wrong = [fact(relation, *[who] * arity, time=t) for who, t in zip(("Zed", "Bob"), times)]
    expected = "clopen interval" if inst.kind == "concrete" else "finite time point"
    with pytest.raises(SchemaError) as err:
        run(inst.replace_facts(inst.facts | set(wrong)))
    assert str(err.value) == f"{wrong[1]}: {inst.kind} fact must carry a {expected}"


def _breaking(rule, kind, relation, arity):
    """Two facts that break ``rule`` of a ``kind`` instance, and no rule
    before it; they differ in their last value, Zed or Bob, or in the ``str``
    or ``int`` that stands for their values."""
    at, other_kind, other_time = (iv(3, 4), 3, iv(5, 6)) if kind == "concrete" else (3, iv(3, 4), 5)
    if rule == "values-str":
        return [Fact(relation, who, at) for who in ("Zed", "Bob")]
    if rule == "values-int":
        return [Fact(relation, k, at) for k in (7, 5)]
    # a member of the facts that is not a ``Fact``
    if rule == "member-str":
        return ["Zed", "Bob"]
    if rule == "member-int":
        return [7, 5]
    if rule == "member-tuple":
        return [(relation, ("X",) * (arity - 1) + (who,), at) for who in ("Zed", "Bob")]
    first, time, relation, n = {
        "unknown-relation": ("X", at, "Ghost", arity),
        "relation-class": ("X", at, 5, arity),
        "arity": ("X", at, relation, arity + 1),
        "time-kind": ("X", other_kind, relation, arity),
        "non-value": (5, at, relation, arity),
        "str-subclass": (_Str("X"), at, relation, arity),
        "null-subclass": (_Null("N"), at, relation, arity),
        # a null is its label alone: a (label, context) pair, the shape of an
        # annotated null, is no value, whatever its context
        "null-context-kind": (("N", other_kind), at, relation, arity),
        "context-mismatch": (("N", other_time), at, relation, arity),
    }[rule]
    return [Fact(relation, (first, *["X"] * (n - 2), who), time) for who in ("Zed", "Bob")]


_RULES = {"values-str": "wrong-class", "values-int": "wrong-class", "unknown-relation": "unknown-relation",
          "relation-class": "wrong-class", "arity": "arity-mismatch", "time-kind": "kind-violation",
          "non-value": "wrong-class", "str-subclass": "wrong-class", "null-subclass": "wrong-class",
          "null-context-kind": "wrong-class", "context-mismatch": "wrong-class", "member-str": "wrong-class",
          "member-int": "wrong-class", "member-tuple": "wrong-class"}


_CONTRACT = [(rule, *entry) for rule in _RULES for entry in _ENTRY_POINTS]
_CONTRACT += [(rule, write.__name__, name, "Emp", write) for rule in _RULES
              for write in (dumps_instance, tdx.model.instance_to_json) for name in ("fig3.json", "fig4.json")]


@pytest.mark.parametrize("rule, entry, name, relation, run", _CONTRACT,
                         ids=[f"{rule}-{entry}-{name[:4]}" for rule, entry, name, _, _ in _CONTRACT])
def test_every_entry_point_refuses_what_validate_instance_reports_first(rule, entry, name, relation, run):
    """One bad instance per rule of ``validate_instance``, read by every
    entry point that checks an instance, the writers among them.  A constant of a ``str``
    subclass, and a null of a ``Null`` subclass, are not values: at the
    fast paths, which test exact classes, they would crash or be written
    ill formed.  The first problem is the least by its text, and a fact
    that holds a part of the wrong class is named by its ``repr``."""
    inst = load_fixture_instance(name)
    breaking = _breaking(rule, inst.kind, relation, inst.schema_by_name[relation].arity)
    bad = inst.replace_facts(inst.facts | set(breaking))
    first = validate_instance(bad)[0]
    shown = repr(breaking[1]) if _RULES[rule] == "wrong-class" else str(breaking[1])
    assert first.code == _RULES[rule] and first.message.startswith(f"{shown}: ")
    with pytest.raises(SchemaError) as err:
        run(bad)
    assert str(err.value) == first.message


# A fact or null that ``tuple.__new__`` built with another field count: a
# field count is not a class, yet a reader that takes the fields apart, or a
# ``repr``, fails on it.  Each with a relation of its fixture's facts and the
# message its fact is refused with.
_MISCOUNTED = {
    "fact-2-fields": (lambda relation, values, time: tuple.__new__(Fact, (relation, values)), "field count must be 3, got 2"),
    "fact-4-fields": (lambda relation, values, time: tuple.__new__(Fact, (relation, values, time, time)), "field count must be 3, got 4"),
    "null-0-fields": (lambda relation, values, time: Fact(relation, (*values[:-1], tuple.__new__(Null, ())), time),
                      "field count must be 1, got 0"),
}


@pytest.mark.parametrize("case, entry, name, relation, run",
                         [(case, *entry) for case in _MISCOUNTED for entry in _ENTRY_POINTS]
                         + [(case, write.__name__, name, "Emp", write) for case in _MISCOUNTED
                            for write in (dumps_instance, tdx.model.instance_to_json) for name in ("fig3.json", "fig4.json")],
                         ids=lambda v: v if isinstance(v, str) else "")
def test_a_fact_or_null_of_another_field_count_is_a_wrong_class_schema_error(case, entry, name, relation, run):
    inst = load_fixture_instance(name)
    good = next(f for f in inst.facts if f.relation == relation)
    build, message = _MISCOUNTED[case]
    bad = inst.replace_facts(inst.facts | {build(relation, good.values, good.time)})
    problems = validate_instance(bad)
    assert [p.code for p in problems] == ["wrong-class"] and problems[0].message.endswith(message)
    with pytest.raises(SchemaError) as err:
        run(bad)
    assert str(err.value) == problems[0].message


def test_a_fact_of_another_field_count_is_named_by_its_fields():
    inst = Instance.abstract([rel("R", "a")], [tuple.__new__(Fact, ("R", ("a",))), Fact("R", (tuple.__new__(Null, ("N", "M")),), 1)])
    assert [p.message for p in validate_instance(inst)] == [
        "Fact('R', ('a',)): field count must be 3, got 2",
        "Fact('R', (Null('N', 'M'),), 1): values[0] field count must be 1, got 2"]


_MISSHOWN_PROBE = """
from tdx import Atom, Fact, Instance, Null, SchemaError, SttTgd, Var, validate_instance
from helpers import rel
print(validate_instance(Instance.abstract([rel("R", "a")], [Fact("R", (("N", tuple.__new__(Null, ())),), 1)]))[0].message)
try:
    SttTgd((Atom("S", (Var("x"),), "t"),), (Atom("T", (Var("x"),), "t"),),
           frozenset({tuple.__new__(Null, ("b", "x")), tuple.__new__(Null, ("a", "y"))}))
except SchemaError as exc:
    print(exc)
"""


def test_a_misfit_that_holds_a_null_of_another_field_count_is_shown_by_its_fields():
    """The ``repr`` of such a null fails, so a message shows it by its
    fields, never by its memory address: the same text in every process,
    and the same least member of a frozenset."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(tdx.model.__file__).parent.parent), str(tests), os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run([sys.executable, "-c", _MISSHOWN_PROBE], cwd=tests, capture_output=True,
                           text=True, env=env, check=True).stdout for _ in range(2)]
    assert runs[0] == runs[1] and "0x" not in runs[0]
    assert runs[0].splitlines() == [
        "Fact('R', (('N', Null()),), 1): values[0] must be a str or a Null, got tuple ('N', Null())",
        "SttTgd: existentials member must be a str, got Null Null('a', 'y')"]


class _Str(str):
    pass


class _Int(int):
    pass


class _Null(Null):
    pass


_ATOM = Atom("R", (Var("x"),), "t")
# Each dataclass of the engine: a well-formed value of it, and one of its
# fields with a value that holds a part of another class (a subclass of the
# declared class among them), with the message it is refused with.
_MISFITS = {
    Var: (Var("x"), "name", _Str("x"), "Var: name must be a str, got _Str 'x'"),
    Atom: (_ATOM, "args", (Var("x"), 5.0), "Atom: args[1] must be a Var or a str, got float 5.0"),
    SttTgd: (SttTgd((_ATOM,), (_ATOM,), frozenset()), "existentials", frozenset({"p", 0}),
             "SttTgd: existentials member must be a str, got int 0"),
    Tkc: (Tkc("R", frozenset({"t"})), "key", ["t"], "Tkc: key must be a frozenset, got list ['t']"),
    Ucq: (Ucq("q", ("x",), "t", ((_ATOM,),)), "disjuncts", ((_ATOM, "R"),),
          "Ucq: disjuncts[0][1] must be an Atom, got str 'R'"),
    Mapping: (Mapping((), (), (), (), ()), "tkcs", (_ATOM,), "Mapping: tkcs[0] must be a Tkc, got Atom " + reprlib.repr(_ATOM)),
    RelationSchema: (rel("R", "a"), "attributes", ("a", b"b"), "RelationSchema: attributes[1] must be a str, got bytes b'b'"),
    Instance: (Instance.concrete([rel("R", "a")]), "schema", [("R", ("a",), "t")],
               "Instance: schema[0] must be a RelationSchema, got tuple ('R', ('a',), 't')"),
    AnswerSet: (AnswerSet("q", "concrete", ("t",), frozenset()), "rows", frozenset({"t"}),
                "AnswerSet: rows member must be a tuple, got str 't'"),
}


@pytest.mark.parametrize("cls", list(_MISFITS), ids=lambda cls: cls.__name__)
def test_every_dataclass_refuses_a_part_of_another_class_where_it_is_made(cls):
    """Each part checks its own fields where it is made, by the constructor
    or by ``dataclasses.replace``, one level deep: a tuple or frozenset
    field's items, and a nested tuple's too; every other part checked
    itself."""
    good, field, value, message = _MISFITS[cls]
    fields = {f.name: getattr(good, f.name) for f in dataclasses.fields(cls)}
    for build in (lambda: cls(**{**fields, field: value}), lambda: dataclasses.replace(good, **{field: value})):
        with pytest.raises(SchemaError) as err:
            build()
        assert str(err.value) == message


@pytest.mark.parametrize("read, root, message", [
    (loads_instance, b"{}", "instance text: must be a str, got bytes b'{}'"),
    (parse_mapping, ["source R(a, @t)."], "mapping text: must be a str, got list ['source R(a, @t).']"),
    (answers_to_instance, ("q", "concrete", ("t",), frozenset()),
     "answers: must be an AnswerSet, got tuple ('q', 'concrete', ('t',), frozenset())"),
    (lambda q: naive_eval(q, load_fixture_instance("fig3.json")), "positions", "query: must be a Ucq, got str 'positions'"),
], ids=["loads_instance", "parse_mapping", "answers_to_instance", "naive_eval"])
def test_a_reader_refuses_a_root_of_another_class(read, root, message):
    """What no constructor made is checked where it is read."""
    with pytest.raises(SchemaError) as err:
        read(root)
    assert str(err.value) == message


# Times and values of every class the rules tell apart, each beside a value
# of another class that it equals or hashes like.
_ODD_TIMES = [3, 5, True, _Int(3), -1, 1.5, "s", iv(3, 5), iv(5, 9), (3, 5), None]
_ODD_VALUES = ["x", _Str("x"), 5, (), ("N",), ("N", 3), *[Null(label) for label in ("N", _Str("N"), 7)], _Null("N")]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["concrete", "abstract"]),
       st.lists(st.tuples(st.sampled_from(["R", "S", "Ghost", 5]),
                          st.one_of(st.lists(st.sampled_from(_ODD_VALUES), max_size=3).map(tuple),
                                    st.sampled_from([5, "xy", None])),
                          st.sampled_from(_ODD_TIMES)), max_size=6))
def test_the_instance_check_raises_the_first_problem_validate_instance_reports(kind, rows):
    """The check passes, and marks, exactly the instances that break no
    rule, and what it raises is the first problem ``validate_instance`` lists."""
    inst = Instance(kind, (rel("R", "a"), rel("S", "a", "b")), [Fact(r, values, t) for r, values, t in rows])
    problems = validate_instance(inst)
    if not problems:
        tdx.model._check_instance(inst)
        assert inst.__dict__.get("_checked") is True
        return
    with pytest.raises(SchemaError) as err:
        tdx.model._check_instance(inst)
    assert str(err.value) == problems[0].message


def test_each_instance_is_screened_once(example1, monkeypatch):
    """A loaded instance is born checked, and ``conform_instance`` keeps
    that, so ``chase`` checks no loaded source; a source built in code it
    checks once (``normalize_instance`` reads the same instance).  The chase result is born checked, so
    ``certain`` checks no more."""
    checked = []
    validate = tdx.model.validate_instance
    monkeypatch.setattr(tdx.model, "validate_instance", lambda inst: checked.append(inst.facts) or validate(inst))
    for name in ("fig1.json", "fig2.json"):
        loaded = load_fixture_instance(name)
        for source, passes in ((lambda: loaded, 0), (lambda: Instance(loaded.kind, loaded.schema, loaded.facts), 1)):
            checked.clear()
            assert isinstance(chase(source(), example1), Success)
            assert checked == passes * [loaded.facts]
            checked.clear()
            assert certain(example1.query("positions"), source(), example1).rows
            assert checked == passes * [loaded.facts]


_TIME_CLASS_PROBE = """
from tdx import chase, equivalent, find_abstract_hom, naive_eval, normalize_instance, sem_instance
from helpers import fact, load_fixture_instance, load_fixture_mapping

m = load_fixture_mapping("example1.tdx")
positions = m.query("positions")
runs = {
    "chase-concrete": ("fig1.json", "Employee1", lambda i: chase(i, m)),
    "normalize_instance": ("fig1.json", "Employee1", normalize_instance),
    "sem_instance": ("fig1.json", "Employee1", lambda i: sem_instance(i, 20)),
    "naive_eval-concrete": ("fig3.json", "Emp", lambda i: naive_eval(positions, i)),
    "chase-abstract": ("fig2.json", "Employee1", lambda i: chase(i, m)),
    "naive_eval-abstract": ("fig4.json", "Emp", lambda i: naive_eval(positions, i)),
    "find_abstract_hom": ("fig4.json", "Emp", lambda i: find_abstract_hom(i, i)),
    "equivalent-concrete": ("fig1.json", "Employee1", lambda i: equivalent(i, i)),
    "equivalent-abstract": ("fig4.json", "Emp", lambda i: equivalent(i, i)),
}
for name, (fixture, relation, run) in runs.items():
    inst = load_fixture_instance(fixture)
    arity = inst.schema_by_name[relation].arity
    if inst.kind == "concrete":  # a fact at the plain tuple of each interval of the instance
        times = sorted({f.time for f in inst.facts})
        wrong = [fact(relation, f"Zed{i}", *["X"] * (arity - 1), time=(t.start, t.end)) for i, t in enumerate(times)]
    else:  # facts at False and True, beside facts at 0 and 1
        wrong = [fact(relation, *[who] * arity, time=t) for who, t in (("Bob", 0), ("Bob", 1), ("Zed", False), ("Zed", True))]
    try:
        run(inst.replace_facts(inst.facts | set(wrong)))
        print(name, "accepted")
    except Exception as exc:
        print(name, f"{type(exc).__name__}: {exc}")
"""


def test_a_time_equal_to_a_time_of_another_class_is_a_schema_error_under_every_hash_seed():
    """A plain tuple equals the interval of its endpoints and True equals 1, so
    a set of times can merge them; each is still a time of the wrong class,
    and the least such fact is named, whatever the hash order of the facts."""
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(tdx.model.__file__).parent.parent), str(tests), os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run([sys.executable, "-c", _TIME_CLASS_PROBE], cwd=tests, capture_output=True,
                           text=True, env={**env, "PYTHONHASHSEED": seed}, check=True).stdout.splitlines()
            for seed in ("0", "1", "2", "3", "4", "5")]
    assert all(run == runs[0] for run in runs)
    time = "time must be a ClopenInterval or an int, got"
    concrete = f"SchemaError: Fact(relation='Employee1', values=('Zed0', 'X'), time=(8, 10)): {time} tuple (8, 10)"
    abstract = f"SchemaError: Fact(relation='Emp', values=('Zed', 'Zed', 'Zed'), time=False): {time} bool False"
    assert runs[0] == [
        *(f"{name} {concrete}" for name in ("chase-concrete", "normalize_instance", "sem_instance")),
        f"naive_eval-concrete SchemaError: Fact(relation='Emp', values=('Zed0', 'X', 'X'), time=(8, 10)): {time} "
        "tuple (8, 10)",
        f"chase-abstract SchemaError: Fact(relation='Employee1', values=('Zed', 'Zed'), time=False): {time} bool False",
        *(f"{name} {abstract}" for name in ("naive_eval-abstract", "find_abstract_hom")),
        f"equivalent-concrete {concrete}",
        f"equivalent-abstract {abstract}",
    ]


def test_a_null_annotated_with_an_equal_time_of_another_class_is_not_annotated_with_it():
    """A null is annotated with its fact's time, so a fact time that equals a
    time of the view's class (a plain tuple, ``True``) is refused before any
    null is written annotated with it."""
    schema = [rel("R", "a")]
    concrete = Fact("R", (Null("N"),), (0, 5))
    inst = Instance.concrete(schema, [concrete])
    assert [v.code for v in validate_instance(inst)] == ["wrong-class"]
    for run in (lambda: sem_instance(inst, 9), lambda: normalize_instance(inst)):
        with pytest.raises(SchemaError) as err:
            run()
        assert str(err.value) == (f"{concrete!r}: time must be a ClopenInterval or an int, got tuple (0, 5)")
    abstract = Instance.abstract(schema, [Fact("R", (Null("N"),), True)])
    assert [v.code for v in validate_instance(abstract)] == ["wrong-class"]
    with pytest.raises(SchemaError) as err:
        find_abstract_hom(abstract, abstract)
    assert str(err.value) == ("Fact(relation='R', values=(Null(label='N'),), time=True): time must be a "
                              "ClopenInterval or an int, got bool True")


def test_writers_name_the_least_fact_whose_time_or_null_context_is_not_a_value():
    schema = [rel("R", "a")]
    cases = {
        "Fact(relation='R', values=('x',), time=True): time must be a ClopenInterval or an int, got bool True":
            [Fact("R", ("x",), True), Fact("R", ("y",), 1.5), fact("R", "z", time=2)],
        "Fact(relation='R', values=('x',), time='s'): time must be a ClopenInterval or an int, got str 's'":
            [Fact("R", ("x",), "s")],
        "Fact(relation='R', values=(Null(label=7),), time=1): values[0].label must be a str, got int 7":
            [Fact("R", (Null(7),), 1), fact("R", "z", time=2)],
        # a null takes its context from its fact, so a (label, context) pair is no value
        "Fact(relation='R', values=(('N', True),), time=1): values[0] must be a str or a Null, got tuple ('N', True)":
            [Fact("R", (("N", True),), 1), fact("R", "z", time=2)],
    }
    for message, facts in cases.items():
        inst = Instance.abstract(schema, facts)
        assert validate_instance(inst)[0].message == message
        for write in (dumps_instance, tdx.model.instance_to_json):
            with pytest.raises(SchemaError) as error:
                write(inst)
            assert str(error.value) == message


def test_writers_name_a_value_that_is_neither_a_constant_nor_a_null():
    inst = Instance.abstract([rel("R", "a")], [Fact("R", (5,), 1), Fact("R", ((),), 1), fact("R", "z", time=1)])
    for write in (dumps_instance, tdx.model.instance_to_json):
        with pytest.raises(SchemaError) as err:
            write(inst)
        assert str(err.value) == "Fact(relation='R', values=((),), time=1): values[0] must be a str or a Null, got tuple ()"


def test_validate_instance_reports_a_value_that_is_neither_a_constant_nor_a_null():
    inst = Instance.abstract([rel("R", "a", "b")], [Fact("R", (5, Null(7)), 1), fact("R", "x", "y", time=1)])
    assert [(v.code, v.message) for v in validate_instance(inst)] == [
        ("wrong-class", "Fact(relation='R', values=(5, Null(label=7)), time=1): values[0] must be a str or a Null, "
                        "got int 5"),
    ]


def test_every_constant_is_an_exact_str(fig1, example1):
    """Loaded, chased, answered and parsed constants are plain strings, not wrappers."""
    chased = chase(fig1, example1).instance
    rows = naive_eval(example1.query("paid_positions"), chased).rows
    rule = parse_mapping("source R(x, @t).\ntarget S(x, y, @t).\nrule R(x, t) -> S(x, 'info', t).\n").sttgds[0]
    values = [v for inst in (fig1, chased) for f in inst.facts for v in f.values if not is_null(v)]
    values += [v for row in rows for v in row[:-1]]
    assert rows and values and {type(v) for v in values} == {str}
    assert type(rule.rhs[0].args[1]) is str and rule.rhs[0].args[1] == "info"


def test_values_are_tuples_with_their_names_fields_and_text():
    interval, null = iv(0, 5), Null("N")
    f = fact("R", "a", null, time=3)
    assert (interval, null, f) == ((0, 5), ("N",), ("R", ("a", null), 3))
    assert hash(interval) == hash((0, 5)) and hash(f) == hash(("R", ("a", ("N",)), 3))
    assert (len(f), list(null), interval[1]) == (3, ["N"], 5)
    assert all(null != x for x in ("N", "N^3", str(null)))
    assert (repr(interval), repr(null), repr(f)) == (
        "ClopenInterval(start=0, end=5)", "Null(label='N')",
        "Fact(relation='R', values=('a', Null(label='N')), time=3)")
    # a null is its label; a fact writes each of its nulls annotated with its time
    assert (str(iv(2014, INF)), str(null), str(f), str(fact("R", null, null, time=interval)), str(fact("R", time=3))) \
        == ("[2014,inf)", "N", "R(a, N^3, 3)", "R(N^[0,5), N^[0,5), [0,5))", "R(3)")
    assert sorted([iv(2, 3), iv(0, INF), iv(1, 2), interval]) == [interval, iv(0, INF), iv(1, 2), iv(2, 3)]
    for value, field in ((interval, "start"), (null, "label"), (f, "time")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)


def test_values_sort_natively_within_a_kind_and_problems_sort_over_any_objects():
    """Within one kind, values sort natively in canonical order: constants
    before nulls, nulls by label.  ``validate_instance`` orders the
    problems of facts that hold any objects, time points, intervals and
    ``True`` among them, by their text, whatever the set's order."""
    assert sorted([Null("N"), c("N"), Null("M"), c(""), Null("NA")]) == [
        c(""), c("N"), Null("M"), Null("N"), Null("NA")]
    null, const = Null("A"), c("Z")
    assert (const < null, const <= null, null > const, null >= const) == (True,) * 4
    assert (null < const, null <= const, const > null, const >= null) == (False,) * 4
    values = [Null("N"), c("N"), iv(0, INF), iv(0, 2), 3, 0, Null("M"), True, 1.5, None]
    problems = validate_instance(Instance.abstract([rel("R", "a")], [Fact("R", (v,), 1) for v in values]))
    assert [p.message for p in problems] == [
        f"Fact(relation='R', values=({v!r},), time=1): values[0] must be a str or a Null, got {type(v).__name__} {reprlib.repr(v)}"
        for v in sorted(values[2:6] + values[7:], key=lambda v: repr(v))]
    with pytest.raises(TypeError):
        value_sort_key(True)


def test_arity_and_unknown_relation_violations():
    emp = rel("Emp", "name", "position")
    inst = Instance.concrete([emp], [
        fact("Emp", "Ada", time=iv(0, 1)),
        fact("Ghost", "x", time=iv(0, 1)),
    ])
    codes = sorted(v.code for v in validate_instance(inst))
    assert codes == ["arity-mismatch", "unknown-relation"]


def test_is_complete(fig1, fig3):
    assert is_complete(fig1)
    assert not is_complete(fig3)
    assert is_complete(Instance.concrete([], []))


def sem_fact(f: Fact, horizon: int) -> frozenset[Fact]:
    """The abstract facts of one concrete fact: ``sem_instance`` of the
    instance of that fact alone."""
    schema = rel(f.relation, *(f"a{i}" for i in range(len(f.values))))
    return sem_instance(Instance.concrete([schema], [f]), horizon).facts


def test_sem_fact_expansion():
    f = fact("Employee1", "Ada", "IBM", time=iv(8, 11))
    assert sem_fact(f, 13) == {
        fact("Employee1", "Ada", "IBM", time=8),
        fact("Employee1", "Ada", "IBM", time=9),
        fact("Employee1", "Ada", "IBM", time=10),
    }
    g = fact("Emp", "Ada", Null("N"), "Intel", time=iv(11, 13))
    assert sem_fact(g, 13) == {
        fact("Emp", "Ada", Null("N"), "Intel", time=11),
        fact("Emp", "Ada", Null("N"), "Intel", time=12),
    }
    unbounded = fact("Employee1", "Ada", "Intel", time=iv(2014, INF))
    assert sem_fact(unbounded, 2016) == {
        fact("Employee1", "Ada", "Intel", time=2014),
        fact("Employee1", "Ada", "Intel", time=2015),
    }


def test_sem_fact_rejects_a_mis_annotated_null():
    """A (label, time) pair, the shape of a null annotated with a time other
    than its fact's, is no value."""
    for context in (iv(10, 12), 8):
        f = fact("Emp", "Ada", ("N", context), "IBM", time=iv(8, 10))
        with pytest.raises(SchemaError, match=r"values\[1\] must be a str or a Null, got tuple \('N', "):
            sem_fact(f, 13)


def test_sem_fact_cardinality():
    f = fact("R", "a", time=iv(3, 9))
    assert len(sem_fact(f, 20)) == 9 - 3
    assert len(sem_fact(fact("R", "a", time=iv(3, INF)), 20)) == 20 - 3


def test_sem_fact_rejects_low_horizon():
    with pytest.raises(InvalidHorizonError):
        sem_fact(fact("R", "a", time=iv(3, 9)), 8)
    with pytest.raises(InvalidHorizonError):
        sem_fact(fact("R", "a", time=iv(3, INF)), 2)


def test_sem_instance_rejects_low_horizon():
    inst = Instance.concrete([rel("R", "a")], [fact("R", "a", time=iv(0, 2)), fact("R", "b", time=iv(3, 9)),
                                               fact("R", "c", time=iv(10, INF))])
    with pytest.raises(InvalidHorizonError, match=r"^horizon 8 is below endpoint 9 of \[3,9\)$"):
        sem_instance(inst, 8)
    with pytest.raises(InvalidHorizonError, match=r"^horizon 9 is below endpoint 10 of \[10,inf\)$"):
        sem_instance(inst, 9)
    assert len(sem_instance(inst, 10).facts) == 2 + 6


def test_sem_instance_checks_the_horizon_on_an_empty_instance():
    empty = Instance.concrete([rel("R", "a")])
    with pytest.raises(InvalidHorizonError):
        sem_instance(empty, 9.5)
    assert sem_instance(empty, 9) == Instance.abstract([rel("R", "a")])


def test_a_negative_horizon_is_not_a_time_point():
    empty = Instance.concrete([rel("R", "a")])
    abstract = Instance.abstract([rel("R", "a")], [fact("R", "a", time=0)])
    for run in (lambda h: sem_instance(empty, h), lambda h: sem_fact(fact("R", "a", time=iv(0, 2)), h),
                lambda h: answers_sem(AnswerSet("q", "concrete", ("a", "t"), frozenset()), h),
                lambda h: equivalent(abstract, abstract, h), lambda h: equivalent(empty, abstract, h)):
        for horizon in (-1, -5):
            with pytest.raises(InvalidHorizonError, match=rf"^horizon must be a finite time point, got {horizon}$"):
                run(horizon)
    assert sem_instance(empty, 0) == Instance.abstract([rel("R", "a")])


def test_sem_instance_stops_above_its_fact_limit(monkeypatch):
    """``sem_instance`` checks its limit before anything is materialized,
    whether it expands an instance, one fact, or answers."""
    monkeypatch.setattr(tdx.model, "MAX_SEM_FACTS", 5)
    rows = [("a", iv(0, 3)), ("b", iv(1, INF))]
    at_limit = Instance.concrete([rel("R", "a")], [fact("R", a, time=t) for a, t in rows])
    answers = AnswerSet("R", "concrete", ("a", "t"), frozenset(rows))
    unbounded = fact("R", "a", time=iv(0, INF))
    assert len(sem_instance(at_limit, 3).facts) == len(answers_sem(answers, 3).rows) == len(sem_fact(unbounded, 5)) == 5
    for run in (lambda: sem_instance(at_limit, 4), lambda: answers_sem(answers, 4), lambda: sem_fact(unbounded, 6)):
        with pytest.raises(PreconditionError, match=r"^the abstract view up to horizon \d has 6 facts, "
                                                    r"more than the limit of 5$"):
            run()
    monkeypatch.undo()
    too_long = fact("R", "a", time=iv(0, 10**8))
    for run in (lambda: sem_instance(Instance.concrete([rel("R", "a")], [too_long]), 10**8),
                lambda: answers_sem(AnswerSet("R", "concrete", ("a", "t"), frozenset({("a", too_long.time)})), 10**8),
                lambda: sem_fact(too_long, 10**8)):
        with pytest.raises(PreconditionError, match="has 100000000 facts"):
            run()


def test_sem_instance_matches_figures(fig1, fig2, fig3, fig4):
    assert sem_instance(fig1, 13) == fig2
    assert sem_instance(fig3, 13) == fig4
    empty = Instance.concrete([rel("R", "a")], [])
    assert sem_instance(empty, 1) == Instance.abstract([rel("R", "a")], [])


def test_normalize_matches_figure(fig1, fig8):
    assert normalize_instance(fig1) == fig8
    assert normalize_instance(fig8) == fig8  # fixed point
    assert is_normalized(fig8)
    assert not is_normalized(fig1)


def test_normalize_splits_across_relations():
    schemas = [rel("R", "a"), rel("S", "b")]
    inst = Instance.concrete(schemas, [
        fact("R", "a", time=iv(0, 10)),
        fact("S", "b", time=iv(5, 7)),
    ])
    out = normalize_instance(inst)
    assert out.facts == {
        fact("R", "a", time=iv(0, 5)),
        fact("R", "a", time=iv(5, 7)),
        fact("R", "a", time=iv(7, 10)),
        fact("S", "b", time=iv(5, 7)),
    }
    assert is_normalized(out)
    assert expand_instance_by_points(out, 11) == expand_instance_by_points(inst, 11)


def test_normalize_reannotates_nulls_and_preserves_semantics():
    schemas = [rel("R", "a"), rel("S", "b")]
    inst = Instance.concrete(schemas, [
        Fact("R", (Null("N"),), iv(0, 4)),
        fact("S", "b", time=iv(2, 3)),
    ])
    out = normalize_instance(inst)
    assert out.facts == {
        Fact("R", (Null("N"),), iv(0, 2)),
        Fact("R", (Null("N"),), iv(2, 3)),
        Fact("R", (Null("N"),), iv(3, 4)),
        fact("S", "b", time=iv(2, 3)),
    }
    assert validate_instance(out) == []
    assert sem_instance(out, 5) == sem_instance(inst, 5)


def test_max_finite_endpoint(fig1, fig2):
    assert max_finite_endpoint(fig1) == 13
    assert max_finite_endpoint(fig2) == 12
    assert max_finite_endpoint(Instance.concrete([], [])) is None
    assert max_finite_endpoint(
        Instance.concrete([rel("R", "a")], [fact("R", "x", time=iv(4, INF))])) == 4


def test_json_round_trip(fig1, fig3, fig4, fig6):
    for inst in (fig1, fig3, fig4, fig6):
        assert loads_instance(dumps_instance(inst)) == inst
        assert dumps_instance(inst) == dumps_instance(inst)
    assert dumps_instance(fig1).endswith("\n")


def test_json_shared_null_labels_are_one_null(fig3):
    at_tail = [f for f in in_order(fig3) if f.time == iv(11, 13)]
    emp_fact, sal_fact = at_tail
    assert emp_fact.values[1] == sal_fact.values[1]  # same label, same interval


def is_complete_fact(f):
    return all(isinstance(v, str) for v in f.values)


def test_loader_rejects_malformed_documents():
    base = {"kind": "concrete", "relations": {"R": {"attributes": ["a", "time"], "facts": []}}}

    def with_fact(doc_fact):
        doc = json.loads(json.dumps(base))
        doc["relations"]["R"]["facts"] = [doc_fact]
        return doc

    bad_documents = [
        {"kind": "nope", "relations": {}},
        {"kind": "concrete", "relations": []},
        with_fact({"values": ["x"], "time": 3}),                        # wrong time form
        with_fact({"values": ["x", "y"], "interval": {"start": 0, "end": 2}}),  # arity
        with_fact({"values": [3], "interval": {"start": 0, "end": 2}}),  # bad value
        with_fact({"values": ["x"], "interval": {"start": 2, "end": 2}}),  # empty interval
        with_fact({"values": ["x"], "interval": {"start": "inf", "end": 3}}),  # inf start
        with_fact({"values": ["x"], "interval": {"start": 0, "end": 1e999}}),  # a float end equal to INF
        with_fact({"values": [{"null": "N", "extra": 1}], "interval": {"start": 0, "end": 2}}),
    ]
    for doc in bad_documents:
        with pytest.raises(SchemaError):
            loads_instance(json.dumps(doc))
    with pytest.raises(json.JSONDecodeError):
        loads_instance("{not json")


def _with_second_fact(kind, row):
    """A one-relation document of ``kind`` whose second fact is ``row``."""
    first = {"values": ["x"], **({"interval": {"start": 0, "end": 1}} if kind == "concrete" else {"time": 0})}
    return {"kind": kind, "relations": {"R": {"attributes": ["a", "t"], "facts": [first, row]}}}


_CONCRETE_ROW = {"values": ["x"], "interval": {"start": 0, "end": 2}}


@pytest.mark.parametrize("doc, message", [
    ([], "instance: top level must be a JSON object"),
    ({"kind": "nope", "relations": {}}, 'instance: "kind" must be "concrete" or "abstract"'),
    ({"kind": "abstract", "relations": []}, 'instance: "relations" must be an object'),
    ({"kind": "abstract", "relations": {"R": []}}, "relation 'R': must be an object"),
    ({"kind": "abstract", "relations": {"R": {"attributes": []}}},
     "relation 'R': \"attributes\" must be a non-empty list of names"),
    ({"kind": "abstract", "relations": {"R": {"attributes": ["a", "a"]}}}, "relation 'R': duplicate attribute name"),
    ({"kind": "abstract", "relations": {"R": {"attributes": ["a", "t"], "facts": {}}}},
     "relation 'R': \"facts\" must be a list"),
    (_with_second_fact("concrete", []), "relation 'R' fact #1: must be an object"),
    (_with_second_fact("concrete", {"values": ["x"]}),
     "relation 'R' fact #1: concrete fact must carry an \"interval\""),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": 0}}),
     "relation 'R' fact #1: interval must be {\"start\": ..., \"end\": ...}"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": 0, "end": 2, "x": 1}}),
     "relation 'R' fact #1: interval must be {\"start\": ..., \"end\": ...}"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": True, "end": 2}}),
     "relation 'R' fact #1: interval start must be an integer"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": 0, "end": 2.0}}),
     "relation 'R' fact #1: interval end must be an integer or \"inf\""),
    # equal to the first fact's time, which was read before, but not of its class
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": False, "end": 1}}),
     "relation 'R' fact #1: interval start must be an integer"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": 0, "end": 1.0}}),
     "relation 'R' fact #1: interval end must be an integer or \"inf\""),
    (_with_second_fact("abstract", {"values": ["x"], "time": 0.0}),
     "relation 'R' fact #1: time must be a non-negative integer"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": 2, "end": 2}}),
     "relation 'R' fact #1: interval [2,2) is empty"),
    (_with_second_fact("concrete", {"values": ["x"], "interval": {"start": -1, "end": 2}}),
     "relation 'R' fact #1: interval start must be non-negative, got -1"),
    (_with_second_fact("abstract", {"values": ["x"]}), "relation 'R' fact #1: abstract fact must carry a \"time\""),
    (_with_second_fact("abstract", {"values": ["x"], "time": -1}),
     "relation 'R' fact #1: time must be a non-negative integer"),
    (_with_second_fact("abstract", {"values": ["x"], "time": False}),
     "relation 'R' fact #1: time must be a non-negative integer"),
    (_with_second_fact("concrete", {"values": "x", "interval": {"start": 0, "end": 2}}),
     "relation 'R' fact #1: \"values\" must be a list"),
    (_with_second_fact("concrete", {**_CONCRETE_ROW, "values": ["x", "y"]}),
     "relation 'R' fact #1: expected 1 values, got 2"),
    (_with_second_fact("concrete", {**_CONCRETE_ROW, "values": [3]}),
     "relation 'R' fact #1: a value must be a string or {\"null\": \"<label>\"}, got 3"),
    (_with_second_fact("concrete", {**_CONCRETE_ROW, "values": [{"null": "N", "extra": 1}]}),
     "relation 'R' fact #1: a value must be a string or {\"null\": \"<label>\"}, got {'extra': 1, 'null': 'N'}"),
    (_with_second_fact("abstract", {"values": [{"null": 7}], "time": 0}),
     "relation 'R' fact #1: a value must be a string or {\"null\": \"<label>\"}, got {'null': 7}"),
])
def test_each_loader_error_has_its_exact_text(doc, message):
    with pytest.raises(SchemaError) as err:
        loads_instance(json.dumps(doc, sort_keys=True))
    assert str(err.value) == message


def test_loader_accepts_inf_and_ignores_metadata():
    doc = {
        "kind": "concrete",
        "horizon": 99,
        "relations": {"R": {"attributes": ["a", "time"],
                            "facts": [{"values": ["x"], "interval": {"start": 1, "end": "inf"}}]}},
    }
    inst = loads_instance(json.dumps(doc))
    assert inst.facts == {fact("R", "x", time=iv(1, INF))}


class _Row(dict):
    pass


@pytest.mark.parametrize("kind, time, value", [
    ("concrete", {"interval": {"start": 1, "end": "inf"}}, _Str("x")),
    ("concrete", {"interval": {"start": _Int(1), "end": _Int(4)}}, "x"),
    ("abstract", {"time": 3}, {"null": _Str("N")}),
    ("abstract", {"time": _Int(3)}, "x"),
    ("abstract", {"time": 3}, "x"),
])
def test_a_code_built_document_is_read_by_the_general_rules(kind, time, value):
    """A row that is a ``dict`` subclass, or holds a ``str`` or ``int``
    subclass, is read as the general rules read it, each subclass as the
    value of its class, so the instance is well formed and born checked."""
    doc = {"kind": kind, "relations": {"R": {"attributes": ["a", "time"], "facts": [
        {"values": ["y"], **time}, _Row(values=[value], **time)]}}}
    inst = instance_from_json(doc)
    assert inst == rowwise_instance_from_json(doc)
    assert inst.__dict__.get("_checked") is True
    assert validate_instance(inst) == []
    times = [f.time for f in inst.facts]
    assert {type(p) for t in times for p in (t if isinstance(t, tuple) else (t,)) if p != INF} == {int}


def _named(name, attributes):
    """A one-fact abstract document of relation ``name``."""
    return {"kind": "abstract", "relations": {name: {"attributes": attributes, "facts": [
        {"values": ["x"], "time": 0}]}}}


def test_a_code_built_name_is_read_as_its_str_and_any_other_name_is_refused():
    """JSON text cannot hold a key that is not a string; a code-built
    document can."""
    inst = instance_from_json(_named(_Str("R"), [_Str("a"), "t"]))
    assert inst == instance_from_json(_named("R", ["a", "t"])) == rowwise_instance_from_json(_named("R", ["a", "t"]))
    assert [type(n) for r in inst.schema for n in (r.name, *r.all_attributes)] == [str, str, str]
    assert {type(f.relation) for f in inst.facts} == {str}
    assert dumps_instance(inst) == json_dumps_instance(inst)
    for doc, message in [(_named(5, ["a", "t"]), "relation 5: name must be a string"),
                         (_named(None, ["a", "t"]), "relation None: name must be a string"),
                         (_named("R", ["a", 5]), "relation 'R': \"attributes\" must be a non-empty list of names")]:
        for read in (instance_from_json, rowwise_instance_from_json):
            with pytest.raises(SchemaError) as err:
                read(doc)
            assert str(err.value) == message


def _concrete_instance(rows) -> Instance:
    """Facts of one value each: an upper-case value is a null of that label,
    a lower-case one a constant."""
    facts = []
    for name, value, start, length in rows:
        time = iv(start, INF if length is None else start + length)
        facts.append(Fact(name, (Null(value) if value.isupper() else c(value),), time))
    return Instance.concrete([rel("R", "a"), rel("S", "b")], facts)


concrete_instances = st.builds(
    _concrete_instance,
    st.lists(st.tuples(st.sampled_from(["R", "S"]), st.sampled_from(["x", "y", "N", "M"]),
                       st.integers(0, 12), st.one_of(st.none(), st.integers(1, 6))),
             max_size=6),
)


@given(concrete_instances)
def test_normalization_properties(inst):
    out = normalize_instance(inst)
    assert is_normalized(out)
    horizon = (max_finite_endpoint(inst) or 0) + 2
    assert expand_instance_by_points(out, horizon) == expand_instance_by_points(inst, horizon)
    assert sem_instance(out, horizon) == sem_instance(inst, horizon)
    assert normalize_instance(out) == out


@given(concrete_instances)
def test_normalize_splits_like_split_interval(inst):
    grid = build_grid(f.time for f in inst.facts)
    assert normalize_instance(inst).facts == {
        Fact(f.relation, f.values, piece)
        for f in inst.facts for piece in split_interval(f.time, grid)}


def test_normalize_instance_stops_when_splitting_adds_more_than_its_limit(monkeypatch):
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 2)
    # 3 facts make 5 fragments, 2 more than the facts
    at_limit = Instance.concrete([rel("R", "a")], [fact("R", "a", time=iv(0, 2)),
                                                   Fact("R", (Null("N"),), iv(1, INF)),
                                                   fact("R", "b", time=iv(2, INF))])
    assert len(normalize_instance(at_limit).facts) == 5
    with pytest.raises(PreconditionError, match="would split 4 facts into 10 fragments, 6 more than the facts, "
                                                "above the limit of 2"):
        normalize_instance(at_limit.replace_facts(at_limit.facts | {fact("R", "c", time=iv(0, 4))}))


def test_a_normalized_instance_of_any_size_passes_the_fragment_limit(monkeypatch):
    """A source whose rule's join blocks need a cut is refused above the
    limit; its normalization, whose blocks need none, passes, with the same
    coalesced result."""
    m = parse_mapping("source A(n, c, @t).\nsource B(n, p, @t).\ntarget E(n, c, p, @t).\n"
                      "rule A(n, c, t), B(n, p, t) -> E(n, c, p, t).\n")
    rng = random.Random(5)
    facts = []
    for i in range(30):
        start = rng.randrange(10)
        facts += [fact("A", f"p{i}", "acme", time=iv(start, start + rng.randint(2, 6))),
                  fact("B", f"p{i}", "dev", time=iv(rng.randrange(start + 1), INF))]
    src = Instance.concrete(m.source, facts)
    normalized = normalize_instance(src)
    expected = chase(src, m)
    assert isinstance(expected, Success) and len(expected.instance.facts) == 30
    assert len(normalized.facts) > len(src.facts) > 0
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 0)
    assert normalize_instance(normalized) is normalized
    assert chase(normalized, m) == expected
    with pytest.raises(PreconditionError, match="above the limit of 0"):
        chase(src, m)


def test_normalize_rejects_a_mis_annotated_null_of_an_unsplit_fact():
    """Split or not, a (label, time) pair in place of a null is the error
    ``sem_instance`` raises, not a null to re-time."""
    unsplit = Instance.concrete([rel("R", "a")], [Fact("R", (("N", iv(0, 5)),), iv(0, 2))])
    split = unsplit.replace_facts([Fact("R", (("N", iv(0, 3)),), iv(5, 9)), fact("R", "a", time=iv(7, 9))])
    for inst in (unsplit, split):
        with pytest.raises(SchemaError) as sem_error:
            sem_instance(inst, 9)
        with pytest.raises(SchemaError) as normalize_error:
            normalize_instance(inst)
        assert str(normalize_error.value) == str(sem_error.value)
    assert str(normalize_error.value) == (
        "Fact(relation='R', values=(('N', ClopenInterval(start=0, end=3)),), time=ClopenInterval(start=5, end=9)): "
        "values[0] must be a str or a Null, got tuple ('N', ClopenInterval(start=0, end=3))")


def _generated_instances(seed: int, count: int):
    """Seeded sources of ``tests/generators.py`` and what the engine makes of
    them, in both views: the source, its normalization and ``sem``, and the
    chase result of each view when the chase succeeds."""
    rng = random.Random(seed)
    for _ in range(count):
        case = random_case(rng, with_queries=False)
        abstract = sem_instance(case.source, case.horizon)
        yield from (case.source, normalize_instance(case.source), abstract)
        for src in (case.source, abstract):
            try:
                out = chase(src, case.mapping)
            except KeyNullViolation:
                continue
            if isinstance(out, Success):
                yield out.instance


def test_writer_matches_json_dumps_on_fixtures_and_generated_instances(example1):
    views = set()
    for path in sorted(FIXTURES.glob("*.json")):
        inst = load_fixture_instance(path.name)
        assert dumps_instance(inst) == json_dumps_instance(inst), path.name
        views.add(inst.kind)
    for inst in _generated_instances(seed=7, count=60):
        assert dumps_instance(inst) == json_dumps_instance(inst), inst
        views.add(inst.kind)
        if inst.kind == "concrete":
            horizon = (max_finite_endpoint(inst) or 0) + 1
            expanded = sem_instance(inst, horizon)
            assert dumps_instance(expanded, horizon) == json_dumps_instance(expanded, horizon)
    # at bench scale, where an abstract instance repeats each values tuple at up to 17 points:
    # the seed-1 inputs of every workload at 4S, their sem and its chase
    bench = bench_workloads()
    for workload in bench.WORKLOADS.values():
        sc = workload.generate(workload.sizes[2], random.Random("1:2"))
        abstract = sem_instance(instance_from_json(bench.concrete_doc(bench.EXAMPLE1_SOURCE, sc.source)), sc.horizon)
        assert dumps_instance(abstract, sc.horizon) == json_dumps_instance(abstract, sc.horizon), workload.name
        out = chase(abstract, example1).instance
        assert dumps_instance(out) == json_dumps_instance(out), workload.name
    assert views == {"concrete", "abstract"}


def test_writer_matches_json_dumps_on_edge_cases():
    awkward = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Zoë, Ωmega, 日本",
               "line\u2028para\u2029", "emoji \U0001f600", ""]
    names = awkward[:4]
    schema = [rel(name, "a", "b") for name in names] + [rel("Empty", "x"), rel("Nullary")]
    facts = [fact(name, awkward[i + 1], Null(awkward[i + 2]), time=iv(0, INF))
             for i, name in enumerate(names)]
    facts += [fact("Nullary", time=iv(3, 4)), fact("Nullary", time=iv(1, INF))]
    cases = [
        Instance.concrete([], []),
        Instance.abstract([], []),
        Instance.concrete([rel("Empty", "x")], []),
        Instance.concrete(schema, facts),
        Instance.abstract([rel("Nullary")], [fact("Nullary", time=0), fact("Nullary", time=10)]),
        Instance.concrete([rel("R", *awkward[:3], temporal=awkward[3])],
                          [fact("R", *awkward[4:7], time=iv(2, 9))]),
    ]
    for inst in cases:
        assert dumps_instance(inst) == json_dumps_instance(inst), inst
        assert dumps_instance(inst, 12) == json_dumps_instance(inst, 12), inst
    assert '"values": []' in dumps_instance(cases[3])
    assert '"end": "inf"' in dumps_instance(cases[3])


intervals = st.builds(lambda s, length: iv(s, INF if length is None else s + length),
                      st.integers(0, 5), st.one_of(st.none(), st.integers(1, 3)))
times = st.one_of(st.integers(0, 5), intervals)
labels = st.sampled_from(["N1", "N2", "M"])
values = st.one_of(st.builds(c, st.text(max_size=3)), st.builds(Null, labels))
_SCHEMA = (rel("R", "a", "b"), rel("S", "a"), rel("T"))


@st.composite
def well_formed_instances(draw):
    """A well-formed instance of either kind: over its core facts, a
    constant and a null at one position, nulls that share a label, and
    (concrete) intervals with ``inf`` ends, and a null-holding tuple and
    the nullary one each at two times; then drawn facts of every relation,
    each value a constant or a null, each values tuple held at one or more
    drawn times, as an abstract view holds it at each point."""
    kind = draw(st.sampled_from(["concrete", "abstract"]))
    t1, t2 = (iv(2, INF), iv(0, 3)) if kind == "concrete" else (3, 0)
    facts = [fact("R", "a", Null("N1"), time=t1), fact("R", "a", "N1", time=t1), fact("R", "a", Null("N1"), time=t2),
             fact("R", Null("N1"), "b", time=t2), fact("S", Null("N2"), time=t1), fact("T", time=t2),
             fact("T", time=t1)]
    for relation, arity in draw(st.lists(st.sampled_from([("R", 2), ("S", 1), ("T", 0)]), max_size=10)):
        cells = draw(st.lists(st.one_of(st.sampled_from(["", "M", "N1", "b"]), st.builds(Null, labels)),
                              min_size=arity, max_size=arity))
        for t in draw(st.lists(intervals if kind == "concrete" else st.integers(0, 5), min_size=1, max_size=4)):
            facts.append(Fact(relation, tuple(cells), t))
    return Instance(kind, _SCHEMA, facts)


@given(well_formed_instances())
def test_well_formed_facts_sort_natively_in_the_reference_order(inst):
    assert validate_instance(inst) == []
    assert sorted(inst.facts) == sorted(inst.facts, key=fact_sort_key)


@given(well_formed_instances(), st.one_of(st.none(), st.integers(0, 99)))
def test_writers_write_well_formed_instances_as_the_oracle_does(inst, horizon):
    assert dumps_instance(inst, horizon) == json_dumps_instance(inst, horizon)
    assert tdx.model.instance_to_json(inst) == instance_doc(inst)


@given(st.lists(st.builds(Fact, st.sampled_from(["R", "S", "Ghost"]),
                          st.lists(values, max_size=3).map(tuple), times), max_size=12),
       st.sampled_from(["concrete", "abstract"]), st.one_of(st.none(), st.integers(0, 99)))
def test_writers_refuse_ill_formed_instances_with_the_first_problem(facts, kind, horizon):
    """Facts of mixed arity and time kinds, nulls, and a
    relation outside the schema: both writers refuse what ``validate_instance``
    reports first, and write the oracle's text for a draw that is well formed."""
    inst = Instance(kind, _SCHEMA, frozenset(facts))
    problems = validate_instance(inst)
    if not problems:
        assert dumps_instance(inst, horizon) == json_dumps_instance(inst, horizon)
        return
    for write in (lambda i: dumps_instance(i, horizon), tdx.model.instance_to_json):
        with pytest.raises(SchemaError) as err:
            write(inst)
        assert str(err.value) == problems[0].message
