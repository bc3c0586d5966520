import random
from dataclasses import replace

import pytest

import tdx.mapping_lang
import tdx.query
from tdx import (
    Atom,
    Instance,
    Mapping,
    ParseError,
    RelationSchema,
    SchemaError,
    SttTgd,
    Tkc,
    Ucq,
    Var,
    certain,
    chase,
    naive_eval,
    parse_mapping,
    sem_instance,
    st_round_abstract,
    st_round_concrete,
    validate_mapping,
)

from generators import random_mapping, render_mapping
from helpers import fact, iv, rel


def test_parse_running_example(example1):
    assert [r.name for r in example1.source] == ["Employee1", "Employee2"]
    assert [r.name for r in example1.target] == ["Emp", "Sal"]
    assert len(example1.sttgds) == 2
    first = example1.sttgds[0]
    assert first.lhs == (Atom("Employee1", (Var("n"), Var("c")), "t"),)
    assert first.rhs == (
        Atom("Emp", (Var("n"), Var("p"), Var("c")), "t"),
        Atom("Sal", (Var("n"), Var("p"), Var("s")), "t"),
    )
    assert first.existentials == {"p", "s"}
    assert len(example1.tkcs) == 2
    emp_key = example1.tkcs[0]
    assert emp_key == Tkc("Emp", frozenset({"name", "time"}))
    assert {q.name for q in example1.queries} == {"positions", "paid_positions"}
    assert validate_mapping(example1) == []


def test_parse_constants_and_disjuncts():
    text = """
source Log(event, @t).
target Out(event, level, @t).
rule Log(e, t) -> Out(e, 'info', t).
query q(e, t) :- Out(e, 'info', t).
query q(e, t) :- Out(e, 'warn', t).
"""
    m = parse_mapping(text)
    assert m.sttgds[0].rhs[0].args == (Var("e"), "info")
    (q,) = m.queries
    assert len(q.disjuncts) == 2
    assert q.columns == ("e", "t")


def expect_error(text, needle, line, column):
    with pytest.raises(ParseError) as err:
        parse_mapping(text)
    assert needle in str(err.value), str(err.value)
    assert (err.value.line, err.value.column) == (line, column), str(err.value)


DECLS = "source A(x, @t).\ntarget B(x, y, @t).\n"


def test_parse_errors_carry_locations():
    expect_error(DECLS + "rule A(n, t) -> B(n, ?p, u).",
                 "share one temporal variable", 3, 26)
    expect_error(DECLS + "key B(x, y, @t).", "at least one dependent", 3, 16)
    expect_error(DECLS + "rule A(n, t) -> B(n, q, t).", "not bound on the left", 3, 22)
    expect_error(DECLS + "rule A(?e, t) -> B(e, e, t).", "only allowed", 3, 8)
    expect_error(DECLS + "rule B(x, y, t) -> B(x, y, t).", "cannot be used here", 3, 6)
    expect_error(DECLS + "rule A(n, t) -> B(n, t, t).", "value position", 3, 22)
    expect_error(DECLS + "rule A(n, t) -> B(n, 'x', 't').", "plain variable", 3, 27)
    expect_error(DECLS + "source A(z, @t).", "already declared", 3, 1)
    expect_error(DECLS + "rule A(n, t) -> C(n, n, t).", "unknown target relation", 3, 17)
    expect_error(DECLS + "key B(z, @t).", "unknown attribute", 3, 7)
    expect_error(DECLS + "key B(x, t).", "write the temporal attribute as @t", 3, 10)
    expect_error(DECLS + "key B(x, @u).", "the temporal attribute of 'B' is 't'", 3, 11)
    expect_error(DECLS + "key A(@t).", "source relation", 3, 5)
    expect_error(DECLS + "query q(x, t) :- A(x, t).", "target relation is required", 3, 18)
    expect_error(DECLS + "query q(h, t) :- B(x, y, t).", "does not occur in the body", 3, 9)
    expect_error(DECLS + "query q(x, t) :- B(x, ?y, t).", "'?' markers are not allowed", 3, 23)
    expect_error(DECLS + "query q(x, x, t) :- B(x, y, t).", "duplicate head variable 'x'", 3, 12)
    expect_error(DECLS + "query q(x, t) :- B(x, y, t).\nquery q(y, t) :- B(y, x, t).",
                 "different head", 4, 1)
    expect_error(DECLS + "rule A(n, t) -> B(n, 'x, t).", "unterminated constant", 3, 22)
    expect_error(DECLS + "rule A(n, t) -> B(n, y, t)", "expected '.'", 3, 27)
    expect_error(DECLS + "bogus A(x, @t).", "expected one of", 3, 1)
    expect_error("source A(x).\n", "must declare a temporal attribute", 1, 12)
    expect_error("source A(@t, x).\n", "must be last", 1, 14)
    expect_error("source A(x, x, @t).\n", "duplicate attribute", 1, 13)
    expect_error(DECLS + "key B(@t, x).", "the temporal attribute must be last", 3, 11)


def test_existential_marker_hint():
    expect_error(DECLS + "rule A(n, t) -> B(n, ?p, t), B(n, p, t).",
                 "write it as ?p at every occurrence", 3, 35)


def test_temporal_only_key_is_permitted():
    m = parse_mapping("target B(x, @t).\nkey B(@t).")
    assert m.tkcs == (Tkc("B", frozenset({"t"})),)


def test_validate_mapping_detects_structural_defects():
    a, b = rel("A", "x", temporal="t"), rel("B", "x", "y", temporal="t")
    unsafe = Mapping((a,), (b,), (SttTgd(
        (Atom("A", (Var("n"),), "t"),),
        (Atom("B", (Var("n"), Var("m")), "t"),),
        frozenset()),), (), ())
    assert [v.code for v in validate_mapping(unsafe)] == ["unsafe-variable"]
    unsafe_twice = Mapping((a,), (b,), (SttTgd(
        (Atom("A", (Var("n"),), "t"),),
        (Atom("B", (Var("m"), Var("m")), "t"),),
        frozenset()),), (), ())
    assert [v.code for v in validate_mapping(unsafe_twice)] == ["unsafe-variable"]

    query_on_source = Mapping((a,), (b,), (), (), (
        Ucq("q", ("x",), "t", ((Atom("A", (Var("x"),), "t"),),)),))
    assert [v.code for v in validate_mapping(query_on_source)] == ["wrong-schema-side"]

    bad_key = Mapping((a,), (b,), (), (Tkc("B", frozenset({"x", "y", "t"})),), ())
    assert "key-violation" in [v.code for v in validate_mapping(bad_key)]

    dangling = Mapping((a,), (b,), (SttTgd(
        (Atom("A", (Var("n"),), "t"),),
        (Atom("B", (Var("n"), Var("n")), "t"),),
        frozenset({"ghost"})),), (), ())
    assert [v.code for v in validate_mapping(dangling)] == ["existential-variable"]


_B = rel("B", "x", "y", temporal="t")
_Q = Ucq("q", ("x",), "t", ((Atom("B", (Var("x"), Var("y")), "t"),),))


# Defects that only a code-built mapping can hold, so the parser has no text
# for them: it writes a key's temporal attribute, names the relation it
# declares twice by another message, and merges the disjuncts of two queries
# of one name.
@pytest.mark.parametrize("target, tkcs, queries, expected", [
    ((_B,), (Tkc("C", frozenset({"x", "t"})),), (),
     [("unknown-relation", "key #0 on 'C': unknown target relation 'C'")]),
    ((_B,), (Tkc("B", frozenset({"x"})),), (),
     [("key-violation", "key #0 on 'B': a temporal key must include @t")]),
    ((_B, rel("A", "z", temporal="t")), (), (),
     [("duplicate-relation", "relation 'A' declared more than once")]),
    ((_B,), (), (_Q, _Q), [("duplicate-query", "query 'q': name used by more than one query")]),
], ids=["unknown key relation", "key without its time", "duplicate relation", "duplicate query"])
def test_validate_mapping_lists_the_defects_only_code_can_build(target, tkcs, queries, expected):
    m = Mapping((rel("A", "x", temporal="t"),), target, (), tkcs, queries)
    assert [(v.code, v.message) for v in validate_mapping(m)] == expected


def test_rule_with_an_empty_left_hand_side_is_a_violation():
    a, b = rel("A", "x", temporal="t"), rel("B", "x", temporal="t")
    headless = Mapping((a,), (b,), (SttTgd((), (Atom("B", ("c",), "t"),), frozenset()),), (), ())
    assert [(v.code, v.message) for v in validate_mapping(headless)] == [
        ("empty-side", "rule #0: the left-hand side has no atoms")]
    bare = Mapping((a,), (b,), (SttTgd((), (), frozenset()),), (), ())
    assert [v.code for v in validate_mapping(bare)] == ["empty-side"]


def test_query_with_an_empty_disjunct_is_a_violation(example1):
    empty = Ucq("e", (), "t", ((),))
    m = Mapping(example1.source, example1.target, (), (), (empty,))
    assert [(v.code, v.message) for v in validate_mapping(m)] == [
        ("empty-side", "query 'e': disjunct #0 has no atoms")]
    either = Ucq("e", (), "t", ((Atom("Emp", (Var("n"), Var("p"), Var("c")), "t"),), ()))
    assert [v.message for v in validate_mapping(replace(m, queries=(either,)))] == [
        "query 'e': disjunct #1 has no atoms"]


def _rule(lhs, rhs, existentials=()):
    return SttTgd(lhs, rhs, frozenset(existentials))


_A = (Atom("A", (Var("n"),), "t"),)
CODE_BUILT_DEFECTS = {
    "unknown target relation": ((_rule(_A, (Atom("C", (Var("n"), Var("n")), "t"),)),), ()),
    "wrong side": ((_rule(_A, (Atom("A", (Var("n"),), "t"),)),), ()),
    "arity": ((_rule(_A, (Atom("B", (Var("n"),), "t"),)),), ()),
    "second temporal variable": ((_rule(_A, (Atom("B", (Var("n"), Var("n")), "u"),)),), ()),
    "temporal variable as a value": ((_rule(_A, (Atom("B", (Var("n"), Var("t")), "t"),)),), ()),
    "existential on the left": ((_rule(_A, (Atom("B", (Var("n"), Var("n")), "t"),), {"n"}),), ()),
    "unbound variable": ((_rule(_A, (Atom("B", (Var("n"), Var("m")), "t"),)),), ()),
    "head variable missing from the body":
        ((), (Ucq("q", ("h",), "t", ((Atom("B", (Var("x"), Var("y")), "t"),),)),)),
    "query on a source relation": ((), (Ucq("q", ("x",), "t", ((Atom("A", (Var("x"),), "t"),),)),)),
}


@pytest.mark.parametrize("defect", sorted(CODE_BUILT_DEFECTS))
def test_parser_and_validate_mapping_agree(defect):
    sttgds, queries = CODE_BUILT_DEFECTS[defect]
    m = Mapping((rel("A", "x", temporal="t"),), (rel("B", "x", "y", temporal="t"),),
                sttgds, (), queries)
    first = validate_mapping(m)[0].message
    with pytest.raises(ParseError) as err:
        parse_mapping(render_mapping(m))
    assert err.value.message == first.split(": ", 1)[1]


def test_a_duplicate_attribute_is_refused_by_the_relation_and_located_by_the_parser():
    """A relation whose attribute names repeat, the temporal one among them,
    cannot be built, and the parser refuses the first repeated name at its
    token."""
    for attributes, temporal in ((("x", "x"), "t"), (("a", "t"), "t")):
        with pytest.raises(SchemaError, match="^relation 'S': duplicate attribute name$"):
            RelationSchema("S", attributes, temporal)
    expect_error("source A(x, x, @t).\n", "duplicate attribute 'x'", 1, 13)
    expect_error("target T(a, t, @t).\n", "duplicate attribute 't'", 1, 17)


_S, _T = rel("S", "a", temporal="t"), rel("T", "a", "b", temporal="t")
_SX = (Atom("S", (Var("x"),), "t"),)
# Code-built rules and queries that the engine once crashed on (KeyError,
# TypeError), answered with facts outside the target schema, or answered
# with a Success that ``validate_instance`` faults (a head constant 5), each
# with the code of the first problem ``validate_mapping`` lists.
ENGINE_PROBES = {
    "rhs variable neither bound nor existential":
        ((_SX, (Atom("T", (Var("x"), Var("z")), "t"),)), "unsafe-variable"),
    "rhs atom over another temporal variable":
        ((_SX, (Atom("T", (Var("x"), Var("x")), "u"),)), "temporal-variable"),
    "head variable missing from the body":
        (Ucq("q", ("x", "z"), "t", ((Atom("T", (Var("x"), Var("y")), "t"),),)), "head-variable"),
    "rhs atom of the wrong arity": ((_SX, (Atom("T", (Var("x"),), "t"),)), "arity-mismatch"),
    "rhs atom outside the target schema": ((_SX, (Atom("U", (Var("x"),), "t"),)), "unknown-relation"),
}
# Code-built terms that the engine once crashed on, or answered with a
# Success that ``validate_instance`` faults (a head constant 5); each part
# now refuses a field of another class where it is made.
CLASS_PROBES = {
    "rhs constant that is not a str": (lambda: Atom("T", (Var("x"), 5), "t"), "Atom: args[1] must be a Var or a str, got int 5"),
    "temporal variable that is not a str": (lambda: Atom("S", (Var("x"),), 5), "Atom: time_var must be a str, got int 5"),
    "variable named by an int": (lambda: Var(0), "Var: name must be a str, got int 0"),
    "query atom whose args are a list": (lambda: Atom("T", [Var("x"), Var("y")], "t"),
                                         "Atom: args must be a tuple, got list [Var(name='x'), Var(name='y')]"),
}


@pytest.mark.parametrize("probe", sorted(CLASS_PROBES))
def test_a_term_of_another_class_is_refused_where_it_is_made(probe):
    build, message = CLASS_PROBES[probe]
    with pytest.raises(SchemaError) as err:
        build()
    assert str(err.value) == message


@pytest.mark.parametrize("probe", sorted(ENGINE_PROBES))
def test_the_engine_refuses_a_code_built_mapping_with_the_first_problem_validate_mapping_lists(probe):
    """``chase``, ``certain``, ``naive_eval`` and the dependency rounds, in
    both views, refuse a rule or query that ``validate_mapping`` faults, as
    ``SchemaError`` with its first problem."""
    statement, code = ENGINE_PROBES[probe]
    concrete = Instance.concrete([_S], [fact("S", "a", time=iv(0, 2))])
    sources = (concrete, sem_instance(concrete, 2))
    if isinstance(statement, Ucq):
        m = Mapping((_S,), (_T,), (SttTgd(_SX, (Atom("T", (Var("x"), Var("x")), "t"),), frozenset()),), (), (statement,))
        targets = {inst.kind: inst for inst in (Instance.concrete([_T], [fact("T", "a", "a", time=iv(0, 2))]),
                                                Instance.abstract([_T], [fact("T", "a", "a", time=0)]))}
        runs = [lambda src: certain(statement, src, m), lambda src: naive_eval(statement, targets[src.kind])]
    else:
        m = Mapping((_S,), (_T,), (SttTgd(*statement, frozenset()),), (), ())
        runs = [lambda src: chase(src, m),
                lambda src: (st_round_concrete if src.kind == "concrete" else st_round_abstract)(src, m.sttgds, m.target)]
    first = validate_mapping(m)[0]
    assert first.code == code
    for src in sources:
        for run in runs:
            with pytest.raises(SchemaError) as err:
                run(src)
            assert str(err.value) == first.message


_TP = (_SX, (Atom("T", (Var("x"), Var("p")), "t"),))
# Code-built rules and keys on which ``validate_mapping`` and ``chase`` once
# raised TypeError (sorting a set that mixes classes), each refused where
# it is made.
NAME_PROBES = {
    "existentials that are a list":
        (lambda: SttTgd(*_TP, ["p"]), "SttTgd: existentials must be a frozenset, got list ['p']"),
    "existentials that mix classes":
        (lambda: SttTgd(*_TP, frozenset({0, "p"})), "SttTgd: existentials member must be a str, got int 0"),
    "key that mixes classes": (lambda: Tkc("T", frozenset({0, "zz"})), "Tkc: key member must be a str, got int 0"),
    "key that is a list": (lambda: Tkc("T", ["a", "t"]), "Tkc: key must be a frozenset, got list ['a', 't']"),
}


@pytest.mark.parametrize("probe", sorted(NAME_PROBES))
def test_names_that_are_not_a_set_of_str_are_refused_where_they_are_made(probe):
    build, message = NAME_PROBES[probe]
    with pytest.raises(SchemaError) as err:
        build()
    assert str(err.value) == message


def _first(collection, **fields):
    """``collection`` with its first statement's fields replaced."""
    return (replace(collection[0], **fields), *collection[1:])


# One field of example1's parsed mapping replaced by a value of another class,
# on which ``validate_mapping`` or ``chase`` once raised TypeError or
# AttributeError, each refused by the part it is a field of, where that is
# made again.
FIELD_PROBES = {
    "Mapping.source": (lambda m: replace(m, source=None), "Mapping: source must be a tuple, got NoneType None"),
    "Mapping.target": (lambda m: replace(m, target=["x"]), "Mapping: target must be a tuple, got list ['x']"),
    "Mapping.sttgds": (lambda m: replace(m, sttgds=5), "Mapping: sttgds must be a tuple, got int 5"),
    "Mapping.tkcs": (lambda m: replace(m, tkcs=frozenset({"x"})),
                     "Mapping: tkcs must be a tuple, got frozenset frozenset({'x'})"),
    "Mapping.queries": (lambda m: replace(m, queries=("x",)), "Mapping: queries[0] must be a Ucq, got str 'x'"),
    "SttTgd.lhs": (lambda m: replace(m, sttgds=_first(m.sttgds, lhs=None)),
                   "SttTgd: lhs must be a tuple, got NoneType None"),
    "SttTgd.rhs": (lambda m: replace(m, sttgds=_first(m.sttgds, rhs=b"x")), "SttTgd: rhs must be a tuple, got bytes b'x'"),
    "Tkc.relation": (lambda m: replace(m, tkcs=_first(m.tkcs, relation=["x"])),
                     "Tkc: relation must be a str, got list ['x']"),
    "Ucq.head": (lambda m: replace(m, queries=_first(m.queries, head=5)), "Ucq: head must be a tuple, got int 5"),
    "Ucq.disjuncts": (lambda m: replace(m, queries=_first(m.queries, disjuncts=("x",))),
                      "Ucq: disjuncts[0] must be a tuple, got str 'x'"),
    "Atom.relation": (lambda m: replace(m, sttgds=_first(m.sttgds, lhs=_first(m.sttgds[0].lhs, relation={"a": 1}))),
                      "Atom: relation must be a str, got dict {'a': 1}"),
    "RelationSchema.name": (lambda m: replace(m, source=_first(m.source, name=[])),
                            "RelationSchema: name must be a str, got list []"),
    "RelationSchema.attributes": (lambda m: replace(m, source=_first(m.source, attributes=1.5)),
                                  "RelationSchema: attributes must be a tuple, got float 1.5"),
    "RelationSchema.temporal": (lambda m: replace(m, target=_first(m.target, temporal=None)),
                                "RelationSchema: temporal must be a str, got NoneType None"),
}


@pytest.mark.parametrize("probe", sorted(FIELD_PROBES))
def test_a_field_of_another_class_is_refused_where_it_is_made(probe, example1):
    build, message = FIELD_PROBES[probe]
    with pytest.raises(SchemaError) as err:
        build(example1)
    assert str(err.value) == message


def test_validate_mapping_and_the_engine_refuse_what_is_not_a_mapping(fig1):
    """The root is the one part no constructor checked."""
    problems = validate_mapping(("x",))
    assert [(p.code, p.message) for p in problems] == [("wrong-class", "mapping: must be a Mapping, got tuple ('x',)")]
    with pytest.raises(SchemaError) as err:
        chase(fig1, ("x",))
    assert str(err.value) == problems[0].message


def test_a_parsed_mapping_is_checked_once(example1, fig1, monkeypatch):
    """The parser refused the first problem of each statement, so no command
    checks a parsed mapping again; a copy built in code is checked on its
    first call, and then marked checked too.  A query, parsed or not, is
    checked once per ``naive_eval``, as a query over the schema of the
    instance it reads."""
    calls = []
    check, check_query = tdx.mapping_lang.validate_mapping, tdx.mapping_lang._query_problems
    monkeypatch.setattr(tdx.mapping_lang, "validate_mapping", lambda m: calls.append(m) or check(m))
    for module in (tdx.mapping_lang, tdx.query):
        monkeypatch.setattr(module, "_query_problems",
                            lambda q, source, target: calls.append((q, source, target)) or check_query(q, source, target))
    q = example1.query("positions")
    certain(q, fig1, example1)
    assert calls == [(q, {}, example1.target_by_name)]
    copy = replace(example1)
    in_the_mapping = [copy, *((u, copy.source_by_name, copy.target_by_name) for u in copy.queries)]
    for first in (True, False):
        calls.clear()
        certain(replace(q), fig1, copy)
        assert calls == in_the_mapping * first + [(q, {}, example1.target_by_name)]


def test_render_round_trip_running_example(example1, example3):
    assert parse_mapping(render_mapping(example1)) == example1
    assert parse_mapping(render_mapping(example3)) == example3


@pytest.mark.parametrize("seed", range(40))
def test_render_round_trip_random_mappings(seed):
    m = random_mapping(random.Random(seed))
    rendered = render_mapping(m)
    again = parse_mapping(rendered)
    assert again == m
    # every parsed dependency shares a single temporal variable
    for dep in again.sttgds:
        assert len({a.time_var for a in (*dep.lhs, *dep.rhs)}) == 1
