import random
from dataclasses import replace

import pytest

import tdx.mapping_lang
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
    assert emp_key == Tkc("Emp", frozenset({"name", "time"}), ("position", "company"))
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
    assert m.tkcs == (Tkc("B", frozenset({"t"}), ("x",)),)


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

    bad_key = Mapping((a,), (b,), (), (Tkc("B", frozenset({"x", "y", "t"}), ()),), ())
    assert "key-violation" in [v.code for v in validate_mapping(bad_key)]

    dangling = Mapping((a,), (b,), (SttTgd(
        (Atom("A", (Var("n"),), "t"),),
        (Atom("B", (Var("n"), Var("n")), "t"),),
        frozenset({"ghost"})),), (), ())
    assert [v.code for v in validate_mapping(dangling)] == ["existential-variable"]


_B = rel("B", "x", "y", temporal="t")
_Q = Ucq("q", ("x",), "t", ((Atom("B", (Var("x"), Var("y")), "t"),),))


# Defects that only a code-built mapping can hold, so the parser has no text
# for them: it derives a key's dependents, writes its temporal attribute,
# names the relation it declares twice by another message, and merges the
# disjuncts of two queries of one name.
@pytest.mark.parametrize("target, tkcs, queries, expected", [
    ((_B,), (Tkc("C", frozenset({"x", "t"}), ("y",)),), (),
     [("unknown-relation", "key #0 on 'C': unknown target relation 'C'")]),
    ((_B,), (Tkc("B", frozenset({"x"}), ("y",)),), (),
     [("key-violation", "key #0 on 'B': a temporal key must include @t")]),
    ((_B,), (Tkc("B", frozenset({"x", "t"}), ("x",)),), (),
     [("key-violation", "key #0 on 'B': key and dependents must partition the attributes "
                        "(expected dependents ('y',))")]),
    ((_B, rel("A", "z", temporal="t")), (), (),
     [("duplicate-relation", "relation 'A' declared more than once")]),
    ((_B,), (), (_Q, _Q), [("duplicate-query", "query 'q': name used by more than one query")]),
], ids=["unknown key relation", "key without its time", "dependents that do not partition",
        "duplicate relation", "duplicate query"])
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


def test_parser_and_validate_mapping_agree_on_a_duplicate_attribute():
    """A relation whose attribute names repeat, the temporal one among them,
    is listed once per repeated name, and the parser refuses the first."""
    m = Mapping((RelationSchema("S", ("x", "x"), "t"),), (RelationSchema("T", ("a", "t"), "t"),), (), (), ())
    assert [(v.code, v.message) for v in validate_mapping(m)] == [
        ("duplicate-attribute", "relation 'S': duplicate attribute 'x'"),
        ("duplicate-attribute", "relation 'T': duplicate attribute 't'")]
    with pytest.raises(ParseError) as err:
        parse_mapping(render_mapping(m))
    assert err.value.message == validate_mapping(m)[0].message.split(": ", 1)[1]


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
    "rhs constant that is not a str": ((_SX, (Atom("T", (Var("x"), 5), "t"),)), "not-a-term"),
    "temporal variable that is not a str":
        (((Atom("S", (Var("x"),), 5),), (Atom("T", (Var("x"), Var("x")), 5),)), "not-a-term"),
    "variable named by an int":
        (((Atom("S", (Var(0),), "t"), *_SX), (Atom("T", (Var(0), Var("x")), "t"),)), "not-a-term"),
    "query atom whose args are a list":
        (Ucq("q", ("x",), "t", ((Atom("T", [Var("x"), Var("y")], "t"), Atom("T", (Var("y"), Var("x")), "t")),)),
         "not-a-term"),
}


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
# raised TypeError (sorting a set that mixes classes), each with the
# message of the first problem ``validate_mapping`` lists.
NAME_PROBES = {
    "existentials that are a list":
        (SttTgd(*_TP, ["p"]), None, "rule #0: its existentials must be a frozenset of names, each a str"),
    "existentials that mix classes":
        (SttTgd(*_TP, frozenset({0, "p"})), None, "rule #0: its existentials must be a frozenset of names, each a str"),
    "key that mixes classes": (SttTgd(*_TP, frozenset({"p"})), Tkc("T", frozenset({0, "zz"}), ("b",)),
                               "key #0 on 'T': its key must be a frozenset of names, each a str"),
    "dependents that are a list": (SttTgd(*_TP, frozenset({"p"})), Tkc("T", frozenset({"a", "t"}), ["b"]),
                                   "key #0 on 'T': its dependents must be a tuple of names, each a str"),
}


@pytest.mark.parametrize("probe", sorted(NAME_PROBES))
def test_names_that_are_not_a_set_of_str_are_listed_and_refused(probe):
    rule, key, message = NAME_PROBES[probe]
    m = Mapping((_S,), (_T,), (rule,), () if key is None else (key,), ())
    problems = validate_mapping(m)
    assert [(p.code, p.message) for p in problems] == [("not-a-name", message)]
    concrete = Instance.concrete([_S], [fact("S", "a", time=iv(0, 2))])
    for src in (concrete, sem_instance(concrete, 2)):
        with pytest.raises(SchemaError) as err:
            chase(src, m)
        assert str(err.value) == message


def test_a_parsed_mapping_is_checked_once(example1, fig1, monkeypatch):
    """The parser refused the first problem of each statement, so no command
    checks a parsed mapping again; a copy built in code is checked on its
    first call, and then marked checked too.  A query, parsed or not, is
    checked once per ``naive_eval``, as a query over the schema of the
    instance it reads."""
    calls = []
    check = tdx.mapping_lang.validate_mapping
    monkeypatch.setattr(tdx.mapping_lang, "validate_mapping", lambda m: calls.append(m) or check(m))
    q = example1.query("positions")
    certain(q, fig1, example1)
    assert calls == [Mapping((), example1.target, (), (), (q,))]
    copy = replace(example1)
    for first in (True, False):
        calls.clear()
        certain(replace(q), fig1, copy)
        assert calls == [example1] * first + [Mapping((), example1.target, (), (), (q,))]


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
