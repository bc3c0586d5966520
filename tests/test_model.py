import json
import os
import random
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
    Null,
    PreconditionError,
    SchemaError,
    Success,
    Var,
    answers_sem,
    build_grid,
    certain,
    chase,
    dumps_instance,
    enumerate_formula_homs,
    equivalent,
    find_abstract_hom,
    hom_equivalent,
    is_complete,
    is_normalized,
    is_null,
    loads_instance,
    max_finite_endpoint,
    naive_eval,
    normalize_instance,
    parse_mapping,
    sem_fact,
    sem_instance,
    split_interval,
    validate_instance,
)

import tdx.model

from generators import careers_like, random_case
from helpers import FIXTURES, c, fact, in_order, inull, iv, load_fixture_instance, load_fixture_mapping, pnull, rel
from oracles import expand_instance_by_points, fact_sort_key, instance_doc, json_dumps_instance, value_sort_key


def test_running_example_instance_is_valid(fig1):
    assert validate_instance(fig1) == []
    assert is_complete(fig1)


def test_loaded_nulls_are_annotated_with_their_fact_time():
    seen = set()
    for path in sorted(FIXTURES.glob("*.json")):
        inst = load_fixture_instance(path.name)
        for f in inst.facts:
            for v in f.values:
                if is_null(v):
                    assert type(v) is Null and v.context == f.time, (path.name, str(f))
                    seen.add(inst.kind)
    assert seen == {"concrete", "abstract"}


def test_context_mismatch_is_reported():
    emp = rel("Emp", "name", "position", "company")
    bad = fact("Emp", "Ada", inull("N", 10, 12), "IBM", time=iv(8, 10))
    inst = Instance.concrete([emp], [bad])
    codes = [v.code for v in validate_instance(inst)]
    assert codes == ["context-mismatch"]


def test_kind_violations_are_reported():
    emp = rel("Emp", "name", "position", "company")
    abstract_with_interval_null = Instance.abstract(
        [emp], [fact("Emp", "Ada", inull("N", 8, 10), "IBM", time=8)])
    assert [v.code for v in validate_instance(abstract_with_interval_null)] == ["kind-violation"]
    concrete_with_point_null = Instance.concrete(
        [emp], [fact("Emp", "Ada", pnull("N", 8), "IBM", time=iv(8, 10))])
    assert [v.code for v in validate_instance(concrete_with_point_null)] == ["kind-violation"]


def _positions(inst):
    return naive_eval(load_fixture_mapping("example1.tdx").query("positions"), inst)


def _chase(inst):
    return chase(inst, load_fixture_mapping("example1.tdx"))


def _certain(inst):
    m = load_fixture_mapping("example1.tdx")
    return certain(m.query("positions"), inst, m)


# Every entry point that reads an instance's facts: its name, the fixture it
# reads and a relation of that fixture, and the call.
_ENTRY_POINTS = [
    ("chase-concrete", "fig1.json", "Employee1", _chase),
    ("normalize_instance", "fig1.json", "Employee1", normalize_instance),
    ("is_normalized", "fig1.json", "Employee1", is_normalized),
    ("sem_instance", "fig1.json", "Employee1", lambda i: sem_instance(i, 20)),
    ("naive_eval-concrete", "fig3.json", "Emp", _positions),
    ("chase-abstract", "fig2.json", "Employee1", _chase),
    ("naive_eval-abstract", "fig4.json", "Emp", _positions),
    ("find_abstract_hom", "fig4.json", "Emp", lambda i: find_abstract_hom(i, i)),
    ("hom_equivalent", "fig4.json", "Emp", lambda i: hom_equivalent(i, i)),
    ("equivalent-concrete", "fig1.json", "Employee1", lambda i: equivalent(i, i)),
    ("equivalent-abstract", "fig4.json", "Emp", lambda i: equivalent(i, i)),
    ("certain-concrete", "fig1.json", "Employee1", _certain),
    ("certain-abstract", "fig2.json", "Employee1", _certain),
    ("enumerate_formula_homs", "fig4.json", "Emp",
     lambda i: enumerate_formula_homs([Atom("Emp", (Var("x"), Var("y"), Var("z")), "t")], i)),
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
    first, time, relation, n = {
        "unknown-relation": ("X", at, "Ghost", arity),
        "arity": ("X", at, relation, arity + 1),
        "time-kind": ("X", other_kind, relation, arity),
        "non-value": (5, at, relation, arity),
        "null-context-kind": (Null("N", other_kind), at, relation, arity),
        "context-mismatch": (Null("N", other_time), at, relation, arity),
    }[rule]
    return [Fact(relation, (first, *["X"] * (n - 2), who), time) for who in ("Zed", "Bob")]


_RULES = {"values-str": "not-a-value", "values-int": "not-a-value", "unknown-relation": "unknown-relation",
          "arity": "arity-mismatch", "time-kind": "kind-violation", "non-value": "not-a-value",
          "null-context-kind": "kind-violation", "context-mismatch": "context-mismatch"}
_FACT_RULES = ["values-str", "values-int", "time-kind", "non-value", "null-context-kind", "context-mismatch"]


def _sem_each_fact(inst):
    return [sem_fact(f, 20) for f in sorted(inst.facts, key=tdx.model._offender_key)]


_CONTRACT = [(rule, *entry) for rule in _RULES for entry in _ENTRY_POINTS]
_CONTRACT += [(rule, "sem_fact", "fig1.json", "Employee1", _sem_each_fact) for rule in _FACT_RULES]
_CONTRACT += [(rule, write.__name__, name, "Emp", write) for rule in _RULES
              for write in (dumps_instance, tdx.model.instance_to_json) for name in ("fig3.json", "fig4.json")]


@pytest.mark.parametrize("rule, entry, name, relation, run", _CONTRACT,
                         ids=[f"{rule}-{entry}-{name[:4]}" for rule, entry, name, _, _ in _CONTRACT])
def test_every_entry_point_refuses_what_validate_instance_reports_first(rule, entry, name, relation, run):
    """One bad instance per rule of ``validate_instance``, read by every
    entry point that checks an instance, the writers among them, and by
    ``sem_fact`` for the rules of one fact."""
    inst = load_fixture_instance(name)
    breaking = _breaking(rule, inst.kind, relation, inst.schema_by_name[relation].arity)
    bad = inst.replace_facts(inst.facts | set(breaking))
    first = validate_instance(bad)[0]
    shown = str(breaking[1]) if isinstance(breaking[1].values, tuple) else repr(breaking[1])
    assert first.code == _RULES[rule] and first.message.startswith(f"{shown}: ")
    with pytest.raises(SchemaError) as err:
        run(bad)
    assert str(err.value) == first.message


class _Str(str):
    pass


class _Int(int):
    pass


# Times and values of every class the rules tell apart, each beside a value
# of another class that it equals or hashes like.
_ODD_TIMES = [3, 5, True, _Int(3), -1, 1.5, "s", iv(3, 5), iv(5, 9), (3, 5), None]
_ODD_VALUES = ["x", _Str("x"), 5, (), ("N", 3), *[Null(label, t) for label in ("N", _Str("N"), 7) for t in _ODD_TIMES]]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["concrete", "abstract"]),
       st.lists(st.tuples(st.sampled_from(["R", "S", "Ghost", 5]),
                          st.one_of(st.lists(st.sampled_from(_ODD_VALUES), max_size=3).map(tuple),
                                    st.sampled_from([5, "xy", None])),
                          st.sampled_from(_ODD_TIMES)), max_size=6))
def test_the_instance_check_raises_the_first_problem_validate_instance_reports(kind, rows):
    """The check's screen never passes an instance that breaks a rule, and
    what it raises is the first problem ``validate_instance`` lists."""
    inst = Instance(kind, (rel("R", "a"), rel("S", "a", "b")), [Fact(r, values, t) for r, values, t in rows])
    problems = validate_instance(inst)
    if not problems:
        tdx.model._check_instance(inst)
        return
    with pytest.raises(SchemaError) as err:
        tdx.model._check_instance(inst)
    assert str(err.value) == problems[0].message


def test_each_instance_is_screened_once(example1, monkeypatch):
    """``chase`` screens its source once (``normalize_instance`` reads the
    same instance), and ``certain`` screens the chase result once more."""
    screens = []
    screen = tdx.model._plainly_well_formed
    monkeypatch.setattr(tdx.model, "_plainly_well_formed", lambda *args: screens.append(args) or screen(*args))
    for name in ("fig1.json", "fig2.json"):
        src = load_fixture_instance(name)
        screens.clear()
        assert isinstance(chase(src, example1), Success)
        assert len(screens) == 1
        screens.clear()
        assert certain(example1.query("positions"), src, example1).rows
        assert len(screens) == 2


_TIME_CLASS_PROBE = """
from tdx import (chase, equivalent, find_abstract_hom, hom_equivalent, is_normalized, naive_eval, normalize_instance,
                 sem_instance)
from helpers import fact, load_fixture_instance, load_fixture_mapping

m = load_fixture_mapping("example1.tdx")
positions = m.query("positions")
runs = {
    "chase-concrete": ("fig1.json", "Employee1", lambda i: chase(i, m)),
    "normalize_instance": ("fig1.json", "Employee1", normalize_instance),
    "is_normalized": ("fig1.json", "Employee1", is_normalized),
    "sem_instance": ("fig1.json", "Employee1", lambda i: sem_instance(i, 20)),
    "naive_eval-concrete": ("fig3.json", "Emp", lambda i: naive_eval(positions, i)),
    "chase-abstract": ("fig2.json", "Employee1", lambda i: chase(i, m)),
    "naive_eval-abstract": ("fig4.json", "Emp", lambda i: naive_eval(positions, i)),
    "find_abstract_hom": ("fig4.json", "Emp", lambda i: find_abstract_hom(i, i)),
    "hom_equivalent": ("fig4.json", "Emp", lambda i: hom_equivalent(i, i)),
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
    concrete = "SchemaError: Employee1(Zed0, X, (8, 10)): concrete fact must carry a clopen interval"
    abstract = "SchemaError: Emp(Zed, Zed, Zed, False): abstract fact must carry a finite time point"
    assert runs[0] == [
        *(f"{name} {concrete}" for name in ("chase-concrete", "normalize_instance", "is_normalized",
                                            "sem_instance")),
        "naive_eval-concrete SchemaError: Emp(Zed0, X, X, (8, 10)): concrete fact must carry a clopen interval",
        "chase-abstract SchemaError: Employee1(Zed, Zed, False): abstract fact must carry a finite time point",
        *(f"{name} {abstract}" for name in ("naive_eval-abstract", "find_abstract_hom", "hom_equivalent")),
        f"equivalent-concrete {concrete}",
        f"equivalent-abstract {abstract}",
    ]


def test_a_null_annotated_with_an_equal_time_of_another_class_is_not_annotated_with_it():
    schema = [rel("R", "a")]
    concrete = fact("R", Null("N", (0, 5)), time=iv(0, 5))
    inst = Instance.concrete(schema, [concrete])
    assert [v.code for v in validate_instance(inst)] == ["kind-violation"]
    for run in (lambda: sem_fact(concrete, 9), lambda: sem_instance(inst, 9), lambda: normalize_instance(inst)):
        with pytest.raises(SchemaError, match=r"^R\(N\^\(0, 5\), \[0,5\)\): null N\^\(0, 5\) is not annotated "
                                              r"with the fact's clopen interval$"):
            run()
    abstract = Instance.abstract(schema, [fact("R", Null("N", True), time=1)])
    assert [v.code for v in validate_instance(abstract)] == ["context-mismatch"]
    with pytest.raises(SchemaError, match=r"^R\(N\^True, 1\): null N\^True is not annotated with the fact's "
                                          r"finite time point$"):
        find_abstract_hom(abstract, abstract)


def test_writers_name_the_least_fact_whose_time_or_null_context_is_not_a_value():
    schema = [rel("R", "a")]
    cases = {
        "R(x, True): abstract fact must carry a finite time point":
            [Fact("R", ("x",), True), Fact("R", ("y",), 1.5), fact("R", "z", time=2)],
        "R(N^True, 1): null N^True is not annotated with the fact's finite time point":
            [Fact("R", (Null("N", True),), 1), fact("R", "z", time=2)],
        "R(x, s): abstract fact must carry a finite time point": [Fact("R", ("x",), "s")],
        "R(7^1, 1): Null(label=7, context=1) is not a constant or a null with a string label":
            [Fact("R", (Null(7, 1),), 1), fact("R", "z", time=2)],
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
        with pytest.raises(SchemaError, match=r"^R\(5, 1\): 5 is not a constant or a null with a string label$"):
            write(inst)


def test_validate_instance_reports_a_value_that_is_neither_a_constant_nor_a_null():
    inst = Instance.abstract([rel("R", "a", "b")], [Fact("R", (5, Null(7, 1)), 1), fact("R", "x", "y", time=1)])
    assert [(v.code, v.message) for v in validate_instance(inst)] == [
        ("not-a-value", "R(5, 7^1, 1): 5 is not a constant or a null with a string label"),
        ("not-a-value", "R(5, 7^1, 1): Null(label=7, context=1) is not a constant or a null with a string label"),
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
    interval, null = iv(0, 5), Null("N", 3)
    f = fact("R", "a", null, time=3)
    assert (interval, null, f) == ((0, 5), ("N", 3), ("R", ("a", null), 3))
    assert hash(interval) == hash((0, 5)) and hash(f) == hash(("R", ("a", ("N", 3)), 3))
    assert (len(f), list(null), interval[1]) == (3, ["N", 3], 5)
    assert all(null != x for x in ("N", "N^3", str(null)))
    assert (repr(interval), repr(null), repr(f)) == (
        "ClopenInterval(start=0, end=5)", "Null(label='N', context=3)",
        "Fact(relation='R', values=('a', Null(label='N', context=3)), time=3)")
    assert (str(iv(2014, INF)), str(Null("N", interval)), str(f)) == ("[2014,inf)", "N^[0,5)", "R(a, N^3, 3)")
    assert sorted([iv(2, 3), iv(0, INF), iv(1, 2), interval]) == [interval, iv(0, INF), iv(1, 2), iv(2, 3)]
    for value, field in ((interval, "start"), (null, "label"), (f, "time")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)


def test_values_sort_natively_within_a_kind_and_problems_sort_over_any_objects():
    """Within one kind, values sort natively in canonical order: constants
    before nulls, nulls by label, then context.  ``_any_sort_key`` orders
    mixed kinds (time points, intervals, constants, nulls) and then every
    non-value, ``True`` among them, by its type's name and ``repr``."""
    assert sorted([Null("N", 3), c("N"), Null("M", 9), c(""), Null("N", 1)]) == [
        c(""), c("N"), Null("M", 9), Null("N", 1), Null("N", 3)]
    assert sorted([Null("N", iv(1, 2)), c("Z"), Null("N", iv(0, INF)), Null("N", iv(0, 2))]) == [
        c("Z"), Null("N", iv(0, 2)), Null("N", iv(0, INF)), Null("N", iv(1, 2))]
    null, const = Null("A", 0), c("Z")
    assert (const < null, const <= null, null > const, null >= const) == (True,) * 4
    assert (null < const, null <= const, const > null, const >= null) == (False,) * 4
    values = [Null("N", iv(0, 2)), Null("N", 3), c("N"), iv(0, INF), iv(0, 2), 3, 0, Null("M", 9), True, 1.5, None]
    assert sorted(values, key=tdx.model._any_sort_key) == [
        0, 3, iv(0, 2), iv(0, INF), c("N"), Null("M", 9), Null("N", 3), Null("N", iv(0, 2)), None, True, 1.5]
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


def test_sem_fact_expansion():
    f = fact("Employee1", "Ada", "IBM", time=iv(8, 11))
    assert sem_fact(f, 13) == {
        fact("Employee1", "Ada", "IBM", time=8),
        fact("Employee1", "Ada", "IBM", time=9),
        fact("Employee1", "Ada", "IBM", time=10),
    }
    g = fact("Emp", "Ada", inull("N", 11, 13), "Intel", time=iv(11, 13))
    assert sem_fact(g, 13) == {
        fact("Emp", "Ada", pnull("N", 11), "Intel", time=11),
        fact("Emp", "Ada", pnull("N", 12), "Intel", time=12),
    }
    unbounded = fact("Employee1", "Ada", "Intel", time=iv(2014, INF))
    assert sem_fact(unbounded, 2016) == {
        fact("Employee1", "Ada", "Intel", time=2014),
        fact("Employee1", "Ada", "Intel", time=2015),
    }


def test_sem_fact_rejects_a_mis_annotated_null():
    for null in (inull("N", 10, 12), pnull("N", 8)):
        f = fact("Emp", "Ada", null, "IBM", time=iv(8, 10))
        with pytest.raises(SchemaError, match="is not annotated with the fact's clopen interval"):
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
    for run in (lambda h: sem_instance(empty, h), lambda h: sem_fact(fact("R", "a", time=iv(0, 2)), h),
                lambda h: answers_sem(AnswerSet("q", "concrete", ("a", "t"), frozenset()), h)):
        for horizon in (-1, -5):
            with pytest.raises(InvalidHorizonError, match=rf"^horizon must be a finite time point, got {horizon}$"):
                run(horizon)
    assert sem_instance(empty, 0) == Instance.abstract([rel("R", "a")])


def test_sem_instance_stops_above_its_fact_limit(monkeypatch):
    monkeypatch.setattr(tdx.model, "MAX_SEM_FACTS", 5)
    at_limit = Instance.concrete([rel("R", "a")], [fact("R", "a", time=iv(0, 3)),
                                                   fact("R", "b", time=iv(1, INF))])
    assert len(sem_instance(at_limit, 3).facts) == 5
    with pytest.raises(PreconditionError, match="has 6 facts, more than the limit of 5"):
        sem_instance(at_limit, 4)
    too_long = Instance.concrete([rel("R", "a")], [fact("R", "a", time=iv(0, 10**8))])
    monkeypatch.undo()
    with pytest.raises(PreconditionError, match="has 100000000 facts"):
        sem_instance(too_long, 10**8)


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
        Fact("R", (inull("N", 0, 4),), iv(0, 4)),
        fact("S", "b", time=iv(2, 3)),
    ])
    out = normalize_instance(inst)
    assert out.facts == {
        Fact("R", (inull("N", 0, 2),), iv(0, 2)),
        Fact("R", (inull("N", 2, 3),), iv(2, 3)),
        Fact("R", (inull("N", 3, 4),), iv(3, 4)),
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


def _concrete_instance(rows) -> Instance:
    """Facts of one value each: an upper-case value is a null annotated with
    its fact's interval, a lower-case one a constant."""
    facts = []
    for name, value, start, length in rows:
        time = iv(start, INF if length is None else start + length)
        facts.append(Fact(name, (Null(value, time) if value.isupper() else c(value),), time))
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
        Fact(f.relation, tuple(Null(v.label, piece) if isinstance(v, Null) else v for v in f.values), piece)
        for f in inst.facts for piece in split_interval(f.time, grid)}


def test_normalize_instance_stops_when_splitting_adds_more_than_its_limit(monkeypatch):
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 2)
    # 3 facts make 5 fragments, 2 more than the facts
    at_limit = Instance.concrete([rel("R", "a")], [fact("R", "a", time=iv(0, 2)),
                                                   Fact("R", (inull("N", 1, INF),), iv(1, INF)),
                                                   fact("R", "b", time=iv(2, INF))])
    assert len(normalize_instance(at_limit).facts) == 5
    with pytest.raises(PreconditionError, match="would split 4 facts into 10 fragments, 6 more than the facts, "
                                                "above the limit of 2"):
        normalize_instance(at_limit.replace_facts(at_limit.facts | {fact("R", "c", time=iv(0, 4))}))


def test_a_normalized_instance_of_any_size_passes_the_fragment_limit(monkeypatch, example1):
    src = careers_like(6, example1)
    normalized = normalize_instance(src)
    expected = chase(src, example1)
    assert isinstance(expected, Success)
    assert len(normalized.facts) > len(src.facts) > 0
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 0)
    assert normalize_instance(normalized) is normalized
    assert chase(normalized, example1) == expected
    with pytest.raises(PreconditionError, match="above the limit of 0"):
        chase(src, example1)


def test_normalize_rejects_a_mis_annotated_null_of_an_unsplit_fact():
    """Split or not, a null not annotated with its fact's interval is the
    error ``sem_instance`` raises, not a null to re-annotate."""
    unsplit = Instance.concrete([rel("R", "a")], [Fact("R", (inull("N", 0, 5),), iv(0, 2))])
    split = unsplit.replace_facts([Fact("R", (inull("N", 0, 3),), iv(5, 9)), fact("R", "a", time=iv(7, 9))])
    for inst in (unsplit, split):
        with pytest.raises(SchemaError) as sem_error:
            sem_instance(inst, 9)
        with pytest.raises(SchemaError) as normalize_error:
            normalize_instance(inst)
        assert str(normalize_error.value) == str(sem_error.value)
    assert str(normalize_error.value) == \
        "R(N^[0,3), [5,9)): null N^[0,3) is not annotated with the fact's clopen interval"


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


def test_writer_matches_json_dumps_on_fixtures_and_generated_instances():
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
    assert views == {"concrete", "abstract"}


def test_writer_matches_json_dumps_on_edge_cases():
    awkward = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "Zoë, Ωmega, 日本",
               "line\u2028para\u2029", "emoji \U0001f600", ""]
    names = awkward[:4]
    schema = [rel(name, "a", "b") for name in names] + [rel("Empty", "x"), rel("Nullary")]
    facts = [fact(name, awkward[i + 1], Null(awkward[i + 2], iv(0, INF)), time=iv(0, INF))
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
values = st.one_of(st.builds(c, st.text(max_size=3)), st.builds(Null, labels, times))
_SCHEMA = (rel("R", "a", "b"), rel("S", "a"), rel("T"))


@st.composite
def well_formed_instances(draw):
    """A well-formed instance of either kind: over its core facts, a
    constant and a null at one position, nulls that share a label, and
    (concrete) intervals with ``inf`` ends; then drawn facts of every
    relation, each value a constant or a null annotated with the fact's time."""
    kind = draw(st.sampled_from(["concrete", "abstract"]))
    t1, t2 = (iv(2, INF), iv(0, 3)) if kind == "concrete" else (3, 0)
    facts = [fact("R", "a", Null("N1", t1), time=t1), fact("R", "a", "N1", time=t1),
             fact("R", Null("N1", t2), "b", time=t2), fact("S", Null("N2", t1), time=t1), fact("T", time=t2)]
    for relation, arity in draw(st.lists(st.sampled_from([("R", 2), ("S", 1), ("T", 0)]), max_size=10)):
        t = draw(intervals if kind == "concrete" else st.integers(0, 5))
        cells = draw(st.lists(st.one_of(st.sampled_from(["", "M", "N1", "b"]), st.builds(Null, labels, st.just(t))),
                              min_size=arity, max_size=arity))
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
    """Facts of mixed arity and time kinds, nulls with any context, and a
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
