import random
import sys
from collections import Counter
from dataclasses import replace

import pytest

from tdx import (
    INF,
    AnswerSet,
    Atom,
    Instance,
    InvalidHorizonError,
    NoSolution,
    Null,
    SchemaError,
    Success,
    Ucq,
    Var,
    answers_to_instance,
    certain,
    chase,
    dumps_instance,
    find_abstract_hom,
    loads_instance,
    max_finite_endpoint,
    naive_eval,
    normalize_instance,
    sem_instance,
)

from generators import careers_like
from helpers import answers_sem, fact, iv, rel
from oracles import coalesced, nested_loop_homs

HORIZON = 13


def positions_query(example1):
    return example1.query("positions")


def test_naive_eval_drops_rows_with_nulls(fig3, example1):
    ans = naive_eval(positions_query(example1), fig3)
    assert ans.columns == ("n", "p", "t")
    assert ans.kind == "concrete"
    assert ans.rows == {
        ("Ada", "Developer", iv(8, 10)),
        ("Ada", "DBA", iv(10, 11)),
    }


def test_naive_eval_on_the_abstract_view(fig4, example1):
    ans = naive_eval(positions_query(example1), fig4)
    assert ans.rows == {
        ("Ada", "Developer", 8),
        ("Ada", "Developer", 9),
        ("Ada", "DBA", 10),
    }


def test_naive_eval_on_empty_instance(example1):
    empty = Instance.concrete(example1.target, [])
    assert naive_eval(positions_query(example1), empty).rows == frozenset()


def _unnormalized(example1):
    """Overlapping facts, one null label on two intervals, and two join
    blocks of ``paid_positions`` that need a cut: (Ada, DBA) and the null P."""
    return Instance.concrete(example1.target, [
        fact("Emp", "Ada", "DBA", "IBM", time=iv(0, 4)),
        fact("Emp", "Ada", "DBA", "IBM", time=iv(2, 3)),
        fact("Sal", "Ada", "DBA", Null("S"), time=iv(3, INF)),
        fact("Emp", "Bob", "Dev", "HP", time=iv(1, 3)),
        fact("Emp", "Bob", "Dev", "Sun", time=iv(3, 6)),
        fact("Emp", "Bob", Null("P"), "HP", time=iv(1, 6)),
        fact("Sal", "Bob", Null("P"), "90k", time=iv(4, 9)),
    ])


def test_naive_eval_on_an_unnormalized_instance_answers_as_on_its_normalization(example1):
    inst = _unnormalized(example1)
    for q in example1.queries:
        assert answers_sem(naive_eval(q, inst), HORIZON) == \
            answers_sem(naive_eval(q, normalize_instance(inst)), HORIZON)
    # coalesced: each answer once per maximal interval
    assert naive_eval(positions_query(example1), inst).rows == {("Ada", "DBA", iv(0, 4)), ("Bob", "Dev", iv(1, 6))}
    assert naive_eval(example1.query("paid_positions"), inst).rows == {("Ada", "DBA", iv(3, 4))}


def test_an_empty_disjunct_is_refused(fig1, fig2, example1):
    """A code-built query with an empty disjunct breaks a rule of
    ``validate_mapping``, and is refused with its text."""
    empty = Ucq("e", (), "t", ((),))
    with pytest.raises(SchemaError, match="^query 'e': disjunct #0 has no atoms$"):
        naive_eval(empty, Instance.concrete(example1.target, []))
    for src in (fig1, fig2):
        with pytest.raises(SchemaError, match="^query 'e': disjunct #0 has no atoms$"):
            certain(empty, src, example1)


def test_naive_eval_union_of_disjuncts(example1):
    q = Ucq("either", ("n",), "t", (
        (Atom("Emp", (Var("n"), Var("p"), Var("c")), "t"),),
        (Atom("Sal", (Var("n"), Var("p"), Var("s")), "t"),),
    ))
    inst = Instance.concrete(example1.target, [
        fact("Emp", "Ada", "DBA", "IBM", time=iv(0, 1)),
        fact("Sal", "Bob", "DBA", "50k", time=iv(2, 3)),
    ])
    assert naive_eval(q, inst).rows == {("Ada", iv(0, 1)), ("Bob", iv(2, 3))}


def test_answers_sem_expands_intervals(example1, fig3, fig4):
    ans = AnswerSet("q", "concrete", ("n", "p", "t"),
                    frozenset({("Ada", "Developer", iv(8, 10))}))
    assert answers_sem(ans, 13).rows == {("Ada", "Developer", 8), ("Ada", "Developer", 9)}
    empty = AnswerSet("q", "concrete", ("n", "t"), frozenset())
    assert answers_sem(empty, 13).rows == frozenset()
    q = positions_query(example1)
    assert answers_sem(naive_eval(q, fig3), HORIZON) == naive_eval(q, fig4)


def test_answers_sem_validates_horizon():
    ans = AnswerSet("q", "concrete", ("n", "t"), frozenset({("Ada", iv(8, 10))}))
    with pytest.raises(InvalidHorizonError):
        answers_sem(ans, 9)
    with pytest.raises(InvalidHorizonError):
        answers_sem(AnswerSet("q", "concrete", ("n", "t"), frozenset()), 9.5)
    abstract = AnswerSet("q", "abstract", ("n", "t"), frozenset({("Ada", 8)}))
    with pytest.raises(SchemaError, match="^sem_instance expects a concrete instance, got abstract$"):
        answers_sem(abstract, 13)
    # as ``sem_instance``: rows that are not well formed, and the least
    # interval below the horizon, whatever the hash order of the rows
    with pytest.raises(SchemaError, match=r"^q\(Ada, 8\): concrete fact must carry a clopen interval$"):
        answers_sem(AnswerSet("q", "concrete", ("n", "t"), frozenset({("Ada", 8)})), 13)
    for name in ("ab", "xy", "Ada", "Bob", *map(str, range(20))):
        ans = AnswerSet("q", "concrete", ("n", "t"), frozenset((name, iv(i, i + 5)) for i in range(8)))
        with pytest.raises(InvalidHorizonError, match=r"^horizon 3 is below endpoint 5 of \[0,5\)$"):
            answers_sem(ans, 3)


@pytest.mark.parametrize("columns, rows, shown", [
    ((), frozenset(), "()"),
    (("t",), frozenset({()}), "('t',)"),
    (("n", "t"), frozenset({("Ada", iv(0, 2)), ("Bob",)}), "('n', 't')"),
    (("n", "t"), frozenset({("Ada", "IBM", iv(0, 2))}), "('n', 't')"),
], ids=["no-columns", "empty-row", "short-row", "long-row"])
def test_answers_whose_rows_do_not_fill_their_columns_are_refused_where_they_are_made(columns, rows, shown):
    """``answers_to_instance`` takes a row apart at its last value, the
    time, so a row that does not fill the columns is no answer."""
    for build in (lambda: AnswerSet("q", "concrete", columns, rows),
                  lambda: replace(AnswerSet("q", "concrete", ("n", "t"), frozenset()), columns=columns, rows=rows)):
        with pytest.raises(SchemaError) as err:
            answers_to_instance(build())
        assert str(err.value) == f"answers 'q': every row must hold one value per column of {shown}, the time last"


def test_certain_concrete_running_example(fig1, example1):
    ans = certain(positions_query(example1), fig1, example1)
    assert ans.rows == {
        ("Ada", "Developer", iv(8, 10)),
        ("Ada", "DBA", iv(10, 11)),
    }


def test_certain_concrete_failure_is_no_solution(fig1, example1):
    src = Instance.concrete(fig1.schema,
                            fig1.facts | {fact("Employee1", "Ada", "HP", time=iv(8, 9))})
    out = certain(positions_query(example1), src, example1)
    assert isinstance(out, NoSolution)
    assert out.failure.constants == ("HP", "IBM")


def test_certain_concrete_empty_source(example1):
    out = certain(positions_query(example1), Instance.concrete(example1.source, []), example1)
    assert out.rows == frozenset()


def test_certain_abstract_running_example(fig2, example1):
    ans = certain(positions_query(example1), fig2, example1)
    assert ans.rows == {
        ("Ada", "Developer", 8),
        ("Ada", "Developer", 9),
        ("Ada", "DBA", 10),
    }


def test_certain_abstract_no_solution(example3, example3_source):
    out = certain(example3.query("pos"), example3_source, example3)
    assert isinstance(out, NoSolution)
    assert out.failure.constants == ("DBA", "Manager")


def test_certain_answers_commute_with_expansion(fig1, example1):
    for q in example1.queries:
        concrete = certain(q, fig1, example1)
        abstract = certain(q, sem_instance(fig1, HORIZON), example1)
        assert answers_sem(concrete, HORIZON) == abstract


def test_answers_never_contain_nulls(fig3, fig4, example1):
    for inst in (fig3, fig4):
        for q in example1.queries:
            for row in naive_eval(q, inst).rows:
                assert all(isinstance(v, str) for v in row[:-1])


def test_answers_monotone_under_hom(fig4, fig5, example1):
    # a hom from fig4 into fig5 exists, so fig4's complete answers survive in fig5
    assert find_abstract_hom(fig4, fig5) is not None
    for q in example1.queries:
        assert naive_eval(q, fig4).rows <= naive_eval(q, fig5).rows
    bigger = Instance.abstract(fig5.schema,
                               fig5.facts | {fact("Emp", "Bob", "CTO", "HP", time=8)})
    assert find_abstract_hom(fig5, bigger) is not None
    for q in example1.queries:
        assert naive_eval(q, fig5).rows <= naive_eval(q, bigger).rows


def test_answers_serialize_as_an_instance(fig3, example1):
    ans = naive_eval(positions_query(example1), fig3)
    inst = answers_to_instance(ans)
    assert inst.kind == "concrete"
    assert loads_instance(dumps_instance(inst)) == inst
    assert {f.relation for f in inst.facts} == {"positions"}


def _chase_results(n, example1):
    """The concrete and the abstract chase result of one careers-like source."""
    src = careers_like(n, example1)
    outs = chase(src, example1), chase(sem_instance(src, max_finite_endpoint(src) + 1), example1)
    assert all(isinstance(out, Success) for out in outs)
    return [out.instance for out in outs]


def test_naive_eval_sorts_nothing(example1):
    """No ``sorted``, ``list.sort`` or ``min`` call during ``naive_eval`` but
    those of its instance check and of its cuts and its coalescing, each
    over one block or one group, never over the bindings or the answers:
    ``validate_instance``'s sort of the problems of an instance built in
    code (none here), ``_apart``'s sort of the distinct intervals of a
    join block that has two or more, ``build_grid``'s sort of the endpoints
    of a block that needs a cut, the sort of the relation schemas of the
    instance that a disjunct with such a block then reads, and
    ``_merged``'s sort of the intervals of one answer's values when they are
    two or more.  No block of a coalesced careers result needs a cut; two
    blocks of ``_unnormalized`` do, for the one query of two atoms."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and (arg in (sorted, min) or isinstance(getattr(arg, "__self__", None), list)
                                  and arg.__name__ == "sort"):
            calls[frame.f_code.co_name, arg.__name__] += 1

    concrete, _ = _chase_results(24, example1)
    unnormalized = _unnormalized(example1)
    per_block = {("_apart", "sorted"), ("_merged", "sorted"), ("build_grid", "sorted"), ("__post_init__", "sorted"),
                 ("validate_instance", "sorted")}
    for inst, cuts in ((concrete, 0), (unnormalized, 2)):
        calls.clear()
        sys.setprofile(profile)
        try:
            for q in example1.queries:
                assert naive_eval(q, inst).rows
        finally:
            sys.setprofile(None)
        assert set(calls) <= per_block, calls
        assert (calls["build_grid", "sorted"], calls["__post_init__", "sorted"]) == (cuts, min(cuts, 1))
        assert calls["validate_instance", "sorted"] <= 1
        assert calls["_apart", "sorted"] + calls["_merged", "sorted"] <= len(inst.facts), calls


def _random_ucq(rng, schema, name):
    """One or two disjuncts of one or two atoms over ``schema``; variables from
    a pool of three, now and then a constant; head variables from every disjunct."""
    disjuncts = []
    for _ in range(rng.randint(1, 2)):
        atoms = []
        for _ in range(rng.randint(1, 2)):
            r = rng.choice(schema)
            atoms.append(Atom(r.name, tuple(rng.choice(["p001", "dev", "hp"]) if rng.random() < 0.1
                                            else Var(rng.choice("xyz")) for _ in r.attributes), "t"))
        disjuncts.append(tuple(atoms))
    shared = set.intersection(*({t.name for a in d for t in a.args if isinstance(t, Var)} for d in disjuncts))
    head = tuple(rng.sample(sorted(shared), rng.randint(0, min(2, len(shared)))))
    return Ucq(name, head, "t", tuple(disjuncts))


def test_naive_eval_agrees_with_the_nested_loop(example1):
    """On careers results of at least 200 facts: over the abstract result the
    nested loop's answers, and over the coalesced concrete result the nested
    loop's answers over its normalization, coalesced."""
    rng = random.Random(8)
    kept = dropped = 0
    concrete, _ = _chase_results(12, example1)
    _, abstract = _chase_results(6, example1)
    for inst, oracle_inst in ((concrete, normalize_instance(concrete)), (abstract, abstract)):
        assert len(inst.facts) >= 200
        for k in range(25):
            q = _random_ucq(rng, example1.target, f"q{k}")
            expected = set()
            for disjunct in q.disjuncts:
                for b in nested_loop_homs(disjunct, oracle_inst):
                    values = [b[v] for v in q.head]
                    if all(isinstance(v, str) for v in values):
                        expected.add((*values, b[q.time_var]))
                    else:
                        dropped += 1
            if inst.kind == "concrete":
                expected = {(*f.values, f.time) for f in coalesced(answers_to_instance(
                    AnswerSet(q.name, inst.kind, q.columns, frozenset(expected)))).facts}
            assert naive_eval(q, inst).rows == expected, q
            kept += len(expected)
    assert kept >= 100 and dropped >= 100, (kept, dropped)
