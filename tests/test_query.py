import random
import sys
from collections import Counter

import pytest

from tdx import (
    AnswerSet,
    Atom,
    Instance,
    InvalidHorizonError,
    NoSolution,
    PreconditionError,
    Success,
    Ucq,
    Var,
    answers_sem,
    answers_to_instance,
    certain,
    chase,
    dumps_instance,
    find_abstract_hom,
    loads_instance,
    max_finite_endpoint,
    naive_eval,
    sem_instance,
)

from generators import careers_like
from helpers import fact, iv, rel
from oracles import nested_loop_homs

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


def test_naive_eval_requires_normalized_concrete_input(example1):
    inst = Instance.concrete(example1.target, [
        fact("Emp", "Ada", "DBA", "IBM", time=iv(0, 4)),
        fact("Emp", "Ada", "DBA", "IBM", time=iv(2, 3)),
    ])
    with pytest.raises(PreconditionError):
        naive_eval(positions_query(example1), inst)


def test_an_empty_disjunct_is_a_precondition_error(fig1, fig2, example1):
    empty = Ucq("e", (), "t", ((),))
    with pytest.raises(PreconditionError, match="query 'e': disjunct #0 has no atoms"):
        naive_eval(empty, Instance.concrete(example1.target, []))
    for src in (fig1, fig2):
        with pytest.raises(PreconditionError, match="disjunct #0 has no atoms"):
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
    with pytest.raises(PreconditionError):
        answers_sem(abstract, 13)


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
    """No ``sorted``, ``list.sort`` or ``min`` call during ``naive_eval``
    but ``is_normalized``'s sort of the distinct spans."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "c_call" and (arg in (sorted, min) or isinstance(getattr(arg, "__self__", None), list)
                                  and arg.__name__ == "sort"):
            calls[frame.f_code.co_name, arg.__name__] += 1

    concrete, _ = _chase_results(24, example1)
    sys.setprofile(profile)
    try:
        for q in example1.queries:
            assert naive_eval(q, concrete).rows
    finally:
        sys.setprofile(None)
    assert calls == Counter({("is_normalized", "sorted"): len(example1.queries)})


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
    rng = random.Random(8)
    kept = dropped = 0
    for inst in _chase_results(6, example1):
        assert len(inst.facts) >= 200
        for k in range(25):
            q = _random_ucq(rng, example1.target, f"q{k}")
            expected = set()
            for disjunct in q.disjuncts:
                for b in nested_loop_homs(disjunct, inst):
                    values = [b[v] for v in q.head]
                    if all(isinstance(v, str) for v in values):
                        expected.add((*values, b[q.time_var]))
                    else:
                        dropped += 1
            assert naive_eval(q, inst).rows == expected, q
            kept += len(expected)
    assert kept >= 100 and dropped >= 100, (kept, dropped)
