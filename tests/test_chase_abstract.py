import importlib
import random
from collections import Counter

import pytest

import tdx
from tdx import (
    Failure,
    Instance,
    KeyNullViolation,
    Null,
    PreconditionError,
    SchemaError,
    Success,
    Tkc,
    chase,
    dumps_instance,
    equivalent,
    instance_from_json,
    sem_instance,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    validate_instance,
)

from generators import random_case, random_pointwise_case
from helpers import bench_workloads, c, fact, iv, rel
from oracles import tkc_step

HORIZON = 13


def test_st_round_on_a_single_fact(example1):
    src = Instance.abstract(example1.source, [fact("Employee1", "Ada", "IBM", time=8)])
    out = st_round_abstract(src, example1.sttgds[:1], example1.target)
    p, s = '[0,"p",["IBM","Ada"]]', '[0,"s",["IBM","Ada"]]'
    assert out.facts == {
        fact("Emp", "Ada", Null(p), "IBM", time=8),
        fact("Sal", "Ada", Null(p), Null(s), time=8),
    }


def test_st_round_empty_and_incomplete(example1, fig4):
    empty = Instance.abstract(example1.source, [])
    assert st_round_abstract(empty, example1.sttgds, example1.target).facts == frozenset()
    with pytest.raises(PreconditionError):
        st_round_abstract(fig4, example1.sttgds, example1.target)


def test_fresh_nulls_carry_their_time_point(fig2, example1):
    """A fresh null is its Skolem label, the same at each point of its
    source fact; the fact that holds it carries the point."""
    out = st_round_abstract(fig2, example1.sttgds, example1.target)
    points: dict = {}
    for f in out.facts:
        for v in f.values:
            if not isinstance(v, str):
                assert type(v) is Null
                points.setdefault(v, set()).add(f.time)
    assert points and max(len(ts) for ts in points.values()) > 1
    assert validate_instance(out) == []


def test_tkc_step_on_the_failure_relation(fig6, example3):
    key = example3.tkcs[0]
    schema = example3.target_by_name["Emp"]
    ada_null = fact("Emp", "Ada", Null("N"), "IBM", time=2008)
    ada_dba = fact("Emp", "Ada", "DBA", "IBM", time=2008)
    david_null = fact("Emp", "David", Null("N"), "Intel", time=2008)
    david_mgr = fact("Emp", "David", "Manager", "Intel", time=2008)
    assert tkc_step(ada_null, ada_dba, key, schema) == {(c("DBA"), Null("N"))}
    assert tkc_step(david_null, david_mgr, key, schema) == {(c("Manager"), Null("N"))}
    with pytest.raises(ValueError):
        tkc_step(ada_dba, ada_dba, key, schema)


def test_tkc_round_fails_on_the_shared_null(fig6, example3):
    out = tkc_round_abstract(fig6, example3.tkcs)
    assert isinstance(out, Failure)
    assert out.constants == ("DBA", "Manager")
    # the trace walks DBA = N^2008 = Manager
    flattened = {v for pair in out.trace for v in pair}
    assert Null("N") in flattened


def test_tkc_round_without_conflicts(fig4, example1):
    assert tkc_round_abstract(fig4, example1.tkcs) == Success(fig4)


def test_tkc_round_null_to_constant_replacement():
    schema = rel("R", "a", "b")
    inst = Instance.abstract([schema], [
        fact("R", "a", Null("N"), time=5),
        fact("R", "a", "c", time=5),
    ])
    key = Tkc("R", frozenset({"a", "time"}))
    assert tkc_round_abstract(inst, [key]) == Success(
        Instance.abstract([schema], [fact("R", "a", "c", time=5)]))


def test_tkc_round_null_to_null_replacement_elects_least_label():
    schema = rel("R", "a", "b")
    inst = Instance.abstract([schema], [
        fact("R", "a", Null("N"), time=5),
        fact("R", "a", Null("M"), time=5),
    ])
    key = Tkc("R", frozenset({"a", "time"}))
    assert tkc_round_abstract(inst, [key]) == Success(
        Instance.abstract([schema], [fact("R", "a", Null("M"), time=5)]))


def test_tkc_round_key_null_violation():
    schema = rel("R", "a", "b")
    inst = Instance.abstract([schema], [
        fact("R", Null("N"), "x", time=5),
        fact("R", Null("N"), "y", time=5),
    ])
    with pytest.raises(KeyNullViolation):
        tkc_round_abstract(inst, [Tkc("R", frozenset({"a", "time"}))])


def test_chase_reaches_the_golden_abstract_solution(fig2, fig5, example1):
    out = chase(fig2, example1)
    assert isinstance(out, Success)
    assert equivalent(out.instance, fig5)
    assert len(out.instance.facts) == len(fig5.facts)


def test_chase_on_expanded_source_matches_expanded_solution(fig1, fig3, example1):
    out = chase(sem_instance(fig1, HORIZON), example1)
    assert isinstance(out, Success)
    assert equivalent(out.instance, sem_instance(fig3, HORIZON))


def test_chase_empty(example1):
    out = chase(Instance.abstract(example1.source, []), example1)
    assert out == Success(Instance.abstract(example1.target, []))


def test_chase_failure_scenario(example3, example3_source):
    out = chase(example3_source, example3)
    assert isinstance(out, Failure)
    assert out.constants == ("DBA", "Manager")


@pytest.mark.parametrize("name", ["st_round_concrete", "tkc_round_concrete",
                                  "st_round_abstract", "tkc_round_abstract"])
def test_rounds_reject_the_other_view(name, fig1, fig2, example1):
    # each view's round is its precondition plus the shared round; the chase
    # itself runs in the view of its source
    other_view = fig2 if name.endswith("concrete") else fig1
    args = (example1.sttgds, example1.target) if name.startswith("st") else (example1.tkcs,)
    kind, other = ("a concrete", "abstract") if name.endswith("concrete") else ("an abstract", "concrete")
    with pytest.raises(SchemaError, match=f"^{name} expects {kind} instance, got {other}$"):
        getattr(tdx, name)(other_view, *args)


def _equality_sets_align(j_c, tkcs, horizon, may_fail=False):
    # expanding each concrete equality per time point yields exactly the
    # equalities derived on the expanded instance: compare raw sets and the
    # nontrivial closure classes
    from tdx.chase import _round_equalities, EqClosure

    j_a = sem_instance(j_c, horizon)
    concrete_eqs = _round_equalities(j_c, tkcs)
    abstract_eqs = _round_equalities(j_a, tkcs)

    expanded = set()
    for x, y, interval in concrete_eqs:
        end = interval.end if isinstance(interval.end, int) else horizon
        for t in range(interval.start, min(end, horizon)):
            expanded.add((frozenset({x, y}), t))
    assert expanded == {(frozenset({x, y}), t) for x, y, t in abstract_eqs}

    def classes(eqs):
        """The nontrivial classes of one closure per time point, each with its
        point, and whether some merge conflicted."""
        closures = {}
        conflicted = False
        for pair, t in sorted(eqs, key=str):
            x, y = sorted(pair, key=str)
            conflicted = closures.setdefault(t, EqClosure()).merge(x, y) is not None or conflicted
        return ({(frozenset(members), t) for t, closure in closures.items()
                 for members in closure.members().values() if len(members) > 1}, conflicted)

    expanded_classes, expanded_conflict = classes(expanded)
    abstract_classes, abstract_conflict = classes((frozenset({x, y}), t) for x, y, t in abstract_eqs)
    assert may_fail or not (expanded_conflict or abstract_conflict)
    assert expanded_conflict == abstract_conflict
    if not expanded_conflict:
        assert expanded_classes == abstract_classes


def test_equality_sets_align_pointwise(fig8, example1):
    j_c = st_round_concrete(fig8, example1.sttgds, example1.target)
    _equality_sets_align(j_c, example1.tkcs, HORIZON)


def test_equality_sets_align_on_random_cases():
    import random
    from generators import random_case
    from tdx import KeyNullViolation

    rng = random.Random(99)
    checked = 0
    for _ in range(40):
        case = random_case(rng, with_queries=False)
        m = case.mapping
        if not m.tkcs:
            continue
        j_c = st_round_concrete(case.source, m.sttgds, m.target)
        try:
            _equality_sets_align(j_c, m.tkcs, case.horizon, may_fail=True)
        except KeyNullViolation:
            continue
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("later", [iv(5, 7), iv(2, 4)], ids=["apart", "adjacent"])
def test_one_skolem_label_at_two_times_equals_two_constants(example1, later):
    """Ada at IBM over two spans gets one Skolem label for her position in
    both; her known position is DBA over the first and Manager over the
    second.  A null is its label at its time, so the key round equates the
    label with DBA at one time and with Manager at the other, and succeeds
    in both views, apart or adjacent (the key round coalesces the two
    spans, then cuts them again)."""
    src = Instance.concrete(example1.source, [
        fact("Employee1", "Ada", "IBM", time=iv(0, 2)), fact("Employee1", "Ada", "IBM", time=later),
        fact("Employee2", "Ada", "DBA", "R&D", time=iv(0, 2)),
        fact("Employee2", "Ada", "Manager", "R&D", time=later)])
    concrete, abstract = chase(src, example1), chase(sem_instance(src, HORIZON), example1)
    assert isinstance(concrete, Success) and isinstance(abstract, Success)
    assert sem_instance(concrete.instance, HORIZON) == abstract.instance
    assert {(f.values, f.time) for f in concrete.instance.facts_by_relation["Emp"]} == {
        (("Ada", "DBA", "IBM"), iv(0, 2)), (("Ada", "Manager", "IBM"), later)}


def _shown(run):
    """What a chase shows: a success's instance text, a failure, or a
    KeyNullViolation's text."""
    try:
        outcome = run()
    except KeyNullViolation as exc:
        return KeyNullViolation, str(exc)
    return (Success, dumps_instance(outcome.instance)) if isinstance(outcome, Success) else (Failure, outcome)


def _chase_and_rounds(src, m):
    """The chase of an abstract source, read over its runs, and the
    dependency and key rounds over its points, as shown."""
    return (_shown(lambda: chase(src, m)),
            _shown(lambda: tkc_round_abstract(st_round_abstract(src, m.sttgds, m.target), m.tkcs)))


def _abstract_sources(example1, example3):
    """Seeded random sources under ``sem``, sources drawn point by point,
    and the 4S seed-1 long-lived, crossview and failing crossview sources
    of the benchmark."""
    rng = random.Random(20261022)
    for _ in range(400):
        case = random_case(rng, with_queries=False)
        yield case.mapping, sem_instance(case.source, case.horizon)
        case = random_pointwise_case(rng, joins=rng.random() < 0.5)
        yield case.mapping, case.source
    bench = bench_workloads()
    for name in ("long-lived", "crossview"):
        workload = bench.WORKLOADS[name]
        sc = workload.generate(workload.sizes[2], random.Random("1:2"))
        yield example1, instance_from_json(bench.abstract_doc(bench.EXAMPLE1_SOURCE, sc.source, sc.horizon))
        if name == "crossview":
            m = example1 if sc.failing_schema is bench.EXAMPLE1_SOURCE else example3
            yield m, instance_from_json(bench.abstract_doc(sc.failing_schema, sc.failing, sc.failing_horizon))


def test_chase_over_runs_shows_what_the_rounds_over_points_show(example1, example3):
    """A success is the same text, a failure has the same constants, trace
    and time point, and a KeyNullViolation the same text, naming its fact
    and null at a time point."""
    shown = Counter()
    for m, src in _abstract_sources(example1, example3):
        over_runs, over_points = _chase_and_rounds(src, m)
        assert over_runs == over_points, (m, src)
        shown[over_runs[0]] += 1
    assert min(shown[Success], shown[Failure], shown[KeyNullViolation]) >= 5, shown


def test_dependency_round_fires_once_per_run(example1, monkeypatch):
    """People employed over long spans, some with a gap: the dependency round
    of the abstract chase fires once per run of points, bound to the run."""
    facts = []
    for i in range(12):
        facts.append(fact("Employee1", f"p{i}", "acme", time=iv(0, 30 + i)))
        if i % 3 == 0:
            facts.append(fact("Employee2", f"p{i}", "dev", "eng", time=iv(4, 9)))
            facts.append(fact("Employee2", f"p{i}", "dev", "eng", time=iv(11, 20)))
    src = Instance.concrete(example1.source, facts)
    fired = []
    module = importlib.import_module("tdx.chase")  # ``tdx.chase`` is the function
    fire = module._fire
    monkeypatch.setattr(module, "_fire", lambda head, binding, add: (
        fired.append(binding[head.time_var]), fire(head, binding, add)))
    assert isinstance(chase(sem_instance(src, 42), example1), Success)
    assert sorted(fired) == sorted(f.time for f in facts)


def test_abstract_chase_refuses_no_source_for_its_cuts(monkeypatch):
    """With no fragment allowed beyond the facts a cut is given, the chase
    of random abstract sources whose rule bodies join several atoms cuts
    its runs and refuses none of them, since each cut makes at most one
    fragment per point it reads; the concrete chase of the same runs is
    refused."""
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 0)
    rng = random.Random(1022)
    refused = 0
    for _ in range(150):
        case = random_pointwise_case(rng, joins=True)
        m, src = case.mapping, case.source
        over_runs, over_points = _chase_and_rounds(src, m)
        assert over_runs == over_points, (m, src)
        try:
            chase(Instance.concrete(src.schema, tdx.model._runs(src)), m)
        except KeyNullViolation:
            pass
        except PreconditionError:
            refused += 1
    assert refused >= 20
