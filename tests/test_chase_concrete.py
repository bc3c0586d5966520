import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from tdx import (
    INF,
    Atom,
    EqClosure,
    Fact,
    Failure,
    Instance,
    KeyNullViolation,
    Null,
    PreconditionError,
    SchemaError,
    Success,
    SttTgd,
    Tkc,
    chase,
    dumps_instance,
    equivalent,
    normalize_instance,
    sem_instance,
    Var,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    tkc_round_concrete,
    validate_instance,
)
from tdx.chase import _close_and_replace, _compile_head, _fire, _first_conflict, _round_equalities

from generators import random_case
from helpers import c, fact, in_order, iv, rel
from oracles import (enumerate_formula_homs, instantiated_st_round, is_normalized, naive_closure,
                     pairwise_round_equalities, st_step, tkc_step)

HORIZON = 13


def test_st_step_shares_the_fresh_null_across_atoms(fig8, example1):
    rule = example1.sttgds[0]
    binding = {"n": c("Ada"), "c": c("IBM"), "t": iv(8, 10)}
    out = st_step(fig8, rule, binding, 0)
    p, s = '[0,"p",["IBM","Ada"]]', '[0,"s",["IBM","Ada"]]'  # body values in variable name order
    assert out == {
        fact("Emp", "Ada", Null(p), "IBM", time=iv(8, 10)),
        fact("Sal", "Ada", Null(p), Null(s), time=iv(8, 10)),
    }


def test_st_step_without_existentials_copies_constants(fig8, example1):
    from tdx import Atom, SttTgd, Var
    rule = SttTgd(
        (Atom("Employee1", (Var("n"), Var("c")), "t"),),
        (Atom("Emp", (Var("n"), Var("n"), Var("c")), "t"),),
        frozenset())
    binding = {"n": c("Ada"), "c": c("IBM"), "t": iv(8, 10)}
    out = st_step(fig8, rule, binding, 0)
    assert out == {fact("Emp", "Ada", "Ada", "IBM", time=iv(8, 10))}


def test_st_step_on_the_unbounded_tail_row(fig8, example1):
    rule = example1.sttgds[0]
    binding = {"n": c("Ada"), "c": c("Intel"), "t": iv(11, 13)}
    out = st_step(fig8, rule, binding, 0)
    p, s = '[0,"p",["Intel","Ada"]]', '[0,"s",["Intel","Ada"]]'
    assert out == {
        fact("Emp", "Ada", Null(p), "Intel", time=iv(11, 13)),
        fact("Sal", "Ada", Null(p), Null(s), time=iv(11, 13)),
    }


def test_st_step_rejects_non_homomorphisms(fig8, example1):
    rule = example1.sttgds[0]
    with pytest.raises(ValueError):
        st_step(fig8, rule, {"n": c("Ada"), "c": c("HP"), "t": iv(8, 10)}, 0)
    with pytest.raises(ValueError):
        st_step(fig8, rule, {"n": c("Ada"), "c": c("IBM"), "t": iv(8, 10), "p": c("x")}, 0)


def test_st_step_names_the_body_variables_a_binding_lacks(fig8, example1):
    rule = example1.sttgds[0]
    with pytest.raises(ValueError, match=re.escape("left-hand-side variables ['c']")):
        st_step(fig8, rule, {"n": c("Ada"), "t": iv(8, 10)}, 0)
    with pytest.raises(ValueError, match=re.escape("left-hand-side variables ['c', 'n', 't']")):
        st_step(fig8, rule, {}, 0)


def test_st_round_matches_figure_up_to_relabeling(fig7, fig8, example1):
    out = st_round_concrete(fig8, example1.sttgds, example1.target)
    assert len(in_order(out, "Emp")) == 5
    assert len(in_order(out, "Sal")) == 5
    assert equivalent(sem_instance(out, HORIZON), sem_instance(fig7, HORIZON))
    assert validate_instance(out) == []
    assert is_normalized(out)  # every output interval is an input grid interval


def test_st_round_requires_complete_input_that_need_not_be_normalized(fig1, fig3, fig8, example1):
    # one-atom rule bodies fire on fig1's facts as they are, with fig8's abstract view
    out = st_round_concrete(fig1, example1.sttgds, example1.target)
    assert len(out.facts) < len(st_round_concrete(fig8, example1.sttgds, example1.target).facts)
    assert sem_instance(out, HORIZON) == sem_instance(
        st_round_concrete(fig8, example1.sttgds, example1.target), HORIZON)
    with pytest.raises(PreconditionError):
        st_round_concrete(fig3, example1.sttgds, example1.target)  # has nulls


def test_st_round_of_empty_source_is_empty(example1):
    empty = Instance.concrete(example1.source, [])
    out = st_round_concrete(empty, example1.sttgds, example1.target)
    assert out.facts == frozenset()
    assert {r.name for r in out.schema} == {"Emp", "Sal"}


def test_compiled_dependency_round_agrees_with_instantiated_firing():
    """On random mappings, in both views, the dependency round writes the
    bytes of a round of ``st_step``, which instantiates each head atom of a
    copied binding, and one compiled firing makes the facts of that step.
    The draws hold head constants, variables repeated in a head, nulls
    shared across head atoms, and two-atom bodies."""
    rng = random.Random(23)
    seen = Counter()
    for _ in range(300):
        case = random_case(rng, with_queries=False)
        m = case.mapping
        for rule in m.sttgds:
            terms = [t for a in rule.rhs for t in a.args]
            names = [t.name for t in terms if isinstance(t, Var)]
            seen["head constant"] += any(isinstance(t, str) for t in terms)
            seen["repeated head variable"] += len(names) > len(set(names))
            seen["null shared across head atoms"] += any(
                sum(Var(y) in a.args for a in rule.rhs) > 1 for y in rule.existentials)
            seen["two-atom body"] += len(rule.lhs) == 2
        concrete = normalize_instance(case.source)
        for src, st_round in ((concrete, st_round_concrete),
                              (sem_instance(concrete, case.horizon), st_round_abstract)):
            got = st_round(src, m.sttgds, m.target)
            assert dumps_instance(got) == dumps_instance(instantiated_st_round(src, m.sttgds, m.target))
            seen[f"{src.kind} facts"] += len(got.facts)
            for index, rule in enumerate(m.sttgds):
                for binding in enumerate_formula_homs(rule.lhs, src)[:2]:
                    fired: set = set()
                    _fire(_compile_head(rule, index), dict(binding), fired.add)
                    assert fired == st_step(src, rule, binding, index)
                    seen["st_step"] += 1
    assert min(seen.values()) >= 20, seen


def test_tkc_step_on_figure_rows(fig7, example1):
    sal_key = example1.tkcs[1]
    sal_schema = example1.target_by_name["Sal"]
    u1 = fact("Sal", "Ada", Null("L"), Null("M"), time=iv(8, 10))
    u2 = fact("Sal", "Ada", "Developer", Null("W"), time=iv(8, 10))
    assert tkc_step(u1, u2, sal_key, sal_schema) == {
        (c("Developer"), Null("L")),
        (Null("M"), Null("W")),
    }
    emp_key = example1.tkcs[0]
    emp_schema = example1.target_by_name["Emp"]
    w1 = fact("Emp", "Ada", Null("E"), "IBM", time=iv(10, 11))
    w2 = fact("Emp", "Ada", "DBA", Null("K"), time=iv(10, 11))
    assert tkc_step(w1, w2, emp_key, emp_schema) == {
        (c("DBA"), Null("E")),
        (c("IBM"), Null("K")),
    }


def test_tkc_step_rejects_non_conflicting_pairs(example1):
    emp_key = example1.tkcs[0]
    emp_schema = example1.target_by_name["Emp"]
    same = fact("Emp", "Ada", "DBA", "IBM", time=iv(0, 1))
    with pytest.raises(ValueError):
        tkc_step(same, same, emp_key, emp_schema)
    different_key = fact("Emp", "Bob", "DBA", "IBM", time=iv(0, 1))
    with pytest.raises(ValueError):
        tkc_step(same, different_key, emp_key, emp_schema)
    sal = fact("Sal", "Ada", "DBA", "10", time=iv(0, 1))
    with pytest.raises(ValueError, match="^facts must belong to relation 'Emp'$"):
        tkc_step(sal, sal, emp_key, emp_schema)


def test_key_positions_refuse_a_code_built_key_that_does_not_fit(example1):
    """A code-built key is checked against the schema it is applied to, by
    both key rounds and by ``chase``, with the first problem
    ``validate_mapping`` lists: a relation outside the instance, an unknown
    attribute."""
    emp_schema = example1.target_by_name["Emp"]
    ghost = Tkc("Emp", frozenset({"name", "time", "age"}), ("position", "company"))
    inst = Instance.concrete([emp_schema], [fact("Emp", "Ada", "DBA", "IBM", time=iv(0, 1))])
    for key_round, view in ((tkc_round_concrete, inst), (tkc_round_abstract, sem_instance(inst, 1))):
        with pytest.raises(SchemaError, match="^key #1 on 'Sal': unknown target relation 'Sal'$"):
            key_round(view, example1.tkcs)
        with pytest.raises(SchemaError, match="^key #0 on 'Emp': unknown attribute 'age' of relation 'Emp'$"):
            key_round(view, [ghost])
    with pytest.raises(SchemaError, match="^key #0 on 'Emp': unknown attribute 'age' of relation 'Emp'$"):
        chase(Instance.concrete(example1.source), replace(example1, tkcs=(ghost,)))


def test_tkc_step_rejects_null_keys(example1):
    emp_key = example1.tkcs[0]
    emp_schema = example1.target_by_name["Emp"]
    u1 = fact("Emp", Null("N"), "DBA", "IBM", time=iv(0, 1))
    u2 = fact("Emp", Null("N"), "Boss", "IBM", time=iv(0, 1))
    with pytest.raises(KeyNullViolation):
        tkc_step(u1, u2, emp_key, emp_schema)


def test_tkc_round_reaches_the_golden_solution(fig3, fig7, example1):
    out = tkc_round_concrete(fig7, example1.tkcs)
    assert isinstance(out, Success)
    assert len(in_order(out.instance, "Emp")) == 3
    assert len(in_order(out.instance, "Sal")) == 3
    assert equivalent(sem_instance(out.instance, HORIZON), sem_instance(fig3, HORIZON))
    assert validate_instance(out.instance) == []


def test_tkc_round_without_conflicts_is_identity(fig3, example1):
    assert tkc_round_concrete(fig3, example1.tkcs) == Success(fig3)


def test_tkc_round_key_null_propagates(example1):
    inst = Instance.concrete(example1.target, [
        fact("Emp", Null("N"), "DBA", "IBM", time=iv(0, 1)),
        fact("Emp", Null("N"), "Boss", "IBM", time=iv(0, 1)),
    ])
    with pytest.raises(KeyNullViolation):
        tkc_round_concrete(inst, [Tkc("Emp", frozenset({"name", "time"}), ("position", "company"))])


def test_tkc_round_shared_null_forces_failure(example1):
    # concrete transcription of the shared-position conflict: one null annotated
    # with [8,9) appears in both employees' rows, so closing the equalities
    # equates DBA with Manager
    emp = rel("Emp", "name", "position", "company")
    inst = Instance.concrete([emp], [
        fact("Emp", "Ada", Null("N"), "IBM", time=iv(8, 9)),
        fact("Emp", "Ada", "DBA", "IBM", time=iv(8, 9)),
        fact("Emp", "David", Null("N"), "Intel", time=iv(8, 9)),
        fact("Emp", "David", "Manager", "Intel", time=iv(8, 9)),
    ])
    key = Tkc("Emp", frozenset({"name", "company", "time"}), ("position",))
    out = tkc_round_concrete(inst, [key])
    assert isinstance(out, Failure)
    assert out.constants == ("DBA", "Manager")
    assert out.trace  # the witness carries its derivation
    # the abstract round over the expansion fails identically
    from tdx import tkc_round_abstract
    abstract = tkc_round_abstract(sem_instance(inst, 9), [key])
    assert isinstance(abstract, Failure)
    assert abstract.constants == ("DBA", "Manager")


def test_chase_running_example(fig1, fig3, example1):
    out = chase(fig1, example1)
    assert isinstance(out, Success)
    assert equivalent(sem_instance(out.instance, HORIZON), sem_instance(fig3, HORIZON))
    assert len(out.instance.facts) == len(fig3.facts)


def test_chase_empty_source(example1):
    out = chase(Instance.concrete(example1.source, []), example1)
    assert out == Success(Instance.concrete(example1.target, []))


def test_chase_missing_relations_are_empty(fig1, example1):
    only_employee1 = Instance.concrete(
        [example1.source_by_name["Employee1"]],
        [f for f in fig1.facts if f.relation == "Employee1"])
    out = chase(only_employee1, example1)
    assert isinstance(out, Success)
    assert len(in_order(out.instance, "Emp")) == 2


def test_chase_failure_with_conflicting_companies(fig1, example1):
    src = Instance.concrete(fig1.schema, fig1.facts | {fact("Employee1", "Ada", "HP", time=iv(8, 9))})
    out = chase(src, example1)
    assert isinstance(out, Failure)
    assert out.constants == ("HP", "IBM")
    # cross-check: the abstract chase over the expanded source fails too
    abstract = chase(sem_instance(src, HORIZON), example1)
    assert isinstance(abstract, Failure)
    assert abstract.constants == ("HP", "IBM")


def test_chase_rejects_incomplete_or_mistyped_sources(fig1, example1):
    incomplete = Instance.concrete(
        fig1.schema, fig1.facts | {fact("Employee1", "Ada", Null("X"), time=iv(0, 1))})
    with pytest.raises(PreconditionError):
        chase(incomplete, example1)  # nulls in source
    stranger = Instance.concrete([rel("Alien", "a")], [fact("Alien", "x", time=iv(0, 1))])
    with pytest.raises(SchemaError):
        chase(stranger, example1)


def test_chase_rejects_a_rule_with_an_empty_left_hand_side(fig1, fig2, example1):
    headless = SttTgd((), (Atom("Emp", ("a", "b", "c"), "t"),), frozenset())
    m = replace(example1, sttgds=(*example1.sttgds, headless))
    for src in (fig1, fig2):
        with pytest.raises(SchemaError, match="^rule #2: the left-hand side has no atoms$"):
            chase(src, m)


def test_chase_result_satisfies_the_dependencies(fig1, example1):
    out = chase(fig1, example1)
    combined = Instance.concrete(
        (*example1.source, *example1.target),
        normalize_instance(fig1).facts | out.instance.facts)
    for dep in example1.sttgds:
        for binding in enumerate_formula_homs(dep.lhs, combined):
            extensions = enumerate_formula_homs(dep.rhs, combined, initial=binding)
            assert extensions, f"no extension for {binding}"
    # and no conflicting pair remains
    assert tkc_round_concrete(out.instance, example1.tkcs) == Success(out.instance)


def test_chase_is_deterministic(fig1, example1):
    first = chase(fig1, example1)
    second = chase(fig1, example1)
    assert first == second
    assert dumps_instance(first.instance) == dumps_instance(second.instance)


def test_eqclosure_representatives_and_trace():
    closure = EqClosure()
    n1, n2, n3 = Null("A1"), Null("A2"), Null("A3")
    equalities = [(n1, n2), (n2, c("k")), (n3, n3)]
    assert [closure.merge(x, y) for x, y in equalities] == [None] * 3
    reps = closure.representatives()
    assert reps[n1] == reps[n2] == c("k")
    conflict = closure.merge(c("k"), c("j"))
    assert conflict == (c("j"), c("k"))
    inst = Instance.concrete([rel("R", "a")], [fact("R", n1, time=iv(0, 1))])
    failure = _close_and_replace(inst, [(x, y, iv(0, 1)) for x, y in [*equalities, (n1, c("j"))]])
    assert failure == Failure((c("j"), c("k")), ((c("j"), n1), (n1, n2), (n2, c("k"))), iv(0, 1))


def test_eqclosure_null_only_class_elects_least_label():
    closure = EqClosure()
    a, b = Null("B"), Null("A")
    closure.merge(a, b)
    assert closure.representatives()[a] == b


def test_eqclosure_mixed_contexts_join_only_through_constants():
    """Nulls of two times are never one class: they end at one value only
    when each time's closure equates them with the same constant."""
    early, late = iv(0, 1), iv(4, 5)
    n, m = Null("N"), Null("M")
    closure = EqClosure()
    closure.merge(n, c("k"))
    closure.merge(m, c("k"))
    reps = closure.representatives()
    assert reps[n] == reps[m] == c("k")
    inst = Instance.concrete([rel("R", "a")], [fact("R", n, time=early), fact("R", m, time=late)])
    assert _close_and_replace(inst, [(n, c("k"), early), (m, c("k"), late)]) == Success(
        inst.replace_facts([fact("R", "k", time=early), fact("R", "k", time=late)]))


def test_the_key_round_keeps_one_label_at_two_times_in_two_classes():
    """A null is its label at its time: the same label at two times is two
    nulls, in two closures, so it may equal a different value at each."""
    early, late = iv(0, 1), iv(4, 5)
    n, m = Null("N"), Null("M")
    inst = Instance.concrete([rel("R", "a")], [fact("R", n, time=early), fact("R", n, time=late),
                                               fact("R", m, time=late)])
    assert _close_and_replace(inst, [(n, c("k"), early), (n, m, late)]) == Success(
        inst.replace_facts([fact("R", "k", time=early), fact("R", m, time=late)]))
    assert _close_and_replace(inst, [(n, c("j"), early), (n, c("k"), late), (m, c("k"), late)]) == Success(
        inst.replace_facts([fact("R", "j", time=early), fact("R", "k", time=late)]))
    # N equals j early, so a chain that read N as its label would be j = N = k
    assert _close_and_replace(inst, [(n, c("j"), early), (n, c("k"), late), (m, c("j"), late), (n, m, late)]) == \
        Failure((c("j"), c("k")), ((c("j"), m), (m, n), (n, c("k"))), late)


def test_eqclosure_keeps_the_constant_of_the_smaller_class():
    """In this (canonical) order, the class of x, N5 is the smaller when it
    meets the class of N1, N2, N7; the merged class keeps x, so merging in
    the class of z then conflicts."""
    n1, n2, n5, n7, n8 = (Null(f"N{i}") for i in (1, 2, 5, 7, 8))
    equalities = [(c("x"), n5), (c("z"), n8), (n1, n2), (n1, n7), (n5, n7), (n7, n8)]
    closure = EqClosure()
    assert [closure.merge(x, y) for x, y in equalities] == [None] * 5 + [(c("x"), c("z"))]
    inst = Instance.abstract([rel("R", "a")], [fact("R", n5, time=0), fact("R", n8, time=0)])
    for order in (equalities, equalities[::-1]):
        assert _close_and_replace(inst, [(x, y, 0) for x, y in order]) == Failure(
            (c("x"), c("z")), ((c("x"), n5), (n5, n7), (n7, n8), (n8, c("z"))), 0)


def test_a_key_round_failure_is_the_conflict_canonical_order_meets_first():
    """Twenty classes each equate two constants.  The merges run in set
    order, but the witness is the least class's, whatever that order is."""
    equalities = []
    for i in range(20):
        n = Null(f"N{i:02d}")
        equalities += [(c(f"a{i:02d}"), n, 0), (c(f"b{i:02d}"), n, 0)]
    n00 = Null("N00")
    assert _close_and_replace(Instance.abstract([rel("R", "a")]), equalities[::-1]) == Failure(
        (c("a00"), c("b00")), ((c("a00"), n00), (n00, c("b00"))), 0)


_KEY_VALUES = [c("a"), c("b"), c("c"), *(Null(f"N{i}") for i in range(1, 5))]


@given(st.lists(st.tuples(st.sampled_from([(x, y) for x in _KEY_VALUES for y in _KEY_VALUES if x != y]),
                          st.integers(0, 3)), max_size=30),
       st.lists(st.tuples(st.sampled_from(["ab", "ac", "bc"]), st.sampled_from(_KEY_VALUES[3:]), st.integers(0, 3)),
                min_size=2, max_size=4, unique_by=lambda conflict: conflict[2]))
def test_a_failing_key_round_replays_only_the_times_that_conflict(pairs, conflicts):
    """Random equalities, and two constants equal to one null at each of two
    to four times.  Each time has a closure of its own, so replaying only
    the equalities of the times that conflict meets the same first conflict,
    with the same chain, as replaying every equality."""
    equalities = [(x, y, t) for (x, y), t in pairs] + [(k, n, t) for ks, n, t in conflicts for k in ks]
    assert _close_and_replace(Instance.abstract([rel("R", "a")]), equalities) == _first_conflict(equalities)


def _random_key_groups(rng, kind):
    """Key groups of R(k, d1, d2) keyed on k and the time: one to six members
    each, dependents drawn from three constants and six null labels (shared
    across groups, of one time and of both), and now and then a null key."""
    times = [iv(0, 3), iv(3, INF)] if kind == "concrete" else [0, 1]
    facts = set()
    for _ in range(rng.randint(1, 4)):
        time = rng.choice(times)
        key = Null("K") if rng.random() < 0.05 else c(rng.choice("ab"))

        def dependent():
            return c(rng.choice("xyz")) if rng.random() < 0.3 else Null(f"N{rng.randint(1, 6)}")

        for _ in range(rng.randint(1, 6)):
            facts.add(Fact("R", (key, dependent(), dependent()), time))
    return Instance(kind, (rel("R", "k", "d1", "d2"),), frozenset(facts))


def _assert_witness(failure, equalities, length=None):
    """Two distinct constants joined by a chain of the given equalities of
    the failure's time, of ``length`` links if given."""
    first, last = failure.constants
    assert first != last
    chain = failure.trace
    assert length is None or len(chain) == length
    assert chain and chain[0][0] == c(first) and chain[-1][1] == c(last)
    assert all(y == u for (_, y), (u, _) in zip(chain, chain[1:]))
    links = {frozenset((x, y)) for x, y, t in equalities if t == failure.time}
    assert all(frozenset(link) in links for link in chain)


def test_hub_key_round_agrees_with_all_pairs():
    rng = random.Random(11)
    tkcs = [Tkc("R", frozenset({"k", "time"}), ("d1", "d2"))]
    outcomes = Counter()
    for kind in ("concrete", "abstract"):
        for _ in range(300):
            inst = _random_key_groups(rng, kind)
            try:
                pairs = pairwise_round_equalities(inst, tkcs)
            except KeyNullViolation as exc:
                with pytest.raises(KeyNullViolation, match=re.escape(str(exc))):
                    _round_equalities(inst, tkcs)
                outcomes["null key"] += 1
                continue
            hub = _round_equalities(inst, tkcs)
            got, want = _close_and_replace(inst, hub), _close_and_replace(inst, pairs)
            assert type(got) is type(want), inst
            if isinstance(want, Success):
                assert dumps_instance(got.instance) == dumps_instance(want.instance), inst
                outcomes["success"] += 1
            else:
                _assert_witness(got, pairs)
                outcomes["failure"] += 1
    assert len(outcomes) == 3 and min(outcomes.values()) >= 20, outcomes


def test_the_closure_agrees_with_the_naive_closure():
    """The key round's closure and replacement over random key groups, in
    both views, against the breadth-first oracle: the same instance, or the
    same first conflict with a shortest chain."""
    rng = random.Random(23)
    tkcs = [Tkc("R", frozenset({"k", "time"}), ("d1", "d2"))]
    outcomes = Counter()
    for kind in ("concrete", "abstract"):
        for _ in range(300):
            inst = _random_key_groups(rng, kind)
            try:
                equalities = _round_equalities(inst, tkcs)
            except KeyNullViolation:
                continue
            got, want = _close_and_replace(inst, equalities), naive_closure(inst, equalities)
            if isinstance(want, Instance):
                assert got == Success(want), inst
                outcomes[kind, "success"] += 1
            else:
                constants, time, length = want
                assert (got.constants, got.time) == (constants, time), inst
                _assert_witness(got, equalities, length)
                outcomes[kind, "failure"] += 1
    assert len(outcomes) == 4 and min(outcomes.values()) >= 20, outcomes


def test_key_round_pairs_each_member_with_one_hub():
    k = 2000
    inst = Instance.concrete([rel("Emp", "name", "position", "company")], [
        fact("Emp", "Ada", Null(f"N{i}"), "IBM", time=iv(0, 5)) for i in range(k)])
    tkcs = [Tkc("Emp", frozenset({"name", "time"}), ("position", "company"))]
    hub = Null("N0")  # one equality per dependent that differs from the hub's: here, the position
    equalities = _round_equalities(inst, tkcs)
    assert len(equalities) == k - 1
    assert set(equalities) == {(hub, Null(f"N{i}"), iv(0, 5)) for i in range(1, k)}
    out = tkc_round_concrete(inst, tkcs)
    assert out == Success(inst.replace_facts([fact("Emp", "Ada", Null("N0"), "IBM", time=iv(0, 5))]))
