"""The concrete chase cuts each fact only against the facts it can meet and
writes its result coalesced; ``naive_eval`` does the same per query body.
The key round cuts only the key blocks that hold a conflict.

Two contracts are checked on random draws, with one-atom and two-atom rule
bodies: the normalized and the overlapping sources of ``random_case``, and
the larger overlapping sources of ``random_overlapping_case``:

- against the chase with every cut global (``globally_normalized_chase``): the
  result is that chase's result coalesced, byte for byte; a chase fails in
  one path iff it fails in the other, on the same constants; errors are of
  one class; and every query's answers agree after ``answers_sem``;
- the traced benchmark pass rebuilds ``tdx chase`` and ``tdx certain`` from
  ``normalize_instance``, ``st_round_concrete``, ``tkc_round_concrete`` and
  ``naive_eval``, and its bytes, failure witnesses and ``KeyNullViolation``
  messages are the commands' own.  Random draws seldom fail with a null in
  the witness, so one such failure, and one ``KeyNullViolation``, are
  checked on fixed sources that the two paths cut differently;
- against the key round that cuts every key block (``every_block_key_round``),
  on drawn key groups and on the benchmark's sources: the same bytes, the
  same failure, the same ``KeyNullViolation`` text.  Only the size refusal
  differs, since it counts only the blocks that are cut.
"""
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import tdx.model
from tdx import (
    INF,
    Failure,
    Instance,
    KeyNullViolation,
    Null,
    PreconditionError,
    Success,
    TdxError,
    Tkc,
    answers_to_instance,
    chase,
    dumps_instance,
    naive_eval,
    normalize_instance,
    parse_mapping,
    run_cli,
    st_round_concrete,
    tkc_round_concrete,
    validate_instance,
)
from tdx.chase import _key_round, _st_round
from tdx.cli import _failure_text
from tdx.model import conform_instance, instance_from_json
from tdx.query import AnswerSet

from generators import random_case, random_overlapping_case, render_mapping
from helpers import answers_sem, bench_workloads, fact, iv, rel
from oracles import coalesced, every_block_key_round, globally_normalized_chase, nested_loop_homs

RANDOM_DRAWS = 300  # of each kind of ``random_case``: normalized and overlapping sources
LARGE_DRAWS = 1  # of ``random_overlapping_case``; a draw of 200-300 facts can take seconds per chase


@pytest.fixture(scope="module")
def draws():
    rng = random.Random(1712)
    cases = [random_case(rng, overlapping=k % 2 == 1) for k in range(2 * RANDOM_DRAWS)]
    rng = random.Random(1713)
    return cases + [random_overlapping_case(rng) for _ in range(LARGE_DRAWS)]


def _outcome(run):
    """What a chase path returns, or the error it raises."""
    try:
        return run()
    except TdxError as exc:
        return exc


def _oracle_answers(q, inst, horizon):
    """``answers_sem`` of the nested-loop answers over a normalized instance."""
    rows = set()
    for disjunct in q.disjuncts:
        for b in nested_loop_homs(disjunct, inst):
            values = [b[v] for v in q.head]
            if all(isinstance(v, str) for v in values):
                rows.add((*values, b[q.time_var]))
    return answers_sem(AnswerSet(q.name, inst.kind, q.columns, frozenset(rows)), horizon)


def test_scoped_chase_agrees_with_the_globally_normalized_chase(draws):
    seen = Counter()
    for case in draws:
        m, src = case.mapping, case.source
        seen["two-atom body"] += any(len(rule.lhs) > 1 for rule in m.sttgds)
        seen["one-atom body"] += any(len(rule.lhs) == 1 for rule in m.sttgds)
        seen["unnormalized source"] += len(normalize_instance(src).facts) > len(src.facts)
        got = _outcome(lambda: chase(src, m))
        want = _outcome(lambda: globally_normalized_chase(src, m))
        assert type(got) is type(want), case
        if isinstance(got, Success):
            assert validate_instance(got.instance) == [], case  # born checked, so it must break no rule
            assert dumps_instance(got.instance) == dumps_instance(coalesced(want.instance)), case
            for q in m.queries:
                assert answers_sem(naive_eval(q, got.instance), case.horizon) == \
                    _oracle_answers(q, want.instance, case.horizon), (case, q)
                seen["answer sets"] += 1
            seen["results"] += 1
        elif isinstance(got, Failure):
            assert got.constants == want.constants, case
            seen["failures"] += 1
        else:
            seen["errors"] += 1
    assert seen["results"] >= 200 and seen["failures"] >= 50 and seen["answer sets"] >= 300, seen
    assert seen["errors"] >= 1 and seen["two-atom body"] >= 100 and seen["one-atom body"] >= 100, seen
    assert seen["unnormalized source"] >= 200, seen


def _cli(tmp_path, capsys, *argv) -> tuple[int, str, str]:
    """Exit code, output file text and stderr of one ``tdx`` command."""
    out = tmp_path / "out.json"
    if out.exists():
        out.unlink()
    code = run_cli([*argv, "-o", str(out)])
    return code, out.read_text(encoding="utf-8") if out.exists() else "", capsys.readouterr().err


def test_the_traced_pass_writes_the_bytes_of_the_commands(draws, tmp_path, capsys):
    seen = Counter()
    mapping, source = tmp_path / "m.tdx", tmp_path / "src.json"
    for case in draws:
        m, src = case.mapping, case.source
        mapping.write_text(render_mapping(m), encoding="utf-8")
        source.write_text(dumps_instance(src), encoding="utf-8")

        def traced_pass():
            staged = st_round_concrete(normalize_instance(src), m.sttgds, m.target)
            assert validate_instance(staged) == [], case  # each round's output is born checked
            return tkc_round_concrete(staged, m.tkcs)

        traced = _outcome(traced_pass)
        code, text, err = _cli(tmp_path, capsys, "chase", "-m", str(mapping), "-i", str(source))
        if isinstance(traced, KeyNullViolation):
            assert (code, text, err) == (1, "", f"error: {traced}\n"), case
            seen["KeyNullViolation"] += 1
        elif isinstance(traced, Failure):
            assert (code, text) == (2, _failure_text(traced)), case
            seen["failures"] += 1
        else:
            assert validate_instance(traced.instance) == [], case
            assert (code, text) == (0, dumps_instance(traced.instance)), case
            seen["results"] += 1
        for q in m.queries:
            code, text, err = _cli(tmp_path, capsys, "certain", "-m", str(mapping), "-i", str(source),
                                   "-q", q.name)
            if isinstance(traced, Success):
                assert (code, text) == (0, dumps_instance(answers_to_instance(naive_eval(q, traced.instance)))), \
                    (case, q)
                seen["answer sets"] += 1
            elif isinstance(traced, Failure):
                assert (code, text) == (2, _failure_text(traced)), (case, q)
            else:
                assert (code, err) == (1, f"error: {traced}\n"), (case, q)
    assert seen["results"] >= 200 and seen["failures"] >= 50 and seen["answer sets"] >= 300, seen
    assert seen["KeyNullViolation"] >= 1, seen


def test_failure_witnesses_and_key_null_messages_do_not_depend_on_the_cut(example3):
    """The key round reads its input coalesced, so a witness's nulls and a
    ``KeyNullViolation``'s fact carry the key block's pieces whether the
    dependency round read the source cut globally or per join block: here
    the global cut adds the endpoints 6 and 3, which no key block has."""
    src = Instance.concrete(example3.source, [
        fact("SamePosition", "Ada", "IBM", "David", "Intel", time=iv(0, 10)),
        fact("Title", "Ada", "DBA", "IBM", time=iv(2, 6)),
        fact("Title", "Ada", "DBA", "IBM", time=iv(6, 9)),
        fact("Title", "David", "Manager", "Intel", time=iv(4, 8)),
    ])
    position = Null('[0,"p",["IBM","Intel","Ada","David"]]')
    witness = Failure(("DBA", "Manager"), (("DBA", position), (position, "Manager")), iv(4, 8))
    assert chase(src, example3) == witness
    assert tkc_round_concrete(st_round_concrete(normalize_instance(src), example3.sttgds, example3.target),
                              example3.tkcs) == witness

    m = parse_mapping("source S(x, y, @t).\ntarget T(a, b, @t).\n"
                      "rule S(x, y, t) -> T(?n, x, t), T(?n, y, t).\nkey T(a, @t).\n")
    src = Instance.concrete(m.source, [fact("S", "a", "b", time=iv(0, 6)), fact("S", "a", "b", time=iv(3, 9))])
    message = re.escape("""T([0,"n",["a","b"]]^[0,9), a, [0,9)): null [0,"n",["a","b"]]^[0,9) in key position 'a'""")
    with pytest.raises(KeyNullViolation, match=f"^{message}$"):
        chase(src, m)
    with pytest.raises(KeyNullViolation, match=f"^{message}$"):
        tkc_round_concrete(st_round_concrete(normalize_instance(src), m.sttgds, m.target), m.tkcs)


def test_the_key_round_counts_its_cut_against_the_facts_it_was_given(example1, monkeypatch):
    """A key round's cut is refused when it would add more than
    ``MAX_NORMALIZE_FRAGMENTS`` facts to the facts the round was given,
    counting those it coalesced before the cut.  Ada's eight nested jobs
    [i, inf), each in its own department, fire with nulls of their own, and
    her Emp facts are one key group, as are her Sal facts.  Chased per
    block, the dependency round makes 16 facts, which the key round would
    cut into 2 x 36 = 72; over the globally normalized source (28 fragments
    more than its 8 facts) it makes those 72 itself, which coalesce to 16
    and are cut back into 72, adding nothing."""
    src = Instance.concrete(example1.source, [fact("Employee2", "Ada", "DBA", f"d{i}", time=iv(i, INF))
                                              for i in range(8)])
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 30)
    with pytest.raises(PreconditionError, match="^the key round would split 16 facts into 72 fragments, "
                                                "56 more than the facts, above the limit of 30$"):
        chase(src, example1)
    staged = st_round_concrete(normalize_instance(src), example1.sttgds, example1.target)
    assert len(staged.facts) == 72
    traced = tkc_round_concrete(staged, example1.tkcs)
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 56)
    assert dumps_instance(chase(src, example1).instance) == dumps_instance(traced.instance)


def test_the_key_round_names_the_facts_coalescing_merged_apart_from_those_it_cuts(example1, monkeypatch):
    """Each of Ada's eight nested jobs given in two pieces, [i, 100) and
    [100, inf), fires twice with the same nulls, so the key round coalesces
    the dependency round's 32 facts to 16 and would cut those into 72: it
    names the 16 facts it cuts, and the 16 that coalescing merged away apart
    from them."""
    src = Instance.concrete(example1.source, [fact("Employee2", "Ada", "DBA", f"d{i}", time=t)
                                              for i in range(8) for t in (iv(i, 100), iv(100, INF))])
    assert len(st_round_concrete(src, example1.sttgds, example1.target).facts) == 32
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 30)
    with pytest.raises(PreconditionError, match="^the key round would split 16 facts into 72 fragments, 40 more "
                                                "than the facts and the 16 that coalescing merged away, "
                                                "above the limit of 30$"):
        chase(src, example1)


_TWO_JOINS = parse_mapping("""
source A(x, @t).
source B(x, @t).
source C(x, @t).
source D(x, @t).
target T(x, @t).
target U(x, @t).
rule A(x, t), B(x, t) -> T(x, t).
rule C(x, t), D(x, t) -> U(x, t).
""")
_TWO_DISJUNCTS = parse_mapping("""
source S(x, @t).
target A(x, @t).
target B(x, @t).
target C(x, @t).
target D(x, @t).
query q(x, t) :- A(x, t), B(x, t).
query q(x, t) :- C(x, t), D(x, t).
""")


def test_the_fragments_of_every_body_are_summed_before_any_is_cut(monkeypatch):
    """Each body's join block needs a cut: A and B split 2 facts into 4
    fragments, C and D 3 facts into 7.  With a limit between one body's
    added fragments (2 or 4) and their sum (6), the chase and ``naive_eval``
    refuse with the counts of both bodies, and no fact is cut first."""
    facts = [fact("A", "a", time=iv(0, 4)), fact("B", "a", time=iv(2, 6)),
             fact("C", "c", time=iv(0, 6)), fact("D", "c", time=iv(1, 2)), fact("D", "c", time=iv(3, 4))]

    def no_cut(*args):
        raise AssertionError("a fact was cut before the count was refused")

    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 5)
    monkeypatch.setattr(tdx.model, "_cut", no_cut)
    for stage, run in (("the rule bodies", lambda: chase(Instance.concrete(_TWO_JOINS.source, facts), _TWO_JOINS)),
                       ("the query body", lambda: naive_eval(_TWO_DISJUNCTS.queries[0],
                                                             Instance.concrete(_TWO_DISJUNCTS.target, facts)))):
        with pytest.raises(PreconditionError, match=f"^{stage} would split 5 facts into 11 fragments, "
                                                    "6 more than the facts, above the limit of 5$"):
            run()


def _same_key_round(inst, tkcs):
    """The key round's outcome, checked against the round that cuts every
    key block: equal bytes, an equal failure (constants, trace and time),
    or an error of one class and one text."""
    got = _outcome(lambda: _key_round(inst, tkcs))
    want = _outcome(lambda: every_block_key_round(inst, tkcs))
    assert type(got) is type(want), inst
    if isinstance(got, Success):
        assert dumps_instance(got.instance) == dumps_instance(want.instance), inst
    elif isinstance(got, Failure):
        assert got == want, inst
    else:
        assert str(got) == str(want), inst
    return got


_KEYED = (rel("R", "k", "d", "e"), rel("S", "k", "d"), rel("U", "a", "b"))
_KEYS = (Tkc("R", frozenset({"k", "time"})), Tkc("S", frozenset({"k", "time"})), Tkc("S", frozenset({"d", "time"})))
_N1, _N2, _N3 = Null("N1"), Null("N2"), Null("N3")
_times = st.builds(lambda start, length: iv(start, INF if length is None else start + length),
                   st.integers(0, 5), st.one_of(st.integers(1, 4), st.none()))
_keys = st.sampled_from(["a", "b", "a", "b", _N1])  # now and then a null in a key position
_values = st.sampled_from(["a", "b", "x", _N1, _N2, _N3])
_facts = st.one_of(st.builds(lambda k, d, e, t: fact("R", k, d, e, time=t), _keys, _values, _values, _times),
                   st.builds(lambda k, d, t: fact("S", k, d, time=t), _keys, _values, _times),
                   st.builds(lambda a, b, t: fact("U", a, b, time=t), _values, _values, _times))


@settings(max_examples=300, deadline=None)
@given(st.lists(_facts, max_size=10))
@example([fact("R", "a", _N2, "x", time=iv(0, INF)), fact("R", "a", "b", "x", time=iv(2, 4)),  # nested
          fact("U", _N2, "b", time=iv(1, 3))])  # the null of a conflict held outside its key group
@example([fact("R", "a", _N2, "x", time=iv(0, 2)), fact("R", "a", "b", "x", time=iv(2, 4)),  # meeting
          fact("S", "a", _N2, time=iv(1, 5))])
@example([fact("R", "a", _N2, _N3, time=iv(1, 3)), fact("R", "a", "b", "x", time=iv(1, 3)),  # equal
          fact("R", "b", _N3, "a", time=iv(0, 6)), fact("R", "b", "b", "x", time=iv(2, 3))])
@example([fact("S", _N1, "a", time=iv(0, 3)), fact("S", _N1, "b", time=iv(2, INF))])  # a null key
def test_the_key_round_agrees_with_the_round_that_cuts_every_key_block(facts):
    """Drawn facts of two keyed relations, one with two keys, and one
    relation without a key that links key groups through nulls."""
    _same_key_round(Instance.concrete(_KEYED, facts), _KEYS)


def test_the_key_round_agrees_with_the_round_that_cuts_every_key_block_on_the_bench_sources(example1, example3):
    """Every benchmark source at its largest size, and every failing source
    under its own mapping (example1 or example3), each through the
    dependency round and then both key rounds."""
    bench = bench_workloads()
    seen = Counter()
    for workload in bench.WORKLOADS.values():
        sc = workload.generate(workload.sizes[-1], random.Random("1:2"))
        failing_mapping = example1 if sc.failing_schema is bench.EXAMPLE1_SOURCE else example3
        for m, schema, facts in ((example1, bench.EXAMPLE1_SOURCE, sc.source),
                                 (failing_mapping, sc.failing_schema, sc.failing)):
            src = conform_instance(instance_from_json(bench.concrete_doc(schema, facts)), m.source)
            seen[type(_same_key_round(_st_round(src, m.sttgds, m.target), m.tkcs)).__name__] += 1
    assert seen == {"Success": 3, "Failure": 3}, seen


def test_the_key_round_counts_only_the_blocks_it_cuts(monkeypatch):
    """Eight facts R(a_i, N) over nested intervals [i, inf) hold one null
    and have distinct keys: one key block of 8 facts that a cut would split
    into 36 fragments, 28 more, and in which no key is violated.  The round
    that cuts every key block refuses it under a limit of 27; the key round
    cuts nothing and returns it.  A second such block, of the null M, with
    one more fact R(b_0, x) over [0, 1) that overlaps R(b_0, M), is in
    conflict: its 9 facts would be split into 37 fragments, so it is
    refused again, counting that block alone."""
    quiet = [fact("R", f"a{i}", Null("N"), time=iv(i, INF)) for i in range(8)]
    loud = [fact("R", f"b{i}", Null("M"), time=iv(i, INF)) for i in range(8)] + [fact("R", "b0", "x", time=iv(0, 1))]
    schema, keys = [rel("R", "k", "d")], [Tkc("R", frozenset({"k", "time"}))]
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 27)
    inst = Instance.concrete(schema, quiet)
    with pytest.raises(PreconditionError, match="^the key round would split 8 facts into 36 fragments, "
                                                "28 more than the facts, above the limit of 27$"):
        every_block_key_round(inst, keys)
    assert tkc_round_concrete(inst, keys) == Success(inst)

    inst = Instance.concrete(schema, quiet + loud)
    with pytest.raises(PreconditionError, match="^the key round would split 17 facts into 73 fragments, "
                                                "56 more than the facts, above the limit of 27$"):
        every_block_key_round(inst, keys)
    with pytest.raises(PreconditionError, match="^the key round would split 9 facts into 37 fragments, "
                                                "28 more than the facts, above the limit of 27$"):
        tkc_round_concrete(inst, keys)
    monkeypatch.setattr(tdx.model, "MAX_NORMALIZE_FRAGMENTS", 28)
    assert tkc_round_concrete(inst, keys) == Success(inst.replace_facts(
        quiet + loud[1:] + [fact("R", "b0", Null("M"), time=iv(1, INF))]))
