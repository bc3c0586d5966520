"""Acceptance suite: golden running example, cross-view round equivalences at
desk scale, universality, oracle agreement, CLI determinism, and the
cross-view properties again on sources that normalization must cut and on
the benchmark's generated inputs.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""
import json
import random
import shutil
import time
from contextlib import contextmanager
from functools import cached_property

import pytest

from tdx import (
    Failure,
    Instance,
    KeyNullViolation,
    NoSolution,
    Null,
    Success,
    certain,
    chase,
    equivalent,
    find_abstract_hom,
    instance_from_json,
    naive_eval,
    normalize_instance,
    run_cli,
    sem_instance,
    st_round_abstract,
    st_round_concrete,
    tkc_round_abstract,
    tkc_round_concrete,
    validate_instance,
)

from generators import random_case, random_overlapping_case
from helpers import FIXTURES, answers_sem, bench_workloads, fact, in_order, iv, rel
from oracles import apply_abstract_hom, brute_force_hom_exists

HORIZON = 13
CASE_COUNT = 220
SUCCESS_TARGET = 105


@contextmanager
def report(criterion: str):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {criterion}: FAIL ({time.perf_counter() - started:.2f}s)")
        raise
    print(f"acceptance {criterion}: PASS ({time.perf_counter() - started:.2f}s)")


class Artifacts:
    """Lazily computed per-case pipeline stages, shared across criteria."""

    def __init__(self, case):
        self.case = case

    @cached_property
    def j_c(self):
        m = self.case.mapping
        return st_round_concrete(self.case.source, m.sttgds, m.target)

    @cached_property
    def sem_j_c(self):
        return sem_instance(self.j_c, self.case.horizon)

    @cached_property
    def abstract_source(self):
        return sem_instance(self.case.source, self.case.horizon)

    @cached_property
    def j_a(self):
        m = self.case.mapping
        return st_round_abstract(self.abstract_source, m.sttgds, m.target)

    @cached_property
    def concrete_tkc(self):
        try:
            return tkc_round_concrete(self.j_c, self.case.mapping.tkcs)
        except KeyNullViolation as exc:
            return exc

    @cached_property
    def abstract_tkc(self):
        try:
            return tkc_round_abstract(self.sem_j_c, self.case.mapping.tkcs)
        except KeyNullViolation as exc:
            return exc

    @cached_property
    def abstract_chase(self):
        """The paper's abstract chase: the dependency and key rounds over
        time points (``chase`` reads an abstract source as runs)."""
        try:
            return tkc_round_abstract(self.j_a, self.case.mapping.tkcs)
        except KeyNullViolation as exc:
            return exc


@pytest.fixture(scope="module")
def suite():
    rng = random.Random(20260810)
    cases = []
    successes = 0
    while len(cases) < CASE_COUNT or (successes < SUCCESS_TARGET and len(cases) < 600):
        art = Artifacts(random_case(rng))
        if isinstance(art.abstract_chase, Success):
            successes += 1
        cases.append(art)
    assert successes >= SUCCESS_TARGET
    return cases


@pytest.fixture(scope="module")
def clidir(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("cli")
    for name in ("fig1.json", "fig2.json", "fig3.json", "example1.tdx",
                 "example3.tdx", "example3_source.json"):
        shutil.copy(FIXTURES / name, workdir / name)
    return workdir


def test_criterion_1_running_example_golden(fig1, fig3, fig7, fig8, example1):
    with report("1 running-example golden"):
        started = time.perf_counter()
        assert normalize_instance(fig1) == fig8
        staged = st_round_concrete(fig8, example1.sttgds, example1.target)
        assert len(staged.facts) == len(fig7.facts) == 10
        assert equivalent(sem_instance(staged, HORIZON), sem_instance(fig7, HORIZON))
        outcome = tkc_round_concrete(staged, example1.tkcs)
        assert isinstance(outcome, Success)
        assert len(in_order(outcome.instance, "Emp")) == 3
        assert len(in_order(outcome.instance, "Sal")) == 3
        assert len(in_order(fig3, "Emp")) == 3 and len(in_order(fig3, "Sal")) == 3
        assert equivalent(sem_instance(outcome.instance, HORIZON), sem_instance(fig3, HORIZON))
        assert time.perf_counter() - started < 1.0


def test_criterion_2_dependency_round_commutes(fig2, fig8, example1, suite):
    with report("2 dependency-round equivalence"):
        started = time.perf_counter()
        staged = st_round_concrete(fig8, example1.sttgds, example1.target)
        mirrored = st_round_abstract(sem_instance(fig8, HORIZON), example1.sttgds,
                                     example1.target)
        assert sem_instance(fig8, HORIZON) == fig2
        assert sem_instance(staged, HORIZON) == mirrored
        checked = 0
        for art in suite[:CASE_COUNT]:
            assert art.sem_j_c == art.j_a, art.case
            checked += 1
        assert checked >= 200
        assert time.perf_counter() - started < 60.0


def test_criterion_3_key_round_commutes(suite):
    with report("3 key-round equivalence"):
        for art in suite[:CASE_COUNT]:
            concrete, abstract = art.concrete_tkc, art.abstract_tkc
            if isinstance(concrete, KeyNullViolation) or isinstance(abstract, KeyNullViolation):
                assert isinstance(concrete, KeyNullViolation)
                assert isinstance(abstract, KeyNullViolation)
            elif isinstance(concrete, Failure) or isinstance(abstract, Failure):
                assert isinstance(concrete, Failure) and isinstance(abstract, Failure), art.case
                assert concrete.constants == abstract.constants, art.case
            else:
                assert sem_instance(concrete.instance, art.case.horizon) == abstract.instance, art.case


def test_criterion_4_failure_fixture(fig6, example3):
    with report("4 failure fixture"):
        outcome = tkc_round_abstract(fig6, example3.tkcs)
        assert isinstance(outcome, Failure)
        assert set(outcome.constants) == {"DBA", "Manager"}
        emp = rel("Emp", "name", "position", "company")
        transcription = Instance.concrete([emp], [
            fact("Emp", "Ada", Null("N"), "IBM", time=iv(8, 9)),
            fact("Emp", "Ada", "DBA", "IBM", time=iv(8, 9)),
            fact("Emp", "David", Null("N"), "Intel", time=iv(8, 9)),
            fact("Emp", "David", "Manager", "Intel", time=iv(8, 9)),
        ])
        concrete = tkc_round_concrete(transcription, example3.tkcs)
        assert isinstance(concrete, Failure)
        assert set(concrete.constants) == {"DBA", "Manager"}
        mirrored = tkc_round_abstract(sem_instance(transcription, 9), example3.tkcs)
        assert isinstance(mirrored, Failure)
        assert set(mirrored.constants) == {"DBA", "Manager"}


def test_criterion_5_query_commutation(fig1, example1, suite):
    with report("5 query commutation"):
        for q in example1.queries:
            concrete = certain(q, fig1, example1)
            abstract = certain(q, sem_instance(fig1, HORIZON), example1)
            assert answers_sem(concrete, HORIZON) == abstract
        for art in suite[:CASE_COUNT]:
            if isinstance(art.concrete_tkc, KeyNullViolation):
                continue
            horizon = art.case.horizon
            for q in art.case.mapping.queries:
                if isinstance(art.concrete_tkc, Success):
                    solution = art.concrete_tkc.instance
                    assert answers_sem(naive_eval(q, solution), horizon) == \
                        naive_eval(q, sem_instance(solution, horizon)), art.case
                    assert answers_sem(naive_eval(q, art.j_c), horizon) == \
                        naive_eval(q, art.sem_j_c), art.case
                concrete = certain(q, art.case.source, art.case.mapping)
                abstract = certain(q, art.abstract_source, art.case.mapping)
                if isinstance(concrete, NoSolution) or isinstance(abstract, NoSolution):
                    assert isinstance(concrete, NoSolution) and isinstance(abstract, NoSolution)
                else:
                    assert answers_sem(concrete, horizon) == abstract, art.case
                    assert naive_eval(q, art.abstract_chase.instance) == abstract, art.case


def _nulls_of(inst):
    """Each null of an abstract instance, a label at a point, as ``(null, point)``."""
    return sorted({(v, f.time) for f in inst.facts for v in f.values if isinstance(v, Null)})


def _perturbations(result):
    """Three alternative solutions the chase result must map into."""
    nulls = _nulls_of(result)
    renamed = apply_abstract_hom(
        {(n, t): Null(n.label + "r") for n, t in nulls}, result)
    chosen = [n for i, n in enumerate(nulls) if i % 2 == 0] or nulls
    grounded = apply_abstract_hom(
        {(n, t): f"fc_{n.label}_{t}" for n, t in chosen}, result)
    top = max((f.time for f in result.facts), default=0)
    extra_facts = set(result.facts)
    for k, schema in enumerate(result.schema):
        extra_facts.add(fact(schema.name,
                             *[f"xtra{k}a{j}" for j in range(schema.arity)],
                             time=top + 1 + k))
    extended = Instance.abstract(result.schema, extra_facts)
    return renamed, grounded, extended


def test_criterion_6_universality(fig2, example1, suite):
    with report("6 universality"):
        successes = [art for art in suite if isinstance(art.abstract_chase, Success)]
        assert len(successes) >= 100
        for art in successes[:SUCCESS_TARGET]:
            result = art.abstract_chase.instance
            for perturbed in _perturbations(result):
                assert find_abstract_hom(result, perturbed) is not None, art.case
        # a deliberately over-specialized instance admits no hom back into the result
        golden = chase(fig2, example1).instance
        overspecialized = apply_abstract_hom(
            {n: f"ground_{n[0].label}" for n in _nulls_of(golden)}, golden)
        assert find_abstract_hom(golden, overspecialized) is not None
        assert find_abstract_hom(overspecialized, golden) is None


def test_criterion_7_hom_search_matches_oracle(fig2, fig4, fig5, suite):
    with report("7 hom-search oracle agreement"):
        checked = 0

        def compare(a, b):
            nonlocal checked
            if len(a.facts) <= 12 and len(b.facts) <= 12 and a.schema == b.schema:
                assert (find_abstract_hom(a, b) is not None) == brute_force_hom_exists(a, b)
                assert (find_abstract_hom(b, a) is not None) == brute_force_hom_exists(b, a)
                checked += 1

        compare(fig4, fig5)
        compare(fig4, fig4)
        for art in suite[:CASE_COUNT]:
            compare(art.sem_j_c, art.j_a)
            if isinstance(art.concrete_tkc, Success) and isinstance(art.abstract_tkc, Success):
                compare(sem_instance(art.concrete_tkc.instance, art.case.horizon),
                        art.abstract_tkc.instance)
            if isinstance(art.abstract_chase, Success):
                result = art.abstract_chase.instance
                for perturbed in _perturbations(result):
                    compare(result, perturbed)
        assert checked >= 40


def test_criterion_8_cli_determinism(clidir, capsys):
    with report("8 CLI determinism"):
        out1, out2 = clidir / "first.out", clidir / "second.out"
        commands = [
            ["normalize", "-i", f"{clidir}/fig1.json"],
            ["sem", "-i", f"{clidir}/fig1.json"],
            ["sem", "-i", f"{clidir}/fig1.json", "--horizon", "13"],
            ["chase", "-m", f"{clidir}/example1.tdx", "-i", f"{clidir}/fig1.json"],
            ["achase", "-m", f"{clidir}/example1.tdx", "-i", f"{clidir}/fig2.json"],
            ["achase", "-m", f"{clidir}/example3.tdx", "-i", f"{clidir}/example3_source.json"],
            ["query", "-m", f"{clidir}/example1.tdx", "-i", f"{clidir}/fig3.json",
             "-q", "positions"],
            ["certain", "-m", f"{clidir}/example1.tdx", "-i", f"{clidir}/fig1.json",
             "-q", "paid_positions"],
        ]
        for argv in commands:
            first = run_cli([*argv, "-o", str(out1)])
            second = run_cli([*argv, "-o", str(out2)])
            assert first == second
            assert out1.read_bytes() == out2.read_bytes(), argv
        capsys.readouterr()
        assert run_cli(["equiv", "-a", f"{clidir}/fig1.json", "-b", f"{clidir}/fig2.json",
                        "--horizon", "13"]) == 0
        first_text = capsys.readouterr().out
        assert run_cli(["equiv", "-a", f"{clidir}/fig1.json", "-b", f"{clidir}/fig2.json",
                        "--horizon", "13"]) == 0
        assert capsys.readouterr().out == first_text


class OverlapArtifacts(Artifacts):
    """The stages of a case whose source is not normalized: the concrete
    dependency round reads its normalization."""

    @cached_property
    def normalized_source(self):
        return normalize_instance(self.case.source)

    @cached_property
    def j_c(self):
        m = self.case.mapping
        return st_round_concrete(self.normalized_source, m.sttgds, m.target)

    @cached_property
    def concrete_chase(self):
        try:
            return chase(self.case.source, self.case.mapping)
        except KeyNullViolation as exc:
            return exc


OVERLAP_CASES = 5


@pytest.fixture(scope="module")
def overlap_suite():
    rng = random.Random(20261018)
    return [OverlapArtifacts(random_overlapping_case(rng)) for _ in range(OVERLAP_CASES)]


def test_overlapping_sources_are_cut_without_changing_sem(overlap_suite):
    with report("overlap: sem(normalize(s)) == sem(s)"):
        for art in overlap_suite:
            source, normalized = art.case.source, art.normalized_source
            assert len(normalized.facts) > len(source.facts), art.case
            assert sem_instance(normalized, art.case.horizon) == art.abstract_source, art.case


def test_overlapping_sources_dependency_round_commutes(overlap_suite):
    with report("overlap: 2 dependency-round equivalence"):
        for art in overlap_suite:
            assert art.sem_j_c == art.j_a, art.case


def test_overlapping_sources_key_round_commutes(overlap_suite):
    with report("overlap: 3 key-round equivalence"):
        outcomes = set()
        for art in overlap_suite:
            concrete, abstract = art.concrete_tkc, art.abstract_tkc
            assert type(concrete) is type(abstract), art.case
            outcomes.add(type(concrete))
            if isinstance(concrete, Success):
                assert sem_instance(concrete.instance, art.case.horizon) == abstract.instance, art.case
            elif isinstance(concrete, Failure):
                assert set(concrete.constants) == set(abstract.constants), art.case
        assert Success in outcomes


def test_overlapping_sources_query_commutation(overlap_suite):
    """Certain answers are the naive answers on each view's chase result."""
    with report("overlap: 5 query commutation"):
        successes = 0
        for art in overlap_suite:
            concrete, abstract = art.concrete_chase, art.abstract_chase
            assert type(concrete) is type(abstract), art.case
            if not isinstance(concrete, Success):
                continue
            successes += 1
            for q in art.case.mapping.queries:
                assert answers_sem(naive_eval(q, concrete.instance), art.case.horizon) == \
                    naive_eval(q, abstract.instance), art.case
        assert successes > OVERLAP_CASES // 2


def test_overlapping_sources_universality(overlap_suite):
    with report("overlap: 6 universality"):
        for art in overlap_suite:
            if isinstance(art.abstract_chase, Success):
                result = art.abstract_chase.instance
                for perturbed in _perturbations(result):
                    assert find_abstract_hom(result, perturbed) is not None, art.case


def test_criterion_9_cross_view_at_bench_scale(example1, example3):
    """The seed-1 inputs of every workload at sizes S, 2S and 4S, made as
    ``perfbench/run.py`` makes them: the concrete chase under ``sem`` equals
    the abstract chase of the ``sem`` source, each query
    answers alike, and the failing variant fails in both views with the
    benchmark's witness."""
    with report("9 cross-view at bench scale"):
        bench = bench_workloads()
        checked = 0
        for workload in bench.WORKLOADS.values():
            for k, n in enumerate(workload.sizes):
                sc = workload.generate(n, random.Random(f"1:{k}"))
                src = instance_from_json(bench.concrete_doc(bench.EXAMPLE1_SOURCE, sc.source))
                abstract_src = sem_instance(src, sc.horizon)
                assert abstract_src == instance_from_json(
                    bench.abstract_doc(bench.EXAMPLE1_SOURCE, sc.source, sc.horizon))
                concrete, abstract = chase(src, example1), chase(abstract_src, example1)
                assert isinstance(concrete, Success) and isinstance(abstract, Success)
                expanded = sem_instance(concrete.instance, sc.horizon)
                assert expanded == abstract.instance
                # each is born checked, so each must break no rule
                for inst in (abstract_src, concrete.instance, abstract.instance, expanded):
                    assert validate_instance(inst) == [], (workload.name, n)
                for q in example1.queries:
                    assert answers_sem(naive_eval(q, concrete.instance), sc.horizon) == \
                        naive_eval(q, abstract.instance), (workload.name, n, q.name)
                m = example1 if sc.failing_schema is bench.EXAMPLE1_SOURCE else example3
                failing = instance_from_json(bench.concrete_doc(sc.failing_schema, sc.failing))
                failing_abstract = sem_instance(failing, sc.failing_horizon)
                assert validate_instance(failing_abstract) == [], (workload.name, n)
                for outcome in (chase(failing, m), chase(failing_abstract, m)):
                    assert isinstance(outcome, Failure), (workload.name, n)
                    assert tuple(sorted(outcome.constants)) == sc.witness, (workload.name, n)
                checked += 1
        assert checked == 9
