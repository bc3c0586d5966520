"""Shared builders and fixture loading for the test suite."""
from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

from tdx import (
    ABSTRACT,
    AnswerSet,
    ClopenInterval,
    Fact,
    Instance,
    Null,
    RelationSchema,
    answers_to_instance,
    loads_instance,
    parse_mapping,
    sem_instance,
)

from oracles import in_order  # noqa: F401  (canonical order, by the reference keys)

FIXTURES = Path(__file__).parent / "fixtures"


def load_fixture_instance(name: str) -> Instance:
    return loads_instance((FIXTURES / name).read_text(encoding="utf-8"))


def load_fixture_mapping(name: str):
    return parse_mapping((FIXTURES / name).read_text(encoding="utf-8"))


def fixture_json(name: str) -> dict:
    return json.loads((FIXTURES / name).read_text(encoding="utf-8"))


def c(symbol: str) -> str:
    return symbol


def iv(start, end) -> ClopenInterval:
    return ClopenInterval(start, end)


def null(label: str) -> Null:
    return Null(label)


def fact(relation: str, *values, time) -> Fact:
    return Fact(relation, values, time)


def rel(name: str, *attributes: str, temporal: str = "time") -> RelationSchema:
    return RelationSchema(name, tuple(attributes), temporal)


def answers_sem(ans: AnswerSet, horizon: int) -> AnswerSet:
    """Concrete answers expanded to one abstract answer per time point below
    ``horizon``: the rows of ``sem_instance`` of ``answers_to_instance``."""
    expanded = sem_instance(answers_to_instance(ans), horizon)
    return AnswerSet(ans.name, ABSTRACT, ans.columns, frozenset((*f.values, f.time) for f in expanded.facts))


def bench_workloads():
    """``perfbench/workloads.py``, the benchmark's input generator, imported
    from its file; it does not import tdx."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module
