"""Naive query evaluation and certain answers through the chase.

Naive evaluation reads annotated nulls as distinct fresh constants, so a
variable may bind to a null during matching, but any answer tuple still
carrying one is dropped: answers contain constants and a time value only.
Certain answers are computed by evaluating naively on the chase result, which
is a universal solution; a failed chase yields the distinguished NoSolution.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .chase import Failure, chase
from .errors import SchemaError
from .homomorphism import _formula_homs, _join_inputs
from .mapping_lang import Mapping, Ucq, _query_problems
from .model import (
    CONCRETE,
    Fact,
    Instance,
    RelationSchema,
    _check_instance,
    _Checked,
    _coalesced,
    _refuse_class,
)


@dataclass(frozen=True)
class AnswerSet(_Checked):
    """Answers to one named query: complete tuples of constants plus a time value."""

    name: str
    kind: str
    columns: tuple[str, ...]
    rows: frozenset[tuple]

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.columns or any(len(row) != len(self.columns) for row in self.rows):
            raise SchemaError(f"answers {self.name!r}: every row must hold one value per column of {self.columns}, "
                              "the time last")


@dataclass(frozen=True)
class NoSolution:
    """Distinguished outcome when the chase fails: no solution exists to query."""

    failure: Failure


def naive_eval(q: Ucq, inst: Instance) -> AnswerSet:
    """Evaluate a union of conjunctive queries, discarding incomplete answers.

    Per disjunct, every formula homomorphism of the body is projected onto the
    head variables and the temporal variable; the disjunct results are
    unioned, and tuples containing any null are dropped.  An answer set is a
    set, so the bindings go straight into it as the join yields them, in no
    order.

    A concrete instance need not be normalized: a disjunct of several atoms
    reads its join blocks cut (``homomorphism._join_inputs``), and the
    answers are coalesced, each answer's intervals merged where they overlap
    or meet, so they depend only on the instance's abstract view.  Raises
    SchemaError for an instance that ``validate_instance`` faults, then for
    a ``q`` that is not a ``Ucq``, or, parsed or built in code, that
    ``validate_mapping`` faults as the one query of a mapping into the
    instance's schema (its first problem), and
    PreconditionError, before any fragment is made, if the cuts would add
    more than ``MAX_NORMALIZE_FRAGMENTS`` fragments, as ``chase`` does.
    """
    _check_instance(inst)
    _refuse_class(q, Ucq, "query")
    for _code, message, _at in _query_problems(q, {}, inst.schema_by_name):
        raise SchemaError(f"query {q.name!r}: {message}")
    rows: set[tuple] = set()
    for disjunct, body_inst in zip(q.disjuncts, _join_inputs(q.disjuncts, inst, "the query body")):
        for binding in _formula_homs(disjunct, body_inst, None):
            values = [binding[v] for v in q.head]
            if any(not isinstance(v, str) for v in values):
                continue  # a null never reaches an answer
            rows.add((*values, binding[q.time_var]))
    if inst.kind == CONCRETE:
        rows = _coalesced(rows, _values_of, lambda values, iv: (*values, iv)) or rows
    return AnswerSet(q.name, inst.kind, q.columns, frozenset(rows))


def _values_of(row: tuple) -> tuple:
    """An answer's values, without its time."""
    return row[:-1]


def certain(q: Ucq, src: Instance, m: Mapping) -> Union[AnswerSet, NoSolution]:
    """Certain answers in the view of the source's kind: chase, then evaluate naively."""
    outcome = chase(src, m)
    if isinstance(outcome, Failure):
        return NoSolution(outcome)
    return naive_eval(q, outcome.instance)


def answers_to_instance(ans: AnswerSet) -> Instance:
    """Answers as a one-relation instance (complete facts only), for
    serialization.  Raises SchemaError if ``ans`` is not an ``AnswerSet``;
    its rows are checked as facts where the instance is read."""
    _refuse_class(ans, AnswerSet, "answers")
    schema = RelationSchema(ans.name, ans.columns[:-1], ans.columns[-1])
    facts = {
        Fact(ans.name, row[:-1], row[-1])
        for row in ans.rows
    }
    return Instance(ans.kind, (schema,), frozenset(facts))
