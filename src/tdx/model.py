"""Values, facts, schemas, instances, and the two views of temporal data.

A *concrete* instance stores each fact with a clopen interval; an *abstract*
instance stores one fact per time point.  A constant is its ``str``.  Unknown
values are labeled nulls annotated with the temporal context of the fact they
occur in: one ``Null`` type serves both views, as ``N^[s,e)`` in a concrete
fact and ``N^t`` in an abstract one, so a null's view is the type of its
context.  Two annotated nulls are equal exactly when label and context are
both equal.

``Null``, ``Fact`` and ``ClopenInterval`` are named tuples, so they hash,
compare and are built in C; each also equals the plain tuple of its fields.
A time is therefore told apart by its class as well as its value wherever
times are checked (``True == 1``, and an interval equals ``(start, end)``).
Canonical order is the values' own order: ``Null`` adds the one comparison
its tuple lacks, a constant before every null, so the values, facts and
bindings of a well-formed instance sort natively (a fact by relation, then
values, then time; intervals by start, then end, finite ends first).

``sem_fact`` / ``sem_instance`` expand the concrete view into the abstract one
up to an explicit finite horizon (abstract views of unbounded intervals are
infinite, so materialization must be bounded).  ``normalize_instance``
rewrites a concrete instance so that any two intervals across all relations
are either equal or disjoint.

An instance is a set of facts; canonical order is a cost paid where order
shows.  An instance's accessors, ``facts`` and ``facts_by_relation`` (each
relation's facts), are unsorted, and the joins of ``homomorphism`` (and so
the chase and ``naive_eval``) and the key round read only these.  A reader
whose result shows an order sorts what it reads itself: ``dumps_instance``,
the one writer of instance text, and ``instance_to_json`` sort each
relation's facts as they write them, and ``validate_instance`` orders its
facts by ``_offender_key``, as it also orders facts that hold non-values.

The rules of a well-formed instance are written once, in ``_fact_problems``:
``validate_instance`` lists every problem, and ``_check_instance``, which
every function that reads an instance's facts calls, and both writers,
raises the first.
"""
from __future__ import annotations

import json
import reprlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring as _encode
from functools import cached_property
from typing import Collection, Iterable, Iterator, NamedTuple, Union

from .errors import InvalidHorizonError, PreconditionError, SchemaError
from .temporal import INF, ClopenInterval, build_grid, interval_points, split_interval

CONCRETE = "concrete"
ABSTRACT = "abstract"


TimeValue = Union[ClopenInterval, int]


class Null(NamedTuple):
    """A labeled null annotated with the time of its fact: an interval in a
    concrete fact, a time point in an abstract one."""

    label: str
    context: TimeValue

    def __str__(self) -> str:
        return f"{self.label}^{self.context}"

    # Canonical order: a constant (a ``str``) sorts before every null, and two
    # nulls compare as their ``(label, context)`` tuples.
    def __lt__(self, other: object) -> bool:
        return not isinstance(other, str) and tuple.__lt__(self, other)

    def __le__(self, other: object) -> bool:
        return not isinstance(other, str) and tuple.__le__(self, other)

    def __gt__(self, other: object) -> bool:
        return isinstance(other, str) or tuple.__gt__(self, other)

    def __ge__(self, other: object) -> bool:
        return isinstance(other, str) or tuple.__ge__(self, other)


Value = Union[str, Null]  # a constant is its string


def is_null(v: Value) -> bool:
    return isinstance(v, Null)


class Fact(NamedTuple):
    """One tuple of a relation: non-temporal values plus its time (interval or point)."""

    relation: str
    values: tuple[Value, ...]
    time: TimeValue

    def __str__(self) -> str:
        inner = ", ".join(str(v) for v in (*self.values, self.time))
        return f"{self.relation}({inner})"


def _any_sort_key(v: object) -> tuple:
    """A total order over any objects, which orders the problems of
    ``validate_instance``: time points, intervals, constants and nulls, in
    that order and each kind in canonical order, then every other object by
    its type's name and ``repr``."""
    if isinstance(v, int) and not isinstance(v, bool):
        return (0, v)
    if isinstance(v, ClopenInterval):
        return (1, v.start, v.end)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, Null) and isinstance(v.label, str):
        return (3, v.label, _any_sort_key(v.context))
    return (4, type(v).__qualname__, repr(v))


def _offender_key(f: Fact) -> tuple:
    """Canonical fact order, extended to a fact of any relation name that
    holds or is timed by a non-value, or whose values are not a tuple."""
    values = (0, tuple(map(_any_sort_key, f.values))) if isinstance(f.values, tuple) else (1, _any_sort_key(f.values))
    return (_any_sort_key(f.relation), values, _any_sort_key(f.time))


@dataclass(frozen=True)
class RelationSchema:
    """Relation signature: non-temporal attributes plus the temporal attribute (last)."""

    name: str
    attributes: tuple[str, ...]
    temporal: str

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def all_attributes(self) -> tuple[str, ...]:
        return (*self.attributes, self.temporal)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class Instance:
    """A finite set of facts per relation, tagged concrete or abstract.

    Instances are immutable values; the schema is kept sorted by relation name
    so that equal instances serialize identically.
    """

    kind: str
    schema: tuple[RelationSchema, ...]
    facts: frozenset[Fact]

    def __post_init__(self) -> None:
        if self.kind not in (CONCRETE, ABSTRACT):
            raise ValueError(f"instance kind must be {CONCRETE!r} or {ABSTRACT!r}, got {self.kind!r}")
        object.__setattr__(self, "schema", tuple(sorted(self.schema, key=lambda r: r.name)))
        object.__setattr__(self, "facts", frozenset(self.facts))
        names = [r.name for r in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate relation name in instance schema")

    @classmethod
    def concrete(cls, schema: Iterable[RelationSchema], facts: Iterable[Fact] = ()) -> "Instance":
        return cls(CONCRETE, tuple(schema), frozenset(facts))

    @classmethod
    def abstract(cls, schema: Iterable[RelationSchema], facts: Iterable[Fact] = ()) -> "Instance":
        return cls(ABSTRACT, tuple(schema), frozenset(facts))

    @cached_property
    def schema_by_name(self) -> dict[str, RelationSchema]:
        return {r.name: r for r in self.schema}

    @cached_property
    def facts_by_relation(self) -> dict[str, tuple[Fact, ...]]:
        """Each relation's facts, in no particular order; every relation of the
        schema has an entry, and so does a relation outside it that has facts."""
        grouped: dict[str, list[Fact]] = {r.name: [] for r in self.schema}
        for f in self.facts:
            grouped.setdefault(f.relation, []).append(f)
        return {name: tuple(facts) for name, facts in grouped.items()}

    def replace_facts(self, facts: Iterable[Fact]) -> "Instance":
        return Instance(self.kind, self.schema, frozenset(facts))

    @cached_property
    def _screened(self) -> bool:
        """Whether the facts pass ``_plainly_well_formed``: an instance is
        immutable, so ``_check_instance`` screens it once."""
        return _plainly_well_formed(self.facts, self.kind, {r.name: r.arity for r in self.schema})


# Per view: what a fact's time must be, and its name in messages.
_TIME_OF = {
    CONCRETE: (lambda t: isinstance(t, ClopenInterval), "clopen interval"),
    ABSTRACT: (lambda t: isinstance(t, int) and not isinstance(t, bool) and t >= 0, "finite time point"),
}


def _fact_problems(f: Fact, kind: str, arity: dict[str, int]) -> Iterator[tuple[str, str]]:
    """Each rule of a well-formed ``kind`` instance that ``f`` breaks, as
    ``(code, message)``; ``arity`` maps each relation of the schema to its
    number of non-temporal values.  These are the only rules of an instance."""
    if not isinstance(f.values, tuple):
        yield "not-a-value", f"{f!r}: a fact's values must be a tuple"
        return
    n = arity.get(f.relation)
    if n is None:
        yield "unknown-relation", f"{f}: relation {f.relation!r} is not in the schema"
        return
    if len(f.values) != n:
        yield "arity-mismatch", f"{f}: relation {f.relation!r} expects {n} non-temporal values, got {len(f.values)}"
    is_time, time_name = _TIME_OF[kind]
    if not is_time(f.time):
        yield "kind-violation", f"{f}: {kind} fact must carry a {time_name}"
        return
    for v in f.values:
        if not isinstance(v, str) and not (isinstance(v, Null) and isinstance(v.label, str)):
            yield "not-a-value", f"{f}: {v!r} is not a constant or a null with a string label"
        # annotated with the time itself: equal, and of its class (True == 1, and an interval equals a tuple)
        if isinstance(v, Null) and not (v.context.__class__ is f.time.__class__ and v.context == f.time):
            other = isinstance(v.context, ClopenInterval) != isinstance(f.time, ClopenInterval)
            yield ("kind-violation" if other else "context-mismatch",
                   f"{f}: null {v} is not annotated with the fact's {time_name}")


def _plainly_well_formed(facts: Iterable[Fact], kind: str, arity: dict[str, int]) -> bool:
    """A one-pass screen, stricter than ``_fact_problems``: each fact's time
    is of its view's exact class (``ClopenInterval``, or a non-negative
    ``int``), its values are a ``tuple`` that fills its relation, and each
    value is an exact ``str`` or a ``Null`` with a ``str`` label and a
    context equal to the time and of its class."""
    cls = ClopenInterval if kind == CONCRETE else int
    for f in facts:
        t, values = f.time, f.values
        if (t.__class__ is not cls or (cls is int and t < 0) or values.__class__ is not tuple
                or arity.get(f.relation) != len(values)):
            return False
        for v in values:
            if v.__class__ is not str and not (v.__class__ is Null and v.label.__class__ is str
                                               and v.context.__class__ is cls and v.context == t):
                return False
    return True


def _check_facts(facts: Collection[Fact], kind: str, arity: dict[str, int]) -> None:
    """Raise SchemaError with the first problem of the least fact, in
    ``_offender_key`` order (so whatever the set's order), that
    ``_fact_problems`` finds."""
    fact = min([f for f in facts if next(_fact_problems(f, kind, arity), None)], key=_offender_key, default=None)
    if fact is not None:
        raise SchemaError(next(_fact_problems(fact, kind, arity))[1])


def _check_instance(inst: Instance) -> None:
    """Raise SchemaError with ``validate_instance(inst)[0].message`` if the
    instance breaks a rule: what every function that reads an instance's
    facts, and both writers, refuse.  A well-formed instance pays only the
    screen, once per instance."""
    if not inst._screened:
        _check_facts(inst.facts, inst.kind, {r.name: r.arity for r in inst.schema})


def validate_instance(inst: Instance) -> list[Violation]:
    """Every problem of an instance, as data: facts in ``_offender_key``
    order, each fact's problems in the order of the rules, each with its code:
    ``not-a-value``, values that are not a tuple (no other rule is checked);
    ``unknown-relation``, a fact of a relation outside the schema (no other
    rule is checked); ``arity-mismatch``, values that do not fill the
    relation; ``kind-violation``, a time not of the view's kind (a clopen
    interval, or a finite time point; then no value is checked), or a null
    annotated with the other view's kind; ``not-a-value``, neither a ``str``
    nor a ``Null`` with a ``str`` label; ``context-mismatch``, a null
    annotated with another time of the right kind.
    """
    arity = {r.name: r.arity for r in inst.schema}
    return [Violation(code, message) for f in sorted(inst.facts, key=_offender_key)
            for code, message in _fact_problems(f, inst.kind, arity)]


def is_complete(inst: Instance) -> bool:
    """True iff no fact contains an annotated null."""
    return not any(is_null(v) for f in inst.facts for v in f.values)


def max_finite_endpoint(inst: Instance) -> int | None:
    """Largest finite interval endpoint or time point in the instance, if any."""
    points = {p for f in inst.facts
              for p in ((f.time.start, f.time.end) if isinstance(f.time, ClopenInterval) else (f.time,))}
    points.discard(INF)
    return max(points, default=None)


def _default_horizon(instances: Iterable[Instance]) -> int:
    """One above every finite endpoint of the instances: the horizon that
    ``tdx sem`` and ``equivalent`` take when none is given."""
    return max((max_finite_endpoint(inst) or 0 for inst in instances), default=0) + 1


def _check_horizon(horizon: int, *intervals: ClopenInterval) -> None:
    """A horizon is a finite time point at or above every finite endpoint of ``intervals``."""
    if not _TIME_OF[ABSTRACT][0](horizon):
        raise InvalidHorizonError(f"horizon must be a finite time point, got {horizon!r}")
    for iv in intervals:
        for e in [iv.start] + ([iv.end] if isinstance(iv.end, int) else []):
            if horizon < e:
                raise InvalidHorizonError(f"horizon {horizon} is below endpoint {e} of {iv}")


def _cut(facts: Iterable[Fact], pieces: dict[TimeValue, Iterable[TimeValue]]) -> frozenset[Fact]:
    """Each fact once per piece of its time (subintervals or time points):
    a null keeps its label and is re-annotated with the piece, one ``Null``
    per label and piece.  ``normalize_instance`` and ``sem`` both cut so."""
    nulls: dict[tuple[str, TimeValue], Null] = {}
    out: set[Fact] = set()
    for f in facts:
        for piece in pieces[f.time]:
            values = tuple([v if v.__class__ is not Null else
                            nulls.get((v.label, piece)) or nulls.setdefault((v.label, piece), Null(v.label, piece))
                            for v in f.values])
            out.add(Fact(f.relation, values, piece))
    return frozenset(out)


def sem_fact(f: Fact, horizon: int) -> frozenset[Fact]:
    """Abstract expansion of one concrete fact: one fact per contained time point.

    Constants are copied; a null keeps its label and is re-annotated with each
    time point.  ``horizon`` must be at least every finite endpoint of the
    fact; unbounded intervals are truncated at the horizon.
    """
    _check_facts([f], CONCRETE, {f.relation: len(f.values) if isinstance(f.values, tuple) else 0})
    _check_horizon(horizon, f.time)
    return _cut([f], {f.time: interval_points(f.time, horizon)})


def _grid_cuts(uses: Counter[ClopenInterval], grid: list[int]) -> tuple[dict, int]:
    """For each distinct interval of ``uses`` (facts per interval), the
    ``(lo, hi)`` such that ``grid[lo:hi]`` are the points of the sorted
    ``grid`` in it; and the number of pairs of a fact and such a point,
    counted on the indexes, so that an input can be refused before anything
    of that size is built."""
    cuts = {iv: (bisect_left(grid, iv.start), bisect_left(grid, iv.end)) for iv in uses}
    return cuts, sum(n * (cuts[iv][1] - cuts[iv][0]) for iv, n in uses.items())


# The most abstract facts one ``sem_instance`` materializes, or one
# ``homomorphism.equivalent`` builds.  Measured with tracemalloc (Python 3.11,
# facts of three values, one a null), an abstract fact takes about 0.36 KB,
# and about 1.4 KB at the peak of ``tdx sem``, which also builds the JSON
# text: 250,000 x 1.4 KB is about 0.35 GB.  The peak of ``equivalent``, which
# also keys the facts it builds and indexes them for the search, is about
# 0.5 KB per fact built when both inputs are concrete, and 0.6-0.8 KB when
# one is abstract and keyed and indexed too (the benchmark's careers,
# long-lived and crossview chase results): at most 0.2 GB.
MAX_SEM_FACTS = 250_000


def sem_instance(inst: Instance, horizon: int) -> Instance:
    """Abstract view of a concrete instance, materialized up to ``horizon``.

    As ``sem_fact`` of every fact, checked once: the instance, then the
    horizon against each distinct interval, in order (so an error names the
    least interval it is below).  Raises PreconditionError, before
    materializing anything, if that view has more than ``MAX_SEM_FACTS``
    facts (one per fact and time point).
    """
    if inst.kind != CONCRETE:
        raise SchemaError("sem_instance expects a concrete instance")
    _check_instance(inst)
    uses = Counter(f.time for f in inst.facts)
    _check_horizon(horizon, *sorted(uses))
    points = {iv: interval_points(iv, horizon) for iv in uses}
    count = sum(n * len(points[iv]) for iv, n in uses.items())
    if count > MAX_SEM_FACTS:
        raise PreconditionError(f"the abstract view up to horizon {horizon} has {count} facts, "
                                f"more than the limit of {MAX_SEM_FACTS}")
    return Instance(ABSTRACT, inst.schema, _cut(inst.facts, points))


def is_normalized(inst: Instance) -> bool:
    """True iff any two fact intervals across all relations are equal or disjoint."""
    if inst.kind != CONCRETE:
        raise SchemaError("normalization is defined for concrete instances")
    _check_instance(inst)
    spans = sorted({f.time for f in inst.facts})
    return all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


# The most fragments one ``normalize_instance`` adds to the facts it splits
# (see its docstring).
MAX_NORMALIZE_FRAGMENTS = 100_000


def normalize_instance(inst: Instance) -> Instance:
    """Split every fact over the endpoint grid of the whole instance.

    The output satisfies the normalization predicate and has the same abstract
    view at every valid horizon: each distinct interval is cut by
    ``split_interval`` at the grid points inside it, and a null keeps its
    label and is re-annotated with each piece, as ``sem_instance`` does with
    each time point.  An instance that needs no split is returned as it is.
    Raises SchemaError, as ``sem_instance`` does, for an instance that
    ``validate_instance`` faults.

    A fact becomes one fragment per grid cell it covers, so n nested facts
    ``[i, inf)`` make n(n+1)/2 fragments, n(n-1)/2 more than the facts.  The
    count is taken with ``bisect`` on the grid before any fragment is made,
    and when the fragments outnumber the facts by more than
    ``MAX_NORMALIZE_FRAGMENTS`` PreconditionError is raised; so the limit
    bounds what splitting adds, and an input of any size that needs no split
    passes.  Measured with tracemalloc (Python 3.11, example1 sources, 66,048
    and 80,200 fragments), a fragment takes about 0.4 KB at the peak of this
    function, 1.2 KB at the peak of ``tdx normalize``, which also writes the
    text, and 3.9 KB at the peak of ``tdx chase``, which chases the
    fragments: 100,000 added fragments are about 0.04, 0.12 and 0.39 GB on
    top of what the facts themselves take.
    """
    if inst.kind != CONCRETE:
        raise SchemaError("normalize_instance expects a concrete instance")
    _check_instance(inst)
    uses = Counter(f.time for f in inst.facts)
    grid = build_grid(uses)
    cuts, count = _grid_cuts(uses, grid)  # one fragment per grid point in the interval, its start first
    added = count - len(inst.facts)
    if added > MAX_NORMALIZE_FRAGMENTS:
        raise PreconditionError(f"normalization would split {len(inst.facts)} facts into "
                                f"{len(inst.facts) + added} fragments, {added} more than the facts, "
                                f"above the limit of {MAX_NORMALIZE_FRAGMENTS}")
    if not added:
        return inst
    pieces = {iv: split_interval(iv, grid[lo:hi]) for iv, (lo, hi) in cuts.items()}
    return Instance(CONCRETE, inst.schema, _cut(inst.facts, pieces))


def conform_instance(inst: Instance, declared: Iterable[RelationSchema]) -> Instance:
    """Re-type an instance against declared schemas, adding missing relations as empty.

    Raises SchemaError if the instance carries a relation the declaration does
    not know, or one whose attributes disagree with the declaration.
    """
    declared = tuple(declared)
    by_name = {r.name: r for r in declared}
    for r in inst.schema:
        known = by_name.get(r.name)
        if known is None:
            if inst.facts_by_relation[r.name]:
                raise SchemaError(f"relation {r.name!r} is not declared in the mapping")
            continue
        if known != r:
            raise SchemaError(
                f"relation {r.name!r} declared as {known.all_attributes}, instance has {r.all_attributes}")
    return Instance(inst.kind, declared, inst.facts)


# ---------------------------------------------------------------------------
# JSON instance format
#
#   {"kind": "concrete" | "abstract",
#    "relations": {name: {"attributes": [..., temporal_last], "facts": [...]}}}
#
# A fact is {"values": [v, ...], "interval": {"start": s, "end": e | "inf"}}
# (concrete) or {"values": [v, ...], "time": t} (abstract).  A value is a JSON
# string (constant) or {"null": "<label>"}; the null's context is implied by
# the fact's time.
# ---------------------------------------------------------------------------


def _time_json(t: TimeValue) -> dict:
    """A fact's time, or a null's context, as the members of its JSON object."""
    if isinstance(t, ClopenInterval):
        return {"interval": {"start": t.start, "end": t.end if isinstance(t.end, int) else "inf"}}
    return {"time": t}


def instance_to_json(inst: Instance) -> dict:
    """The JSON document of ``inst``, each relation's facts in canonical
    order.  Raises SchemaError, as ``_check_instance`` does, for an instance
    that ``validate_instance`` faults."""
    _check_instance(inst)
    relations = {}
    for schema in inst.schema:
        facts = [{"values": [v if isinstance(v, str) else {"null": v.label} for v in f.values], **_time_json(f.time)}
                 for f in sorted(inst.facts_by_relation[schema.name])]
        relations[schema.name] = {"attributes": list(schema.all_attributes), "facts": facts}
    return {"kind": inst.kind, "relations": relations}


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {message}")


def _time_from_json(doc: dict, kind: str, seen: dict) -> TimeValue:
    """The fact's time, or ValueError with its problem.  ``seen`` holds each
    time that passed, by its JSON value: ``(start, end)`` or ``time``, made
    only of exact ints and ``"inf"``, since a bool or a float can equal an
    int but is not a time."""
    if kind == CONCRETE:
        if "interval" not in doc:
            raise ValueError("concrete fact must carry an \"interval\"")
        iv = doc["interval"]
        if not (isinstance(iv, dict) and len(iv) == 2 and "start" in iv and "end" in iv):
            raise ValueError("interval must be {\"start\": ..., \"end\": ...}")
        start, end = key = iv["start"], iv["end"]
        if start.__class__ is not int or (end.__class__ is not int and end != "inf"):
            key = None
        t = seen.get(key)
        if t is None:
            if not isinstance(start, int) or isinstance(start, bool):
                raise ValueError("interval start must be an integer")
            if end == "inf":
                end = INF
            elif not isinstance(end, int) or isinstance(end, bool):
                raise ValueError("interval end must be an integer or \"inf\"")
            t = ClopenInterval(start, end)  # its ValueError is the fact's problem
    else:
        if "time" not in doc:
            raise ValueError("abstract fact must carry a \"time\"")
        t = key = doc["time"]
        if t.__class__ is not int:
            key = None
        if key not in seen:
            if not (isinstance(t, int) and not isinstance(t, bool) and t >= 0):
                raise ValueError("time must be a non-negative integer")
    if key is not None:
        seen[key] = t
    return t


def _value_from_json(v: object, time: TimeValue, nulls: dict) -> Value:
    """The value, or ValueError with its problem; ``nulls`` holds one
    ``Null`` per label and time."""
    if isinstance(v, str):
        return v
    if isinstance(v, dict) and len(v) == 1 and isinstance(v.get("null"), str):
        key = (v["null"], time)
        null = nulls.get(key)
        if null is None:
            null = nulls[key] = Null(*key)
        return null
    raise ValueError(f"a value must be a string or {{\"null\": \"<label>\"}}, got {reprlib.repr(v)}")


def instance_from_json(doc: object) -> Instance:
    _require(isinstance(doc, dict), "instance", "top level must be a JSON object")
    kind = doc.get("kind")
    _require(kind in (CONCRETE, ABSTRACT), "instance", "\"kind\" must be \"concrete\" or \"abstract\"")
    relations = doc.get("relations")
    _require(isinstance(relations, dict), "instance", "\"relations\" must be an object")
    schemas: list[RelationSchema] = []
    facts: set[Fact] = set()
    times: dict = {}
    nulls: dict = {}
    for name in relations:
        where = f"relation {name!r}"
        rel = relations[name]
        _require(isinstance(rel, dict), where, "must be an object")
        attrs = rel.get("attributes")
        _require(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs),
                 where, "\"attributes\" must be a non-empty list of names")
        _require(len(set(attrs)) == len(attrs), where, "duplicate attribute name")
        schema = RelationSchema(name, tuple(attrs[:-1]), attrs[-1])
        schemas.append(schema)
        arity = schema.arity
        rows = rel.get("facts", [])
        _require(isinstance(rows, list), where, "\"facts\" must be a list")
        for i, row in enumerate(rows):
            try:  # a fact's problem is a ValueError; where the fact is is written only then
                if not isinstance(row, dict):
                    raise ValueError("must be an object")
                time = _time_from_json(row, kind, times)
                values = row.get("values")
                if not isinstance(values, list):
                    raise ValueError("\"values\" must be a list")
                if len(values) != arity:
                    raise ValueError(f"expected {arity} values, got {len(values)}")
                facts.add(Fact(name, tuple([v if v.__class__ is str else _value_from_json(v, time, nulls)
                                            for v in values]), time))
            except ValueError as exc:
                raise SchemaError(f"{where} fact #{i}: {exc}") from None
    return Instance(kind, tuple(schemas), frozenset(facts))


def _list_text(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as ``json.dumps(indent=2)`` does."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def dumps_instance(inst: Instance, horizon: int | None = None) -> str:
    """Canonical, newline-terminated JSON text; byte-deterministic.

    The text is ``json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"`` of ``doc = instance_to_json(inst)``, with a
    top-level ``"horizon"`` member when ``horizon`` is given.  It is written
    directly from the instance: each relation's facts are sorted here, in
    canonical order, strings are escaped by the json module's C encoder, and
    each distinct time and null label is rendered once per call.  Raises
    SchemaError, as ``instance_to_json`` does, for an instance that
    ``validate_instance`` faults.
    """
    _check_instance(inst)
    times: dict[TimeValue, str] = {}
    nulls: dict[str, str] = {}
    relations = []
    for schema in inst.schema:
        rows = []
        for f in sorted(inst.facts_by_relation[schema.name]):
            texts = []
            for v in f.values:
                if isinstance(v, str):
                    texts.append(_encode(v))
                else:
                    text = nulls.get(v.label)
                    if text is None:
                        text = nulls[v.label] = '{\n              "null": ' + _encode(v.label) + "\n            }"
                    texts.append(text)
            t = f.time
            time_text = times.get(t)
            if time_text is None:
                if isinstance(t, ClopenInterval):
                    end = int.__repr__(t.end) if isinstance(t.end, int) else '"inf"'
                    time_text = (f'"interval": {{\n            "end": {end},\n'
                                 f'            "start": {int.__repr__(t.start)}\n          }}')
                else:
                    time_text = f'"time": {int.__repr__(t)}'
                times[t] = time_text
            rows.append("{\n          " + time_text + ',\n          "values": '
                        + _list_text(texts, "          ") + "\n        }")
        facts = _list_text(rows, "      ")
        attributes = _list_text([_encode(a) for a in schema.all_attributes], "      ")
        relations.append(f'    {_encode(schema.name)}: {{\n      "attributes": {attributes},\n'
                         f'      "facts": {facts}\n    }}')
    head = "{\n" if horizon is None else f'{{\n  "horizon": {int.__repr__(horizon)},\n'
    body = "{\n" + ",\n".join(relations) + "\n  }" if relations else "{}"
    return f'{head}  "kind": {_encode(inst.kind)},\n  "relations": {body}\n}}\n'


def loads_instance(text: str) -> Instance:
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("instance: JSON is nested too deeply") from None
    return instance_from_json(doc)
