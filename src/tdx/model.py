"""Values, facts, schemas, instances, and the two views of temporal data.

A *concrete* instance stores each fact with a clopen interval; an *abstract*
instance stores one fact per time point.  A constant is its ``str``.  An
unknown value is a labeled null, ``Null(label)``, in both views; the time of
the fact that holds it annotates it, written ``N^[s,e)`` or ``N^t``.  So a
null's identity is the pair (label, fact time), which is written out only
where facts of different times meet: the key round's closure (``chase``)
and the homomorphism search (``homomorphism``).

``Null``, ``Fact`` and ``ClopenInterval`` are named tuples, so they hash,
compare and are built in C; each also equals the plain tuple of its fields.
A time is therefore told apart by its class as well as its value wherever
times are checked (``True == 1``, and an interval equals ``(start, end)``).
Canonical order is the values' own order: ``Null`` adds the one comparison
its tuple lacks, a constant before every null, so the values, facts and
bindings of a well-formed instance sort natively (a fact by relation, then
values, then time; intervals by start, then end, finite ends first).

``sem_instance`` expands the concrete view into the abstract one up to an
explicit finite horizon (abstract views of unbounded intervals are
infinite, so materialization must be bounded).  ``normalize_instance``
rewrites a concrete instance so that any two intervals across all relations
are either equal or disjoint; it is the one-block case of the block cut
(``_blocks``, ``_plan_cuts``, ``_apply_cuts``), which the chase and
``naive_eval`` apply only among facts that can meet.  ``_coalesce`` merges
facts of equal relation and values whose intervals overlap or meet, the one
form of an abstract view with maximal facts.

An instance is a set of facts; canonical order is a cost paid where order
shows.  An instance's accessors, ``facts`` and ``facts_by_relation`` (each
relation's facts), are unsorted, and the joins of ``homomorphism`` (and so
the chase and ``naive_eval``) and the key round read only these.  A reader
whose result shows an order sorts what it reads itself: ``dumps_instance``,
the one writer of instance text (``instance_to_json`` reads that text back),
groups each relation's facts by their values tuple as it writes them, and
renders and sorts each distinct tuple once, and ``validate_instance``
orders its problems by their text.

The shape of every input is stated once, in the field annotations of the
engine's dataclasses and named tuples, and each part is checked where it is
made, one level deep (``_Checked``): each field, and each item of a
collection field, is of exactly a declared class, never a subclass, which
can equal or hash like a value of it.  The facts, named tuples the engine
makes in C, are checked where an instance is read: ``validate_instance``
lists every problem, and ``_check_instance``, which every function that
reads an instance calls first, raises the first.  An instance is checked
once, where it enters, and then marked checked (``_mark_checked``); one the
engine builds from checked inputs is born checked.
"""
from __future__ import annotations

import json
import reprlib
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from json.encoder import encode_basestring as _encode
from functools import cache, cached_property
from operator import attrgetter, itemgetter
from typing import Callable, Collection, Iterable, NamedTuple, Union, get_args, get_origin, get_type_hints

from .errors import InvalidHorizonError, PreconditionError, SchemaError
from .temporal import INF, ClopenInterval, build_grid, interval_points, split_interval

CONCRETE = "concrete"
ABSTRACT = "abstract"


TimeValue = Union[ClopenInterval, int]


class Null(NamedTuple):
    """A labeled null; the time of the fact that holds it annotates it."""

    label: str

    def __str__(self) -> str:
        return str(self.label)

    # Canonical order: a constant (a ``str``) sorts before every null, and two
    # nulls compare as their labels.
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

    def __str__(self) -> str:  # as R(a, N^t, t): each null annotated with the time
        t = self.time
        inner = ", ".join([*(f"{v}^{t}" if isinstance(v, Null) else str(v) for v in self.values), str(t)])
        return f"{self.relation}({inner})"


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@cache
def _classes(hint) -> dict[type, dict | None]:
    """The exact classes a part declared ``hint`` may have, each with the
    ``_classes`` of its items for a ``tuple[X, ...]`` or ``frozenset[X]``;
    named tuples in a collection (facts) are checked where they are read."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is Union:
        return {cls: items for arg in args for cls, items in _classes(arg).items()}
    if origin in (tuple, frozenset):
        return {origin: None if hasattr(args[0], "_fields") else _classes(args[0])}
    return {hint: None}


@cache
def _fields(cls: type) -> tuple[tuple[str, dict], ...]:
    """Each field of a dataclass or named tuple, with its ``_classes``."""
    return tuple((name, _classes(hint)) for name, hint in get_type_hints(cls).items())


def _misplaced(part: object, classes: dict) -> tuple[str, dict, object] | None:
    """(path, classes, misfit): ``part`` if it is of no class of
    ``classes``, else the first such item of a tuple (by index) or the least
    of a frozenset (by class name and text, since the hash seed sets its
    order).  No other part is looked into: it checked itself when made."""
    cls = type(part)
    if cls not in classes:
        return "", classes, part
    if classes[cls] is None:
        return None
    found = [((f"[{i}]" if cls is tuple else " member") + misfit[0], *misfit[1:])
             for i, item in enumerate(part) if (misfit := _misplaced(item, classes[cls]))]
    if not found:
        return None
    return min(found, key=lambda m: (type(m[2]).__name__, _brief(m[2]))) if cls is frozenset else found[0]


def _misplaced_field(part: object) -> tuple[str, dict, object] | None:
    """``_misplaced`` of the first field of ``part`` that holds a misfit, led
    by the field's name; a named tuple of another field count is one."""
    fields = _fields(type(part))
    if hasattr(part, "_fields") and len(part) != len(fields):
        return "", {type(part): None}, part
    return next(((name + misfit[0], *misfit[1:]) for name, classes in fields
                 if (misfit := _misplaced(getattr(part, name), classes))), None)


def _shown(part: object) -> str:
    """``repr(part)``, or, where it fails on a named tuple of another field
    count, the part's class and its items shown."""
    try:
        return repr(part)
    except TypeError:
        items = ", ".join(map(_shown, part)) + ("," if len(part) == 1 and type(part) is tuple else "")
        return f"{'' if type(part) is tuple else type(part).__name__}({items})"


class _Brief(reprlib.Repr):
    """``reprlib.repr`` that shows a part whose ``repr`` fails by ``_shown``,
    cut as reprlib cuts it, not by its memory address."""

    def repr_instance(self, x: object, level: int) -> str:
        text = _shown(x)
        if len(text) <= self.maxother:
            return text
        head = (self.maxother - 3) // 2
        return text[:head] + "..." + text[len(text) - (self.maxother - 3 - head):]


_brief = _Brief().repr


def _wrong_class(where: str, path: str, classes: Iterable[type], part: object) -> Violation:
    """The problem of a misfit ``part`` at ``path`` in ``where``: it names
    the part's own class, which a subclass's text would not show, or, for a
    named tuple of one of ``classes``, its field count."""
    at = f"{where}: {path + ' ' if path else ''}"
    if type(part) in classes:
        return Violation("wrong-class", f"{at}field count must be {len(part._fields)}, got {len(part)}")
    must = " or ".join(("an " if c.__name__[0] in "AEIOaeio" else "a ") + c.__name__ for c in classes)
    return Violation("wrong-class", f"{at}must be {must}, got {type(part).__name__} {_brief(part)}")


def _refuse_class(part: object, cls: type, where: str) -> None:
    """SchemaError unless ``part``, which no constructor checked, is a ``cls``."""
    if type(part) is not cls:
        raise SchemaError(_wrong_class(where, "", (cls,), part).message)


class _Checked:
    """A dataclass of the engine, which checks its fields where it is made:
    each field, and each item of a collection field, is of exactly a class
    its annotation declares (not a subclass, which can equal or hash like a
    value of it), or SchemaError names the class and the field."""

    def __post_init__(self) -> None:
        misfit = _misplaced_field(self)
        if misfit is not None:
            raise SchemaError(_wrong_class(type(self).__name__, *misfit).message)


@dataclass(frozen=True)
class RelationSchema(_Checked):
    """Relation signature: non-temporal attributes plus the temporal attribute (last)."""

    name: str
    attributes: tuple[str, ...]
    temporal: str

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(set(self.all_attributes)) != len(self.all_attributes):
            raise SchemaError(f"relation {self.name!r}: duplicate attribute name")

    @property
    def arity(self) -> int:
        return len(self.attributes)

    @property
    def all_attributes(self) -> tuple[str, ...]:
        return (*self.attributes, self.temporal)


@dataclass(frozen=True)
class Instance(_Checked):
    """A finite set of facts per relation, tagged concrete or abstract.

    Instances are immutable values; the schema is kept sorted by relation name
    so that equal instances serialize identically.  The schema is checked
    here, the facts where the instance is read (``_check_instance``).
    """

    kind: str
    schema: tuple[RelationSchema, ...]
    facts: frozenset[Fact]

    def __post_init__(self) -> None:
        if self.kind not in (CONCRETE, ABSTRACT):
            raise SchemaError(f"instance kind must be {CONCRETE!r} or {ABSTRACT!r}, got {self.kind!r}")
        for name, cls in (("schema", tuple), ("facts", frozenset)):
            try:
                object.__setattr__(self, name, cls(getattr(self, name)))
            except TypeError:  # not a collection, or facts that do not hash
                raise SchemaError(_wrong_class("Instance", name, (cls,), getattr(self, name)).message) from None
        super().__post_init__()
        object.__setattr__(self, "schema", tuple(sorted(self.schema, key=lambda r: r.name)))
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
        """The instance of these facts, not marked checked: it may be ill formed."""
        return Instance(self.kind, self.schema, frozenset(facts))


# ``Fact`` and ``Null`` are named tuples, whose own ``__new__`` is a Python
# function: where one is made per fact, ``_new(Fact, fields)`` makes it from
# its fields in C.
_new = tuple.__new__


def _mark_checked(x):
    """``x``, a frozen ``Instance`` or ``mapping_lang.Mapping``, marked as
    breaking no rule, so that its checker passes it at once; the mark is
    kept in the object's own ``__dict__``, where ``cached_property`` keeps
    its values."""
    x.__dict__["_checked"] = True
    return x


# Per view: whether a fact time is of it, by exact class (``True == 1``), and
# its name in messages.
_TIME_OF = {
    CONCRETE: (lambda t: type(t) is ClopenInterval, "clopen interval"),
    ABSTRACT: (lambda t: type(t) is int and t >= 0, "finite time point"),
}


def _check_instance(inst: Instance) -> None:
    """SchemaError with ``validate_instance(inst)[0].message`` if the
    instance breaks a rule; else the instance is marked checked."""
    if type(inst) is Instance and inst.__dict__.get("_checked"):
        return
    problems = validate_instance(inst)
    if problems:
        raise SchemaError(problems[0].message)
    _mark_checked(inst)


_A_KIND = {CONCRETE: "a concrete instance", ABSTRACT: "an abstract instance"}


def _check_kind(inst: Instance, kind: str, reader: str) -> None:
    """``_check_instance``, then SchemaError unless ``inst`` is of the view
    that ``reader`` reads, the one wording of that rule."""
    _check_instance(inst)
    if inst.kind != kind:
        raise SchemaError(f"{reader} expects {_A_KIND[kind]}, got {inst.kind}")


def _fact_misfit(f: object) -> Violation | None:
    """The first part of ``f``, a member of an instance's facts, of no class
    its field declares, one level at a time: the fact, its fields and
    values (``_misplaced_field``), then each null."""
    misfit = _misplaced(f, {Fact: None}) or _misplaced_field(f)
    for i, v in enumerate(() if misfit else f.values):
        if type(v) is Null and (misfit := _misplaced_field(v)):
            misfit = (f"values[{i}]" + (misfit[0] and "." + misfit[0]), *misfit[1:])
            break
    return misfit and _wrong_class(_shown(f), *misfit)


def validate_instance(inst: Instance) -> list[Violation]:
    """Every problem of an instance, ordered by message, each with its
    code.  A fact that holds a part of no class its field declares
    (``_fact_misfit``) is listed as ``wrong-class``, named by its ``repr``,
    with its first such part; if there is any, only those are listed, since
    the other rules read well-shaped facts.  Otherwise a fact, named by its
    text, may break these rules: ``unknown-relation`` or ``arity-mismatch``,
    a relation outside the schema or not filled; ``kind-violation``, a time
    not of the view."""
    if type(inst) is not Instance:
        return [_wrong_class("instance", "", (Instance,), inst)]
    problems = [misfit for f in inst.facts if (misfit := _fact_misfit(f))]
    arity = {r.name: r.arity for r in inst.schema}
    is_time, time_name = _TIME_OF[inst.kind]
    for f in () if problems else inst.facts:
        n = arity.get(f.relation)
        if n is None:
            problems.append(Violation("unknown-relation", f"{f}: relation {f.relation!r} is not in the schema"))
        elif len(f.values) != n:
            problems.append(Violation("arity-mismatch", f"{f}: relation {f.relation!r} expects {n} non-temporal "
                                                        f"values, got {len(f.values)}"))
        if not is_time(f.time):
            problems.append(Violation("kind-violation", f"{f}: {inst.kind} fact must carry a {time_name}"))
    return sorted(problems, key=attrgetter("message"))


def is_complete(inst: Instance) -> bool:
    """True iff no fact contains a null."""
    _check_instance(inst)
    return not any(is_null(v) for f in inst.facts for v in f.values)


def max_finite_endpoint(inst: Instance) -> int | None:
    """Largest finite interval endpoint or time point in the instance, if any."""
    _check_instance(inst)
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
    """Each fact once per piece of its time (subintervals or time points),
    sharing the fact's values: a null keeps its label, and the piece's time
    annotates it.  ``normalize_instance`` and ``sem`` both cut so."""
    return frozenset([_new(Fact, (f.relation, f.values, piece)) for f in facts for piece in pieces[f.time]])


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
# facts of three values, one a null), an abstract fact takes about 0.36 KB.
# At the peak of ``tdx sem``, which also builds the JSON text and one list of
# times per values tuple, it takes about 1.7 KB when each concrete fact spans
# one point, and 1.1 KB when each spans 20 (60,000 abstract facts each):
# 250,000 x 1.7 KB is about 0.42 GB.  ``equivalent`` counts only what
# its remainder's cut builds, not the twins it compares uncut, nor a
# direction that the identity map decides.  Its peak, as
# it also keys the facts it cuts and indexes them for the search, is about
# 0.5-0.8 KB per fact cut (measured by cutting the benchmark's careers,
# long-lived and crossview chase results whole): at most 0.2 GB.
MAX_SEM_FACTS = 250_000


def sem_instance(inst: Instance, horizon: int) -> Instance:
    """Abstract view of a concrete instance, materialized up to ``horizon``:
    each fact once per time point of its interval below the horizon, so an
    unbounded interval is truncated there.

    Refuses, in order: an instance that breaks a rule or is abstract
    (``_check_kind``), with SchemaError; the horizon, checked against
    each distinct interval in order (an error names the least interval it
    is below); then, before anything is made, more than ``MAX_SEM_FACTS``
    facts (one per fact and time point), with PreconditionError.
    """
    _check_kind(inst, CONCRETE, "sem_instance")
    uses = Counter(f.time for f in inst.facts)
    _check_horizon(horizon, *sorted(uses))
    # counted by arithmetic: ``len`` of a range longer than sys.maxsize overflows
    count = sum(n * (min(iv.end, horizon) - iv.start) for iv, n in uses.items())
    if count > MAX_SEM_FACTS:
        raise PreconditionError(f"the abstract view up to horizon {horizon} has {count} facts, "
                                f"more than the limit of {MAX_SEM_FACTS}")
    points = {iv: interval_points(iv, horizon) for iv in uses}
    return _mark_checked(Instance(ABSTRACT, inst.schema, _cut(inst.facts, points)))


def _apart(times: Collection[ClopenInterval]) -> bool:
    """Whether distinct intervals are pairwise disjoint: in order, each ends
    by the start of the next."""
    spans = sorted(times)
    return all(end <= start for (_, end), (start, _) in zip(spans, spans[1:]))


# The most fragments one ``normalize_instance``, or any cut of the chase or of
# ``naive_eval``, adds to the facts it splits (see ``normalize_instance``'s
# docstring).
MAX_NORMALIZE_FRAGMENTS = 100_000


def _merged(times: Iterable[ClopenInterval]) -> list[ClopenInterval]:
    """The maximal intervals of the union of ``times``, in order: two that
    overlap or meet are one."""
    ordered = sorted(times)
    out = [ordered[0]]
    for iv in ordered[1:]:
        last = out[-1]
        if iv.start > last.end:
            out.append(iv)
        elif iv.end > last.end:
            out[-1] = _new(ClopenInterval, (last.start, iv.end))
    return out


def _coalesced(items: Iterable[tuple], key: Callable[[tuple], object],
               make: Callable[[object, ClopenInterval], tuple]) -> list | None:
    """The coalescing of Böhlen, Snodgrass and Soo ("Coalescing in Temporal
    Databases", VLDB 1996), which ``_coalesced_facts`` applies to facts and
    ``query.naive_eval`` to answers.  The items, each a tuple that ends in
    its interval, are grouped by ``key``, and each group's intervals are
    merged where they overlap or meet (``_merged``).  Returns the coalesced items: those of the groups
    where nothing merges, then ``make(key, interval)`` for each merged
    interval of every other group; or None if nothing merges.  Two items of
    one group have distinct intervals."""
    groups: dict = {}
    for item in items:
        k = key(item)
        group = groups.get(k)
        if group is None:
            groups[k] = [item]
        else:
            group.append(item)
    kept: list = []
    merged: dict = {}
    for k, group in groups.items():
        if len(group) > 1:
            runs = _merged([item[-1] for item in group])
            if len(runs) < len(group):
                merged[k] = runs
                continue
        kept += group
    kept += [make(k, iv) for k, runs in merged.items() for iv in runs]
    return kept if merged else None


def _coalesced_facts(facts: Iterable[Fact]) -> list[Fact] | None:
    """``_coalesced`` of concrete facts: facts of one relation and equal
    values, whose intervals overlap or meet, become one fact over the union;
    None if none do."""
    return _coalesced(facts, itemgetter(0, 1), lambda key, iv: _new(Fact, (*key, iv)))


def _coalesce(inst: Instance) -> Instance:
    """The concrete instance with its facts coalesced (``_coalesced_facts``).

    The result has the same abstract view at every valid horizon, and it is
    the one instance of maximal facts that has that view, so two instances
    with equal abstract views coalesce to equal instances.  An instance with
    nothing to merge is returned as it is.
    """
    facts = _coalesced_facts(inst.facts)
    if facts is None:
        return inst
    return _mark_checked(Instance(CONCRETE, inst.schema, frozenset(facts)))


def _blocks(facts: Iterable[Fact], tokens: Callable[[Fact], list],
            loose: list[Fact] | None = None) -> list[list[Fact]]:
    """The finest partition of the facts in which two facts that share a
    token are in one block, found by union-find over the tokens.  A fact
    without tokens meets no other fact: it is left out, or appended to
    ``loose`` if given."""
    parent: dict = {}

    def find(t):
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = t = parent[parent[t]]
        return t

    firsts = []
    for f in facts:
        mine = tokens(f)
        if not mine:
            if loose is not None:
                loose.append(f)
            continue
        root = find(mine[0])
        for t in mine[1:]:
            other = find(t)
            if other != root:
                parent[other] = root
        firsts.append((f, mine[0]))
    blocks: dict = {}
    for f, t in firsts:
        blocks.setdefault(find(t), []).append(f)
    return list(blocks.values())


class _Cut(NamedTuple):
    """A block that needs a cut: its facts, its sorted endpoint grid, and
    ``_grid_cuts`` of its intervals on the grid."""

    facts: Collection[Fact]
    grid: list[int]
    cuts: dict[ClopenInterval, tuple[int, int]]
    fragments: int


def _plan_cuts(blocks: Iterable[Collection[Fact]]) -> list[_Cut]:
    """The blocks that need a cut, with their grids, so that no fact of a
    block overlaps another fact of the block unless their intervals are
    equal.  A block whose intervals are equal or disjoint (``_apart``)
    needs none."""
    plans = []
    for block in blocks:
        times = {f.time for f in block}
        if len(times) < 2 or _apart(times):
            continue
        grid = build_grid(times)
        cuts, count = _grid_cuts(Counter(f.time for f in block), grid)  # one fragment per grid point in it
        plans.append(_Cut(block, grid, cuts, count))
    return plans


def _refuse_fragments(stage: str, plans: list[_Cut], merged: int = 0) -> None:
    """PreconditionError, naming ``stage``, if the cuts add more than
    ``MAX_NORMALIZE_FRAGMENTS`` fragments to the facts they split, counted
    before any is made.  The ``merged`` facts that a coalescing removed
    before the cut count as facts the stage was given: a cut that only
    makes them again holds no more facts than were made before the
    coalescing.  The message names the facts cut, their fragments, and the
    facts merged when there are any."""
    facts = sum(len(p.facts) for p in plans)
    fragments = sum(p.fragments for p in plans)
    added = fragments - facts - merged
    if added > MAX_NORMALIZE_FRAGMENTS:
        given = f"the facts and the {merged} that coalescing merged away" if merged else "the facts"
        raise PreconditionError(f"{stage} would split {facts} facts into {fragments} fragments, "
                                f"{added} more than {given}, above the limit of {MAX_NORMALIZE_FRAGMENTS}")


def _apply_cuts(inst: Instance, plans: list[_Cut]) -> Instance:
    """``inst`` with the facts of each planned block cut over the block's grid
    by ``split_interval`` and ``_cut``."""
    if not plans:
        return inst
    facts = set(inst.facts)
    for p in plans:
        facts.difference_update(p.facts)
        facts.update(_cut(p.facts, {iv: split_interval(iv, p.grid[lo:hi]) for iv, (lo, hi) in p.cuts.items()}))
    return _mark_checked(Instance(CONCRETE, inst.schema, frozenset(facts)))


def normalize_instance(inst: Instance) -> Instance:
    """Split every fact over the endpoint grid of the whole instance: the
    block cut of ``_plan_cuts`` with all facts in one block.

    The output satisfies the normalization predicate and has the same abstract
    view at every valid horizon: each distinct interval is cut by
    ``split_interval`` at the grid points inside it, and each piece holds
    the fact's values, as each time point does in ``sem_instance``.  An
    instance that needs no split is returned as it is.

    A fact becomes one fragment per grid cell it covers, so n nested facts
    ``[i, inf)`` make n(n+1)/2 fragments, n(n-1)/2 more than the facts.  The
    count is taken with ``bisect`` on the grid before any fragment is made,
    and when the fragments outnumber the facts by more than
    ``MAX_NORMALIZE_FRAGMENTS`` PreconditionError is raised; so the limit
    bounds what splitting adds, and an input of any size that needs no split
    passes.  Measured with tracemalloc (Python 3.11, example1 sources, 66,048
    and 80,200 fragments), a fragment takes about 0.4 KB at the peak of this
    function, 1.2 KB at the peak of ``tdx normalize``, which also writes the
    text, and 3.9 KB at the peak of a chase of the fragments: 100,000 added
    fragments are about 0.04, 0.12 and 0.39 GB on top of what the facts
    themselves take.
    """
    _check_kind(inst, CONCRETE, "normalize_instance")
    plans = _plan_cuts([inst.facts])
    _refuse_fragments("normalization", plans)
    return _apply_cuts(inst, plans)


def conform_instance(inst: Instance, declared: Iterable[RelationSchema]) -> Instance:
    """Re-type an instance against declared schemas, adding missing relations as empty.

    Raises SchemaError if the instance breaks a rule (``_check_instance``), or
    carries a relation the declaration does not know, or one whose
    attributes disagree with the declaration.
    """
    _check_instance(inst)
    out = Instance(inst.kind, declared, inst.facts)
    by_name = out.schema_by_name
    for r in inst.schema:
        known = by_name.get(r.name)
        if known is None:
            if inst.facts_by_relation[r.name]:
                raise SchemaError(f"relation {r.name!r} is not declared in the mapping")
            continue
        if known != r:
            raise SchemaError(
                f"relation {r.name!r} declared as {known.all_attributes}, instance has {r.all_attributes}")
    # the facts are of the instance's relations, now declared with the same arities
    return _mark_checked(out)


# ---------------------------------------------------------------------------
# JSON instance format
#
#   {"kind": "concrete" | "abstract",
#    "relations": {name: {"attributes": [..., temporal_last], "facts": [...]}}}
#
# A fact is {"values": [v, ...], "interval": {"start": s, "end": e | "inf"}}
# (concrete) or {"values": [v, ...], "time": t} (abstract).  A value is a JSON
# string (constant) or {"null": "<label>"}; the fact's time annotates the
# null.
# ---------------------------------------------------------------------------


def instance_to_json(inst: Instance) -> dict:
    """The JSON document of ``inst``: the text of ``dumps_instance``, read
    back.  Raises SchemaError as ``dumps_instance`` does."""
    return json.loads(dumps_instance(inst))


def _require(cond: bool, where: str, message: str) -> None:
    if not cond:
        raise SchemaError(f"{where}: {message}")


def _time_from_json(doc: dict, kind: str) -> TimeValue:
    """The fact's time, or ValueError with its problem; a subclass of ``int``
    in a code-built document is read as the ``int`` it stands for."""
    if kind == CONCRETE:
        if "interval" not in doc:
            raise ValueError("concrete fact must carry an \"interval\"")
        iv = doc["interval"]
        if not (isinstance(iv, dict) and len(iv) == 2 and "start" in iv and "end" in iv):
            raise ValueError("interval must be {\"start\": ..., \"end\": ...}")
        start, end = iv["start"], iv["end"]
        if not isinstance(start, int) or isinstance(start, bool):
            raise ValueError("interval start must be an integer")
        if end == "inf":
            end = INF
        elif not isinstance(end, int) or isinstance(end, bool):
            raise ValueError("interval end must be an integer or \"inf\"")
        else:
            end = int.__int__(end)
        return ClopenInterval(int.__int__(start), end)  # its ValueError is the fact's problem
    if "time" not in doc:
        raise ValueError("abstract fact must carry a \"time\"")
    t = doc["time"]
    if not (isinstance(t, int) and not isinstance(t, bool) and t >= 0):
        raise ValueError("time must be a non-negative integer")
    return int.__int__(t)


def _value_from_json(v: object, nulls: dict) -> Value:
    """The value, or ValueError with its problem; ``nulls`` holds one
    ``Null`` per label.  A subclass of ``str`` in a code-built document is
    read as the ``str`` it stands for."""
    if isinstance(v, str):
        return str.__str__(v)
    if isinstance(v, dict) and len(v) == 1 and isinstance(v.get("null"), str):
        label = str.__str__(v["null"])
        return nulls.get(label) or nulls.setdefault(label, _new(Null, (label,)))
    raise ValueError(f"a value must be a string or {{\"null\": \"<label>\"}}, got {_brief(v)}")


def instance_from_json(doc: object) -> Instance:
    """The instance of a JSON document, or SchemaError naming the first
    problem: of the document, of a relation, or of ``relation 'R' fact #i``.

    Each row is read in one loop.  A time is read by ``_time_from_json`` the
    first time it is seen, then found by its JSON value, made only of exact
    ints and ``"inf"`` (a bool or a float can equal an int but is not a
    time); a value that is not a ``str`` or a ``{"null": "<label>"}`` of
    exact classes is read by ``_value_from_json``.  A subclass of ``str`` or
    ``int`` (a code-built document can hold one), in a name, a value or a
    time, is read as the value of its class, so every fact read is well
    formed, and the instance is marked checked.
    """
    _require(isinstance(doc, dict), "instance", "top level must be a JSON object")
    kind = doc.get("kind")
    _require(kind in (CONCRETE, ABSTRACT), "instance", "\"kind\" must be \"concrete\" or \"abstract\"")
    relations = doc.get("relations")
    _require(isinstance(relations, dict), "instance", "\"relations\" must be an object")
    concrete = kind == CONCRETE
    schemas: list[RelationSchema] = []
    facts: set[Fact] = set()
    add = facts.add
    times: dict = {}
    nulls: dict = {}
    for name in relations:
        where = f"relation {name!r}"
        _require(isinstance(name, str), where, "name must be a string")
        rel = relations[name]
        name = str.__str__(name)
        _require(isinstance(rel, dict), where, "must be an object")
        attrs = rel.get("attributes")
        _require(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs),
                 where, "\"attributes\" must be a non-empty list of names")
        attrs = [str.__str__(a) for a in attrs]
        schema = RelationSchema(name, tuple(attrs[:-1]), attrs[-1])
        schemas.append(schema)
        arity = schema.arity
        rows = rel.get("facts", [])
        _require(isinstance(rows, list), where, "\"facts\" must be a list")
        try:  # where the fact is is written only when it has a problem
            for i, row in enumerate(rows):
                if not isinstance(row, dict):
                    raise ValueError("must be an object")
                if concrete:
                    key = None
                    iv = row.get("interval")
                    if iv.__class__ is dict and len(iv) == 2:
                        start, end = iv.get("start"), iv.get("end")
                        if start.__class__ is int and (end.__class__ is int or end == "inf"):
                            key = (start, end)
                else:
                    key = row.get("time")
                    if key.__class__ is not int:
                        key = None
                t = times.get(key)
                if t is None:
                    t = _time_from_json(row, kind)
                    if key is not None:
                        times[key] = t
                values = row.get("values")
                if not isinstance(values, list):
                    raise ValueError("\"values\" must be a list")
                if len(values) != arity:
                    raise ValueError(f"expected {arity} values, got {len(values)}")
                out = []
                for v in values:
                    if v.__class__ is not str:
                        if v.__class__ is dict and len(v) == 1 and (label := v.get("null")).__class__ is str:
                            v = nulls.get(label) or nulls.setdefault(label, _new(Null, (label,)))
                        else:
                            v = _value_from_json(v, nulls)
                    out.append(v)
                add(_new(Fact, (name, tuple(out), t)))
        except ValueError as exc:
            raise SchemaError(f"{where} fact #{i}: {exc}") from None
    return _mark_checked(Instance(kind, tuple(schemas), frozenset(facts)))


def _list_text(items: list[str], indent: str) -> str:
    """A JSON array of rendered items, laid out as ``json.dumps(indent=2)`` does."""
    if not items:
        return "[]"
    inner = indent + "  "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _time_text(t: TimeValue) -> str:
    """A time as the text of its JSON members at the depth of a fact's
    members (the interval's own members one level deeper): a fact's, or the
    one that annotates the nulls of a failure witness."""
    if isinstance(t, ClopenInterval):
        end = int.__repr__(t.end) if isinstance(t.end, int) else '"inf"'
        return (f'"interval": {{\n            "end": {end},\n'
                f'            "start": {int.__repr__(t.start)}\n          }}')
    return f'"time": {int.__repr__(t)}'


def dumps_instance(inst: Instance, horizon: int | None = None) -> str:
    """Canonical, newline-terminated JSON text; byte-deterministic.

    The text is ``json.dumps(doc, indent=2, sort_keys=True,
    ensure_ascii=False) + "\\n"`` of the instance's JSON document, each
    relation's facts in canonical order, with a top-level ``"horizon"``
    member when ``horizon`` is given.  It is written directly from the
    instance: strings are escaped by the json module's C encoder.  Each
    relation's facts are grouped by their values tuple, so only the distinct
    tuples are sorted (with the ``Null`` comparisons of canonical order) and
    each tuple's ``"values"`` text is rendered once; a group's times, ints
    or intervals, sort in C.  Canonical order is (relation, values, time),
    so each row is the text of its time, rendered once per distinct time
    and null label per call, joined to its group's values text.  Raises
    SchemaError, as ``_check_instance`` does, and InvalidHorizonError for a
    horizon that is not a finite time point.
    """
    _check_instance(inst)
    if horizon is not None:
        _check_horizon(horizon)
    times: dict[TimeValue, str] = {}
    nulls: dict[str, str] = {}
    relations = []
    for schema in inst.schema:
        groups: dict[tuple[Value, ...], list[TimeValue]] = {}
        for _, values, t in inst.facts_by_relation[schema.name]:
            group = groups.get(values)
            if group is None:
                groups[values] = [t]
            else:
                group.append(t)
        rows = []
        for values in sorted(groups):
            texts = []
            for v in values:
                if isinstance(v, str):
                    texts.append(_encode(v))
                else:
                    text = nulls.get(v.label)
                    if text is None:
                        text = nulls[v.label] = '{\n              "null": ' + _encode(v.label) + "\n            }"
                    texts.append(text)
            values_text = ',\n          "values": ' + _list_text(texts, "          ") + "\n        }"
            group = groups[values]
            group.sort()
            for t in group:
                time_text = times.get(t)
                if time_text is None:
                    time_text = times[t] = "{\n          " + _time_text(t)
                rows.append(time_text + values_text)
        facts = _list_text(rows, "      ")
        attributes = _list_text([_encode(a) for a in schema.all_attributes], "      ")
        relations.append(f'    {_encode(schema.name)}: {{\n      "attributes": {attributes},\n'
                         f'      "facts": {facts}\n    }}')
    head = "{\n" if horizon is None else f'{{\n  "horizon": {int.__repr__(horizon)},\n'
    body = "{\n" + ",\n".join(relations) + "\n  }" if relations else "{}"
    return f'{head}  "kind": {_encode(inst.kind)},\n  "relations": {body}\n}}\n'


def loads_instance(text: str) -> Instance:
    _refuse_class(text, str, "instance text")
    try:
        doc = json.loads(text)
    except RecursionError:
        raise SchemaError("instance: JSON is nested too deeply") from None
    return instance_from_json(doc)
