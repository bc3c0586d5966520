"""Formula homomorphisms and abstract homomorphisms, found by one join.

A *formula homomorphism* binds the variables of a conjunction of atoms so
that every atom instantiates to a fact of the instance; the shared temporal
variable binds to an interval (concrete instance) or a time point (abstract).
Chase steps and query evaluation are both driven by this enumeration.

An *abstract homomorphism* maps one abstract instance into another: constants
and time points are fixed, and each null may go to a constant or to a null
annotated with the same time point.  Existence in both directions is the
equivalence used to compare chase results across the two views.

Both are found by one search (Chandra and Merlin: a homomorphism from an
instance is an answer to that instance read as a conjunctive query).  Atoms
and facts compile to patterns, a planner orders them most bound first with
an index per pattern, and one stack walker yields the matching bindings.

Indexes are built from each relation's facts in no particular order, and
canonical order is paid for only where a result's order shows.
``enumerate_formula_homs`` sorts its bindings, because the chase's null
labels follow them; ``naive_eval`` takes the same walk unsorted into a set.
``find_abstract_hom`` sorts each index list of the target and each
shared-null component of the source into canonical order, because the hom
it returns is the first binding in that order.  Canonical order is the
values' own order (see ``model``), so each of these sorts is native.  The
search compiles a join once per component shape (relations, and which
position holds which null), with the component's constants and time point
as parameters, not once per component.

``hom_equivalent`` decides only existence, so it returns no hom and sorts no
index list.  It keys each component by its facts with nulls numbered in
order of first occurrence, and its time point; a component whose key the
other instance also holds maps onto that twin by renaming nulls, and only
the others are searched (on why a homomorphism between two solutions of
one mapping is often cheap to find, see Fagin, Kolaitis and Popa, "Data
exchange: getting to the core", TODS 2005).

``equivalent`` compares the abstract views of two instances of either view
at one time point per cell of their joint endpoint grid, the snapshot
reading of the concrete view (Chomicki and Toman, "Temporal Databases",
2005), so its cost does not grow with interval length.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from operator import itemgetter
from typing import Iterator, Mapping as TMapping, NamedTuple, Optional, Sequence

from .errors import PreconditionError, SchemaError
from .mapping_lang import Atom, Var
from .model import (
    ABSTRACT,
    CONCRETE,
    MAX_SEM_FACTS,
    Fact,
    Instance,
    Null,
    Value,
    _check_horizon,
    _check_instance,
    _cut,
    _default_horizon,
    _grid_cuts,
)
from .temporal import ClopenInterval, build_grid

Binding = dict[str, object]  # variable -> Value, plus temporal variable -> interval/point
AbstractHom = dict[Null, Value]


def instantiate_atom(atom: Atom, binding: TMapping[str, object]) -> Fact:
    """Apply a total binding to one atom, producing a fact."""
    values = tuple(binding[t.name] if isinstance(t, Var) else t for t in atom.args)
    return Fact(atom.relation, values, binding[atom.time_var])


class _Var(str):
    """A variable's name in a pattern slot; it hashes and compares as the name."""
    __slots__ = ()


# An atom or a fact compiled for matching: its relation, then one slot per
# value position and one for time.  A ``_Var`` slot names a variable; any
# other slot (a constant's ``str`` among them) is the value a fact must hold
# there.
_Pattern = tuple[str, tuple[object, ...]]


def _compile(atom: Atom) -> _Pattern:
    return atom.relation, (*(_Var(t.name) if isinstance(t, Var) else t for t in atom.args),
                           _Var(atom.time_var))


class _Step(NamedTuple):
    """One pattern of a join plan: the index its candidate facts come from,
    looked up by the probe, and the variables a candidate then binds."""

    index: dict[tuple, Sequence[Fact]]
    probe: tuple[object, ...]  # the slot at each indexed position
    free: tuple[tuple[int, str], ...]  # (position, variable) at every other position


def _match_atom(step: _Step, fact: Fact, binding: Binding) -> Optional[Binding]:
    """Extend ``binding`` by the step's free variables as ``fact`` holds them.  The
    index already matched every bound position, so only a repeated variable can fail."""
    ext = dict(binding)
    row = (*fact.values, fact.time)
    for p, name in step.free:
        bound = ext.get(name)
        if bound is None:
            ext[name] = row[p]
        elif bound != row[p]:
            return None
    return ext


def _most_bound_first(patterns: Sequence[_Pattern], bound: set[str]) -> list[int]:
    """Order the patterns greedily, most bound positions first; ties keep body order.

    A position is bound when its slot is a fixed value or a variable bound
    by ``bound`` or by an earlier pattern.
    """
    if len(patterns) < 2:
        return list(range(len(patterns)))
    names = [[s for s in slots if s.__class__ is _Var] for _, slots in patterns]
    score = [len(slots) - len(vs) + sum(v in bound for v in vs)
             for (_, slots), vs in zip(patterns, names)]
    users: dict[str, list[int]] = {}
    for i, vs in enumerate(names):
        for v in vs:
            users.setdefault(v, []).append(i)
    bound = set(bound)
    remaining = list(range(len(patterns)))
    order = []
    while remaining:
        i = max(remaining, key=score.__getitem__)
        remaining.remove(i)
        order.append(i)
        for v in names[i]:
            if v not in bound:
                bound.add(v)
                for j in users[v]:
                    score[j] += 1
    return order


def _join_plan(patterns: Sequence[_Pattern], inst: Instance, bound: set[str],
               indexes: dict[tuple[str, tuple[int, ...]], dict], ordered: bool = False) -> list[_Step]:
    """The steps of a join of the patterns: most bound first, each with an
    index of its relation, its probe and its free variables.

    The index is keyed by the values at the pattern's bound positions (with
    none, it holds the whole relation under the empty key).  ``indexes``
    keeps them by relation and positions, so one search shares them.  The
    index is built from the relation's facts in no particular order; if
    ``ordered``, each of its lists is then sorted into canonical order.
    Patterns and facts are matched by position, so the caller has checked
    ``inst`` (``_check_instance``): each fact fills its relation.
    """
    steps = []
    bound = set(bound)
    for i in _most_bound_first(patterns, bound):
        relation, slots = patterns[i]
        free = tuple([p for p, s in enumerate(slots) if s.__class__ is _Var and s not in bound])
        keyed = tuple([p for p in range(len(slots)) if p not in free])
        index = indexes.get((relation, keyed))
        if index is None:
            facts = inst.facts_by_relation.get(relation, ())
            if keyed:
                index = {}
                for fact in facts:
                    row = (*fact.values, fact.time)
                    index.setdefault(tuple([row[p] for p in keyed]), []).append(fact)
                if ordered:
                    for bucket in index.values():
                        bucket.sort()
            else:
                index = {(): sorted(facts) if ordered else facts}
            indexes[relation, keyed] = index
        steps.append(_Step(index, tuple([slots[p] for p in keyed]), tuple([(p, str(slots[p])) for p in free])))
        bound.update([slots[p] for p in free])
    return steps


def _candidates(step: _Step, binding: Binding) -> Sequence[Fact]:
    return step.index.get(tuple([binding[s] if s.__class__ is _Var else s for s in step.probe]), ())


def _walk(plan: Sequence[_Step], start: Binding) -> Iterator[Binding]:
    """Every extension of ``start`` that matches the whole plan, depth first
    with an explicit stack, candidates in index order."""
    if not plan:
        yield start
        return
    last = len(plan) - 1
    stack = [(0, start, iter(_candidates(plan[0], start)))]
    while stack:
        depth, binding, facts = stack[-1]
        step = plan[depth]
        for fact in facts:
            ext = _match_atom(step, fact, binding)
            if ext is None:
                continue
            if depth == last:
                yield ext
            else:
                stack.append((depth + 1, ext, iter(_candidates(plan[depth + 1], ext))))
                break
        else:
            stack.pop()


def _formula_homs(atoms: Sequence[Atom], inst: Instance,
                  initial: TMapping[str, object] | None) -> Iterator[Binding]:
    """The bindings of ``enumerate_formula_homs``, unsorted, as the walk yields
    them, over an instance that passed ``_check_instance``.  The atoms are
    checked, and the relations read are indexed, at the call."""
    for atom in atoms:
        schema = inst.schema_by_name.get(atom.relation)
        if schema is None:
            raise SchemaError(f"unknown relation {atom.relation!r}")
        if len(atom.args) != schema.arity:
            raise SchemaError(f"relation {atom.relation!r} expects {schema.arity} value "
                              f"arguments, got {len(atom.args)}")
    start: Binding = dict(initial or {})
    bound = {v for v, value in start.items() if value is not None}
    patterns = [_compile(a) for a in atoms]
    return _walk(_join_plan(patterns, inst, bound, {}), start)


def _sorted_formula_homs(atoms: Sequence[Atom], inst: Instance,
                         initial: TMapping[str, object] | None = None) -> list[Binding]:
    """The bindings of ``enumerate_formula_homs``, over a checked instance."""
    results = list(_formula_homs(atoms, inst, initial))
    if len(results) > 1:  # every binding of one call binds the same names
        results.sort(key=itemgetter(*sorted(results[0])))
    return results


def enumerate_formula_homs(atoms: Sequence[Atom], inst: Instance,
                           initial: TMapping[str, object] | None = None) -> list[Binding]:
    """All bindings under which every atom instantiates to a fact of ``inst``.

    The body is evaluated as one indexed join.  Atoms are planned most bound
    positions first; each later atom looks its facts up by the time value
    and the values it shares with the binding so far, which is an exact
    equi-join because the atoms share the temporal variable (time values are
    compared by equality, as an unnormalized concrete instance needs).  The
    plan is walked with an explicit stack, so body length is not bounded by
    the recursion limit.  The result is sorted by the bound values (variables
    in name order), so the enumeration order is deterministic.  ``initial``
    seeds a partial binding.  Raises SchemaError for an instance that
    ``validate_instance`` faults, and for an atom that does not fill a
    relation of the schema.
    """
    _check_instance(inst)
    return _sorted_formula_homs(atoms, inst, initial)


def _check_hom_inputs(a: Instance, b: Instance) -> None:
    """The preconditions of an abstract homomorphism search, checked over
    both instances before any search so that whether it raises, and what,
    does not depend on the order in which it meets the facts."""
    if a.kind != ABSTRACT or b.kind != ABSTRACT:
        raise ValueError("abstract instances are required")
    _check_pair(a, b)


def _check_pair(a: Instance, b: Instance) -> None:
    """Two instances to compare share a schema, and each is well formed."""
    if a.schema != b.schema:
        raise SchemaError("instances must share a schema")
    _check_instance(a)
    _check_instance(b)


# A component compiled once per shape: the steps of its join, and the names of
# its parameters, one per constant slot in order, which the start binding
# binds with the component's constants (and "@" with its time point).  The
# join binds the null numbered ``k`` by first occurrence as ``#k``.
_Compiled = tuple[list[_Step], list[str]]

# A shared-null component as its facts in canonical order, each as its relation
# and its values, a constant as itself and a null as its number in order of
# first occurrence; then the component's time point.  Two components with the
# same key are the same up to renaming nulls.
_Key = tuple[tuple[tuple[str, tuple], ...], int]


def _components(inst: Instance) -> tuple[list[Fact], list[list[Fact]]]:
    """The facts of ``inst`` that hold no null, and its connected components
    of the shared-null graph, each a list of facts in no particular order."""
    parent: dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    ground: list[Fact] = []
    firsts: list[tuple[Fact, Null]] = []
    for f in inst.facts:
        nulls = [v for v in f.values if v.__class__ is Null]
        if not nulls:
            ground.append(f)
            continue
        for n in nulls:
            parent.setdefault(n, n)
        first = find(nulls[0])
        for n in nulls[1:]:
            parent[find(n)] = first
        firsts.append((f, first))
    components: dict[Null, list[Fact]] = {}
    for f, n in firsts:
        components.setdefault(find(n), []).append(f)
    return ground, list(components.values())


def _numbered(facts: list[Fact]) -> tuple[_Key, list[Null]]:
    """A component's key, and its nulls in order of first occurrence."""
    facts.sort()
    ids: dict[Null, int] = {}
    rows = tuple([(f.relation, tuple([ids.setdefault(v, len(ids)) if v.__class__ is Null else v
                                      for v in f.values]))
                  for f in facts])
    return (rows, facts[0].time), list(ids)  # a component lies at one time point


def _compile_shape(shape: tuple, b: Instance, indexes: dict, ordered: bool) -> _Compiled:
    """Compile a shape (per fact, its relation and, per value, its null's number
    or -1 for a constant) to a join over ``b``; names cannot collide, as none
    is a null's label."""
    params: list[str] = []
    patterns = []
    for relation, ids in shape:
        slots = []
        for k in ids:
            if k < 0:
                params.append(f"${len(params)}")
                slots.append(_Var(params[-1]))
            else:
                slots.append(_Var(f"#{k}"))
        patterns.append((relation, (*slots, _Var("@"))))
    return _join_plan(patterns, b, {*params, "@"}, indexes, ordered), params


def _component_binding(key: _Key, b: Instance, indexes: dict, compiled: dict[tuple, _Compiled],
                       ordered: bool) -> Optional[Binding]:
    """The first binding of the component's join over ``b``, which binds each
    null's number ``k`` as ``#k``; None if there is none.  The join is compiled
    once per shape into ``compiled``, on the indexes of ``indexes``."""
    rows, time = key
    shape = tuple([(relation, tuple([v if v.__class__ is int else -1 for v in values]))
                   for relation, values in rows])
    entry = compiled.get(shape)
    if entry is None:
        entry = compiled[shape] = _compile_shape(shape, b, indexes, ordered)
    steps, params = entry
    start = dict(zip(params, [v for _, values in rows for v in values if v.__class__ is not int]))
    start["@"] = time
    return next(_walk(steps, start), None)


def _search_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """``find_abstract_hom`` on instances that passed ``_check_hom_inputs``."""
    ground, components = _components(a)
    if not b.facts.issuperset(ground):  # constants are fixed, so a ground fact's image is itself
        return None
    indexes: dict = {}
    compiled: dict[tuple, _Compiled] = {}
    hom: AbstractHom = {}
    for facts in components:
        key, nulls = _numbered(facts)
        binding = _component_binding(key, b, indexes, compiled, ordered=True)
        if binding is None:
            return None
        for k, n in enumerate(nulls):
            hom[n] = binding[f"#{k}"]
    return hom


def find_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """Search for an abstract homomorphism from ``a`` into ``b``.

    Facts interact only through shared nulls, so the search runs per connected
    component of the shared-null graph; a fact without nulls must itself occur
    in ``b``.  A component lies at one time point, so it is a conjunctive
    query over ``b``: each fact is a pattern with its constants and time
    fixed and each null as a variable.  It runs on the same join as
    ``enumerate_formula_homs``, with one index cache for the whole search,
    and the component's assignment is the first binding in the join's plan.

    Components are found in set order, but the hom does not depend on it.
    A component's facts are taken in canonical order and each index list of
    ``b`` is sorted into canonical order, so candidates are tried in that
    order.  The query depends only on the component's *shape* (its
    relations, and which position holds which null, nulls renamed by first
    occurrence), once each constant slot and the time slot is a parameter
    bound before the join starts: so it is planned and compiled once per
    shape, and each component only binds its constants and time point.
    Returns None when no homomorphism exists.

    Raises SchemaError, as ``_check_instance`` words it, if ``a`` or ``b``
    breaks a rule of ``validate_instance``.
    """
    _check_hom_inputs(a, b)
    return _search_abstract_hom(a, b)


def apply_abstract_hom(hom: TMapping[Null, Value], inst: Instance) -> Instance:
    """Image of an abstract instance under a null assignment."""
    facts = {
        Fact(f.relation, tuple(hom.get(v, v) if isinstance(v, Null) else v
                               for v in f.values), f.time)
        for f in inst.facts
    }
    return Instance(inst.kind, inst.schema, frozenset(facts))


def _keys(inst: Instance) -> tuple[list[Fact], set[_Key]]:
    """The facts of ``inst`` that hold no null, and the keys of its components."""
    ground, components = _components(inst)
    return ground, {_numbered(facts)[0] for facts in components}


def _maps_into(ground: list[Fact], keys: set[_Key], b: Instance, twins: set[_Key]) -> bool:
    """Whether an abstract homomorphism exists from the instance of ``ground``
    and ``keys`` into ``b``, the keys of whose components are ``twins``.  A
    component with a twin in ``b`` maps onto it by renaming nulls; only the
    others are searched, on indexes in no particular order."""
    if not b.facts.issuperset(ground):
        return False
    indexes: dict = {}
    compiled: dict[tuple, _Compiled] = {}
    return all(key in twins or _component_binding(key, b, indexes, compiled, ordered=False) is not None
               for key in keys)


def hom_equivalent(a: Instance, b: Instance) -> bool:
    """True iff abstract homomorphisms exist in both directions (the inputs
    are checked once, as ``find_abstract_hom`` checks them).

    Only existence is decided.  Each instance's components are keyed once
    (see ``_Key``); a component whose key the other instance also holds maps
    onto that twin by renaming nulls, since constants and the time point are
    fixed and each null goes to a null at the same point.  The other
    components are searched as ``find_abstract_hom`` searches them, once per
    distinct key, but with candidates in no particular order.
    """
    _check_hom_inputs(a, b)
    return _hom_equivalent(a, b)


def _hom_equivalent(a: Instance, b: Instance) -> bool:
    """``hom_equivalent`` on instances that passed ``_check_hom_inputs``."""
    ground_a, keys_a = _keys(a)
    ground_b, keys_b = _keys(b)
    return _maps_into(ground_a, keys_a, b, keys_b) and _maps_into(ground_b, keys_b, a, keys_a)


def equivalent(a: Instance, b: Instance, horizon: int | None = None) -> bool:
    """Whether the abstract views of ``a`` and ``b`` are homomorphically
    equivalent: ``hom_equivalent`` after ``sem_instance`` of each concrete
    input up to ``horizon`` (by default one above every finite endpoint of
    the concrete inputs), without building every time point.

    The joint grid holds every endpoint of a concrete fact, and ``t`` and
    ``t+1`` for each abstract fact at ``t`` (as if it held on ``[t, t+1)``);
    its cells end at the horizon.  Within one cell below the horizon the
    abstract views at any two points are the same up to re-annotating nulls,
    and an abstract homomorphism fixes time points, so a homomorphism exists
    at every point of the cell iff one exists at its first point.  So each concrete input is cut at the first
    point of each cell only (a cell that holds an abstract fact is that one
    point), and an abstract input is compared whole, facts at or beyond the
    horizon too.

    Checks, in order: each concrete input is well formed; the horizon is at
    or above the endpoints of each, as ``sem_instance`` checks them; the
    inputs share a schema and each abstract one is well formed, as
    ``hom_equivalent`` checks them.  Then PreconditionError is raised if the
    cut inputs would hold more than ``MAX_SEM_FACTS`` facts, counted on the
    grid before any fact or list of points is built.
    """
    concrete = [inst for inst in (a, b) if inst.kind == CONCRETE]
    for inst in concrete:
        _check_instance(inst)
    if horizon is None:
        horizon = _default_horizon(concrete)
    uses: Counter[ClopenInterval] = Counter()
    for inst in concrete:
        each = Counter(f.time for f in inst.facts)
        _check_horizon(horizon, *sorted(each))
        uses.update(each)
    _check_pair(a, b)
    if not concrete:
        return _hom_equivalent(a, b)
    times = {f.time for inst in (a, b) if inst.kind == ABSTRACT for f in inst.facts}
    grid = build_grid([*uses, *[ClopenInterval(t, t + 1) for t in times]])
    firsts = grid[:bisect_left(grid, horizon)]  # the first point of each cell below the horizon
    cuts, count = _grid_cuts(uses, firsts)
    if count > MAX_SEM_FACTS:
        raise PreconditionError(f"the equivalence check up to horizon {horizon} builds {count} facts, "
                                f"more than the limit of {MAX_SEM_FACTS}")
    points = {iv: firsts[lo:hi] for iv, (lo, hi) in cuts.items()}
    a, b = [Instance(ABSTRACT, inst.schema, _cut(inst.facts, points)) if inst.kind == CONCRETE else inst
            for inst in (a, b)]
    return _hom_equivalent(a, b)
