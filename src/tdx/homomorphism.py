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
The abstract search sorts each index list of the target and each
shared-null component of the source into canonical order, because the hom
it returns is the first binding in that order.  Canonical order is the
values' own order (see ``model``), so each of these sorts is native.  The
search compiles a join once per component shape (relations, and which
position holds which null), with the component's constants and time point
as parameters, not once per component.
"""
from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Mapping as TMapping, NamedTuple, Optional, Sequence

from .errors import SchemaError
from .mapping_lang import Atom, Var
from .model import (
    ABSTRACT,
    Fact,
    Instance,
    Null,
    Value,
    _check_instance,
)

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
    if a.schema != b.schema:
        raise SchemaError("instances must share a schema")
    _check_instance(a)
    _check_instance(b)


# A component compiled once per shape: the steps of its join, and the names of
# its parameters, one per constant slot in order, which the start binding
# binds with the component's constants (and "@" with its time point), and of
# its nulls, numbered by first occurrence, which the join binds.
_Compiled = tuple[list[_Step], list[str], list[str]]


def _compile_shape(shape: tuple, b: Instance, indexes: dict) -> _Compiled:
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
    nulls = [f"#{k}" for k in range(1 + max(k for _, ids in shape for k in ids))]
    return _join_plan(patterns, b, {*params, "@"}, indexes, ordered=True), params, nulls


def _search_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """``find_abstract_hom`` on instances that passed ``_check_hom_inputs``."""
    parent: dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    firsts: list[tuple[Fact, Null]] = []
    for f in a.facts:
        nulls = [v for v in f.values if v.__class__ is Null]
        if not nulls:
            if f not in b.facts:  # constants are fixed, so the image is f itself
                return None
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
    indexes: dict = {}
    compiled: dict[tuple, _Compiled] = {}  # by component shape
    hom: AbstractHom = {}
    for facts in components.values():
        facts.sort()
        ids: dict[Null, int] = {}  # a component's nulls, in order of first occurrence
        shape = tuple([(f.relation, tuple([ids.setdefault(v, len(ids)) if v.__class__ is Null else -1
                                           for v in f.values]))
                       for f in facts])
        entry = compiled.get(shape)
        if entry is None:
            entry = compiled[shape] = _compile_shape(shape, b, indexes)
        steps, params, names = entry
        start = dict(zip(params, [v for f in facts for v in f.values if v.__class__ is not Null]))
        start["@"] = facts[0].time  # a component lies at one time point
        binding = next(_walk(steps, start), None)
        if binding is None:
            return None
        for n, name in zip(ids, names):
            hom[n] = binding[name]
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


def hom_equivalent(a: Instance, b: Instance) -> bool:
    """True iff abstract homomorphisms exist in both directions (the inputs
    are checked once, as ``find_abstract_hom`` checks them)."""
    _check_hom_inputs(a, b)
    return _search_abstract_hom(a, b) is not None and _search_abstract_hom(b, a) is not None
