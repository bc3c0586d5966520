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
"""
from __future__ import annotations

from typing import Iterable, Iterator, Mapping as TMapping, NamedTuple, Optional, Sequence

from .errors import SchemaError
from .mapping_lang import Atom, Lit
from .model import (
    ABSTRACT,
    Constant,
    Fact,
    Instance,
    Null,
    Value,
    value_sort_key,
)

Binding = dict[str, object]  # variable -> Value, plus temporal variable -> interval/point
AbstractHom = dict[Null, Value]


def instantiate_atom(atom: Atom, binding: TMapping[str, object]) -> Fact:
    """Apply a total binding to one atom, producing a fact."""
    values = tuple(Constant(t.value) if isinstance(t, Lit) else binding[t.name] for t in atom.args)
    return Fact(atom.relation, values, binding[atom.time_var])


# An atom or a fact compiled for matching: its relation, then one slot per
# value position and one for time.  A ``str`` slot names a variable; any other
# slot is the value a fact must hold there.
_Pattern = tuple[str, tuple[object, ...]]


def _compile(atom: Atom) -> _Pattern:
    return atom.relation, (*(Constant(t.value) if isinstance(t, Lit) else t.name
                             for t in atom.args), atom.time_var)


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
    names = [[s for s in slots if s.__class__ is str] for _, slots in patterns]
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


def _check_arity(facts: Iterable[Fact], inst: Instance) -> None:
    """Raise SchemaError for a fact whose relation ``inst`` does not declare or
    whose values do not fill it: patterns and facts are matched by position."""
    arity = {r.name: r.arity for r in inst.schema}
    for fact in facts:
        if arity.get(fact.relation) != len(fact.values):
            if fact.relation not in arity:
                raise SchemaError(f"{fact}: relation {fact.relation!r} is not in the schema")
            raise SchemaError(f"{fact}: relation {fact.relation!r} expects {arity[fact.relation]} "
                              f"values, got {len(fact.values)}")


def _join_plan(patterns: Sequence[_Pattern], inst: Instance, bound: set[str],
               indexes: dict[tuple[str, tuple[int, ...]], dict]) -> list[_Step]:
    """Plan the patterns most bound first, each with an index of its relation.

    The index is keyed by the values at the pattern's bound positions (with
    none, it holds the whole relation under the empty key).  ``indexes``
    keeps them by relation and positions, so one search shares them.
    """
    plan = []
    bound = set(bound)
    for i in _most_bound_first(patterns, bound):
        relation, slots = patterns[i]
        keyed, free = [], []
        for p, s in enumerate(slots):
            if s.__class__ is str and s not in bound:
                free.append((p, s))
            else:
                keyed.append(p)
        keyed, free = tuple(keyed), tuple(free)
        index = indexes.get((relation, keyed))
        if index is None:
            facts = inst.relation_facts(relation)
            _check_arity(facts, inst)
            if keyed:
                index = {}
                for fact in facts:
                    row = (*fact.values, fact.time)
                    index.setdefault(tuple([row[p] for p in keyed]), []).append(fact)
            else:
                index = {(): facts}
            indexes[relation, keyed] = index
        plan.append(_Step(index, tuple([slots[p] for p in keyed]), free))
        bound.update([name for _, name in free])
    return plan


def _candidates(step: _Step, binding: Binding) -> Sequence[Fact]:
    return step.index.get(tuple([binding[s] if s.__class__ is str else s for s in step.probe]), ())


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
    seeds a partial binding.  Raises SchemaError for an atom that does not
    fill a relation of the schema, and for such a fact of a relation the
    body reads.
    """
    for atom in atoms:
        schema = inst.schema_by_name.get(atom.relation)
        if schema is None:
            raise SchemaError(f"unknown relation {atom.relation!r}")
        if len(atom.args) != schema.arity:
            raise SchemaError(f"relation {atom.relation!r} expects {schema.arity} value "
                              f"arguments, got {len(atom.args)}")
    start: Binding = dict(initial or {})
    bound = {v for v, value in start.items() if value is not None}
    results = list(_walk(_join_plan([_compile(a) for a in atoms], inst, bound, {}), start))
    results.sort(key=lambda b: tuple(value_sort_key(b[v]) for v in sorted(b)))
    return results


def find_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """Search for an abstract homomorphism from ``a`` into ``b``.

    Facts interact only through shared nulls, so the search runs per connected
    component of the shared-null graph; a fact without nulls must itself occur
    in ``b``.  A component lies at one time point, so it is a conjunctive
    query over ``b``: each fact is a pattern with its constants and time
    fixed and each null's label as a variable.  It runs on the same join as
    ``enumerate_formula_homs``, with one index cache for the whole search,
    and the component's assignment is the first binding in the join's
    deterministic plan.  Returns None when no homomorphism exists.

    Raises SchemaError if a fact of ``a``, or of a relation of ``b`` that the
    search reads, does not fill a relation of the schema, if a null of ``a``
    is not annotated with its fact's time point, or if a null it maps to in
    ``b`` is annotated with another.
    """
    if a.kind != ABSTRACT or b.kind != ABSTRACT:
        raise ValueError("abstract instances are required")
    if a.schema != b.schema:
        raise SchemaError("instances must share a schema")
    parent: dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    _check_arity(a.facts, a)
    firsts: list[tuple[Fact, Null]] = []
    for f in a.sorted_facts:
        nulls = [v for v in f.values if isinstance(v, Null)]
        if not nulls:
            if f not in b.facts:  # constants are fixed, so the image is f itself
                return None
            continue
        for n in nulls:
            if n.context != f.time:
                raise SchemaError(f"{f}: null {n} is not annotated with the fact's time point")
            parent.setdefault(n, n)
        first = find(nulls[0])
        for n in nulls[1:]:
            parent[find(n)] = first
        firsts.append((f, first))

    components: dict[Null, list[Fact]] = {}  # each in canonical fact order
    for f, n in firsts:
        components.setdefault(find(n), []).append(f)
    indexes: dict = {}
    hom: AbstractHom = {}
    for facts in components.values():
        patterns = [(f.relation, (*(v.label if isinstance(v, Null) else v for v in f.values), f.time))
                    for f in facts]
        binding = next(_walk(_join_plan(patterns, b, set(), indexes), {}), None)
        if binding is None:
            return None
        for f in facts:
            for n in f.values:
                if isinstance(n, Null):
                    image = hom[n] = binding[n.label]
                    if isinstance(image, Null) and image.context != n.context:
                        raise SchemaError(f"null {image} in a fact at time {n.context} is not "
                                          f"annotated with the fact's time point")
    return hom


def apply_abstract_hom(hom: TMapping[Null, Value], inst: Instance) -> Instance:
    """Image of an abstract instance under a null assignment."""
    facts = {
        Fact(f.relation, tuple(hom.get(v, v) if isinstance(v, Null) else v
                               for v in f.values), f.time)
        for f in inst.facts
    }
    return Instance(inst.kind, inst.schema, frozenset(facts))


def hom_equivalent(a: Instance, b: Instance) -> bool:
    """True iff abstract homomorphisms exist in both directions."""
    return find_abstract_hom(a, b) is not None and find_abstract_hom(b, a) is not None
