"""Formula-homomorphism enumeration and abstract-homomorphism search.

A *formula homomorphism* binds the variables of a conjunction of atoms so
that every atom instantiates to a fact of the instance; the shared temporal
variable binds to an interval (concrete instance) or a time point (abstract).
Chase steps and query evaluation are both driven by this enumeration.

An *abstract homomorphism* maps one abstract instance into another: constants
and time points are fixed, and each null may go to a constant or to a null
annotated with the same time point.  Existence in both directions is the
equivalence used to compare chase results across the two views.
"""
from __future__ import annotations

from typing import Mapping as TMapping, NamedTuple, Optional, Sequence

from .errors import SchemaError
from .mapping_lang import Atom, Lit
from .model import (
    ABSTRACT,
    Constant,
    Fact,
    Instance,
    Null,
    Value,
    fact_sort_key,
    value_sort_key,
)

Binding = dict[str, object]  # variable -> Value, plus temporal variable -> interval/point
AbstractHom = dict[Null, Value]


def instantiate_atom(atom: Atom, binding: TMapping[str, object]) -> Fact:
    """Apply a total binding to one atom, producing a fact."""
    values = []
    for term in atom.args:
        if isinstance(term, Lit):
            values.append(Constant(term.value))
        else:
            values.append(binding[term.name])
    return Fact(atom.relation, tuple(values), binding[atom.time_var])


def _match_atom(atom: Atom, fact: Fact, binding: Binding) -> Optional[Binding]:
    ext = dict(binding)
    for term, value in zip(atom.args, fact.values):
        if isinstance(term, Lit):
            if value != Constant(term.value):
                return None
        else:
            bound = ext.get(term.name)
            if bound is None:
                ext[term.name] = value
            elif bound != value:
                return None
    bound = ext.get(atom.time_var)
    if bound is None:
        ext[atom.time_var] = fact.time
    elif bound != fact.time:
        return None
    return ext


class _Step(NamedTuple):
    """One atom of a join plan and how its candidate facts are found."""

    atom: Atom
    probe: tuple[object, ...]  # per indexed position: its constant or its variable name
    index: Optional[dict[tuple, list[Fact]]]  # None: scan the whole relation


def _join_plan(atoms: Sequence[Atom], inst: Instance, bound: set[str]) -> list[_Step]:
    """Order the atoms greedily, most bound positions first; ties keep body order.

    A position is bound when it holds a literal or a variable bound by
    ``bound`` or by an earlier atom (the temporal slot, index ``arity``,
    counts like any other).  An atom with a bound position gets an index of
    its relation keyed by the values there, shared by atoms with the same
    relation and bound positions; an atom with none scans its relation.
    """
    # the variable at each position, the temporal slot last; None for a literal
    names = [[None if isinstance(t, Lit) else t.name for t in a.args] + [a.time_var] for a in atoms]
    score = [slots.count(None) for slots in names]
    users: dict[str, list[int]] = {}
    for i, slots in enumerate(names):
        for name in slots:
            if name is not None:
                users.setdefault(name, []).append(i)
                score[i] += name in bound
    bound = set(bound)
    indexes: dict[tuple[str, tuple[int, ...]], dict[tuple, list[Fact]]] = {}
    remaining = list(range(len(atoms)))
    plan = []
    while remaining:
        i = max(remaining, key=score.__getitem__)
        remaining.remove(i)
        atom, slots = atoms[i], names[i]
        keyed = tuple(p for p, name in enumerate(slots) if name is None or name in bound)
        index = None
        if keyed:
            index = indexes.get((atom.relation, keyed))
            if index is None:
                index = indexes[atom.relation, keyed] = {}
                for fact in inst.relation_facts(atom.relation):
                    row = (*fact.values, fact.time)
                    index.setdefault(tuple(row[p] for p in keyed), []).append(fact)
        probe = tuple(Constant(atom.args[p].value) if slots[p] is None else slots[p] for p in keyed)
        plan.append(_Step(atom, probe, index))
        for name in slots:
            if name is not None and name not in bound:
                bound.add(name)
                for j in users[name]:
                    score[j] += 1
    return plan


def _candidates(step: _Step, inst: Instance, binding: Binding) -> Sequence[Fact]:
    if step.index is None:
        return inst.relation_facts(step.atom.relation)
    return step.index.get(tuple(binding[t] if isinstance(t, str) else t for t in step.probe), ())


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
    seeds a partial binding.
    """
    for atom in atoms:
        schema = inst.schema_by_name.get(atom.relation)
        if schema is None:
            raise SchemaError(f"unknown relation {atom.relation!r}")
        if len(atom.args) != schema.arity:
            raise SchemaError(f"relation {atom.relation!r} expects {schema.arity} value "
                              f"arguments, got {len(atom.args)}")
    start: Binding = dict(initial or {})
    plan = _join_plan(atoms, inst, {v for v, value in start.items() if value is not None})
    if not plan:
        return [start]
    results: list[Binding] = []
    last = len(plan) - 1
    stack = [(0, start, iter(_candidates(plan[0], inst, start)))]
    while stack:
        depth, binding, facts = stack[-1]
        atom = plan[depth].atom
        for fact in facts:
            ext = _match_atom(atom, fact, binding)
            if ext is None:
                continue
            if depth == last:
                results.append(ext)
            else:
                stack.append((depth + 1, ext, iter(_candidates(plan[depth + 1], inst, ext))))
                break
        else:
            stack.pop()
    results.sort(key=lambda b: tuple(value_sort_key(b[v]) for v in sorted(b)))
    return results


def _check_same_abstract(a: Instance, b: Instance) -> None:
    if a.kind != ABSTRACT or b.kind != ABSTRACT:
        raise ValueError("abstract instances are required")
    if a.schema != b.schema:
        raise SchemaError("instances must share a schema")


def _try_image(f: Fact, g: Fact, assignment: AbstractHom) -> Optional[list[Null]]:
    """Try mapping fact ``f`` onto ``g``; mutates ``assignment`` on success."""
    if len(f.values) != len(g.values):
        return None
    newly: list[Null] = []
    for v, w in zip(f.values, g.values):
        if isinstance(v, Constant):
            if v == w:
                continue
        else:
            bound = assignment.get(v)
            if bound is None:
                if isinstance(w, Constant) or (isinstance(w, Null) and w.context == v.context):
                    assignment[v] = w
                    newly.append(v)
                    continue
            elif bound == w:
                continue
        for n in newly:
            del assignment[n]
        return None
    return newly


def _search_component(facts: Sequence[Fact], index: dict, assignment: AbstractHom) -> bool:
    """Backtracking over one group of facts; extends ``assignment`` in place."""
    trail: list[tuple[int, list[Null]]] = []
    depth, start = 0, 0
    while depth < len(facts):
        f = facts[depth]
        candidates = index.get((f.relation, f.time), [])
        pos = start
        newly = None
        while pos < len(candidates):
            newly = _try_image(f, candidates[pos], assignment)
            if newly is not None:
                break
            pos += 1
        if newly is None:
            if not trail:
                return False
            pos_prev, newly_prev = trail.pop()
            for n in newly_prev:
                del assignment[n]
            depth -= 1
            start = pos_prev + 1
        else:
            trail.append((pos, newly))
            depth += 1
            start = 0
    return True


def find_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """Search for an abstract homomorphism from ``a`` into ``b``.

    Facts interact only through shared nulls, so the search runs per connected
    component of the shared-null graph; a fact without nulls must itself occur
    in ``b``.  Within a component it backtracks over the facts in canonical
    order, trying candidate images in canonical order, which makes the result
    the canonically first assignment (component choices are independent).
    Returns None when no homomorphism exists.
    """
    _check_same_abstract(a, b)
    b_facts = b.facts
    index: dict[tuple[str, object], list[Fact]] = {}
    for g in b.sorted_facts:
        index.setdefault((g.relation, g.time), []).append(g)

    parent: dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    components: dict[Null, list[Fact]] = {}
    assignment: AbstractHom = {}
    for f in a.sorted_facts:
        nulls = [v for v in f.values if isinstance(v, Null)]
        if not nulls:
            if f not in b_facts:  # constants are fixed, so the image is f itself
                return None
            continue
        for n in nulls:
            parent.setdefault(n, n)
        first = find(nulls[0])
        for n in nulls[1:]:
            parent[find(n)] = first
        components.setdefault(first, []).append(f)

    merged: dict[Null, list[Fact]] = {}
    for root, facts in components.items():
        merged.setdefault(find(root), []).extend(facts)
    for facts in merged.values():
        facts.sort(key=fact_sort_key)
        if not _search_component(facts, index, assignment):
            return None
    return dict(assignment)


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
