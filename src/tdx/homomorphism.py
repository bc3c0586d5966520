"""Formula homomorphisms and abstract homomorphisms, found by one join.

A *formula homomorphism* binds the variables of a conjunction of atoms so
that every atom instantiates to a fact of the instance; the shared temporal
variable binds to an interval (concrete instance) or a time point (abstract).
Chase steps and query evaluation are both driven by this enumeration.

An *abstract homomorphism* maps one abstract instance into another: constants
and time points are fixed, and each null, a label at a time point, keyed as
``(null, time point)``, may go to a constant or to a null at that point.
Existence in both directions is the equivalence used to compare chase
results across the two views.

Both are found by one search (Chandra and Merlin: a homomorphism from an
instance is an answer to that instance read as a conjunctive query).  Atoms
and facts compile to patterns, a planner orders them most bound first with
an index per pattern, and one stack walker yields the matching bindings.

Indexes are built from each relation's facts in no particular order, and
canonical order is paid for only where a result's order shows.  The chase,
whose null labels do not depend on binding order, and ``naive_eval`` take
the walk unsorted (``_formula_homs``).  ``find_abstract_hom`` sorts each
index list of the target and each shared-null component of the source into
canonical order, because the hom it returns is the first binding in that
order.  Canonical order is the values' own order (see ``model``), so each
of these sorts is native.  The search compiles a join once per component
shape (relations, and which position holds which null), with the
component's constants and time point as parameters, not once per
component.

``equivalent`` decides whether the abstract views of two instances, of
either view, are homomorphically equivalent: whether ``find_abstract_hom``
finds a hom both ways after ``sem_instance`` of each concrete input (the
oracle ``tests/oracles.py::sem_equivalent``).  It decides only existence, so
it returns no hom and sorts no index list.  It compares the two views
coalesced (Böhlen, Snodgrass and Soo, VLDB 1996), an abstract one by runs
of consecutive points, and pays only for what they do not share (on why a
homomorphism between two solutions of one mapping is often cheap to find,
see Fagin, Kolaitis and Popa, "Data exchange: getting to the core", TODS
2005).  First the identity: a direction whose view is a subset of the
other's holds by the identity map, so two equal views, as the concrete and
abstract chase results of one source are, are decided by comparing sets.
Then twins: in a direction left open, each component is keyed by its facts
with null labels numbered in order of first occurrence, each fact with its
interval, and a component whose key the other side also holds maps onto
that twin by renaming nulls.  Only the rest is searched, cut at one time
point per cell of the joint endpoint grid, the snapshot reading of the
concrete view (Chomicki and Toman, "Temporal Databases", 2005), so its cost
does not grow with interval length.
"""
from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, Iterator, Mapping as TMapping, NamedTuple, Optional, Sequence

from .errors import PreconditionError, SchemaError
from .mapping_lang import Atom, Var
from .model import (
    ABSTRACT,
    CONCRETE,
    MAX_SEM_FACTS,
    Fact,
    Instance,
    Null,
    TimeValue,
    Value,
    _aligned,
    _blocks,
    _check_horizon,
    _check_instance,
    _check_kind,
    _coalesced_facts,
    _cut,
    _default_horizon,
    _grid_cuts,
    _merged,
    _new,
)
from .temporal import ClopenInterval, build_grid

Binding = dict[str, object]  # variable -> Value, plus temporal variable -> interval/point
AbstractHom = dict[tuple[Null, TimeValue], Value]  # (null, its time point) -> image


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
    """Every extension of ``initial`` under which each atom instantiates to a
    fact of ``inst``, an instance that passed ``_check_instance``, unsorted,
    as the walk yields them.  The atoms fill relations of the instance's
    schema and share one temporal variable, as the caller has checked
    (``mapping_lang._check_mapping``); the relations read are indexed at the
    call."""
    start: Binding = dict(initial or {})
    bound = {v for v, value in start.items() if value is not None}
    patterns = [_compile(a) for a in atoms]
    return _walk(_join_plan(patterns, inst, bound, {}), start)


def _join_tokens(atoms: Sequence[Atom]) -> Optional[dict[str, list[tuple[int, tuple[int, ...]]]]]:
    """Per relation of a body, the tokens a fact of it gets: for each edge of
    a spanning tree of the body's distinct atoms, two atoms linked when they
    share a variable, at each end the edge's number and the positions there
    of the variables the two atoms share.  The facts of one binding agree
    on those values, so the edges' tokens link them all; none if some atoms
    share no variable, even through others, and then every fact can meet
    every other."""
    atoms = list(dict.fromkeys(atoms))  # a repeated atom matches the fact its twin does
    places = [{t.name: p for p, t in reversed(list(enumerate(a.args))) if isinstance(t, Var)} for a in atoms]
    users: dict[str, list[int]] = {}
    for i, names in enumerate(places):
        for v in names:
            users.setdefault(v, []).append(i)
    tokens: dict[str, list[tuple[int, tuple[int, ...]]]] = {}
    reached, stack = {0}, [0]
    while stack:
        i = stack.pop()
        for v in places[i]:
            for j in users.pop(v, ()):  # each variable's atoms are met once
                if j in reached:
                    continue
                reached.add(j)
                stack.append(j)
                shared = [w for w in places[i] if w in places[j]]
                for k in (i, j):
                    where = tuple([places[k][w] for w in shared])
                    tokens.setdefault(atoms[k].relation, []).append((len(reached), where))
    return tokens if len(reached) == len(atoms) else None


def _join_inputs(bodies: Sequence[Sequence[Atom]], inst: Instance, stage: str) -> Iterator[Instance]:
    """For each body, the instance its join reads, cut by ``_aligned``.

    A join binds one time value to every atom, so over a concrete instance
    facts that overlap must first be cut into equal pieces.  Only facts that
    can meet in one binding are cut against each other: the body's join
    blocks, where two facts are in one block if, for a pair of atoms linked
    in ``_join_tokens``, they agree on the values the pair shares, a null
    being its label (the grouping-scoped alignment of Dignös, Böhlen and
    Gamper, "Temporal Alignment", SIGMOD 2012).  A body of one atom, a block
    that lacks a fact of some relation of the body (it yields no binding),
    and an abstract instance need no cut.
    """
    if inst.kind != CONCRETE:
        return iter([inst] * len(bodies))
    blockings = []
    for atoms in bodies:
        if len(atoms) < 2:
            blockings.append([])
            continue
        by_relation = _join_tokens(atoms)
        relations = {a.relation for a in atoms}
        if by_relation is None:
            blocks = [[f for r in relations for f in inst.facts_by_relation[r]]]
        else:
            def tokens(f: Fact, by_relation=by_relation) -> list:
                return [(edge, *map(f.values.__getitem__, where)) for edge, where in by_relation.get(f.relation, ())]

            blocks = _blocks([f for r in relations for f in inst.facts_by_relation[r]], tokens)
        blockings.append([b for b in blocks if relations <= {f.relation for f in b}])
    return _aligned(inst, blockings, stage)


def _check_pair(a: Instance, b: Instance) -> None:
    """Two instances to compare, each already checked, share a schema."""
    if a.schema != b.schema:
        raise SchemaError("instances must share a schema")


# A component compiled once per shape: the steps of its join, and the names of
# its parameters, one per constant slot in order, which the start binding
# binds with the component's constants (and "@" with its time point).  The
# join binds the null numbered ``k`` by first occurrence as ``#k``.
_Compiled = tuple[list[_Step], list[str]]

# A component as its facts in canonical order, each as its relation, its
# values (a constant as itself, a null as the number of its label in order of
# first occurrence) and its time.  Two components with the same key are the
# same up to renaming null labels.
_Key = tuple[tuple[str, tuple, object], ...]


def _components(facts: Iterable[Fact]) -> tuple[list[Fact], list[list[Fact]]]:
    """The facts that hold no null, and the connected components of the
    shared-null graph, each a list of facts in no particular order.  A null
    is its label at its fact's time, so a component lies at one time."""
    ground: list[Fact] = []
    components = _blocks(facts, lambda f: [(v, f.time) for v in f.values if v.__class__ is Null], ground)
    return ground, components


def _numbered(facts: list[Fact]) -> tuple[_Key, list[Null]]:
    """A component's key, and its nulls in order of first occurrence."""
    facts.sort()
    ids: dict[Null, int] = {}
    return tuple([(f.relation, tuple([ids.setdefault(v, len(ids)) if v.__class__ is Null else v
                                      for v in f.values]), f.time)
                  for f in facts]), list(ids)


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
    """The first binding of the join of a component at one time point over
    ``b``, which binds each null's number ``k`` as ``#k``; None if there is
    none.  The join is compiled once per shape into ``compiled``, on the
    indexes of ``indexes``."""
    shape = tuple([(relation, tuple([v if v.__class__ is int else -1 for v in values]))
                   for relation, values, _ in key])
    entry = compiled.get(shape)
    if entry is None:
        entry = compiled[shape] = _compile_shape(shape, b, indexes, ordered)
    steps, params = entry
    start = dict(zip(params, [v for _, values, _ in key for v in values if v.__class__ is not int]))
    start["@"] = key[0][2]
    return next(_walk(steps, start), None)


def find_abstract_hom(a: Instance, b: Instance) -> Optional[AbstractHom]:
    """Search for an abstract homomorphism from ``a`` into ``b``.

    Facts interact only through shared nulls, so the search runs per connected
    component of the shared-null graph; a fact without nulls must itself occur
    in ``b``.  A component lies at one time point, so it is a conjunctive
    query over ``b``: each fact is a pattern with its constants and time
    fixed and each null as a variable.  It runs on the same join as
    ``_formula_homs``, with one index cache for the whole search,
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

    Raises SchemaError if ``a`` or then ``b`` is ill formed or not abstract
    (``model._check_kind``), or if they do not share a schema, all before
    any search, so what it raises does not depend on the facts' order.
    """
    _check_kind(a, ABSTRACT, "find_abstract_hom")
    _check_kind(b, ABSTRACT, "find_abstract_hom")
    _check_pair(a, b)
    return _hom(a.facts, b, ordered=True)


def _hom(facts: Iterable[Fact], b: Instance, ordered: bool) -> Optional[AbstractHom]:
    """An abstract homomorphism from the abstract instance of ``facts`` into
    ``b``, or None; each distinct component key is searched once, with
    candidates in canonical order if ``ordered``."""
    ground, components = _components(facts)
    if not b.facts.issuperset(ground):  # constants are fixed, so a ground fact's image is itself
        return None
    indexes: dict = {}
    compiled: dict[tuple, _Compiled] = {}
    found: dict[_Key, Optional[Binding]] = {}
    hom: AbstractHom = {}
    for component in components:
        key, nulls = _numbered(component)
        if key not in found:
            found[key] = _component_binding(key, b, indexes, compiled, ordered)
        binding = found[key]
        if binding is None:
            return None
        t = component[0].time
        for k, null in enumerate(nulls):
            hom[null, t] = binding[f"#{k}"]
    return hom


def _view(inst: Instance, horizon: int) -> set[Fact]:
    """The abstract view of ``inst`` as concrete facts, coalesced as
    ``model._coalesce`` coalesces them: a concrete fact clipped at
    ``horizon`` (one that starts there has no point below it); an abstract
    instance's points grouped by relation and values, as ``dumps_instance``
    groups them, each group's run of consecutive points one fact over
    ``[first, last + 1)``."""
    if inst.kind == CONCRETE:
        spans = {t: t if t.end <= horizon else _new(ClopenInterval, (t.start, horizon))
                 for t in {f.time for f in inst.facts} if t.start < horizon}
        facts = [_new(Fact, (f.relation, f.values, spans[f.time])) for f in inst.facts if f.time in spans]
        return set(_coalesced_facts(facts) or facts)
    groups: dict[tuple[str, tuple[Value, ...]], list[int]] = {}
    for relation, values, t in inst.facts:
        group = groups.get((relation, values))
        if group is None:
            groups[relation, values] = [t]
        else:
            group.append(t)
    view = set()
    for key, points in groups.items():
        points.sort()
        first = last = points[0]
        if points[-1] - first >= len(points):  # distinct points that span more than their count leave a gap
            for t in points:
                if t > last + 1:
                    view.add(_new(Fact, (*key, _new(ClopenInterval, (first, last + 1)))))
                    first = t
                last = t
        else:
            last = points[-1]
        view.add(_new(Fact, (*key, _new(ClopenInterval, (first, last + 1)))))
    return view


def _untwinned(views: list[set[Fact]]) -> list[list[Fact]]:
    """Per view of two, the ground facts the other lacks, and the facts of
    each component, linked by null labels, whose key (``_numbered``, each
    fact with its interval) the other does not hold."""
    sides = []
    for view in views:
        ground: list[Fact] = []
        components = _blocks(view, lambda f: [v for v in f.values if v.__class__ is Null], ground)
        sides.append((set(ground), {_numbered(facts)[0]: facts for facts in components}))
    return [[*(ground - twin_ground), *[f for key, facts in keyed.items() if key not in twins for f in facts]]
            for (ground, keyed), (twin_ground, twins) in (sides, sides[::-1])]


def equivalent(a: Instance, b: Instance, horizon: int | None = None) -> bool:
    """Whether the abstract views of ``a`` and ``b`` are homomorphically
    equivalent: whether ``find_abstract_hom`` finds a hom both ways after
    ``sem_instance`` of each concrete input up to ``horizon`` (by default one
    above every finite endpoint of the concrete inputs), decided without
    building every time point and without building a hom.

    Both inputs are coalesced (``_view``): a concrete one clipped at the
    horizon, an abstract one whole, facts at or beyond the horizon too.
    Each direction is then decided by the first of three steps that settles
    it.  Identity: a direction whose view is a subset of the other's holds
    by the identity map, and is neither keyed nor searched; with equal
    views the answer is True at once.  Twins: in a direction left open, a
    component (``_untwinned``) or ground fact whose key the other side also
    holds maps onto that twin at every point by renaming labels.  Search:
    only the rest is cut, at the first point of each cell of the joint
    endpoint grid that it covers, and the other side at the same points:
    within one cell the abstract views at any two points are the same but
    for the time, and an abstract homomorphism fixes time points.  Each cut
    rest is then mapped into the other side's cut (``_hom``).

    Checks, in order: each input is well formed; the horizon is a finite
    time point, whatever the kinds of the inputs, and at or above the
    endpoints of each concrete one, as ``sem_instance`` checks them; the
    inputs share a schema.  Then PreconditionError is raised if the cuts of
    the directions left open would hold more than ``MAX_SEM_FACTS`` facts,
    counted on the grid before any is built.
    """
    _check_instance(a)
    _check_instance(b)
    concrete = [inst for inst in (a, b) if inst.kind == CONCRETE]
    if horizon is None:
        horizon = _default_horizon(concrete)
    _check_horizon(horizon)
    for inst in concrete:
        _check_horizon(horizon, *sorted({f.time for f in inst.facts}))
    _check_pair(a, b)
    views = [_view(inst, horizon) for inst in (a, b)]
    searched = [not views[0] <= views[1], not views[1] <= views[0]]  # else the identity map is a hom
    if not any(searched):
        return True
    grid = build_grid({f.time for view in views for f in view})
    plans, count = [], 0
    for search, rest, target in zip(searched, _untwinned(views), views[::-1]):
        if search and rest:
            firsts = [p for span in _merged({f.time for f in rest})
                      for p in grid[bisect_left(grid, span.start):bisect_left(grid, span.end)]]
            cuts, n = _grid_cuts(Counter([f.time for facts in (rest, target) for f in facts]), firsts)
            count += n
            plans.append((rest, target, firsts, cuts))
    if count > MAX_SEM_FACTS:
        raise PreconditionError(f"the equivalence check up to horizon {horizon} builds {count} facts, "
                                f"more than the limit of {MAX_SEM_FACTS}")
    for rest, target, firsts, cuts in plans:
        points = {iv: firsts[lo:hi] for iv, (lo, hi) in cuts.items()}
        rest, target = _cut(rest, points), _cut(target, points)
        if _hom(rest, Instance(ABSTRACT, a.schema, target), ordered=False) is None:
            return False
    return True
