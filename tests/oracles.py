"""Independent oracles the main code paths are checked against.

The paper's two chase steps are stated here, and the rounds of the engine
are checked against them: ``st_step`` fires one rule at one checked binding
by instantiating each head atom (``instantiate_atom``) of a copied binding
with nulls labeled by the json module's text of their Skolem terms, and
``tkc_step`` equates the dependent values of one checked pair of facts that
agree on a temporal key.  The figure tests read the join's bindings sorted
(``enumerate_formula_homs``), and a hom witness is checked by its image
(``apply_abstract_hom``).

The other oracles deliberately avoid the package's search and expansion
routines: interval semantics is recomputed by explicit point enumeration,
homomorphism existence by exhaustive enumeration of null assignments and by
a backtracking scan over every fact at the same relation and time point,
formula homomorphisms by a recursive nested loop over whole relations, the
dependency round by ``st_step`` at each binding, the key round's equalities
from ``tkc_step`` of every pair of every key group, and their closure by a
breadth-first search per time after each equality (``naive_closure``), the
concrete chase with every cut global (``globally_normalized_chase``) and its result
coalesced by a sort and one sweep (``coalesced``), the coalesced view of an
abstract instance from one fact per point (``pointwise_view``), the instance
loader by reading each row through the general rules, and the canonical
instance text by the json module's own encoder.  The abstract
homomorphism search that compiles each component shape once is checked
against the search that plans a join for every component, and the
equivalence check that cuts concrete inputs at one point per grid cell
against the expansion of every time point up to the horizon, and the
concrete key round that cuts only the key blocks in conflict against the
round that cuts every key block (``every_block_key_round``).  Canonical order
is stated here by explicit sort keys, ``value_sort_key`` and
``fact_sort_key``, against which the package's native order is checked.
"""
from __future__ import annotations

import itertools
import json
from operator import itemgetter
from typing import Optional, Sequence

from tdx import (
    ABSTRACT,
    CONCRETE,
    ClopenInterval,
    Fact,
    Instance,
    KeyNullViolation,
    Null,
    RelationSchema,
    SchemaError,
    Success,
    Var,
    find_abstract_hom,
    max_finite_endpoint,
    normalize_instance,
    sem_instance,
)
from tdx.chase import _close_and_replace, _round_equalities, _st_round
from tdx.homomorphism import _check_pair, _formula_homs, _join_plan, _Var, _walk
from tdx.model import _aligned, _blocks, _check_instance, _coalesce, _require, _time_from_json, _value_from_json


def value_sort_key(v: object) -> tuple:
    """Canonical order over time points, intervals, constants, and nulls, in
    that order.  Within one kind the order is the natural one (intervals by
    start, then end, finite ends first); nulls order by label."""
    if isinstance(v, bool):
        raise TypeError(f"not a value: {v!r}")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, ClopenInterval):
        return (1, v.start, v.end)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, Null) and isinstance(v.label, str):
        return (3, v.label)
    raise TypeError(f"not a value: {v!r}")


def fact_sort_key(f: Fact) -> tuple:
    """Canonical fact order: relation, then values, then time."""
    return (f.relation, tuple([value_sort_key(v) for v in f.values]), value_sort_key(f.time))


def in_order(inst: Instance, relation: str | None = None) -> list[Fact]:
    """The instance's facts, or one relation's, in canonical order."""
    facts = inst.facts if relation is None else inst.facts_by_relation.get(relation, ())
    return sorted(facts, key=fact_sort_key)


def instance_doc(inst: Instance) -> dict:
    """The JSON document of a well-formed instance, each relation's facts in
    ``fact_sort_key`` order: what ``instance_to_json`` must return."""
    relations = {}
    for r in inst.schema:
        facts = []
        for f in in_order(inst, r.name):
            t = f.time
            time = ({"time": t} if isinstance(t, int) else
                    {"interval": {"start": t.start, "end": "inf" if t.end == float("inf") else t.end}})
            facts.append({"values": [v if isinstance(v, str) else {"null": v.label} for v in f.values], **time})
        relations[r.name] = {"attributes": [*r.attributes, r.temporal], "facts": facts}
    return {"kind": inst.kind, "relations": relations}


def json_dumps_instance(inst: Instance, horizon: int | None = None) -> str:
    """The canonical text of ``inst`` (plus a ``"horizon"`` member, if given)
    as the json module writes ``instance_doc``: what ``dumps_instance`` must
    return."""
    doc = instance_doc(inst)
    if horizon is not None:
        doc["horizon"] = horizon
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def skolem_label(index: int, var: str, body: dict) -> str:
    """The label of the null that rule number ``index`` invents for ``var``
    at a binding whose non-temporal body values are ``body``: the compact
    JSON text of the Skolem term, the values in variable name order."""
    term = [index, var, [body[name] for name in sorted(body)]]
    return json.dumps(term, ensure_ascii=False, separators=(",", ":"))


def instantiate_atom(atom, binding: dict) -> Fact:
    """Apply a total binding to one atom, producing a fact."""
    values = tuple(binding[t.name] if isinstance(t, Var) else t for t in atom.args)
    return Fact(atom.relation, values, binding[atom.time_var])


def st_step(inst: Instance, rule, binding: dict, index: int) -> frozenset[Fact]:
    """One chase step of rule number ``index`` of a mapping at a binding of
    its left-hand side into ``inst``: a copy of ``binding`` extended with one
    fresh null per existential variable, labeled by ``skolem_label``, held
    at the bound interval or time point and reused at every occurrence, and
    every head atom instantiated through ``instantiate_atom``.  ValueError
    if the binding covers an existential variable, misses a left-hand-side
    variable, or is not a formula homomorphism into ``inst``."""
    overlap = set(binding) & rule.existentials
    if overlap:
        raise ValueError(f"binding must not cover existential variables {sorted(overlap)}")
    body = {t.name for atom in rule.lhs for t in atom.args if isinstance(t, Var)}
    missing = {rule.time_var, *body}.difference(binding)
    if missing:
        raise ValueError(f"binding must cover the left-hand-side variables {sorted(missing)}")
    for atom in rule.lhs:
        if instantiate_atom(atom, binding) not in inst.facts:
            raise ValueError(f"binding is not a formula homomorphism for atom {atom.relation!r}")
    extended = dict(binding)
    for var in rule.existentials:
        extended[var] = Null(skolem_label(index, var, {name: binding[name] for name in body}))
    return frozenset(instantiate_atom(atom, extended) for atom in rule.rhs)


def instantiated_st_round(inst: Instance, rules, target) -> Instance:
    """The dependency round: ``st_step`` of each rule at each binding of
    ``enumerate_formula_homs``."""
    facts: set[Fact] = set()
    for index, rule in enumerate(rules):
        for binding in enumerate_formula_homs(rule.lhs, inst):
            facts |= st_step(inst, rule, binding, index)
    return Instance(inst.kind, tuple(target), frozenset(facts))


def tkc_step(u1: Fact, u2: Fact, tkc, schema: RelationSchema) -> frozenset[tuple]:
    """One key step: the equalities between the dependent values of two
    conflicting facts, each pair ordered.  ValueError unless they are
    distinct facts of the key's relation that agree on the time and the
    key; KeyNullViolation if a key position holds a null."""
    if u1.relation != tkc.relation or u2.relation != tkc.relation:
        raise ValueError(f"facts must belong to relation {tkc.relation!r}")
    key_pos = [i for i, a in enumerate(schema.attributes) if a in tkc.key]
    for f in (u1, u2):
        for i in key_pos:
            if isinstance(f.values[i], Null):
                raise KeyNullViolation(f"{f}: null {f.values[i]}^{f.time} in key position {schema.attributes[i]!r}")
    if u1.time != u2.time or any(u1.values[i] != u2.values[i] for i in key_pos):
        raise ValueError(f"facts {u1} and {u2} do not agree on the temporal key")
    if u1 == u2:
        raise ValueError(f"facts are identical, not conflicting: {u1}")
    pairs = [(u1.values[i], u2.values[i]) for i, a in enumerate(schema.attributes) if a not in tkc.key]
    return frozenset((x, y) if x <= y else (y, x) for x, y in pairs if x != y)


def enumerate_formula_homs(atoms, inst: Instance, initial: dict | None = None) -> list[dict]:
    """The engine's join (``homomorphism._formula_homs``) over a checked
    instance, its bindings sorted by the bound values, variables in name
    order, so that a figure test reads them in one order."""
    _check_instance(inst)
    results = list(_formula_homs(atoms, inst, initial))
    if len(results) > 1:  # every binding of one call binds the same names
        results.sort(key=itemgetter(*sorted(results[0])))
    return results


def apply_abstract_hom(hom: dict, inst: Instance) -> Instance:
    """Image of an abstract instance under a null assignment keyed by
    ``(null, time point)``: a hom witness from ``a`` into ``b`` holds iff
    the image of ``a`` is a subset of ``b``."""
    facts = {Fact(f.relation, tuple(hom.get((v, f.time), v) if isinstance(v, Null) else v for v in f.values), f.time)
             for f in inst.facts}
    return Instance(inst.kind, inst.schema, frozenset(facts))


def is_normalized(inst: Instance) -> bool:
    """Whether any two fact intervals of a concrete instance, across all
    relations, are equal or disjoint, checked pair by pair."""
    times = list({f.time for f in inst.facts})
    return all(a.end <= b.start or b.end <= a.start for a, b in itertools.combinations(times, 2))


def coalesced(inst: Instance) -> Instance:
    """The concrete instance with facts of equal relation and values merged
    where their intervals overlap or meet: per such fact, its intervals
    sorted by start and swept once."""
    groups: dict[tuple, list[ClopenInterval]] = {}
    for f in inst.facts:
        groups.setdefault((f.relation, f.values), []).append(f.time)
    facts = set()
    for (relation, values), times in groups.items():
        runs: list[list] = []
        for start, end in sorted(times):
            if runs and start <= runs[-1][1]:
                runs[-1][1] = max(runs[-1][1], end)
            else:
                runs.append([start, end])
        for start, end in runs:
            facts.add(Fact(relation, values, ClopenInterval(start, end)))
    return Instance(inst.kind, inst.schema, frozenset(facts))


def pointwise_view(inst: Instance) -> set[Fact]:
    """The abstract view of an abstract instance as coalesced concrete facts,
    built point by point: each fact at ``t`` read as on ``[t, t+1)``, and the
    facts of one relation and values then merged where they meet
    (``coalesced``)."""
    per_point = [Fact(f.relation, f.values, ClopenInterval(f.time, f.time + 1)) for f in inst.facts]
    return set(coalesced(Instance(CONCRETE, inst.schema, frozenset(per_point))).facts)


def globally_normalized_chase(src: Instance, m):
    """The concrete chase as it was before cuts were scoped: the source cut
    over the endpoint grid of the whole instance (``normalize_instance``),
    the dependency round over that, and the key round over its result,
    uncoalesced."""
    staged = _st_round(normalize_instance(src), m.sttgds, m.target)
    return _close_and_replace(staged, _round_equalities(staged, m.tkcs))


def every_block_key_round(inst: Instance, tkcs):
    """The concrete key round as it was before it cut only the key blocks
    that hold a conflict: the input coalesced, every key block cut (two
    facts are in one block if they agree on the values of some key, or hold
    a null of one label), the equalities and replacements over the whole
    cut instance, and a success coalesced.  The cut of every block is
    counted, and refused, as the round's own."""
    coalesced = _coalesce(inst)
    keys: dict[str, list] = {}
    for i, tkc in enumerate(tkcs):
        attributes = inst.schema_by_name[tkc.relation].attributes
        keys.setdefault(tkc.relation, []).append((i, [j for j, a in enumerate(attributes) if a in tkc.key]))

    def tokens(f: Fact) -> list:
        return [v for v in f.values if isinstance(v, Null)] + \
            [(i, *(f.values[j] for j in where)) for i, where in keys.get(f.relation, ())]

    merged = len(inst.facts) - len(coalesced.facts)
    cut = next(_aligned(coalesced, [_blocks(coalesced.facts, tokens)], "the key round", merged))
    outcome = _close_and_replace(cut, _round_equalities(cut, tkcs))
    return Success(_coalesce(outcome.instance)) if isinstance(outcome, Success) else outcome

def rowwise_instance_from_json(doc: object) -> Instance:
    """The instance of a JSON document, each row read through
    ``_time_from_json`` and ``_value_from_json``: what ``instance_from_json``
    must return, or the ``SchemaError`` it must raise."""
    _require(isinstance(doc, dict), "instance", "top level must be a JSON object")
    kind = doc.get("kind")
    _require(kind in (CONCRETE, ABSTRACT), "instance", "\"kind\" must be \"concrete\" or \"abstract\"")
    relations = doc.get("relations")
    _require(isinstance(relations, dict), "instance", "\"relations\" must be an object")
    schemas: list[RelationSchema] = []
    facts: set[Fact] = set()
    nulls: dict = {}
    for name in relations:
        where = f"relation {name!r}"
        _require(isinstance(name, str), where, "name must be a string")
        rel = relations[name]
        name = str(name)
        _require(isinstance(rel, dict), where, "must be an object")
        attrs = rel.get("attributes")
        _require(isinstance(attrs, list) and attrs and all(isinstance(a, str) for a in attrs),
                 where, "\"attributes\" must be a non-empty list of names")
        attrs = [str(a) for a in attrs]
        _require(len(set(attrs)) == len(attrs), where, "duplicate attribute name")
        schema = RelationSchema(name, tuple(attrs[:-1]), attrs[-1])
        schemas.append(schema)
        rows = rel.get("facts", [])
        _require(isinstance(rows, list), where, "\"facts\" must be a list")
        for i, row in enumerate(rows):
            try:
                if not isinstance(row, dict):
                    raise ValueError("must be an object")
                time = _time_from_json(row, kind)
                values = row.get("values")
                if not isinstance(values, list):
                    raise ValueError("\"values\" must be a list")
                if len(values) != schema.arity:
                    raise ValueError(f"expected {schema.arity} values, got {len(values)}")
                facts.add(Fact(name, tuple(_value_from_json(v, nulls) for v in values), time))
            except ValueError as exc:
                raise SchemaError(f"{where} fact #{i}: {exc}") from None
    return Instance(kind, tuple(schemas), frozenset(facts))


def pairwise_round_equalities(inst: Instance, tkcs) -> list:
    """The key round's equalities from all k(k-1)/2 pairs of each key group,
    groups and pairs in canonical fact order, each pair through the checked
    ``tkc_step``, with the group's time."""
    equalities = []
    for tkc in tkcs:
        schema = inst.schema_by_name[tkc.relation]
        key_pos = [i for i, a in enumerate(schema.attributes) if a in tkc.key]
        groups: dict[tuple, list[Fact]] = {}
        for f in in_order(inst, tkc.relation):
            groups.setdefault((f.time, tuple(f.values[i] for i in key_pos)), []).append(f)
        for group in groups.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    equalities.extend((x, y, group[i].time) for x, y in tkc_step(group[i], group[j], tkc, schema))
    return equalities


def _equality_key(equality: tuple) -> tuple:
    """Canonical order of an ordered equality at its time: each value by
    ``value_sort_key``, a null read as its label at the time."""
    x, y, t = equality
    def read(v):
        return (value_sort_key(v), value_sort_key(t)) if isinstance(v, Null) else (value_sort_key(v),)
    return read(x), read(y), value_sort_key(t)


def _distances(adjacent: dict, start) -> dict:
    """Every value linked to ``start``, with its distance from it, found breadth first."""
    seen = {start: 0}
    queue = [start]
    for u in queue:
        for w in adjacent[u]:
            if w not in seen:
                seen[w] = seen[u] + 1
                queue.append(w)
    return seen


def naive_closure(inst: Instance, equalities):
    """The key round's closure, stated naively: per time, the components of
    the equalities, each found by breadth-first search; a component's
    representative is its least member, and a conflict is a component that
    holds two constants.  The equalities, each pair ordered, are added in
    canonical order (``_equality_key``), and the first conflict is met at
    the shortest prefix that has one.  Returns the instance with each null
    replaced by its representative at its fact's time, or, at the first
    conflict, its two constants in order, its time, and the length of the
    shortest chain of the prefix's equalities that links them."""
    ordered = {(x, y, t) if value_sort_key(x) <= value_sort_key(y) else (y, x, t) for x, y, t in equalities}
    adjacent: dict = {}
    for x, y, t in sorted(ordered, key=_equality_key):
        near = adjacent.setdefault(t, {})
        near.setdefault(x, set()).add(y)
        near.setdefault(y, set()).add(x)
        constants = sorted((v for v in _distances(near, x) if isinstance(v, str)), key=value_sort_key)
        if len(constants) > 1:
            first, last = constants
            return (first, last), t, _distances(near, first)[last]
    reps = {}
    for t, near in adjacent.items():
        for v in near:
            if (v, t) not in reps:
                component = _distances(near, v)
                least = min(component, key=value_sort_key)
                reps.update(((u, t), least) for u in component)
    return inst.replace_facts(Fact(f.relation, tuple(reps.get((v, f.time), v) for v in f.values), f.time)
                              for f in inst.facts)


def interval_point_set(interval: ClopenInterval, horizon: int) -> set[int]:
    points = set()
    t = interval.start
    while t < horizon and (not isinstance(interval.end, int) or t < interval.end):
        points.add(t)
        t += 1
    return points


def expand_fact_by_points(f: Fact, horizon: int) -> set[Fact]:
    """Point-by-point expansion of a concrete fact, written independently."""
    return {Fact(f.relation, f.values, t) for t in interval_point_set(f.time, horizon)}


def expand_instance_by_points(inst: Instance, horizon: int) -> set[Fact]:
    out: set[Fact] = set()
    for f in inst.facts:
        out |= expand_fact_by_points(f, horizon)
    return out


def brute_force_hom_exists(a: Instance, b: Instance) -> bool:
    """Exhaustive enumeration over null assignments, a null being a label at
    a time point, each mapped to a value of ``b`` at that point.

    Per-null candidates are narrowed to the values appearing in ``b`` at the
    positions where the null occurs in ``a`` (with matching relation and
    time); any assignment outside those sets maps some fact of ``a`` onto a
    tuple absent from ``b``, so the narrowing cannot lose a homomorphism.
    """
    nulls = sorted({(v, f.time) for f in a.facts for v in f.values if isinstance(v, Null)},
                   key=lambda n: (n[0].label, n[1]))
    candidates = []
    for n, t in nulls:
        pool = None
        for f in a.facts:
            for pos, v in enumerate(f.values):
                if v != n or f.time != t:
                    continue
                here = {
                    g.values[pos]
                    for g in b.facts
                    if g.relation == f.relation and g.time == f.time
                }
                pool = here if pool is None else pool & here
        assert pool is not None
        if not pool:
            return False
        candidates.append(sorted(pool, key=value_sort_key))

    b_facts = set(b.facts)
    for combo in itertools.product(*candidates):
        assignment = dict(zip(nulls, combo))
        ok = True
        for f in a.facts:
            image = Fact(
                f.relation,
                tuple(assignment.get((v, f.time), v) if isinstance(v, Null) else v for v in f.values),
                f.time)
            if image not in b_facts:
                ok = False
                break
        if ok:
            return True
    return False


def sem_equivalent(a: Instance, b: Instance, horizon: int | None = None) -> bool:
    """``equivalent`` by expanding each concrete input with ``sem_instance``
    at every time point below the horizon (by default one above every finite
    endpoint of the concrete inputs), then searching for an abstract
    homomorphism in each direction with ``find_abstract_hom``."""
    if horizon is None:
        horizon = max((max_finite_endpoint(i) or 0 for i in (a, b) if i.kind == CONCRETE), default=0) + 1
    a, b = [sem_instance(i, horizon) if i.kind == CONCRETE else i for i in (a, b)]
    return find_abstract_hom(a, b) is not None and find_abstract_hom(b, a) is not None


def _match_atom(atom, fact: Fact, binding: dict) -> dict | None:
    ext = dict(binding)
    for term, value in zip(atom.args, fact.values):
        if isinstance(term, str):
            if value != term:
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


def nested_loop_homs(atoms, inst: Instance, initial: dict | None = None) -> list[dict]:
    """Formula homomorphisms by trying every fact for every atom, in body order,
    sorted like ``enumerate_formula_homs`` (bound values, variables in name order)."""
    results: list[dict] = []

    def extend(i: int, binding: dict) -> None:
        if i == len(atoms):
            results.append(binding)
            return
        atom = atoms[i]
        for fact in in_order(inst, atom.relation):
            ext = _match_atom(atom, fact, binding)
            if ext is not None:
                extend(i + 1, ext)

    extend(0, dict(initial or {}))
    results.sort(key=lambda b: tuple(value_sort_key(b[v]) for v in sorted(b)))
    return results


def _try_image(f: Fact, g: Fact, assignment: dict) -> Optional[list[tuple[Null, object]]]:
    """Try mapping fact ``f`` onto ``g``, a fact at the same time point;
    mutates ``assignment``, keyed by ``(null, time point)``, on success."""
    if len(f.values) != len(g.values):
        return None
    newly: list[tuple[Null, object]] = []
    for v, w in zip(f.values, g.values):
        if isinstance(v, str):
            if v == w:
                continue
        else:
            n = (v, f.time)
            bound = assignment.get(n)
            if bound is None:
                assignment[n] = w
                newly.append(n)
                continue
            if bound == w:
                continue
        for n in newly:
            del assignment[n]
        return None
    return newly


def _search_component(facts: Sequence[Fact], index: dict, assignment: dict) -> bool:
    """Backtracking over one group of facts; extends ``assignment`` in place."""
    trail: list[tuple[int, list[tuple[Null, object]]]] = []
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


def scan_abstract_hom(a: Instance, b: Instance) -> Optional[dict]:
    """Abstract homomorphism from ``a`` into ``b`` by backtracking per
    shared-null component, facts and their candidate images (every fact of
    ``b`` with the same relation and time point) in canonical order, so the
    result is the canonically first assignment, keyed by ``(null, time
    point)``.  None when there is none."""
    b_facts = b.facts
    index: dict[tuple[str, object], list[Fact]] = {}
    for g in in_order(b):
        index.setdefault((g.relation, g.time), []).append(g)

    parent: dict[tuple, tuple] = {}

    def find(n: tuple) -> tuple:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    components: dict[tuple, list[Fact]] = {}
    assignment: dict = {}
    for f in in_order(a):
        nulls = [(v, f.time) for v in f.values if isinstance(v, Null)]
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

    merged: dict[tuple, list[Fact]] = {}
    for root, facts in components.items():
        merged.setdefault(find(root), []).extend(facts)
    for facts in merged.values():
        facts.sort(key=fact_sort_key)
        if not _search_component(facts, index, assignment):
            return None
    return dict(assignment)


def per_component_abstract_hom(a: Instance, b: Instance) -> Optional[dict]:
    """``find_abstract_hom`` with a join planned for each component: its
    constants and time fixed in the patterns and each null's label its
    variable, on the same planner, index cache and walker."""
    _check_pair(a, b)
    parent: dict[tuple[str, int], tuple[str, int]] = {}

    def find(k: tuple[str, int]) -> tuple[str, int]:
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    firsts: list[tuple[Fact, tuple[str, int]]] = []
    for f in a.facts:
        keys = [(v.label, f.time) for v in f.values if isinstance(v, Null)]
        if not keys:
            if f not in b.facts:
                return None
            continue
        for k in keys:
            parent.setdefault(k, k)
        first = find(keys[0])
        for k in keys[1:]:
            parent[find(k)] = first
        firsts.append((f, first))

    components: dict[tuple[str, int], list[Fact]] = {}
    for f, k in firsts:
        components.setdefault(find(k), []).append(f)
    indexes: dict = {}
    hom: dict = {}
    for facts in components.values():
        facts.sort(key=fact_sort_key)
        patterns = [(f.relation, (*(_Var(v.label) if isinstance(v, Null) else v for v in f.values), f.time))
                    for f in facts]
        binding = next(_walk(_join_plan(patterns, b, set(), indexes, ordered=True), {}), None)
        if binding is None:
            return None
        for f in facts:
            for n in f.values:
                if isinstance(n, Null):
                    hom[n, f.time] = binding[n.label]
    return hom
