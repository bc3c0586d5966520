"""Independent oracles the main code paths are checked against.

These deliberately avoid the package's search and expansion routines: interval
semantics is recomputed by explicit point enumeration, homomorphism
existence by exhaustive enumeration of null assignments and by a
backtracking scan over every fact at the same relation and time point,
formula homomorphisms by a recursive nested loop over whole relations, the
key round's equalities from every pair of every key group, and the
canonical instance text by the json module's own encoder.  The abstract
homomorphism search that compiles each component shape once is checked
against the search that plans a join for every component, and the
equivalence check that cuts concrete inputs at one point per grid cell
against the expansion of every time point up to the horizon.  Canonical order
is stated here by explicit sort keys, ``value_sort_key`` and
``fact_sort_key``, against which the package's native order is checked.
"""
from __future__ import annotations

import itertools
import json
from typing import Optional, Sequence

from tdx import (
    CONCRETE,
    ClopenInterval,
    Fact,
    Instance,
    Null,
    find_abstract_hom,
    max_finite_endpoint,
    sem_instance,
)
from tdx.chase import tkc_positions, tkc_step
from tdx.homomorphism import _check_hom_inputs, _join_plan, _Var, _walk


def value_sort_key(v: object) -> tuple:
    """Canonical order over time points, intervals, constants, and nulls, in
    that order.  Within one kind the order is the natural one (intervals by
    start, then end, finite ends first); nulls order by label, then context."""
    if isinstance(v, bool):
        raise TypeError(f"not a value: {v!r}")
    if isinstance(v, int):
        return (0, v)
    if isinstance(v, ClopenInterval):
        return (1, v.start, v.end)
    if isinstance(v, str):
        return (2, v)
    if isinstance(v, Null) and isinstance(v.label, str):
        return (3, v.label, value_sort_key(v.context))
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


def pairwise_round_equalities(inst: Instance, tkcs) -> list:
    """The key round's equalities from all k(k-1)/2 pairs of each key group,
    groups and pairs in canonical fact order, each pair through the checked
    ``tkc_step``."""
    equalities = []
    for tkc in tkcs:
        schema = inst.schema_by_name[tkc.relation]
        key_pos, _ = tkc_positions(tkc, schema)
        groups: dict[tuple, list[Fact]] = {}
        for f in in_order(inst, tkc.relation):
            groups.setdefault((f.time, tuple(f.values[i] for i in key_pos)), []).append(f)
        for group in groups.values():
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    equalities.extend(tkc_step(group[i], group[j], tkc, schema))
    return equalities


def interval_point_set(interval: ClopenInterval, horizon: int) -> set[int]:
    points = set()
    t = interval.start
    while t < horizon and (not isinstance(interval.end, int) or t < interval.end):
        points.add(t)
        t += 1
    return points


def expand_fact_by_points(f: Fact, horizon: int) -> set[Fact]:
    """Point-by-point expansion of a concrete fact, written independently."""
    out = set()
    for t in interval_point_set(f.time, horizon):
        values = tuple(
            Null(v.label, t) if not isinstance(v, str) else v
            for v in f.values)
        out.add(Fact(f.relation, values, t))
    return out


def expand_instance_by_points(inst: Instance, horizon: int) -> set[Fact]:
    out: set[Fact] = set()
    for f in inst.facts:
        out |= expand_fact_by_points(f, horizon)
    return out


def brute_force_hom_exists(a: Instance, b: Instance) -> bool:
    """Exhaustive enumeration over context-respecting null assignments.

    Per-null candidates are narrowed to the values appearing in ``b`` at the
    positions where the null occurs in ``a`` (with matching relation and
    time); any assignment outside those sets maps some fact of ``a`` onto a
    tuple absent from ``b``, so the narrowing cannot lose a homomorphism.
    """
    nulls = sorted({v for f in a.facts for v in f.values if isinstance(v, Null)},
                   key=value_sort_key)
    candidates = []
    for n in nulls:
        pool = None
        for f in a.facts:
            for pos, v in enumerate(f.values):
                if v != n:
                    continue
                here = {
                    g.values[pos]
                    for g in b.facts
                    if g.relation == f.relation and g.time == f.time
                }
                pool = here if pool is None else pool & here
        assert pool is not None
        pool = {
            v for v in pool
            if isinstance(v, str) or (isinstance(v, Null) and v.context == n.context)
        }
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
                tuple(assignment.get(v, v) if isinstance(v, Null) else v for v in f.values),
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


def _try_image(f: Fact, g: Fact, assignment: dict) -> Optional[list[Null]]:
    """Try mapping fact ``f`` onto ``g``; mutates ``assignment`` on success."""
    if len(f.values) != len(g.values):
        return None
    newly: list[Null] = []
    for v, w in zip(f.values, g.values):
        if isinstance(v, str):
            if v == w:
                continue
        else:
            bound = assignment.get(v)
            if bound is None:
                if isinstance(w, str) or (isinstance(w, Null) and w.context == v.context):
                    assignment[v] = w
                    newly.append(v)
                    continue
            elif bound == w:
                continue
        for n in newly:
            del assignment[n]
        return None
    return newly


def _search_component(facts: Sequence[Fact], index: dict, assignment: dict) -> bool:
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


def scan_abstract_hom(a: Instance, b: Instance) -> Optional[dict]:
    """Abstract homomorphism from ``a`` into ``b`` by backtracking per
    shared-null component, facts and their candidate images (every fact of
    ``b`` with the same relation and time point) in canonical order, so the
    result is the canonically first assignment.  None when there is none."""
    b_facts = b.facts
    index: dict[tuple[str, object], list[Fact]] = {}
    for g in in_order(b):
        index.setdefault((g.relation, g.time), []).append(g)

    parent: dict[Null, Null] = {}

    def find(n: Null) -> Null:
        while parent[n] != n:
            parent[n] = parent[parent[n]]
            n = parent[n]
        return n

    components: dict[Null, list[Fact]] = {}
    assignment: dict = {}
    for f in in_order(a):
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


def per_component_abstract_hom(a: Instance, b: Instance) -> Optional[dict]:
    """``find_abstract_hom`` with a join planned for each component: its
    constants and time fixed in the patterns and each null's label its
    variable, on the same planner, index cache and walker."""
    _check_hom_inputs(a, b)
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
                    hom[n] = binding[n.label]
    return hom
