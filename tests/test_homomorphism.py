import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from tdx import (
    Atom,
    ClopenInterval,
    INF,
    Fact,
    Instance,
    KeyNullViolation,
    Null,
    PreconditionError,
    SchemaError,
    Success,
    Ucq,
    Var,
    chase,
    equivalent,
    find_abstract_hom,
    instance_from_json,
    max_finite_endpoint,
    naive_eval,
    sem_instance,
)
import tdx.homomorphism

from generators import CONSTANTS, careers_chase_pair, careers_like, random_case, random_overlapping_case
from helpers import bench_workloads, c, fact, in_order, iv, rel
from oracles import (apply_abstract_hom, brute_force_hom_exists, enumerate_formula_homs, fact_sort_key,
                     instantiate_atom, is_normalized, nested_loop_homs, per_component_abstract_hom,
                     scan_abstract_hom, sem_equivalent, value_sort_key)

JOIN_LHS = [
    Atom("Employee1", (Var("n"), Var("c")), "t"),
    Atom("Employee2", (Var("n"), Var("p"), Var("d")), "t"),
]


def test_join_over_abstract_source(fig2):
    homs = enumerate_formula_homs(JOIN_LHS, fig2)
    assert len(homs) == 3
    assert {"n": c("Ada"), "c": c("IBM"), "p": c("Developer"), "d": c("Computer"), "t": 8} in homs
    assert sorted(b["t"] for b in homs) == [8, 9, 10]


def test_join_over_unnormalized_concrete_source_is_empty(fig1):
    assert enumerate_formula_homs(JOIN_LHS, fig1) == []


def test_join_over_normalized_concrete_source(fig8):
    homs = enumerate_formula_homs(JOIN_LHS, fig8)
    assert len(homs) == 2
    assert {"n": c("Ada"), "c": c("IBM"), "p": c("Developer"), "d": c("Computer"),
            "t": iv(8, 10)} in homs


def test_bindings_replay_into_the_instance(fig8):
    for binding in enumerate_formula_homs(JOIN_LHS, fig8):
        for atom in JOIN_LHS:
            assert instantiate_atom(atom, binding) in fig8.facts


def test_constants_in_atoms_filter(fig2):
    atom = Atom("Employee2", (Var("n"), "DBA", Var("d")), "t")
    homs = enumerate_formula_homs([atom], fig2)
    assert [b["t"] for b in homs] == [10]


def test_initial_binding_restricts_enumeration(fig2):
    homs = enumerate_formula_homs(JOIN_LHS, fig2, initial={"t": 9})
    assert len(homs) == 1 and homs[0]["t"] == 9


def test_an_empty_conjunction_has_one_binding(fig2):
    """The join of no atoms yields its start binding once: the empty one, or ``initial``."""
    assert enumerate_formula_homs([], fig2) == [{}]
    assert enumerate_formula_homs([], fig2, initial={"t": 9}) == [{"t": 9}]


def test_unknown_relation_is_a_schema_error(fig2):
    """A query is fitted to the schema of the instance it reads by
    ``validate_mapping``'s rules, whether it was parsed or built in code."""
    for atom, problem in ((Atom("Nope", (Var("x"),), "t"), "unknown target relation 'Nope'"),
                          (Atom("Employee1", (Var("x"),), "t"), "relation 'Employee1' expects 3 arguments, got 2")):
        with pytest.raises(SchemaError, match=re.escape(f"query 'q': {problem}") + "$"):
            naive_eval(Ucq("q", ("x",), "t", ((atom,),)), fig2)
    # a null is its label at its fact's time, so a join never spans two times
    body = (Atom("Employee1", (Var("x"), Var("y")), "t"), Atom("Employee1", (Var("x"), Var("z")), "s"))
    with pytest.raises(SchemaError, match=r"^query 'q': all atoms must share one temporal variable "
                                          r"\(expected 't', got 's'\)$"):
        naive_eval(Ucq("q", ("x",), "t", (body,)), fig2)


def test_enumeration_order_is_deterministic(fig2):
    first = enumerate_formula_homs(JOIN_LHS, fig2)
    second = enumerate_formula_homs(JOIN_LHS, fig2)
    assert first == second
    rows = [tuple(b[v] for v in sorted(b)) for b in first]
    assert len(set(rows)) == len(rows) > 1 and rows == sorted(rows)
    assert rows == sorted(rows, key=lambda row: tuple(map(value_sort_key, row)))


def test_hom_between_figures_is_the_documented_renaming(fig4, fig5):
    hom = find_abstract_hom(fig4, fig5)
    assert hom == {
        (Null("N"), 11): Null("J"),
        (Null("N"), 12): Null("K"),
        (Null("M"), 8): Null("M"),
        (Null("M"), 9): Null("O"),
        (Null("U"), 10): Null("P"),
        (Null("V"), 11): Null("X"),
        (Null("V"), 12): Null("Y"),
    }
    image = apply_abstract_hom(hom, fig4)
    assert image.facts <= fig5.facts
    assert equivalent(fig4, fig5)


def test_identity_hom(fig4):
    hom = find_abstract_hom(fig4, fig4)
    assert hom is not None
    assert all(null == v for (null, _), v in hom.items())
    assert equivalent(fig4, fig4)


def test_constants_are_fixed_points():
    schema = [rel("R", "a")]
    with_null = Instance.abstract(schema, [fact("R", Null("N"), time=5)])
    with_const = Instance.abstract(schema, [fact("R", "c", time=5)])
    assert find_abstract_hom(with_null, with_const) == {(Null("N"), 5): c("c")}
    assert find_abstract_hom(with_const, with_null) is None
    a = Instance.abstract(schema, [fact("R", "c1", time=5)])
    b = Instance.abstract(schema, [fact("R", "c2", time=5)])
    assert not equivalent(a, b)


def test_context_preservation():
    """Each null is mapped at its own point, to an image that a fact of the
    target holds at that point."""
    schema = [rel("R", "a")]
    a = Instance.abstract(schema, [
        fact("R", Null("N"), time=5),
        fact("R", Null("N"), time=6),
    ])
    b = Instance.abstract(schema, [
        fact("R", Null("Z"), time=5),
        fact("R", Null("W"), time=6),
    ])
    hom = find_abstract_hom(a, b)
    assert hom is not None and sorted(hom) == [(Null("N"), 5), (Null("N"), 6)]
    for (src, t), dst in hom.items():
        assert fact("R", dst, time=t) in b.facts


@pytest.mark.parametrize("images, answers", [((Null("Z"), Null("W")), [True, True, True]),
                                             ((c("c"), c("d")), [False, True, False])], ids=["nulls", "constants"])
def test_one_label_at_two_points_maps_to_two_images(images, answers):
    """A null is its label at its time point: one label at two points is two
    nulls, each mapped at its own point, here to two different images."""
    schema = [rel("R", "a")]
    a = Instance.abstract(schema, [fact("R", Null("N"), time=5), fact("R", Null("N"), time=6)])
    b = Instance.abstract(schema, [fact("R", images[0], time=5), fact("R", images[1], time=6)])
    assert find_abstract_hom(a, b) == {(Null("N"), 5): images[0], (Null("N"), 6): images[1]}
    both = a.replace_facts(a.facts | b.facts)
    pairs = [(a, b), (both, b), (both, a)]
    assert [equivalent(x, y) for x, y in pairs] == [sem_equivalent(x, y) for x, y in pairs] == answers


def test_shared_null_forces_consistent_images():
    schema = [rel("R", "a", "b")]
    a = Instance.abstract(schema, [fact("R", Null("N"), Null("N"), time=1)])
    b_ok = Instance.abstract(schema, [fact("R", "c", "c", time=1)])
    b_bad = Instance.abstract(schema, [fact("R", "c", "d", time=1)])
    assert find_abstract_hom(a, b_ok) == {(Null("N"), 1): c("c")}
    assert find_abstract_hom(a, b_bad) is None


def test_a_null_not_annotated_with_its_fact_time_is_a_schema_error():
    """A null takes its time from its fact; a (label, time) pair, the shape
    of a null annotated with another time, is no value of the source."""
    schema = [rel("R", "a")]
    a = Instance.abstract(schema, [fact("R", ("N", 4), time=5)])
    b = Instance.abstract(schema, [fact("R", "c", time=5)])
    with pytest.raises(SchemaError) as err:
        find_abstract_hom(a, b)
    assert str(err.value) == ("Fact(relation='R', values=(('N', 4),), time=5): values[0] must be a str or a Null, "
                              "got tuple ('N', 4)")


def test_an_image_null_annotated_with_another_time_is_a_schema_error():
    schema = [rel("R", "a", "b")]
    a = Instance.abstract(schema, [fact("R", "c", Null("N"), time=5)])
    b = Instance.abstract(schema, [fact("R", "c", ("M", 4), time=5)])
    with pytest.raises(SchemaError, match=r"values\[1\] must be a str or a Null, got tuple \('M', 4\)$"):
        find_abstract_hom(a, b)


def test_a_fact_of_the_wrong_arity_is_a_schema_error_in_the_join():
    inst = Instance.abstract([rel("R", "a", "b")], [fact("R", "c", time=5)])
    for atom in (Atom("R", (Var("x"), Var("y")), "t"), Atom("R", ("c", Var("y")), "t")):
        with pytest.raises(SchemaError, match=r"R\(c, 5\): relation 'R' expects 2 non-temporal values, got 1"):
            enumerate_formula_homs([atom], inst)


def test_a_fact_of_the_wrong_arity_is_a_schema_error_in_the_hom_search():
    schema = [rel("R", "a", "b")]
    short = Instance.abstract(schema, [fact("R", "c", time=5)])
    full = Instance.abstract(schema, [fact("R", "c", "d", time=5)])
    with pytest.raises(SchemaError, match=r"R\(c, 5\): relation 'R' expects 2 non-temporal values, got 1"):
        find_abstract_hom(Instance.abstract(schema, [fact("R", Null("N"), "d", time=5)]), short)
    for values, count in (((Null("N"),), 1), ((Null("N"), "d", "e"), 3)):
        with pytest.raises(SchemaError, match=f"expects 2 non-temporal values, got {count}"):
            find_abstract_hom(Instance.abstract(schema, [fact("R", *values, time=5)]), full)


def test_kind_and_schema_preconditions(fig1, fig2, fig4):
    for a, b in ((fig1, fig2), (fig2, fig1)):
        with pytest.raises(SchemaError, match="^find_abstract_hom expects an abstract instance, got concrete$"):
            find_abstract_hom(a, b)
    with pytest.raises(SchemaError):
        find_abstract_hom(fig2, fig4)


def test_backtracking_beyond_greedy_choices():
    # the canonically first image for the two-null fact must be revised once
    # the second fact constrains the shared null
    schema = [rel("R", "a", "b"), rel("S", "a")]
    a = Instance.abstract(schema, [
        fact("R", Null("N"), Null("M"), time=1),
        fact("S", Null("N"), time=1),
    ])
    b = Instance.abstract(schema, [
        fact("R", "c1", "c2", time=1),
        fact("R", "c3", "c4", time=1),
        fact("S", "c3", time=1),
    ])
    assert find_abstract_hom(a, b) == {(Null("N"), 1): c("c3"), (Null("M"), 1): c("c4")}


def test_agrees_with_brute_force_on_figures(fig2, fig4, fig5):
    pairs = [(fig4, fig5), (fig5, fig4), (fig2, fig4), (fig4, fig2), (fig4, fig4)]
    for a, b in pairs:
        if a.schema != b.schema:
            continue
        assert (find_abstract_hom(a, b) is not None) == brute_force_hom_exists(a, b)


def test_agrees_with_brute_force_on_random_instances(example1, fig1):
    rng = random.Random(7)
    from tdx import st_round_abstract
    for _ in range(25):
        case = random_case(rng, with_queries=False)
        src = sem_instance(case.source, case.horizon)
        out = st_round_abstract(src, case.mapping.sttgds, case.mapping.target)
        if len(out.facts) > 12:
            continue
        renamed = apply_abstract_hom(
            {(v, f.time): Null(v.label + "_r")
             for f in out.facts for v in f.values if isinstance(v, Null)}, out)
        for a, b in [(out, renamed), (renamed, out)]:
            assert (find_abstract_hom(a, b) is not None) == brute_force_hom_exists(a, b)


def _random_body(rng, inst):
    atoms = []
    for _ in range(rng.randint(1, 4)):
        schema = rng.choice(inst.schema)
        args = tuple(rng.choice(CONSTANTS) if rng.random() < 0.15 else Var(rng.choice("xyz"))
                     for _ in schema.attributes)
        atoms.append(Atom(schema.name, args, "t"))
    return atoms


def _random_initial(rng, atoms, inst):
    """Usually nothing; else the time and one variable of a random fact, which
    may not be the fact those variables can match."""
    if rng.random() < 0.5 or not inst.facts:
        return None
    f = rng.choice(in_order(inst))
    initial = {"t": f.time} if rng.random() < 0.5 else {}
    names = sorted({t.name for a in atoms for t in a.args if isinstance(t, Var)})
    if names and f.values:
        initial[rng.choice(names)] = rng.choice(f.values)
    return initial


def _unnormalized(inst):
    """A concrete instance plus, for each fact with a finite end, a copy one
    point longer; the copy keeps its nulls, so each such label lies on
    overlapping intervals and its nulls meet under ``sem``."""
    longer = set()
    for f in inst.facts:
        if isinstance(f.time.end, int):
            longer.add(Fact(f.relation, f.values, ClopenInterval(f.time.start, f.time.end + 1)))
    return inst.replace_facts(inst.facts | longer)


def test_indexed_join_agrees_with_the_nested_loop():
    rng = random.Random(2016)
    seen = {"normalized": 0, "unnormalized": 0, "abstract": 0}
    nonempty = 0
    for _ in range(300):
        case = random_case(rng, with_queries=False)
        abstract_src = sem_instance(case.source, case.horizon)
        instances = [("normalized", case.source), ("unnormalized", _unnormalized(case.source)),
                     ("abstract", abstract_src)]
        for name, src in (("normalized", case.source), ("abstract", abstract_src)):
            try:
                out = chase(src, case.mapping)
            except KeyNullViolation:
                continue
            if isinstance(out, Success):
                instances.append((name, out.instance))
        for name, inst in instances:
            if name != "unnormalized" or not is_normalized(inst):
                seen[name] += 1
            for _ in range(3):
                atoms = _random_body(rng, inst)
                initial = _random_initial(rng, atoms, inst)
                expected = nested_loop_homs(atoms, inst, initial)
                assert enumerate_formula_homs(atoms, inst, initial) == expected, (atoms, initial)
                nonempty += bool(expected)
    assert min(seen.values()) >= 250
    assert nonempty >= 1000


def _count_matches(run, monkeypatch):
    calls = 0
    match = tdx.homomorphism._match_atom

    def counting(*args):
        nonlocal calls
        calls += 1
        return match(*args)

    with monkeypatch.context() as patched:
        patched.setattr(tdx.homomorphism, "_match_atom", counting)
        run()
    return calls


def _match_calls(inst, query, monkeypatch):
    return _count_matches(lambda: naive_eval(query, inst), monkeypatch)


def test_two_atom_query_work_grows_linearly(example1, monkeypatch):
    query = example1.query("paid_positions")
    counts = []
    for n in (6, 24):
        out = chase(careers_like(n, example1), example1)
        assert isinstance(out, Success)
        counts.append(_match_calls(out.instance, query, monkeypatch))
    assert counts[1] <= 5 * counts[0], counts


def _perturbed(rng, inst):
    """``inst`` with one null, a label at a point, grounded to a fresh
    constant, or one fact dropped."""
    facts = in_order(inst)
    nulls = sorted({(v, f.time) for f in facts for v in f.values if isinstance(v, Null)})
    if rng.random() < 0.5:
        return apply_abstract_hom({rng.choice(nulls): c("fresh")}, inst)
    return inst.replace_facts(set(facts) - {rng.choice(facts)})


def _with_decoys(rng, inst):
    """``inst`` plus a copy with each null grounded to its own fresh constant
    and about half the facts dropped.  Constants sort before nulls, so the
    search tries the copy's facts first and must back out of those whose
    partners were dropped."""
    grounded = apply_abstract_hom({(v, f.time): c(f"fresh-{v}^{f.time}") for f in inst.facts for v in f.values
                                   if isinstance(v, Null)}, inst)
    return inst.replace_facts(inst.facts | {f for f in in_order(grounded) if rng.random() < 0.5})


def test_hom_search_agrees_with_the_scan(example1):
    """Whether a hom exists agrees with the scan; the hom found is the one the
    search that builds its patterns and steps per component finds."""
    rng = random.Random(6)
    found = missing = 0
    for n in (12, 24, 36):
        jc, ja = careers_chase_pair(n, example1)
        pairs = [(jc, ja), (jc, _with_decoys(rng, ja)), (_with_decoys(rng, jc), ja)]
        for _ in range(4):
            pairs += [(_perturbed(rng, jc), ja), (jc, _perturbed(rng, ja))]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                hom = find_abstract_hom(a, b)
                assert (hom is None) == (scan_abstract_hom(a, b) is None), (n, a, b)
                assert hom == per_component_abstract_hom(a, b), (n, a, b)
                if hom is None:
                    missing += 1
                else:
                    found += 1
                    assert apply_abstract_hom(hom, a).facts <= b.facts
    assert found >= 15 and missing >= 15, (found, missing)


def _grounded(inst):
    """``inst`` with each null replaced by a constant named after it and its
    point, so that no component of another instance has a twin in it."""
    return apply_abstract_hom({(v, f.time): c(f"{v}^{f.time}") for f in inst.facts for v in f.values
                               if isinstance(v, Null)}, inst)


def test_hom_search_work_grows_linearly(example1, monkeypatch):
    # every null of jc is searched for among the grounded constants; the other
    # direction fails on a ground fact without a walk
    counts = []
    for n in (6, 24):
        jc, ja = careers_chase_pair(n, example1)
        grounded = _grounded(ja)
        counts.append(_count_matches(lambda: equivalent(jc, grounded), monkeypatch))
    assert 0 < counts[0] and counts[1] <= 5 * counts[0], counts


def test_hom_equivalence_of_twins_walks_no_join(example1, monkeypatch):
    """Each component of the 4S careers pair has a twin on the other side, up
    to null names, so no join is walked."""
    jc, ja = careers_chase_pair(24, example1)
    answers = []
    assert _count_matches(lambda: answers.append(equivalent(jc, ja)), monkeypatch) == 0
    assert answers == [True]


def _component_shapes(inst):
    """The shape of each shared-null component of ``inst``: its facts in
    canonical order, each as its relation and, per value, the number of its
    null in order of first occurrence (-1 for a constant).  A null is its
    label at its fact's point."""
    by_null = {}
    for f in inst.facts:
        for v in f.values:
            if isinstance(v, Null):
                by_null.setdefault((v, f.time), []).append(f)
    seen, shapes = set(), set()
    for f in inst.facts:
        if f in seen or not any(isinstance(v, Null) for v in f.values):
            continue
        component, todo = [], [f]
        seen.add(f)
        while todo:
            g = todo.pop()
            component.append(g)
            for h in (h for v in g.values if isinstance(v, Null) for h in by_null[v, g.time]):
                if h not in seen:
                    seen.add(h)
                    todo.append(h)
        ids = {}
        shapes.add(tuple((g.relation, tuple(ids.setdefault(v, len(ids)) if isinstance(v, Null) else -1
                                            for v in g.values))
                         for g in sorted(component, key=fact_sort_key)))
    return shapes


def test_hom_equivalence_plans_once_per_component_shape(example1, monkeypatch):
    jc, ja = careers_chase_pair(24, example1)
    shapes = _component_shapes(jc) | _component_shapes(ja)
    calls = 0
    plan = tdx.homomorphism._most_bound_first

    def counting(*args):
        nonlocal calls
        calls += 1
        return plan(*args)

    monkeypatch.setattr(tdx.homomorphism, "_most_bound_first", counting)
    # no component has a twin in the grounded side, so each is searched
    assert not equivalent(jc, _grounded(ja)) and not equivalent(ja, _grounded(jc))
    assert 0 < calls <= 2 * len(shapes), (calls, len(shapes))


def _random_abstract(rng):
    """A small abstract instance over R(a, b) and S(a) at points 0-2, each value a
    constant or one of four null labels."""
    schema = [rel("R", "a", "b"), rel("S", "a")]
    facts = set()
    for _ in range(rng.randint(1, 8)):
        r, t = rng.choice(schema), rng.randint(0, 2)
        facts.add(Fact(r.name, tuple(rng.choice("cd") if rng.random() < 0.35 else Null(rng.choice("NMOP"))
                                     for _ in r.attributes), t))
    return Instance.abstract(schema, facts)


def _nulls_of(inst):
    """Each null of ``inst``, a label at a point, as ``(null, point)``."""
    return sorted({(v, f.time) for f in inst.facts for v in f.values if isinstance(v, Null)})


def _dropped(rng, inst):
    facts = in_order(inst)
    return inst.replace_facts(set(facts) - {rng.choice(facts)}) if facts else inst


def _variant(rng, inst, kind):
    """A variant of ``inst``: ``renamed``, each null relabeled one to one (which
    can reorder a component's facts); ``redundant``, plus a copy of one fact
    with its nulls fresh; ``grounded``, one null mapped to a constant;
    ``merged``, one null mapped to another at its point; ``dropped``, one fact
    fewer."""
    nulls, facts = _nulls_of(inst), in_order(inst)
    if kind == "renamed":
        labels = [f"L{k}" for k in range(len(nulls))]
        rng.shuffle(labels)
        return apply_abstract_hom({n: Null(label) for n, label in zip(nulls, labels)}, inst)
    if kind == "redundant":
        f = rng.choice(facts)
        return inst.replace_facts(inst.facts | apply_abstract_hom(
            {(v, f.time): Null(f"{v.label}'") for v in f.values if isinstance(v, Null)},
            inst.replace_facts([f])).facts)
    if kind == "grounded" and nulls:
        return apply_abstract_hom({rng.choice(nulls): c(rng.choice("cd"))}, inst)
    if kind == "merged":
        pairs = [(m, n) for m in nulls for n in nulls if m != n and m[1] == n[1]]
        if pairs:
            m, (n, _) = rng.choice(pairs)
            return apply_abstract_hom({m: n}, inst)
    return _dropped(rng, inst)


def test_hom_equivalence_agrees_with_the_search_both_ways():
    """``equivalent``, which skips components with a twin, against
    ``find_abstract_hom`` in both directions, on seeded random abstract pairs."""
    rng = random.Random(14)
    seen = {}
    for _ in range(400):
        x = _random_abstract(rng)
        for kind in ("renamed", "redundant", "grounded", "merged", "dropped"):
            y = _variant(rng, x, kind)
            if kind != "renamed" and rng.random() < 0.5:
                y = _variant(rng, y, "renamed")
            for a, b in ((x, y), (y, x)):
                expected = find_abstract_hom(a, b) is not None and find_abstract_hom(b, a) is not None
                assert equivalent(a, b) == expected, (kind, a, b)
                seen[kind, expected] = seen.get((kind, expected), 0) + 1
    assert seen["renamed", True] == seen["redundant", True] == 800
    assert all(seen.get((kind, answer), 0) >= 50 for kind in ("grounded", "merged", "dropped")
               for answer in (True, False)), seen


def test_hom_equivalence_when_canonical_order_follows_null_labels(monkeypatch):
    """A component's key takes its facts in canonical order, which follows
    null labels: an isomorphic copy may key differently, and is then searched."""
    schema = [rel("R", "a", "b")]

    def edges(*pairs):
        return Instance.abstract(schema, [fact("R", Null(x), Null(y), time=1) for x, y in pairs])

    path = edges(("N1", "N2"), ("N2", "N3"))
    relabeled = edges(("Z", "A"), ("A", "B"))  # R(A, B) now sorts first
    cycle, swapped = edges(("N1", "N2"), ("N2", "N1")), edges(("M2", "M1"), ("M1", "M2"))
    answers = []
    assert _count_matches(lambda: answers.append(equivalent(path, relabeled)), monkeypatch) > 0
    assert _count_matches(lambda: answers.append(equivalent(cycle, swapped)), monkeypatch) == 0
    answers += [equivalent(path, cycle), equivalent(cycle, path)]
    assert answers == [True, True, False, False]


def _relabeled(rng, inst):
    """``inst`` with its null labels permuted, in either view."""
    labels = sorted({v.label for f in inst.facts for v in f.values if isinstance(v, Null)})
    image = dict(zip(labels, rng.sample(labels, len(labels))))
    return inst.replace_facts(Fact(f.relation, tuple(Null(image[v.label]) if isinstance(v, Null) else v
                                                     for v in f.values), f.time) for f in inst.facts)


def test_equivalent_per_cell_agrees_with_sem_then_search():
    """``equivalent`` against ``sem`` of each concrete input at every point, on
    random cases: both view orders, concrete/abstract, abstract/abstract and
    concrete/concrete pairs, horizons just above the endpoints (the default)
    and far above them (x10), abstract sides with facts at or beyond the
    horizon, one fact dropped, null labels permuted, and unnormalized
    concrete inputs whose null labels overlap."""
    rng, relabel = random.Random(1405), random.Random(1805)
    answers = {True: 0, False: 0}
    for i in range(124):
        overlapping = i % 62 == 0  # large: hundreds of facts, each cut many times
        case = random_overlapping_case(rng) if overlapping else random_case(rng, with_queries=False)
        top = max_finite_endpoint(case.source) + 1
        try:
            concrete = chase(case.source, case.mapping)
            abstract = chase(sem_instance(case.source, top), case.mapping)
            later = chase(sem_instance(case.source, top + 3), case.mapping)  # facts at and beyond top
        except KeyNullViolation:
            continue
        if not all(isinstance(o, Success) for o in (concrete, abstract, later)):
            continue
        jc, ja, jl = concrete.instance, abstract.instance, later.instance
        pairs = [(jc, ja), (jc, jl), (jc, _dropped(rng, ja)), (_dropped(rng, jc), ja),
                 (_unnormalized(jc), ja), (_unnormalized(jc), jc), (ja, jl)]
        if not overlapping:
            pairs += [(_relabeled(relabel, jc), ja), (_relabeled(relabel, jc), _dropped(relabel, jc)),
                      (_relabeled(relabel, ja), jl)]
        for x, y in pairs:
            for a, b in ((x, y), (y, x)):
                for horizon in (None,) if overlapping else (None, top + 3, top + 60, 10 * top):
                    expected = sem_equivalent(a, b, horizon)
                    assert equivalent(a, b, horizon) == expected, (i, a, b, horizon)
                    answers[expected] += 1
    assert min(answers.values()) >= 400, answers


def _scaled(inst, k):
    """A concrete instance with every endpoint multiplied by ``k``."""
    def scale(t):
        return iv(t.start * k, t.end * k)
    return inst.replace_facts(Fact(f.relation, f.values, scale(f.time)) for f in inst.facts)


def _as_concrete(inst):
    """An abstract instance as a concrete one: each fact at ``t`` on ``[t, t+1)``,
    each null labeled by its label and point."""
    def piece(v, t):
        return Null(f"{v.label}@{t}") if isinstance(v, Null) else v
    return Instance.concrete(inst.schema, [Fact(f.relation, tuple(piece(v, f.time) for v in f.values),
                                                iv(f.time, f.time + 1)) for f in inst.facts])


def test_equivalent_on_bench_results_with_long_intervals(example1, monkeypatch):
    """The 4S careers, long-lived and crossview chase results coalesce to the
    same facts, so every component and ground fact has a twin: nothing is
    cut and no join is walked.  Careers and crossview again, the abstract
    result read as a concrete instance with a null label per point, with
    every endpoint x100: the answer is the one at x1, which ``sem`` then
    search gives, and as many facts are built."""
    bench = bench_workloads()
    built = []
    cut = tdx.homomorphism._cut

    def counting(*args):
        out = cut(*args)
        built[-1] += len(out)
        return out

    monkeypatch.setattr(tdx.homomorphism, "_cut", counting)
    rng = random.Random(3)
    for name in ("careers", "long-lived", "crossview"):
        workload = bench.WORKLOADS[name]
        sc = workload.generate(workload.sizes[-1], random.Random(f"1:{len(workload.sizes) - 1}"))
        src = instance_from_json(bench.concrete_doc(bench.EXAMPLE1_SOURCE, sc.source))
        jc = chase(src, example1).instance
        ja = chase(sem_instance(src, sc.horizon), example1).instance
        built.append(0)
        answers = []
        assert _count_matches(lambda: answers.append(equivalent(jc, ja, sc.horizon)), monkeypatch) == 0
        assert answers == [True] and built[-1] == 0, name
        if name == "long-lived":
            continue
        ja = _as_concrete(ja)
        for a, b, expected in ((jc, ja, True), (jc, _dropped(rng, ja), False)):
            counts, answers = [], []
            for k in (1, 100):
                built.append(0)
                answers.append(equivalent(_scaled(a, k), _scaled(b, k)))
                counts.append(built[-1])
            assert answers == [expected, expected] and sem_equivalent(a, b) == expected, name
            assert counts[0] == counts[1] > 0, (name, counts)


def test_equivalent_refuses_a_large_cut_before_building_it():
    """n nested facts ``[i, inf)``, each holding a null of its own on one side
    and a constant on the other, have no twin, so each side's facts are cut
    at each of the n cells below the horizon n that they cover, and so are
    the other side's at the same points: for n = 3,000, 2 x 2 x n(n+1)/2 =
    18,006,000 facts, and 4.5 million entries (about 36 MB) in the lists of
    each interval's points.  They are counted on the grid's indexes and
    refused before either is built.  Either side compared with itself is its
    own twin, and nothing is cut."""
    n = 3_000
    nulls, constants = [Instance.concrete([rel("R", "a")], [fact("R", value(i), time=iv(i, INF)) for i in range(n)])
                        for value in (lambda i: Null(f"N{i}"), lambda i: f"p{i}")]
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=f"^the equivalence check up to horizon {n} builds "
                                                    f"{2 * n * (n + 1)} facts, more than the limit of 250000$"):
            equivalent(nulls, constants)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert equivalent(nulls, nulls) and equivalent(constants, constants)


_HASH_SEED_PROBE = """
import hashlib
from tdx import Instance, Null, SchemaError, find_abstract_hom
from oracles import apply_abstract_hom
from generators import careers_chase_pair
from helpers import fact, load_fixture_mapping, rel

def search(a, b):
    try:
        hom = find_abstract_hom(a, b)
    except SchemaError as exc:
        return f"SchemaError: {exc}"
    return "None" if hom is None else \\
        hashlib.sha256(repr(sorted(map(repr, hom.items()))).encode()).hexdigest()

schema = [rel("R", "a", "b")]
short = Instance.abstract(schema, [fact("R", x, time=5) for x in "cdefgh"])
print(search(short, short))
two_points = Instance.abstract(schema, [fact("R", "d", Null("M"), time=6), fact("R", "e", "f", time=5),
                                        fact("R", "c", Null("M"), time=5), fact("R", "c", "g", time=6)])
other = Instance.abstract(schema, [fact("R", "c", "g", time=5), fact("R", "c", "g", time=6),
                                   fact("R", "d", "h", time=6), fact("R", "e", "f", time=5)])
print(search(two_points, other))
print(search(other, two_points))
jc, ja = careers_chase_pair(12, load_fixture_mapping("example1.tdx"))
print(search(jc, ja))
print(search(ja, jc))
# each null's image now has a second candidate, the same fact with a constant
grounded = apply_abstract_hom({(v, f.time): f"{v}^{f.time}" for f in ja.facts for v in f.values
                               if isinstance(v, Null)}, ja)
print(search(jc, ja.replace_facts(ja.facts | grounded.facts)))
"""


def test_hom_search_does_not_depend_on_the_string_hash_seed():
    tests = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        str(Path(tdx.__file__).parent.parent), str(tests), os.environ.get("PYTHONPATH")]))}
    runs = [subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE], cwd=tests, capture_output=True,
                           text=True, env={**env, "PYTHONHASHSEED": seed}, check=True).stdout.splitlines()
            for seed in ("1", "2")]
    assert runs[0] == runs[1]
    lines = runs[0]
    assert lines[0] == "SchemaError: R(c, 5): relation 'R' expects 2 non-temporal values, got 1"
    two_points = {(Null("M"), 5): "g", (Null("M"), 6): "h"}  # one label at two points, two images
    assert lines[1:3] == [hashlib.sha256(repr(sorted(map(repr, two_points.items()))).encode()).hexdigest(), "None"]
    assert len(lines) == 6 and "None" not in lines[3:] and not any(x.startswith("Schema") for x in lines[3:])
