"""Seeded random mappings, sources, and queries for the property suites, and
careers-like sources and chase results for the scale tests.

All draws go through one ``random.Random`` so suites are reproducible.  The
sources of ``random_case`` are complete and, by default, already normalized:
fact intervals are drawn from one family of pairwise-disjoint cells over
endpoints <= 8, the last of which may be unbounded; with ``overlapping`` each
interval is drawn on its own.  ``random_overlapping_case`` draws complete
sources of 50-300 facts that normalization must cut.  ``render_mapping``
writes a mapping as ``.tdx`` text, for the parser's round trip and fuzz.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from tdx import (
    INF,
    Atom,
    ClopenInterval,
    Fact,
    Instance,
    Mapping,
    RelationSchema,
    SttTgd,
    Success,
    Tkc,
    Ucq,
    Var,
    chase,
    max_finite_endpoint,
    sem_instance,
    validate_mapping,
)

CONSTANTS = ["ada", "bob", "eve", "hp", "ibm"]


def _render_signature(schema: RelationSchema) -> str:
    parts = [*schema.attributes, f"@{schema.temporal}"]
    return f"{schema.name}({', '.join(parts)})"


def _render_atom(atom: Atom, existentials: frozenset[str]) -> str:
    parts = []
    for term in atom.args:
        if isinstance(term, str):
            parts.append(f"'{term}'")
        elif term.name in existentials:
            parts.append(f"?{term.name}")
        else:
            parts.append(term.name)
    parts.append(atom.time_var)
    return f"{atom.relation}({', '.join(parts)})"


def render_mapping(m: Mapping) -> str:
    """The text of a mapping in the ``.tdx`` syntax: ``parse_mapping`` of it
    is ``m`` for a valid mapping, and for a code-built one that breaks a
    structural rule it raises that rule's first problem at its token."""
    none = frozenset()
    lines = [f"source {_render_signature(r)}." for r in m.source]
    lines += [f"target {_render_signature(r)}." for r in m.target]
    for dep in m.sttgds:
        lhs = ", ".join(_render_atom(a, none) for a in dep.lhs)
        rhs = ", ".join(_render_atom(a, dep.existentials) for a in dep.rhs)
        lines.append(f"rule {lhs} -> {rhs}.")
    for tkc in m.tkcs:
        schema = m.target_by_name[tkc.relation]
        attrs = [a for a in schema.attributes if a in tkc.key] + [f"@{schema.temporal}"]
        lines.append(f"key {tkc.relation}({', '.join(attrs)}).")
    for q in m.queries:
        head = ", ".join(q.columns)
        for disjunct in q.disjuncts:
            body = ", ".join(_render_atom(a, none) for a in disjunct)
            lines.append(f"query {q.name}({head}) :- {body}.")
    return "\n".join(lines) + "\n"
MAX_ENDPOINT = 8


def _random_schemas(rng: random.Random, prefix: str, count: int, max_arity: int) -> tuple[RelationSchema, ...]:
    return tuple(
        RelationSchema(f"{prefix}{i}", tuple(f"{prefix.lower()}{i}a{j}" for j in range(rng.randint(1, max_arity))), "t")
        for i in range(count))


def _random_rule(rng: random.Random, source, target) -> SttTgd:
    universals = ["x0", "x1", "x2"]
    lhs = []
    for schema in rng.sample(list(source), rng.randint(1, min(2, len(source)))):
        args = tuple(Var(rng.choice(universals)) for _ in schema.attributes)
        lhs.append(Atom(schema.name, args, "t"))
    lhs_vars = sorted({t.name for a in lhs for t in a.args})
    existential_pool = [f"y{k}" for k in range(rng.randint(0, 2))]
    rhs = []
    used_existentials: set[str] = set()
    for _ in range(rng.randint(1, 2)):
        schema = rng.choice(target)
        args = []
        for _ in schema.attributes:
            roll = rng.random()
            if existential_pool and roll < 0.35:
                name = rng.choice(existential_pool)
                used_existentials.add(name)
                args.append(Var(name))
            elif roll < 0.45:
                args.append(rng.choice(CONSTANTS))
            else:
                args.append(Var(rng.choice(lhs_vars)))
        rhs.append(Atom(schema.name, tuple(args), "t"))
    return SttTgd(tuple(lhs), tuple(rhs), frozenset(used_existentials))


def _random_tkcs(rng: random.Random, target) -> tuple[Tkc, ...]:
    tkcs = []
    for schema in target:
        if rng.random() < 0.35 or schema.arity == 0:
            continue
        key_size = rng.randint(0, schema.arity - 1)
        key = set(rng.sample(schema.attributes, key_size))
        tkcs.append(Tkc(schema.name, frozenset(key) | {schema.temporal}))
    return tuple(tkcs)


def _random_cells(rng: random.Random) -> list[ClopenInterval]:
    cuts = sorted(rng.sample(range(0, MAX_ENDPOINT + 1), rng.randint(2, 5)))
    cells = [ClopenInterval(s, e) for s, e in zip(cuts, cuts[1:])]
    if rng.random() < 0.2:
        cells.append(ClopenInterval(cuts[-1], INF))
    return cells


def _random_source_instance(rng: random.Random, source) -> Instance:
    cells = _random_cells(rng)
    facts = set()
    for _ in range(rng.randint(1, 5)):
        schema = rng.choice(source)
        values = tuple(rng.choice(CONSTANTS) for _ in schema.attributes)
        facts.add(Fact(schema.name, values, rng.choice(cells)))
    return Instance.concrete(source, facts)


def _random_overlapping_source(rng: random.Random, source) -> Instance:
    """Complete facts on intervals drawn independently, endpoints <= 8 and
    now and then unbounded, so that they overlap without being equal."""
    facts = set()
    for _ in range(rng.randint(1, 6)):
        schema = rng.choice(source)
        values = tuple(rng.choice(CONSTANTS) for _ in schema.attributes)
        start = rng.randrange(MAX_ENDPOINT)
        end = INF if rng.random() < 0.2 else rng.randint(start + 1, MAX_ENDPOINT)
        facts.add(Fact(schema.name, values, ClopenInterval(start, end)))
    return Instance.concrete(source, facts)


def random_query(rng: random.Random, target, name: str) -> Ucq:
    body_pool = ["z0", "z1", "z2"]
    shells = []
    for _ in range(rng.randint(1, 2)):
        shells.append([rng.choice(target) for _ in range(rng.randint(1, 3))])
    max_head = min(2, min(sum(s.arity for s in shell) for shell in shells))
    head = tuple(f"h{k}" for k in range(rng.randint(0, max_head)))
    disjuncts = []
    for shell in shells:
        atoms = []
        positions = []
        for atom_idx, schema in enumerate(shell):
            args = []
            for pos in range(schema.arity):
                positions.append((atom_idx, pos))
                if rng.random() < 0.15:
                    args.append(rng.choice(CONSTANTS))
                else:
                    args.append(Var(rng.choice(body_pool)))
            atoms.append([schema, args])
        for var, (atom_idx, pos) in zip(head, rng.sample(positions, len(head))):
            atoms[atom_idx][1][pos] = Var(var)
        disjuncts.append(tuple(Atom(s.name, tuple(args), "t") for s, args in atoms))
    return Ucq(name, head, "t", tuple(disjuncts))


@dataclass
class Case:
    mapping: Mapping
    source: Instance
    horizon: int


def random_case(rng: random.Random, with_queries: bool = True, overlapping: bool = False) -> Case:
    """A random mapping and source; if ``overlapping``, the source's intervals
    are drawn independently (``_random_overlapping_source``), so it is not
    normalized."""
    source = _random_schemas(rng, "S", rng.randint(1, 2), 2)
    target = _random_schemas(rng, "T", rng.randint(1, 2), 3)
    rules = tuple(_random_rule(rng, source, target) for _ in range(rng.randint(1, 3)))
    queries = tuple(random_query(rng, target, f"q{k}") for k in range(rng.randint(1, 2))) \
        if with_queries else ()
    mapping = Mapping(source, target, rules, _random_tkcs(rng, target), queries)
    assert not validate_mapping(mapping)
    draw = _random_overlapping_source if overlapping else _random_source_instance
    return Case(mapping, draw(rng, source), MAX_ENDPOINT + 1)


OVERLAP_MAX_ENDPOINT = 100


def _keyed_tkcs(target) -> tuple[Tkc, ...]:
    """One key per target relation with dependents: its first attribute and the time."""
    return tuple(Tkc(r.name, frozenset({r.attributes[0], r.temporal}))
                 for r in target if r.arity >= 2)


def random_overlapping_case(rng: random.Random) -> Case:
    """A random mapping over a source of 50-300 facts on overlapping intervals
    (endpoints up to ``OVERLAP_MAX_ENDPOINT``, about one in ten unbounded),
    so normalization cuts most of them into many pieces.

    Draws are tilted towards chases that succeed: each target relation is
    keyed on its first attribute, and every value of a source fact is the
    name of one of its entities, so a rule matches whatever its variable
    pattern and key groups hold one entity's facts.  Conflicts still come
    from rule constants and from rules that write different entities'
    values into one key group.
    """
    source = _random_schemas(rng, "S", rng.randint(1, 2), 2)
    target = _random_schemas(rng, "T", rng.randint(1, 2), 3)
    rules = tuple(_random_rule(rng, source, target) for _ in range(rng.randint(1, 3)))
    queries = tuple(random_query(rng, target, f"q{k}") for k in range(rng.randint(1, 2)))
    mapping = Mapping(source, target, rules, _keyed_tkcs(target), queries)
    assert not validate_mapping(mapping)
    count = rng.randint(50, 300)
    entities = [f"e{k}" for k in range(count // 3)]
    facts = set()
    while len(facts) < count:
        schema = rng.choice(source)
        start = rng.randrange(OVERLAP_MAX_ENDPOINT)
        end = INF if rng.random() < 0.1 else rng.randint(start + 1, OVERLAP_MAX_ENDPOINT)
        name = rng.choice(entities)
        facts.add(Fact(schema.name, (name,) * schema.arity, ClopenInterval(start, end)))
    return Case(mapping, Instance.concrete(source, facts), OVERLAP_MAX_ENDPOINT + 1)


def random_mapping(rng: random.Random) -> Mapping:
    return random_case(rng).mapping


def careers_like(n: int, mapping: Mapping) -> Instance:
    """A concrete example1 source: ten disjoint jobs per person, five in each
    source relation, with job lengths, gaps and relations shuffled per person."""
    rng = random.Random(n)
    facts = []
    for i in range(n):
        name = f"p{i:03d}"
        lengths, gaps, kinds = [1, 2, 3, 4, 1, 2, 3, 4, 2, 3], [0, 1, 0, 1, 2, 0, 1, 0, 1, 0], [1, 2] * 5
        for items in (lengths, gaps, kinds):
            rng.shuffle(items)
        t = rng.randint(0, 3)
        for length, gap, kind in zip(lengths, gaps, kinds):
            if kind == 1:
                values = (name, rng.choice(["hp", "ibm", "sun"]))
            else:
                values = (name, rng.choice(["dev", "dba", "ops"]), rng.choice(["eng", "it"]))
            facts.append(Fact(f"Employee{kind}", values, ClopenInterval(t, t + length)))
            t += length + gap
    return Instance.concrete(mapping.source, facts)


def careers_chase_pair(n: int, mapping: Mapping) -> tuple[Instance, Instance]:
    """The concrete chase result under ``sem`` and the abstract chase result
    of the same ``careers_like`` source."""
    src = careers_like(n, mapping)
    horizon = max_finite_endpoint(src) + 1
    concrete, abstract = chase(src, mapping), chase(sem_instance(src, horizon), mapping)
    assert isinstance(concrete, Success) and isinstance(abstract, Success)
    return sem_instance(concrete.instance, horizon), abstract.instance
