"""Seeded scenario generators for the tdx benchmark.

Every file the program reads is made here from ``random.Random(seed)``, so the
same seed gives byte-identical inputs.  The generators never import ``tdx``:
they write plain JSON documents, and the oracles compare the program's output
against the facts listed here.

A generated fact is ``(relation, values, start, end)`` with ``end`` either an
int or ``None`` for an unbounded interval.

Each workload follows ChaseBench (Benedikt et al., PODS 2017): one scenario
generator run at three sizes, chosen to stress one part of the chase.  The
seed changes names, offsets and splits but not the amount of work, so that
runs with different seeds time the same work.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable, Optional

Fact = tuple[str, tuple[str, ...], int, Optional[int]]

EXAMPLE1_SOURCE = {
    "Employee1": ("name", "company", "time"),
    "Employee2": ("name", "position", "dept", "time"),
}
EXAMPLE3_SOURCE = {
    "SamePosition": ("name1", "company1", "name2", "company2", "time"),
    "Title": ("name", "position", "company", "time"),
}

COMPANIES = ("acme", "globex", "hooli", "initech", "stark", "tyrell", "umbrella", "wayne")
POSITIONS = ("cto", "dba", "dev", "ops", "pm", "qa", "sre", "ux")
DEPTS = ("eng", "hr", "it", "rd")


@dataclass(frozen=True)
class Scenario:
    """Inputs for one size of one workload."""

    source: list[Fact]          # example1 source; its chase succeeds
    horizon: int                # max finite endpoint + 1
    failing_schema: dict        # source schema of the failing instance
    failing: list[Fact]         # a source whose chase must exit 2
    failing_horizon: int
    witness: tuple[str, str]    # the two constants the failure must name, sorted


def _person(i: int, prefix: str = "p") -> str:
    return f"{prefix}{i:04d}"


def _horizon(facts: list[Fact]) -> int:
    return max(max(s, e if e is not None else s) for _, _, s, e in facts) + 1


def careers(n: int, rng: random.Random) -> Scenario:
    """Ten disjoint jobs per person, five in each source relation.

    Job lengths and gaps are fixed multisets shuffled per person, so the
    total length (and with it the fragment count) does not depend on the
    seed.  The failing variant gives one person a second, overlapping job
    with another position.
    """
    lengths0 = (1, 2, 3, 4, 1, 2, 3, 4, 2, 3)
    gaps0 = (0, 1, 0, 1, 2, 0, 1, 0, 1)
    facts: list[Fact] = []
    for i in range(n):
        name = _person(i)
        lengths, gaps, kinds = list(lengths0), list(gaps0), [1] * 5 + [2] * 5
        rng.shuffle(lengths)
        rng.shuffle(gaps)
        rng.shuffle(kinds)
        t = rng.randint(0, 3)
        for j, length in enumerate(lengths):
            if kinds[j] == 1:
                facts.append(("Employee1", (name, rng.choice(COMPANIES)), t, t + length))
            else:
                facts.append(("Employee2", (name, rng.choice(POSITIONS), rng.choice(DEPTS)),
                              t, t + length))
            t += length + (gaps[j] if j < len(gaps) else 0)
    victim = next(f for f in facts if f[0] == "Employee2")
    _, (name, position, dept), start, end = victim
    other = rng.choice([p for p in POSITIONS if p != position])
    failing = facts + [("Employee2", (name, other, dept), start, end)]
    h = _horizon(facts)
    return Scenario(facts, h, EXAMPLE1_SOURCE, failing, h, tuple(sorted((position, other))))


def long_lived(n: int, rng: random.Random) -> Scenario:
    """Everyone works at one company for ever, and holds position ``dev``
    for one slot of a shuffled schedule.

    Global normalization cuts every unbounded fact at every slot boundary,
    so the fragment count is n * (n + 1) + n whatever the seed.
    """
    slots = list(range(n))
    rng.shuffle(slots)
    facts: list[Fact] = []
    for i in range(n):
        name = _person(i)
        facts.append(("Employee1", (name, rng.choice(COMPANIES)), 0, None))
        facts.append(("Employee2", (name, "dev", rng.choice(DEPTS)), slots[i], slots[i] + 1))
    i = rng.randrange(n)
    failing = facts + [("Employee2", (_person(i), "ops", rng.choice(DEPTS)), slots[i], slots[i] + 1)]
    h = _horizon(facts)
    return Scenario(facts, h, EXAMPLE1_SOURCE, failing, h, ("dev", "ops"))


CROSSVIEW_SPAN = 24


def crossview(n: int, rng: random.Random) -> Scenario:
    """Many people packed into 24 time points, plus an example3 source.

    Each person has three jobs of lengths 4, 6 and 8 in shuffled order, so
    every (relation, time) pair has a candidate list about as long as the
    number of people.  The example3 source gives each of n people one title
    and one company, links 2n pairs of same-title people by
    ``SamePosition`` over intervals whose lengths are a fixed multiset, and
    adds exactly one pair whose titles differ.
    """
    facts: list[Fact] = []
    for i in range(n):
        name = _person(i)
        lengths, gaps = [4, 6, 8], [1, 2]
        kinds = [1, 2, 1 + i % 2]
        rng.shuffle(lengths)
        rng.shuffle(gaps)
        rng.shuffle(kinds)
        t = rng.randint(0, 2)
        for j, length in enumerate(lengths):
            if kinds[j] == 1:
                facts.append(("Employee1", (name, rng.choice(COMPANIES)), t, t + length))
            else:
                facts.append(("Employee2", (name, rng.choice(POSITIONS), rng.choice(DEPTS)),
                              t, t + length))
            t += length + (gaps[j] if j < len(gaps) else 0)

    k = min(len(POSITIONS), n // 2)
    people = [(_person(i, "q"), POSITIONS[i % k], rng.choice(COMPANIES)) for i in range(n)]
    groups: dict[str, list[tuple[str, str, str]]] = {}
    for p in people:
        groups.setdefault(p[1], []).append(p)
    titles = sorted(t for t, members in groups.items() if len(members) >= 2)

    def pair_fact(a, b, length: int) -> Fact:
        start = rng.randint(0, CROSSVIEW_SPAN - 8)
        return ("SamePosition", (a[0], a[2], b[0], b[2]), start, start + length)

    failing: list[Fact] = [("Title", (q, title, company), 0, CROSSVIEW_SPAN)
                           for q, title, company in people]
    lengths = [2 + j % 7 for j in range(2 * n)]
    rng.shuffle(lengths)
    seen: set[Fact] = set()
    while lengths:
        a, b = rng.sample(groups[rng.choice(titles)], 2)
        f = pair_fact(a, b, lengths[-1])
        if f not in seen:
            seen.add(f)
            failing.append(f)
            lengths.pop()
    t1, t2 = rng.sample(titles, 2)
    failing.append(pair_fact(rng.choice(groups[t1]), rng.choice(groups[t2]), 5))
    return Scenario(facts, _horizon(facts), EXAMPLE3_SOURCE, failing, _horizon(failing),
                    tuple(sorted((t1, t2))))


def concrete_doc(schema: dict, facts: list[Fact]) -> dict:
    rels = {name: {"attributes": list(attrs), "facts": []} for name, attrs in schema.items()}
    for rel, values, start, end in facts:
        rels[rel]["facts"].append({"values": list(values), "interval": {
            "start": start, "end": "inf" if end is None else end}})
    return {"kind": "concrete", "relations": rels}


def abstract_doc(schema: dict, facts: list[Fact], horizon: int) -> dict:
    """The point-wise expansion of ``facts`` below ``horizon``, made without tdx."""
    rels = {name: {"attributes": list(attrs), "facts": []} for name, attrs in schema.items()}
    for rel, values, start, end in facts:
        for t in range(start, horizon if end is None else min(end, horizon)):
            rels[rel]["facts"].append({"values": list(values), "time": t})
    return {"kind": "abstract", "relations": rels}


def dump(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, random.Random], Scenario]
    sizes: tuple[int, int, int]        # people at S, 2S and 4S
    smoke_sizes: tuple[int, int, int]  # tiny sizes for the benchmark's own tests
    primary: str                       # the op timed at every size
    query: str                         # the query ``certain`` asks


WORKLOADS = {
    w.name: w for w in (
        # Why each workload was chosen is recorded in BENCHMARK.json.
        Workload("careers", careers, (6, 12, 24), (2, 3, 4), "certain", "paid_positions"),
        Workload("long-lived", long_lived, (8, 16, 32), (3, 4, 6), "chase", "positions"),
        Workload("crossview", crossview, (16, 32, 64), (4, 6, 8), "equiv", "positions"),
    )
}
