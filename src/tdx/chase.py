"""The chase over either view of time: a dependency round producing fresh
nulls, then a key round that collects equalities, closes them, and either
applies the replacements or fails on a constant conflict.

The two views run one algorithm, over intervals or time points, so the view
shows only in the instance kind.  A null is its label at the time of the
fact that holds it: each equality of the key round carries its key group's
time, and the closure and its replacements run per time.
Infinite abstract views are never materialized here; they are reached
through ``sem_instance`` with an explicit horizon, and the chase runs on the
resulting finite instance.

``chase`` reads an abstract source as its runs of consecutive points
(``model._runs``, the coalescing of Böhlen, Snodgrass and Soo), runs the
concrete rounds once over the runs, and writes the result at its points
(``model._cut``, as ``sem_instance`` cuts): a rule fires once per run, not
once per point.  The rounds over points, ``st_round_abstract`` and
``tkc_round_abstract``, are the paper's abstract chase, and the outcome is
theirs byte for byte: the labels make the concrete result's points the
abstract result, a failure is dated at the first point of its piece, and a
KeyNullViolation names its fact at the first point of its piece.

A concrete chase cuts each fact only against the facts it can meet (the
grouping-scoped alignment of Dignös, Böhlen and Gamper, SIGMOD 2012): a rule
of one atom fires on the source facts as they are, a rule of several atoms
reads its join blocks cut, and the key round coalesces its input, cuts only
the key blocks that hold two facts of one key group at one time point, and
coalesces its result (Böhlen, Snodgrass and Soo, VLDB 1996).  A key step
fires only on such facts, the egd step of Fagin, Kolaitis, Miller and Popa
(TCS 2005), so an input that violates no key is its own result.  So a
concrete result is coalesced, and its bytes depend only on the abstract
view of the dependency round's result.

A fresh null's label is its Skolem term (Fagin, Kolaitis, Popa and Tan,
TODS 2005; Marnette, PODS 2009): the compact JSON text of the rule's index,
the existential variable and the binding's non-temporal values, variables in
name order, as ``[0,"p",["IBM","Ada"]]``.  It does not depend on binding
order, and every fragment of a source fact, and each of its time points
under ``sem``, labels alike, so ``sem`` of a concrete result equals the
abstract result of the ``sem`` source as a set.

Both rounds are parallel: the dependency round is the union of the paper's
s-t tgd step over every rule and left-hand-side binding, and the key round
derives a single equality closure from the key step of every conflicting
fact pair before any replacement happens, so the outcome does not depend on
step order.  The single steps are the specification the rounds are tested
against (``tests/oracles.py``: ``st_step`` and ``tkc_step``).  A key group
of k facts reaches that closure through k-1 pairs, each member paired with
one hub.  Every round first refuses its instance, and then rules and keys
built in code, with the first problem ``validate_instance`` and
``validate_mapping`` list.

The per-fact work runs through C-level operations where it can: each rule's
right-hand side is compiled once per round into one ``itemgetter`` per head
atom, a key group is keyed by an ``itemgetter`` over the key positions, the
closure merges in set order and records no equalities (only a failure,
merged again in canonical order, records them to word its witness), and the
facts to rebuild are found by ``dict_keys.isdisjoint``.
"""
from __future__ import annotations

import json
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence, Union

from .errors import KeyNullViolation, PreconditionError
from .homomorphism import Binding, _formula_homs, _join_inputs
from .mapping_lang import Mapping, SttTgd, Tkc, Var, _check_mapping
from .model import (
    ABSTRACT,
    CONCRETE,
    Fact,
    Instance,
    Null,
    RelationSchema,
    TimeValue,
    Value,
    _aligned,
    _apart,
    _check_kind,
    _coalesce,
    _cut,
    _encode,
    _mark_checked,
    _new,
    _runs,
    conform_instance,
    is_complete,
    is_null,
)


@dataclass(frozen=True)
class Success:
    instance: Instance


@dataclass(frozen=True)
class Failure:
    """Witness of an unsatisfiable key round: two distinct constants forced equal,
    with the chain of derived equalities connecting them, all at ``time`` (a
    chain joins them through nulls, each at one time)."""

    constants: tuple[str, str]
    trace: tuple[tuple[Value, Value], ...]
    time: TimeValue


ChaseOutcome = Union[Success, Failure]


class EqClosure:
    """Disjoint sets over values, each rooted at its least member in
    canonical order, so ``find`` returns a class's representative: its
    constant if it has one (a constant sorts before every null), else its
    least null.  ``merge`` links the larger root under the smaller, a sound
    union-find with path compression (Tarjan and van Leeuwen, JACM 1984);
    two roots that are constants are a conflict, reported, not applied.
    The key round keeps one closure per time, so each null in it stands
    for its label at that time.
    """

    def __init__(self) -> None:
        self._parent: dict[Value, Value] = {}

    def find(self, v: Value) -> Value:
        parent = self._parent
        root = parent.setdefault(v, v)
        while parent[root] != root:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    def merge(self, x: Value, y: Value) -> tuple[str, str] | None:
        """Union the classes of x and y; returns the conflicting constants, if any."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return None
        low, high = (rx, ry) if rx < ry else (ry, rx)
        if isinstance(high, str):  # so both roots are constants
            return low, high
        self._parent[high] = low
        return None

    def members(self) -> dict[Value, list[Value]]:
        grouped: dict[Value, list[Value]] = {}
        for v in self._parent:
            grouped.setdefault(self.find(v), []).append(v)
        return grouped

    def representatives(self) -> dict[Value, Value]:
        """Final replacement map: every tracked value that is not its class
        representative to the representative (so only nulls)."""
        return {v: root for v in self._parent if (root := self.find(v)) != v}


_label_json = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


class _Head(NamedTuple):
    """A rule's right-hand side compiled for firing.  A firing extends its
    binding in place: each existential variable gets a fresh null, and each
    head constant is a fixed slot under an ``int`` key, which never names a
    variable; each head atom then reads its values from the binding through
    one ``itemgetter``."""

    time_var: str
    body: Callable[[Binding], tuple]  # the non-temporal body values, variables in name order
    existentials: tuple[str, ...]
    prefixes: tuple[str, ...]  # each existential's label text up to the body values
    labels: dict[tuple, list[Null]]  # body values -> the null of each existential, made once
    fixed: dict[int, str]  # the slot of each head constant
    atoms: tuple[tuple[str, Callable[[Binding], tuple], str], ...]  # relation, values getter, time variable


def _values_getter(keys: list) -> Callable[[Binding], tuple]:
    """The tuple of a binding's values at ``keys`` (``itemgetter`` of one key
    returns the bare value)."""
    if len(keys) > 1:
        return itemgetter(*keys)
    return (lambda b: (b[keys[0]],)) if keys else (lambda b: ())


def _compile_head(rule: SttTgd, index: int) -> _Head:
    body = sorted({t.name for atom in rule.lhs for t in atom.args if isinstance(t, Var)})
    existentials = tuple(sorted(rule.existentials))
    prefixes = tuple(_label_json([index, var])[:-1] + "," for var in existentials)
    fixed: dict[int, str] = {}
    atoms = []
    for atom in rule.rhs:
        keys: list = []
        for t in atom.args:
            if isinstance(t, Var):
                keys.append(t.name)
            else:
                keys.append(len(fixed))
                fixed[len(fixed)] = t
        atoms.append((atom.relation, _values_getter(keys), atom.time_var))
    return _Head(rule.time_var, _values_getter(body), existentials, prefixes, {}, fixed, tuple(atoms))


def _fire(head: _Head, binding: Binding, add: Callable[[Fact], None]) -> None:
    """One firing: extend ``binding`` in place and pass each head fact to ``add``."""
    values = head.body(binding)
    nulls = head.labels.get(values)
    if nulls is None:  # the fragments of one source fact, or its time points, share their nulls
        text = "[" + ",".join(map(_encode, values)) + "]"  # ``_label_json`` of the values, all ``str``
        nulls = head.labels[values] = [_new(Null, (prefix + text + "]",)) for prefix in head.prefixes]
    binding.update(zip(head.existentials, nulls))
    binding.update(head.fixed)
    for relation, values, time_var in head.atoms:
        add(_new(Fact, (relation, values(binding), binding[time_var])))


def _st_round(inst: Instance, rules: Sequence[SttTgd],
              target: Iterable[RelationSchema], runs: bool = False) -> Instance:
    """Every rule fired at every binding of its body.  Over a concrete
    instance each body reads its join blocks cut (``_join_inputs``, which
    reads ``runs``): a rule of one atom fires on the facts as they are.  The
    result is born checked: a firing writes only the values and times of the
    checked ``inst``, the checked rules' constants, and fresh nulls."""
    facts: set[Fact] = set()
    bodies = _join_inputs([rule.lhs for rule in rules], inst, "the rule bodies", runs)
    for i, (rule, body_inst) in enumerate(zip(rules, bodies)):
        head = _compile_head(rule, i)
        for binding in _formula_homs(rule.lhs, body_inst, None):  # each a fresh dict, extended in place
            _fire(head, binding, facts.add)
    return _mark_checked(Instance(inst.kind, tuple(target), frozenset(facts)))


def _ordered_pair(x: Value, y: Value) -> tuple[Value, Value]:
    return (x, y) if x <= y else (y, x)


def _key_getter(key_pos: tuple[int, ...]) -> Callable[[tuple], object]:
    """A values tuple's key values, as one hashable object."""
    return itemgetter(*key_pos) if key_pos else (lambda values: ())


def _key_positions(inst: Instance, tkc: Tkc) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Key and dependent positions of a key constraint within its relation's
    schema in ``inst``, which a checked key fits."""
    attributes = inst.schema_by_name[tkc.relation].attributes
    return (tuple(i for i, a in enumerate(attributes) if a in tkc.key),
            tuple(i for i, a in enumerate(attributes) if a not in tkc.key))


def _key_groups(inst: Instance, tkcs: Sequence[Tkc]) -> list[list[Fact]]:
    """The key groups up to time: per key, its relation's facts grouped by
    their key values, kept where a group holds two facts or more."""
    groups: list[list[Fact]] = []
    for tkc in tkcs:
        key_of = _key_getter(_key_positions(inst, tkc)[0])
        by_key: dict[object, list[Fact]] = {}
        for f in inst.facts_by_relation[tkc.relation]:
            k = key_of(f.values)
            group = by_key.get(k)
            if group is None:
                by_key[k] = [f]
            else:
                group.append(f)
        groups += [group for group in by_key.values() if len(group) > 1]
    return groups


def _key_blocks(inst: Instance, groups: list[list[Fact]], hot: Iterable[Fact]) -> list[list[Fact]]:
    """The blocks of ``inst`` that hold a fact of ``hot``: the facts that a
    concrete key round must cut against each other.  Two facts are in one
    block if they are in one key group up to time (``groups``), or hold a
    null of one label, so a replacement meets every occurrence of its null,
    whose pieces are cut alike.  Each block is found breadth first from a
    fact of ``hot``, reading the facts of each group and each null once."""
    members: dict[object, list[Fact]] = dict(enumerate(groups))  # a group's token is its index
    linked: dict[Fact, list] = {}
    for k, group in enumerate(groups):
        for f in group:
            linked.setdefault(f, []).append(k)
    for f in inst.facts:
        for v in f.values:
            if v.__class__ is Null:
                near = members.get(v)
                if near is None:
                    members[v] = [f]
                else:
                    near.append(f)
    reached: set = set()
    seen: set[Fact] = set()
    blocks = []
    for start in hot:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for f in block:  # grows as the search reaches further
            for token in [v for v in f.values if v.__class__ is Null] + linked.get(f, []):
                if token not in reached:
                    reached.add(token)
                    for g in members[token]:
                        if g not in seen:
                            seen.add(g)
                            block.append(g)
        blocks.append(block)
    return blocks


def _key_round(inst: Instance, tkcs: Sequence[Tkc], runs: bool = False) -> ChaseOutcome:
    """The key round over either view: close the equalities of every key
    group per time, then replace or fail (``_close_and_replace``).

    A concrete input is first coalesced, and each key's facts are grouped
    by their key values (``_key_groups``).  A key step fires only where two
    facts of a group share a time point, so a group whose intervals are
    pairwise disjoint is at peace; with no group in conflict the coalesced
    input is the result.  Otherwise only the key blocks (``_key_blocks``)
    that hold a conflicting group are cut, and their facts alone give the
    equalities and take the replacements: a replaced null occurs in an
    equality, and every fact that holds it is in that block.  A success is
    coalesced together with the facts left uncut.  The coalesced input is
    a function of the input's abstract view alone, and so are the rest of
    the steps, so the outcome does not depend on how the input was cut: a
    globally normalized dependency round and one cut per join block give
    the same bytes, failure witness and ``KeyNullViolation`` text.  The cut
    is refused, before any fragment is made, if the blocks it cuts would
    hold more than ``MAX_NORMALIZE_FRAGMENTS`` facts beyond their own and
    those that coalescing merged away; a block that is not cut is not
    counted.

    With ``runs``, ``inst`` is the dependency round's result over the runs
    of an abstract source (``model._runs``).  Its coalesced facts stand for
    their points, and the cut counts each point as a fact it was given, so
    it refuses nothing that the key round over the points reads; and a
    KeyNullViolation names its fact at the first point of its piece, as the
    key round over the points names it."""
    if inst.kind != CONCRETE:
        return _close_and_replace(inst, _round_equalities(inst, tkcs))
    coalesced = _coalesce(inst)
    groups = _key_groups(coalesced, tkcs)
    hot = [group[0] for group in groups if not _apart([f.time for f in group])]
    if not hot:
        return Success(coalesced)
    blocks = _key_blocks(coalesced, groups, hot)
    facts = frozenset([f for block in blocks for f in block])
    part = _mark_checked(Instance(CONCRETE, coalesced.schema, facts))
    given = sum([f.time.end - f.time.start for f in coalesced.facts]) if runs else len(inst.facts)
    part = next(_aligned(part, [blocks], "the key round", given - len(coalesced.facts)))
    outcome = _close_and_replace(part, _round_equalities(part, tkcs, runs))
    if isinstance(outcome, Failure):
        return outcome
    rest = coalesced.facts.difference(facts)
    return Success(_coalesce(_mark_checked(Instance(CONCRETE, coalesced.schema, outcome.instance.facts | rest))))


def _round_equalities(inst: Instance, tkcs: Sequence[Tkc],
                      runs: bool = False) -> list[tuple[Value, Value, TimeValue]]:
    """The equalities of every key group, the facts of one relation that agree
    on the time and the key values, each as ``(x, y, time)`` with the
    group's time.

    Each member of a group is paired with one hub, the group's least member
    in canonical order: that star has the same closure as all k(k-1)/2
    pairs of the group, in k-1 pairs; the grouping guarantees what the key
    step checks of a pair.  Members of one group share their key values, so
    a null in a key position is in all of them: KeyNullViolation names the
    first in the least such hub, whatever the set order, with ``runs`` at
    the first point of the hub's piece.
    """
    equalities: list[tuple[Value, Value, TimeValue]] = []
    for tkc in tkcs:
        key_pos, dep_pos = _key_positions(inst, tkc)
        key_of = _key_getter(key_pos)
        groups: dict[tuple, list[Fact]] = {}
        for f in inst.facts_by_relation[tkc.relation]:
            groups.setdefault((f.time, key_of(f.values)), []).append(f)
        null_keys = []
        for (t, _), group in groups.items():
            if len(group) < 2:
                continue
            hub = min(group)
            if any(is_null(hub.values[i]) for i in key_pos):
                null_keys.append(hub)
                continue
            for f in group:
                if f is not hub:
                    for i in dep_pos:
                        if hub.values[i] != f.values[i]:
                            equalities.append((hub.values[i], f.values[i], t))
        if null_keys:
            f = min(null_keys)
            if runs:
                f = _new(Fact, (f.relation, f.values, f.time.start))
            i = next(i for i in key_pos if is_null(f.values[i]))
            raise KeyNullViolation(f"{f}: null {f.values[i]}^{f.time} in key position "
                                   f"{inst.schema_by_name[tkc.relation].attributes[i]!r}")
    return equalities


def _canonical(equality: tuple[Value, Value, TimeValue]) -> tuple:
    """An ordered equality's canonical key, a null read as (label, time)."""
    x, y, t = equality
    return (x, t, y) if x.__class__ is Null else (x, y, t)  # a null x has a null y


def _first_conflict(equalities: Iterable[tuple[Value, Value, TimeValue]]) -> Failure:
    """The failure met first when the equalities, each pair ordered, are
    merged per time in canonical order; its trace is the shortest chain of
    the equalities of its time merged so far that links its two constants."""
    closures: dict[TimeValue, EqClosure] = {}
    adjacent: dict[TimeValue, dict[Value, list[Value]]] = {}
    for x, y, t in sorted({(*_ordered_pair(x, y), t) for x, y, t in equalities}, key=_canonical):
        near = adjacent.setdefault(t, {})
        near.setdefault(x, []).append(y)
        near.setdefault(y, []).append(x)
        closure = closures.get(t) or closures.setdefault(t, EqClosure())
        conflict = closure.merge(x, y)
        if conflict is not None:
            return Failure(conflict, _chain(near, *conflict), t)
    raise AssertionError("no conflict in an order of equalities that another order conflicts in")


def _chain(adjacent: dict[Value, list[Value]], x: Value, y: Value) -> tuple[tuple[Value, Value], ...]:
    """Shortest chain of equalities linking x to y, found breadth first."""
    prev = {x: x}
    queue = deque([x])
    while y not in prev:
        u = queue.popleft()
        for w in adjacent[u]:
            if w not in prev:
                prev[w] = u
                queue.append(w)
    path = [y]
    while path[-1] != x:
        path.append(prev[path[-1]])
    path.reverse()
    return tuple(zip(path, path[1:]))


def _close_and_replace(inst: Instance, equalities: Iterable[tuple[Value, Value, TimeValue]]) -> ChaseOutcome:
    """All replacements are applied simultaneously from the final
    representatives of one closure per time, each to the facts of its time;
    a merge of two distinct constants aborts with a witness.  Only facts
    holding a replaced value are rebuilt, and with none the instance itself
    is the result; a rebuilt fact holds values of the checked ``inst``.

    Whether a merge conflicts, and the final representatives, do not depend
    on the order of the merges, so they run in set order.  A failure's
    witness does: the equalities of each time that conflicts are merged
    again in canonical order, and the conflict met first in that order is
    reported.  Each time has a closure of its own, so a time that does not
    conflict neither comes first nor lengthens a chain, and is not merged
    again."""
    equalities = set(equalities)
    closures: dict[TimeValue, EqClosure] = {}
    conflicted: set[TimeValue] = set()
    for x, y, t in equalities:
        if t in conflicted:
            continue
        closure = closures.get(t) or closures.setdefault(t, EqClosure())
        if closure.merge(x, y) is not None:
            conflicted.add(t)
    if conflicted:
        return _first_conflict([e for e in equalities if e[2] in conflicted])
    reps_at = {t: reps for t, closure in closures.items() if (reps := closure.representatives())}
    replaced = [f for f in inst.facts if f.time in reps_at and not reps_at[f.time].keys().isdisjoint(f.values)]
    if not replaced:
        return Success(inst)
    rebuilt = {_new(Fact, (f.relation, tuple([reps_at[f.time].get(v, v) for v in f.values]), f.time))
               for f in replaced}
    return Success(_mark_checked(inst.replace_facts(inst.facts.difference(replaced) | rebuilt)))


def _precondition(inst: Instance, kind: str, reader: str, what: str, *, complete: bool) -> None:
    """The precondition of ``reader``, which its messages call the ``kind``
    ``what``: a well-formed ``kind`` instance (``model._check_kind``), and
    complete if asked."""
    _check_kind(inst, kind, reader)
    if complete and not is_complete(inst):
        raise PreconditionError(f"the {kind} {what} requires a complete instance")


def _tuple(statements: Iterable) -> tuple:
    """A collection as the tuple a mapping holds, for its check to refuse."""
    return tuple(statements) if isinstance(statements, Iterable) else statements


def _checked_st_round(inst: Instance, kind: str, rules: Sequence[SttTgd],
                      target: Iterable[RelationSchema]) -> Instance:
    """A public dependency round: its precondition, and the rules checked as
    the rules of a mapping from ``inst``'s schema to ``target``."""
    _precondition(inst, kind, f"st_round_{kind}", "dependency round", complete=True)
    m = Mapping(inst.schema, _tuple(target), _tuple(rules), (), ())
    _check_mapping(m)
    return _st_round(inst, m.sttgds, m.target)


def _checked_key_round(inst: Instance, kind: str, tkcs: Sequence[Tkc]) -> ChaseOutcome:
    """A public key round: its precondition, and the keys checked as the
    keys of a mapping into ``inst``'s schema."""
    _precondition(inst, kind, f"tkc_round_{kind}", "key round", complete=False)
    m = Mapping((), inst.schema, (), _tuple(tkcs), ())
    _check_mapping(m)
    return _key_round(inst, m.tkcs)


def st_round_concrete(inst: Instance, rules: Sequence[SttTgd],
                      target: Iterable[RelationSchema]) -> Instance:
    """Union of all dependency steps over every rule and left-hand-side binding.

    Requires a complete concrete instance; a rule of several atoms reads its
    join blocks cut (see the module).  Each fresh null is labeled by its
    Skolem term (see the module), so the output does not depend on the order
    the bindings are enumerated in, and every fragment of one source fact
    labels its nulls alike.
    """
    return _checked_st_round(inst, CONCRETE, rules, target)


def st_round_abstract(inst: Instance, rules: Sequence[SttTgd],
                      target: Iterable[RelationSchema]) -> Instance:
    """The dependency round over a complete abstract instance, fired once
    per binding at a time point: fresh nulls are held at the bound time
    point.  ``chase`` fires once per run of points instead (see the
    module), with the same result."""
    return _checked_st_round(inst, ABSTRACT, rules, target)


def tkc_round_concrete(inst: Instance, tkcs: Sequence[Tkc]) -> ChaseOutcome:
    """Close the equalities of every conflicting pair, then replace or fail.

    The key round ``chase`` runs (``_key_round``), over any concrete
    instance: the input is coalesced, only the key blocks that hold a key
    group with two facts at one time point are cut, and a success is
    coalesced; an input that violates no key is returned coalesced.  A
    null in a key position of a conflicting pair raises KeyNullViolation.
    """
    return _checked_key_round(inst, CONCRETE, tkcs)


def tkc_round_abstract(inst: Instance, tkcs: Sequence[Tkc]) -> ChaseOutcome:
    """The key round over an abstract instance, grouped per time point
    (``chase`` groups per piece of the runs; see the module).

    The three derivable cases: two distinct constants equated is a failure; a
    null equated with a constant is replaced by it at its time point; two
    nulls of one time point equated collapse onto a designated one.
    """
    return _checked_key_round(inst, ABSTRACT, tkcs)


def chase(src: Instance, m: Mapping) -> ChaseOutcome:
    """Dependency round, then key round, in the view of the source's kind.

    A concrete source is cut only where facts meet: each rule body per join
    block, and the dependency round's result per key block; a concrete
    result is coalesced.  An abstract source is read as its runs of
    consecutive points and chased so, and the result is written at its
    points, as the rounds over points would write it (see the module).  On
    success the result together with the source satisfies every
    dependency, and the result satisfies every key constraint.  A mapping
    built in code is refused first, with the first problem
    ``validate_mapping`` lists.
    """
    _check_mapping(m)
    src = conform_instance(src, m.source)
    _precondition(src, src.kind, "chase", "chase", complete=True)
    if src.kind == CONCRETE:
        return _key_round(_st_round(src, m.sttgds, m.target), m.tkcs)
    runs = _mark_checked(Instance(CONCRETE, src.schema, _runs(src)))
    outcome = _key_round(_st_round(runs, m.sttgds, m.target, runs=True), m.tkcs, runs=True)
    if isinstance(outcome, Failure):
        return Failure(outcome.constants, outcome.trace, outcome.time.start)
    result = outcome.instance
    points = {t: range(t.start, t.end) for t in {f.time for f in result.facts}}
    return Success(_mark_checked(Instance(ABSTRACT, result.schema, _cut(result.facts, points))))
