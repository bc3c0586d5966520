"""Schema-mapping DSL: relation declarations, dependencies, keys, named queries.

The concrete syntax is line oriented; one ``.``-terminated statement per line,
``#`` starts a comment.

    source Employee1(name, company, @time).
    target Emp(name, position, company, @time).
    rule Employee1(n, c, t) -> Emp(n, ?p, c, t), Sal(n, ?p, ?s, t).
    key Emp(name, @time).
    query q1(n, p, t) :- Emp(n, p, c, t), Sal(n, p, s, t).

``@`` marks the temporal attribute (always last, in declarations and keys).
In rules, ``?x`` marks an existentially quantified variable; quantifiers are
implicit.  ``key`` lists the attributes of the temporal key; every remaining
attribute is a dependent.  Query lines with the same name are disjuncts of one
union; body variables not listed in the head are existential.  Constants are
single-quoted strings; in an atom a constant is its ``str``, a variable a
``Var``.

Checking is split between syntax and structure.  The parser rejects only what
the syntax tree cannot hold: bad tokens, ``?`` and ``@`` marking, a literal in
the temporal slot, duplicate names and a query head redeclared differently.
Each structural rule (atoms of terms, relations on their side and of the right
arity, one temporal variable kept out of value positions, bound or existential
variables, key attributes and dependents, head variables in the body) is
written once, in the per-statement checks at the end of this module; a term
is an exact ``str`` or a ``Var`` named by one, and so is a temporal variable,
and a rule's existentials and a key's attributes are names, each an exact
``str``.
The parser raises the first problem they find at its token;
``validate_mapping`` reports them all for mappings built in code, and
``_check_mapping`` raises the first of them for the engine.  A mapping is
checked once, where it enters: what the parser returns, and a code-built
mapping that ``_check_mapping`` passes, is marked checked
(``model._mark_checked``).  A query is checked on each evaluation, parsed or
not, as a query over the schema of the instance it reads
(``query.naive_eval``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence, Union

from .errors import ParseError, SchemaError
from .model import RelationSchema, Violation, _mark_checked


@dataclass(frozen=True)
class Var:
    name: str


Term = Union[Var, str]  # a variable, or a constant as its string


@dataclass(frozen=True)
class Atom:
    """One relational atom: non-temporal terms plus the temporal variable (last)."""

    relation: str
    args: tuple[Term, ...]
    time_var: str


@dataclass(frozen=True)
class SttTgd:
    """Source-to-target dependency: lhs over the source schema, rhs over the target."""

    lhs: tuple[Atom, ...]
    rhs: tuple[Atom, ...]
    existentials: frozenset[str]

    @property
    def time_var(self) -> str:
        return self.lhs[0].time_var


@dataclass(frozen=True)
class Tkc:
    """Temporal key constraint: key attributes (temporal included) determine the rest."""

    relation: str
    key: frozenset[str]
    dependents: tuple[str, ...]


@dataclass(frozen=True)
class Ucq:
    """Union of conjunctive queries; the temporal head variable is always last."""

    name: str
    head: tuple[str, ...]
    time_var: str
    disjuncts: tuple[tuple[Atom, ...], ...]

    @property
    def columns(self) -> tuple[str, ...]:
        return (*self.head, self.time_var)


@dataclass(frozen=True)
class Mapping:
    source: tuple[RelationSchema, ...]
    target: tuple[RelationSchema, ...]
    sttgds: tuple[SttTgd, ...]
    tkcs: tuple[Tkc, ...]
    queries: tuple[Ucq, ...]

    @cached_property
    def source_by_name(self) -> dict[str, RelationSchema]:
        return {r.name: r for r in self.source}

    @cached_property
    def target_by_name(self) -> dict[str, RelationSchema]:
        return {r.name: r for r in self.target}

    def query(self, name: str) -> Ucq | None:
        for q in self.queries:
            if q.name == name:
                return q
        return None


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_KEYWORDS = ("source", "target", "rule", "key", "query")


@dataclass(frozen=True)
class _Token:
    kind: str  # "name" | "string" | "punct"
    text: str
    line: int
    col: int


def _tokenize_line(text: str, line_no: int) -> list[_Token]:
    toks: list[_Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        col = i + 1
        if text.startswith(("->", ":-"), i):
            toks.append(_Token("punct", text[i:i + 2], line_no, col))
            i += 2
        elif ch in "(),.@?":
            toks.append(_Token("punct", ch, line_no, col))
            i += 1
        elif ch == "'":
            j = text.find("'", i + 1)
            if j < 0:
                raise ParseError(line_no, col, "unterminated constant")
            toks.append(_Token("string", text[i + 1:j], line_no, col))
            i = j + 1
        elif ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Token("name", text[i:j], line_no, col))
            i = j
        else:
            raise ParseError(line_no, col, f"unexpected character {ch!r}")
    return toks


class _Cursor:
    def __init__(self, toks: list[_Token], line: int):
        self.toks = toks
        self.i = 0
        self.line = line

    def peek(self) -> _Token | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _eol_col(self) -> int:
        return self.toks[-1].col + len(self.toks[-1].text) if self.toks else 1

    def error(self, message: str, tok: _Token | None = None) -> ParseError:
        tok = tok if tok is not None else self.peek()
        if tok is None:
            return ParseError(self.line, self._eol_col(), message)
        return ParseError(tok.line, tok.col, message)

    def take(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            raise self.error(f"expected {what} before end of statement")
        self.i += 1
        return tok

    def expect_punct(self, text: str) -> _Token:
        tok = self.take(f"'{text}'")
        if tok.kind != "punct" or tok.text != text:
            raise self.error(f"expected '{text}', got {tok.text!r}", tok)
        return tok

    def expect_name(self, what: str = "a name") -> _Token:
        tok = self.take(what)
        if tok.kind != "name":
            raise self.error(f"expected {what}, got {tok.text!r}", tok)
        return tok

    def at_punct(self, text: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "punct" and tok.text == text

    def expect_end(self) -> None:
        self.expect_punct(".")
        tok = self.peek()
        if tok is not None:
            raise self.error("unexpected input after '.'", tok)


# ---------------------------------------------------------------------------
# Statement parsing
# ---------------------------------------------------------------------------


def _read_names(cur: _Cursor) -> tuple[list[_Token], _Token | None]:
    """``(a, b, @t)``: every name token, and the ``@``-marked one, which must be last."""
    cur.expect_punct("(")
    toks: list[_Token] = []
    temporal: _Token | None = None
    while True:
        marked = cur.at_punct("@")
        if marked:
            cur.expect_punct("@")
        tok = cur.expect_name("an attribute name")
        if any(t.text == tok.text for t in toks):
            raise cur.error(f"duplicate attribute {tok.text!r}", tok)
        if temporal is not None:
            raise cur.error("a relation has exactly one temporal attribute" if marked
                            else "the temporal attribute must be last", tok)
        toks.append(tok)
        if marked:
            temporal = tok
        if not cur.at_punct(","):
            break
        cur.expect_punct(",")
    cur.expect_punct(")")
    return toks, temporal


def _read_atoms(cur: _Cursor, toks: dict, first: int, marker_error: str | None) -> list[Atom]:
    """``R(term, ..., time), ...``: atoms numbered from ``first``.

    Records the tokens in ``toks`` under the locations the structural checks
    use: ``(i, None)`` for the relation name, ``(i, j)`` for term ``j`` (the
    ``?`` token of a marked variable).  ``marker_error`` rejects ``?`` here.
    """
    atoms: list[Atom] = []
    while True:
        i = first + len(atoms)
        rel = toks[i, None] = cur.expect_name("a relation name")
        cur.expect_punct("(")
        terms: list[Term] = []
        while True:
            tok = toks[i, len(terms)] = cur.take("a term")
            if tok.kind == "punct" and tok.text == "?":
                if marker_error is not None:
                    raise cur.error(marker_error, tok)
                terms.append(Var(cur.expect_name("a variable name").text))
            elif tok.kind == "name":
                terms.append(Var(tok.text))
            elif tok.kind == "string":
                terms.append(tok.text)
            else:
                raise cur.error(f"expected a term, got {tok.text!r}", tok)
            if not cur.at_punct(","):
                break
            cur.expect_punct(",")
        cur.expect_punct(")")
        if tok.kind != "name":
            raise cur.error("the temporal argument must be a plain variable", tok)
        atoms.append(Atom(rel.text, tuple(terms[:-1]), tok.text))
        if not cur.at_punct(","):
            return atoms
        cur.expect_punct(",")


def _raise_first(cur: _Cursor, problems: Iterator[_Problem], toks: dict) -> None:
    """Raise the first structural problem at the token its location names."""
    for _code, message, at in problems:
        raise cur.error(message, toks.get(at))


def _parse_declaration(cur: _Cursor) -> RelationSchema:
    name = cur.expect_name("a relation name")
    toks, temporal = _read_names(cur)
    if temporal is None:
        raise cur.error(f"relation {name.text!r} must declare a temporal attribute ('@name', last)")
    cur.expect_end()
    return RelationSchema(name.text, tuple(t.text for t in toks[:-1]), temporal.text)


def _parse_rule(cur: _Cursor, source: dict[str, RelationSchema],
                target: dict[str, RelationSchema]) -> SttTgd:
    toks: dict = {}
    lhs = _read_atoms(cur, toks, 0, "'?' marks existential variables and is only allowed "
                                    "on the right-hand side of a rule")
    cur.expect_punct("->")
    rhs = _read_atoms(cur, toks, len(lhs), None)
    cur.expect_end()
    rhs_terms = [(term, toks[i, j]) for i, atom in enumerate(rhs, len(lhs))
                 for j, term in enumerate(atom.args)]
    existentials = frozenset(term.name for term, tok in rhs_terms if tok.kind == "punct")
    dep = SttTgd(tuple(lhs), tuple(rhs), existentials)
    _raise_first(cur, _rule_problems(dep, source, target), toks)
    for term, tok in rhs_terms:
        if tok.kind == "name" and term.name in existentials:
            raise cur.error(f"variable {term.name!r} on the right-hand side is not bound on the "
                            f"left (write it as ?{term.name} at every occurrence)", tok)
    return dep


def _parse_key(cur: _Cursor, source: dict[str, RelationSchema],
               target: dict[str, RelationSchema]) -> Tkc:
    rel = cur.expect_name("a relation name")
    toks, temporal = _read_names(cur)
    schema = target.get(rel.text)
    if schema is not None:
        for tok in toks:
            if tok is temporal and tok.text != schema.temporal:
                raise cur.error(f"the temporal attribute of {schema.name!r} is "
                                f"{schema.temporal!r}", tok)
            if tok is not temporal and tok.text == schema.temporal:
                raise cur.error(f"write the temporal attribute as @{tok.text}", tok)
    key = frozenset(t.text for t in toks)
    dependents = tuple(a for a in schema.attributes if a not in key) if schema is not None else ()
    tkc = Tkc(rel.text, key, dependents)
    _raise_first(cur, _key_problems(tkc, source, target), {(0, None): rel, **{t.text: t for t in toks}})
    cur.expect_end()
    return tkc


def _parse_query(cur: _Cursor, source: dict[str, RelationSchema],
                 target: dict[str, RelationSchema]) -> Ucq:
    name = cur.expect_name("a query name")
    cur.expect_punct("(")
    head: list[_Token] = []
    while True:
        tok = cur.expect_name("a head variable")
        if any(t.text == tok.text for t in head):
            raise cur.error(f"duplicate head variable {tok.text!r}", tok)
        head.append(tok)
        if not cur.at_punct(","):
            break
        cur.expect_punct(",")
    cur.expect_punct(")")
    cur.expect_punct(":-")
    toks: dict = {t.text: t for t in head}
    body = _read_atoms(cur, toks, 0, "in a query body, variables absent from the head are "
                                     "existential; '?' markers are not allowed")
    cur.expect_end()
    q = Ucq(name.text, tuple(t.text for t in head[:-1]), head[-1].text, (tuple(body),))
    _raise_first(cur, _query_problems(q, source, target), toks)
    return q


def parse_mapping(text: str) -> Mapping:
    """Parse mapping text; raises ParseError with a source location on any defect."""
    statements: list[tuple[str, _Cursor]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, line_no)
        if not toks:
            continue
        head = toks[0]
        if head.kind != "name" or head.text not in _KEYWORDS:
            raise ParseError(head.line, head.col,
                             f"expected one of {', '.join(_KEYWORDS)}, got {head.text!r}")
        cur = _Cursor(toks, line_no)
        cur.i = 1
        statements.append((head.text, cur))

    source: list[RelationSchema] = []
    target: list[RelationSchema] = []
    declared: set[str] = set()
    for keyword, cur in statements:
        if keyword not in ("source", "target"):
            continue
        schema = _parse_declaration(cur)
        if schema.name in declared:
            raise ParseError(cur.line, 1, f"relation {schema.name!r} is already declared")
        declared.add(schema.name)
        (source if keyword == "source" else target).append(schema)

    source_by_name = {r.name: r for r in source}
    target_by_name = {r.name: r for r in target}
    sttgds: list[SttTgd] = []
    tkcs: list[Tkc] = []
    queries: dict[str, Ucq] = {}
    for keyword, cur in statements:
        if keyword == "rule":
            sttgds.append(_parse_rule(cur, source_by_name, target_by_name))
        elif keyword == "key":
            tkcs.append(_parse_key(cur, source_by_name, target_by_name))
        elif keyword == "query":
            q = _parse_query(cur, source_by_name, target_by_name)
            prev = queries.get(q.name)
            if prev is not None:
                if prev.columns != q.columns:
                    raise ParseError(cur.line, 1,
                                     f"query {q.name!r} is redeclared with a different head")
                q = Ucq(q.name, q.head, q.time_var, (*prev.disjuncts, *q.disjuncts))
            queries[q.name] = q

    # breaks no rule: the first problem of each statement was raised
    return _mark_checked(Mapping(tuple(source), tuple(target), tuple(sttgds), tuple(tkcs), tuple(queries.values())))


# ---------------------------------------------------------------------------
# Structural rules, written once for parsed and code-built mappings
# ---------------------------------------------------------------------------

# (code, message, at): ``at`` is where in its statement the problem lies, as
# ``(i, j)`` for term ``j`` of atom ``i`` (``j`` None for the relation name; the
# temporal term is ``j == len(args)``), a key attribute or head variable name,
# or None for the statement as a whole.
_Problem = tuple[str, str, tuple[int, int | None] | str | None]


def _term_problems(atoms: Sequence[Atom]) -> list[_Problem]:
    """Each atom whose args are not a ``tuple`` of terms, each a constant (a
    ``str``) or a ``Var`` named by a ``str``, or whose temporal variable is
    not a ``str``, each class exact.  A statement's other rules read only
    terms, so ``validate_mapping`` checks them only when this finds none."""
    return [("not-a-term", f"atom {atom.relation!r}{atom.args!r} at {atom.time_var!r}: its args must be a tuple "
             f"of terms, each a str or a Var named by a str, and its temporal variable a str", (i, None))
            for i, atom in enumerate(atoms)
            if atom.args.__class__ is not tuple or atom.time_var.__class__ is not str or any(
                t.__class__ is not str and not (t.__class__ is Var and t.name.__class__ is str) for t in atom.args)]


def _name_problems(fields: Sequence[tuple[str, object, type]]) -> list[_Problem]:
    """Each ``(field, names, cls)`` whose names are not a ``cls`` of names,
    each a ``str``, each class exact: a rule's ``existentials`` and a key's
    ``key`` are a ``frozenset``, a key's ``dependents`` a ``tuple``.  A
    statement's other rules sort and compare these names, so
    ``validate_mapping`` checks them only when this finds none."""
    return [("not-a-name", f"its {field} must be a {cls.__name__} of names, each a str", None)
            for field, names, cls in fields
            if names.__class__ is not cls or any(n.__class__ is not str for n in names)]


def _atom_problems(i: int, atom: Atom, time_var: str, here: dict[str, RelationSchema],
                   there: dict[str, RelationSchema], side: str) -> Iterator[_Problem]:
    schema = here.get(atom.relation)
    if schema is None:
        if atom.relation in there:
            other = "target" if side == "source" else "source"
            yield ("wrong-schema-side", f"{other} relation {atom.relation!r} cannot be used here "
                   f"(a {side} relation is required)", (i, None))
        else:
            yield "unknown-relation", f"unknown {side} relation {atom.relation!r}", (i, None)
    elif len(atom.args) != schema.arity:
        yield ("arity-mismatch", f"relation {schema.name!r} expects {schema.arity + 1} arguments, "
               f"got {len(atom.args) + 1}", (i, None))
    if atom.time_var != time_var:
        yield ("temporal-variable", f"all atoms must share one temporal variable "
               f"(expected {time_var!r}, got {atom.time_var!r})", (i, len(atom.args)))
    for j, term in enumerate(atom.args):
        if term == Var(time_var):
            yield ("temporal-variable",
                   f"temporal variable {time_var!r} cannot be used in a value position", (i, j))


def _rule_problems(dep: SttTgd, source: dict[str, RelationSchema],
                   target: dict[str, RelationSchema]) -> Iterator[_Problem]:
    """A left-hand side; sides, arity and one temporal variable per atom; every rhs
    variable bound or existential."""
    atoms = (*dep.lhs, *dep.rhs)
    if not dep.lhs:
        yield "empty-side", "the left-hand side has no atoms", None
    lhs_vars = {t.name for a in dep.lhs for t in a.args if isinstance(t, Var)}
    for i, atom in enumerate(atoms):
        if i < len(dep.lhs):
            yield from _atom_problems(i, atom, atoms[0].time_var, source, target, "source")
            continue
        yield from _atom_problems(i, atom, atoms[0].time_var, target, source, "target")
        for j, term in enumerate(atom.args):
            if not isinstance(term, Var):
                continue
            if term.name in dep.existentials and term.name in lhs_vars:
                yield ("existential-variable",
                       f"existential variable ?{term.name} also occurs on the left-hand side", (i, j))
            elif term.name not in dep.existentials and term.name not in lhs_vars:
                yield ("unsafe-variable",
                       f"variable {term.name!r} on the right-hand side is not bound on the left", (i, j))
    rhs_vars = {t.name for a in dep.rhs for t in a.args if isinstance(t, Var)}
    for v in sorted(dep.existentials - rhs_vars):
        yield "existential-variable", f"existential variable ?{v} does not occur on the right-hand side", None


def _key_problems(tkc: Tkc, source: dict[str, RelationSchema],
                  target: dict[str, RelationSchema]) -> Iterator[_Problem]:
    """A target relation whose attributes split into the key (temporal included) and dependents."""
    schema = target.get(tkc.relation)
    if schema is None:
        if tkc.relation in source:
            yield ("wrong-schema-side",
                   f"keys apply to target relations; {tkc.relation!r} is a source relation", (0, None))
        else:
            yield "unknown-relation", f"unknown target relation {tkc.relation!r}", (0, None)
        return
    for a in sorted(tkc.key - set(schema.all_attributes)):
        yield "key-violation", f"unknown attribute {a!r} of relation {schema.name!r}", a
    if schema.temporal not in tkc.key:
        yield "key-violation", f"a temporal key must include @{schema.temporal}", None
    if not tkc.dependents:
        yield ("key-violation",
               "the key covers every attribute; at least one dependent attribute is required", None)
    expected = tuple(a for a in schema.attributes if a not in tkc.key)
    if tkc.dependents != expected:
        yield ("key-violation", f"key and dependents must partition the attributes "
               f"(expected dependents {expected})", None)


def _query_problems(q: Ucq, source: dict[str, RelationSchema],
                    target: dict[str, RelationSchema]) -> Iterator[_Problem]:
    """Per disjunct: at least one target atom, all over the head's temporal variable,
    holding every head variable."""
    for k, body in enumerate(q.disjuncts):
        if not body:
            yield "empty-side", f"disjunct #{k} has no atoms", None
        for i, atom in enumerate(body):
            yield from _atom_problems(i, atom, q.time_var, target, source, "target")
        body_vars = {t.name for a in body for t in a.args if isinstance(t, Var)}
        for v in q.head:
            if v not in body_vars:
                yield "head-variable", f"head variable {v!r} does not occur in the body", v


def validate_mapping(m: Mapping) -> list[Violation]:
    """Every structural problem of a mapping, each distinct one once, prefixed with its statement."""
    out: list[Violation] = []
    names = [r.name for r in (*m.source, *m.target)]
    for name in sorted({n for n in names if names.count(n) > 1}):
        out.append(Violation("duplicate-relation", f"relation {name!r} declared more than once"))
    for r in (*m.source, *m.target):
        attributes = r.all_attributes
        out += [Violation("duplicate-attribute", f"relation {r.name!r}: duplicate attribute {a!r}")
                for a in sorted({a for a in attributes if attributes.count(a) > 1})]
    src, tgt = m.source_by_name, m.target_by_name
    checks = [(f"rule #{i}", _term_problems((*dep.lhs, *dep.rhs))
               + _name_problems([("existentials", dep.existentials, frozenset)]) or _rule_problems(dep, src, tgt))
              for i, dep in enumerate(m.sttgds)]
    checks += [(f"key #{i} on {tkc.relation!r}",
                _name_problems([("key", tkc.key, frozenset), ("dependents", tkc.dependents, tuple)])
                or _key_problems(tkc, src, tgt)) for i, tkc in enumerate(m.tkcs)]
    checks += [(f"query {q.name!r}", _term_problems([a for body in q.disjuncts for a in body])
                or _query_problems(q, src, tgt)) for q in m.queries]
    for where, problems in checks:
        out += [Violation(code, f"{where}: {message}") for code, message, _at in problems]
    queries = [q.name for q in m.queries]
    for name in sorted({n for n in queries if queries.count(n) > 1}):
        out.append(Violation("duplicate-query", f"query {name!r}: name used by more than one query"))
    return list(dict.fromkeys(out))


def _check_mapping(m: Mapping) -> None:
    """Raise SchemaError with ``validate_mapping(m)[0].message`` if a mapping
    built in code breaks a structural rule, as ``model._check_instance``
    refuses an instance; a clean one is marked checked, as the parser marks
    what it returns, and not checked again."""
    if not m.__dict__.get("_checked"):
        problems = validate_mapping(m)
        if problems:
            raise SchemaError(problems[0].message)
        _mark_checked(m)
