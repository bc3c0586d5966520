"""The traced pass: each CLI command rebuilt from the public stage functions.

A traced op calls the same functions, in the same order, as the ``tdx``
command it stands for, and wraps each call in a span.  Spans live in memory
(name, start, end, parent, op id) and are written out when the run ends.
Counts are taken from the stage inputs and outputs after the op has ended,
so counting adds nothing to any span.

Stage functions are looked up by name on the ``tdx`` package.  When one is
missing (say, the two rounds were merged into one function), the stage is
reported absent and the enclosing call is timed instead.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Iterator

# Span names whose self time becomes a per-layer metric ("<name>_s").
LAYER_SPANS = (
    "mapping_lang.parse", "model.load", "model.normalize",
    "chase_concrete.st_round", "chase_concrete.tkc_round",
    "chase_abstract.st_round", "chase_abstract.tkc_round",
    "model.sem", "homomorphism.find_hom", "query.naive_eval", "model.dump",
)
# Counts per pass; model.normalize_facts_in is only the base of model.normalize_blowup.
COUNTS = (
    "model.load_facts", "model.normalize_facts_in", "model.normalize_fragments",
    "chase_concrete.st_facts", "chase_concrete.st_nulls",
    "chase_concrete.tkc_conflict_pairs", "chase_concrete.tkc_nulls_replaced",
    "chase_abstract.st_facts", "chase_abstract.tkc_nulls_replaced",
    "model.sem_facts", "homomorphism.hom_facts", "homomorphism.candidate_pairs",
    "query.eval_facts_in", "query.rows", "model.dump_bytes",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op")

    def __init__(self, name: str, start: float, parent: int, op: int):
        self.name, self.start, self.end, self.parent, self.op = name, start, start, parent, op


class Tracer:
    """The spans of one run; ``begin_op`` starts a new op id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self.op_count = 0

    def begin_op(self) -> None:
        self.op_count += 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = Span(name, perf_counter(), parent, self.op_count)
        self.spans.append(span)
        try:
            yield
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def self_times(self, first: int, scale: dict[int, float]) -> dict[str, float]:
        """Self time summed per span name over ``spans[first:]``, each span's
        time multiplied by the ``scale`` of its op."""
        child = [0.0] * len(self.spans)
        for s in self.spans[first:]:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict[str, float] = {}
        for i in range(first, len(self.spans)):
            s = self.spans[i]
            own = (s.end - s.start) - child[i]
            out[s.name] = out.get(s.name, 0.0) + own * scale.get(s.op, 1.0)
        return out

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "op": s.op}) + "\n")


class TracedRunner:
    """Runs one traced op and records what to count once it has ended."""

    def __init__(self, tdx, tracer: Tracer):
        self.tdx = tdx
        self.t = tracer
        self.observed: list[tuple] = []

    def stage(self, name: str):
        fn = getattr(self.tdx, name, None)
        if fn is None:
            self.t.absent.add(name)
        return fn

    # -- shared pieces ---------------------------------------------------

    def _load(self, path: str):
        text = Path(path).read_text(encoding="utf-8")
        with self.t.span("model.load"):
            inst = self.tdx.loads_instance(text)
        self.observed.append(("load", inst))
        return inst

    def _mapping(self, path: str):
        text = Path(path).read_text(encoding="utf-8")
        with self.t.span("mapping_lang.parse"):
            return self.tdx.parse_mapping(text)

    def _chase(self, src, mapping, concrete: bool):
        tdx = self.tdx
        prefix = "chase_concrete" if concrete else "chase_abstract"
        names = (["conform_instance", "is_complete", "normalize_instance",
                  "st_round_concrete", "tkc_round_concrete"] if concrete else
                 ["conform_instance", "is_complete", "st_round_abstract", "tkc_round_abstract"])
        fns = [self.stage(n) for n in names]
        if None in fns:
            with self.t.span(f"{prefix}.chase"):
                return (tdx.chase_concrete if concrete else tdx.chase_abstract)(src, mapping)
        conform, is_complete, *rounds = fns
        src = conform(src, mapping.source)
        if not is_complete(src):
            raise tdx.PreconditionError("the source instance must be complete")
        if concrete:
            normalize, st_round, tkc_round = rounds
            with self.t.span("model.normalize"):
                norm = normalize(src)
            self.observed.append(("normalize", src, norm))
        else:
            norm = src
            st_round, tkc_round = rounds
        with self.t.span(f"{prefix}.st_round"):
            staged = st_round(norm, mapping.sttgds, mapping.target)
        with self.t.span(f"{prefix}.tkc_round"):
            outcome = tkc_round(staged, mapping.tkcs)
        self.observed.append((prefix, staged, mapping.tkcs, outcome))
        return outcome

    def _dump_outcome(self, outcome, render) -> tuple[int, str]:
        tdx = self.tdx
        if isinstance(outcome, tdx.Failure):
            failure_text = getattr(tdx.cli, "_failure_text", None)
            if failure_text is None:
                self.t.absent.add("cli._failure_text")
                raise LookupError("no failure renderer")
            with self.t.span("model.dump"):
                return 2, failure_text(outcome)
        with self.t.span("model.dump"):
            return 0, render(outcome)

    # -- the commands ----------------------------------------------------

    def chase(self, mapping: str, source: str, output: str, concrete: bool) -> tuple[int, str]:
        tdx = self.tdx
        with self.t.span("cli.chase" if concrete else "cli.achase"):
            m = self._mapping(mapping)
            src = self._load(source)
            if src.kind != (tdx.CONCRETE if concrete else tdx.ABSTRACT):
                return 1, ""
            outcome = self._chase(src, m, concrete)
            code, text = self._dump_outcome(outcome, lambda o: tdx.dumps_instance(o.instance))
            Path(output).write_text(text, encoding="utf-8")
        self.observed.append(("dump", text))
        return code, ""

    def certain(self, mapping: str, source: str, query: str, output: str) -> tuple[int, str]:
        tdx = self.tdx
        with self.t.span("cli.certain"):
            m = self._mapping(mapping)
            src = self._load(source)
            q = m.query(query)
            if q is None:
                return 1, ""
            outcome = self._chase(src, m, src.kind == tdx.CONCRETE)
            answers = None
            if not isinstance(outcome, tdx.Failure):
                with self.t.span("query.naive_eval"):
                    answers = tdx.naive_eval(q, outcome.instance)
            code, text = self._dump_outcome(
                outcome, lambda o: tdx.dumps_instance(tdx.answers_to_instance(answers)))
            Path(output).write_text(text, encoding="utf-8")
        if answers is not None:
            self.observed.append(("eval", outcome.instance, answers))
        self.observed.append(("dump", text))
        return code, ""

    def sem(self, source: str, horizon: int, output: str) -> tuple[int, str]:
        tdx = self.tdx
        with self.t.span("cli.sem"):
            inst = self._load(source)
            if inst.kind != tdx.CONCRETE or horizon < (tdx.max_finite_endpoint(inst) or 0):
                return 1, ""
            with self.t.span("model.sem"):
                expanded = tdx.sem_instance(inst, horizon)
            with self.t.span("model.dump"):
                doc = tdx.instance_to_json(expanded)
                doc["horizon"] = horizon
                text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
            Path(output).write_text(text, encoding="utf-8")
        self.observed.append(("sem", expanded))
        self.observed.append(("dump", text))
        return 0, ""

    def equiv(self, a_path: str, b_path: str, horizon: int) -> tuple[int, str]:
        tdx = self.tdx
        with self.t.span("cli.equiv"):
            sides = [self._load(a_path), self._load(b_path)]
            needed = max((tdx.max_finite_endpoint(s) or 0 for s in sides if s.kind == tdx.CONCRETE),
                         default=0)
            if horizon < needed:
                return 1, ""
            for i, inst in enumerate(sides):
                if inst.kind == tdx.CONCRETE:
                    with self.t.span("model.sem"):
                        sides[i] = tdx.sem_instance(inst, horizon)
                    self.observed.append(("sem", sides[i]))
            a, b = sides
            ok = self._find_hom(a, b) and self._find_hom(b, a)
        return (0, "equivalent\n") if ok else (3, "not equivalent\n")

    def _find_hom(self, a, b) -> bool:
        with self.t.span("homomorphism.find_hom"):
            hom = self.tdx.find_abstract_hom(a, b)
        self.observed.append(("hom", a, b))
        return hom is not None

    # -- counting, after the op ------------------------------------------

    def count(self, counts: Counter) -> None:
        for obs in self.observed:
            kind = obs[0]
            if kind == "load":
                counts["model.load_facts"] += len(obs[1].facts)
            elif kind == "normalize":
                counts["model.normalize_facts_in"] += len(obs[1].facts)
                counts["model.normalize_fragments"] += len(obs[2].facts)
            elif kind in ("chase_concrete", "chase_abstract"):
                _, staged, tkcs, outcome = obs
                nulls_in = _nulls(staged)
                counts[f"{kind}.st_facts"] += len(staged.facts)
                if kind == "chase_concrete":
                    counts["chase_concrete.st_nulls"] += len({v.label for v in nulls_in})
                    counts["chase_concrete.tkc_conflict_pairs"] += _conflict_pairs(staged, tkcs)
                if hasattr(outcome, "instance"):
                    counts[f"{kind}.tkc_nulls_replaced"] += len(nulls_in - _nulls(outcome.instance))
            elif kind == "sem":
                counts["model.sem_facts"] += len(obs[1].facts)
            elif kind == "hom":
                _, a, b = obs
                sizes = Counter((g.relation, g.time) for g in b.facts)
                counts["homomorphism.hom_facts"] += len(a.facts)
                counts["homomorphism.candidate_pairs"] += sum(sizes[(f.relation, f.time)]
                                                              for f in a.facts)
            elif kind == "eval":
                counts["query.eval_facts_in"] += len(obs[1].facts)
                counts["query.rows"] += len(obs[2].rows)
            elif kind == "dump":
                counts["model.dump_bytes"] += len(obs[1].encode("utf-8"))
        self.observed.clear()


def _nulls(inst) -> set:
    return {v for f in inst.facts for v in f.values if hasattr(v, "label")}


def _conflict_pairs(inst, tkcs) -> int:
    """Fact pairs that agree on relation, key values and time."""
    pairs = 0
    for tkc in tkcs:
        schema = inst.schema_by_name[tkc.relation]
        key = [i for i, a in enumerate(schema.attributes) if a in tkc.key]
        groups = Counter((f.time, tuple(f.values[i] for i in key))
                         for f in inst.facts if f.relation == tkc.relation)
        pairs += sum(n * (n - 1) // 2 for n in groups.values())
    return pairs
