"""Output checks for the tdx benchmark that do not use the engine.

Each check reads the program's output as plain JSON and compares it, time
point by time point, with what the generated source implies.  Working on
points rather than fragments lets a change relabel nulls or move fragment
boundaries without failing a check.  A check returns ``None`` when the output
is right and a one-line reason when it is not.

The chase checks encode what ``example1.tdx`` must produce on a source in
which, for each person and point, at most one company and at most one
position is known: one ``Emp`` and one ``Sal`` fact per covered point, with
the known constants in place and distinct nulls elsewhere, and the position
of ``Emp`` and ``Sal`` being the same value.
"""
from __future__ import annotations

from typing import Iterator, Optional

from workloads import Fact


def _points(doc: dict, horizon: int) -> Iterator[tuple[str, list, int]]:
    """(relation, values, t) for every point of every fact below ``horizon``.

    A null ``{"null": L}`` at point t becomes ``("null", L, t)``: in both
    views a null is identified by its label and its temporal context.
    """
    for rel, body in doc["relations"].items():
        for fact in body["facts"]:
            if "time" in fact:
                times = [fact["time"]]
            else:
                iv = fact["interval"]
                end = horizon if iv["end"] == "inf" else min(iv["end"], horizon)
                times = range(iv["start"], end)
            for t in times:
                values = [("null", v["null"], t) if isinstance(v, dict) else v
                          for v in fact["values"]]
                yield rel, values, t


def _covered(facts: list[Fact], horizon: int) -> Iterator[tuple[Fact, int]]:
    for f in facts:
        _, _, start, end = f
        for t in range(start, horizon if end is None else min(end, horizon)):
            yield f, t


def expected_positions(source: list[Fact], horizon: int) -> dict:
    """(name, t) -> [company or None, position or None] for every covered point."""
    known: dict = {}
    for (rel, values, _, _), t in _covered(source, horizon):
        slot = known.setdefault((values[0], t), [None, None])
        if rel == "Employee1":
            slot[0] = values[1]
        else:
            slot[1] = values[1]
    return known


def check_example1_chase(source: list[Fact], horizon: int, out: dict) -> Optional[str]:
    """A successful example1 chase, concrete or abstract, checked point-wise."""
    known = expected_positions(source, horizon)
    emp: dict = {}
    sal: dict = {}
    for rel, values, t in _points(out, horizon):
        table = {"Emp": emp, "Sal": sal}.get(rel)
        if table is None or len(values) != 3:
            return f"unexpected fact {rel}{values} at {t}"
        if (values[0], t) in table:
            return f"two {rel} facts for {values[0]} at {t}"
        table[(values[0], t)] = values
    if set(emp) != set(known) or set(sal) != set(known):
        missing = sorted(set(known) - set(emp) - set(sal))[:1]
        return f"facts cover the wrong points (first missing: {missing})"
    owner: dict = {}
    for key, (company, position) in known.items():
        _, e_pos, e_comp = emp[key]
        _, s_pos, s_salary = sal[key]
        for value, want, role in ((e_comp, company, "company"), (e_pos, position, "position"),
                                  (s_salary, None, "salary")):
            if want is not None and value != want:
                return f"{role} of {key} is {value!r}, expected {want!r}"
            if want is None:
                if not isinstance(value, tuple):
                    return f"{role} of {key} is {value!r}, expected a null"
                if owner.setdefault(value, (key, role)) != (key, role):
                    return f"null {value} stands for two unknowns"
        if s_pos != e_pos:
            return f"Emp and Sal disagree on the position of {key}"
    return None


def check_answers(source: list[Fact], horizon: int, out: dict) -> Optional[str]:
    """Certain answers of ``positions`` or ``paid_positions``: exactly the
    (name, position, t) points where the position is known."""
    want = {(name, pos, t) for (name, t), (_, pos) in
            expected_positions(source, horizon).items() if pos is not None}
    got = set()
    for _, values, t in _points(out, horizon):
        if len(values) != 2 or not all(isinstance(v, str) for v in values):
            return f"malformed answer {values} at {t}"
        got.add((values[0], values[1], t))
    if got != want:
        diff = sorted(got ^ want)[:1]
        return f"{len(got)} answer points, expected {len(want)} (first difference: {diff})"
    return None


def check_sem(source: list[Fact], horizon: int, out: dict) -> Optional[str]:
    """``sem`` of a complete source: one abstract fact per point, no more."""
    if out.get("kind") != "abstract" or out.get("horizon") != horizon:
        return "sem output is not an abstract instance at the requested horizon"
    want = {(rel, tuple(values), t) for (rel, values, _, _), t in _covered(source, horizon)}
    got = [(rel, tuple(values), t) for rel, values, t in _points(out, horizon)]
    if len(got) != len(want) or set(got) != want:
        return f"sem wrote {len(got)} facts, expected {len(want)}"
    return None


def check_equiv(code: int, stdout: str) -> Optional[str]:
    if code != 0 or stdout != "equivalent\n":
        return f"equiv exited {code} with {stdout!r}, expected 0 and 'equivalent'"
    return None


def check_failure(witness: tuple[str, str], out: dict) -> Optional[str]:
    """The failure names the expected constants, and its trace is a chain of
    equalities leading from the first to the second."""
    failure = out.get("failure")
    if not isinstance(failure, dict):
        return "no failure document"
    if tuple(failure.get("constants", ())) != witness:
        return f"witness {failure.get('constants')}, expected {list(witness)}"
    trace = failure.get("trace")
    if not trace:
        return "empty equality trace"
    at = witness[0]
    for x, y in trace:
        if x != at:
            return f"trace breaks at {x!r}"
        at = y
    if at != witness[1]:
        return f"trace ends at {at!r}, not {witness[1]!r}"
    return None
