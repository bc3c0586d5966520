"""The tdx benchmark: seeded workloads driven through the real CLI.

    python3 perfbench/run.py --workload careers --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the engine is imported from ``src/``.
One client runs one command at a time (a closed loop, no threads), calling
``tdx.cli.run_cli`` in process with its files in a scratch directory under
``.perfbench/``.  Every output is checked by ``checks.py``, which does not use
the engine.

A workload times its primary command at three sizes (S, 2S, 4S) and every
command at 4S.  A pass runs each of these ops once.  Set-up (generate and
write the inputs, make the ``equiv`` inputs, one warm-up pass) is repeated
three times and ``setup_s`` is its median.  Passes then repeat for
``--seconds``; each timing metric is the median over passes at 4S, and
``facts_per_s`` is the median over passes of the generated source facts behind
every op of the pass divided by the pass's busy time.

Times are reported in reference seconds.  A fixed pure-Python loop
(``reference_work``, no engine code) is timed before every op and at the end
of each pass, and each op time is divided by the mean of the two reference
times around it, then multiplied by ``REF_SCALE_S``.  On a shared host the
speed of the whole machine drifts by up to 40% over minutes, which moves raw
medians of identical work by 10-30% from run to run; the ratio cancels that
drift.  The raw medians are printed next to each end-to-end metric.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, in which each command is rebuilt from the
engine's public stage functions (``tracing.py``), and prints the per-layer
metrics.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import COUNTS, LAYER_SPANS, TracedRunner, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    EXAMPLE1_SOURCE, WORKLOADS, Scenario, Workload, abstract_doc, concrete_doc, dump,
)

SETUP_REPS = 3
OP_CAP_S = 30.0         # one op that runs longer counts as failed and is not run again
RUN_LIMIT_S = 150.0     # no op starts later than this after the process started
REF_SCALE_S = 0.015     # reference_work takes REF_SCALE_S reference seconds

E2E_TIMES = {  # op kind -> end-to-end metric, taken at the largest size
    "certain": "certain_s", "chase": "chase_s", "achase": "achase_s",
    "sem": "sem_s", "equiv": "equiv_s", "nosolution": "nosolution_s",
}


def reference_work() -> int:
    """The fixed workload that times are measured against: dict, tuple and
    string operations, like the engine's; about 15 ms on a 2-core x86 VM."""
    table: dict = {}
    for i in range(20000):
        key = (i % 97, str(i % 101))
        table[key] = table.get(key, 0) + i
    return len(sorted(table.items()))


@dataclass
class Pass:
    """One pass: raw op times, the reference times around them, and the op
    times in reference seconds (None for an op that crashed or did not run)."""

    raw: dict[str, Optional[float]]
    refs: list[float]
    norm: dict[str, Optional[float]]

    def busy(self) -> float:
        return sum(t for t in self.norm.values() if t is not None)


class OpTimeout(BaseException):
    """Raised by the alarm when an op runs past its cap."""


def _alarm(signum, frame):
    raise OpTimeout()


@dataclass
class Op:
    id: str
    kind: str
    size: int
    argv: list[str]
    expect: int                        # exit code
    check: Callable[[int, str, bytes], Optional[str]]
    output: Optional[Path]
    facts_in: int
    traced: Callable[[TracedRunner], tuple[int, str]]


def import_engine():
    """Import ``tdx`` from ``src/`` of this checkout, or exit 2."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import tdx
        import tdx.cli
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import tdx from {src}: {exc}\n")
        raise SystemExit(2)
    if Path(tdx.__file__).resolve().parent != (src / "tdx").resolve():
        sys.stderr.write(f"perfbench: tdx was imported from {tdx.__file__}, not {src}\n")
        raise SystemExit(2)
    return tdx


def _json_check(fn):
    def check(code: int, stdout: str, data: bytes) -> Optional[str]:
        try:
            doc = json.loads(data)
        except ValueError as exc:
            return f"unreadable output: {exc}"
        return fn(doc)
    return check


class Bench:
    """One workload at one seed: its inputs, its ops and the passes over them."""

    def __init__(self, tdx, workload: Workload, seed: int, smoke: bool, started: float):
        self.tdx = tdx
        self.w = workload
        self.seed = seed
        self.sizes = workload.smoke_sizes if smoke else workload.sizes
        self.deadline = started + RUN_LIMIT_S
        self.work = ROOT / ".perfbench" / f"{workload.name}-{seed}-{os.getpid()}"
        self.inputs = self.work / "in"
        self.outputs = self.work / "out"
        self.attempted = 0
        self.failures: list[str] = []
        self.disabled: set[str] = set()
        self.expected: dict[str, tuple[str, Optional[str]]] = {}  # op id -> first digest, verdict
        self.input_digest: Optional[str] = None
        self.generated = ""
        self.counts: Counter = Counter()
        self.op_scale: dict[int, float] = {}  # traced op id -> its reference-second factor
        self.tracer = Tracer()
        self.runner = TracedRunner(tdx, self.tracer)
        self.prep: list[Op] = []
        self.ops: list[Op] = []

    # -- inputs and ops ---------------------------------------------------

    def _write(self, name: str, doc: dict) -> str:
        path = self.inputs / name
        path.write_text(dump(doc), encoding="utf-8")
        return str(path)

    def generate(self) -> None:
        """Generate and write every input, then list the ops that read them."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs.mkdir(parents=True)
        self.outputs.mkdir()
        m1 = str(HERE / "mappings" / "example1.tdx")
        m3 = str(HERE / "mappings" / "example3.tdx")
        self.prep, self.ops = [], []
        digest = hashlib.sha256()
        for k, n in enumerate(self.sizes):
            sc = self.w.generate(n, random.Random(f"{self.seed}:{k}"))
            src = self._write(f"src{k}.json", concrete_doc(EXAMPLE1_SOURCE, sc.source))
            asrc = self._write(f"asrc{k}.json", abstract_doc(EXAMPLE1_SOURCE, sc.source, sc.horizon))
            fail = self._write(f"fail{k}.json", concrete_doc(sc.failing_schema, sc.failing))
            afail = self._write(f"afail{k}.json",
                                abstract_doc(sc.failing_schema, sc.failing, sc.failing_horizon))
            for path in (src, asrc, fail, afail):
                digest.update(Path(path).read_bytes())
            fail_map = m1 if sc.failing_schema is EXAMPLE1_SOURCE else m3
            kinds = ["sem", "chase", "achase", "certain", "equiv", "nosolution"]
            if fail_map == m3:
                kinds.append("nosolution-abstract")
            if k < len(self.sizes) - 1:
                kinds = [self.w.primary]
            if "equiv" in kinds:
                eqa, eqb = self.inputs / f"eqa{k}.json", self.inputs / f"eqb{k}.json"
                self.prep += [self._chase_op(f"prep-chase@{k}", "chase", k, m1, src, eqa, sc, True),
                              self._chase_op(f"prep-achase@{k}", "achase", k, m1, asrc, eqb, sc,
                                             False)]
            for kind in kinds:
                self.ops.append(self._op(kind, k, sc, m1, fail_map, src, asrc, fail, afail))
        self.generated = digest.hexdigest()

    def _chase_op(self, op_id, kind, k, mapping, src, out, sc: Scenario, concrete) -> Op:
        return Op(op_id, kind, k, [kind, "-m", mapping, "-i", src, "-o", str(out)], 0,
                  _json_check(lambda d: checks.check_example1_chase(sc.source, sc.horizon, d)),
                  out, len(sc.source),
                  lambda r: r.chase(mapping, src, str(out), concrete))

    def _op(self, kind, k, sc: Scenario, m1, fail_map, src, asrc, fail, afail) -> Op:
        op_id = f"{kind}@{k}"
        out = self.outputs / f"{op_id}.json"
        if kind in ("chase", "achase"):
            concrete = kind == "chase"
            return self._chase_op(op_id, kind, k, m1, src if concrete else asrc, out, sc, concrete)
        if kind == "sem":
            h = str(sc.horizon)
            return Op(op_id, kind, k, ["sem", "-i", src, "--horizon", h, "-o", str(out)], 0,
                      _json_check(lambda d: checks.check_sem(sc.source, sc.horizon, d)),
                      out, len(sc.source), lambda r: r.sem(src, sc.horizon, str(out)))
        if kind == "certain":
            q = self.w.query
            return Op(op_id, kind, k, ["certain", "-m", m1, "-i", src, "-q", q, "-o", str(out)], 0,
                      _json_check(lambda d: checks.check_answers(sc.source, sc.horizon, d)),
                      out, len(sc.source), lambda r: r.certain(m1, src, q, str(out)))
        if kind == "equiv":
            a, b, h = str(self.inputs / f"eqa{k}.json"), str(self.inputs / f"eqb{k}.json"), sc.horizon
            return Op(op_id, kind, k, ["equiv", "-a", a, "-b", b, "--horizon", str(h)], 0,
                      lambda code, stdout, data: checks.check_equiv(code, stdout),
                      None, len(sc.source), lambda r: r.equiv(a, b, h))
        concrete = kind == "nosolution"
        path = fail if concrete else afail
        return Op(op_id, kind, k, ["chase" if concrete else "achase", "-m", fail_map, "-i", path,
                                   "-o", str(out)], 2,
                  _json_check(lambda d: checks.check_failure(sc.witness, d)),
                  out, len(sc.failing), lambda r: r.chase(fail_map, path, str(out), concrete))

    # -- running ----------------------------------------------------------

    def _fail(self, op: Op, reason: str) -> None:
        self.failures.append(f"{op.id}: {reason}")

    def run_op(self, op: Op, traced: bool = False) -> Optional[float]:
        """Run one op and check its output.

        Returns its time (the cap if it timed out), or None if it crashed or
        was not run; a wrong output is recorded as a failure but still timed."""
        self.attempted += 1
        cap = min(OP_CAP_S, self.deadline - time.monotonic())
        if op.id in self.disabled or cap <= 0:
            self._fail(op, "not run: an earlier run timed out or the run is out of time")
            return None
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = time.perf_counter()
                if traced:
                    code, stdout = self._traced(op)
                else:
                    code = self.tdx.cli.run_cli(op.argv)
                dt = time.perf_counter() - t0
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            self.disabled.add(op.id)
            self._fail(op, f"timed out after {cap:.0f} s")
            return cap
        except Exception as exc:  # an engine crash is a failed op, not a failed run
            self._fail(op, f"raised {type(exc).__name__}: {exc}")
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not traced:
            stdout = out.getvalue()
        reason = self._verdict(op, code, stdout, traced)
        if reason is not None:
            self._fail(op, reason + (f" ({err.getvalue().strip()})" if err.getvalue() else ""))
        return dt

    def _traced(self, op: Op) -> tuple[int, str]:
        try:
            return op.traced(self.runner)
        except (self.tdx.TdxError, ValueError, OSError):  # what run_cli turns into exit 1
            return 1, ""
        finally:
            self.runner.count(self.counts)

    def _verdict(self, op: Op, code: int, stdout: str, traced: bool) -> Optional[str]:
        if code != op.expect:
            return f"exit code {code}, expected {op.expect}"
        data = op.output.read_bytes() if op.output else stdout.encode()
        digest = hashlib.sha256(data).hexdigest()
        first = self.expected.get(op.id)
        if first is None:
            if traced:
                return "no CLI output to compare the traced pipeline with"
            first = self.expected[op.id] = (digest, op.check(code, stdout, data))
        if first[0] != digest:
            return ("the traced pipeline's output differs from the CLI's" if traced
                    else "output differs from an earlier run of the same command")
        return first[1]

    def _reference(self) -> float:
        gc.collect()
        t0 = time.perf_counter()
        reference_work()
        return time.perf_counter() - t0

    def run_pass(self, ops: list[Op], traced: bool = False) -> Pass:
        raw, refs, norm = {}, [], {}
        for op in ops:
            refs.append(self._reference())
            if traced:
                self.tracer.begin_op()
            raw[op.id] = self.run_op(op, traced)
        refs.append(self._reference())
        for i, op in enumerate(ops):
            scale = 2 * REF_SCALE_S / (refs[i] + refs[i + 1])
            norm[op.id] = None if raw[op.id] is None else raw[op.id] * scale
            if traced:
                self.op_scale[self.tracer.op_count - len(ops) + i + 1] = scale
        return Pass(raw, refs, norm)

    def setup(self) -> float:
        """Generate, write, make the equiv inputs and run one warm-up pass.

        Returns the busy time (generation plus the ops, without the checks) in
        reference seconds, scaled by the median reference time of the set-up."""
        t0 = time.perf_counter()
        self.generate()
        busy = time.perf_counter() - t0
        if self.input_digest is None:
            self.input_digest = self.generated
        elif self.generated != self.input_digest:
            self.failures.append("setup: the same seed generated different inputs")
        refs: list[float] = []
        for p in (self.run_pass(self.prep), self.run_pass(self.ops)):
            busy += sum(t for t in p.raw.values() if t is not None)
            refs += p.refs
        return busy * REF_SCALE_S / statistics.median(refs)

    # -- metrics ----------------------------------------------------------

    def run(self, seconds: float, trace: bool) -> dict:
        setups = [self.setup() for _ in range(SETUP_REPS)]
        untraced: list[Pass] = []
        traced: list[tuple[Pass, dict, Counter]] = []
        start = time.perf_counter()
        while time.monotonic() < self.deadline:
            p0 = time.perf_counter()
            untraced.append(self.run_pass(self.ops))
            if trace:
                first = len(self.tracer.spans)
                self.counts = Counter()
                p = self.run_pass(self.ops, traced=True)
                traced.append((p, self.tracer.self_times(first, self.op_scale), self.counts))
            if (time.perf_counter() - start) + (time.perf_counter() - p0) > seconds:
                break
        if not untraced:
            self.failures.append("run: no measuring pass started before the run limit")
        self.report_growth(untraced)
        if trace:
            metrics = self.layer_metrics(untraced, traced)
            self.tracer.write(self.work.parent / f"spans-{self.w.name}-{self.seed}.jsonl")
        else:
            metrics = self.e2e_metrics(setups, untraced)
        return metrics

    def _median_of(self, passes: list[Pass], op_id: str, raw: bool = False) -> tuple[float, int]:
        values = [(p.raw if raw else p.norm)[op_id] for p in passes]
        values = [v for v in values if v is not None]
        return (statistics.median(values), len(values)) if values else (OP_CAP_S, 0)

    def e2e_metrics(self, setups: list[float], passes: list[Pass]) -> dict:
        last = len(self.sizes) - 1
        metrics = {"setup_s": (statistics.median(setups), "s",
                               f"median of {len(setups)} set-ups")}
        for op in self.ops:
            name = E2E_TIMES.get(op.kind)
            if name and op.size == last:
                value, n = self._median_of(passes, op.id)
                raw, _ = self._median_of(passes, op.id, raw=True)
                metrics[name] = (value, "s", f"median of {n} samples at {self.sizes[last]} "
                                             f"people; raw median {raw:.6g} s")
        ref = statistics.median(r for p in passes for r in p.refs) if passes else 0.0
        print(f"reference_work took {ref:.6g} s (median of {sum(len(p.refs) for p in passes)}); "
              f"it counts as {REF_SCALE_S} reference seconds")
        facts = sum(op.facts_in for op in self.ops)
        rates = [facts / p.busy() for p in passes if p.busy() > 0]
        metrics["facts_per_s"] = (statistics.median(rates) if rates else 0.0, "facts/s",
                                  f"median over {len(rates)} passes of all sizes")
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (peak, "MiB", "peak resident set of this process")
        return metrics

    def growth(self, passes: list[Pass]) -> list[tuple[int, float, int]]:
        ids = [op.id for op in self.ops if op.kind == self.w.primary]
        return [(self.sizes[i], *self._median_of(passes, op_id)) for i, op_id in enumerate(ids)]

    def growth_exp(self, passes: list[Pass]) -> float:
        rows = self.growth(passes)
        (n0, t0, _), (n2, t2, _) = rows[0], rows[-1]
        if not (t0 > 0 and t2 > 0):
            return 0.0
        return math.log(t2 / t0) / math.log(n2 / n0)

    def report_growth(self, passes: list[Pass]) -> None:
        cells = " | ".join(f"{n} people: {t:.4f} s (n={c})" for n, t, c in self.growth(passes))
        print(f"growth of {self.w.primary} on {self.w.name}: {cells} | "
              f"cli.growth_exp {self.growth_exp(passes):.3f}")

    def layer_metrics(self, untraced: list[Pass], traced: list[tuple[Pass, dict, Counter]]) -> dict:
        def med(values):
            return statistics.median(values) if values else 0.0

        n = f"median of {len(traced)} traced passes"
        metrics = {}
        for name in LAYER_SPANS:
            metrics[f"{name}_s"] = (med([st.get(name, 0.0) for _, st, _ in traced]), "s", n)
        counts = traced[-1][2] if traced else Counter()
        for name in COUNTS:
            if name != "model.normalize_facts_in":
                unit = "bytes" if name == "model.dump_bytes" else "count"
                metrics[name] = (counts[name], unit, "exact, one pass")
        facts_in = counts["model.normalize_facts_in"]
        metrics["model.normalize_blowup"] = (
            counts["model.normalize_fragments"] / facts_in if facts_in else 0.0, "ratio",
            "fragments out / facts in")
        metrics["cli.self_s"] = (med([sum(v for k, v in st.items() if k.startswith("cli."))
                                      for _, st, _ in traced]), "s", n)
        metrics["cli.growth_exp"] = (self.growth_exp(untraced), "slope",
                                     "log-log slope of the primary command, S to 4S")
        metrics["trace.overhead_s"] = (med([p.busy() for p, _, _ in traced]) -
                                       med([p.busy() for p in untraced]), "s",
                                       "traced minus untraced pass time")
        if self.tracer.absent:
            print("absent stages (enclosing call timed instead): "
                  + ", ".join(sorted(self.tracer.absent)))
        return metrics

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def main(argv: Optional[list[str]] = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-tests")
    args = parser.parse_args(argv)
    tdx = import_engine()
    signal.signal(signal.SIGALRM, _alarm)
    bench = Bench(tdx, WORKLOADS[args.workload], args.seed, args.smoke, started)
    try:
        metrics = bench.run(args.seconds, trace=args.trace == 1)
    finally:
        bench.close()
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit} ({note})")
    print(f"error_rate = {len(bench.failures) / max(bench.attempted, 1):.6g} ratio "
          f"({len(bench.failures)} failed of {bench.attempted} ops)")
    for failure in bench.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
