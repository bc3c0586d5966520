"""Differential check of the ``tdx`` command between two source trees.

    python tests/cli_differential.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are directories that hold the ``tdx`` package
(a checkout's ``src``).  The script writes one battery of inputs into a
temporary directory: the fixtures of ``tests/fixtures``, and the seed-1
inputs of every ``perfbench`` workload at each of its three sizes, made by
``perfbench/workloads.py`` without ``tdx``, and at its smallest size again
with every endpoint scaled by ``SCALE``.  It runs the battery once per
tree, in a subprocess that imports ``tdx`` from that tree and calls
``tdx.cli.run_cli`` in process for each run, and lists every run whose exit
code, stdout, stderr, output bytes or uncaught exception differ.

Per group of inputs (the fixtures, or one workload at one size) the battery
runs ``normalize`` and ``sem`` on each concrete instance; ``chase`` with
both mappings and ``query`` and ``certain`` with every query of both on
each instance; ``equiv`` on every pair of the group's instances and the
chase outputs with ``example1`` of its sources; and ``equiv`` of its first
two instances (of a workload, the concrete and the abstract source), and of
their chase outputs, with ``--horizon`` 10 and 20 times one above the
group's largest finite endpoint.  Exit status: 0 when no run
differs, 1 when some run differs, 2 on a usage error.  Not a tier-1 test:
it takes about a minute per tree.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
FIXTURES = HERE / "fixtures"
MAPPINGS = {"example1": ["positions", "paid_positions"], "example3": ["pos"]}
SCALE = 20  # the smallest size of each workload is also run with every endpoint times this


def _battery(work: Path) -> list[dict]:
    """Write every input under ``work/in`` and return the runs, in order;
    outputs go to ``work/out``."""
    sys.path.insert(0, str(HERE.parent / "perfbench"))
    from workloads import EXAMPLE1_SOURCE, WORKLOADS, abstract_doc, concrete_doc, dump

    inputs, outputs = work / "in", work / "out"
    inputs.mkdir()
    mappings = {name: str(FIXTURES / f"{name}.tdx") for name in MAPPINGS}
    groups: dict[str, list[tuple[str, dict]]] = {}  # group -> (path, document) of each instance
    for path in sorted(FIXTURES.glob("*.json")):
        groups.setdefault("fixtures", []).append((str(path), json.loads(path.read_text("utf-8"))))
    for name, workload in WORKLOADS.items():
        for k, n in enumerate(workload.sizes):
            sc = workload.generate(n, random.Random(f"1:{k}"))
            for scale in (1, SCALE) if k == 0 else (1,):
                source, failing = _scaled(sc.source, scale), _scaled(sc.failing, scale)
                docs = {"src": concrete_doc(EXAMPLE1_SOURCE, source),
                        "asrc": abstract_doc(EXAMPLE1_SOURCE, source, (sc.horizon - 1) * scale + 1),
                        "fail": concrete_doc(sc.failing_schema, failing),
                        "afail": abstract_doc(sc.failing_schema, failing, (sc.failing_horizon - 1) * scale + 1)}
                group = f"{name}-{k}" if scale == 1 else f"{name}-{k}-x{scale}"
                for stem, doc in docs.items():
                    path = inputs / f"{group}-{stem}.json"
                    path.write_text(dump(doc), encoding="utf-8")
                    groups.setdefault(group, []).append((str(path), doc))

    runs = []

    def run(group: str, argv: list[str], output: str | None = None) -> None:
        runs.append({"id": f"{group}: tdx {' '.join(Path(a).name if '/' in a else a for a in argv)}",
                     "argv": argv, "output": output})

    for group, instances in groups.items():
        chased = []
        for path, doc in instances:
            stem = f"{group}-{Path(path).stem}"
            if doc["kind"] == "concrete":
                for command in ("normalize", "sem"):
                    out = str(outputs / f"{stem}-{command}.json")
                    run(group, [command, "-i", path, "-o", out], out)
            for mapping, queries in MAPPINGS.items():
                out = str(outputs / f"{stem}-chase-{mapping}.json")
                run(group, ["chase", "-m", mappings[mapping], "-i", path, "-o", out], out)
                if mapping == "example1" and set(doc["relations"]) == set(EXAMPLE1_SOURCE):
                    chased.append(out)
                for q in queries:
                    for command in ("query", "certain"):
                        out = str(outputs / f"{stem}-{command}-{q}.json")
                        run(group, [command, "-m", mappings[mapping], "-q", q, "-i", path, "-o", out], out)
        for a, b in itertools.combinations([path for path, _ in instances] + chased, 2):
            run(group, ["equiv", "-a", a, "-b", b])
        top = 1 + max(max(e for iv in _intervals(doc) for e in (iv["start"], iv["end"]) if e != "inf")
                      for _, doc in instances if doc["kind"] == "concrete")
        for a, b in ([path for path, _ in instances[:2]], chased[:2]):
            for factor in (10, 20):
                run(group, ["equiv", "-a", a, "-b", b, "--horizon", str(factor * top)])
    return runs


def _scaled(facts: list, k: int) -> list:
    """Generated facts with every endpoint multiplied by ``k``."""
    return [(r, values, start * k, None if end is None else end * k) for r, values, start, end in facts]


def _intervals(doc: dict) -> list[dict]:
    return [f["interval"] for rel in doc["relations"].values() for f in rel.get("facts", [])]


def _run_battery(src: str, battery: str, results: str) -> None:
    """In a subprocess: import ``tdx`` from ``src`` and run each run of the
    battery in process, recording what it did."""
    sys.path.insert(0, src)
    import tdx.cli

    if Path(tdx.__file__).resolve().parent != (Path(src) / "tdx").resolve():
        raise SystemExit(f"tdx was imported from {tdx.__file__}, not {src}")
    recorded = []
    for r in json.loads(Path(battery).read_text("utf-8")):
        out, err = io.StringIO(), io.StringIO()
        code, exc = None, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = tdx.cli.run_cli(r["argv"])
            except Exception as e:  # a traceback is itself a result to compare
                exc = f"{type(e).__name__}: {e}"
        data = None
        if r["output"] is not None and os.path.exists(r["output"]):
            data = hashlib.sha256(Path(r["output"]).read_bytes()).hexdigest()
        recorded.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "output": data, "exception": exc})
    Path(results).write_text(json.dumps(recorded), encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        _run_battery(*argv[1:])
        return 0
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    with tempfile.TemporaryDirectory(prefix="tdx-cli-differential-") as tmp:
        work = Path(tmp)
        runs = _battery(work)
        battery = work / "battery.json"
        battery.write_text(json.dumps(runs), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED="0", TDX_COLOR="0")
        recorded = []
        for i, src in enumerate(argv):
            (work / "out").mkdir()  # the same output paths for both trees
            results = work / f"results{i}.json"
            subprocess.run([sys.executable, __file__, "--run", str(Path(src).resolve()), str(battery),
                            str(results)], check=True, env=env)
            recorded.append(json.loads(results.read_text("utf-8")))
            shutil.rmtree(work / "out")
    differing = 0
    for r, old, new in zip(runs, *recorded):
        fields = [k for k in old if old[k] != new[k]]
        if fields:
            differing += 1
            print(f"DIFFERS in {', '.join(fields)}: {r['id']}")
            for k in fields:
                print(f"  old {k}: {old[k]!r:.300}\n  new {k}: {new[k]!r:.300}")
    print(f"{len(runs)} runs, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
