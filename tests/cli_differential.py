"""Differential check of the ``tdx`` command between two source trees, and
the committed digest of each of its runs.

    python tests/cli_differential.py OLD_SRC NEW_SRC
    python tests/cli_differential.py --write SRC
    python tests/cli_differential.py --check SRC

``OLD_SRC`` and ``NEW_SRC`` are directories that hold the ``tdx`` package
(a checkout's ``src``).  The script writes one battery of inputs into a
temporary directory: the fixtures of ``tests/fixtures``, and the seed-1
inputs of every ``perfbench`` workload at each of its three sizes, made by
``perfbench/workloads.py`` without ``tdx``, and at its smallest size again
with every endpoint scaled by ``SCALE``.  It runs the battery once per
tree, in a subprocess that imports ``tdx`` from that tree and calls
``tdx.cli.run_cli`` in process for each run, and lists every run whose exit
code, stdout, stderr, output bytes or uncaught exception differ.  A run
whose output bytes differ is tagged ``(same abstract view)`` when the two
outputs agree point-wise: each fact read at each of its time points, with a
null read as its label there (as ``perfbench/checks.py`` reads outputs), and
a failure witness with each null read as its label.  Otherwise it is tagged
``(null labels only)`` when the two outputs agree once every null label is
blanked and each relation's facts are sorted again.  The report counts the
runs of each tag on a line of its own.

Per group of inputs (the fixtures, or one workload at one size) the battery
runs ``normalize`` and ``sem`` on each concrete instance; ``chase`` with
both mappings and ``query`` and ``certain`` with every query of both on
each instance, and ``query`` with each query of a mapping on the
instance's ``chase`` output with that mapping; ``equiv`` on every pair of the group's instances and the
chase outputs with ``example1`` of its sources; and ``equiv`` of its first
two instances (of a workload, the concrete and the abstract source), and of
their chase outputs, with ``--horizon`` 10 and 20 times one above the
group's largest finite endpoint; and ``equiv`` of the group's first concrete
instance with itself, and of its first abstract one with itself, with
``--horizon -1`` and with a horizon one below the instance's largest finite
endpoint or time point.  Exit status: 0 when no run
differs, 1 when some run differs, 2 on a usage error.  Not a tier-1 test:
it takes about 5 s per tree (Python 3.11 on a 2-core x86-64 host).  CI
runs it on every pull request against the base commit and writes the
report to the job summary.

``--write SRC`` runs the battery once, on ``SRC``, and writes
``tests/output_digests.txt``: one line per run, the SHA-256 of its exit
code, stdout, stderr, output bytes and uncaught exception, then the run's
id.  The battery's temporary directory is written as ``WORK`` before the
digest is taken, so a message that names an input's path digests alike
on every run.  ``--check SRC`` lists each run whose digest differs from
the committed file, and exits 1 if any does.  A change to what ``tdx``
writes therefore rewrites the lines of exactly the runs it changes, and
CI fails until the file is written again.  The digests are the same on
Python 3.10 to 3.13 and under ``PYTHONHASHSEED`` 0, 1 and 2 (the
subprocess keeps the caller's ``PYTHONHASHSEED``, or sets 0).
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
DIGESTS = HERE / "output_digests.txt"
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
                target = str(outputs / f"{stem}-chase-{mapping}.json")
                run(group, ["chase", "-m", mappings[mapping], "-i", path, "-o", target], target)
                if mapping == "example1" and set(doc["relations"]) == set(EXAMPLE1_SOURCE):
                    chased.append(target)
                for q in queries:
                    for command, inst, prefix in (("query", path, stem), ("certain", path, stem),
                                                  ("query", target, Path(target).stem)):
                        out = str(outputs / f"{prefix}-{command}-{q}.json")
                        run(group, [command, "-m", mappings[mapping], "-q", q, "-i", inst, "-o", out], out)
        for a, b in itertools.combinations([path for path, _ in instances] + chased, 2):
            run(group, ["equiv", "-a", a, "-b", b])
        top = 1 + max(max(_endpoints(doc)) for _, doc in instances if doc["kind"] == "concrete")
        for a, b in ([path for path, _ in instances[:2]], chased[:2]):
            for factor in (10, 20):
                run(group, ["equiv", "-a", a, "-b", b, "--horizon", str(factor * top)])
        for kind in ("concrete", "abstract"):
            path, doc = next((path, doc) for path, doc in instances if doc["kind"] == kind)
            below = max(_endpoints(doc)) - 1
            for horizon in (-1, below):
                run(group, ["equiv", "-a", path, "-b", path, "--horizon", str(horizon)])
    return runs


def _scaled(facts: list, k: int) -> list:
    """Generated facts with every endpoint multiplied by ``k``."""
    return [(r, values, start * k, None if end is None else end * k) for r, values, start, end in facts]


def _intervals(doc: dict) -> list[dict]:
    return [f["interval"] for rel in doc["relations"].values() for f in rel.get("facts", [])]


def _endpoints(doc: dict) -> list[int]:
    """The finite interval endpoints, or the time points, of an instance document."""
    if doc["kind"] == "abstract":
        return [f["time"] for rel in doc["relations"].values() for f in rel.get("facts", [])]
    return [e for iv in _intervals(doc) for e in (iv["start"], iv["end"]) if e != "inf"]


def _blanked_digest(raw: bytes) -> str | None:
    """Digest of an output document with every null label blanked and each
    relation's facts sorted again; None if the output is not JSON."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return None

    def blank(v):
        if isinstance(v, dict):
            return {k: "" if k == "null" else blank(x) for k, x in v.items()}
        return [blank(x) for x in v] if isinstance(v, list) else v

    doc = blank(doc)
    if isinstance(doc, dict) and isinstance(doc.get("relations"), dict):
        for rel in doc["relations"].values():
            if isinstance(rel, dict) and isinstance(rel.get("facts"), list):
                rel["facts"].sort(key=lambda f: json.dumps(f, sort_keys=True))
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _abstract_digest(raw: bytes) -> str | None:
    """Digest of an output document's abstract view; None if the output is
    not JSON.  Each fact of an instance is read at each of its time points,
    a null as its label; per relation and values, the points of bounded
    intervals are listed and an unbounded tail is kept as its first point,
    so the view needs no horizon.  A failure witness keeps its constants,
    and its trace with each null read as its label."""
    try:
        doc = json.loads(raw)
    except ValueError:
        return None

    def label(v):
        return ["null", v["null"]] if isinstance(v, dict) else v

    if isinstance(doc, dict) and isinstance(doc.get("failure"), dict):
        failure = doc["failure"]
        view = {"constants": failure.get("constants"),
                "trace": [[label(v) for v in pair] for pair in failure.get("trace", [])]}
    elif isinstance(doc, dict) and isinstance(doc.get("relations"), dict):
        view = {k: v for k, v in doc.items() if k != "relations"}
        for name, rel in doc["relations"].items():
            points: dict[str, set] = {}
            tails: dict[str, int] = {}
            for f in rel.get("facts", []):
                key = json.dumps([label(v) for v in f["values"]])
                if "time" in f:
                    points.setdefault(key, set()).add(f["time"])
                elif f["interval"]["end"] == "inf":
                    tails[key] = min(tails.get(key, f["interval"]["start"]), f["interval"]["start"])
                else:
                    points.setdefault(key, set()).update(range(f["interval"]["start"], f["interval"]["end"]))
            for key, tail in tails.items():
                while tail - 1 in points.get(key, ()):  # bounded points just below the tail join it
                    tail -= 1
                tails[key] = tail
            view[name] = [rel.get("attributes"), sorted(
                [key, sorted(p for p in points.get(key, ()) if key not in tails or p < tails[key]), tails.get(key)]
                for key in points.keys() | tails.keys())]
    else:
        return None
    return hashlib.sha256(json.dumps(view, sort_keys=True).encode("utf-8")).hexdigest()


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
        data = blanked = abstract = None
        if r["output"] is not None and os.path.exists(r["output"]):
            raw = Path(r["output"]).read_bytes()
            data = hashlib.sha256(raw).hexdigest()
            blanked, abstract = _blanked_digest(raw), _abstract_digest(raw)
        recorded.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
                         "output": data, "exception": exc, "blanked": blanked, "abstract": abstract})
    Path(results).write_text(json.dumps(recorded), encoding="utf-8")


def _record(srcs: list[str]) -> tuple[list[dict], list[list[dict]]]:
    """The battery's runs, and what each run did under each tree of ``srcs``,
    with the battery's temporary directory written as ``WORK`` in the
    recorded text."""
    with tempfile.TemporaryDirectory(prefix="tdx-cli-differential-") as tmp:
        work = Path(tmp)
        runs = _battery(work)
        battery = work / "battery.json"
        battery.write_text(json.dumps(runs), encoding="utf-8")
        env = dict(os.environ, TDX_COLOR="0")
        env.setdefault("PYTHONHASHSEED", "0")
        recorded = []
        for i, src in enumerate(srcs):
            (work / "out").mkdir()  # the same output paths for both trees
            results = work / f"results{i}.json"
            subprocess.run([sys.executable, __file__, "--run", str(Path(src).resolve()), str(battery),
                            str(results)], check=True, env=env)
            recorded.append(json.loads(results.read_text("utf-8").replace(json.dumps(tmp)[1:-1], "WORK")))
            shutil.rmtree(work / "out")
    return runs, recorded


def _run_digests(runs: list[dict], recorded: list[dict]) -> dict[str, str]:
    """Each run's id, to the SHA-256 of its exit code, stdout, stderr, output
    bytes and uncaught exception."""
    digests = {}
    for r, rec in zip(runs, recorded):
        what = json.dumps([rec[k] for k in ("exit", "stdout", "stderr", "output", "exception")])
        digests[r["id"]] = hashlib.sha256(what.encode("utf-8")).hexdigest()
    if len(digests) != len(runs):
        raise SystemExit("two runs of the battery have one id")
    return digests


def _digests(argv: list[str]) -> int:
    """``--write SRC`` writes ``DIGESTS``, one line per run: its digest, two
    spaces and its id.  ``--check SRC`` lists every run whose digest differs
    from that file's, or that only one of them has."""
    runs, (recorded,) = _record(argv[1:])
    now = _run_digests(runs, recorded)
    if argv[0] == "--write":
        DIGESTS.write_text("".join(f"{digest}  {run}\n" for run, digest in now.items()), encoding="utf-8")
        print(f"{len(now)} runs written to {DIGESTS.name}")
        return 0
    lines = DIGESTS.read_text(encoding="utf-8").splitlines() if DIGESTS.exists() else []
    committed = {run: digest for digest, run in (line.split("  ", 1) for line in lines)}
    differing = sorted(run for run in now.keys() | committed.keys() if now.get(run) != committed.get(run))
    for run in differing:
        print(f"DIFFERS: {run} (committed {committed.get(run, 'none')}, now {now.get(run, 'none')})")
    print(f"{len(now)} runs, {len(differing)} differing from {DIGESTS.name}")
    return 1 if differing else 0


def main(argv: list[str]) -> int:
    if len(argv) == 4 and argv[0] == "--run":
        _run_battery(*argv[1:])
        return 0
    if len(argv) == 2 and argv[0] in ("--write", "--check"):
        return _digests(argv)
    if len(argv) != 2 or argv[0].startswith("--"):
        sys.stderr.write(__doc__)
        return 2
    runs, recorded = _record(argv)
    differing = labels_only = same_view = 0
    for r, old, new in zip(runs, *recorded):
        fields = [k for k in old if k not in ("blanked", "abstract") and old[k] != new[k]]
        if fields:
            differing += 1
            tag = ""
            if fields == ["output"] and old["abstract"] is not None and old["abstract"] == new["abstract"]:
                same_view += 1
                tag = " (same abstract view)"
            elif fields == ["output"] and old["blanked"] is not None and old["blanked"] == new["blanked"]:
                labels_only += 1
                tag = " (null labels only)"
            print(f"DIFFERS in {', '.join(fields)}{tag}: {r['id']}")
            for k in fields:
                print(f"  old {k}: {old[k]!r:.300}\n  new {k}: {new[k]!r:.300}")
    print(f"{same_view} of the differing runs have the same abstract view")
    print(f"{labels_only} of the differing runs differ in null labels only")
    print(f"{len(runs)} runs, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
