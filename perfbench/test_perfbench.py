"""Self-tests of the benchmark: the smoke run, and checks that the checks work.

    python3 -m pytest perfbench -q

The smoke runs use tiny sizes and one second of measuring.  The oracle tests
take a real engine output, confirm the oracle accepts it, then corrupt it in
one place and confirm the oracle rejects it.
"""
from __future__ import annotations

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
from workloads import (  # noqa: E402
    EXAMPLE1_SOURCE, WORKLOADS, abstract_doc, careers, concrete_doc, crossview, dump, long_lived,
)

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']} (" in line
                   for line in lines[:-1]), m["name"]


def test_run_fails_without_the_engine(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "careers", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("generate", [careers, long_lived, crossview])
def test_same_seed_same_inputs(generate):
    a, b = generate(9, random.Random("3:0")), generate(9, random.Random("3:0"))
    assert dump(concrete_doc(EXAMPLE1_SOURCE, a.source)) == dump(concrete_doc(EXAMPLE1_SOURCE, b.source))
    assert a.failing == b.failing and a.witness == b.witness


# -- the oracles reject a wrong answer ------------------------------------


def _cli(tmp_path: Path, *argv: str) -> tuple[int, str]:
    import contextlib
    import io

    from tdx.cli import run_cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run_cli(list(argv))
    return code, out.getvalue()


@pytest.fixture
def outputs(tmp_path):
    """Real outputs of every command on one small scenario of each mapping."""
    sc = long_lived(6, random.Random("outputs"))
    m1 = str(HERE / "mappings" / "example1.tdx")
    m3 = str(HERE / "mappings" / "example3.tdx")
    files = {}
    for name, doc in {
        "src": concrete_doc(EXAMPLE1_SOURCE, sc.source),
        "asrc": abstract_doc(EXAMPLE1_SOURCE, sc.source, sc.horizon),
        "fail": concrete_doc(sc.failing_schema, sc.failing),
    }.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(dump(doc))
    cv = crossview(16, random.Random("outputs"))
    files["xfail"] = tmp_path / "xfail.json"
    files["xfail"].write_text(dump(abstract_doc(cv.failing_schema, cv.failing, cv.failing_horizon)))

    def run(*argv):
        return _cli(tmp_path, *argv)

    h = str(sc.horizon)
    assert run("chase", "-m", m1, "-i", str(files["src"]), "-o", str(tmp_path / "chase.json"))[0] == 0
    assert run("achase", "-m", m1, "-i", str(files["asrc"]), "-o", str(tmp_path / "achase.json"))[0] == 0
    assert run("certain", "-m", m1, "-i", str(files["src"]), "-q", "positions",
               "-o", str(tmp_path / "certain.json"))[0] == 0
    assert run("sem", "-i", str(files["src"]), "--horizon", h, "-o", str(tmp_path / "sem.json"))[0] == 0
    assert run("chase", "-m", m1, "-i", str(files["fail"]), "-o", str(tmp_path / "fail.out"))[0] == 2
    assert run("achase", "-m", m3, "-i", str(files["xfail"]),
               "-o", str(tmp_path / "xfail.out"))[0] == 2
    equiv = run("equiv", "-a", str(tmp_path / "chase.json"), "-b", str(tmp_path / "achase.json"),
                "--horizon", h)
    load = lambda name: json.loads((tmp_path / name).read_text())  # noqa: E731
    return {"sc": sc, "cv": cv, "chase": load("chase.json"), "achase": load("achase.json"),
            "certain": load("certain.json"), "sem": load("sem.json"), "fail": load("fail.out"),
            "xfail": load("xfail.out"), "equiv": equiv}


def _facts(doc: dict, relation: str) -> list[dict]:
    return doc["relations"][relation]["facts"]


def _drop_one_point(doc: dict, relation: str) -> dict:
    bad = copy.deepcopy(doc)
    facts = _facts(bad, relation)
    fact = facts[0]
    iv = fact.get("interval")
    if iv and iv["end"] != "inf" and iv["end"] - iv["start"] > 1:
        iv["end"] -= 1
    else:
        facts.pop(0)
    return bad


def test_answer_oracle_rejects_a_dropped_point(outputs):
    sc = outputs["sc"]
    assert checks.check_answers(sc.source, sc.horizon, outputs["certain"]) is None
    bad = _drop_one_point(outputs["certain"], "positions")
    assert checks.check_answers(sc.source, sc.horizon, bad) is not None


@pytest.mark.parametrize("view", ["chase", "achase"])
def test_chase_oracle_rejects_a_dropped_point_or_a_swapped_constant(outputs, view):
    sc = outputs["sc"]
    good = outputs[view]
    assert checks.check_example1_chase(sc.source, sc.horizon, good) is None
    assert checks.check_example1_chase(sc.source, sc.horizon, _drop_one_point(good, "Emp")) is not None
    swapped = copy.deepcopy(good)
    fact = next(f for f in _facts(swapped, "Emp") if isinstance(f["values"][2], str))
    fact["values"][2] = "not-a-company"
    assert checks.check_example1_chase(sc.source, sc.horizon, swapped) is not None
    merged = copy.deepcopy(good)
    fact = next(f for f in _facts(merged, "Sal") if isinstance(f["values"][1], dict))
    fact["values"][2] = fact["values"][1]  # salary and position become one null
    assert checks.check_example1_chase(sc.source, sc.horizon, merged) is not None


def test_sem_oracle_rejects_a_dropped_fact(outputs):
    sc = outputs["sc"]
    assert checks.check_sem(sc.source, sc.horizon, outputs["sem"]) is None
    bad = copy.deepcopy(outputs["sem"])
    _facts(bad, "Employee1").pop()
    assert checks.check_sem(sc.source, sc.horizon, bad) is not None


def test_equiv_oracle_rejects_not_equivalent(outputs):
    assert checks.check_equiv(*outputs["equiv"]) is None
    assert checks.check_equiv(3, "not equivalent\n") is not None


@pytest.mark.parametrize("which", ["fail", "xfail"])
def test_failure_oracle_rejects_a_swapped_witness_or_a_broken_trace(outputs, which):
    witness = (outputs["sc"] if which == "fail" else outputs["cv"]).witness
    good = outputs[which]
    assert checks.check_failure(witness, good) is None
    swapped = copy.deepcopy(good)
    swapped["failure"]["constants"][1] = "cto" if witness[1] != "cto" else "ux"
    assert checks.check_failure(witness, swapped) is not None
    broken = copy.deepcopy(good)
    broken["failure"]["trace"][-1][1] = "somebody-else"
    assert checks.check_failure(witness, broken) is not None
