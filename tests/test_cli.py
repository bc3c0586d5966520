import gc
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tdx
from tdx import SchemaError, loads_instance, run_cli

from helpers import FIXTURES, load_fixture_instance


@pytest.fixture
def workdir(tmp_path):
    for name in ("fig1.json", "fig2.json", "fig3.json", "fig4.json", "fig5.json",
                 "fig6.json", "fig8.json", "example1.tdx", "example3.tdx",
                 "example3_source.json"):
        shutil.copy(FIXTURES / name, tmp_path / name)
    return tmp_path


def run(workdir, *argv):
    return run_cli([str(a).replace("@", str(workdir) + "/") for a in argv])


def path(workdir, name):
    return str(workdir / name)


_TDX = [sys.executable, "-c", "from tdx.cli import main; main()"]


def _tdx_env(**extra):
    """The environment of a ``tdx`` subprocess that imports the package under test."""
    paths = [str(Path(tdx.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths)), **extra}


def test_normalize(workdir):
    out = path(workdir, "out.json")
    assert run_cli(["normalize", "-i", path(workdir, "fig1.json"), "-o", out]) == 0
    assert loads_instance((workdir / "out.json").read_text()) == load_fixture_instance("fig8.json")


def test_chase_then_equiv_with_the_golden_solution(workdir):
    out = path(workdir, "out.json")
    assert run_cli(["chase", "-m", path(workdir, "example1.tdx"),
                    "-i", path(workdir, "fig1.json"), "-o", out]) == 0
    assert run_cli(["equiv", "-a", out, "-b", path(workdir, "fig3.json"), "--horizon", "13"]) == 0


def test_achase_failure_exits_2_with_witness(workdir, capsys):
    out = path(workdir, "fail.json")
    code = run_cli(["achase", "-m", path(workdir, "example3.tdx"),
                    "-i", path(workdir, "example3_source.json"), "-o", out])
    assert code == 2
    doc = json.loads((workdir / "fail.json").read_text())
    assert doc["failure"]["constants"] == ["DBA", "Manager"]
    assert doc["failure"]["trace"]
    assert "DBA != Manager" in capsys.readouterr().err


@pytest.mark.parametrize("mapping, source, code", [
    ("example1.tdx", "fig1.json", 0),             # concrete source
    ("example1.tdx", "fig2.json", 0),             # abstract source
    ("example3.tdx", "example3_source.json", 2),  # no solution: the same witness
])
def test_chase_and_achase_read_either_view(workdir, mapping, source, code):
    outputs = []
    for command in ("chase", "achase"):
        out = workdir / f"{command}.json"
        assert run_cli([command, "-m", path(workdir, mapping), "-i", path(workdir, source),
                        "-o", str(out)]) == code
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_sem_defaults_and_records_horizon(workdir):
    out = path(workdir, "sem.json")
    assert run_cli(["sem", "-i", path(workdir, "fig1.json"), "-o", out]) == 0
    doc = json.loads((workdir / "sem.json").read_text())
    assert doc["horizon"] == 14
    assert run_cli(["sem", "-i", path(workdir, "fig1.json"), "--horizon", "13", "-o", out]) == 0
    assert loads_instance((workdir / "sem.json").read_text()) == load_fixture_instance("fig2.json")


def test_sem_rejects_low_horizon(workdir, capsys):
    code = run_cli(["sem", "-i", path(workdir, "fig1.json"), "--horizon", "5",
                    "-o", path(workdir, "x.json")])
    assert code == 1
    assert "horizon" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("sem", "-i", "@fig1.json", "-o", "@x.json"),
    ("equiv", "-a", "@fig1.json", "-b", "@fig3.json"),
    ("equiv", "-a", "@fig2.json", "-b", "@fig1.json"),
], ids=["sem", "equiv", "equiv-abstract-first"])
def test_a_given_horizon_is_checked_by_sem_instance(workdir, capsys, argv):
    for horizon, message in (("5", "horizon 5 is below endpoint 8 of [8,10)"),
                             ("-1", "horizon must be a finite time point, got -1")):
        assert run(workdir, *argv, "--horizon", horizon) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


def test_normalize_then_sem_equals_sem(workdir):
    norm = path(workdir, "norm.json")
    a, b = path(workdir, "a.json"), path(workdir, "b.json")
    assert run_cli(["normalize", "-i", path(workdir, "fig1.json"), "-o", norm]) == 0
    assert run_cli(["sem", "-i", norm, "--horizon", "13", "-o", a]) == 0
    assert run_cli(["sem", "-i", path(workdir, "fig1.json"), "--horizon", "13", "-o", b]) == 0
    assert (workdir / "a.json").read_text() == (workdir / "b.json").read_text()


def test_query_and_certain(workdir):
    ans = path(workdir, "ans.json")
    assert run_cli(["query", "-m", path(workdir, "example1.tdx"),
                    "-i", path(workdir, "fig3.json"), "-q", "positions", "-o", ans]) == 0
    inst = loads_instance((workdir / "ans.json").read_text())
    assert len(inst.facts) == 2
    cans = path(workdir, "cans.json")
    assert run_cli(["certain", "-m", path(workdir, "example1.tdx"),
                    "-i", path(workdir, "fig1.json"), "-q", "positions", "-o", cans]) == 0
    assert (workdir / "ans.json").read_text() == (workdir / "cans.json").read_text()


def test_certain_no_solution_exits_2(workdir):
    code = run_cli(["certain", "-m", path(workdir, "example3.tdx"),
                    "-i", path(workdir, "example3_source.json"), "-q", "pos",
                    "-o", path(workdir, "ans.json")])
    assert code == 2
    doc = json.loads((workdir / "ans.json").read_text())
    assert doc["failure"]["constants"] == ["DBA", "Manager"]


def test_equiv_mixed_views_and_failure_exit(workdir):
    assert run_cli(["equiv", "-a", path(workdir, "fig1.json"),
                    "-b", path(workdir, "fig2.json"), "--horizon", "13"]) == 0
    assert run_cli(["equiv", "-a", path(workdir, "fig4.json"),
                    "-b", path(workdir, "fig5.json")]) == 0
    twisted = workdir / "twisted.json"
    twisted.write_text((workdir / "fig3.json").read_text().replace("Developer", "Boss"))
    code = run_cli(["equiv", "-a", str(twisted), "-b", path(workdir, "fig3.json"),
                    "--horizon", "13"])
    assert code == 3
    mismatched = run_cli(["equiv", "-a", path(workdir, "fig2.json"),
                          "-b", path(workdir, "fig4.json")])
    assert mismatched == 1  # different schemas are an error, not inequivalence


def test_unknown_query_name(workdir, capsys):
    code = run_cli(["query", "-m", path(workdir, "example1.tdx"),
                    "-i", path(workdir, "fig3.json"), "-q", "nope",
                    "-o", path(workdir, "x.json")])
    assert code == 1
    assert "unknown query" in capsys.readouterr().err


def test_usage_and_io_errors(workdir, capsys):
    assert run_cli([]) == 1
    assert run_cli(["frobnicate"]) == 1
    assert run_cli(["normalize", "-i", path(workdir, "missing.json"),
                    "-o", path(workdir, "x.json")]) == 1
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert run_cli(["normalize", "-i", str(bad), "-o", path(workdir, "x.json")]) == 1
    capsys.readouterr()


def test_mapping_parse_error_is_located(workdir, capsys):
    broken = workdir / "broken.tdx"
    broken.write_text("source A(x, @t).\nrule A(n, t) -> B(n, t).\n")
    code = run_cli(["chase", "-m", str(broken), "-i", path(workdir, "fig1.json"),
                    "-o", path(workdir, "x.json")])
    assert code == 1
    assert "2:" in capsys.readouterr().err


def test_wrong_kind_input(workdir, capsys):
    assert run_cli(["normalize", "-i", path(workdir, "fig2.json"),
                    "-o", path(workdir, "x.json")]) == 1
    assert "expected a concrete instance" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("normalize", "-i", "@deep.json", "-o", "@out.json"),
    ("chase", "-m", "@example1.tdx", "-i", "@deep.json", "-o", "@out.json"),
    ("equiv", "-a", "@fig1.json", "-b", "@deep.json"),
])
def test_deeply_nested_json_is_one_error_line(workdir, capsys, argv):
    _write_deep(workdir, 20_000)  # deeper than the json module of any supported Python reads
    assert run(workdir, *argv) == 1
    err = capsys.readouterr().err
    assert err == f"error: {workdir}/deep.json: instance: JSON is nested too deeply\n"
    with pytest.raises(SchemaError):
        loads_instance((workdir / "deep.json").read_text())


@pytest.mark.parametrize("text, message", [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ('{"kind": "concrete"}', 'instance: "relations" must be an object'),
    ("\udcff", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
], ids=["json-syntax", "instance-format", "utf-8"])
def test_a_loader_error_names_the_file_it_reads(workdir, capsys, text, message):
    """``equiv`` reads two files, so a refusal names the one refused."""
    (workdir / "bad.json").write_bytes(text.encode("utf-8", "surrogateescape"))
    for argv in (("-a", "@fig1.json", "-b", "@bad.json"), ("-a", "@bad.json", "-b", "@fig1.json")):
        assert run(workdir, "equiv", *argv) == 1
        assert capsys.readouterr() == ("", f"error: {workdir}/bad.json: {message}\n")
    (workdir / "m.tdx").write_text("{")
    assert run(workdir, "chase", "-m", "@m.tdx", "-i", "@fig1.json", "-o", "@out.json") == 1
    assert capsys.readouterr().err == f"error: {workdir}/m.tdx:1:1: unexpected character '{{'\n"


def _write_deep(workdir, depth):
    """``deep.json``: an instance whose one value is ``depth`` nested lists."""
    value = "[" * depth + "]" * depth
    (workdir / "deep.json").write_text(
        '{"kind": "concrete", "relations": {"R": {"attributes": ["a", "t"], "facts": '
        f'[{{"values": [{value}], "interval": {{"start": 0, "end": 1}}}}]}}}}}}')


@pytest.mark.parametrize("depth", [500, 5000])
def test_a_deep_value_the_json_module_reads_is_one_short_error_line(workdir, capsys, depth):
    """Python 3.13's json module reads 5,000 levels, and every version reads
    500: the loader's error quotes the value only in part."""
    _write_deep(workdir, depth)
    assert run(workdir, "chase", "-m", "@example1.tdx", "-i", "@deep.json", "-o", "@out.json") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and len(err) < 200


def test_stdio_paths(workdir, capsys, monkeypatch):
    import io, sys
    monkeypatch.setattr(sys, "stdin", io.StringIO((FIXTURES / "fig1.json").read_text()))
    assert run_cli(["normalize", "-i", "-", "-o", "-"]) == 0
    out = capsys.readouterr().out
    assert loads_instance(out) == load_fixture_instance("fig8.json")


def test_help_exits_zero(capsys):
    assert run_cli(["--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_call_of_a_process(workdir, capsys, monkeypatch):
    """Two subcommands, a usage error, then the first again, in one process:
    the parser is built once, and each call does what it does with a parser
    built for it alone."""
    batch = [["sem", "-i", "@fig1.json", "-o", "-"],
             ["chase", "-m", "@example1.tdx", "-i", "@fig1.json", "-o", "-"],
             ["chase", "-m", "@example1.tdx", "-o", "-"],
             ["sem", "-i", "@fig1.json", "--horizon", "13", "-o", "-"]]

    def results():
        out = []
        for argv in batch:
            code = run(workdir, *argv)
            out.append((code, *capsys.readouterr()))
        return out

    built = tdx.cli._build_parser()
    cached = results()
    assert tdx.cli._build_parser() is built
    monkeypatch.setattr(tdx.cli, "_build_parser", tdx.cli._build_parser.__wrapped__)
    assert cached == results()
    assert [r[0] for r in cached] == [0, 0, 1, 0]
    assert "the following arguments are required: -i/--input" in cached[2][2]


def test_outputs_are_byte_deterministic(workdir):
    commands = [
        ["normalize", "-i", path(workdir, "fig1.json"), "-o", "OUT"],
        ["sem", "-i", path(workdir, "fig1.json"), "-o", "OUT"],
        ["chase", "-m", path(workdir, "example1.tdx"), "-i", path(workdir, "fig1.json"),
         "-o", "OUT"],
        ["achase", "-m", path(workdir, "example1.tdx"), "-i", path(workdir, "fig2.json"),
         "-o", "OUT"],
        ["achase", "-m", path(workdir, "example3.tdx"),
         "-i", path(workdir, "example3_source.json"), "-o", "OUT"],
        ["query", "-m", path(workdir, "example1.tdx"), "-i", path(workdir, "fig3.json"),
         "-q", "paid_positions", "-o", "OUT"],
        ["certain", "-m", path(workdir, "example1.tdx"), "-i", path(workdir, "fig1.json"),
         "-q", "positions", "-o", "OUT"],
    ]
    for argv in commands:
        first, second = workdir / "first.out", workdir / "second.out"
        run_cli([a if a != "OUT" else str(first) for a in argv])
        run_cli([a if a != "OUT" else str(second) for a in argv])
        assert first.read_bytes() == second.read_bytes(), argv


@pytest.mark.parametrize("argv", [
    ("chase", "-m", "example1.tdx", "-i", "fig1.json"),
    ("chase", "-m", "example3.tdx", "-i", "example3_source.json"),
    ("certain", "-m", "example1.tdx", "-i", "fig1.json", "-q", "paid_positions"),
    ("sem", "-i", "fig1.json"),
    ("normalize", "-i", "fig1.json"),
    ("achase", "-m", "example1.tdx", "-i", "fig2.json"),
    ("chase", "-m", "example1.tdx", "-i", "@eight.json"),
])
def test_outputs_do_not_depend_on_the_string_hash_seed(argv, tmp_path):
    """Each command, run in fresh processes under two hash seeds, writes the same bytes.

    ``eight.json`` fails the chase in one key group of eight members (one
    person at eight companies at once), which the key round collects in set
    order; which constant pair it reports depends on the group's hub.
    """
    facts = [{"values": ["ada", company], "interval": {"start": 0, "end": 4}}
             for company in ("acme", "globex", "hooli", "initech", "stark", "tyrell", "umbrella", "wayne")]
    (tmp_path / "eight.json").write_text(json.dumps({"kind": "concrete", "relations": {
        "Employee1": {"attributes": ["name", "company", "time"], "facts": facts},
        "Employee2": {"attributes": ["name", "position", "dept", "time"], "facts": []}}}))
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    runs = []
    for seed in ("1", "2"):
        runs.append(subprocess.run([*_TDX, *argv, "-o", "-"], cwd=FIXTURES, capture_output=True,
                                   env=_tdx_env(PYTHONHASHSEED=seed, TDX_COLOR="0")))
    first, second = runs
    assert first.returncode in (0, 2) and first.stdout
    assert (first.returncode, first.stdout, first.stderr) == \
        (second.returncode, second.stdout, second.stderr)


def test_output_replaces_a_longer_existing_file(workdir):
    out = workdir / "out.json"
    argv = ["normalize", "-i", path(workdir, "fig1.json"), "-o", str(out)]
    assert run_cli(argv) == 0
    expected = out.read_bytes()
    out.write_bytes(b"x" * (3 * len(expected)))
    assert run_cli(argv) == 0
    assert out.read_bytes() == expected


def test_output_to_a_device_is_written_without_truncating_it(workdir, capsys):
    # /dev/null is a device: truncating it raises [Errno 22], so only a regular file is truncated
    assert run(workdir, "chase", "-m", "@example1.tdx", "-i", "@fig1.json", "-o", os.devnull) == 0
    assert capsys.readouterr() == ("", "")


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
def test_output_to_a_pipe_is_written_once_and_whole(workdir):
    # a pipe cannot be sought: truncating it raises [Errno 29], after the whole text is written
    proc = subprocess.run([*_TDX, "normalize", "-i", path(workdir, "fig1.json"), "-o", "/dev/stdout"],
                          env=_tdx_env(), capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert loads_instance(proc.stdout.decode()) == load_fixture_instance("fig8.json")


def test_certain_evaluates_a_1200_atom_query_body(workdir, capsys):
    body = ", ".join(["Emp(n, p, c, t), Sal(n, p, s, t)"] * 600)
    text = (workdir / "example1.tdx").read_text() + f"query deep(n, p, t) :- {body}.\n"
    (workdir / "deep.tdx").write_text(text)
    for query in ("deep", "paid_positions"):
        assert run(workdir, "certain", "-m", "@deep.tdx", "-i", "@fig1.json", "-q", query,
                   "-o", f"@{query}.json") == 0
    assert capsys.readouterr().err == ""
    deep = json.loads((workdir / "deep.json").read_text())["relations"]["deep"]
    paid = json.loads((workdir / "paid_positions.json").read_text())["relations"]["paid_positions"]
    assert deep["facts"] == paid["facts"] and deep["facts"]


def test_a_leading_byte_order_mark_is_ignored(workdir, capsys, monkeypatch):
    for name in ("example1.tdx", "fig1.json"):
        (workdir / f"bom-{name}").write_text("\ufeff" + (workdir / name).read_text(), encoding="utf-8")
    outputs = []
    for mapping, source in (("example1.tdx", "fig1.json"), ("bom-example1.tdx", "bom-fig1.json")):
        out = workdir / f"{source}.out"
        assert run(workdir, "chase", "-m", f"@{mapping}", "-i", f"@{source}", "-o", str(out)) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    monkeypatch.setattr(sys, "stdin", io.StringIO((workdir / "bom-fig1.json").read_text(encoding="utf-8")))
    assert run_cli(["normalize", "-i", "-", "-o", "-"]) == 0
    assert loads_instance(capsys.readouterr().out) == load_fixture_instance("fig8.json")


_LONG = ('{"kind": "concrete", "relations": {"R": {"attributes": ["a", "t"], "facts": '
         '[{"values": ["x"], "interval": {"start": 0, "end": 100000000}}]}}}')


def test_sem_beyond_the_fact_limit_is_one_error_line(workdir, capsys):
    (workdir / "long.json").write_text(_LONG)
    assert run(workdir, "sem", "-i", "@long.json", "-o", "@out.json") == 1
    err = capsys.readouterr().err
    assert err == ("error: the abstract view up to horizon 100000001 has 100000000 facts, "
                   f"more than the limit of {tdx.MAX_SEM_FACTS}\n")


@pytest.mark.parametrize("end, argv, horizon", [('"inf"', ["--horizon", 10**20], 10**20),
                                                 (10**20, [], 10**20 + 1)])
def test_sem_of_an_interval_longer_than_sys_maxsize_is_one_error_line(workdir, capsys, end, argv, horizon):
    # its 10**20 points outnumber sys.maxsize, which len(range(...)) cannot count
    (workdir / "huge.json").write_text(_LONG.replace("100000000", str(end)))
    assert run(workdir, "sem", "-i", "@huge.json", "-o", "@out.json", *argv) == 1
    assert capsys.readouterr() == ("", f"error: the abstract view up to horizon {horizon} has {10**20} facts, "
                                       f"more than the limit of {tdx.MAX_SEM_FACTS}\n")
    assert not (workdir / "out.json").exists()


def test_equiv_builds_one_point_per_grid_cell(workdir, capsys):
    # sem of this input is beyond MAX_SEM_FACTS; equiv decides it by the identity map and builds none
    (workdir / "long.json").write_text(_LONG)
    assert run(workdir, "equiv", "-a", "@long.json", "-b", "@long.json") == 0
    assert capsys.readouterr() == ("equivalent\n", "")


def test_equiv_beyond_its_fact_limit_is_one_error_line(workdir, capsys, monkeypatch):
    # n nested facts [i, inf), each with a null of its own on one side and a constant on the
    # other, have no twin: each side's facts cover n(n+1)/2 grid cells below the horizon n, and
    # so do the other side's at the same points; the facts are counted before any is built
    monkeypatch.setattr(tdx.homomorphism, "_cut", None)
    n = 355
    for name, value in (("nulls", lambda i: {"null": f"N{i}"}), ("constants", lambda i: f"p{i}")):
        facts = [{"values": [value(i)], "interval": {"start": i, "end": "inf"}} for i in range(n)]
        (workdir / f"{name}.json").write_text(json.dumps({"kind": "concrete", "relations": {
            "R": {"attributes": ["a", "t"], "facts": facts}}}))
    assert run(workdir, "equiv", "-a", "@nulls.json", "-b", "@constants.json") == 1
    assert capsys.readouterr() == ("", f"error: the equivalence check up to horizon {n} builds {2 * n * (n + 1)} "
                                       f"facts, more than the limit of {tdx.MAX_SEM_FACTS}\n")


@pytest.mark.parametrize("name", ["nulls", "constants"])
def test_equiv_of_an_input_with_itself_cuts_nothing(workdir, capsys, monkeypatch, name):
    # the two views are equal, so the identity map decides it and no fact is cut, however many cells
    monkeypatch.setattr(tdx.homomorphism, "_cut", None)
    value = {"nulls": lambda i: {"null": f"N{i}"}, "constants": lambda i: f"p{i}"}[name]
    facts = [{"values": [value(i)], "interval": {"start": i, "end": "inf"}} for i in range(710)]
    (workdir / "nested.json").write_text(json.dumps({"kind": "concrete", "relations": {
        "R": {"attributes": ["a", "t"], "facts": facts}}}))
    assert run(workdir, "equiv", "-a", "@nested.json", "-b", "@nested.json") == 0
    assert capsys.readouterr() == ("equivalent\n", "")


def _nested_join(workdir, b_facts):
    """450 nested facts [i, inf) of A, ``b_facts`` of B, and a mapping that
    joins A and B on time alone, so that all of them are one join block."""
    facts = [{"values": [f"p{i}"], "interval": {"start": i, "end": "inf"}} for i in range(450)]
    (workdir / "nested.json").write_text(json.dumps({"kind": "concrete", "relations": {
        "A": {"attributes": ["name", "time"], "facts": facts},
        "B": {"attributes": ["company", "time"], "facts": b_facts}}}))
    (workdir / "join.tdx").write_text("source A(name, @time).\nsource B(company, @time).\n"
                                      "target C(name, company, @time).\n"
                                      "rule A(n, t), B(c, t) -> C(n, c, t).\n"
                                      "query q(n, t) :- C(n, c, t).\n")


@pytest.mark.parametrize("stage, argv", [
    ("normalization", ("normalize", "-i", "@nested.json", "-o", "@out.json")),
    ("the rule bodies", ("chase", "-m", "@join.tdx", "-i", "@nested.json", "-o", "@out.json")),
    ("the rule bodies", ("certain", "-m", "@join.tdx", "-i", "@nested.json", "-q", "q", "-o", "@out.json")),
])
def test_normalize_beyond_the_fragment_limit_is_one_error_line(workdir, capsys, stage, argv):
    # n nested facts [i, inf) make n(n+1)/2 fragments: 450 make 101,475, and the one fact
    # [0, inf) that each of them can join with makes 450, 101,474 more than the 451 facts;
    # the chase cuts the rule's one join block so, as normalization cuts the whole instance
    _nested_join(workdir, [{"values": ["acme"], "interval": {"start": 0, "end": "inf"}}])
    assert run(workdir, *argv) == 1
    assert not (workdir / "out.json").exists()
    assert capsys.readouterr().err == (f"error: {stage} would split 451 facts into 101925 fragments, "
                                       f"101474 more than the facts, above the limit of {tdx.MAX_NORMALIZE_FRAGMENTS}\n")


def _write(workdir, name, relations):
    """A concrete instance of ``relations``, each its attributes and facts."""
    (workdir / name).write_text(json.dumps({"kind": "concrete", "relations": {
        r: {"attributes": attributes, "facts": facts} for r, (attributes, facts) in relations.items()}}))


def _nested(values):
    """450 nested facts [i, inf), a fact's values made from ``i``."""
    return [{"values": values(i), "interval": {"start": i, "end": "inf"}} for i in range(450)]


@pytest.mark.parametrize("argv", [
    ("chase", "-m", "@example1.tdx", "-i", "@nested.json", "-o", "@out.json"),
    ("certain", "-m", "@example1.tdx", "-i", "@nested.json", "-q", "positions", "-o", "@out.json"),
])
def test_a_key_block_beyond_the_fragment_limit_is_one_error_line(workdir, capsys, argv):
    # Ada's 450 nested DBA jobs [i, inf), each in its own department, so each fires its rule with
    # nulls of its own and no two results coalesce; her Emp facts are one key group, and so are her
    # Sal facts, and the key round would cut each group into 101,475 fragments
    _write(workdir, "nested.json", {
        "Employee1": (["name", "company", "time"], []),
        "Employee2": (["name", "position", "dept", "time"], _nested(lambda i: ["Ada", "DBA", f"d{i}"]))})
    assert run(workdir, *argv) == 1
    assert not (workdir / "out.json").exists()
    assert capsys.readouterr().err == ("error: the key round would split 900 facts into 202950 fragments, "
                                       f"202050 more than the facts, above the limit of {tdx.MAX_NORMALIZE_FRAGMENTS}\n")


def test_query_beyond_the_fragment_limit_is_one_error_line(workdir, capsys):
    # paid_positions joins Emp and Sal on name and position: Ada's 450 nested DBA jobs [i, inf) and
    # her one salary [0, inf) are one join block, which would be cut as normalization cuts it
    _write(workdir, "nested.json", {
        "Emp": (["name", "position", "company", "time"], _nested(lambda i: ["Ada", "DBA", f"c{i}"])),
        "Sal": (["name", "position", "salary", "time"], _nested(lambda i: ["Ada", "DBA", "90k"])[:1])})
    assert run(workdir, "query", "-m", "@example1.tdx", "-i", "@nested.json", "-q", "paid_positions",
               "-o", "@out.json") == 1
    assert not (workdir / "out.json").exists()
    assert capsys.readouterr().err == ("error: the query body would split 451 facts into 101925 fragments, "
                                       f"101474 more than the facts, above the limit of {tdx.MAX_NORMALIZE_FRAGMENTS}\n")


def test_a_join_block_without_a_fact_of_each_body_relation_is_not_cut(workdir):
    # with no B fact, no binding joins the nested A facts, so they need no cut
    _nested_join(workdir, [])
    assert run(workdir, "chase", "-m", "@join.tdx", "-i", "@nested.json", "-o", "@out.json") == 0
    assert loads_instance((workdir / "out.json").read_text()).facts == frozenset()


@pytest.mark.parametrize("argv", [
    ("chase", "-m", "@example1.tdx", "-i", "@nested.json", "-o", "@out.json"),
    ("certain", "-m", "@example1.tdx", "-i", "@nested.json", "-q", "positions", "-o", "@out.json"),
])
def test_nested_facts_that_meet_no_other_fact_are_chased_uncut(workdir, argv):
    # 450 people's nested facts [i, inf): one-atom rule bodies fire on them as they are, and each
    # key group holds one person's facts, so nothing is cut and each person keeps one fact per relation
    facts = [{"values": [f"p{i}", "acme"], "interval": {"start": i, "end": "inf"}} for i in range(450)]
    (workdir / "nested.json").write_text(json.dumps({"kind": "concrete", "relations": {
        "Employee1": {"attributes": ["name", "company", "time"], "facts": facts},
        "Employee2": {"attributes": ["name", "position", "dept", "time"], "facts": []}}}))
    assert run(workdir, *argv) == 0
    out = loads_instance((workdir / "out.json").read_text())
    assert len(out.facts) == (900 if argv[0] == "chase" else 0)


@pytest.mark.parametrize("rule, message", [
    ("rule A(x, t) -> B(x, t). extra", "3:26: unexpected input after '.'"),
    ("rule A(x, t) -> B(x, t);", "3:24: unexpected character ';'"),
], ids=["text-after-the-period", "stray-semicolon"])
def test_a_mapping_syntax_error_is_one_located_error_line(workdir, capsys, rule, message):
    (workdir / "m.tdx").write_text(f"source A(x, @t).\ntarget B(x, @t).\n{rule}\n")
    (workdir / "a.json").write_text('{"kind": "abstract", "relations": {"A": {"attributes": ["x", "t"]}}}')
    assert run(workdir, "chase", "-m", "@m.tdx", "-i", "@a.json", "-o", "@out.json") == 1
    assert capsys.readouterr().err == f"error: {workdir}/m.tdx:{message}\n"


def test_source_attributes_that_differ_from_the_mapping_are_one_error_line(workdir, capsys):
    (workdir / "m.tdx").write_text("source A(x, @t).\ntarget B(x, @t).\nrule A(x, t) -> B(x, t).\n")
    (workdir / "a.json").write_text('{"kind": "abstract", "relations": {"A": {"attributes": ["y", "t"]}}}')
    assert run(workdir, "chase", "-m", "@m.tdx", "-i", "@a.json", "-o", "@out.json") == 1
    assert capsys.readouterr().err == "error: relation 'A' declared as ('x', 't'), instance has ('y', 't')\n"


def test_query_on_an_instance_without_a_relation_of_the_query_names_the_query(workdir, capsys):
    """A parsed query is checked against the schema of the instance it
    reads, as a query built in code is."""
    assert run(workdir, "query", "-m", "@example1.tdx", "-q", "positions", "-i", "@fig1.json", "-o", "@x.json") == 1
    assert capsys.readouterr().err == "error: query 'positions': unknown target relation 'Emp'\n"


@pytest.mark.parametrize("argv, code", [
    (("chase", "-m", "@example1.tdx", "-i", "@fig1.json", "-o", "@out.json"), 0),
    (("chase", "-m", "@example3.tdx", "-i", "@example3_source.json", "-o", "@out.json"), 2),
    (("achase", "-m", "@example1.tdx", "-i", "@fig2.json", "-o", "@out.json"), 0),
    (("certain", "-m", "@example1.tdx", "-q", "positions", "-i", "@fig1.json", "-o", "@out.json"), 0),
    (("certain", "-m", "@example3.tdx", "-q", "pos", "-i", "@example3_source.json", "-o", "@out.json"), 2),
    (("sem", "-i", "@fig1.json", "-o", "@out.json"), 0),
    (("normalize", "-i", "@fig1.json", "-o", "@out.json"), 0),
    (("equiv", "-a", "@fig1.json", "-b", "@fig2.json", "--horizon", "13"), 0),
    (("equiv", "-a", "@twisted.json", "-b", "@fig3.json", "--horizon", "13"), 3),
    (("equiv", "-a", "@fig1.json", "-b", "@fig1.json", "--horizon", "2"), 1),
], ids=["chase", "chase-failure", "achase", "certain", "certain-no-solution", "sem", "normalize",
        "equiv", "equiv-false", "horizon-refusal"])
def test_a_command_leaves_no_cyclic_garbage(workdir, capsys, argv, code):
    """After one warm-up call, a command run with the cyclic collector
    disabled leaves 0 objects for ``gc.collect()``: reference counting
    frees all it made.  Exempt: an argparse usage error (``tdx chase -m``,
    exit 1) leaves the 6 ``HelpFormatter`` objects that argparse builds to
    word it."""
    (workdir / "twisted.json").write_text((workdir / "fig3.json").read_text().replace("Developer", "Boss"))
    gc.collect()
    gc.disable()
    try:
        assert run(workdir, *argv) == code
        gc.collect()
        assert run(workdir, *argv) == code
        assert gc.collect() == 0
    finally:
        gc.enable()
    capsys.readouterr()


class _Terminal(io.StringIO):
    def isatty(self) -> bool:
        return True


@pytest.mark.parametrize("color, prefix", [(None, "\x1b[31merror: \x1b[0m"), ("0", "error: ")])
def test_an_error_is_red_on_a_terminal_unless_tdx_color_is_0(monkeypatch, color, prefix):
    terminal = _Terminal()
    monkeypatch.setattr(sys, "stderr", terminal)
    if color is None:
        monkeypatch.delenv("TDX_COLOR", raising=False)
    else:
        monkeypatch.setenv("TDX_COLOR", color)
    tdx.cli._diag("boom")
    tdx.cli._diag("chase failed", error=False)
    assert terminal.getvalue() == f"{prefix}boom\nchase failed\n"


@pytest.mark.parametrize("argv, code", [(("equiv", "-a", "@fig4.json", "-b", "@fig4.json"), 0),
                                        (("sem", "-i", "@missing.json", "-o", "-"), 1)])
def test_main_exits_with_the_code_of_run_cli(workdir, capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["tdx", *(a.replace("@", str(workdir) + "/") for a in argv)])
    with pytest.raises(SystemExit) as exit_info:
        tdx.cli.main()
    assert exit_info.value.code == code
    capsys.readouterr()
