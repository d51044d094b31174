import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from convdom import (
    Graph,
    is_convex,
    is_dominating,
    is_isometric,
    make_cycle,
    make_path,
    make_star,
    mask_of,
)
from convdom import cli
from convdom.cli import _parser, main
from convdom.edgelist import dump, parse, serialize

from conftest import time_limit


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in {
        "p4": make_path(4),
        "p6": make_path(6),
        "c7": make_cycle(7),
        "star4": make_star(4),
        # five legs of length 3: no hull of at most four vertices dominates
        "spider": Graph.from_edges(16, [
            (0 if step == 1 else 3 * leg + step - 1, 3 * leg + step)
            for leg in range(5)
            for step in (1, 2, 3)
        ]),
    }.items():
        paths[name] = tmp_path / f"{name}.elist"
        dump(g, paths[name])
    bad = tmp_path / "bad.elist"
    bad.write_text("3 1\n0 0\n")
    paths["bad"] = bad
    return paths


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    record = None
    if captured.out:
        record = json.loads(captured.out)
    return code, record, captured.err


def run_module(*argv):
    """``python -m convdom`` in a fresh process, on this checkout's package."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run(
        [sys.executable, "-m", "convdom", *map(str, argv)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def strip_timings(record):
    return {k: v for k, v in record.items() if k != "timings"}


def test_solve_convex(capsys, files):
    code, record, err = run_cli(capsys, "solve", "convex", files["p6"])
    assert code == 0
    assert record["status"] == "ok"
    assert record["value"] == 4
    assert record["witness"] == [1, 2, 3, 4]
    assert record["seed"] == [1, 4]
    assert record["class_check"] == "verified"
    assert record["certificate"]["dominating"] and record["certificate"]["convex"]
    assert "domination number 4" in err


def test_solve_trust_class_marks_assumed(capsys, files):
    code, record, _ = run_cli(capsys, "solve", "convex", files["p6"], "--trust-class")
    assert code == 0
    assert record["class_check"] == "assumed"
    assert record["value"] == 4


def test_solve_isometric(capsys, files):
    code, record, _ = run_cli(capsys, "solve", "isometric", files["p6"])
    assert code == 0
    assert record["value"] == 4
    assert record["pair"] == [0, 4]
    assert record["stage"] == 1
    assert record["certificate"]["isometric"]


def test_solve_wrong_class_exit_codes(capsys, files):
    code, record, _ = run_cli(capsys, "solve", "convex", files["c7"])
    assert code == 2
    assert record["status"] == "wrong-class"
    assert "hole" in record

    code, record, _ = run_cli(capsys, "solve", "isometric", files["c7"])
    assert code == 2
    assert record["status"] == "wrong-class"

    # a trusted solve that finds no dominating hull refutes the class too
    code, record, err = run_cli(capsys, "solve", "convex", files["spider"], "--trust-class")
    assert code == 2
    assert record["status"] == "wrong-class"
    assert "wrong class" in err


def test_parse_error_exit_code(capsys, files):
    code, record, err = run_cli(capsys, "solve", "convex", files["bad"])
    assert code == 1
    assert record is None
    assert "loop" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("solve", "convex", "{missing}"),
        ("solve", "isometric", "{dir}"),
        ("recognize", "{missing}"),
        ("recognize", "{dir}"),
        ("oracle", "convex", "{missing}"),
        ("oracle", "domination", "{dir}"),
        ("gadget", "{missing}", "--k", "1"),
        ("gadget", "{dir}", "--k", "1"),
        ("gadget", "{star4}", "--k", "1", "--out", "{unwritable}"),
        ("gadget", "{star4}", "--k", "1", "--out", "{dir}"),
        ("generate", "--family", "Bn", "--n", "2", "--out", "{unwritable}"),
        ("generate", "--family", "Bn", "--n", "2", "--out", "{dir}"),
    ],
)
def test_file_error_exit_code(capsys, files, tmp_path, argv):
    names = {
        "missing": tmp_path / "missing.elist",
        "dir": tmp_path,
        "star4": files["star4"],
        "unwritable": tmp_path / "no-such-dir" / "out.elist",
    }
    code, record, err = run_cli(capsys, *(a.format(**names) for a in argv))
    assert code == 2
    assert record is None
    assert err.startswith("file error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_errors_inside_a_command_are_not_file_errors(capsys, files, monkeypatch):
    # TimeoutError is an OSError, but it is not about the input or --out
    def expire(g, trust=False):
        raise TimeoutError("solver ran out of time")

    monkeypatch.setattr(cli, "gamma_con_hull4", expire)
    with pytest.raises(TimeoutError):
        main(["solve", "convex", str(files["p4"])])
    assert "file error:" not in capsys.readouterr().err


def test_oracle_and_size_guard(capsys, files, tmp_path):
    code, record, _ = run_cli(capsys, "oracle", "convex", files["p4"])
    assert code == 0
    assert record["value"] == 2
    p15 = tmp_path / "p15.elist"
    dump(make_path(15), p15)
    code, record, err = run_cli(capsys, "oracle", "isometric", p15)
    assert code == 3
    assert record is None
    assert err.startswith("size guard: ") and err.count("\n") == 1


def test_empty_graph_is_refused(capsys, tmp_path):
    empty = tmp_path / "empty.elist"
    empty.write_text("0 0\n")
    for argv in (
        ("solve", "convex", empty),
        ("solve", "isometric", empty),
        ("oracle", "convex", empty),
        ("oracle", "isometric", empty),
        ("oracle", "domination", empty),
        ("gadget", empty, "--k", "1"),
        ("recognize", empty),
    ):
        code, record, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert record is None, argv
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert "non-empty" in err and "Traceback" not in err, argv


def test_huge_edgeless_graph_is_refused_in_linear_time(capsys, tmp_path):
    # a vertex-range check in Graph construction that is quadratic in n
    # would take over a minute at this size
    huge = tmp_path / "huge.elist"
    huge.write_text("1000000 0\n")
    with time_limit(10):
        code, record, err = run_cli(capsys, "solve", "convex", huge)
    assert code == 2
    assert record is None
    assert "connected" in err


def test_gadget_command(capsys, files, tmp_path):
    out = tmp_path / "star.gadget.elist"
    code, record, _ = run_cli(capsys, "gadget", files["star4"], "--k", "1", "--out", out)
    assert code == 0
    assert record["equivalent"] is True
    assert record["gamma_con_gadget"] == record["gamma_con_input"] + 1
    gadget = parse(out.read_text())
    assert gadget.n == 7
    header = out.read_text().splitlines()[0]
    assert header.startswith("#") and "x=4" in header


@pytest.mark.parametrize("name", ["café.elist", "two\nlines.elist"])
def test_gadget_escapes_the_input_name(capsys, files, tmp_path, name):
    named = tmp_path / name
    named.write_bytes(files["star4"].read_bytes())
    out = tmp_path / "named.gadget.elist"
    assert run_cli(capsys, "gadget", named, "--k", "1", "--out", out)[0] == 0
    plain = tmp_path / "plain.gadget.elist"
    assert run_cli(capsys, "gadget", files["star4"], "--k", "1", "--out", plain)[0] == 0
    raw = out.read_text(encoding="ascii")
    assert parse(raw) == parse(plain.read_text())
    comments = [line for line in raw.splitlines() if line.startswith("#")]
    assert len(comments) == 2
    assert comments[0].startswith("# gadget of " + name.encode("unicode_escape").decode())


def test_generate_round_trip(capsys, tmp_path):
    out = tmp_path / "b2.elist"
    code, record, _ = run_cli(capsys, "generate", "--family", "Bn", "--n", "2", "--out", out)
    assert code == 0
    assert record["vertices"] == 7
    assert record["rng"] == "mt19937"
    raw = out.read_text()
    assert serialize(parse(raw)) == raw  # canonical files round-trip bytewise


def test_records_reverify_and_are_deterministic(capsys, files):
    first = run_cli(capsys, "solve", "convex", files["p6"])[1]
    second = run_cli(capsys, "solve", "convex", files["p6"])[1]
    assert strip_timings(first) == strip_timings(second)

    g = make_path(6)
    witness = mask_of(first["witness"])
    assert is_dominating(g, witness) and is_convex(g, witness) and is_isometric(g, witness)


def test_recognize_examples(capsys, tmp_path):
    from convdom import make_A1, make_Bn, make_complete

    a1 = tmp_path / "a1.elist"
    dump(make_A1(), a1)
    code, record, _ = run_cli(capsys, "recognize", a1)
    assert code == 0
    assert record["chordal"] is True
    assert record["chordal_dp"] is False
    assert record["witness"]["family"] == "A1"

    b1 = tmp_path / "b1.elist"
    dump(make_Bn(1), b1)
    record = run_cli(capsys, "recognize", b1)[1]
    assert record["chordal_dp"] is False
    assert record["witness"]["family"] == "Bn" and record["witness"]["index"] == 1

    k5 = tmp_path / "k5.elist"
    dump(make_complete(5), k5)
    record = run_cli(capsys, "recognize", k5)[1]
    assert record["chordal"] and record["weak_dp"] and record["chordal_dp"]
    assert record["pair"] == [0, 0]
    assert record["split"] is True
    assert record["split_partition"] == {"clique": [0, 1, 2, 3, 4], "independent": []}


def test_module_entry_point(files):
    proc = run_module("recognize", files["p4"])
    assert proc.returncode == 0
    record = json.loads(proc.stdout)
    assert record["chordal"] is True
    assert record["weak_dp"] is True
    assert record["chordal_dp"] is True


def test_unknown_flag_is_a_usage_error(files):
    for command, flag, value in (
        (("solve", "convex"), "--jobs", "2"),
        (("solve", "isometric"), "--path-cap", "5"),
        (("oracle", "isometric"), "--oracle-bound", "3"),
    ):
        proc = run_module(*command, files["p6"], flag, value)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert flag in proc.stderr


def test_readme_flags_exist():
    """Every flag the README shows in a ``convdom`` command line or in
    inline code is an option of some subcommand."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    fence = re.compile(r"^```.*?^```", re.MULTILINE | re.DOTALL)
    spans = [
        line
        for block in fence.findall(readme)
        for line in block.splitlines()
        if line.startswith(("convdom ", "python -m convdom "))
    ]
    spans += re.findall(r"`[^`]+`", fence.sub("", readme))
    named = {flag for span in spans for flag in re.findall(r"--[a-z][a-z0-9-]*", span)}
    subparsers = next(
        a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {
        flag
        for sub in subparsers.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }
    assert named and named <= options, sorted(named - options)
