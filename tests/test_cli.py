import json
import os
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
from convdom.cli import main
from convdom.edgelist import dump, parse, serialize


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, g in {
        "p4": make_path(4),
        "p6": make_path(6),
        "p8": make_path(8),
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


def test_oracle_and_size_guard(capsys, files):
    code, record, _ = run_cli(capsys, "oracle", "convex", files["p4"])
    assert code == 0
    assert record["value"] == 2
    code, record, _ = run_cli(capsys, "oracle", "isometric", files["p4"], "--oracle-bound", "3")
    assert code == 3
    assert record is None


def test_path_cap_exit_code(capsys, files):
    code, _, err = run_cli(capsys, "solve", "isometric", files["p8"], "--path-cap", "0")
    assert code == 3
    assert "cap" in err


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
    proc = run_module("solve", "convex", files["p6"], "--jobs", "2")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--jobs" in proc.stderr
