"""Golden digests of the CLI records: any change to what a command prints
fails here.

Each test writes a fixed corpus of edge-list files, runs ``cli.main`` on
each, drops the wall-clock ``timings`` of every record, and hashes the exit
codes and the records in order.  A digest moves only when some record
does, so a refactor that claims to leave every request unchanged keeps all
four digests as they are.
"""

import hashlib
import json
from random import Random

import pytest

from convdom import (
    Graph,
    make_Bn,
    random_chordal,
    random_connected,
    random_interval,
    random_split,
)
from convdom.cli import main
from convdom.edgelist import dump


def sparse_interval(n, rng):
    """Connected interval graph whose diameter grows with ``n``: each
    interval starts inside the span covered so far."""
    spans = [(0, rng.randint(2, 6))]
    right = spans[0][1]
    for _ in range(n - 1):
        start = rng.randint(max(0, right - 4), right)
        spans.append((start, start + rng.randint(2, 6)))
        right = max(right, spans[-1][1])
    return Graph.from_edges(n, [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if spans[i][0] <= spans[j][1] and spans[j][0] <= spans[i][1]
    ])


def caterpillar(n, rng):
    """A spine path of n/3 to n/2 vertices, each other vertex a leaf on it."""
    spine = rng.randint(n // 3, n // 2)
    edges = [(i, i + 1) for i in range(spine - 1)]
    edges += [(rng.randrange(spine), leaf) for leaf in range(spine, n)]
    return Graph.from_edges(n, edges)


def relabelled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def run_all(capsys, monkeypatch, tmp_path, command, graphs, flags=()):
    """Run ``convdom <command> <file> <flags>`` on each graph in order;
    return (exit code, record without timings or None) per run."""
    monkeypatch.chdir(tmp_path)
    results = []
    for i, g in enumerate(graphs):
        name = f"g{i}.elist"
        dump(g, tmp_path / name)
        code = main([*command, name, *flags])
        out = capsys.readouterr().out
        record = None
        if out:
            record = json.loads(out)
            record.pop("timings", None)
        results.append((code, record))
    return results


def digest(results):
    h = hashlib.sha256()
    for code, record in results:
        h.update(json.dumps([code, record], sort_keys=True).encode() + b"\n")
    return h.hexdigest()


def test_solve_isometric_records(capsys, monkeypatch, tmp_path):
    graphs = []
    for n in (32, 64, 128):
        for i in range(3):
            graphs.append(sparse_interval(n, Random(f"interval/{n}/{i}")))
            graphs.append(caterpillar(n, Random(f"caterpillar/{n}/{i}")))
    graphs.append(random_interval(32, 5))
    results = run_all(capsys, monkeypatch, tmp_path, ("solve", "isometric"), graphs)
    assert {code for code, _ in results} == {0}
    assert {record["stage"] for _, record in results} >= {1, 3}
    assert digest(results) == ISOMETRIC


def test_solve_convex_records(capsys, monkeypatch, tmp_path):
    graphs = [random_interval(14, seed) for seed in range(6)]
    graphs += [sparse_interval(14, Random(f"convex/{seed}")) for seed in range(4)]
    graphs += [random_chordal(14, seed, 0.3) for seed in range(6)]
    graphs += [random_connected(14, seed, 0.2) for seed in range(3)]
    graphs += [random_split(14, seed, 0.4) for seed in range(3)]
    results = run_all(capsys, monkeypatch, tmp_path, ("solve", "convex"), graphs)
    results += run_all(capsys, monkeypatch, tmp_path, ("solve", "convex"), graphs[:4],
                       ("--trust-class",))
    statuses = [record["status"] for _, record in results]
    assert statuses.count("ok") >= 10 and statuses.count("wrong-class") >= 5
    assert digest(results) == CONVEX


def test_recognize_records(capsys, monkeypatch, tmp_path):
    graphs = []
    for n in range(10, 17):
        for seed in range(3):
            graphs.append(random_chordal(n, 100 * n + seed, 0.2))
            graphs.append(random_chordal(n, 100 * n + seed, 0.6))
        graphs.append(random_connected(n, n, 0.2))
        graphs.append(sparse_interval(n, Random(f"recognize/{n}")))
        graphs.append(random_split(n, n, 0.5))
    # Bn has idx + 5 vertices
    graphs += [relabelled(make_Bn(idx), Random(f"Bn/{idx}")) for idx in range(5, 12)]
    results = run_all(capsys, monkeypatch, tmp_path, ("recognize",), graphs)
    hits = [
        (record["witness"]["family"], record["witness"]["index"])
        for _, record in results
        if record["witness"] is not None
    ]
    assert len(hits) >= 30 and {family for family, _ in hits} == {"A1", "Bn"}
    assert len({index for family, index in hits if family == "Bn"}) >= 5
    assert digest(results) == RECOGNIZE


@pytest.mark.parametrize("kind", ["convex", "isometric", "domination"])
def test_oracle_records(capsys, monkeypatch, tmp_path, kind):
    graphs = []
    for n in range(4, 12):
        graphs.append(random_connected(n, n, 0.3))
        graphs.append(random_chordal(n, n, 0.4))
        graphs.append(random_split(n, n, 0.4))
    results = run_all(capsys, monkeypatch, tmp_path, ("oracle", kind), graphs)
    assert {code for code, _ in results} == {0}
    assert digest(results) == ORACLE[kind]


# sha256 of the records above; change one only together with a change that
# means to alter what that command prints, and say why
ISOMETRIC = "1acbf0667d77aacdf280df941710ab34210e02c3fb47e9c523d68f6dc00fd4be"
CONVEX = "7b9f2aa849826945c94ead6fcac27e640731fdb3915dab9a3810ad1dac547a37"
RECOGNIZE = "127dc5a95cd7bf1e2d85cdcd74f552b05f8e39b2100dbea6458e5e06df3d684d"
ORACLE = {
    "convex": "0c7f8cad091b3c8afecc6d62935c3c5ae56c45dbe7aa3d224d8231399478a6a5",
    "isometric": "aab1b53caceec63c923323eed15d4a2107b78432c523401d4d0882dc8c1f8b1e",
    "domination": "48aa22f1158bcbfd19720785c388958390bb4beebef0c22e5bbcbc9856d3dbee",
}
