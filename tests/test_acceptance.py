"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every criterion is exact (tolerance zero): solver outputs are integers and
set equalities, so any disagreement with an oracle is a failure.
"""

import json
import random

import pytest

from convdom import (
    DominatingPair,
    Graph,
    convex_hull,
    gamma_con_bruteforce,
    gamma_con_hull4,
    gamma_iso_bruteforce,
    gamma_iso_pair,
    is_chordal,
    is_chordal_dp_graph,
    is_convex,
    is_dominating_pair,
    is_dp_graph_bruteforce,
    is_isometric,
    make_A1,
    make_Bn,
    make_path,
    mask_of,
    random_chordal,
    random_interval,
    random_split,
    split_partition,
    vertices_of,
)
from convdom.cli import main as cli_main
from convdom.edgelist import dump
from convdom.reduction import verify_gadget_equivalence

from oracles import (
    all_cliques_of_maximum_size,
    connected_in,
    dp_by_path_enumeration,
    min_convex_superset,
    minimal_cd_sets,
)
from strategies import random_chordal_dp, random_weak_dp

MASTER_SEED = 20250810


def _verdict(number: int, label: str, ok: bool, details: str) -> None:
    print(f"[acceptance] criterion {number} ({label}): {'PASS' if ok else 'FAIL'} ({details})")


# -- corpora ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def chordal_dp_corpus():
    rng = random.Random(MASTER_SEED)
    densities = (0.3, 0.45, 0.6, 0.75)
    graphs = []
    for i in range(500):
        n = 4 + i % 9
        graphs.append(random_chordal_dp(n, rng.getrandbits(63), densities[i % 4]))
    return graphs


@pytest.fixture(scope="module")
def weak_dp_corpus():
    rng = random.Random(MASTER_SEED + 1)
    graphs = [make_path(n) for n in range(2, 13)]
    from test_domination import stage4_graph, staged_graph

    graphs += [staged_graph(), stage4_graph()]
    while len(graphs) < 500:
        i = len(graphs)
        n = 2 + i % 11
        kind = i % 4
        seed = rng.getrandbits(63)
        if kind == 0:
            graphs.append(random_weak_dp(n, seed, 0.15 if n > 4 else 0.4))
        elif kind == 1:
            graphs.append(random_weak_dp(n, seed, 0.35))
        elif kind == 2:
            graphs.append(random_interval(n, seed))
        else:
            graphs.append(random_chordal_dp(n, seed, 0.4))
    return graphs


@pytest.fixture(scope="module")
def iso_instances(weak_dp_corpus):
    """(graph, x, y, d, staged value, oracle value) for every verified pair."""
    rows = []
    for g in weak_dp_corpus:
        oracle = gamma_iso_bruteforce(g).value
        dist = g.distances
        for x in range(g.n):
            for y in range(x, g.n):
                if not is_dominating_pair(g, x, y):
                    continue
                staged = gamma_iso_pair(g, DominatingPair(x, y, True))
                assert staged.certificate.dominating and staged.certificate.isometric
                rows.append((g, x, y, dist[x][y], staged.value, oracle))
    return rows


@pytest.fixture(scope="module")
def split_corpus():
    rng = random.Random(MASTER_SEED + 2)
    graphs = []
    for i in range(100):
        n = 2 + i % 10  # 2..11
        graphs.append(random_split(n, rng.getrandbits(63), 0.3 + 0.05 * (i % 8)))
    return graphs


def _one_edge_perturbations(g: Graph):
    present = list(g.edges())
    for dropped in present:
        yield Graph.from_edges(g.n, [e for e in present if e != dropped])
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not g.has_edge(u, v):
                yield Graph.from_edges(g.n, present + [(u, v)])


@pytest.fixture(scope="module")
def chordal_fixture_corpus():
    seen = set()
    fixtures = []

    def add(graph):
        if graph.n <= 12 and graph not in seen and is_chordal(graph).chordal:
            seen.add(graph)
            fixtures.append(graph)

    add(make_A1())
    for idx in range(1, 8):
        add(make_Bn(idx))
    for base in [make_A1()] + [make_Bn(idx) for idx in range(1, 8)]:
        for perturbed in _one_edge_perturbations(base):
            add(perturbed)
    rng = random.Random(MASTER_SEED + 3)
    while len(fixtures) < 320:
        n = 5 + len(fixtures) % 8
        add(random_chordal(n, rng.getrandbits(63), 0.3 + 0.1 * (len(fixtures) % 5)))
    return fixtures


# -- criteria ---------------------------------------------------------------------


def test_criterion_1_hull4_equals_bruteforce(chordal_dp_corpus):
    failures = []
    for g in chordal_dp_corpus:
        fast = gamma_con_hull4(g, trust=True)
        slow = gamma_con_bruteforce(g)
        if fast.value != slow.value:
            failures.append((g, fast.value, slow.value))
        if fast.seed.bit_count() > 4 or convex_hull(g, fast.seed).hull != fast.witness:
            failures.append((g, "seed-invariant"))
        if not (fast.certificate.dominating and fast.certificate.convex):
            failures.append((g, "certificate"))
    ok = not failures
    _verdict(1, "hull4 equals bruteforce", ok,
             f"{len(chordal_dp_corpus)} chordal dp graphs, {len(failures)} disagreements")
    assert ok, failures[:3]


def test_criterion_2_staged_iso_equals_bruteforce(iso_instances):
    failures = [row for row in iso_instances if row[4] != row[5]]
    graphs = len({id(row[0]) for row in iso_instances})
    ok = not failures and graphs >= 500
    _verdict(2, "staged iso equals bruteforce", ok,
             f"{graphs} graphs, {len(iso_instances)} verified pairs, "
             f"{len(failures)} disagreements")
    assert ok, failures[:3]


def test_criterion_3_sandwich_bound(iso_instances):
    failures = [row for row in iso_instances if not row[3] - 1 <= row[4] <= row[3] + 1]
    ok = not failures
    _verdict(3, "sandwich bound", ok,
             f"{len(iso_instances)} (graph, pair) instances, {len(failures)} violations")
    assert ok, failures[:3]


def test_criterion_4_reduction_claim(split_corpus):
    failures = []
    pairs_checked = 0
    for g in split_corpus:
        for k in range(1, g.n + 1):
            report = verify_gadget_equivalence(g, k)
            pairs_checked += 1
            if not report.holds:
                failures.append((g, k, "biconditional"))
            if report.gadget_result.value != report.input_result.value + 1:
                failures.append((g, k, "gamma shift"))
    ok = not failures
    _verdict(4, "reduction claim", ok,
             f"{len(split_corpus)} split graphs, {pairs_checked} (graph, k) pairs, "
             f"{len(failures)} failures")
    assert ok, failures[:3]


def test_criterion_5_forbidden_characterization(chordal_fixture_corpus):
    from convdom import verify_witness

    failures = []
    for g in chordal_fixture_corpus:
        verdict = is_chordal_dp_graph(g)
        if verdict.holds != is_dp_graph_bruteforce(g):
            failures.append(g)
        if verdict.witness is not None and not verify_witness(g, verdict.witness):
            failures.append((g, "witness does not re-verify"))
    ok = not failures and len(chordal_fixture_corpus) >= 300
    _verdict(5, "forbidden-family characterization", ok,
             f"{len(chordal_fixture_corpus)} chordal fixtures, {len(failures)} disagreements")
    assert ok, failures[:3]


def test_criterion_6_pair_criterion_soundness(corpus):
    rng = random.Random(MASTER_SEED + 4)
    from convdom import random_connected

    graphs = [g for _name, g in corpus if g.n <= 9 and g.is_connected()]
    while len(graphs) < 90:
        graphs.append(random_connected(2 + len(graphs) % 8, rng.getrandbits(63), 0.3))
    triples = 0
    failures = []
    for g in graphs:
        for x in range(g.n):
            for y in range(x, g.n):
                triples += 1
                if is_dominating_pair(g, x, y) != dp_by_path_enumeration(g, x, y):
                    failures.append((g, x, y))
    ok = not failures
    _verdict(6, "pair criterion soundness", ok,
             f"{len(graphs)} graphs, {triples} (graph, pair) triples, "
             f"{len(failures)} disagreements")
    assert ok, failures[:3]


def test_criterion_7_convexity_algebra(corpus):
    rng = random.Random(MASTER_SEED + 5)
    from convdom import random_connected

    pool = [g for _name, g in corpus if 1 <= g.n <= 12 and g.is_connected()]
    for i in range(30):
        pool.append(random_connected(3 + i % 10, rng.getrandbits(63), 0.3))
    failures = []
    trials = 10_000
    for _ in range(trials):
        g = pool[rng.randrange(len(pool))]
        anchor = rng.randrange(g.n)
        component = vertices_of(g.component_mask(anchor))
        small = mask_of(rng.sample(component, rng.randint(1, min(3, len(component)))))
        grown = small | mask_of(rng.sample(component, rng.randint(1, min(3, len(component)))))
        hull = convex_hull(g, small).hull
        if small & ~hull:
            failures.append((g, small, "extensivity"))
        if convex_hull(g, hull).hull != hull:
            failures.append((g, small, "idempotence"))
        if hull & ~convex_hull(g, grown).hull:
            failures.append((g, small, "monotonicity"))
        probe = mask_of(v for v in component if rng.random() < 0.4)
        if probe:
            if is_convex(g, probe) and not is_isometric(g, probe):
                failures.append((g, probe, "convex->isometric"))
            if is_isometric(g, probe) and not connected_in(g, probe):
                failures.append((g, probe, "isometric->connected"))

    oracle_checked = 0
    for g in pool:
        if g.n > 8:
            continue
        for _ in range(12):
            anchor = rng.randrange(g.n)
            component = vertices_of(g.component_mask(anchor))
            seed = mask_of(rng.sample(component, rng.randint(1, min(4, len(component)))))
            oracle_checked += 1
            if convex_hull(g, seed).hull != min_convex_superset(g, seed):
                failures.append((g, seed, "bruteforce-hull"))
    ok = not failures
    _verdict(7, "convexity algebra", ok,
             f"{trials} randomized trials, {oracle_checked} hull oracle checks, "
             f"{len(failures)} violations")
    assert ok, failures[:3]


def test_criterion_8_split_lemma():
    rng = random.Random(MASTER_SEED + 6)
    failures = []
    graphs = []
    while len(graphs) < 100:
        g = random_split(2 + len(graphs) % 9, rng.getrandbits(63), 0.35)
        if g.n <= 10 and g.is_connected():
            graphs.append(g)
    sets_checked = 0
    for g in graphs:
        assert split_partition(g) is not None
        cliques = all_cliques_of_maximum_size(g)
        for d in minimal_cd_sets(g):
            sets_checked += 1
            if not any(d & ~c == 0 for c in cliques):
                failures.append((g, d))
    ok = not failures
    _verdict(8, "split-graph lemma", ok,
             f"{len(graphs)} split fixtures, {sets_checked} minimal CD-sets, "
             f"{len(failures)} escapes")
    assert ok, failures[:3]


def test_criterion_9_determinism(tmp_path, capsys):
    from test_domination import stage4_graph, staged_graph

    inputs = {
        "p6": make_path(6),
        "staged": staged_graph(),
        "stage4": stage4_graph(),
        "split": random_split(7, 99, 0.4),
        "chordal": random_chordal_dp(9, 17, 0.5),
    }
    files = {}
    for name, g in inputs.items():
        files[name] = tmp_path / f"{name}.elist"
        dump(g, files[name])

    def run(*argv):
        code = cli_main([str(a) for a in argv])
        out = capsys.readouterr().out
        assert code == 0, argv
        record = json.loads(out)
        record.pop("timings", None)
        return json.dumps(record, sort_keys=True)

    commands = [
        ("solve", "convex", files["chordal"]),
        ("solve", "convex", files["p6"]),
        ("solve", "isometric", files["stage4"]),
        ("solve", "isometric", files["staged"]),
        ("oracle", "convex", files["p6"]),
        ("oracle", "isometric", files["staged"]),
        ("recognize", files["chordal"]),
        ("gadget", files["split"], "--k", "2", "--out", tmp_path / "g.elist"),
        ("generate", "--family", "random_chordal", "--n", "9", "--seed", "4",
         "--out", tmp_path / "gen.elist"),
    ]
    failures = []
    runs = 0
    for argv in commands:
        baseline = run(*argv)
        repeat = run(*argv)
        runs += 2
        if repeat != baseline:
            failures.append((argv, "rerun"))
    generated = (tmp_path / "gen.elist").read_bytes()
    cli_main(["generate", "--family", "random_chordal", "--n", "9", "--seed", "4",
              "--out", str(tmp_path / "gen2.elist")])
    capsys.readouterr()
    if (tmp_path / "gen2.elist").read_bytes() != generated:
        failures.append(("generate", "file bytes"))
    ok = not failures
    _verdict(9, "determinism", ok, f"{runs} command runs compared, {len(failures)} mismatches")
    assert ok, failures
