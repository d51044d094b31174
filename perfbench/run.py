"""Closed-loop benchmark of the convdom solvers: one client, one process.

A request is one edge-list text handled as ``convdom solve`` handles it,
without starting a process: parse, solve, build the result record and
serialize it.  Usage, from the root of a checkout:

    python3 perfbench/run.py --workload convex-verified --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``--workload all`` runs every workload, each in
a fresh process so module caches and peak memory stay per workload.  The
last line of output is one JSON object; the lines before it name every
metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import clock  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = ("convex-verified", "convex-trusted", "isometric", "audit")

# Each run serves at least this many requests, so at least ten samples
# lie beyond p90; peak memory and the output digest are taken when the
# quota is reached, so they cover the same requests on every run.
QUOTA = {"convex-verified": 150, "convex-trusted": 110, "isometric": 110, "audit": 600}
SETUP_REPEATS = 5
# Requests are timed in CPU time.  Wall time well above it means the work
# ran where CPU time does not see it (a process still alive after the
# request, a wait) or the host starved the benchmark: the run is void.
MAX_WALL_OVER_CPU = 3.0

# Per-layer metric -> (end-to-end metric, workload) it should move.
LAYER_MOVES = {
    "recognition.contains_induced.calls": ("throughput_rps", "convex-verified"),
    "recognition.contains_induced.self_s": ("latency_p50_ms", "convex-verified"),
    "recognition.contains_induced.hit_ratio": ("throughput_rps", "convex-verified"),
    "recognition.is_chordal.self_s": ("latency_p50_ms", "convex-verified"),
    "recognition.is_chordal_dp_graph.self_s": ("latency_p50_ms", "convex-verified"),
    "domination.gamma_con_hull4.self_s": ("throughput_rps", "convex-trusted"),
    "domination.gamma_con_hull4.seeds": ("throughput_rps", "convex-trusted"),
    "convexity.convex_hull.self_s": ("throughput_rps", "convex-trusted"),
    "domination.gamma_iso_pair.self_s": ("latency_p50_ms", "isometric"),
    "domination.gamma_iso_pair.stage1": ("latency_p50_ms", "isometric"),
    "domination.gamma_iso_pair.stage2": ("latency_p50_ms", "isometric"),
    "domination.gamma_iso_pair.stage3": ("latency_p50_ms", "isometric"),
    "domination.gamma_iso_pair.stage4": ("latency_p50_ms", "isometric"),
    "domination.gamma_iso_pair.stage5": ("latency_p50_ms", "isometric"),
    "recognition.find_dominating_pair.self_s": ("latency_p50_ms", "isometric"),
    "convexity.is_convex.calls": ("throughput_rps", "audit"),
    "convexity.is_convex.self_s": ("throughput_rps", "audit"),
    "convexity.is_isometric.calls": ("throughput_rps", "audit"),
    "convexity.is_isometric.self_s": ("throughput_rps", "audit"),
    "convexity.is_isometric.true_ratio": ("throughput_rps", "audit"),
    "domination.bruteforce.self_s": ("throughput_rps", "audit"),
    "reduction.build_np_gadget.self_s": ("throughput_rps", "audit"),
    "reduction.verify_gadget_equivalence.self_s": ("throughput_rps", "audit"),
    "edgelist.parse.self_s": ("latency_p50_ms", "audit"),
    "records.serialize.self_s": ("latency_p50_ms", "audit"),
    "graph.distances.self_s": ("latency_p50_ms", "audit"),
    "graph.interval_masks.self_s": ("latency_p50_ms", "audit"),
    "domination.certify.self_s": ("latency_p50_ms", "audit"),
    "domination.small_idset.cache_entries": ("peak_rss_mb", "isometric"),
    "reduction.gamma_cache.entries": ("peak_rss_mb", "audit"),
    "trace.overhead_ratio": (None, None),
}


class AuditMismatch(Exception):
    """A fast solver disagreed with its brute-force oracle."""


def import_convdom():
    """Import the package from this checkout's sources."""
    package = importlib.import_module("convdom")
    importlib.import_module("convdom.records")
    if Path(package.__file__).resolve().parent != ROOT / "src" / "convdom":
        raise ImportError(f"convdom imported from {package.__file__}, not from this checkout")
    return package


def make_handler(workload: str, cd):
    """The request handler of ``workload`` over the imported package ``cd``.

    Library functions are looked up on their modules at call time, so
    traced wrappers installed later are used.
    """
    edgelist, records, domination = cd.edgelist, cd.records, cd.domination
    recognition, reduction = cd.recognition, cd.reduction

    def record_of(command: str, g) -> dict:
        record = records.base_record(command, None, None)
        record["graph"] = {"n": g.n, "m": g.edge_count}
        return record

    def solve_convex(text: str, trust: bool) -> str:
        g = edgelist.parse(text)
        record = record_of("solve convex", g)
        record["class_check"] = "assumed" if trust else "verified"
        record.update(records.solver_fields(domination.gamma_con_hull4(g, trust=trust)))
        return records.to_line(record)

    def solve_isometric(text: str) -> str:
        g = edgelist.parse(text)
        record = record_of("solve isometric", g)
        record["class_check"] = "verified"
        pair = recognition.find_dominating_pair(g)
        if pair is None:
            raise cd.WrongClassError("graph has no dominating pair")
        record.update(records.solver_fields(domination.gamma_iso_pair(g, pair)))
        record["pair"] = [pair.x, pair.y]
        return records.to_line(record)

    def audit(text: str) -> str:
        g = edgelist.parse(text)
        record = record_of("audit", g)
        record["chordal"] = recognition.is_chordal(g).chordal
        part = recognition.split_partition(g)
        record["split"] = part is not None
        pair = recognition.find_dominating_pair(g)
        record["pair"] = None if pair is None else [pair.x, pair.y]
        chordal_dp = recognition.is_chordal_dp_graph(g)
        record["chordal_dp"] = chordal_dp.holds
        if chordal_dp.witness is not None:
            record["forbidden"] = sorted(chordal_dp.witness.embedding)
        dom = domination.gamma_bruteforce(g)
        con = domination.gamma_con_bruteforce(g)
        iso = domination.gamma_iso_bruteforce(g)
        record["domination"] = records.solver_fields(dom)
        record["convex"] = records.solver_fields(con)
        record["isometric"] = records.solver_fields(iso)
        if record["chordal_dp"]:
            hull = domination.gamma_con_hull4(g, trust=True)
            if hull.value != con.value:
                raise AuditMismatch(f"hull4 {hull.value} != bruteforce {con.value}")
            record["hull4"] = records.solver_fields(hull)
        if pair is not None:
            staged = domination.gamma_iso_pair(g, pair)
            if staged.value != iso.value:
                raise AuditMismatch(f"staged {staged.value} != bruteforce {iso.value}")
            record["staged"] = records.solver_fields(staged)
        if part is not None and g.n <= check.GADGET_MAX_N:
            record["gadget"] = []
            for k in (con.value - 1, con.value):
                report = reduction.verify_gadget_equivalence(g, k)
                if not report.holds:
                    raise AuditMismatch(f"gadget equivalence fails at k={k}")
                record["gadget"].append({
                    "k": k,
                    "equivalent": report.holds,
                    "gamma_con_input": report.input_result.value,
                    "gamma_con_gadget": report.gadget_result.value,
                })
        return records.to_line(record)

    return {
        "convex-verified": lambda text: solve_convex(text, trust=False),
        "convex-trusted": lambda text: solve_convex(text, trust=True),
        "isometric": solve_isometric,
        "audit": audit,
    }[workload]


class Run:
    """What serving requests ``0, 1, ...`` produced: one entry per request."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.calibrated: list[float] = []
        self.lines: list[str | None] = []
        self.traced: list[bool] = []
        self.wall_s = 0.0
        self.at_quota: dict = {}
        self.digest: str | None = None


def serve(handler, stream, seconds: float, quota: int, snapshot, tracer=None) -> Run:
    """Serve requests one at a time (closed loop) for ``seconds`` and at
    least ``quota`` requests; ``snapshot()`` is taken when the quota is
    reached.  With a tracer, every other block of ``inputs.PERIOD``
    requests is traced, so traced and untraced requests get the same input
    mix and see the same machine conditions.

    Latency is the process's CPU time, children included, as measured and
    calibrated (see ``clock``): the loop never waits on I/O.  The wall time
    of the requests is kept, to show work that CPU time would miss.
    """
    run = Run()
    probe = clock.SpeedProbe()
    probe.probe(clock.WINDOW)
    ends = []
    sha = hashlib.sha256()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline or i < quota:
        text = stream[i]
        traced = tracer is not None and i // inputs.PERIOD % 2 == 1
        if traced:
            tracer.install()
        wall = time.perf_counter()
        started = clock.cpu()
        try:
            line = tracer.traced_request(i, handler, text) if traced else handler(text)
        except Exception:  # a failed request is counted, and the loop goes on
            line = None
            if run.lines.count(None) < 3:
                traceback.print_exc(file=sys.stderr)
        run.latencies.append(clock.cpu() - started)
        ends.append(time.perf_counter())
        run.wall_s += ends[-1] - wall
        if traced:
            tracer.uninstall()
        run.lines.append(line)
        run.traced.append(traced)
        i += 1
        if i <= quota:
            sha.update((line or "FAILED\n").encode())
            if i == quota:
                run.at_quota = snapshot()
                run.digest = sha.hexdigest()
        if probe.due():
            probe.probe()
    probe.probe(clock.WINDOW // 2)
    run.calibrated = [t * probe.scale(end) for t, end in zip(run.latencies, ends)]
    return run


def setup_once(workload: str, seed: int):
    """Import the package and generate the quota's inputs; returns the
    calibrated time taken, the package and the inputs."""
    probe = clock.SpeedProbe()
    probe.probe(clock.WINDOW // 2)
    started = clock.cpu()
    cd = import_convdom()
    stream = inputs.InputStream(workload, seed)
    stream.extend(QUOTA[workload])
    cost = clock.cpu() - started
    mid = time.perf_counter()
    probe.probe(clock.WINDOW // 2 + 1)
    return cost * probe.scale(mid), cd, stream


def timed_setup(workload: str, seed: int):
    """Set up here, then SETUP_REPEATS - 1 more times in fresh processes,
    so every sample pays a cold import; returns the package, the inputs
    and the calibrated set-up times."""
    first, cd, stream = setup_once(workload, seed)
    times = [first]
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; "
            f"print(run.setup_once({workload!r}, {seed})[0])")
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                              text=True, timeout=120, check=True)
        times.append(float(proc.stdout))
    return cd, stream, times


def check_outputs(workload: str, stream, run: Run) -> list[bool]:
    """Per request, whether it succeeded: it raised nothing and its output
    passed the check.  Checks run after the timed loop."""
    ok = []
    for i, line in enumerate(run.lines):
        if line is None:
            ok.append(False)
            continue
        try:
            check.check(workload, stream[i], line)
            ok.append(True)
        except Exception as exc:  # a record the checker cannot read is wrong too
            ok.append(False)
            if ok.count(False) <= 3:
                print(f"check failed on request {i}: {exc!r}", file=sys.stderr)
    return ok


def latency_metrics(latencies: list[float]) -> tuple[dict, int]:
    lat = sorted(latencies)
    p90 = statistics.quantiles(lat, n=10)[8]
    beyond = sum(1 for t in lat if t > p90)
    return {
        "throughput_rps": (len(lat) / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
    }, beyond


def cache_sizes(cd) -> dict:
    """Both per-graph caches' sizes, read without touching either cache."""
    return {
        "domination.small_idset.cache_entries": cd.domination._small_idset.cache_info().currsize,
        "reduction.gamma_cache.entries": len(cd.reduction._GAMMA_CACHE),
    }


def layer_metrics(tracer, run: Run) -> dict:
    """Per-layer metrics; span times are scaled like the requests they ran in."""
    calls, seconds = tracer.self_times()
    traced = [t for t, flag in zip(run.calibrated, run.traced) if flag]
    untraced = [t for t, flag in zip(run.calibrated, run.traced) if not flag]
    raw_traced = sum(t for t, flag in zip(run.latencies, run.traced) if flag)
    scale = sum(traced) / raw_traced
    requests = len(traced)
    metrics: dict = {}
    for key in LAYER_MOVES:
        layer, _, stat = key.rpartition(".")
        if stat == "calls":
            metrics[key] = (calls[layer] / requests, "calls/req")
        elif stat == "self_s":
            metrics[key] = (seconds[layer] * scale / requests, "s/req")
        elif stat in ("hit_ratio", "true_ratio"):
            label = "hits" if stat == "hit_ratio" else "true"
            made = calls[layer]
            metrics[key] = (tracer.tallies[layer, label] / made if made else 0.0, "ratio")
        elif stat == "seeds":
            metrics[key] = (tracer.tallies[layer, "seeds"] / requests, "seeds/req")
        elif stat.startswith("stage"):
            metrics[key] = (tracer.tallies[layer, stat] / requests, "1/req")
        elif stat in ("cache_entries", "entries"):
            metrics[key] = (run.at_quota[key], "count")
    metrics["trace.overhead_ratio"] = (
        (requests / sum(traced)) / (len(untraced) / sum(untraced)), "ratio")
    return metrics


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> int:
    cd, stream, setups = timed_setup(workload, seed)
    handler = make_handler(workload, cd)
    quota = QUOTA[workload]

    def snapshot() -> dict:
        sizes = cache_sizes(cd)
        sizes["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        sizes["distinct_graphs"] = len(set(stream.texts[:quota]))
        return sizes

    tracer = tracing.Tracer() if traced else None
    run = serve(handler, stream, seconds, quota, snapshot, tracer)
    ok = check_outputs(workload, stream, run)
    failed = ok.count(False)
    # a failed request has no latency: it counts only in fail_ratio
    served = [t for t, good in zip(run.calibrated, ok) if good]
    wall_over_cpu = run.wall_s / sum(run.latencies)
    if wall_over_cpu > MAX_WALL_OVER_CPU:
        print(f"{workload}: requests took {wall_over_cpu:.2f}x their CPU time in wall time",
              file=sys.stderr)

    metrics: dict = {}
    extra: list[tuple[str, object, str]] = [
        ("fail_ratio", failed / len(run.lines), "ratio"),
        ("wall_over_cpu", wall_over_cpu, "ratio"),
        ("distinct_graphs_at_quota", run.at_quota["distinct_graphs"], "count"),
    ]
    if len(served) < 2:
        print(f"{workload}: too few requests succeeded to report metrics", file=sys.stderr)
    elif not traced:
        metrics, beyond = latency_metrics(served)
        metrics["peak_rss_mb"] = (run.at_quota["peak_rss_mb"], "MB")
        metrics["setup_s"] = (statistics.median(setups), "s")
        raw, _ = latency_metrics([t for t, good in zip(run.latencies, ok) if good])
        extra += [(f"raw_{name}", value, unit) for name, (value, unit) in raw.items()]
        extra += [("samples", len(served), "count"),
                  ("samples_beyond_p90", beyond, "count"),
                  ("outputs_sha256", run.digest, f"first{quota}")]
    else:
        metrics = layer_metrics(tracer, run)
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write(spans_path)
        extra.append(("spans", len(tracer.start), spans_path.relative_to(ROOT).as_posix()))

    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value} {unit}")
    for name, value, unit in extra:
        print(f"{workload} {name} {value} {unit}")
    correct = failed == 0 and wall_over_cpu <= MAX_WALL_OVER_CPU
    print(json.dumps({
        "correct": correct,
        "attempted": len(run.lines),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float, traced: bool) -> int:
    """Every workload in its own fresh process; relays their metric lines."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(traced))],
            stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{workload} FAILED (exit {proc.returncode})")
            status = 1
    if traced:
        for key, (metric, workload) in LAYER_MOVES.items():
            if metric is not None:
                print(f"moves {key} -> {metric} on {workload}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    try:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"cannot import convdom from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
