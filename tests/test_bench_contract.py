"""What the benchmark harness in ``perfbench/`` needs from the library.

The harness binds library names when it starts, so a refactor that renames
a traced function, turns a cached table into a plain attribute or drops a
cache it reads would stop every benchmark run.  These checks fail first.
"""

import importlib
import importlib.util
import sys
from functools import cached_property
from pathlib import Path

import pytest

import convdom
from convdom import Graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
HARNESS_MODULES = ("check", "clock", "inputs", "tracing", "run")


@pytest.fixture(scope="module")
def bench():
    """``perfbench/tracing.py`` and ``perfbench/run.py``, imported by path.

    The harness imports its sibling modules by their bare names, so its
    directory is on ``sys.path`` while they load; ``sys.path`` and
    ``sys.modules`` are restored afterwards.
    """
    saved_path = list(sys.path)
    saved_modules = {name: sys.modules.get(name) for name in HARNESS_MODULES}
    sys.path.insert(0, str(PERFBENCH))
    try:
        loaded = {}
        for name in ("tracing", "run"):
            spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            loaded[name] = module
    finally:
        sys.path[:] = saved_path
        for name, module in saved_modules.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return loaded["tracing"], loaded["run"]


def test_traced_functions_resolve(bench):
    tracing, _run = bench
    for _span, module, attr, _tally in tracing.TRACED:
        assert callable(getattr(importlib.import_module(f"{tracing.PACKAGE}.{module}"), attr))


def test_cached_tables_are_cached_properties(bench):
    tracing, _run = bench
    for _span, attr in tracing.CACHED_TABLES:
        assert isinstance(vars(Graph)[attr], cached_property), attr


def test_cache_sizes_reads_both_caches(bench):
    _tracing, run = bench
    sizes = run.cache_sizes(convdom)
    assert set(sizes) == {
        "domination.small_idset.cache_entries",
        "reduction.gamma_cache.entries",
    }
    assert all(isinstance(count, int) for count in sizes.values())


def test_tracer_install_and_uninstall_restore_every_original(bench):
    tracing, run = bench
    package = run.import_convdom()
    modules = [m for name, m in sys.modules.items()
               if name == tracing.PACKAGE or name.startswith(tracing.PACKAGE + ".")]
    before = [dict(vars(m)) for m in modules] + [dict(vars(Graph))]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = vars(package.domination)["gamma_iso_pair"]
        assert traced is not before[modules.index(package.domination)]["gamma_iso_pair"]
        # one request per workload runs through the traced library and passes the checker
        for workload in run.WORKLOADS:
            text = run.inputs.InputStream(workload, 101)[0]
            line = tracer.traced_request(0, run.make_handler(workload, package), text)
            run.check.check(workload, text, line)
    finally:
        tracer.uninstall()
    after = [dict(vars(m)) for m in modules] + [dict(vars(Graph))]
    for old, new in zip(before, after):
        assert old.keys() == new.keys()
        assert all(new[key] is value for key, value in old.items())
    calls, _seconds = tracer.self_times()
    assert calls["graph.distances"] and calls["graph.interval_masks"]
