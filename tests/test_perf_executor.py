"""Parallel sweep execution: bit-identical to serial, in task order."""

import threading

import pytest

from repro.model import FastModel
from repro.obs import Tracer
from repro.perf.executor import (
    ModelTask,
    SimTask,
    SweepExecutor,
    default_jobs,
    run_model_task,
    run_task,
    usable_cpus,
)
from repro.routing.pathset import AllVlbPolicy
from repro.sim import SimParams
from repro.sim.replication import replicate
from repro.sim.sweep import latency_vs_load
from repro.topology import CascadeDragonfly, Dragonfly
from repro.traffic.patterns import Shift, UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)
LOADS = [0.1, 0.2, 0.3]


def _tasks(loads=LOADS, routing="min", seed=1):
    return [
        SimTask(
            TOPO,
            UniformRandom(TOPO),
            load,
            routing=routing,
            params=PARAMS,
            seed=seed,
        )
        for load in loads
    ]


def test_parallel_matches_serial_exactly():
    tasks = _tasks()
    serial = [run_task(t) for t in tasks]
    with SweepExecutor(jobs=2) as executor:
        parallel = executor.run(tasks)
    assert parallel == serial


def test_results_align_with_task_order():
    """Results are positional even when completion order scrambles."""
    tasks = _tasks(loads=[0.3, 0.1, 0.2])
    expected = [run_task(t) for t in tasks]
    with SweepExecutor(jobs=2) as executor:
        got = executor.run(tasks)
    for i, (g, e) in enumerate(zip(got, expected)):
        assert g == e, f"result {i} does not match its task"


def _workers(tracer):
    return {e["worker"] for e in tracer.events if e["type"] == "task_finished"}


def test_jobs_one_runs_serially_in_process():
    tracer = Tracer()
    with SweepExecutor(jobs=1, tracer=tracer) as executor:
        results = executor.run(_tasks())
        assert executor.computed_serial == len(LOADS)
        assert executor.computed_parallel == 0
        assert not executor.parallel
    assert _workers(tracer) == {threading.get_native_id()}
    assert results == [run_task(t) for t in _tasks()]


def test_single_task_batch_avoids_pool():
    tracer = Tracer()
    before = threading.active_count()
    with SweepExecutor(jobs=4, tracer=tracer) as executor:
        result = executor.run_one(_tasks(loads=[0.2])[0])
        assert executor.computed_serial == 1
        assert threading.active_count() == before
    assert _workers(tracer) == {threading.get_native_id()}
    assert result == run_task(_tasks(loads=[0.2])[0])


def test_latency_vs_load_executor_identical():
    pattern = UniformRandom(TOPO)
    kwargs = dict(
        routing="min", params=PARAMS, seed=1, stop_after_saturation=False
    )
    serial = latency_vs_load(TOPO, pattern, LOADS, **kwargs)
    with SweepExecutor(jobs=2) as executor:
        pooled = latency_vs_load(
            TOPO, pattern, LOADS, executor=executor, **kwargs
        )
    assert pooled.rows() == serial.rows()


def test_replicate_executor_identical():
    kwargs = dict(
        routing="ugal-l", params=PARAMS, seeds=range(3)
    )
    serial = replicate(
        TOPO, lambda s: UniformRandom(TOPO), 0.2, **kwargs
    )
    with SweepExecutor(jobs=2) as executor:
        pooled = replicate(
            TOPO,
            lambda s: UniformRandom(TOPO),
            0.2,
            executor=executor,
            **kwargs,
        )
    assert pooled["latency"].values == serial["latency"].values
    assert pooled["accepted"].values == serial["accepted"].values


def test_default_jobs_env(monkeypatch):
    cap = usable_cpus()
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    # $REPRO_JOBS is honoured up to the CPUs this process may use:
    # oversubscribing a sweep slows it down (a pool wider than the host
    # measured a parallel speedup < 1), so the default never exceeds them.
    assert default_jobs() == min(6, cap)
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() == 1


def test_one_cpu_rule_reads_the_affinity_mask(monkeypatch, caplog):
    """An affinity mask narrower than the host's CPU count bounds the
    environment default, and an explicit ``jobs`` past it warns."""
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert usable_cpus() == 1
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert default_jobs() == 1
    with caplog.at_level("WARNING", logger="repro.perf.executor"):
        executor = SweepExecutor(jobs=2)
    assert executor.jobs == 2
    assert any("oversubscribes" in r.getMessage() for r in caplog.records)


def test_default_jobs_reports_a_malformed_env(monkeypatch, caplog):
    # a typo in $REPRO_JOBS must not silently turn a sweep serial
    monkeypatch.setenv("REPRO_JOBS", "two")
    with caplog.at_level("WARNING", logger="repro.perf.executor"):
        assert default_jobs() == 1
    [record] = caplog.records
    assert record.levelname == "WARNING"
    assert "REPRO_JOBS='two'" in record.getMessage()


def test_describe_smoke():
    with SweepExecutor(jobs=1) as executor:
        executor.run(_tasks(loads=[0.1]))
        text = executor.describe()
    assert "serial" in text and "no cache" in text


def test_solver_memo_tells_cascade_grids_apart():
    # one process, two Cascade grids over the same (p, a, h, g): the
    # second solve must not reuse the first topology's FastModel
    wide = CascadeDragonfly(2, 6, 2, 3, rows=2, cols=3)
    tall = CascadeDragonfly(2, 6, 2, 3, rows=3, cols=2)
    results = [
        run_model_task(
            ModelTask(topo, Shift(topo, 1, 0), AllVlbPolicy(), mode="free")
        ).throughput
        for topo in (wide, tall)
    ]
    clean = FastModel(tall).solve(
        Shift(tall, 1, 0).demand_matrix(), policy=AllVlbPolicy(), mode="free"
    )
    assert results[1] == pytest.approx(clean.throughput, abs=1e-9)
    assert results[0] != pytest.approx(results[1], abs=1e-3)
