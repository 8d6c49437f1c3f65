"""Parallel sweep execution: bit-identical to serial, in task order."""

import os
import signal

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


def test_jobs_one_runs_serially_in_process():
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(_tasks())
        assert executor.computed_serial == len(LOADS)
        assert executor.computed_parallel == 0
        assert executor._pool is None
        assert not executor.parallel
    assert results == [run_task(t) for t in _tasks()]


def test_single_task_batch_avoids_pool():
    with SweepExecutor(jobs=4) as executor:
        result = executor.run_one(_tasks(loads=[0.2])[0])
        assert executor.computed_serial == 1
        assert executor._pool is None
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
    import os

    cap = os.cpu_count() or 1
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert default_jobs() == 1
    monkeypatch.setenv("REPRO_JOBS", "6")
    # $REPRO_JOBS is honoured up to the host's core count: oversubscribing
    # a sweep slows it down (a pool wider than the host measured a
    # parallel speedup < 1), so the default never exceeds os.cpu_count().
    assert default_jobs() == min(6, cap)
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert default_jobs() == 1


def test_describe_smoke():
    with SweepExecutor(jobs=1) as executor:
        executor.run(_tasks(loads=[0.1]))
        text = executor.describe()
    assert "serial" in text and "no cache" in text


class _KillsItsWorker(UniformRandom):
    """Uniform traffic that kills the process sampling it, unless that
    is the process that built it: a worker dies at its first injection,
    the parent computes the same run normally."""

    def __init__(self, topo):
        super().__init__(topo)
        self.home = os.getpid()

    def sample_destinations(self, srcs, rng):
        if os.getpid() != self.home:
            os.kill(os.getpid(), signal.SIGKILL)
        return super().sample_destinations(srcs, rng)


def test_a_worker_killed_mid_run_costs_the_pool_not_the_results():
    """``BrokenProcessPool`` out of ``pool.map`` is caught: the units
    that had not landed are recomputed in-process, the counters say so,
    a ``pool_broken`` event is traced -- and the executor is not left
    holding the broken pool."""
    deadly = SimTask(
        TOPO, _KillsItsWorker(TOPO), 0.2, routing="min", params=PARAMS, seed=1
    )
    assert deadly.spec is None  # ships the live pattern, pid and all
    tasks = _tasks() + [deadly]
    expected = [run_task(t) for t in tasks]
    tracer = Tracer()
    # batch=1: one unit per task, so units do land before the pool breaks
    with SweepExecutor(jobs=2, tracer=tracer, batch=1) as executor:
        assert executor.run(tasks) == expected
        assert executor._pool is None  # discarded, not kept broken
        landed = executor.computed_parallel
        assert executor.computed_serial == len(tasks) - landed >= 1
        (broken,) = [e for e in tracer.events if e["type"] == "pool_broken"]
        assert broken["landed"] == landed
        assert broken["recomputed"] == len(tasks) - landed
        modes = [
            e["mode"] for e in tracer.events if e["type"] == "task_finished"
        ]
        assert modes == ["parallel"] * landed + ["serial"] * (
            len(tasks) - landed
        )
        # the next batch gets a fresh pool and runs in it
        assert executor.run(_tasks()) == expected[: len(LOADS)]
        assert executor._pool is not None and executor.parallel
        assert executor.computed_parallel == landed + len(LOADS)


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
