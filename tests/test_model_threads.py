"""LP solves on threads: one shared FastModel, results independent of
the thread count.

``SweepExecutor.run_models`` solves its cache misses on ``jobs - 1``
helper threads plus the calling thread, and ``step1_sweep`` without an
executor uses one thread per available CPU.  Every thread solves through
the process's one ``FastModel`` per topology, whose memo fills are
locked; what is held here is that no answer depends on which thread
solved it, how many there were, or how the memo evictions interleaved.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core.algorithm import model_evaluator
from repro.core.balance import balance_adjust
from repro.core.datapoints import table1_datapoints
from repro.model import FastModel, fastpath
from repro.model.sweep import step1_sweep
from repro.perf import ModelTask, SimCache, SimTask, SweepExecutor
from repro.perf.executor import run_task, solver_for
from repro.routing.pathset import AllVlbPolicy, ExcludingPolicy, HopClassPolicy
from repro.sim import SimParams
from repro.topology import Dragonfly
from repro.traffic.adversarial import type_2_set
from repro.traffic.patterns import Shift, UniformRandom

from tests.test_model_fastpath import _unsolved

SMALL = Dragonfly(2, 4, 2, 5)
PAPER = Dragonfly(4, 8, 4, 9)


def _patterns(topo):
    return [Shift(topo, 1, 0), *type_2_set(topo, count=1, seed=3)]


@pytest.mark.parametrize("mode", ["uniform", "free"])
@pytest.mark.parametrize("topo", [SMALL, PAPER], ids=str)
def test_step1_sweep_is_independent_of_the_thread_count(
    monkeypatch, topo, mode
):
    """No executor, ``jobs=1``, ``2`` and ``4``: the same rows and the
    same ``ModelResult`` for every task, field for field."""
    batches = []
    run_models = SweepExecutor.run_models

    def spy(self, tasks):
        results = run_models(self, tasks)
        batches.append(results)
        return results

    monkeypatch.setattr(SweepExecutor, "run_models", spy)
    grid = table1_datapoints(step=0.5)
    patterns = _patterns(topo)
    sweeps = [step1_sweep(topo, patterns, grid, mode=mode)]
    for jobs in (1, 2, 4):
        with SweepExecutor(jobs=jobs) as executor:
            sweeps.append(
                step1_sweep(topo, patterns, grid, mode=mode, executor=executor)
            )
    assert len(batches) == 4
    first = batches[0]
    assert len(first) == len(grid) * len(patterns)
    for results in batches[1:]:
        assert results == first
        assert [
            (r.throughput, r.min_fraction, r.status, r.num_pairs)
            for r in results
        ] == [
            (r.throughput, r.min_fraction, r.status, r.num_pairs)
            for r in first
        ]
    for sweep in sweeps[1:]:
        assert [pt.per_pattern for pt in sweep] == [
            pt.per_pattern for pt in sweeps[0]
        ]
        assert [(pt.mean_throughput, pt.sem) for pt in sweep] == [
            (pt.mean_throughput, pt.sem) for pt in sweeps[0]
        ]


def test_shared_model_survives_racing_evictions(monkeypatch):
    """Four threads on one FastModel -- more than the host's cores, with
    a short switch interval -- over more distinct demands than the
    pattern memo holds: every answer equals the serial one."""
    monkeypatch.setattr(fastpath, "_PATTERNS_MAX", 3)
    demands = [
        pattern.demand_matrix()
        for pattern in [
            *(Shift(SMALL, dg, ds) for dg in (1, 2) for ds in (0, 1)),
            *type_2_set(SMALL, count=4, seed=11),
        ]
    ]
    policies = [AllVlbPolicy(), HopClassPolicy(4, 0.5)]
    points = [
        (k, policy, mode)
        for k in range(len(demands))
        for policy in policies
        for mode in ("uniform", "free")
    ]

    def solve(model, point):
        k, policy, mode = point
        return model.solve(demands[k], policy=policy, mode=mode)

    serial = [solve(FastModel(SMALL), point) for point in points]
    shared = FastModel(SMALL)
    got = [dict() for _ in range(4)]
    errors = []
    start = threading.Barrier(4)

    def hammer(t):
        try:
            start.wait()
            for rnd in range(3):
                # each thread walks the points in its own rotation
                offset = (7 * t + 5 * rnd) % len(points)
                for n in range(len(points)):
                    i = (offset + n) % len(points)
                    got[t].setdefault(i, []).append(solve(shared, points[i]))
        except Exception as exc:  # pragma: no cover - the failure path
            errors.append(exc)

    threads = [threading.Thread(target=hammer, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for per_thread in got:
        for i, results in per_thread.items():
            assert results == [serial[i]] * 3
    assert len(shared._patterns) <= 3


def test_a_failed_solve_in_a_helper_raises_in_the_caller(
    monkeypatch, tmp_path
):
    """The error of a solve on a helper thread reaches the caller, names
    its pattern, and leaves nothing in the cache."""
    helper_failed = threading.Event()

    def unsolved(*args, **kwargs):
        if threading.current_thread() is threading.main_thread():
            # the caller's own solves wait for a helper's to fail first
            helper_failed.wait(timeout=30)
        else:
            helper_failed.set()
        return _unsolved(*args, **kwargs)

    monkeypatch.setattr(fastpath, "linprog", unsolved)
    cache = SimCache(str(tmp_path))
    patterns = [Shift(SMALL, 1, 0), Shift(SMALL, 2, 0), Shift(SMALL, 1, 1)]
    tasks = [ModelTask(SMALL, pattern, AllVlbPolicy()) for pattern in patterns]
    before = threading.active_count()
    with SweepExecutor(jobs=2, cache=cache) as executor:
        with pytest.raises(RuntimeError) as err:
            executor.run_models(tasks)
    assert helper_failed.is_set()
    message = str(err.value)
    assert "Iteration limit" in message
    assert any(pattern.describe() in message for pattern in patterns)
    assert len(cache) == 0
    assert threading.active_count() == before


def test_threads_are_gone_before_the_next_sim_batch():
    """A threaded model batch leaves no thread behind, and a simulation
    batch run straight after it on the same executor -- on that
    executor's threads -- equals the serial results and leaves none
    either."""
    params = SimParams(window_cycles=60)
    sims = [
        SimTask(
            SMALL, UniformRandom(SMALL), load, routing=routing, params=params,
            seed=1,
        )
        for load in (0.1, 0.2, 0.3)
        for routing in ("min", "ugal-l")
    ]
    models = [
        ModelTask(SMALL, pattern, HopClassPolicy(4, 0.5), mode="free")
        for pattern in _patterns(SMALL)
    ]
    before = threading.active_count()
    with SweepExecutor(jobs=2) as executor:
        solved = executor.run_models(models)
        assert threading.active_count() == before
        assert executor.computed_parallel + executor.computed_serial == 2
        simulated = executor.run(sims)
        assert threading.active_count() == before
        assert executor.computed_parallel + executor.computed_serial == 8
    assert solved == [
        FastModel(SMALL).solve(
            task.pattern.demand_matrix(), policy=task.policy, mode="free"
        )
        for task in models
    ]
    assert simulated == [run_task(task) for task in sims]


def test_model_evaluator_solves_through_the_shared_solver(monkeypatch):
    """Step 2's LP scoring reuses the solver Step 1 filled, and scores
    exactly what a private model scores."""
    topo = PAPER
    pairs = list(zip(*np.nonzero(Shift(topo, 1, 0).demand_matrix())))[:4]
    balanced, report = balance_adjust(topo, HopClassPolicy(5, 0.5), pairs)
    assert report.adjusted and isinstance(balanced, ExcludingPolicy)
    candidates = [HopClassPolicy(4, 0.5), AllVlbPolicy(), balanced]
    private = FastModel(topo)
    expected = [
        float(
            np.mean(
                [
                    private.solve(
                        pattern.demand_matrix(), policy=policy, mode="uniform"
                    ).throughput
                    for pattern in type_2_set(topo, count=3, seed=500)
                ]
            )
        )
        for policy in candidates
    ]
    shared = solver_for(topo)
    built = []
    init = FastModel.__init__

    def spy(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(FastModel, "__init__", spy)
    evaluate = model_evaluator(topo, num_patterns=3)
    scores = [evaluate(policy, policy.describe()) for policy in candidates]
    assert scores == expected
    assert built == []
    assert solver_for(topo) is shared
