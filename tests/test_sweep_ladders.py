"""The one early-stop rule: ``run_ladders`` and the callers built on it.

A ladder is a list of simulation points in rising load.  With the early
stop on, it ends after its first saturated point; the executor gets the
points in batches of at most ``jobs``, rung by rung across the ladders
still running.  Held here: the result lists equal the plain serial loop
(simulate each point in order, stop after the first saturated one) at
every thread count and with no executor; at ``jobs=1`` not one point past
a ladder's end is computed, at ``jobs=J`` at most ``J - 1`` per ladder; a
warm rerun through the cache hits every point the cold run computed; and
neither Step-2 scores nor the section search depend on the executor.
"""

import io

import numpy as np
import pytest

from repro.core.algorithm import simulation_evaluator
from repro.obs import ProgressReporter, Tracer
from repro.perf.cache import SimCache
from repro.perf.executor import SimTask, SweepExecutor, run_task
from repro.routing.pathset import AllVlbPolicy
from repro.sim import SimParams
from repro.sim.sweep import latency_vs_load, run_ladders, saturation_throughput
from repro.spec import PolicySpec
from repro.topology import Dragonfly
from repro.traffic.adversarial import type_2_set
from repro.traffic.patterns import Shift, UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)
LOADS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6]


def _ladders():
    """Three ladders that end at different rungs, and an empty one."""

    def ladder(pattern, routing, loads=LOADS):
        return [
            SimTask(TOPO, pattern, load, routing=routing, params=PARAMS,
                    seed=1)
            for load in loads
        ]

    return [
        ladder(Shift(TOPO, 2, 0), "min"),
        ladder(Shift(TOPO, 2, 0), "ugal-l"),
        ladder(UniformRandom(TOPO), "ugal-l", [0.1, 0.3, 0.5, 0.7, 0.9]),
        [],
    ]


def _serial(ladders, stop):
    """The plain loop: each ladder's points in order, one at a time."""
    out = []
    for ladder in ladders:
        results = []
        for task in ladder:
            results.append(run_task(task))
            if stop and results[-1].saturated:
                break
        out.append(results)
    return out


@pytest.fixture(scope="module")
def serial():
    stopped = _serial(_ladders(), stop=True)
    # the data must exercise the rule: ladders end at different rungs,
    # one of them before its last point
    lengths = [len(results) for results in stopped]
    assert any(n < len(ladder) for n, ladder in zip(lengths, _ladders()))
    assert len(set(lengths[:3])) > 1
    return {True: stopped, False: _serial(_ladders(), stop=False)}


def _kept(ladders):
    return sum(len(results) for results in ladders)


@pytest.mark.parametrize("stop", [True, False])
@pytest.mark.parametrize("jobs", [None, 1, 2, 4])
def test_ladders_equal_the_serial_loop(jobs, stop, serial):
    executor = None if jobs is None else SweepExecutor(jobs=jobs)
    assert run_ladders(_ladders(), executor, stop) == serial[stop]


def test_jobs_one_computes_only_the_points_kept(serial):
    with SweepExecutor(jobs=1) as executor:
        got = run_ladders(_ladders(), executor)
        assert executor.computed_serial + executor.computed_parallel == (
            _kept(got)
        )
    assert got == serial[True]
    with SweepExecutor(jobs=1) as executor:
        sweep = latency_vs_load(
            TOPO, Shift(TOPO, 2, 0), LOADS, routing="min", params=PARAMS,
            seed=1, executor=executor,
        )
        assert executor.computed_serial == len(sweep.results) < len(LOADS)


@pytest.mark.parametrize("jobs", [2, 4])
def test_jobs_j_computes_at_most_j_minus_one_extra_points(jobs, serial):
    with SweepExecutor(jobs=jobs) as executor:
        sweep = latency_vs_load(
            TOPO, Shift(TOPO, 2, 0), LOADS, routing="min", params=PARAMS,
            seed=1, executor=executor,
        )
        computed = executor.computed_serial + executor.computed_parallel
    assert sweep.results == serial[True][0]
    assert len(sweep.results) <= computed <= len(sweep.results) + jobs - 1
    with SweepExecutor(jobs=jobs) as executor:
        got = run_ladders(_ladders(), executor)
        computed = executor.computed_serial + executor.computed_parallel
    ended = sum(len(results) > 0 for results in got)
    assert _kept(got) <= computed <= _kept(got) + ended * (jobs - 1)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_batches_go_rung_by_rung_at_most_jobs_points(jobs):
    tracer = Tracer()
    with SweepExecutor(jobs=jobs, tracer=tracer) as executor:
        run_ladders(_ladders(), executor)
    sizes = [e["tasks"] for e in tracer.events if e["type"] == "batch_start"]
    assert max(sizes) <= jobs
    # the first batch starts every non-empty ladder before any second rung
    first = [e["label"] for e in tracer.events if e["type"] == "task_finished"]
    assert first[: min(jobs, 3)] == [
        "min@0.05", "ugal-l@0.05", "ugal-l@0.1"
    ][: min(jobs, 3)]
    tracer = Tracer()
    with SweepExecutor(jobs=jobs, tracer=tracer) as executor:
        run_ladders(_ladders(), executor, stop_after_saturation=False)
    sizes = [e["tasks"] for e in tracer.events if e["type"] == "batch_start"]
    assert sizes == [sum(len(ladder) for ladder in _ladders())]


def test_warm_rerun_hits_every_point_computed_cold(tmp_path, serial):
    with SweepExecutor(jobs=2, cache=SimCache(str(tmp_path))) as cold:
        assert run_ladders(_ladders(), cold) == serial[True]
        computed = cold.computed_serial + cold.computed_parallel
    with SweepExecutor(jobs=2, cache=SimCache(str(tmp_path))) as warm:
        assert run_ladders(_ladders(), warm) == serial[True]
        assert warm.cache_hits == computed
        assert warm.computed_serial + warm.computed_parallel == 0
        assert warm.cache.misses == 0


def test_one_progress_count_across_a_ladders_batches():
    stream = io.StringIO()
    progress = ProgressReporter(label="sweep", interval=1000.0, stream=stream)
    with SweepExecutor(jobs=1, progress=progress) as executor:
        sweep = latency_vs_load(
            TOPO, Shift(TOPO, 2, 0), LOADS, routing="min", params=PARAMS,
            seed=1, executor=executor,
        )
    n = len(sweep.results)
    lines = stream.getvalue().strip().splitlines()
    assert lines[-1] == f"[sweep] {n}/{n} done"
    assert sum(line.startswith(f"[sweep] {n}/") for line in lines) == 1


def test_section_search_depends_on_sections_not_on_the_executor():
    params = SimParams(window_cycles=100)
    kwargs = dict(routing="min", params=params, seed=1, max_iters=3)
    pattern = Shift(TOPO, 2, 0)
    bisection = saturation_throughput(TOPO, pattern, **kwargs)
    assert 0.0 < bisection < 1.0
    with SweepExecutor(jobs=2) as executor:
        assert saturation_throughput(
            TOPO, pattern, executor=executor, sections=1, **kwargs
        ) == bisection
        assert saturation_throughput(
            TOPO, pattern, executor=executor, **kwargs
        ) == saturation_throughput(TOPO, pattern, sections=2, **kwargs)


def test_simulation_evaluator_scores_do_not_depend_on_the_executor():
    loads = (0.1, 0.3, 0.5, 0.7)
    params = SimParams(window_cycles=60)
    candidates = [
        (AllVlbPolicy(), "all VLB"),
        (PolicySpec.parse("hopclass:4,0.5").build(), "hopclass:4,0.5"),
    ]

    def scores(executor):
        evaluate = simulation_evaluator(
            TOPO, params=params, num_patterns=2, loads=loads, seed=0,
            executor=executor,
        )
        return [evaluate(policy, label) for policy, label in candidates]

    # the score by hand: per pattern, the serial ladder's best accepted
    # rate before saturation, averaged
    expected = []
    for policy, _label in candidates:
        conventional = isinstance(policy, AllVlbPolicy)
        per_pattern = []
        for pattern in type_2_set(TOPO, count=2, seed=1000):
            (results,) = _serial(
                [[
                    SimTask(TOPO, pattern, load,
                            routing="ugal-l" if conventional else "t-ugal-l",
                            policy=None if conventional else policy,
                            params=params, seed=0)
                    for load in loads
                ]],
                stop=True,
            )
            per_pattern.append(max(
                (r.accepted_rate for r in results if not r.saturated),
                default=0.0,
            ))
        expected.append(float(np.mean(per_pattern)))
    assert scores(None) == expected
    assert scores(SweepExecutor(jobs=1)) == expected
    assert scores(SweepExecutor(jobs=2)) == expected
