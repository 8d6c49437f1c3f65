"""Simulation points on the executor's threads.

``SweepExecutor`` computes every cache miss, simulation or LP solve, on
``jobs - 1`` helper threads plus the calling thread.  Held here: a sim
batch equals :func:`run_task` bit for bit whatever the thread count and
whichever lane its runs take, no thread outlives a batch that raised,
runs side by side keep their own sparse-policy reservoirs, the
route-table memo hands every thread its own answer under a shortened
switch interval, what a table derives is built once however many runs
set up on it at once, and each run reports only the route-table filling
its own thread did.
"""

import sys
import threading

import pytest

from repro.obs import ObsConfig
from repro.perf.executor import SimTask, SweepExecutor, run_task
from repro.routing.pathset import HopClassPolicy
from repro.routing import table
from repro.routing.table import route_table, topology_key
from repro.sim import SimParams, network
from repro.sim.array import native_available
from repro.sim.engine import Run
from repro.spec import PolicySpec
from repro.topology import Dragonfly
from repro.traffic.patterns import Shift, UniformRandom

PAPER = Dragonfly(4, 8, 4, 9)
PARAMS = SimParams(window_cycles=100, warmup_windows=1)


class _PythonOnly(HopClassPolicy):
    """A policy the routing kernel cannot compile: its runs take the
    packet lane, stepped in Python under the GIL."""

    def contains(self, topo, src, dst, desc):
        return super().contains(topo, src, dst, desc)


def _tasks():
    strategic = PolicySpec.parse("strategic:2+3").build()
    return [
        SimTask(PAPER, UniformRandom(PAPER), load, routing="ugal-l",
                params=PARAMS, seed=seed)
        for seed, load in ((1, 0.2), (2, 0.4))
    ] + [
        SimTask(PAPER, Shift(PAPER, shift, 0), 0.3, routing="t-par",
                policy=strategic, params=PARAMS, seed=shift)
        for shift in (1, 2, 3)
    ] + [
        SimTask(PAPER, Shift(PAPER, 2, 0), 0.2, routing="t-ugal-l",
                policy=_PythonOnly(4, 0.5),
                params=SimParams(window_cycles=30, warmup_windows=1),
                seed=4),
    ]


@pytest.fixture(scope="module")
def serial():
    return [run_task(task) for task in _tasks()]


def test_the_batch_takes_both_lanes():
    lanes = [
        Run(t.topo, t.pattern, t.load, routing=t.routing, policy=t.policy,
            params=t.params, seed=t.seed).lane
        for t in _tasks()
    ]
    assert lanes[-1] == "packet"
    if "array" not in lanes:
        pytest.skip("native kernel off or unavailable: no array-lane run")


@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_sim_batches_equal_run_task_at_every_thread_count(jobs, serial):
    before = threading.active_count()
    with SweepExecutor(jobs=jobs) as executor:
        assert executor.run(_tasks()) == serial
        assert executor.computed_parallel + executor.computed_serial == 6
        if jobs == 1:
            assert executor.computed_parallel == 0
    assert threading.active_count() == before


class _Raises(UniformRandom):
    def sample_destinations(self, srcs, rng):
        raise ValueError("this pattern cannot be sampled")


def test_a_task_that_raises_leaves_no_thread_running():
    small = Dragonfly(2, 4, 2, 5)
    params = SimParams(window_cycles=60)
    tasks = [
        SimTask(small, UniformRandom(small), load, routing="ugal-l",
                params=params, seed=1)
        for load in (0.1, 0.2)
    ] + [SimTask(small, _Raises(small), 0.2, params=params)] + [
        SimTask(small, UniformRandom(small), 0.3, params=params, seed=2)
    ]
    before = threading.active_count()
    with SweepExecutor(jobs=2) as executor:
        with pytest.raises(ValueError, match="cannot be sampled"):
            executor.run(tasks)
    assert threading.active_count() == before
    assert not [
        t for t in threading.enumerate() if t.name.startswith("repro-exec")
    ]


def _race(work, threads=4):
    """Run ``work(k)`` on ``threads`` threads at a 10 us switch interval;
    returns what each returned."""
    out = [None] * threads
    errors = []

    def body(k):
        try:
            out[k] = work(k)
        except BaseException as exc:  # surfaced in the caller below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [
            threading.Thread(target=body, args=(k,)) for k in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    if errors:
        raise errors[0]
    return out


def test_concurrent_sparse_runs_keep_their_reservoirs(reference_engine):
    """Packet-lane runs of a policy sparse enough to reach the reservoir
    fallback, side by side on threads, equal the same runs alone."""
    small = Dragonfly(2, 4, 2, 5)
    params = SimParams(window_cycles=20, warmup_windows=1)

    def run(seed):
        return run_task(
            SimTask(small, Shift(small, 2, 0), 0.3, routing="t-ugal-l",
                    policy=HopClassPolicy(2, 0.02), params=params, seed=seed)
        )

    alone = [run(seed) for seed in range(2)]
    assert _race(run, threads=2) == alone


def test_concurrent_lookups_share_one_route_table(monkeypatch):
    """Threads that ask for equal topologies at once -- each with its
    own instance, so the previous-lookup shortcut never answers -- all
    get the one table the memo keeps, while lookups of more topologies
    than it keeps evict around them."""
    for _round in range(5):
        monkeypatch.setattr(table, "_TABLES", {})
        monkeypatch.setattr(table, "_LAST", (None, None))
        tables = _race(lambda k: route_table(Dragonfly(2, 4, 2, 5)))
        assert all(t is tables[0] for t in tables)

    topos = [Dragonfly(1, 2, 1, 2), Dragonfly(1, 2, 1, 3)] + [
        Dragonfly(2, 4, 2, g) for g in (3, 5, 9)
    ]

    def cycle(k):
        wrong = 0
        for i in range(500):
            topo = topos[(k + i) % len(topos)]
            wrong += topology_key(route_table(topo).topo) != topology_key(topo)
        return wrong

    assert _race(cycle) == [0, 0, 0, 0]
    assert len(table._TABLES) <= table._MAX_TABLES


def test_concurrent_set_ups_each_report_their_own_fill(monkeypatch):
    """Runs set up at once on a fresh topology report only the composing
    their own thread did, so a batch's ``routing.table_fill_seconds``
    gauges sum to the table's fill time: no fill is counted twice."""
    monkeypatch.setattr(table, "_TABLES", {})
    monkeypatch.setattr(table, "_LAST", (None, None))
    topo = Dragonfly(4, 8, 4, 17)
    params = SimParams(
        window_cycles=20, warmup_windows=1, obs=ObsConfig(metrics=True)
    )
    tasks = [
        SimTask(topo, UniformRandom(topo), 0.1, routing="ugal-l",
                params=params, seed=seed)
        for seed in range(4)
    ]
    with SweepExecutor(jobs=2) as executor:
        results = executor.run(tasks)
    fills = [r.manifest.metrics["routing.table_fill_seconds"] for r in results]
    assert all(fill >= 0.0 for fill in fills)
    assert sum(fills) == pytest.approx(route_table(topo).fill_seconds)


def test_concurrent_set_ups_fill_each_image_once(monkeypatch):
    """Runs set up at once on a fresh topology wait for the one build of
    what they share instead of building it again: the channel layout on
    either lane, the images where the runs take the array lane."""
    monkeypatch.setattr(table, "_TABLES", {})
    monkeypatch.setattr(table, "_LAST", (None, None))
    built = {"min": 0, "vlb": 0, "layout": 0}

    def counting(name, build):
        def wrapper(*args):
            built[name] += 1
            return build(*args)

        return wrapper

    for name, owner, attr in (
        ("min", table.RouteTable, "_compose_min_image"),
        ("vlb", table.RouteTable, "_compose_vlb_image"),
        ("layout", network, "_build_layout"),
    ):
        monkeypatch.setattr(owner, attr, counting(name, getattr(owner, attr)))
    topo = Dragonfly(4, 8, 4, 9)
    params = SimParams(window_cycles=1, warmup_windows=0)
    tasks = [
        SimTask(topo, UniformRandom(topo), 0.1, routing="ugal-l",
                params=params, seed=seed)
        for seed in range(4)
    ]
    with SweepExecutor(jobs=2) as executor:
        executor.run(tasks)
    images = 1 if native_available() else 0  # the packet lane reads none
    assert built == {"min": images, "vlb": images, "layout": 1}


def test_an_executor_point_derives_its_identity_once(monkeypatch, tmp_path):
    """``RunSpec.from_objects`` runs once per point: the task derives
    the spec that keys the cache, and its run's manifest reads the same
    spec instead of deriving it again -- with the run's sampled trace
    still written."""
    from repro.spec import RunSpec

    derive = RunSpec.from_objects.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args[:3])
        return derive(cls, *args, **kwargs)

    monkeypatch.setattr(RunSpec, "from_objects", classmethod(counted))
    topo = Dragonfly(2, 4, 2, 5)
    params = SimParams(
        window_cycles=60,
        warmup_windows=1,
        obs=ObsConfig(sample_every=20, trace_dir=str(tmp_path)),
    )
    task = SimTask(topo, UniformRandom(topo), 0.2, params=params, seed=3)
    with SweepExecutor(jobs=1) as executor:
        (result,) = executor.run([task])
    assert len(calls) == 1
    assert result.manifest.fingerprint == task.key()
    assert len(list(tmp_path.glob("engine-*.jsonl"))) == 1


class _EvenMids(HopClassPolicy):
    """A policy that exists only as Python: no spec describes it."""

    def contains(self, topo, src, dst, desc):
        return desc.mid % 2 == 0 and super().contains(topo, src, dst, desc)


def test_an_uncacheable_point_derives_its_identity_once(monkeypatch):
    """A point the spec registries cannot describe learns so once: the
    task's failed derivation is handed to its run, whose manifest does
    not try again."""
    from repro.spec import RunSpec

    derive = RunSpec.from_objects.__func__
    calls = []

    def counted(cls, *args, **kwargs):
        calls.append(args[:3])
        return derive(cls, *args, **kwargs)

    monkeypatch.setattr(RunSpec, "from_objects", classmethod(counted))
    topo = Dragonfly(2, 4, 2, 5)
    task = SimTask(
        topo,
        UniformRandom(topo),
        0.2,
        routing="t-ugal-l",
        policy=_EvenMids(4),
        params=SimParams(window_cycles=60, warmup_windows=1),
        seed=3,
    )
    assert task.spec is None and task.key() is None
    with SweepExecutor(jobs=1) as executor:
        (result,) = executor.run([task])
    assert len(calls) == 1
    assert result.manifest.fingerprint is None
    assert result.manifest.spec_fingerprint is None
