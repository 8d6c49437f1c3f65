"""Batched multi-run engine: bit-parity, planning, and cache identity.

``repro.sim.batch.simulate_batch`` advances B independent runs through
shared kernel invocations; ``repro.perf.planner.BatchPlanner`` decides
which executor payloads ride together.  The whole feature rests on one
contract: **batching is a pure scheduling decision**.
Every run in a batch must equal its single-run result bit for bit
(full ``SimResult`` equality, not a tolerance), keep its own RunSpec
fingerprint and cache entry, and differ only in the identity-neutral
``RunManifest.batch_size``/``batch_slot`` environment fields.  These
tests pin that contract across routing variants, seeds, batch shapes
(including ragged completion) and the planner's grouping policy, and
hold the executor's one-task-at-a-time runs to the same results.
"""

import pytest

from repro.perf.cache import SimCache
from repro.perf.executor import SimTask, SweepExecutor
from repro.perf.planner import BatchPlanner
from repro.sim import SimParams
from repro.sim.batch import BatchUnsupported, simulate_batch
from repro.spec import RunSpec
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
ROUTINGS = ["min", "vlb", "ugal-l", "ugal-g", "par"]


def _spec(routing, *, seed=0, load=0.2, window=80):
    return RunSpec.from_objects(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=SimParams(window_cycles=window),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Bit-parity: batched == single-run, full SimResult equality
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing", ROUTINGS)
def test_batched_matches_single(routing):
    """Three seeds per variant ride one batch; every result equals its
    single-run form (SimResult equality covers every measured field)."""
    specs = [_spec(routing, seed=seed) for seed in (0, 1, 2)]
    batched = simulate_batch(specs)
    singles = [spec.run() for spec in specs]
    assert batched == singles


@pytest.mark.parametrize("routing", ["min", "ugal-l"])
def test_batched_matches_single_at_high_load(routing):
    """Saturation exercises source-queue caps and deep backpressure --
    the regime where injection filtering could desync RNG streams."""
    specs = [_spec(routing, seed=seed, load=0.9) for seed in (0, 1)]
    assert simulate_batch(specs) == [spec.run() for spec in specs]


def test_batch_size_invariance():
    """How runs are grouped into batches never shows in the results:
    one batch of four == two batches of two == four singles."""
    specs = [_spec("min", seed=seed) for seed in range(4)]
    whole = simulate_batch(specs)
    halves = simulate_batch(specs[:2]) + simulate_batch(specs[2:])
    singles = [spec.run() for spec in specs]
    assert whole == halves == singles


def test_ragged_completion():
    """Members with different windows and loads finish at different
    cycles; survivors must advance identically after each compaction."""
    specs = [
        _spec("min", seed=0, window=60, load=0.1),
        _spec("min", seed=1, window=140, load=0.3),
        _spec("min", seed=2, window=90, load=0.2),
    ]
    batched = simulate_batch(specs)
    assert batched == [spec.run() for spec in specs]
    for slot, result in enumerate(batched):
        assert result.manifest.batch_size == 3
        assert result.manifest.batch_slot == slot


def test_single_run_manifest_has_no_batch_fields():
    result = _spec("min").run()
    assert result.manifest.batch_size is None
    assert result.manifest.batch_slot is None


def test_incompatible_specs_rejected():
    """Compatibility contract: topology and routing must match."""
    with pytest.raises(BatchUnsupported):
        simulate_batch([_spec("min"), _spec("ugal-l")])


def test_unsupported_without_native_kernel(reference_engine):
    """No native kernel -> the batch path refuses rather than silently
    running a scalar lockstep (callers fall back to per-run)."""
    with pytest.raises(BatchUnsupported):
        simulate_batch([_spec("min", seed=0), _spec("min", seed=1)])


def test_cache_sharing_batched_and_single(tmp_path):
    """A batched run and the executor's single runs share cache entries:
    both sides key each run by its own RunSpec fingerprint."""

    def tasks(seeds):
        return [
            SimTask(
                TOPO,
                UniformRandom(TOPO),
                0.2,
                routing="min",
                params=SimParams(window_cycles=80),
                seed=seed,
            )
            for seed in seeds
        ]

    cache = SimCache(str(tmp_path))
    stored = simulate_batch([t.payload() for t in tasks(range(3))])
    assert all(r.manifest.batch_size == 3 for r in stored)
    for task, result in zip(tasks(range(3)), stored):
        cache.put(task.key(), result)
    with SweepExecutor(jobs=1, cache=cache) as single_exec:
        hits = [single_exec.run([t])[0] for t in tasks(range(3))]
        assert single_exec.cache_hits == 3
    assert hits == stored

    # and the reverse direction: what the executor stores is what a
    # batch of the same specs computes
    with SweepExecutor(jobs=1, cache=cache) as single_exec:
        fresh = single_exec.run(tasks(range(3, 5)))
    assert all(r.manifest.batch_size is None for r in fresh)
    assert [cache.get(t.key()) for t in tasks(range(3, 5))] == fresh
    assert simulate_batch([t.payload() for t in tasks(range(3, 5))]) == fresh


# ---------------------------------------------------------------------------
# BatchPlanner policy
# ---------------------------------------------------------------------------
def test_planner_eligibility():
    assert BatchPlanner.eligible(_spec("min"))
    # adaptive variants keep the single-run path (measured neutral to
    # negative under batching -- see the planner docstring)
    assert not BatchPlanner.eligible(_spec("ugal-l"))
    # live-object tasks cannot cross simulate_batch's validation
    assert not BatchPlanner.eligible(object())


def test_planner_groups_compatible_specs_only():
    other_topo = Dragonfly(2, 4, 2, 3)
    other = RunSpec.from_objects(
        other_topo,
        UniformRandom(other_topo),
        0.2,
        routing="min",
        params=SimParams(window_cycles=80),
        seed=0,
    )
    payloads = [
        _spec("min", seed=0),
        _spec("ugal-l", seed=0),
        _spec("min", seed=1),
        other,
    ]
    units = BatchPlanner().plan(payloads)
    assert [u.indices for u in units] == [[0, 2], [1], [3]]
    assert [u.batched for u in units] == [True, False, False]


def test_planner_chunks():
    # a group chunks to max_batch, in first-appearance order
    payloads = [_spec("min", seed=seed) for seed in range(5)]
    units = BatchPlanner(max_batch=2).plan(payloads)
    assert [u.indices for u in units] == [[0, 1], [2, 3], [4]]

    # a process pool spreads one big group across the workers
    payloads = [_spec("min", seed=seed) for seed in range(8)]
    units = BatchPlanner(jobs=4).plan(payloads)
    assert [len(u.indices) for u in units] == [2, 2, 2, 2]

    # max_batch=1 degenerates to the historical per-payload stream
    units = BatchPlanner(max_batch=1).plan(payloads)
    assert [u.indices for u in units] == [[i] for i in range(8)]
    assert not any(u.batched for u in units)


def test_planner_covers_every_index_once():
    payloads = [
        _spec("min", seed=seed) if seed % 2 == 0 else _spec("par", seed=seed)
        for seed in range(9)
    ]
    units = BatchPlanner(max_batch=3).plan(payloads)
    covered = sorted(i for u in units for i in u.indices)
    assert covered == list(range(9))


# ---------------------------------------------------------------------------
# Executor integration
# ---------------------------------------------------------------------------
def _min_tasks(seeds, window=80):
    return [
        SimTask(
            TOPO,
            UniformRandom(TOPO),
            0.2,
            routing="min",
            params=SimParams(window_cycles=window),
            seed=seed,
        )
        for seed in seeds
    ]


def test_executor_runs_each_task_alone():
    """The executor never batches: at jobs=1 every cache miss is one
    run, and the results equal a batch of the same specs."""
    from repro.perf.executor import run_task

    tasks = _min_tasks(range(4))
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(tasks)
    assert all(r.manifest.batch_size is None for r in results)
    assert results == [run_task(t) for t in tasks]
    assert results == simulate_batch([t.payload() for t in tasks])


def test_executor_falls_back_without_native(reference_engine):
    """Without the native kernel the executor's runs take the packet
    lane and equal the native runs of the same specs."""
    tasks = _min_tasks(range(3), window=60)
    with SweepExecutor(jobs=1) as executor:
        results = executor.run(tasks)
    assert all(r.manifest.batch_size is None for r in results)
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    assert results == [spec.run() for spec in
                       (t.payload() for t in tasks)]


def test_replicate_matches_seed_loop():
    """replicate()'s aggregates come from bit-identical per-seed
    results."""
    from repro.sim.engine import simulate
    from repro.sim.replication import replicate

    params = SimParams(window_cycles=60)
    stats = replicate(
        TOPO,
        lambda seed: UniformRandom(TOPO),
        0.2,
        routing="min",
        params=params,
        seeds=range(3),
    )
    singles = [
        simulate(TOPO, UniformRandom(TOPO), 0.2, routing="min",
                 params=params, seed=seed)
        for seed in range(3)
    ]
    expected = sum(r.avg_latency for r in singles) / 3
    assert stats["latency"].mean == pytest.approx(expected, abs=0, rel=0)
