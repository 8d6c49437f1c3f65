"""On-disk result cache: hits skip simulation, keys track every input."""

import errno
import json
import os

import numpy as np
import pytest

import repro.perf.executor as executor_module
from repro.perf.cache import (
    CACHE_VERSION,
    SimCache,
    default_cache_dir,
    fingerprint,
)
from repro.perf.executor import ModelTask, SimTask, SweepExecutor, run_task
from repro.routing.pathset import ExcludingPolicy, HopClassPolicy
from repro.sim import SimParams, simulate
from repro.spec import PolicySpec, SpecError
from repro.topology import CascadeDragonfly, Dragonfly
from repro.traffic.patterns import (
    Shift,
    TrafficPattern,
    UniformRandom,
    _FixedPattern,
)

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)


def _task(**overrides):
    base = dict(
        topo=TOPO,
        pattern=UniformRandom(TOPO),
        load=0.2,
        routing="min",
        policy=None,
        params=PARAMS,
        seed=1,
    )
    base.update(overrides)
    return SimTask(**base)


def test_roundtrip(tmp_path):
    cache = SimCache(str(tmp_path))
    task = _task()
    result = run_task(task)
    key = task.key()
    assert key is not None
    assert cache.get(key) is None  # cold
    cache.put(key, result)
    assert cache.get(key) == result
    assert len(cache) == 1


def test_cache_hit_skips_simulation(tmp_path, monkeypatch):
    cache = SimCache(str(tmp_path))
    tasks = [_task(load=load) for load in (0.1, 0.2)]
    with SweepExecutor(jobs=1, cache=cache) as executor:
        first = executor.run(tasks)
        assert executor.cache_hits == 0
        assert executor.computed_serial == 2

    # any attempt to simulate again is a test failure
    def bomb(task):
        raise AssertionError("cache miss: simulate() was invoked")

    monkeypatch.setattr(executor_module, "run_task", bomb)
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        second = executor.run([_task(load=load) for load in (0.1, 0.2)])
        assert executor.cache_hits == 2
    assert second == first


@pytest.mark.parametrize(
    "change",
    [
        {"load": 0.25},
        {"routing": "vlb"},
        {"seed": 2},
        {"params": SimParams(window_cycles=90)},
        {"pattern": Shift(TOPO, dg=1)},
        {"topo": Dragonfly(2, 4, 2, 3)},
    ],
)
def test_any_input_change_changes_key(change):
    base = _task().key()
    changed = _task(**change).key()
    assert base is not None and changed is not None
    assert changed != base


class _Opaque(TrafficPattern):
    """Ad-hoc pattern the cache cannot fingerprint."""

    def sample_destinations(self, srcs, rng):
        return (np.asarray(srcs) + 1) % self.topo.num_nodes

    def describe(self):
        return "opaque"


def test_unfingerprintable_pattern_is_uncacheable():
    assert fingerprint(
        TOPO,
        _Opaque(TOPO),
        0.2,
        routing="min",
        policy=None,
        params=PARAMS,
        seed=1,
    ) is None
    assert _task(pattern=_Opaque(TOPO)).key() is None


def test_uncacheable_task_still_runs(tmp_path):
    cache = SimCache(str(tmp_path))
    task = _task(pattern=_Opaque(TOPO))
    with SweepExecutor(jobs=1, cache=cache) as executor:
        result = executor.run_one(task)
    assert result.packets_measured >= 0
    assert len(cache) == 0  # nothing stored for an unkeyable task


def test_version_mismatch_invalidates(tmp_path):
    cache = SimCache(str(tmp_path))
    task = _task()
    key = task.key()
    cache.put(key, run_task(task))
    path = cache.path_for(key)
    with open(path) as fh:
        payload = json.load(fh)
    payload["version"] = CACHE_VERSION + 1
    with open(path, "w") as fh:
        json.dump(payload, fh)
    assert cache.get(key) is None


def test_corrupt_entry_is_a_miss(tmp_path):
    cache = SimCache(str(tmp_path))
    task = _task()
    key = task.key()
    cache.put(key, run_task(task))
    with open(cache.path_for(key), "w") as fh:
        fh.write("{not json")
    assert cache.get(key) is None
    assert cache.misses == 1


def _write_entry(cache, key, text):
    path = cache.path_for(key)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(text)


@pytest.mark.parametrize("text", ["[]", "3", '"v3"', "null"])
def test_non_object_entry_is_a_miss(tmp_path, caplog, text):
    cache = SimCache(str(tmp_path))
    key = _task().key()
    _write_entry(cache, key, text)
    with caplog.at_level("WARNING", logger="repro.perf.cache"):
        assert cache.get(key) is None
    assert cache.misses == 1
    assert "corrupt cache entry" in caplog.text


@pytest.mark.parametrize("text", ["[]", "3", '"v3"', "null"])
def test_non_object_model_entry_is_a_miss(tmp_path, caplog, text):
    cache = SimCache(str(tmp_path))
    key = ModelTask(TOPO, UniformRandom(TOPO), HopClassPolicy(4)).key()
    _write_entry(cache, key, text)
    with caplog.at_level("WARNING", logger="repro.perf.cache"):
        assert cache.get_model(key) is None
    assert cache.misses == 1
    assert "corrupt cache entry" in caplog.text


def test_clear(tmp_path):
    cache = SimCache(str(tmp_path))
    task = _task()
    cache.put(task.key(), run_task(task))
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0


def test_default_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "explicit"))
    assert default_cache_dir() == str(tmp_path / "explicit")
    monkeypatch.delenv("REPRO_CACHE_DIR")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    assert default_cache_dir() == os.path.join(
        str(tmp_path / "xdg"), "repro-sim"
    )


def test_fingerprint_stable_across_instances():
    """Two equal-spec tasks share a key (the cache's whole premise)."""
    assert _task().key() == _task().key()
    assert fingerprint(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing="min",
        policy=None,
        params=PARAMS,
        seed=1,
    ) == _task().key()


class _Reverse(_FixedPattern):
    """Ad-hoc fixed map: no registered spec, so no cache identity."""

    def _build_dest_map(self):
        return np.arange(self.topo.num_nodes)[::-1].copy()

    def describe(self):
        return "reverse"


def test_cascade_grids_get_different_keys():
    # same (p, a, h, g), same pattern, another intra-group grid: a
    # different network, so never the same key
    wide = CascadeDragonfly(2, 6, 2, 3, rows=2, cols=3)
    tall = CascadeDragonfly(2, 6, 2, 3, rows=3, cols=2)
    keys = [
        fingerprint(
            topo,
            Shift(topo, dg=1),
            0.2,
            routing="min",
            policy=None,
            params=PARAMS,
            seed=1,
        )
        for topo in (wide, tall)
    ]
    assert None not in keys
    assert keys[0] != keys[1]
    # an unregistered pattern has no key on either grid
    assert _task(topo=wide, pattern=_Reverse(wide)).key() is None


# ---------------------------------------------------------------------------
# Ad-hoc subclasses: no identity, so never a false hit and never the
# wrong policy in a worker
# ---------------------------------------------------------------------------
class _NoVlb(HopClassPolicy):
    """Admits no VLB path, whatever its (registered) fields say."""

    def contains(self, topo, src, dst, desc):
        return False

    def membership_program(self, table):
        return None


class _PlainHopClass(HopClassPolicy):
    """Behaves exactly like its base, but is still not the base type."""


class _SelfUR(UniformRandom):
    """Sends every packet to its own source."""

    def sample_destinations(self, srcs, rng):
        return np.asarray(srcs)

    def destination_program(self):
        return None


class _PlainUR(UniformRandom):
    pass


SMALL = Dragonfly(2, 4, 2, 3)


def test_adhoc_subclasses_are_uncacheable():
    for policy in (_NoVlb(4, 0.5), _PlainHopClass(4, 0.5)):
        task = _task(
            topo=SMALL, pattern=Shift(SMALL, dg=1), routing="t-ugal-l",
            policy=policy,
        )
        assert task.key() is None
        assert fingerprint(
            SMALL, Shift(SMALL, dg=1), 0.2, routing="t-ugal-l",
            policy=policy, params=PARAMS, seed=1,
        ) is None
    for pattern in (_SelfUR(SMALL), _PlainUR(SMALL)):
        assert _task(topo=SMALL, pattern=pattern).key() is None


def test_executor_runs_the_live_adhoc_base():
    """An ExcludingPolicy over an ad-hoc base has no spec, so the
    executor ships the live objects and simulates *that* policy."""
    topo = TOPO
    policy = ExcludingPolicy(_NoVlb(4, 0.5))
    kwargs = dict(
        routing="t-ugal-l", policy=policy, params=PARAMS, seed=1,
    )
    direct = simulate(topo, Shift(topo, 1, 0), 0.3, **kwargs)
    assert direct.vlb_fraction == 0.0
    task = SimTask(topo, Shift(topo, 1, 0), 0.3, **kwargs)
    with SweepExecutor(jobs=1) as executor:
        (via_executor,) = executor.run([task])
    assert via_executor.vlb_fraction == 0.0
    assert via_executor == direct
    assert task.spec is None and task.key() is None
    with pytest.raises(SpecError):
        PolicySpec.of(policy)


@pytest.mark.parametrize("kind", ["run", "run_models"])
def test_a_failed_write_costs_the_entry_not_the_batch(
    tmp_path, monkeypatch, caplog, kind
):
    # the disk fills up at the rename: the batch keeps its computed
    # result, says it stored nothing and leaves no temp file behind
    if kind == "run":
        task = _task()
    else:
        task = ModelTask(TOPO, UniformRandom(TOPO), HopClassPolicy(4))
    with SweepExecutor(jobs=1) as executor:
        (want,) = getattr(executor, kind)([task])

    def full(src, dst):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr("repro.perf.cache.os.replace", full)
    cache = SimCache(str(tmp_path))
    with caplog.at_level("WARNING", logger="repro.perf.cache"):
        with SweepExecutor(jobs=1, cache=cache) as executor:
            (got,) = getattr(executor, kind)([task])
    assert got == want
    assert got.manifest.cache == "computed"
    assert "could not write cache entry" in caplog.text
    assert len(cache) == 0
    assert not [f for _, _, files in os.walk(tmp_path) for f in files]
