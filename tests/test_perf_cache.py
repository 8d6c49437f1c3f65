"""On-disk result cache: hits skip simulation, keys track every input."""

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
    pattern_fingerprint,
    topology_fingerprint,
)
from repro.perf.executor import SimTask, SweepExecutor, run_task
from repro.sim import SimParams
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
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
    assert pattern_fingerprint(_Opaque(TOPO)) is None
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
    """Ad-hoc fixed map (no registered spec: the structural fallback)."""

    def _build_dest_map(self):
        return np.arange(self.topo.num_nodes)[::-1].copy()

    def describe(self):
        return "reverse"


def test_structural_fallback_tells_cascade_grids_apart():
    # same (p, a, h, g), same destination map, another intra-group grid:
    # a different network, so never the same key
    wide = CascadeDragonfly(2, 6, 2, 3, rows=2, cols=3)
    tall = CascadeDragonfly(2, 6, 2, 3, rows=3, cols=2)
    keys = [
        fingerprint(
            topo,
            _Reverse(topo),
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
    assert topology_fingerprint(tall)["rows"] == 3
    # every constructor field, and nothing else, for the plain shapes
    assert topology_fingerprint(TOPO) == {
        "cls": "Dragonfly", "p": 2, "a": 4, "h": 2, "g": 5,
        "arrangement": "absolute",
    }
    assert topology_fingerprint(FullMesh(6, p=2)) == {
        "cls": "FullMesh", "p": 2, "a": 1, "h": 5, "g": 6,
        "arrangement": "absolute",
    }
