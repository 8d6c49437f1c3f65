"""Cache keys are RunSpec fingerprints: seeded patterns are cacheable.

A key is ``RunSpec.fingerprint()`` under ``CACHE_VERSION``, so every run
whose components are registered types -- ``perm``/``mixed``/``tmixed``
patterns and ``@file.json`` policies included -- hits the warm cache,
and a run the registries cannot describe has no key at all.  These tests
monkeypatch the executor's ``run_task`` with a bomb on the second pass:
any cache miss fails loudly.
"""

import json

import pytest

import repro.perf.executor as executor_module
from repro.perf.cache import SimCache
from repro.perf.executor import SimTask, SweepExecutor
from repro.sim import SimParams
from repro.spec import PatternSpec, PolicySpec, RunSpec, TopologySpec
from repro.topology import Dragonfly

TOPO = Dragonfly(2, 4, 2, 5)
PARAMS = SimParams(window_cycles=60)


def _task(pattern_spec, *, routing="ugal-l", policy=None):
    return SimTask(
        TOPO,
        PatternSpec.parse(pattern_spec).build(TOPO),
        0.2,
        routing=routing,
        policy=policy,
        params=PARAMS,
        seed=1,
    )


def _bomb(task):
    raise AssertionError("cache miss: simulate() was invoked")


@pytest.mark.parametrize(
    "pattern_spec", ["perm:7", "mixed:50,50,5", "tmixed:50,50"]
)
def test_seeded_patterns_hit_warm_cache(tmp_path, monkeypatch, pattern_spec):
    task = _task(pattern_spec)
    assert task.key() is not None, f"{pattern_spec} must be cacheable"
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        first = executor.run([task])
        assert executor.cache_hits == 0

    monkeypatch.setattr(executor_module, "run_task", _bomb)
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        second = executor.run([_task(pattern_spec)])
        assert executor.cache_hits == 1
    assert second == first


def test_file_policy_hits_warm_cache(tmp_path, monkeypatch):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"kind": "strategic", "order": "2+3"}))

    def task():
        return _task(
            "shift:2,0",
            routing="t-ugal-l",
            policy=PolicySpec.parse(f"@{path}").build(),
        )

    assert task().key() is not None
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path / "c"))) as ex:
        first = ex.run([task()])
        assert ex.cache_hits == 0
    monkeypatch.setattr(executor_module, "run_task", _bomb)
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path / "c"))) as ex:
        second = ex.run([task()])
        assert ex.cache_hits == 1
    assert second == first


def test_key_matches_spec_fingerprint_derivation():
    """The key is a pure function of the RunSpec, not object identity."""
    a, b = _task("perm:7"), _task("perm:7")
    assert a.key() == b.key()
    assert _task("perm:7").key() != _task("perm:8").key()
    assert _task("mixed:50,50,5").key() != _task("tmixed:50,50,5").key()


def test_spec_changes_change_key():
    base = _task("perm:7").key()
    spec = RunSpec(
        topology=TopologySpec.of(TOPO),
        pattern=PatternSpec.parse("perm:7"),
        load=0.2,
        routing="ugal-l",
        params=PARAMS,
        seed=1,
    )
    for changed in (
        spec.replace(load=0.25),
        spec.replace(seed=2),
        spec.replace(routing="min"),
        spec.replace(pattern=PatternSpec.parse("perm:9")),
    ):
        task = SimTask(
            TOPO, changed.pattern.build(TOPO), changed.load,
            routing=changed.routing, policy=None, params=changed.params,
            seed=changed.seed,
        )
        assert task.key() != base
