"""Array-engine parity: the native kernel is bit-identical.

``ArrayNetwork`` re-implements the per-cycle deliver/crossbar/transmit
phases over numpy struct-of-arrays state with a native C kernel.  Its
entire value rests on one contract: every ``SimResult`` field equals
what the reference path -- the timing-wheel ``Network`` every run steps
without a C compiler (the ``reference_engine`` fixture) -- produces,
bit for bit, across routing variants, seeds, and loads.  These tests
pin that contract and the cache/identity neutrality of the path taken:
it is a fact about the host, so runs from either path, and from before
the ``engine`` knob was removed, share result-cache entries.
"""

import os
import shutil

import pytest

import repro.perf.executor as executor_module
from repro.perf.cache import SimCache, fingerprint
from repro.perf.executor import SimTask, SweepExecutor
from repro.sim import SimParams, simulate
from repro.sim.array import (
    ArrayNetwork,
    NativeKernelUnavailable,
    native_available,
)
from repro.sim.engine import Run
from repro.sim.network import Network
from repro.sim.stats import StatsCollector
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
ROUTINGS = ["min", "vlb", "ugal-l", "ugal-g", "par"]


def _run(routing, *, load=0.2, seed=3, window=80):
    return simulate(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=SimParams(window_cycles=window),
        seed=seed,
    )


def _run_on_both(reference_engine, routing, **kwargs):
    """(reference result, this host's default-path result)."""
    reference = _run(routing, **kwargs)
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    return reference, _run(routing, **kwargs)


# ---------------------------------------------------------------------------
# Bit-parity across the seed grid and every routing variant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("seed", [0, 3])
def test_array_matches_wheel(routing, seed, reference_engine):
    """Full SimResult equality: every measured field, not a tolerance."""
    wheel, array = _run_on_both(reference_engine, routing, seed=seed)
    assert array == wheel


@pytest.mark.parametrize("routing", ["min", "ugal-l", "par"])
def test_array_matches_wheel_at_high_load(routing, reference_engine):
    """Saturation exercises budgets, credit stalls, and deep queues."""
    wheel, array = _run_on_both(reference_engine, routing, load=0.9)
    assert array == wheel


def test_par_revisions_exercised(reference_engine):
    """The PAR arm revises packets, so hop-1 revision -- the only
    order-sensitive RNG in a cycle -- is actually covered above."""
    wheel, array = _run_on_both(reference_engine, "par", load=0.6)
    assert array.par_revised > 0
    assert array == wheel


def _net(routing="ugal-l"):
    return Run(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing=routing,
        params=SimParams(window_cycles=80),
    ).net


def test_array_engine_class_is_used():
    """An array-lane run steps an ``ArrayNetwork``; a caller that drives
    a network itself (``inject`` / ``step``) gets the wheel."""
    from repro.sim.engine import build_network

    assert type(build_network(TOPO, SimParams(), "ugal-l")) is Network
    if native_available():
        assert isinstance(_net(), ArrayNetwork)


# ---------------------------------------------------------------------------
# Hosts without the kernel
# ---------------------------------------------------------------------------
def test_fallback_without_native_kernel(reference_engine):
    """With the native gate off, every run steps the wheel ``Network``
    -- no kernel required, same results -- and no ``ArrayNetwork`` can be
    built."""
    from repro.sim.engine import build_network

    assert type(build_network(TOPO, SimParams(), "ugal-l")) is Network
    assert type(_net()) is Network
    with pytest.raises(NativeKernelUnavailable):
        ArrayNetwork(TOPO, SimParams(), 4)
    wheel, array = _run_on_both(reference_engine, "ugal-l")
    assert array == wheel


def test_native_kernel_builds_here():
    """CI images ship a C compiler; if this fails every run there
    silently steps on the >10x slower fallback path."""
    assert native_available()


# ---------------------------------------------------------------------------
# The path taken is identity-neutral: cache keys, cache sharing
# ---------------------------------------------------------------------------
# keys of the two entries in tests/fixtures/simcache_pr12, a SimCache
# directory written (CACHE_VERSION 3) at the last commit that had
# ``SimParams.engine`` (ugal-l by engine="array", min by engine="wheel")
PARENT_KEYS = {
    "ugal-l": "dfeb6b2098314e267bd71ba0799dd112"
    "119fa2cacb2bb99a1893a512e6484c81",
    "min": "2f8ba7bf017c184f4e3efc2c3ff515ae"
    "93813256a04d2eb877ccf537d197be13",
}
# the same two points' keys since every VLB pick is a fresh sample
# (``SimParams.vlb_cache_per_pair`` went, CACHE_VERSION 4)
KEYS = {
    "ugal-l": "04021f43a4e0d227da4d8bf4acbfc2da"
    "ace70fe135d033cb05a3eef233fe4056",
    "min": "ff644cfdc759041336076bcc39b1e86c"
    "4c67292415059165b5ff6167ead96cba",
}
PARENT_CACHE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "fixtures", "simcache_pr12"
)


def _task(routing):
    return SimTask(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing=routing,
        policy=None,
        params=SimParams(window_cycles=80),
        seed=3,
    )


def test_engine_excluded_from_fingerprint(reference_engine):
    """The path a run takes is no part of its key: on either path the
    key is the pinned one -- which is not the key the fixture's entry of
    the same point has, as that result was computed with the candidate
    cache."""
    for native in (False, True):
        if native:
            reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
        for routing, key in KEYS.items():
            task = _task(routing)
            assert fingerprint(
                task.topo, task.pattern, task.load, routing=task.routing,
                policy=None, params=task.params, seed=task.seed,
            ) == key != PARENT_KEYS[routing]
    for key in PARENT_KEYS.values():
        assert os.path.exists(
            os.path.join(PARENT_CACHE, "v3", key[:2], key + ".json")
        )


def test_cross_engine_cache_sharing(tmp_path, reference_engine):
    """A reference-path run warms the cache for a native run, and a
    cache directory written before fresh VLB picks changed results is
    recomputed, not hit."""
    fresh = str(tmp_path / "fresh")
    with SweepExecutor(jobs=1, cache=SimCache(fresh)) as executor:
        first = executor.run([_task("ugal-l"), _task("min")])
        assert executor.cache_hits == 0
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    inherited = str(tmp_path / "inherited")
    shutil.copytree(PARENT_CACHE, inherited)
    with SweepExecutor(jobs=1, cache=SimCache(inherited)) as executor:
        assert executor.run([_task("ugal-l"), _task("min")]) == first
        assert executor.cache_hits == 0

    def bomb(t):
        raise AssertionError("cache miss: the engines do not share entries")

    reference_engine.setattr(executor_module, "run_task", bomb)
    for root in (fresh, inherited):
        with SweepExecutor(jobs=1, cache=SimCache(root)) as executor:
            second = executor.run([_task("ugal-l"), _task("min")])
            assert executor.cache_hits == 2
        assert second == first


def test_obs_neutral_on_array_engine():
    """Observability hooks never perturb array-engine results."""
    from repro.obs import ObsConfig

    params = SimParams(window_cycles=80)
    instrumented = simulate(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing="ugal-l",
        params=params.with_obs(ObsConfig(metrics=True)),
        seed=3,
    )
    assert instrumented == _run("ugal-l")


# ---------------------------------------------------------------------------
# Batched stats path is exact, not approximately equal
# ---------------------------------------------------------------------------
def test_batched_stats_match_scalar_appends():
    import numpy as np

    scalar = StatsCollector(num_nodes=4, warmup_cycles=10)
    batched = StatsCollector(num_nodes=4, warmup_cycles=10)
    rng = np.random.default_rng(7)
    cursor = 0
    for _ in range(5):
        n = int(rng.integers(1, 50))
        lats = rng.integers(1, 500, n)
        hops = rng.integers(1, 6, n)
        vlb = rng.integers(0, 2, n)
        cycles = cursor + np.sort(rng.integers(0, 20, n))
        cursor = int(cycles[-1])
        for i in range(n):
            pkt = type(
                "P",
                (),
                {
                    "inject_cycle": int(cycles[i] - lats[i]),
                    "path_hops": int(hops[i]),
                    "used_vlb": bool(vlb[i]),
                },
            )()
            scalar.record_ejection(pkt, int(cycles[i]))
        batched.record_ejection_batch(lats, hops, vlb, cycles)
    a = scalar.result(0.2, 100, 1000.0)
    b = batched.result(0.2, 100, 1000.0)
    assert a == b


# ---------------------------------------------------------------------------
# The new module passes the repo's own static determinism gate
# ---------------------------------------------------------------------------
def test_array_module_clean_under_analyze():
    import os

    from repro.analyze import AnalyzeConfig, analyze_tree

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    report = analyze_tree(
        AnalyzeConfig(root=repo, paths=("src/repro/sim/array",))
    )
    det = [f for f in report.findings if f.rule.startswith("DET1")]
    assert det == [], report.to_text()
