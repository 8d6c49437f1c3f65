"""Array-engine parity: the native kernel is bit-identical.

``ArrayNetwork`` re-implements the per-cycle deliver/crossbar/transmit
phases over numpy struct-of-arrays state with a native C kernel.  Its
entire value rests on one contract: every ``SimResult`` field equals
what the reference path -- the timing-wheel ``Network`` code it inherits
and falls back to without a C compiler (the ``reference_engine``
fixture) -- produces, bit for bit, across routing variants, seeds, and
loads.  These tests pin that contract and the cache/identity neutrality
of the path taken: it is a fact about the host, so runs from either
path, and from before the ``engine`` knob was removed, share
result-cache entries.
"""

import os
import shutil

import pytest

import repro.perf.executor as executor_module
from repro.perf.cache import SimCache, fingerprint
from repro.perf.executor import SimTask, SweepExecutor
from repro.sim import SimParams, simulate
from repro.sim.array import ArrayNetwork, native_available
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


def test_par_arena_is_bounded_by_distinct_routes():
    """A long saturated PAR run revises thousands of packets, but equal
    revisions share one interned route: the arena grows with the number
    of distinct candidates, not with packets."""
    import numpy as np

    from repro.sim import build_network
    from repro.sim.packet import Packet
    from repro.sim.routing import make_routing
    from repro.traffic.patterns import Shift

    params = SimParams(vlb_cache_per_pair=2)
    network = build_network(TOPO, params, "par")
    if network.backend != "native":
        pytest.skip("needs the native array kernel")
    rng = np.random.default_rng(2)
    algo = make_routing(network, "par", rng=rng)
    network.on_arrival = algo.revise_at
    pattern = Shift(TOPO, 2, 0)
    nodes = np.arange(TOPO.num_nodes)

    def run(cycles):
        for _ in range(cycles):
            srcs = nodes[rng.random(TOPO.num_nodes) < 0.7]
            dests = pattern.sample_destinations(srcs, rng)
            batch = [
                Packet(int(s), int(d), network.cycle)
                for s, d in zip(srcs, dests)
                if network.source_queue_len(int(s)) < 50
            ]
            algo.route_packets(batch)
            for packet in batch:
                network.inject(packet)
            network.step()
        network.finalize()

    run(600)
    revisions = algo.par_revised
    assert revisions > 400
    assert len(algo._revised) < revisions / 4
    # with a finite per-pair cache every candidate ever built is still
    # held by the algorithm, so the arena is exactly their routes
    cached = [
        entry
        for entries in list(algo._min_cache.values())
        + [v for v in algo._vlb_cache.values() if isinstance(v, list)]
        for entry in entries
    ]
    assert network._arena_len == sum(e.hops for e in cached) + sum(
        len(route) for route, _vcs, _ref in algo._revised.values()
    )
    # and it has stopped growing: the same traffic again adds (almost)
    # nothing, where one slice per revision would add thousands of slots
    before = network._arena_len
    run(600)
    assert algo.par_revised > revisions + 400
    assert network._arena_len - before < 6 * 20


def test_array_engine_class_is_used():
    from repro.sim.engine import build_network

    net = build_network(TOPO, SimParams(), "ugal-l")
    assert isinstance(net, ArrayNetwork)


# ---------------------------------------------------------------------------
# Documented scalar fallback
# ---------------------------------------------------------------------------
def test_fallback_without_native_kernel(reference_engine):
    """With the native gate off, ArrayNetwork runs the inherited wheel
    path -- no kernel required, same results."""
    from repro.sim.engine import build_network

    assert build_network(TOPO, SimParams(), "ugal-l").backend != "native"
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
# directory written at the last commit that had ``SimParams.engine``
# (ugal-l by engine="array", min by engine="wheel")
PARENT_KEYS = {
    "ugal-l": "dfeb6b2098314e267bd71ba0799dd112"
    "119fa2cacb2bb99a1893a512e6484c81",
    "min": "2f8ba7bf017c184f4e3efc2c3ff515ae"
    "93813256a04d2eb877ccf537d197be13",
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
    """Removing the knob moved no cache key: the keys are the ones the
    parent commit computed, on either path."""
    for routing, key in PARENT_KEYS.items():
        task = _task(routing)
        assert fingerprint(
            task.topo, task.pattern, task.load, routing=task.routing,
            policy=None, params=task.params, seed=task.seed,
        ) == key
        assert os.path.exists(SimCache(PARENT_CACHE).path_for(key))


def test_cross_engine_cache_sharing(tmp_path, reference_engine):
    """A reference-path run warms the cache for a native run, and a
    cache directory written before the ``engine`` knob was removed is
    hit, not recomputed."""
    fresh = str(tmp_path / "fresh")
    with SweepExecutor(jobs=1, cache=SimCache(fresh)) as executor:
        first = executor.run([_task("ugal-l"), _task("min")])
        assert executor.cache_hits == 0
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")

    def bomb(t):
        raise AssertionError("cache miss: the engines do not share entries")

    reference_engine.setattr(executor_module, "run_task", bomb)
    inherited = str(tmp_path / "inherited")
    shutil.copytree(PARENT_CACHE, inherited)
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
