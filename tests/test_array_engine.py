"""Array-engine parity: the struct-of-arrays engine is bit-identical.

The array engine (``SimParams(engine="array")``) re-implements the
per-cycle deliver/crossbar/transmit phases over numpy struct-of-arrays
state with a native C kernel.  Its entire value rests on one contract:
every ``SimResult`` field equals the timing-wheel engine's (and hence
the legacy oracle's) bit for bit, across routing variants, seeds, and
loads.  These tests pin that contract, the documented scalar fallback
(no C compiler -> inherited wheel path), and the cache/identity
neutrality of the engine knob: runs from different engines must share
result-cache entries, because the knob changes performance, never
results.
"""

import pytest

import repro.perf.executor as executor_module
from repro.perf.bench import legacy_engine
from repro.perf.cache import SimCache, fingerprint
from repro.perf.executor import SimTask, SweepExecutor
from repro.sim import SimParams, simulate
from repro.sim.array import ArrayNetwork, native_available
from repro.sim.stats import StatsCollector
from repro.topology import Dragonfly
from repro.traffic.patterns import UniformRandom

TOPO = Dragonfly(2, 4, 2, 5)
ROUTINGS = ["min", "vlb", "ugal-l", "ugal-g", "par"]


def _run(routing, *, load=0.2, seed=3, engine="wheel", window=80):
    return simulate(
        TOPO,
        UniformRandom(TOPO),
        load,
        routing=routing,
        params=SimParams(window_cycles=window, engine=engine),
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Bit-parity across the seed grid and every routing variant
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("routing", ROUTINGS)
@pytest.mark.parametrize("seed", [0, 3])
def test_array_matches_wheel(routing, seed):
    """Full SimResult equality: every measured field, not a tolerance."""
    assert _run(routing, seed=seed, engine="array") == _run(
        routing, seed=seed
    )


@pytest.mark.parametrize("routing", ["min", "ugal-l", "par"])
def test_array_matches_wheel_at_high_load(routing):
    """Saturation exercises budgets, credit stalls, and deep queues."""
    assert _run(routing, load=0.9, engine="array") == _run(
        routing, load=0.9
    )


def test_array_matches_legacy_oracle():
    """Transitivity made explicit: array == legacy, not just == wheel."""
    arr = _run("ugal-l", load=0.6, engine="array")
    with legacy_engine():
        legacy = _run("ugal-l", load=0.6)
    assert arr == legacy


def test_par_revisions_exercised():
    """The PAR arm revises packets, so hop-1 revision -- the only
    order-sensitive RNG in a cycle -- is actually covered above."""
    res = _run("par", load=0.6, engine="array")
    assert res.par_revised > 0
    assert res == _run("par", load=0.6)


def test_par_arena_is_bounded_by_distinct_routes():
    """A long saturated PAR run revises thousands of packets, but equal
    revisions share one interned route: the arena grows with the number
    of distinct candidates, not with packets."""
    import numpy as np

    from repro.sim import build_network
    from repro.sim.packet import Packet
    from repro.sim.routing import make_routing
    from repro.traffic.patterns import Shift

    params = SimParams(engine="array", vlb_cache_per_pair=2)
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

    net = build_network(TOPO, SimParams(engine="array"), "ugal-l")
    assert isinstance(net, ArrayNetwork)


# ---------------------------------------------------------------------------
# Documented scalar fallback
# ---------------------------------------------------------------------------
def test_fallback_without_native_kernel(monkeypatch):
    """With the native gate off, ArrayNetwork runs the inherited wheel
    path -- same results, no kernel required."""
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "0")
    assert _run("ugal-l", engine="array") == _run("ugal-l")


def test_native_kernel_builds_here():
    """CI images ship a C compiler; if this fails the perf numbers in
    BENCH_sim.json silently degrade to the fallback."""
    assert native_available()


# ---------------------------------------------------------------------------
# Engine knob is identity-neutral: cross-engine cache sharing
# ---------------------------------------------------------------------------
def test_engine_excluded_from_fingerprint():
    pattern = UniformRandom(TOPO)
    fps = {
        fingerprint(
            TOPO,
            pattern,
            0.2,
            routing="ugal-l",
            policy=None,
            params=SimParams(window_cycles=80, engine=engine),
            seed=3,
        )
        for engine in ("wheel", "array", "legacy")
    }
    assert len(fps) == 1


def test_cross_engine_cache_sharing(tmp_path, monkeypatch):
    """An array-engine run warms the cache for a wheel-engine run."""

    def task(engine):
        return SimTask(
            TOPO,
            UniformRandom(TOPO),
            0.2,
            routing="ugal-l",
            policy=None,
            params=SimParams(window_cycles=80, engine=engine),
            seed=3,
        )

    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        first = executor.run([task("array")])
        assert executor.cache_hits == 0

    def bomb(t):
        raise AssertionError("cache miss: engines do not share entries")

    monkeypatch.setattr(executor_module, "run_task", bomb)
    with SweepExecutor(jobs=1, cache=SimCache(str(tmp_path))) as executor:
        second = executor.run([task("wheel")])
        assert executor.cache_hits == 1
    assert second == first


def test_obs_neutral_on_array_engine():
    """Observability hooks never perturb array-engine results."""
    from repro.obs import ObsConfig

    params = SimParams(window_cycles=80, engine="array")
    instrumented = simulate(
        TOPO,
        UniformRandom(TOPO),
        0.2,
        routing="ugal-l",
        params=params.with_obs(ObsConfig(metrics=True)),
        seed=3,
    )
    assert instrumented == _run("ugal-l", engine="array")


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
