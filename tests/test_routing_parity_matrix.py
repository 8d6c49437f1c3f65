"""One result per configuration, whatever runs it.

Every path through the simulator must produce the same ``SimResult``
for a fixed seed: the reference path (the timing-wheel ``Network`` code
and the per-packet routing procedure: scalar channel reads, immediate
injection -- what a compiler-less host runs), the native kernel with
routing decisions as kernel calls (the array lane) and
``simulate_batch`` at B=1 (the same ``Run`` around a shared kernel
call).  Each case also asserts *which* lane ran it, so a run that
silently declines the array lane cannot pass as parity.  ``PINNED``
additionally holds the values each case produced before the code under
it was replaced -- the routing cases at the commit before the route
table; the ``oracle/`` cases (what the tests against the deleted
seed-faithful legacy oracle ran) and the network-parameter cases at
the commit before the ``engine`` knob and that oracle were removed,
where wheel, array and legacy engines all produced them -- so "all
agree" cannot hide a common drift.
"""

import pytest

import repro.routing.pathset as pathset
from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    StrategicFiveHopPolicy,
)
from repro.routing.vlb import VlbDescriptor
from repro.sim import SimParams, simulate
from repro.sim.array import native_available
from repro.sim.batch import simulate_batch
from repro.sim.engine import Run
from repro.spec import RunSpec
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic.patterns import Shift, UniformRandom
from repro.traffic.trace import TraceTraffic

TOPO = Dragonfly(2, 4, 2, 5)
MESH = FullMesh(8, 2)
CASCADE = CascadeDragonfly(2, 4, 2, 3, rows=2, cols=2)
LOAD = 0.3
SEED = 4
WINDOW = 20


def _excluding():
    return ExcludingPolicy(
        HopClassPolicy(5),
        excluded_channels=frozenset({Channel(0, 1), Channel(4, 16, 0)}),
        excluded_descriptors=frozenset(
            {(0, 4, VlbDescriptor(8, 0, 0)), (1, 5, VlbDescriptor(12, 1, 1))}
        ),
    )


def _explicit():
    return ExplicitPathSet.from_policy(TOPO, HopClassPolicy(4))


def _trace():
    # bursts that repeat a source within one cycle and leave gaps, so
    # injections arrive neither one-per-node nor in ascending node order
    events = []
    for cycle in range(0, 90, 3):
        for k in range(12):
            src = (7 * cycle + 5 * k) % TOPO.num_nodes
            dst = (src + 11 + k) % TOPO.num_nodes
            events.append((cycle, src, dst))
            if k % 4 == 0:
                events.append((cycle, src, (dst + 3) % TOPO.num_nodes))
    return TraceTraffic(TOPO, events)


def _ur():
    return UniformRandom(TOPO)


_ORACLE = {"seed": 3, "window": 80}

# id -> (routing, policy factory, SimParams overrides, pattern factory
# [, {"topo" | "load" | "seed" | "window": ...} where the case departs
# from TOPO / LOAD / SEED / WINDOW])
CASES = {
    "min": ("min", None, {}, None),
    "vlb": ("vlb", None, {}, None),
    "ugal-l": ("ugal-l", None, {}, None),
    "ugal-g": ("ugal-g", None, {}, None),
    "par": ("par", None, {}, None),
    "t-ugal-l": ("t-ugal-l", lambda: StrategicFiveHopPolicy("2+3"), {}, None),
    "t-ugal-g": ("t-ugal-g", lambda: HopClassPolicy(4, 0.5), {}, None),
    "t-par": ("t-par", lambda: StrategicFiveHopPolicy("3+2"), {}, None),
    "ugal-l/cache0": ("ugal-l", None, {"vlb_cache_per_pair": 0}, None),
    "ugal-l/cache2": ("ugal-l", None, {"vlb_cache_per_pair": 2}, None),
    "par/cache0": ("par", None, {"vlb_cache_per_pair": 0}, None),
    "t-par/cache2": (
        "t-par",
        lambda: StrategicFiveHopPolicy("2+3"),
        {"vlb_cache_per_pair": 2},
        None,
    ),
    "ugal-l/cand2": (
        "ugal-l",
        None,
        {"min_candidates": 2, "vlb_candidates": 2},
        None,
    ),
    "t-par/cand2": (
        "t-par",
        lambda: HopClassPolicy(3, 0.4),
        {"min_candidates": 2, "vlb_candidates": 2, "vlb_cache_per_pair": 2},
        None,
    ),
    "ugal-g/cand2-ur": (
        "ugal-g",
        None,
        {"min_candidates": 2, "vlb_candidates": 2},
        lambda: UniformRandom(TOPO),
    ),
    "t-ugal-l/sparse": ("t-ugal-l", lambda: HopClassPolicy(2, 0.02), {}, None),
    "t-ugal-l/excluding": ("t-ugal-l", _excluding, {}, None),
    "t-par/explicit": ("t-par", _explicit, {}, None),
    "ugal-l/trace": ("ugal-l", None, {}, _trace),
    "par/trace": ("par", None, {}, _trace),
    # what the legacy-oracle tests ran (UR, seed 3, window 80)
    "oracle/min": ("min", None, {}, _ur, {**_ORACLE, "load": 0.2}),
    "oracle/ugal-l": ("ugal-l", None, {}, _ur, {**_ORACLE, "load": 0.2}),
    "oracle/par": ("par", None, {}, _ur, {**_ORACLE, "load": 0.2}),
    "oracle/min-hi": ("min", None, {}, _ur, {**_ORACLE, "load": 0.9}),
    "oracle/ugal-l-mid": ("ugal-l", None, {}, _ur, {**_ORACLE, "load": 0.6}),
    # network parameters (the sensitivity axes of Figs 15-18) and shapes
    "ugal-l/psize4": ("ugal-l", None, {"packet_size": 4}, None, {"window": 40}),
    "par/perhop": ("par", None, {"vc_scheme": "perhop"}, None),
    "ugal-l/speedup1": (
        "ugal-l", None, {"speedup": 1}, _ur, {"load": 0.8, "window": 40},
    ),
    "par/buf8": ("par", None, {"buffer_size": 8}, None, {"load": 0.8, "window": 40}),
    "ugal-l/lat20-40": (
        "ugal-l",
        None,
        {"local_latency": 20, "global_latency": 40},
        None,
        {"window": 60},
    ),
    "mesh/ugal-l": (
        "ugal-l",
        None,
        {},
        lambda: UniformRandom(MESH),
        {"topo": MESH, "load": 0.5, "window": 40},
    ),
    "mesh/min": (
        "min",
        None,
        {},
        lambda: Shift(MESH, 1, 0),
        {"topo": MESH, "load": 0.5, "window": 40},
    ),
    "cascade/par": (
        "par",
        None,
        {},
        lambda: Shift(CASCADE, 1, 0),
        {"topo": CASCADE, "window": 40},
    ),
}

# (avg_latency, accepted_rate, avg_hops, min_chosen, vlb_chosen,
# par_revised) of every case at the commit before the code under it
# changed (see the module docstring)
PINNED = {
    "min": (
        45.666666666666664, 0.19875, 2.5660377358490565,
        959, 0, 0,
    ),
    "par": (
        44.88607594936709, 0.1975, 2.9556962025316458,
        589, 392, 86,
    ),
    "par/cache0": (
        44.88607594936709, 0.1975, 2.9556962025316458,
        589, 392, 86,
    ),
    "par/trace": (
        39.94285714285714, 0.0875, 2.6,
        286, 119, 36,
    ),
    "t-par": (
        46.6256157635468, 0.25375, 3.0492610837438425,
        572, 405, 97,
    ),
    "t-par/cache2": (
        46.408839779005525, 0.22625, 3.0662983425414363,
        604, 354, 115,
    ),
    "t-par/cand2": (
        45.392857142857146, 0.28, 2.9330357142857144,
        679, 293, 147,
    ),
    "t-par/explicit": (
        47.219409282700425, 0.29625, 3.0759493670886076,
        589, 354, 117,
    ),
    "t-ugal-g": (
        46.1044776119403, 0.25125, 2.985074626865672,
        506, 440, 0,
    ),
    "t-ugal-l": (
        45.74885844748859, 0.27375, 2.9954337899543377,
        507, 472, 0,
    ),
    "t-ugal-l/excluding": (
        47.148936170212764, 0.235, 3.101063829787234,
        497, 447, 0,
    ),
    "t-ugal-l/sparse": (
        44.9364161849711, 0.21625, 2.554913294797688,
        915, 65, 0,
    ),
    "ugal-g": (
        44.64705882352941, 0.2125, 2.929411764705882,
        538, 424, 0,
    ),
    "ugal-g/cand2-ur": (
        34.743801652892564, 0.3025, 2.309917355371901,
        877, 58, 0,
    ),
    "ugal-l": (
        44.05681818181818, 0.22, 2.903409090909091,
        517, 445, 0,
    ),
    "ugal-l/cache0": (
        44.05681818181818, 0.22, 2.903409090909091,
        517, 445, 0,
    ),
    "ugal-l/cache2": (
        43.14110429447853, 0.20375, 2.8466257668711656,
        581, 363, 0,
    ),
    "ugal-l/cand2": (
        45.915151515151514, 0.20625, 3.036363636363636,
        480, 437, 0,
    ),
    "ugal-l/trace": (
        41.77272727272727, 0.11, 2.727272727272727,
        281, 124, 0,
    ),
    "vlb": (
        63.1948051948052, 0.09625, 4.1688311688311686,
        0, 962, 0,
    ),
    "oracle/min": (
        33.394904458598724, 0.19625, 2.2404458598726116,
        2630, 0, 0,
    ),
    "oracle/ugal-l": (
        35.625, 0.1975, 2.4003164556962027,
        2263, 307, 0,
    ),
    "oracle/par": (
        37.65217391304348, 0.2084375, 2.5337331334332833,
        2318, 279, 136,
    ),
    "oracle/min-hi": (
        54.20450209843571, 0.8190625, 2.2167111789393363,
        11545, 0, 0,
    ),
    "oracle/ugal-l-mid": (
        35.341109383100054, 0.6028125, 2.2680145152928977,
        7303, 381, 0,
    ),
    "ugal-l/psize4": (
        109.76958525345623, 0.135625, 4.046082949308755,
        1012, 883, 0,
    ),
    "par/perhop": (
        44.36305732484077, 0.19625, 2.917197452229299,
        595, 388, 92,
    ),
    "ugal-l/speedup1": (
        54.39313725490196, 0.6375, 2.3254901960784315,
        4850, 250, 0,
    ),
    "par/buf8": (
        114.07333333333334, 0.09375, 3.5,
        2478, 2675, 78,
    ),
    "ugal-l/lat20-40": (
        133.29747899159665, 0.24791666666666667, 3.981512605042017,
        1474, 1432, 0,
    ),
    "mesh/ugal-l": (
        19.13719512195122, 0.5125, 0.9817073170731707,
        1163, 116, 0,
    ),
    "mesh/min": (
        24.153125, 0.5, 1.0,
        1246, 0, 0,
    ),
    "cascade/par": (
        47.97610921501707, 0.30520833333333336, 3.167235494880546,
        929, 222, 88,
    ),
}


def _metrics(result):
    return (
        result.avg_latency,
        result.accepted_rate,
        result.avg_hops,
        result.min_chosen,
        result.vlb_chosen,
        result.par_revised,
    )


def _arguments(case):
    """``simulate()`` / ``RunSpec.from_objects`` arguments of a case."""
    routing, policy, overrides, pattern, *where = CASES[case]
    where = where[0] if where else {}
    topo = where.get("topo", TOPO)
    return (
        topo,
        pattern() if pattern else Shift(topo, 2, 0),
        where.get("load", LOAD),
    ), dict(
        routing=routing,
        policy=policy() if policy else None,
        params=SimParams(
            window_cycles=where.get("window", WINDOW), **overrides
        ),
        seed=where.get("seed", SEED),
    )


def _run(case):
    args, kwargs = _arguments(case)
    return simulate(*args, **kwargs)


@pytest.mark.parametrize("case", sorted(CASES))
def _lane(case):
    args, kwargs = _arguments(case)
    return Run(*args, **kwargs).lane


@pytest.mark.parametrize("case", sorted(CASES))
def test_wheel_array_and_batch_agree_with_the_pinned_result(
    case, reference_engine
):
    wheel = _run(case)
    assert _lane(case) == "packet"
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    array = _run(case)
    assert array == wheel
    assert _metrics(wheel) == PINNED[case]
    assert wheel.min_chosen + wheel.vlb_chosen > 0
    if CASES[case][3] is _trace:
        assert _lane(case) == "packet"
        return  # scheduled traces have no RunSpec form to batch
    if native_available():
        assert _lane(case) == "array"
    args, kwargs = _arguments(case)
    spec = RunSpec.from_objects(*args, **kwargs)
    assert simulate_batch([spec]) == [array]
    assert simulate(spec) == array


def test_a_user_defined_policy_stays_on_the_packet_lane():
    """A ``PathPolicy`` subclass the kernel knows nothing about -- even
    one that inherits a built-in's membership program -- is asked in
    Python, and a same-set policy routes exactly like the built-in."""

    class Local(HopClassPolicy):
        def contains(self, topo, src, dst, desc):
            return super().contains(topo, src, dst, desc)

    (args, kwargs) = _arguments("t-ugal-g")
    kwargs["policy"] = Local(4, 0.5)
    assert Run(*args, **kwargs).lane == "packet"
    assert _metrics(simulate(*args, **kwargs)) == PINNED["t-ugal-g"]


def test_one_rule_picks_the_lane(reference_engine):
    """Not a scheduled trace, and ``RoutingAlgorithm.compile()``
    succeeds: nothing else decides the lane -- no run is too small, too
    short or too idle for the array lane, and the per-packet procedure
    runs only where the kernel cannot (see also the user-defined policy
    above and the lane asserted per ``PINNED`` case)."""
    policies = {
        "t-ugal-l": StrategicFiveHopPolicy("2+3"),
        "t-ugal-g": HopClassPolicy(4, 0.5),
        "t-par": StrategicFiveHopPolicy("3+2"),
    }

    def lane(load=LOAD, window=WINDOW, routing="ugal-l", pattern=None):
        return Run(
            TOPO,
            pattern or Shift(TOPO, 2, 0),
            load,
            routing=routing,
            policy=policies.get(routing),
            params=SimParams(window_cycles=window),
            seed=SEED,
        ).lane

    assert lane() == "packet"  # the host without the kernel
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    expected = "array" if native_available() else "packet"
    total = SimParams(window_cycles=WINDOW).total_cycles
    under_one_packet = 0.5 / (total * TOPO.num_nodes)
    for load in (0.0, under_one_packet, LOAD, 1.0):
        assert lane(load=load) == expected
    assert lane(window=1) == expected
    assert lane(load=0.0, window=1) == expected
    for routing in ("min", "vlb", "ugal-l", "ugal-g", "par", *policies):
        assert lane(routing=routing) == expected
    assert lane(pattern=_trace()) == "packet"


@pytest.mark.parametrize("routing", ["min", "ugal-l", "par"])
def test_array_lane_counts_injections_like_the_reference(
    routing, reference_engine
):
    """With ``obs.metrics`` on, the array lane reports the counters the
    reference path's per-packet loop does -- stalls included, under a
    source-queue cap low enough to bite -- and both lanes report the
    run's set-up split next to ``routing.lane``, the array lane also
    what its kernel loop came back to Python for; switching metrics on
    changes no result and no fingerprint."""
    import repro.routing.table as table_module
    from repro.obs import ObsConfig

    def run(metrics=True):
        obs = ObsConfig(metrics=True) if metrics else None
        params = SimParams(window_cycles=WINDOW, obs=obs)
        return simulate(
            TOPO, Shift(TOPO, 2, 0), 0.9, routing=routing, params=params,
            seed=SEED, max_source_queue=3,
        )

    reference = run()
    assert reference.manifest.metrics["routing.lane"] == "packet"
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    run()  # composes TOPO's images where no earlier test has
    native = run()
    plain = run(metrics=False)
    assert native == reference == plain
    assert not plain.manifest.metrics
    for name in ("fingerprint", "spec_fingerprint"):
        assert (
            getattr(native.manifest, name)
            == getattr(reference.manifest, name)
            == getattr(plain.manifest, name)
        )
    split = (
        "engine.setup.build_network_seconds",
        "engine.setup.compile_seconds",
        "routing.table_fill_seconds",
    )
    for result in (reference, native):
        for name in split:
            assert isinstance(result.manifest.metrics[name], float)
            assert result.manifest.metrics[name] >= 0.0
    # these runs found the topology's images composed (by the run
    # before ``native``; the packet lane never asks for them): a table
    # hit reads exactly 0
    assert native.manifest.metrics["routing.table_fill_seconds"] == 0.0
    assert reference.manifest.metrics["routing.table_fill_seconds"] == 0.0
    names = ("engine.packets_injected", "engine.inject_stalls")
    counted = [native.manifest.metrics[name] for name in names]
    assert counted == [reference.manifest.metrics[name] for name in names]
    # PAR spreads this load well enough that the cap never bites
    assert counted[0] > 0 and (counted[1] > 0 or routing == "par")
    if native_available():
        metrics = native.manifest.metrics
        assert metrics["routing.lane"] == "array"
        sampled = routing != "min"
        assert (metrics["routing.sample_attempts"] > 0) == sampled
        assert (
            metrics["routing.sample_attempts"]
            >= metrics["routing.sample_accepts"]
        )
        assert (metrics["routing.revisions_considered"] > 0) == (
            routing == "par"
        )
        assert metrics["routing.words_drawn"] > 0
        # the loop explains itself: how often the kernel was entered and
        # what each entry came back for -- far fewer entries than cycles
        # (a run that fell back to cycle-by-cycle driving would show
        # here), two of them segment ends (warm-up, total)
        reasons = (
            "segment", "drain", "pool", "arena", "ring", "enum",
            "destinations",
        )
        returns = {
            reason: metrics[f"engine.loop.returns.{reason}"]
            for reason in reasons
        }
        calls = metrics["engine.loop.kernel_calls"]
        assert calls == sum(returns.values())
        assert returns["segment"] == 2
        assert returns["destinations"] == returns["enum"] == 0
        assert calls <= metrics["engine.cycles"] // 8 + 8
        assert not any(
            name.startswith("engine.loop.")
            for name in reference.manifest.metrics
        )
        # the first run of a process on a topology composes them
        reference_engine.setattr(table_module, "_TABLES", {})
        reference_engine.setattr(table_module, "_LAST", (None, None))
        cold = run()
        assert cold == native
        fill = cold.manifest.metrics["routing.table_fill_seconds"]
        assert 0.0 < fill <= cold.manifest.metrics[
            "engine.setup.compile_seconds"
        ]


def test_array_lane_constructs_no_packet(monkeypatch):
    """Decisions, injection, PAR revision and ejection statistics of a
    lane run all stay in arrays: not one ``Packet`` object is made."""
    if not native_available():
        pytest.skip("needs the native kernel")
    from repro.sim.packet import Packet

    made = []
    init = Packet.__init__

    def counting(self, *args):
        made.append(1)
        init(self, *args)

    monkeypatch.setattr(Packet, "__init__", counting)
    assert _metrics(_run("par")) == PINNED["par"]
    assert not made
    args, kwargs = _arguments("par/trace")
    simulate(*args, **kwargs)
    assert made  # the packet lane does make them


def test_sparse_case_reaches_the_reservoir_fallback(reference_engine):
    """The matrix's sparse policy is only a fallback test if rejection
    sampling actually gives up for some pair -- and the reservoirs it
    then builds land in the run's own store (the packet lane's memo,
    the array lane's pool), not in the process-wide memo."""
    args, kwargs = _arguments("t-ugal-l/sparse")
    before = dict(pathset._sparse_memo)

    def drive():
        run = Run(*args, **kwargs)
        run.advance(run.total)
        assert pathset._sparse_memo == before
        return run

    run = drive()
    assert run.memo
    assert _metrics(run.finish()) == PINNED["t-ugal-l/sparse"]
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    if native_available():
        run = drive()
        assert not run.memo
        assert run.algo.lane.counts()["routing.fallback_picks"] > 0
        assert _metrics(run.finish()) == PINNED["t-ugal-l/sparse"]


def test_excluding_and_all_vlb_differ():
    """Guards the Excluding case against silently routing like its base."""
    base = simulate(
        TOPO,
        Shift(TOPO, 2, 0),
        LOAD,
        routing="t-ugal-l",
        policy=AllVlbPolicy(),
        params=SimParams(window_cycles=WINDOW),
        seed=SEED,
    )
    assert _metrics(_run("t-ugal-l/excluding")) != _metrics(base)
