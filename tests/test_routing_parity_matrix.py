"""Routing decisions: one result per configuration, whatever runs it.

The table-driven routing path (interned route tables, DrawStream draws,
batched decide + inject) sits behind ``route_packets`` / ``inject`` /
``step`` / ``revise_at``, so every driver must produce the same
``SimResult`` for a fixed seed: the wheel engine (scalar channel reads,
immediate injection), the array engine (one SoA load snapshot per batch,
deferred batched injection) and ``simulate_batch`` at B=1 (its generic
lane calls the same hooks around a shared kernel call).  ``PINNED``
additionally holds the values the pre-table implementation produced for
each case, so "all three agree" cannot hide a common drift.
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
from repro.sim.batch import simulate_batch
from repro.spec import RunSpec
from repro.topology import Dragonfly
from repro.traffic.patterns import Shift, UniformRandom
from repro.traffic.trace import TraceTraffic

TOPO = Dragonfly(2, 4, 2, 5)
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


# id -> (routing, policy factory, SimParams overrides, pattern factory)
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
}

# (avg_latency, accepted_rate, avg_hops, min_chosen, vlb_chosen,
# par_revised) of every case at the commit before the route table
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


def _run(case, engine):
    routing, policy, overrides, pattern = CASES[case]
    return simulate(
        TOPO,
        pattern() if pattern else Shift(TOPO, 2, 0),
        LOAD,
        routing=routing,
        policy=policy() if policy else None,
        params=SimParams(window_cycles=WINDOW, engine=engine, **overrides),
        seed=SEED,
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_wheel_array_and_batch_agree_with_the_pinned_result(case):
    wheel = _run(case, "wheel")
    array = _run(case, "array")
    assert array == wheel
    assert _metrics(wheel) == PINNED[case]
    assert wheel.min_chosen + wheel.vlb_chosen > 0
    routing, policy, overrides, pattern = CASES[case]
    if pattern is _trace:
        return  # scheduled traces have no RunSpec form to batch
    spec = RunSpec.from_objects(
        TOPO,
        pattern() if pattern else Shift(TOPO, 2, 0),
        LOAD,
        routing=routing,
        policy=policy() if policy else None,
        params=SimParams(window_cycles=WINDOW, engine="array", **overrides),
        seed=SEED,
    )
    assert simulate_batch([spec]) == [array]


def test_sparse_case_reaches_the_reservoir_fallback():
    """The matrix's sparse policy is only a fallback test if rejection
    sampling actually gives up for some pair."""
    _run("t-ugal-l/sparse", "array")
    assert pathset._sparse_memo  # simulate() resets it on entry, not exit


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
    assert _metrics(_run("t-ugal-l/excluding", "wheel")) != _metrics(base)
