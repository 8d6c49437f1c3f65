"""The kernel's cycle loop against the per-packet reference, run for run.

``Run.advance`` on the array lane is one ``repro_run`` call per segment:
Bernoulli injection, destinations, the source-queue cap, decisions,
queueing, PAR revisions and the step of every cycle happen in
``kernel.c``, on the run's own generator.  What that rests on, each
checked against what defines it:

* whole runs -- over small shapes x the five variants and their T- forms
  x every kind of pattern x network parameters x source-queue caps small
  enough to stall, one call for the whole run == one call per cycle ==
  the reference engine's per-packet procedure, in every ``SimResult``
  field, the decision counters, ``channel_utilization`` **and the
  generator's end state**;
* the return protocol -- every buffer the kernel may come back for
  starts too small and the ejection buffer holds two cycles, so every
  status fires mid-run, results unchanged;
* destination programs -- for every registered pattern the program draws
  what ``sample_destinations`` draws, value for value and word for word;
  patterns without one are asked in Python each cycle and still run on
  the array lane.

Kernel-only cases skip themselves where the kernel is unavailable (the
``REPRO_ARRAYNET_NATIVE=0`` CI re-run).
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import ObsConfig
from repro.routing.pathset import (
    HopClassPolicy,
    OrderedVlbPolicy,
    StrategicFiveHopPolicy,
)
from repro.sim import SimParams, simulate
from repro.sim.array import native_available
from repro.sim.engine import Run
from repro.spec import PatternSpec
from repro.spec.builtins import TRAFFIC_REGISTRY
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic import (
    NO_TRAFFIC,
    DestinationProgram,
    DiscoveredPermutation,
    Mixed,
    Shift,
    TimeMixed,
    TrafficPattern,
    UniformRandom,
    destination_program,
)
from tests.test_draw_stream import _same_state

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="needs the native kernel"
)

TOPOLOGIES = {
    "dfly-g3": Dragonfly(2, 4, 2, 3),
    "dfly-g5": Dragonfly(2, 4, 2, 5),
    "dfly-thin": Dragonfly(1, 2, 1, 3),
    "dfly-relative": Dragonfly(2, 3, 1, 4, "relative"),
    "cascade-2x2": CascadeDragonfly(2, 4, 2, 3, rows=2, cols=2),
    "full-mesh-6": FullMesh(6, 2),
}


class Hotspot(TrafficPattern):
    """A pattern that is only Python: every node sends to one of the two
    highest nodes, by a draw of its own."""

    def sample_destinations(self, srcs, rng):
        n = self.topo.num_nodes
        dests = n - 1 - rng.integers(0, 2, size=len(srcs))
        dests[dests == srcs] = NO_TRAFFIC
        return dests

    def describe(self):
        return "hotspot"


PATTERNS = {
    "fixed": lambda topo: Shift(topo, 1, 0),
    "fixed-sparse": lambda topo: DiscoveredPermutation(
        topo, [1, 0] + [NO_TRAFFIC] * (topo.num_nodes - 2)
    ),
    "ur": UniformRandom,
    "mixed": lambda topo: Mixed(topo, 50, 50, seed=3),
    "tmixed": lambda topo: TimeMixed(topo, 30, 70),
    "mixed-no-program": lambda topo: Mixed(
        topo, 50, 50, adv=UniformRandom(topo)
    ),
    "subclass-no-program": Hotspot,
}

# routing -> the policies its T- form is tried with (None: the plain one)
POLICIES = {
    "hopclass": HopClassPolicy(3, 0.5, seed=1),
    "strategic": StrategicFiveHopPolicy("2+3"),
    "ordered": OrderedVlbPolicy(),
    "sparse": HopClassPolicy(2, 0.02),
}


def _drive(case, *, per_cycle=False):
    """One run of ``case`` to the end: everything it decided."""
    topo, pattern, load, routing, policy, params, seed, cap = case
    run = Run(
        topo,
        PATTERNS[pattern](topo),
        load,
        routing=routing,
        policy=policy,
        params=params,
        seed=seed,
        max_source_queue=cap,
    )
    if per_cycle:
        for cycle in range(run.total):
            run.advance(cycle + 1)
    else:
        run.advance(run.total)
    result = run.finish()
    assert result.channel_utilization is not None
    # where the generator ended, and the draw that continues from there
    return run, result, run.rng.bit_generator.state, run.rng.random()


def _assert_same_run(got, want):
    run, result, state, following = got
    ref, expected, ref_state, ref_following = want
    assert result == expected  # every field, channel_utilization included
    for name in ("min_chosen", "vlb_chosen", "par_revised"):
        assert getattr(run.algo, name) == getattr(ref.algo, name)
    assert run.net.cycle == ref.net.cycle == run.total
    assert _same_state(state, ref_state)
    assert following == ref_following


cases = st.builds(
    lambda topo, pattern, load, routing, policy, seed, cap, window, net: (
        TOPOLOGIES[topo],
        pattern,
        load,
        ("t-" + routing) if policy and routing not in ("min", "vlb") else routing,
        POLICIES[policy] if policy and routing not in ("min", "vlb") else None,
        SimParams(window_cycles=window, warmup_windows=2, **net),
        seed,
        cap,
    ),
    topo=st.sampled_from(sorted(TOPOLOGIES)),
    pattern=st.sampled_from(sorted(PATTERNS)),
    load=st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]),
    routing=st.sampled_from(["min", "vlb", "ugal-l", "ugal-g", "par"]),
    policy=st.sampled_from([None, None] + sorted(POLICIES)),
    seed=st.integers(0, 2**16),
    cap=st.sampled_from([1, 2, 10_000]),
    window=st.integers(1, 14),
    net=st.fixed_dictionaries(
        {},
        optional={
            "buffer_size": st.sampled_from([4, 8]),
            "packet_size": st.sampled_from([2, 4]),
            "local_latency": st.sampled_from([1, 3]),
            "global_latency": st.sampled_from([2, 30]),
            "router_latency": st.sampled_from([1, 4]),
            "speedup": st.just(1),
            "output_queue_size": st.just(8),
            "vc_scheme": st.just("perhop"),
            "ugal_threshold": st.sampled_from([2, 40]),
            "min_candidates": st.just(2),
            "vlb_candidates": st.just(3),
        },
    ),
)


@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=cases)
def test_whole_runs_equal_the_reference(case, reference_engine):
    """One kernel call per segment == one per cycle == the per-packet
    procedure on the reference engine, generator end state included."""
    reference_engine.setenv("REPRO_ARRAYNET_NATIVE", "0")
    reference = _drive(case)
    assert reference[0].lane == "packet"
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    whole = _drive(case)
    _assert_same_run(whole, reference)
    if native_available():
        assert whole[0].lane == "array"
        # nothing the loop leaves behind depends on where it was cut
        _assert_same_run(_drive(case, per_cycle=True), reference)


STARVED = [
    # (topology, routing, policy, pattern, params, seed): between them,
    # every request
    ("dfly-g5", "min", None, "ur", {}, 11),
    ("dfly-g5", "ugal-l", None, "tmixed", {"packet_size": 2}, 11),
    ("dfly-g5", "par", None, "fixed", {}, 11),
    (
        "dfly-g5",
        "t-par",
        POLICIES["hopclass"],
        "mixed",
        {"vlb_candidates": 2},
        11,
    ),
    ("dfly-g5", "t-ugal-l", POLICIES["sparse"], "fixed", {}, 11),
    ("dfly-g5", "t-par", POLICIES["sparse"], "ur", {}, 11),
    # revisions whose pick is cut short mid-sample: the packet must stay
    # on its route until the decision is replayed
    ("dfly-g9", "t-par", HopClassPolicy(4, 0.05), "fixed", {}, 3),
    ("dfly-g5", "ugal-g", None, "subclass-no-program", {}, 11),
]


@needs_kernel
@pytest.mark.parametrize(
    "topo, routing, policy, pattern, net, seed",
    STARVED,
    ids=[f"{case[1]}-{case[3]}" for case in STARVED],
)
def test_every_return_status_fires_and_resumes(
    topo, routing, policy, pattern, net, seed, reference_engine, monkeypatch
):
    """Every buffer starts too small and the ejection buffer holds two
    cycles' worth: the loop comes back for each reason, mid-run, and the
    run is the same run -- the reference engine's."""
    case = (
        {**TOPOLOGIES, "dfly-g9": Dragonfly(2, 4, 2, 9)}[topo],
        pattern,
        0.8,
        routing,
        policy,
        SimParams(window_cycles=40, **net),
        seed,
        10_000,
    )
    reference = _drive(case)
    assert reference[0].lane == "packet"
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    roomy = _drive(case)
    _assert_same_run(roomy, reference)
    monkeypatch.setattr("repro.sim.array.network._INITIAL_PACKET_CAP", 64)
    monkeypatch.setattr("repro.sim.array.network._INITIAL_SRC_CAP", 1)
    monkeypatch.setattr("repro.sim.array.network._EJ_ENTRIES", 1)
    monkeypatch.setattr("repro.sim.array.lane._INITIAL_POOL", 16)
    monkeypatch.setattr("repro.sim.array.lane._INITIAL_REPLAY", 1)
    starved = _drive(case)
    _assert_same_run(starved, reference)
    asked = starved[0].algo.returns
    assert asked["segment"] == 2  # the warm-up, the measurement window
    assert asked["drain"] > 3
    assert asked["pool"] > 0  # the packet pool
    if routing != "min":  # MIN draws one word per decision
        assert asked["ring"] > 1  # replay and source rings doubling
    if pattern == "subclass-no-program":
        assert asked["destinations"] > 100  # every cycle with a packet
    else:
        assert asked["destinations"] == 0
    if policy is POLICIES["sparse"]:
        assert asked["enum"] > 0
    calls = starved[0].algo.kernel_calls
    assert calls == sum(asked.values())
    assert calls > roomy[0].algo.kernel_calls


@needs_kernel
def test_a_run_enters_the_kernel_a_few_times_per_window():
    """The acceptance shape: ``dfly(4,8,4,9)``, UGAL-L, load 0.3, 4 x
    150-cycle windows -- far fewer kernel calls than cycles, all counted
    under ``obs.metrics``, none of it visible in the result."""
    topo = Dragonfly(4, 8, 4, 9)
    args = (topo, UniformRandom(topo), 0.3)
    params = SimParams(window_cycles=150)
    plain = simulate(*args, params=params, seed=2)
    counted = simulate(
        *args, params=params.with_obs(ObsConfig(metrics=True)), seed=2
    )
    assert counted == plain
    metrics = counted.manifest.metrics
    assert metrics["routing.lane"] == "array"
    calls = metrics["engine.loop.kernel_calls"]
    assert 2 <= calls <= params.total_cycles // 8
    reasons = ("segment", "drain", "pool", "ring", "enum", "destinations")
    assert calls == sum(
        metrics[f"engine.loop.returns.{reason}"] for reason in reasons
    )
    assert metrics["engine.loop.returns.segment"] == 2
    assert metrics["engine.loop.returns.destinations"] == 0
    assert metrics["engine.cycles"] == params.total_cycles
    assert not plain.manifest.metrics


# ----------------------------------------------------------------------
# Destination programs
# ----------------------------------------------------------------------
PROGRAM_TOPO = Dragonfly(2, 4, 2, 5)


@functools.lru_cache(maxsize=None)
def _registered_patterns():
    """One instance per registered kind (the registry's own examples;
    ``discovered`` has no spec string), plus the edges of the mixes."""
    topo = PROGRAM_TOPO
    patterns = {}
    for entry in TRAFFIC_REGISTRY:
        if entry.example:
            patterns[entry.kind] = PatternSpec.parse(entry.example).build(topo)
    dest = np.roll(np.arange(topo.num_nodes), 3)
    dest[::4] = NO_TRAFFIC
    patterns["discovered"] = DiscoveredPermutation(topo, dest)
    patterns["shift-self"] = Shift(topo, 0, 0)  # every node NO_TRAFFIC
    patterns["mixed-all-ur"] = Mixed(topo, 100, 0)
    patterns["tmixed-no-ur"] = TimeMixed(topo, 0, 100)  # coins, no draws
    return patterns


def test_every_registered_pattern_has_a_case():
    assert set(TRAFFIC_REGISTRY.kinds()) <= set(_registered_patterns())


def _interpret(program, srcs, rng, nodes):
    """``DestinationProgram``'s docstring, statement for statement."""
    if program.fixed is not None:
        dests = np.array(program.fixed)[srcs]
    else:
        dests = np.full(len(srcs), NO_TRAFFIC)
    uniform = np.zeros(len(srcs), bool)
    if program.ur_mask is not None:
        uniform |= np.asarray(program.ur_mask, bool)[srcs]
    if program.ur_probability is not None:
        uniform |= rng.random(len(srcs)) < program.ur_probability
    for i in np.flatnonzero(uniform):
        draw = int(rng.integers(0, nodes - 1))
        dests[i] = draw + (draw >= srcs[i])
    return dests


@pytest.mark.parametrize("kind", sorted(_registered_patterns()))
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_programs_draw_what_sample_destinations_draws(kind, seed, data):
    """Values, ``NO_TRAFFIC`` entries and the generator's end state, for
    random source subsets -- by the program's definition in Python and,
    where there is a kernel, by ``draw_destinations`` itself."""
    pattern = _registered_patterns()[kind]
    topo = pattern.topo
    program = destination_program(pattern)
    assert isinstance(program, DestinationProgram)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    sampled, interpreted, kernel = rngs
    lane = None
    if native_available():
        run = Run(topo, pattern, 0.5, routing="min", seed=0)
        run.rng.bit_generator.state = kernel.bit_generator.state
        kernel, lane = run.rng, run.algo
    for _ in range(3):
        subset = data.draw(
            st.lists(
                st.integers(0, topo.num_nodes - 1), unique=True, max_size=24
            )
        )
        srcs = np.array(sorted(subset), np.int64)
        want = np.asarray(pattern.sample_destinations(srcs, sampled))
        got = _interpret(program, srcs, interpreted, topo.num_nodes)
        assert got.tolist() == want.tolist()
        assert _same_state(
            sampled.bit_generator.state, interpreted.bit_generator.state
        )
        if lane is not None:
            assert lane.destinations(srcs).tolist() == want.tolist()
            assert _same_state(
                sampled.bit_generator.state, kernel.bit_generator.state
            )
    assert ((want == NO_TRAFFIC) | (want != srcs)).all()


def test_patterns_that_are_only_python_have_no_program():
    topo = PROGRAM_TOPO

    class Doubled(Shift):  # changes the sampler, keeps the parent's program
        def sample_destinations(self, srcs, rng):
            return super().sample_destinations(srcs, rng)[::-1].copy()

    class Described(Doubled):  # ... and describes the change
        def destination_program(self):
            return DestinationProgram(fixed=self._dest[::-1].copy())

    class Renamed(UniformRandom):
        def describe(self):
            return "renamed"

    assert destination_program(Hotspot(topo)) is None
    assert destination_program(Doubled(topo, 1, 0)) is None
    assert destination_program(Described(topo, 1, 0)) is not None
    assert destination_program(Renamed(topo)) is not None
    # a mix draws after its adversarial part: that part must be a map
    assert destination_program(Mixed(topo, 50, 50, adv=UniformRandom(topo))) is None
    assert destination_program(TimeMixed(topo, 50, 50, adv=Hotspot(topo))) is None
    assert (
        destination_program(Mixed(topo, 50, 50, adv=Mixed(topo, 50, 50)))
        is None
    )
    assert destination_program(Mixed(topo, 50, 50, adv=Doubled(topo, 1, 0))) is None
    # nobody to draw: the sampler raises, so nothing describes it
    assert destination_program(UniformRandom(Dragonfly(1, 1, 1, 1))) is None


@needs_kernel
@pytest.mark.parametrize("pattern", ["mixed-no-program", "subclass-no-program"])
def test_a_pattern_without_a_program_still_runs_on_the_array_lane(
    pattern, reference_engine
):
    case = (
        TOPOLOGIES["dfly-g5"],
        pattern,
        0.4,
        "ugal-l",
        None,
        SimParams(window_cycles=25),
        3,
        10_000,
    )
    reference = _drive(case)
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    native = _drive(case)
    run = native[0]
    assert run.lane == "array" and reference[0].lane == "packet"
    _assert_same_run(native, reference)
    # asked once per cycle that generated anything, through the one entry
    asked = run.algo.returns["destinations"]
    assert 0.9 * run.total <= asked <= run.total


@needs_kernel
def test_destinations_are_checked_before_the_kernel_indexes_with_them():
    topo = PROGRAM_TOPO

    class OffTheEnd(Hotspot):
        def sample_destinations(self, srcs, rng):
            return np.full(len(srcs), self.topo.num_nodes)

    class BadProgram(Shift):
        def destination_program(self):
            return DestinationProgram(fixed=self._dest + self.topo.num_nodes)

        def sample_destinations(self, srcs, rng):
            return super().sample_destinations(srcs, rng)

    run = Run(topo, OffTheEnd(topo), 0.5, routing="min", seed=0)
    assert run.lane == "array"
    with pytest.raises(ValueError, match="node id below"):
        run.advance(run.total)
    with pytest.raises(ValueError, match="node id below"):
        Run(topo, BadProgram(topo, 1, 0), 0.5, routing="min", seed=0)
