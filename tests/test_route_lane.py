"""The routing kernel's tables, draws and requests, each against what
defines it.

``tests/test_routing_parity_matrix.py`` shows the array lane and the
per-packet procedure agree end to end.  This file checks the pieces
that agreement rests on, independently:

* the flattened tables -- every (pair, descriptor) of four small shapes:
  the compiled membership test equals ``policy.contains`` for every
  built-in policy under both of its evaluators (``program_mask`` in
  numpy, ``rc_contains`` in the kernel), and the table's ``(hops, channels, VCs)`` equal
  ``vlb_legs`` + ``ladders`` (normal and PAR-revised);
* the C bounded draw -- drawn from the generator itself, word for word
  ``DrawStream.integers`` / ``int(rng.integers(n))``, generator end
  state included, with a rolled-back decision re-reading its words and
  replay rings that fill up mid-batch;
* the requests -- a lane starved of replay and pool space still
  produces the same results, a pair whose set sampling cannot find is
  enumerated, too few VCs raise the reference's error, and what a run
  keeps does not grow with its length;
* the ABI guard -- a cached ``.so`` built from other sources is refused.
"""

import ctypes
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.array.native as native
from repro.routing.paths import Channel
from repro.routing.pathset import (
    AllVlbPolicy,
    ExcludingPolicy,
    ExplicitPathSet,
    HopClassPolicy,
    OrderedVlbPolicy,
    PathPolicy,
    StrategicFiveHopPolicy,
    _as_int64,
    _mix,
    _mix_rows,
    policy_program,
    program_mask,
)
from repro.routing.table import route_table
from repro.routing.vlb import VlbDescriptor, enumerate_vlb_descriptors
from repro.sim import SimParams, simulate
from repro.sim.array import ArrayNetwork, native_available
from repro.sim.array.lane import RouteLane
from repro.sim.draws import DrawStream
from repro.sim.engine import Run
from repro.sim.network import Network
from repro.topology import CascadeDragonfly, Dragonfly, FullMesh
from repro.traffic.patterns import Shift, UniformRandom
from tests.test_draw_stream import BIT_GENERATORS, _same_state, bounds
from tests.test_routing_parity_matrix import PINNED, _metrics

needs_kernel = pytest.mark.skipif(
    not native_available(), reason="needs the native kernel"
)

SHAPES = {
    "dfly-g3": lambda: Dragonfly(2, 4, 2, 3),
    "dfly-g5": lambda: Dragonfly(2, 4, 2, 5),
    "full-mesh-8": lambda: FullMesh(8, 2),
    "cascade-2x2": lambda: CascadeDragonfly(2, 4, 2, 3, rows=2, cols=2),
}
NUM_VCS = 12  # roomy: every ladder of every shape fits


def _descriptors(topo):
    n = topo.num_switches
    return [
        (s, d, *desc)
        for s in range(n)
        for d in range(n)
        if s != d
        for desc in enumerate_vlb_descriptors(topo, s, d)
    ]


def _policies(topo, rows):
    """Every built-in, with parameters that split the descriptor set."""
    some = rows[:: max(1, len(rows) // 7)]
    keys = list(route_table(topo).channel_keys)
    excluding = ExcludingPolicy(
        HopClassPolicy(5, 0.5, seed=3),
        excluded_channels=frozenset(
            [Channel(*keys[0]), Channel(*keys[len(keys) // 2]), Channel(0, 0)]
        ),
        excluded_descriptors=frozenset(
            [(s, d, VlbDescriptor(m, a, b)) for s, d, m, a, b in some]
            # entries naming no path can never match a sampled one
            + [(0, 1, VlbDescriptor(0, 0, 0)), (0, 1, VlbDescriptor(1, 99, 0))]
        ),
    )
    explicit = ExplicitPathSet.from_policy(topo, HopClassPolicy(3, 0.3))
    return {
        "all": AllVlbPolicy(),
        "hopclass": HopClassPolicy(4),
        "hopclass-frac": HopClassPolicy(3, 0.37, seed=-5),
        "hopclass-min-only": HopClassPolicy(0),
        "strategic-2+3": StrategicFiveHopPolicy("2+3"),
        "strategic-3+2": StrategicFiveHopPolicy("3+2"),
        "ordered": OrderedVlbPolicy(),
        "ordered-frac": OrderedVlbPolicy(0.4, seed=2**63 + 11),
        "excluding": excluding,
        "excluding-nested": ExcludingPolicy(
            excluding, excluded_channels=frozenset([Channel(*keys[-1])])
        ),
        # sampled by index on its own, by rejection under a wrapper
        "explicit": explicit,
        "excluding-explicit": ExcludingPolicy(
            explicit, excluded_channels=frozenset([Channel(*keys[1])])
        ),
    }


def _lane(topo, policy, **params):
    network = ArrayNetwork(topo, SimParams(**params), NUM_VCS)
    table = route_table(topo)
    return RouteLane(
        network,
        table,
        table.min_image("won", NUM_VCS),
        policy,
        policy_program(policy, table),
        2,
        np.random.default_rng(0),
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_compiled_membership_equals_contains(shape):
    topo = SHAPES[shape]()
    table = route_table(topo)
    rows = _descriptors(topo)
    columns = np.array(rows).T
    for name, policy in _policies(topo, rows).items():
        want = [
            policy.contains(topo, s, d, VlbDescriptor(m, a, b))
            for s, d, m, a, b in rows
        ]
        program = policy_program(policy, table)
        assert program_mask(program, table, *columns).tolist() == want, name
        if native_available():
            got = _lane(topo, policy).contains(np.array(rows)).tolist()
            assert got == want, name
        # the parameters above are only a test if they split the set
        if name not in ("all", "hopclass-min-only") and shape != "full-mesh-8":
            assert 0 < sum(want) < len(want), name


def test_mix_rows_matches_scalar():
    rng = np.random.default_rng(0)
    cols = [rng.integers(0, 500, size=64) for _ in range(5)]
    # -5 and 2**63 + 11 as programs carry them (the _as_int64 round trip)
    for seed in (0, 7, 123456789, -5, 2**63 + 11, _as_int64(2**63 + 11)):
        want = [
            _mix(seed, s, d, VlbDescriptor(m, a, b))
            for s, d, m, a, b in zip(*(c.tolist() for c in cols))
        ]
        assert _mix_rows(seed, *cols).tolist() == want
    assert _as_int64(-5) == -5
    assert _as_int64(2**63 + 11) == 11 - 2**63


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explicit_lists_are_the_policys(shape):
    topo = SHAPES[shape]()
    policy = ExplicitPathSet.from_policy(topo, HopClassPolicy(3, 0.3))
    first, desc = policy_program(policy, route_table(topo)).lists
    n = topo.num_switches
    for s in range(n):
        for d in range(n):
            lo, hi = first[s * n + d], first[s * n + d + 1]
            assert [tuple(row) for row in desc[lo:hi].tolist()] == [
                tuple(x) for x in policy.paths.get((s, d), ()) if s != d
            ]


@pytest.mark.parametrize("scheme", ["won", "perhop"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_table_candidates_equal_legs_and_ladders(shape, scheme):
    topo = SHAPES[shape]()
    table = route_table(topo)
    image = table.min_image(scheme, NUM_VCS)
    plain = table.ladders(scheme, NUM_VCS)
    revised = table.ladders(scheme, NUM_VCS, revised=True, hop_offset=1)
    n = topo.num_switches
    count = len(image.shapes)

    def slot_row(slot):
        lo = image.rel[slot]
        return image.chan[lo : lo + image.hops[slot]].tolist()

    for s, d, mid, slot1, slot2 in _descriptors(topo):
        head, tail = table.vlb_legs(s, d, VlbDescriptor(mid, slot1, slot2))
        i = image.first[s * n + mid] + slot1
        j = image.first[mid * n + d] + slot2
        assert image.hops[i] + image.hops[j] == head.hops + tail.hops
        assert tuple(slot_row(i) + slot_row(j)) == head.chans + tail.chans
        combo = image.shape[i] * count + image.shape[j]
        shape_str = head.shape + tail.shape
        assert image.shapes[image.shape[i]] == head.shape
        assert image.shape_local[image.shape[i]] == head.shape.startswith("l")
        for slot, leg in ((i, head), (j, tail)):
            lo = image.min_off[image.shape[slot]]
            assert (
                image.ladder_vc[lo : lo + leg.hops].tolist()
                == plain[leg.shape]
            )
        for row, ladders in ((0, plain), (1, revised)):
            lo = image.combo_off[row, combo]
            assert (
                image.ladder_vc[lo : lo + len(shape_str)].tolist()
                == ladders[shape_str]
            )


def test_ladders_that_do_not_fit_are_marked_not_raised():
    topo = Dragonfly(2, 4, 2, 5)
    table = route_table(topo)
    image = table.min_image("won", 4)  # UGAL's budget: no revised 6-hop
    count = len(image.shapes)
    for i, head in enumerate(image.shapes):
        for j, tail in enumerate(image.shapes):
            for row, revised in ((0, False), (1, True)):
                ladders = table.ladders(
                    "won", 4, revised=revised, hop_offset=int(revised)
                )
                try:
                    ladders[head + tail]
                    fits = True
                except ValueError:
                    fits = False
                assert (image.combo_off[row, i * count + j] >= 0) == fits
    assert (image.combo_off[0] >= 0).all() and (image.combo_off[1] < 0).any()


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_vlb_image_is_vlb_row_of_every_group_pair(shape):
    topo = SHAPES[shape]()
    table = route_table(topo)
    image = table.vlb_image()
    for gs in range(topo.g):
        for gd in range(topo.g):
            row = table.vlb_row(gs, gd)
            lo = image.first[gs * topo.g + gd]
            hi = lo + image.n[gs * topo.g + gd]
            if row is None:
                assert lo == hi
                continue
            mids, links_in, links_out = row
            assert [
                tuple(image.switches[g].tolist()) for g in image.group[lo:hi]
            ] == list(mids)
            assert image.links_in[lo:hi].tolist() == list(links_in)
            assert image.links_out[lo:hi].tolist() == list(links_out)
    assert image.node_switch.tolist() == [
        topo.switch_of_node(n) for n in range(topo.num_nodes)
    ]
    assert image.switch_group.tolist() == [
        topo.group_of(s) for s in range(topo.num_switches)
    ]


def test_a_policy_only_compiles_while_its_program_still_describes_it():
    table = route_table(Dragonfly(2, 4, 2, 5))

    class Plain(PathPolicy):
        def contains(self, topo, src, dst, desc):
            return True

        def describe(self):
            return "plain"

    class Narrowed(HopClassPolicy):
        def contains(self, topo, src, dst, desc):
            return desc.mid % 2 == 0 and super().contains(topo, src, dst, desc)

    class Recompiled(Narrowed):
        def membership_program(self, table):
            return None

    class Renamed(HopClassPolicy):
        def describe(self):
            return "renamed"

    assert policy_program(Plain(), table) is None
    assert policy_program(Narrowed(4), table) is None
    assert policy_program(Recompiled(4), table) is None
    assert policy_program(Renamed(4), table) is not None
    assert policy_program(ExcludingPolicy(Narrowed(4)), table) is None
    malformed = ExplicitPathSet({(0, 19): [VlbDescriptor(1, 0, 0)]})
    assert policy_program(malformed, table) is None  # mid in source group
    # hashable policies share one program per table
    assert policy_program(HopClassPolicy(4), table) is policy_program(
        HopClassPolicy(4), table
    )


# ----------------------------------------------------------------------
# The C bounded draw
# ----------------------------------------------------------------------
class _Decision:
    """A bare ``RouteCtx`` -- ``rng``'s bit generator and a replay ring
    of ``ring`` words -- for ``repro_draw_batch``, which draws a batch
    of bounds the way one routing decision does."""

    def __init__(self, rng, ring):
        self.ctx = native.CRouteCtx()
        self._bitgen = rng.bit_generator.ctypes
        self.ctx.gen = self._bitgen.bit_generator.value
        self._ring(np.zeros(ring, np.uint32))
        self.grown = 0

    def _ring(self, words):
        self.words = words
        self.ctx.replay = words.ctypes.data
        self.ctx.replay_cap = len(words)

    def draw(self, ns, undo=False):
        """The draws of ``ns``; with ``undo`` they are rolled back
        afterwards, as those of a decision that could not complete."""
        draw = native.load_kernel().repro_draw_batch
        wanted = np.array(ns, np.int64)
        values = np.zeros(len(ns), np.int64)
        while draw(
            ctypes.byref(self.ctx),
            wanted.ctypes.data,
            len(ns),
            values.ctypes.data,
            int(undo),
        ) != len(ns):
            # a full ring: the lane doubles it and re-enters
            assert self.ctx.status == native.RS_REPLAY
            grown = np.zeros(max(1, 2 * len(self.words)), np.uint32)
            grown[: self.ctx.rlen] = self.words[: self.ctx.rlen]
            self._ring(grown)
            self.grown += 1
        return values.tolist()


@needs_kernel
@pytest.mark.parametrize("name", sorted(BIT_GENERATORS))
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    odd_start=st.booleans(),
    batches=st.lists(
        st.tuples(st.lists(bounds, max_size=30), st.booleans()),
        min_size=1,
        max_size=4,
    ),
    ring=st.integers(0, 9),
)
def test_kernel_draw_equals_scalar_draws_and_end_state(
    name, seed, odd_start, batches, ring
):
    scalar = np.random.Generator(BIT_GENERATORS[name](seed))
    streamed = np.random.Generator(BIT_GENERATORS[name](seed))
    kernel = np.random.Generator(BIT_GENERATORS[name](seed))
    if odd_start:  # start on the buffered half of a 64-bit step
        for rng in (scalar, streamed, kernel):
            rng.integers(0, 2**32, dtype=np.uint32)
    decision = _Decision(kernel, ring)
    for ns, rolled_back in batches:
        want = [int(scalar.integers(n)) for n in ns]
        with DrawStream(streamed, chunk=ring + 1) as draws:
            assert [draws.integers(n) for n in ns] == want
        if rolled_back:  # the second attempt reads the same words
            assert decision.draw(ns, undo=True) == want
        assert decision.draw(ns) == want
        assert _same_state(
            scalar.bit_generator.state, kernel.bit_generator.state
        )
        # Python draws in between continue the same sequence
        assert scalar.random() == streamed.random() == kernel.random()


@needs_kernel
def test_kernel_draw_resumes_after_a_full_replay_ring():
    rng = np.random.default_rng(9)
    scalar = np.random.default_rng(9)
    ns = [7, 1, 2**31 + 1, 3, 3, 1, 1000]  # the big bound rejects words
    decision = _Decision(rng, ring=2)
    assert decision.draw(ns) == [int(scalar.integers(n)) for n in ns]
    assert decision.grown >= 2
    assert decision.ctx.cnt[native.RC_WORDS] > len(ns) - 2
    assert scalar.random() == rng.random()


# ----------------------------------------------------------------------
# Requests: a starved lane, enumeration, too few VCs
# ----------------------------------------------------------------------
TOPO = Dragonfly(2, 4, 2, 5)


def _simulate(routing, policy=None, **params):
    return simulate(
        TOPO,
        Shift(TOPO, 2, 0),
        0.3,
        routing=routing,
        policy=policy,
        params=SimParams(window_cycles=20, **params),
        seed=4,
    )


def _returns(routing, policy=None, **params):
    """(result, what the kernel came back for) of the same run."""
    run = Run(
        TOPO,
        Shift(TOPO, 2, 0),
        0.3,
        routing=routing,
        policy=policy,
        params=SimParams(window_cycles=20, **params),
        seed=4,
    )
    run.advance(run.total)
    return run.finish(), run.algo.returns


@needs_kernel
@pytest.mark.parametrize(
    "routing, policy, params",
    [
        ("ugal-l", None, {}),
        ("par", None, {}),
        ("t-par", HopClassPolicy(3, 0.4), {"vlb_candidates": 2}),
        ("t-ugal-l", HopClassPolicy(2, 0.02), {}),
    ],
)
def test_a_starved_lane_asks_and_resumes(routing, policy, params, monkeypatch):
    """A 2-word replay ring and a 16-entry pool: every kind of routing
    request is made (and counted), and nothing changes."""
    want = _simulate(routing, policy, **params)
    monkeypatch.setattr("repro.sim.array.lane._INITIAL_REPLAY", 2)
    monkeypatch.setattr("repro.sim.array.lane._INITIAL_POOL", 16)
    got, asked = _returns(routing, policy, **params)
    assert got == want
    assert asked["ring"] > 0
    # what a run keeps of its samples is the reservoirs of pairs that
    # rejection sampling gives up on: none under the full VLB set
    assert (asked["pool"] > 0) == (policy is not None)
    if routing == "t-ugal-l":
        assert asked["enum"] > 0
        assert asked["ring"] > 10  # a 16384-attempt burst, kept for replay


@needs_kernel
def test_an_unfindable_set_is_enumerated_once_per_pair(reference_engine):
    """Pairs whose set the rejection burst cannot find get their
    ``iter_descriptors`` handed to the kernel; an empty one marks the
    pair MIN-only, as the per-packet procedure does."""
    args = (TOPO, Shift(TOPO, 2, 0), 0.3)
    kwargs = dict(
        routing="t-ugal-l",
        policy=HopClassPolicy(0),  # MIN only: every set is empty
        params=SimParams(window_cycles=20),
        seed=4,
    )
    want = simulate(*args, **kwargs)  # the per-packet procedure
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    run = Run(*args, **kwargs)
    assert run.lane == "array"
    run.advance(run.total)
    pairs = run.algo._arrays["pair"]
    enumerated = pairs[:, native.PS_FLAGS] & native.PF_ENUM != 0
    assert enumerated.any()
    assert (pairs[enumerated, native.PS_ELEN] == 0).all()
    result = simulate(*args, **kwargs)
    assert result == want
    assert result.vlb_chosen == 0 and result.min_chosen > 0


@needs_kernel
@pytest.mark.parametrize("routing", ["vlb", "ugal-l", "par"])
def test_too_few_vcs_raise_the_per_packet_procedures_error(
    routing, reference_engine
):
    def error():
        with pytest.raises(ValueError) as caught:
            _simulate(routing, num_vcs=3)
        return str(caught.value)

    want = error()
    assert want.startswith("hop ")
    reference_engine.delenv("REPRO_ARRAYNET_NATIVE")
    assert error() == want


@needs_kernel
def test_a_registered_strategy_the_kernel_does_not_know_stays_in_python(
    monkeypatch,
):
    import repro.spec.builtins as builtins
    from repro.sim.strategies import UgalLocalStrategy

    class Biased(UgalLocalStrategy):
        def cost(self, load, entry):
            return super().cost(load, entry) + 1

    def run():
        return Run(TOPO, Shift(TOPO, 2, 0), 0.3, routing="ugal-l")

    assert run().lane == "array"
    monkeypatch.setattr(builtins, "strategy_for", lambda variant: Biased())
    biased = run()
    assert biased.lane == "packet" and type(biased.algo.strategy) is Biased


@needs_kernel
@pytest.mark.parametrize("routing", ["ugal-l", "par"])
def test_a_runs_store_does_not_grow_with_its_length(routing):
    """Every VLB pick is a fresh sample and a route is four words into
    the route table: past its first window, a run on ``dfly(4,8,4,9)``
    picks thousands more candidates (and PAR revises hundreds more
    packets) without its store growing by one word."""
    topo = Dragonfly(4, 8, 4, 9)
    run = Run(
        topo,
        Shift(topo, 2, 0),
        0.3,
        routing=routing,
        params=SimParams(window_cycles=50),
        seed=1,
    )
    assert run.lane == "array" and run.total == 200
    lane = run.algo
    run.advance(50)
    picks, revised, stored = lane.vlb_chosen, lane.par_revised, lane.ctx.pool_len
    run.advance(200)
    assert lane.vlb_chosen > picks + 1000
    assert (lane.par_revised > revised + 100) == (routing == "par")
    assert lane.ctx.pool_len == stored


# ----------------------------------------------------------------------
# ABI guard (ROADMAP correctness item (e): stale .so with a wrong ABI)
# ----------------------------------------------------------------------
@pytest.fixture
def stale_kernel_cache(tmp_path, monkeypatch):
    """A kernel cache whose entry for the current sources was built from
    sources with another ABI version.

    The sources are a snapshot the loader reads too: keyed by the live
    kernel.c, an edit of that file between building the entry and
    loading would send the loader to another entry -- a fresh build
    with the right ABI, and no mismatch to refuse."""
    compiler = native._find_compiler()
    if compiler is None:
        pytest.skip("needs a C compiler")
    with open(native._KERNEL_SRC) as fh:
        source = fh.read()
    snapshot = tmp_path / "kernel.c"
    snapshot.write_text(source)
    monkeypatch.setattr(native, "_KERNEL_SRC", str(snapshot))
    marker = f"#define REPRO_ARRAYNET_ABI_VERSION {native._ABI_VERSION}"
    assert marker in source
    stale = tmp_path / "stale.c"
    stale.write_text(
        source.replace(
            marker,
            f"#define REPRO_ARRAYNET_ABI_VERSION {native._ABI_VERSION - 1}",
        )
    )
    monkeypatch.setenv("REPRO_ARRAYNET_CACHE", str(tmp_path / "cache"))
    native._build(compiler, str(stale), native._source_digest())
    monkeypatch.setattr(native, "_KERNEL", None)  # as in a fresh process


def test_a_cached_kernel_with_another_abi_is_refused_when_required(
    stale_kernel_cache, monkeypatch
):
    monkeypatch.setenv("REPRO_ARRAYNET_NATIVE", "require")
    with pytest.raises(native.NativeKernelUnavailable, match="ABI mismatch"):
        native.load_kernel()
    with pytest.raises(native.NativeKernelUnavailable):
        ArrayNetwork(TOPO, SimParams(), 4)  # and stays refused


def test_a_cached_kernel_with_another_abi_falls_back_with_one_warning(
    stale_kernel_cache, monkeypatch, caplog
):
    monkeypatch.delenv("REPRO_ARRAYNET_NATIVE", raising=False)
    with caplog.at_level(logging.WARNING, logger="repro"):
        first = _simulate("par")
        again = _simulate("par")
    assert _metrics(first) == _metrics(again) == PINNED["par"]
    warnings = [r for r in caplog.records if "ABI mismatch" in r.getMessage()]
    assert len(warnings) == 1
    run = Run(TOPO, UniformRandom(TOPO), 0.3, params=SimParams(window_cycles=20))
    assert type(run.net) is Network and run.lane == "packet"
