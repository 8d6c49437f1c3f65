"""The interned route table against the path-construction reference.

``repro.routing.table`` replaces per-packet path construction with
integer rows; ``vlb_path`` / ``vlb_hops`` / ``vlb_leg_hops`` read it too.
The reference stays ``min_path_via`` + ``Path.concat`` +
``Network.path_channels`` + ``assign_vcs`` -- the code the rows are
filled from once and the hot path used to run per packet.  Every pair
and every descriptor of four small shapes is compared, under both VC
schemes and PAR's revised ladder.
"""

import pytest

from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_path_via, min_paths
from repro.routing.paths import Channel
from repro.routing.table import _MAX_TABLES, route_table
from repro.routing.vlb import (
    VlbDescriptor,
    enumerate_vlb_descriptors,
    vlb_hops,
    vlb_leg_hops,
    vlb_path,
)
from repro.sim import SimParams, simulate
from repro.sim.network import Network
from repro.sim.vc import assign_vcs
from repro.topology import Dragonfly
from repro.topology.cascade import CascadeDragonfly
from repro.topology.fullmesh import FullMesh
from repro.traffic.patterns import UniformRandom

SHAPES = {
    "dfly-g3": lambda: Dragonfly(2, 4, 2, 3),
    "dfly-g5": lambda: Dragonfly(2, 4, 2, 5),
    "cascade-2x2": lambda: CascadeDragonfly(1, 4, 1, 5, rows=2, cols=2),
    "full-mesh-6": lambda: FullMesh(6, 2),
}
NUM_VCS = 12  # roomy: every ladder of every shape fits


def _pairs(topo):
    n = topo.num_switches
    return [(s, d) for s in range(n) for d in range(n) if s != d]


def _reference(topo, src, dst, desc):
    gs, gm, gd = (topo.group_of(x) for x in (src, desc.mid, dst))
    link1 = topo.links_between_groups(gs, gm)[desc.slot1]
    link2 = topo.links_between_groups(gm, gd)[desc.slot2]
    first = min_path_via(topo, src, desc.mid, link1)
    second = min_path_via(topo, desc.mid, dst, link2)
    return first, second, first.concat(second)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_channel_order_is_the_networks_and_channel_indexs(shape):
    topo = SHAPES[shape]()
    table = route_table(topo)
    network = Network(topo, SimParams(), 4)
    assert list(network.channels) == table.channel_keys
    assert [ch.index for ch in network.channels.values()] == list(
        range(len(table.channel_keys))
    )
    chidx = ChannelIndex(topo)
    assert [chidx.index(Channel(*key)) for key in table.channel_keys] == list(
        range(len(chidx))
    )


@pytest.mark.parametrize("scheme", ["won", "perhop"])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_row_equals_the_reference(shape, scheme):
    topo = SHAPES[shape]()
    table = route_table(topo)
    network = Network(topo, SimParams(), NUM_VCS)
    plain = table.ladders(scheme, NUM_VCS)
    revised = table.ladders(scheme, NUM_VCS, revised=True, hop_offset=1)

    def indices(path):
        return tuple(ch.index for ch in network.path_channels(path))

    checked = 0
    for src, dst in _pairs(topo):
        legs = table.min_legs(src, dst)
        paths = min_paths(topo, src, dst)
        assert len(legs) == len(paths)
        for leg, path in zip(legs, paths):
            assert leg.hops == path.num_hops
            assert leg.chans == indices(path)
            assert plain[leg.shape] == assign_vcs(
                path, scheme, num_vcs=NUM_VCS
            )
            assert table.path_of(src, leg.chans) == path
        for desc in enumerate_vlb_descriptors(topo, src, dst):
            ref1, ref2, ref = _reference(topo, src, dst, desc)
            first, second = table.vlb_legs(src, dst, desc)
            shape_str = first.shape + second.shape
            assert (first.hops, second.hops) == (ref1.num_hops, ref2.num_hops)
            assert first.chans + second.chans == indices(ref)
            assert plain[shape_str] == assign_vcs(
                ref, scheme, num_vcs=NUM_VCS
            )
            assert revised[shape_str] == assign_vcs(
                ref, scheme, hop_offset=1, revised=True, num_vcs=NUM_VCS
            )
            assert vlb_path(topo, src, dst, desc) == ref
            assert vlb_hops(topo, src, dst, desc) == ref.num_hops
            assert vlb_leg_hops(topo, src, dst, desc) == (
                ref1.num_hops,
                ref2.num_hops,
            )
            checked += 1
    assert checked > 0


@pytest.mark.parametrize("scheme", ["won", "perhop"])
def test_too_few_vcs_still_names_the_hop(scheme):
    topo = Dragonfly(2, 4, 2, 5)
    table = route_table(topo)
    ladders = table.ladders(scheme, 2)
    src, dst = 0, 19
    desc = next(
        d
        for d in enumerate_vlb_descriptors(topo, src, dst)
        if vlb_hops(topo, src, dst, d) == 6
    )
    first, second = table.vlb_legs(src, dst, desc)
    ref = _reference(topo, src, dst, desc)[2]
    with pytest.raises(ValueError) as want:
        assign_vcs(ref, scheme, num_vcs=2)
    for _ in range(2):  # the failure is not memoized into a success
        with pytest.raises(ValueError) as got:
            ladders[first.shape + second.shape]
        assert str(got.value) == str(want.value)
    assert str(want.value).startswith("hop ")


def test_simulation_with_too_few_vcs_raises_the_same_error():
    topo = Dragonfly(2, 4, 2, 5)
    params = SimParams(window_cycles=20, num_vcs=2)
    with pytest.raises(ValueError, match=r"^hop \d+: path needs VC"):
        simulate(
            topo, UniformRandom(topo), 0.3, routing="vlb", params=params,
            seed=0,
        )


def test_malformed_descriptors_raise_like_the_reference():
    topo = Dragonfly(2, 4, 2, 5)
    with pytest.raises(ValueError, match="lies in the source or destination"):
        vlb_path(topo, 0, 19, VlbDescriptor(1, 0, 0))  # mid in src group
    with pytest.raises(IndexError):
        vlb_hops(topo, 0, 19, VlbDescriptor(8, 99, 0))  # no such link slot
    with pytest.raises(IndexError):
        vlb_hops(topo, 0, 19, VlbDescriptor(topo.num_switches, 0, 0))
    with pytest.raises(IndexError):
        vlb_hops(topo, 0, 19, VlbDescriptor(-1, 0, 0))


def test_equal_topologies_share_one_table_and_distinct_ones_do_not():
    a, b = Dragonfly(2, 4, 2, 5), Dragonfly(2, 4, 2, 5)
    assert route_table(a) is route_table(b)
    assert route_table(a) is route_table(a)
    assert route_table(Dragonfly(2, 4, 2, 3)) is not route_table(a)
    # same (p, a, h, g) but another grid: a different network
    wide = CascadeDragonfly(1, 6, 2, 5, rows=2, cols=3)
    tall = CascadeDragonfly(1, 6, 2, 5, rows=3, cols=2)
    assert route_table(wide) is not route_table(tall)
    assert route_table(FullMesh(6, 2)) is not route_table(
        Dragonfly(2, 1, 5, 6)
    )


def test_memo_is_bounded_and_evicts_oldest_first():
    assert _MAX_TABLES <= 4
    first = Dragonfly(1, 2, 1, 3)
    oldest = route_table(first)
    for g in (2, 3, 5, 9)[:_MAX_TABLES]:
        route_table(Dragonfly(1, 4, 2, g))
    rebuilt = route_table(first)
    assert rebuilt is not oldest
    assert rebuilt.channel_keys == oldest.channel_keys


def test_table_fills_lazily():
    table = route_table(Dragonfly(1, 3, 2, 7))  # a shape no other test uses
    assert not table._legs and not table._vlb_rows
    table.min_legs(0, 9)
    table.min_legs(0, 9)
    assert list(table._legs) == [0 * table.nsw + 9]
