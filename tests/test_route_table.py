"""The interned route table against the path-construction reference.

``repro.routing.table`` replaces per-packet path construction with
integer rows; ``vlb_path`` / ``vlb_hops`` / ``vlb_leg_hops`` read it too.
The reference stays ``min_path_via`` + ``Path.concat`` +
``Network.path_channels`` + ``assign_vcs`` -- the code the rows are
filled from once and the hot path used to run per packet.  Every pair
and every descriptor of four small shapes is compared, under both VC
schemes and PAR's revised ladder.

The flattened images (``min_image`` / ``vlb_image``) are composed from
local x global legs with numpy; the second half of this file holds them
array-equal, field for field, to an image assembled one ``min_legs`` /
``vlb_row`` row at a time, and counts the calls the fill makes.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.routing.channels import ChannelIndex
from repro.routing.minimal import min_path_via, min_paths
from repro.routing.paths import Channel
from repro.routing.table import (
    _MAX_TABLES,
    MinImage,
    RouteTable,
    VlbImage,
    route_table,
)
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


# ----------------------------------------------------------------------
# The flattened images are composed from local x global legs; the
# definition stays one row per pair from min_legs / vlb_row / ladders
# ----------------------------------------------------------------------
IMAGE_SHAPES = {
    **{
        f"dfly-{arr}": lambda arr=arr: Dragonfly(2, 4, 2, 9, arrangement=arr)
        for arr in ("absolute", "relative", "circulant")
    },
    "dfly-g3": lambda: Dragonfly(2, 4, 2, 3),
    "dfly-one-group": lambda: Dragonfly(1, 3, 1, 1),
    "cascade-2x2": lambda: CascadeDragonfly(2, 4, 2, 3, rows=2, cols=2),
    "cascade-2x3": lambda: CascadeDragonfly(1, 6, 1, 4, rows=2, cols=3),
    "full-mesh-6": lambda: FullMesh(6, 2),
    "full-mesh-2": lambda: FullMesh(2, 1),
}


def _row_by_row_min_image(table, scheme, num_vcs):
    """``MinImage`` assembled one ``min_legs`` row at a time."""
    nsw = table.nsw
    ladders = table.ladders(scheme, num_vcs)
    k = np.zeros(nsw * nsw, np.int32)
    first = np.zeros(nsw * nsw, np.int64)
    hops, vcs0, rel, chan, vc, shape, ids = [], [], [], [], [], [], {}
    for s in range(nsw):
        for d in range(nsw):
            if s == d:
                continue
            legs = table.min_legs(s, d)
            first[s * nsw + d] = len(hops)
            k[s * nsw + d] = len(legs)
            for leg in legs:
                vcs = ladders[leg.shape]
                rel.append(len(chan))
                hops.append(leg.hops)
                vcs0.append(vcs[0])
                chan.extend(leg.chans)
                vc.extend(vcs)
                shape.append(ids.setdefault(leg.shape, len(ids)))
    shapes = tuple(ids)
    count = len(shapes)
    combo_off = np.full((2, count * count), -1, np.int32)
    combo_vc = []
    for revised in (0, 1):
        two_leg = table.ladders(
            scheme, num_vcs, revised=bool(revised), hop_offset=revised
        )
        for i, head in enumerate(shapes):
            for j, tail in enumerate(shapes):
                try:
                    vcs = two_leg[head + tail]
                except ValueError:
                    continue
                combo_off[revised, i * count + j] = len(combo_vc)
                combo_vc.extend(vcs)
    return MinImage(
        k,
        first,
        np.array(hops, np.int32),
        np.array(vcs0, np.int32),
        np.array(rel, np.int64),
        np.array(chan, np.int32),
        np.array(vc, np.int32),
        np.array(shape, np.int32),
        shapes,
        np.array([name.startswith("l") for name in shapes], np.int32),
        combo_off,
        np.array(combo_vc, np.int32),
    )


def _row_by_row_vlb_image(table):
    """``VlbImage`` assembled one ``vlb_row`` at a time."""
    topo, g = table.topo, table.g
    first = np.zeros(g * g, np.int32)
    n = np.zeros(g * g, np.int32)
    group, links_in, links_out = [], [], []
    for gs in range(g):
        for gd in range(g):
            row = table.vlb_row(gs, gd)
            first[gs * g + gd] = len(group)
            if row is None:
                continue
            mids, m_in, m_out = row
            n[gs * g + gd] = len(mids)
            group.extend(topo.group_of(switches[0]) for switches in mids)
            links_in.extend(m_in)
            links_out.extend(m_out)
    return VlbImage(
        first,
        n,
        np.array(group, np.int32),
        np.array(links_in, np.int32),
        np.array(links_out, np.int32),
        np.array(
            [[topo.switch_id(gm, q) for q in range(topo.a)] for gm in range(g)],
            np.int32,
        ).reshape(g, topo.a),
        np.array([topo.group_of(s) for s in range(table.nsw)], np.int32),
        np.array(
            [topo.switch_of_node(node) for node in range(topo.num_nodes)],
            np.int32,
        ),
        max([1, *links_in, *links_out]),
    )


def _assert_same_image(composed, reference):
    """Field for field: values, and -- the kernel reads these through
    raw pointers -- dtype, shape and contiguity."""
    assert composed._fields == reference._fields
    for name in composed._fields:
        got, want = getattr(composed, name), getattr(reference, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert got.shape == want.shape, name
            assert got.flags.c_contiguous, name
            assert np.array_equal(got, want), name
        else:
            assert type(got) is type(want) and got == want, name


def _assert_images_equal_the_rows(topo, scheme, num_vcs):
    # separate tables: the reference must not read what the composed
    # fill memoized, nor the other way round
    composed, reference = RouteTable(topo), RouteTable(topo)
    _assert_same_image(
        composed.min_image(scheme, num_vcs),
        _row_by_row_min_image(reference, scheme, num_vcs),
    )
    _assert_same_image(composed.vlb_image(), _row_by_row_vlb_image(reference))
    assert composed.slot_bound == _row_by_row_vlb_image(reference).slot_bound
    assert not composed._legs and not composed._vlb_rows  # nothing enumerated


@pytest.mark.parametrize("scheme", ["won", "perhop"])
@pytest.mark.parametrize("shape", sorted(IMAGE_SHAPES))
def test_composed_images_equal_the_row_by_row_assembly(shape, scheme):
    _assert_images_equal_the_rows(IMAGE_SHAPES[shape](), scheme, NUM_VCS)


@pytest.mark.parametrize("scheme", ["won", "perhop"])
def test_composed_image_marks_the_ladders_that_do_not_fit(scheme):
    """UGAL's budget holds every MIN shape but not every two-leg one:
    the same ``combo_off == -1`` marks, the same ``combo_vc``."""
    topo = Dragonfly(2, 4, 2, 5)
    num_vcs = 4 if scheme == "won" else 3
    _assert_images_equal_the_rows(topo, scheme, num_vcs)
    image = RouteTable(topo).min_image(scheme, num_vcs)
    assert (image.combo_off < 0).any() and (image.combo_off >= 0).any()


@pytest.mark.parametrize("scheme", ["won", "perhop"])
def test_composed_image_raises_the_first_min_shape_that_does_not_fit(scheme):
    topo = Dragonfly(2, 4, 2, 5)
    num_vcs = 1 if scheme == "won" else 2
    with pytest.raises(ValueError) as want:
        _row_by_row_min_image(RouteTable(topo), scheme, num_vcs)
    table = RouteTable(topo)
    for _ in range(2):  # and a failed fill leaves no half-built image
        with pytest.raises(ValueError) as got:
            table.min_image(scheme, num_vcs)
        assert str(got.value) == str(want.value)
    assert str(want.value).startswith("hop ")


@st.composite
def _small_topologies(draw):
    a = draw(st.integers(1, 4))
    h = draw(st.integers(1, 3))
    peers = draw(
        st.sampled_from([0] + [d for d in range(1, a * h + 1) if a * h % d == 0])
    )
    p = draw(st.integers(1, 2))
    arrangement = draw(st.sampled_from(["absolute", "relative", "circulant"]))
    grids = [(r, a // r) for r in range(1, a + 1) if a % r == 0]
    rows, cols = draw(st.sampled_from(grids))
    if draw(st.booleans()):
        return CascadeDragonfly(
            p, a, h, peers + 1, arrangement, rows=rows, cols=cols
        )
    return Dragonfly(p, a, h, peers + 1, arrangement)


@settings(max_examples=40, deadline=None)
@given(topo=_small_topologies(), scheme=st.sampled_from(["won", "perhop"]))
def test_composed_images_equal_the_rows_on_any_small_shape(topo, scheme):
    _assert_images_equal_the_rows(topo, scheme, NUM_VCS)


def test_filling_the_images_never_walks_the_switch_pairs(monkeypatch):
    """The Python part of the fill is one ``local_route`` per ordered
    switch pair *of a group* and one ``links_between_groups`` per
    ordered group pair -- O(nsw * a + links), not one ``min_paths`` per
    switch pair."""
    import repro.routing.table as table_module

    topo = Dragonfly(2, 4, 2, 9)
    calls = {"min_paths": 0, "local_route": 0, "links_between_groups": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(
        table_module, "min_paths", counted("min_paths", min_paths)
    )
    for name in ("local_route", "links_between_groups"):
        monkeypatch.setattr(
            topo, name, counted(name, getattr(topo, name)), raising=False
        )
    table = RouteTable(topo)
    table.min_image("won", NUM_VCS)
    table.min_image("perhop", NUM_VCS)  # shares the composition
    table.vlb_image()
    nsw, a, g = topo.num_switches, topo.a, topo.g
    assert calls["min_paths"] == 0
    assert 0 < calls["local_route"] <= nsw * a
    assert 0 < calls["links_between_groups"] <= g * g
    assert nsw * a + g * g < nsw * (nsw - 1) // 4  # far below per-pair work
    table.min_legs(0, nsw - 1)  # the lazy per-pair reference still walks
    assert calls["min_paths"] == 1
