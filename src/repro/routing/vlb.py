"""Valiant (VLB) path computation via compact descriptors.

A VLB path routes ``src -> mid -> dst`` where ``mid`` is an intermediate
switch outside both the source and destination groups, and each leg is a
canonical MIN path.  The descriptor ``(mid, slot1, slot2)`` -- intermediate
switch plus the global-link slots chosen for each leg -- identifies the path
uniquely, so the full VLB set never has to be materialized: there are
``(g-2) * a * m^2`` descriptors per switch pair (``m`` links per group
pair), ~110k per pair on ``dfly(13,26,13,27)``.

Hop counts run from 2 (both legs are bare global hops) to 6 (both legs are
local+global+local), always with exactly 2 global hops.

Legs are rows of the topology's interned :mod:`~repro.routing.table`, so
``vlb_path`` / ``vlb_hops`` / ``vlb_leg_hops`` are lookups after the first
touch of a switch pair.
"""

from __future__ import annotations

from typing import Dict, Iterator, NamedTuple

import numpy as np

from repro.routing.paths import Path
from repro.routing.table import route_table
from repro.topology.dragonfly import Dragonfly

__all__ = [
    "max_vlb_hops",
    "VlbDescriptor",
    "vlb_path",
    "vlb_hops",
    "vlb_leg_hops",
    "enumerate_vlb_descriptors",
    "vlb_class_counts",
    "count_vlb_paths",
]

MIN_VLB_HOPS = 2
MAX_VLB_HOPS = 6  # fully connected groups; see max_vlb_hops() for others


def max_vlb_hops(topo: Dragonfly) -> int:
    """Longest possible VLB path on this topology: two MIN legs, each up
    to ``2*max_local_hops + 1`` hops (e.g. 6 for fully connected groups,
    10 for 2D all-to-all Cascade groups)."""
    return 2 * (2 * topo.max_local_hops + 1)


class VlbDescriptor(NamedTuple):
    """Compact identity of one VLB path: intermediate switch + leg link slots."""

    mid: int
    slot1: int  # global link slot between src group and mid group
    slot2: int  # global link slot between mid group and dst group


def vlb_path(topo: Dragonfly, src: int, dst: int, desc: VlbDescriptor) -> Path:
    """Materialize the VLB path for a descriptor."""
    table = route_table(topo)
    first, second = table.vlb_legs(src, dst, desc)
    return table.path_of(src, first.chans + second.chans)


def vlb_leg_hops(
    topo: Dragonfly, src: int, dst: int, desc: VlbDescriptor
) -> tuple:
    """Hop counts of the two MIN legs, without building paths."""
    first, second = route_table(topo).vlb_legs(src, dst, desc)
    return (first.hops, second.hops)


def vlb_hops(topo: Dragonfly, src: int, dst: int, desc: VlbDescriptor) -> int:
    """Total hop count of a VLB path, without building it."""
    first, second = route_table(topo).vlb_legs(src, dst, desc)
    return first.hops + second.hops


def enumerate_vlb_descriptors(
    topo: Dragonfly, src: int, dst: int
) -> Iterator[VlbDescriptor]:
    """Yield every VLB descriptor for a switch pair.

    Order: intermediate switches ascending, then slot1, then slot2 -- a
    deterministic order that callers may subsample.
    """
    gs, gd = topo.group_of(src), topo.group_of(dst)
    for gm in range(topo.g):
        if gm == gs or gm == gd:
            continue
        m1 = len(topo.links_between_groups(gs, gm))
        m2 = len(topo.links_between_groups(gm, gd))
        for mid in topo.switches_in_group(gm):
            for s1 in range(m1):
                for s2 in range(m2):
                    yield VlbDescriptor(mid, s1, s2)


def count_vlb_paths(topo: Dragonfly, src: int, dst: int) -> int:
    """Number of VLB descriptors for a switch pair (closed form per group)."""
    gs, gd = topo.group_of(src), topo.group_of(dst)
    total = 0
    for gm in range(topo.g):
        if gm == gs or gm == gd:
            continue
        m1 = len(topo.links_between_groups(gs, gm))
        m2 = len(topo.links_between_groups(gm, gd))
        total += topo.a * m1 * m2
    return total


def vlb_class_counts(topo: Dragonfly, src: int, dst: int) -> Dict[int, int]:
    """Histogram {hop count: number of VLB paths} for a switch pair."""
    table = route_table(topo)
    cand = table.vlb_candidates(src, dst)
    hops = table.min_slots().hops
    counts = np.bincount(hops[cand.leg1] + hops[cand.leg2])
    return {int(h): int(counts[h]) for h in np.flatnonzero(counts)}
